"""SLO study: burn-rate breach detection driving load-based migration.

The PulsePlane acceptance scenario (see ``docs/OBSERVABILITY.md``): a
steered single-shard RKV service, a well-behaved *victim* client holding
an SLO (``rkv p99 < T over 2ms``), and an *aggressor* fleet that starts
hammering the shard's home server mid-run.  The pulse sampler watches
per-server NIC utilization and the victim's windowed p99; the sequence
the study asserts is the whole closed loop:

1. **breach** — the aggressor drives the victim's p99 over the SLO
   threshold; the multi-window burn-rate evaluator raises ``slo.breach``;
2. **migration** — the :class:`~repro.obs.pulse.LoadFeed` publishes the
   sustained utilization skew to the
   :class:`~repro.net.steering.Rebalancer`, which live-migrates the
   shard to the least-loaded server (``load_moves`` > 0) — *without* any
   fault: this is load-driven rebalancing, not outage evacuation;
3. **recovery** — steered victim traffic follows the repoint, its p99
   falls back under the threshold, and the evaluator emits
   ``slo.recover`` after a full window of in-budget samples.

The ordering breach → migration → recovery is asserted on virtual
timestamps, the run replays bit-identically (the PulsePlane telemetry —
sample CRC, SLO transitions, load migrations — folds into the
:class:`~repro.experiments.chaos_study.ChaosReport` fingerprint), and
the strict PulseMonitor invariants (zero-cost sampling, conservative
breach accounting) hold throughout.

Usage::

    PYTHONPATH=src python -m repro.experiments.slo_study --seed 42
"""

from __future__ import annotations

import argparse

from ..check import CheckPlane
from ..net import Packet
from ..scenario import (
    AppSpec,
    ClientSpec,
    ObsSpec,
    PulseSpec,
    RackSpec,
    RebalanceSpec,
    ScenarioSpec,
    ServerSpec,
    SLOSpec,
    SteeringSpec,
    build,
)
from ..sim import Simulator, Timeout, spawn
from .chaos_study import ChaosReport, _finish_trace, _run_until_answered
from .steering_study import SteeredChaosClient


def slo_spec(seed: int = 42, duration_us: float = 40_000.0,
             threshold_us: float = 150.0, period_us: float = 500.0,
             trace: bool = False) -> ScenarioSpec:
    """Two racks, two servers each; the single rkv shard homes on r0s0
    (the aggressor's target), leaving three servers as headroom."""

    def rack(i: int) -> RackSpec:
        servers = tuple(
            ServerSpec(name=f"r{i}s{j}", host_workers=2, reliable=True,
                       scheduler=(("migration_enabled", False),))
            for j in range(2))
        clients = ((ClientSpec("aggr0"),) if i == 0
                   else (ClientSpec("victim0"),))
        return RackSpec(name=f"rack{i}", servers=servers, clients=clients)

    return ScenarioSpec(
        name="slo-rebalance", seed=seed, duration_us=duration_us,
        racks=tuple(rack(i) for i in range(2)),
        apps=(AppSpec(kind="rkv", servers=("r0s0",), shards=1,
                      options=(("memtable_limit", 256 * 1024),)),),
        steering=(SteeringSpec(service="rkv", app="rkv",
                               window_us=1_500.0),),
        # sustain long enough that the burn-rate breach (which needs a
        # full fast window of bad samples) fires before the migration —
        # the study asserts the breach -> migrate -> recover ordering
        rebalance=RebalanceSpec(on_load=True, sustain_periods=10),
        observability=ObsSpec(
            trace=trace,
            recovery_restart_delay_us=100.0,
            pulse=PulseSpec(period_us=period_us),
            slos=(SLOSpec(service="rkv", threshold_us=threshold_us,
                          pct=99.0, window_us=2_000.0),)))


def run_slo_chaos(seed: int = 42, duration_us: float = 40_000.0,
                  n_requests: int = 80, send_gap_us: float = 400.0,
                  connections: int = 4,
                  aggressor_start_us: float = 8_000.0,
                  aggressor_stop_us: float = 30_000.0,
                  aggressor_gap_us: float = 4.0,
                  threshold_us: float = 150.0,
                  trace: bool = False) -> ChaosReport:
    """Aggressor-vs-victim: SLO breach → load-driven migration → recovery."""
    spec = slo_spec(seed=seed, duration_us=duration_us,
                    threshold_us=threshold_us, trace=trace)
    sim = Simulator()
    if sim.checker is None:
        # outside a SanitizerSession: attach our own (non-strict, so the
        # report carries violations instead of aborting mid-run)
        CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    tplane = bed.trace_plane
    pulse = bed.pulse_plane
    rebalancer = bed.rebalancer
    victim = SteeredChaosClient(bed.sim, bed.network, name="victim0",
                                timeout_us=2_500.0,
                                port=bed.clients["victim0"],
                                connections=connections)

    value = bytes(64)

    def victim_driver():
        for i in range(n_requests):
            key = f"conn{i % connections}:k{i % 7}"
            if i % 3 == 2:
                victim.request("svc:rkv", "rkv-get", {"key": key}, size=96)
            else:
                victim.request("svc:rkv", "rkv-put",
                               {"key": key, "value": value}, size=192)
            yield Timeout(send_gap_us)

    def aggressor_driver():
        # fire-and-forget gets straight at the shard's home server (not
        # the VIP: the aggressor's load must NOT follow the migration).
        # After the shard moves away the runtime drops the unknown kind
        # at near-zero cost — the contention is gone for the victim.
        yield Timeout(aggressor_start_us)
        i = 0
        while bed.sim.now < aggressor_stop_us:
            pkt = Packet("aggr0", "r0s0", 256, kind="rkv-get",
                         payload={"key": f"hot{i % 8}"},
                         created_at=bed.sim.now)
            bed.network.send(pkt)
            i += 1
            yield Timeout(aggressor_gap_us)

    spawn(bed.sim, victim_driver(), name="slo-victim")
    spawn(bed.sim, aggressor_driver(), name="slo-aggressor")
    _run_until_answered(bed, victim, duration_us)

    checker = bed.sim.checker
    pulse_violations = [v for v in checker.violations
                        if v.monitor == "pulse"] if checker else []
    evaluator = pulse._evaluators[0]
    breach_t = next((t for t, kind, _, _ in evaluator.transitions
                     if kind == "breach"), None)
    recover_t = next((t for t, kind, _, _ in evaluator.transitions
                      if kind == "recover"), None)
    move_t = rebalancer.moves[0][0] if rebalancer.moves else None
    ordered = (breach_t is not None and move_t is not None
               and recover_t is not None
               and breach_t <= move_t <= recover_t)
    return ChaosReport(
        workload="slo", seed=seed, requests=n_requests,
        answered=victim.answered, lost=victim.lost,
        client_retransmits=victim.retransmits,
        duplicate_replies=victim.duplicate_replies,
        duration_us=bed.sim.now,
        recovery={},
        invariants={
            "zero_loss": victim.lost == 0,
            "breach_detected": evaluator.breaches >= 1,
            "migrated_on_load": rebalancer.load_moves >= 1,
            "slo_recovered": (evaluator.recoveries >= 1
                              and not evaluator.in_breach),
            "breach_before_move_before_recovery": ordered,
            "pulse_invariants": not pulse_violations,
        },
        pulse=pulse.telemetry(),
        stage_latencies=_finish_trace(tplane),
        trace_plane=tplane,
        pulse_plane=pulse,
    )


def slo_point(**kwargs):
    """Grid/CI entry point: one SLO study run as a plain record."""
    return run_slo_chaos(**kwargs).to_record()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PulsePlane SLO study: breach -> migration -> recovery")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=40_000.0,
                        metavar="US")
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--threshold", type=float, default=150.0,
                        metavar="US", help="victim p99 SLO threshold")
    parser.add_argument("--pulse-csv", default=None, metavar="PATH",
                        help="export the sampled time series as CSV")
    parser.add_argument("--pulse-trace", default=None, metavar="PATH",
                        help="export Perfetto counter tracks (JSON)")
    args = parser.parse_args(argv)
    report = run_slo_chaos(seed=args.seed, duration_us=args.duration,
                           n_requests=args.requests,
                           threshold_us=args.threshold)
    print(report.summary())
    pt = report.pulse
    print(f"  pulse: {pt['samples']} samples, {pt['series']} series, "
          f"crc={pt['store_crc']:#010x}, "
          f"passive_schedules={pt['passive_schedules']}")
    for t, home, dst in pt.get("load_migrations", ()):
        print(f"  load migration @{t:10.1f}us: shard {home} -> {dst}")
    for name, t, kind in pt.get("slo_transitions", ()):
        print(f"  slo {name}: {kind} @{t:10.1f}us")
    if args.pulse_csv:
        rows = report.pulse_plane.export_csv(args.pulse_csv)
        print(f"  pulse csv: {rows} rows -> {args.pulse_csv}")
    if args.pulse_trace:
        events = report.pulse_plane.export_chrome(args.pulse_trace)
        print(f"  pulse trace: {events} counter events -> {args.pulse_trace}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
