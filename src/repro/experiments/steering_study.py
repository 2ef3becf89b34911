"""Steering study: connection-consistent load balancing under rack loss.

The SteerPlane acceptance scenario (see ``docs/FAULTS.md``): a sharded
RKV service behind an epoch-versioned Maglev VIP across three racks,
an open-loop client fleet steering by connection, and a scheduled rack
outage in the middle of the run.  The :class:`~repro.net.steering.Rebalancer`
sees the outage coming, live-migrates the doomed shard to a spare server
in another rack (drain → checkpoint → restore → repoint), and
repatriates it when the rack returns — while the client keeps sending.

Asserted invariants:

* **zero loss** — every request is answered despite the rack outage and
  two live migrations in the middle of the request stream;
* **steering safety** — the :class:`~repro.check.SteeringMonitor`
  observed no request delivered to a backend that does not own its key
  in the request's steering epoch, no affinity break within an epoch,
  and no request handed to two different backends in the same epoch;
* **evacuated / returned** — the shard actually left the doomed rack
  before the outage and was repatriated after it.

Usage::

    PYTHONPATH=src python -m repro.experiments.steering_study --seed 42

Returns a :class:`~repro.experiments.chaos_study.ChaosReport` whose
``steering`` dict (epochs, forwards, suppressions, moves) folds into the
replay fingerprint — the CI smoke replays the scenario and requires
bit-identical fingerprints.
"""

from __future__ import annotations

import argparse
from typing import Dict

from ..check import CheckPlane
from ..net import Packet
from ..scenario import (
    AppSpec,
    ClientSpec,
    FaultDecl,
    ObsSpec,
    RackSpec,
    RebalanceSpec,
    ScenarioSpec,
    ServerSpec,
    SteeringSpec,
    build,
)
from ..sim import FaultKind, Simulator, Timeout, spawn
from .chaos_study import (
    ChaosClient,
    ChaosReport,
    _collect,
    _finish_trace,
    _run_until_answered,
)


class SteeredChaosClient(ChaosClient):
    """ChaosClient speaking to a VIP: stable per-connection steering keys
    and an explicit request uid for exactly-once accounting.

    The uid survives retransmission (same rid → same uid), so a
    retransmit racing a repoint is *supposed* to reach the same logical
    request twice on the wire — the suppression/exactly-once machinery
    must collapse it to one delivery.
    """

    def __init__(self, *args, connections: int = 6, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections = connections

    def decorate(self, pkt: Packet, rid: int) -> None:
        pkt.meta["req_uid"] = ("req", rid)
        pkt.meta["steer_key"] = f"{self.name}:conn{rid % self.connections}"


def rebalance_spec(seed: int = 42, duration_us: float = 40_000.0,
                   notice_us: float = 6_000.0,
                   trace: bool = False) -> ScenarioSpec:
    """Three racks, two servers each; the rkv shards live on the first
    server of every rack, leaving the second as migration headroom."""

    def rack(i: int) -> RackSpec:
        servers = tuple(
            ServerSpec(name=f"r{i}s{j}", host_workers=2, reliable=True,
                       scheduler=(("migration_enabled", False),))
            for j in range(2))
        clients = (ClientSpec("client0"),) if i == 0 else ()
        return RackSpec(name=f"rack{i}", servers=servers, clients=clients)

    shard_homes = ("r0s0", "r1s0", "r2s0")
    return ScenarioSpec(
        name="steering-rebalance", seed=seed, duration_us=duration_us,
        racks=tuple(rack(i) for i in range(3)),
        apps=(AppSpec(kind="rkv", servers=shard_homes, shards=3,
                      options=(("memtable_limit", 256 * 1024),)),),
        steering=(SteeringSpec(service="rkv", app="rkv",
                               window_us=1_500.0),),
        rebalance=RebalanceSpec(notice_us=notice_us),
        faults=(FaultDecl(kind=FaultKind.RACK_DOWN, target="rack1",
                          at_us=(duration_us * 0.45,),
                          duration_us=duration_us * 0.25),),
        observability=ObsSpec(trace=trace,
                              recovery_restart_delay_us=100.0))


def run_rebalance_chaos(seed: int = 42, duration_us: float = 40_000.0,
                        n_requests: int = 64, send_gap_us: float = 400.0,
                        connections: int = 6, notice_us: float = 6_000.0,
                        trace: bool = False) -> ChaosReport:
    """Live cross-rack migration under a scheduled rack outage."""
    spec = rebalance_spec(seed=seed, duration_us=duration_us,
                          notice_us=notice_us, trace=trace)
    sim = Simulator()
    if sim.checker is None:
        # outside a SanitizerSession: attach our own (non-strict, so the
        # report carries violations instead of aborting mid-run)
        CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    tplane = bed.trace_plane
    plane = bed.fault_plane
    controller = bed.steering
    rebalancer = bed.rebalancer
    client = SteeredChaosClient(bed.sim, bed.network, name="client0",
                                timeout_us=2_500.0,
                                port=bed.clients["client0"],
                                connections=connections)

    value = bytes(64)

    def driver():
        for i in range(n_requests):
            conn = i % connections
            key = f"conn{conn}:k{i % 7}"
            if i % 3 == 2:
                client.request("svc:rkv", "rkv-get", {"key": key}, size=96)
            else:
                client.request("svc:rkv", "rkv-put",
                               {"key": key, "value": value}, size=192)
            yield Timeout(send_gap_us)

    spawn(bed.sim, driver(), name="steer-driver")
    _run_until_answered(bed, client, duration_us)

    injected, schedule, recovery = _collect(bed, plane)
    checker = bed.sim.checker
    steer_violations = [v for v in checker.violations
                        if v.monitor == "steering"] if checker else []
    runtimes = [srv.runtime for _, srv in sorted(bed.servers.items())]
    moves = tuple((round(t, 3), svc, home, src, dst)
                  for t, svc, home, src, dst in rebalancer.moves)
    evacuated = any(src == "r1s0" for _, _, _, src, _ in moves)
    returned = all(cur == home
                   for home, cur in rebalancer.placement.items())
    steering: Dict[str, object] = {
        "epochs": controller.service("rkv").epoch,
        "steered": controller.steered,
        "forwarded": sum(r.forwarded_cross_rack for r in runtimes),
        "suppressed": sum(r.steer_suppressed for r in runtimes),
        "deliveries": len(controller.deliveries),
        "moves": moves,
    }
    return ChaosReport(
        workload="steering", seed=seed, requests=n_requests,
        answered=client.answered, lost=client.lost,
        client_retransmits=client.retransmits,
        duplicate_replies=client.duplicate_replies,
        duration_us=bed.sim.now,
        faults_injected=injected, fault_schedule=schedule,
        recovery=recovery,
        invariants={
            "zero_loss": client.lost == 0,
            "steering_safety": not steer_violations,
            "evacuated": evacuated,
            "returned": returned,
        },
        steering=steering,
        stage_latencies=_finish_trace(tplane),
        trace_plane=tplane,
    )


def rebalance_point(**kwargs) -> Dict[str, object]:
    """Grid/CI entry point: one steering-chaos run as a plain record."""
    return run_rebalance_chaos(**kwargs).to_record()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SteerPlane chaos: rack outage with live migration")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=40_000.0,
                        metavar="US")
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--notice", type=float, default=6_000.0,
                        metavar="US", help="evacuation head start")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace of the run")
    args = parser.parse_args(argv)
    report = run_rebalance_chaos(seed=args.seed, duration_us=args.duration,
                                 n_requests=args.requests,
                                 notice_us=args.notice,
                                 trace=args.trace_out is not None)
    print(report.summary())
    st = report.steering
    print(f"  steering: {st['epochs']} epoch bumps, "
          f"{st['steered']} steered, {st['forwarded']} forwarded, "
          f"{st['suppressed']} duplicates suppressed")
    for t, svc, home, src, dst in st["moves"]:
        print(f"  move @{t:10.1f}us {svc}: {src} -> {dst} (home {home})")
    if args.trace_out and report.trace_plane is not None:
        events = report.trace_plane.export_chrome(args.trace_out)
        print(f"  trace: {events} events -> {args.trace_out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
