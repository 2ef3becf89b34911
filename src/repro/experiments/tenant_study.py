"""Tenant study: noisy-neighbor isolation under hierarchical DRR.

The TenantPlane acceptance scenario (see ``docs/TENANCY.md``): one
SmartNIC server hosting three tenants' apps side by side — a *victim*
tenant running RKV, a *batch* tenant running DT, and an *aggressor*
tenant running RTA — plus a chaos fault schedule (wire loss + torn DMA)
so isolation is proved under recovery traffic, not just clean load.
The study runs the same workload three ways:

1. **solo** — victim + batch only: the victim's baseline p99;
2. **isolation off** — the aggressor floods its RTA pipeline; tenants
   are declared (so every ledger and monitor runs) but carry *no*
   shares, so the scheduler serves everyone flat and the victim's p99
   collapses;
3. **isolation on** — identical traffic, but the tenants carry
   NIC-core shares: hierarchical DRR scales the aggressor's quantum
   grants down to its share, the aggressor's accelerator use is
   rate-limited, and its DMO bytes are capped.

The acceptance criteria: with isolation on the victim's p99 stays
within 25% of solo; with isolation off it degrades at least 2x; the
:class:`~repro.check.monitors.TenantMonitor` reports zero violations
throughout (no cross-tenant DMO access, per-tenant quantum
conservation); and the whole study replays bit-identically (the
per-run ChaosReport fingerprints fold into one study fingerprint).

Usage::

    PYTHONPATH=src python -m repro.experiments.tenant_study --seed 42
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from ..check import CheckPlane
from ..net import Packet
from ..scenario import (
    AppSpec,
    ClientSpec,
    FaultDecl,
    ObsSpec,
    PulseSpec,
    RackSpec,
    ScenarioSpec,
    ServerSpec,
    TenantSpec,
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

#: NIC-core shares when isolation is on (sum <= 1 by spec validation).
VICTIM_SHARE = 0.85
AGGRESSOR_SHARE = 0.05
BATCH_SHARE = 0.1


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(int(0.99 * len(ordered)), len(ordered) - 1)
    return ordered[idx]


def tenant_spec(isolation: bool, seed: int = 42,
                duration_us: float = 40_000.0, loss: float = 0.0,
                alive_cores: int = 2, core_fail_at_us: float = 1_000.0,
                period_us: float = 500.0,
                trace: bool = False) -> ScenarioSpec:
    """One rack, two servers; every tenant's app homes on s0 (the
    contended NIC), the DT participant rides on s1.  The *same* tenants
    are declared in both modes — isolation off only drops the shares,
    so actor tagging, ledgers and monitors are identical and the p99
    delta is attributable to the shares alone."""
    if isolation:
        tenants = (
            TenantSpec(name="victim", nic_core_share=VICTIM_SHARE,
                       dmo_budget_bytes=64 << 20,
                       slos=("rkv p99 < 400us over 2ms",)),
            TenantSpec(name="aggressor", nic_core_share=AGGRESSOR_SHARE,
                       dmo_budget_bytes=64 << 20),
            TenantSpec(name="batch", nic_core_share=BATCH_SHARE),
        )
    else:
        tenants = (
            TenantSpec(name="victim",
                       slos=("rkv p99 < 400us over 2ms",)),
            TenantSpec(name="aggressor"),
            TenantSpec(name="batch"),
        )
    return ScenarioSpec(
        name=f"tenant-{'isolated' if isolation else 'flat'}",
        seed=seed, duration_us=duration_us,
        racks=(RackSpec(
            name="rack0",
            servers=tuple(
                # a low tail threshold pushes every actor into the DRR
                # pool once the flood queues build, so the per-tenant
                # quantum scaling (not FCFS luck) decides who runs
                ServerSpec(name=n, host_workers=2, reliable=True,
                           scheduler=(("migration_enabled", False),
                                      ("tail_thresh_us", 8.0),
                                      ("mean_thresh_us", 4.0)))
                for n in ("s0", "s1")),
            clients=(ClientSpec("victim0"), ClientSpec("aggr0"),
                     ClientSpec("batch0"))),),
        apps=(
            AppSpec(kind="rkv", servers=("s0",), shards=1, tenant="victim",
                    options=(("memtable_limit", 256 * 1024),)),
            AppSpec(kind="dt", servers=("s0", "s1"), tenant="batch",
                    options=(("log_segment_bytes", 1 << 20),)),
            AppSpec(kind="rta", servers=("s0",), tenant="aggressor"),
        ),
        tenants=tenants,
        faults=tuple(
            [FaultDecl(kind=FaultKind.LINK_LOSS, target="*",
                       probability=loss)] if loss > 0 else []
        ) + (
            FaultDecl(kind=FaultKind.DMA_TORN, target="s0.chan.*",
                      every_nth=400),
        ) + tuple(
            # the chaos leg of the study: most of s0's NIC cores fail
            # early, so every tenant is squeezed onto a sliver of the
            # NIC and the share split actually decides who gets served
            FaultDecl(kind=FaultKind.CORE_FAIL, target=str(core),
                      node="s0", at_us=(core_fail_at_us,))
            for core in range(alive_cores, 12)
        ),
        observability=ObsSpec(
            trace=trace,
            recovery_restart_delay_us=100.0,
            pulse=PulseSpec(period_us=period_us)))


def run_tenant_chaos(isolation: bool, aggressor: bool = True,
                     seed: int = 42, duration_us: float = 40_000.0,
                     n_requests: int = 60, send_gap_us: float = 400.0,
                     aggressor_start_us: float = 4_000.0,
                     aggressor_stop_us: float = 36_000.0,
                     aggressor_gap_us: float = 1.5,
                     loss: float = 0.0, alive_cores: int = 2,
                     trace: bool = False) -> ChaosReport:
    """One leg of the study: victim + batch traffic, optionally the
    aggressor flood, with or without tenant shares."""
    spec = tenant_spec(isolation, seed=seed, duration_us=duration_us,
                       loss=loss, alive_cores=alive_cores, trace=trace)
    sim = Simulator()
    if sim.checker is None:
        # outside a SanitizerSession: attach our own (non-strict, so the
        # report carries violations instead of aborting mid-run)
        CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    tplane = bed.trace_plane
    plane = bed.fault_plane
    pulse = bed.pulse_plane
    victim = ChaosClient(bed.sim, bed.network, name="victim0",
                         timeout_us=2_500.0, port=bed.clients["victim0"])
    batch = ChaosClient(bed.sim, bed.network, name="batch0",
                        timeout_us=3_000.0, port=bed.clients["batch0"])
    value = bytes(64)

    def victim_driver():
        for i in range(n_requests):
            key = f"k{i % 7}"
            if i % 3 == 2:
                victim.request("s0", "rkv-get", {"key": key}, size=96)
            else:
                victim.request("s0", "rkv-put",
                               {"key": key, "value": value}, size=192)
            yield Timeout(send_gap_us)

    def batch_driver():
        # a light transactional trickle: the mixed-tenant background
        for i in range(max(n_requests // 6, 1)):
            batch.request("s0", "dt-txn", {
                "reads": [f"x{i % 4}"],
                "writes": {f"y{i % 4}": f"v{i}".encode()},
            }, size=160)
            yield Timeout(send_gap_us * 6)

    def aggressor_driver():
        # fire-and-forget analytics tuples straight at the shared
        # server: without shares the RTA pipeline's downgraded actors
        # soak up every DRR grant the victim needs
        yield Timeout(aggressor_start_us)
        i = 0
        while bed.sim.now < aggressor_stop_us:
            pkt = Packet("aggr0", "s0", 256, kind="rta-tuple",
                         payload={"tuples": [f"#tag{i % 5} flood {i}"]},
                         created_at=bed.sim.now)
            bed.network.send(pkt)
            i += 1
            yield Timeout(aggressor_gap_us)

    spawn(bed.sim, victim_driver(), name="tenant-victim")
    spawn(bed.sim, batch_driver(), name="tenant-batch")
    if aggressor:
        spawn(bed.sim, aggressor_driver(), name="tenant-aggressor")
    _run_until_answered(bed, victim, duration_us)

    injected, schedule, recovery = _collect(bed, plane)
    checker = bed.sim.checker
    tenancy_violations = [v for v in checker.violations
                          if v.monitor == "tenancy"] if checker else []
    runtime = bed.servers["s0"].runtime
    sched = runtime.nic_scheduler
    tenant_busy = {t: round(us, 3)
                   for t, us in sorted(sched.tenant_busy_us.items())}
    report = ChaosReport(
        workload="tenant", seed=seed, requests=n_requests,
        answered=victim.answered, lost=victim.lost,
        client_retransmits=victim.retransmits,
        duplicate_replies=victim.duplicate_replies,
        duration_us=bed.sim.now,
        faults_injected=injected, fault_schedule=schedule,
        recovery=recovery,
        invariants={
            "zero_loss": victim.lost == 0,
            "batch_answered": batch.answered > 0,
            "tenants_tagged": all(
                a.tenant for a in runtime.actors),
            "no_cross_tenant_dmo": runtime.dmo.cross_tenant_denials == 0,
            "tenant_invariants": not tenancy_violations,
        },
        pulse=pulse.telemetry(),
        stage_latencies=_finish_trace(tplane),
        trace_plane=tplane,
        pulse_plane=pulse,
    )
    # study-specific riders (folded into the record by tenant_point)
    report.pulse["victim_p99_us"] = round(_p99(victim.latencies), 6)
    report.pulse["tenant_busy_us"] = tuple(sorted(tenant_busy.items()))
    return report


def run_tenant_study(seed: int = 42, duration_us: float = 40_000.0,
                     n_requests: int = 60, send_gap_us: float = 400.0,
                     aggressor_stop_us: float = 36_000.0,
                     aggressor_gap_us: float = 1.5,
                     loss: float = 0.0, alive_cores: int = 2,
                     degradation_min: float = 2.0,
                     isolation_slack: float = 1.25,
                     trace: bool = False) -> Dict[str, object]:
    """The full three-leg comparison, as one plain record."""
    kwargs = dict(seed=seed, duration_us=duration_us,
                  n_requests=n_requests, send_gap_us=send_gap_us,
                  aggressor_stop_us=aggressor_stop_us,
                  aggressor_gap_us=aggressor_gap_us, loss=loss,
                  alive_cores=alive_cores, trace=trace)
    solo = run_tenant_chaos(isolation=False, aggressor=False, **kwargs)
    flat = run_tenant_chaos(isolation=False, aggressor=True, **kwargs)
    isolated = run_tenant_chaos(isolation=True, aggressor=True, **kwargs)

    solo_p99 = solo.pulse["victim_p99_us"]
    flat_p99 = flat.pulse["victim_p99_us"]
    iso_p99 = isolated.pulse["victim_p99_us"]
    checks = {
        "legs_ok": solo.ok and flat.ok and isolated.ok,
        "interference_shown": flat_p99 >= degradation_min * solo_p99,
        "isolation_holds": iso_p99 <= isolation_slack * solo_p99,
    }
    return {
        "workload": "tenant-study",
        "seed": seed,
        "victim_p99_solo_us": solo_p99,
        "victim_p99_flat_us": flat_p99,
        "victim_p99_isolated_us": iso_p99,
        "degradation_x": round(flat_p99 / solo_p99, 3) if solo_p99 else 0.0,
        "isolated_x": round(iso_p99 / solo_p99, 3) if solo_p99 else 0.0,
        "invariants": {**{f"solo_{k}": v
                          for k, v in solo.invariants.items()},
                       **{f"flat_{k}": v
                          for k, v in flat.invariants.items()},
                       **{f"isolated_{k}": v
                          for k, v in isolated.invariants.items()},
                       **checks},
        "ok": (solo.ok and flat.ok and isolated.ok
               and all(checks.values())),
        "fingerprint": (solo.telemetry_fingerprint(),
                        flat.telemetry_fingerprint(),
                        isolated.telemetry_fingerprint()),
    }


def tenant_point(**kwargs) -> Dict[str, object]:
    """Grid/CI entry point: the whole study as a plain record."""
    return run_tenant_study(**kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="TenantPlane study: noisy neighbor with and without "
                    "hierarchical DRR shares")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=40_000.0,
                        metavar="US")
    parser.add_argument("--requests", type=int, default=60)
    args = parser.parse_args(argv)
    record = run_tenant_study(seed=args.seed, duration_us=args.duration,
                              n_requests=args.requests)
    print(f"[tenant-study] seed={record['seed']}")
    print(f"  victim p99: solo={record['victim_p99_solo_us']:.1f}us, "
          f"aggressor+flat={record['victim_p99_flat_us']:.1f}us "
          f"({record['degradation_x']:.2f}x), "
          f"aggressor+shares={record['victim_p99_isolated_us']:.1f}us "
          f"({record['isolated_x']:.2f}x)")
    print("  invariants: " + ", ".join(
        f"{name}={'ok' if good else 'VIOLATED'}"
        for name, good in record["invariants"].items()))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
