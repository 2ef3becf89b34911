"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig2 fig4 table2
    python -m repro fig16 --quick
    python -m repro all --quick
    python -m repro trace --workload rkv --out trace.json
    python -m repro top --by node,cat,actor
    python -m repro fig16 --jobs 4
    python -m repro sweep fig16 --jobs 4 --quick
    python -m repro bench --out BENCH_sweep.json
    python -m repro check --replay 2 fig16 --quick
    python -m repro check --goldens
    python -m repro lint
    python -m repro scenario list
    python -m repro scenario validate
    python -m repro scenario run multi-rack-rkv --duration-us 5000
    python -m repro run multi-rack-rkv --shards by-rack --compare-serial

``--jobs N`` fans a figure's grid out to N worker processes through the
sweep executor (results are bit-identical to a serial run); ``sweep``
additionally caches point results on disk so re-runs only recompute
dirty points; ``bench`` emits the perf baseline ``BENCH_sweep.json``;
``check`` replays one experiment under the determinism sanitizer and
``lint`` runs the static nondeterminism-hazard pass (docs/CHECKING.md);
``scenario`` lists, validates, and runs declarative deployment specs
(docs/SCENARIOS.md) — shipped specs are also ``check`` targets as
``scenario-<name>``; ``run`` is shorthand for ``scenario run`` and takes
``--shards by-rack`` to execute a multi-rack spec on the parallel-in-time
rack-shard executor (``--compare-serial`` proves the fingerprint matches
the single-simulator run; see docs/PERFORMANCE.md).

``--quick`` shrinks simulation durations ~4x for a fast look; the
benchmark suite (``pytest benchmarks/ --benchmark-only``) remains the
canonical reproduction run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

from .experiments.report import render_series, render_table


def _executor(jobs: int):
    """A :class:`ParallelSweep` for ``--jobs N`` fan-out, or None serial."""
    if jobs <= 1:
        return None
    from .exec import ParallelSweep
    return ParallelSweep(jobs=jobs)


def _table1() -> None:
    from .nic import table1_rows
    print(render_table(table1_rows(), title="Table 1: SmartNIC specifications"))


def _table2() -> None:
    from .experiments.characterization import table2_rows
    print(render_table(table2_rows(), title="Table 2: memory latencies (ns)"))


def _table3() -> None:
    from .experiments.characterization import table3_accel_rows, table3_rows
    print(render_table(table3_rows(), title="Table 3: offloaded workloads"))
    print(render_table(table3_accel_rows(), title="Table 3: accelerators"))


def _fig2(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import figure2_series
    from .nic import LIQUIDIO_CN2350
    print("Figure 2: bandwidth (Gbps) vs cores, LiquidIOII CN2350")
    for size, points in figure2_series(LIQUIDIO_CN2350).items():
        print(" ", render_series(f"{size}B", *zip(*points)))


def _fig3(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import figure2_series
    from .nic import STINGRAY_PS225
    print("Figure 3: bandwidth (Gbps) vs cores, Stingray PS225")
    for size, points in figure2_series(STINGRAY_PS225).items():
        print(" ", render_series(f"{size}B", *zip(*points)))


def _fig4(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import computing_headroom_us
    from .nic import LIQUIDIO_CN2350, STINGRAY_PS225
    print("Figure 4: computing headroom (µs/packet at line rate)")
    for spec in (LIQUIDIO_CN2350, STINGRAY_PS225):
        print(f"  {spec.model}: "
              f"256B={computing_headroom_us(spec, 256):.2f} "
              f"1024B={computing_headroom_us(spec, 1024):.2f}")


def _fig5(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import figure5_panel
    duration = 8_000.0 if quick else 25_000.0
    print("Figure 5: avg/p99 latency at max throughput (CN2350)")
    panel = figure5_panel(duration_us=duration, executor=_executor(jobs))
    for size in (64, 512, 1024, 1500):
        for cores in (6, 12):
            p = panel[(size, cores)]
            print(f"  {size:5d}B {cores:2d} cores: avg={p.avg_us:6.2f}µs "
                  f"p99={p.p99_us:6.2f}µs")


def _fig6(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import figure6_series
    print("Figure 6: messaging latency (µs)")
    for name, points in figure6_series().items():
        print(" ", render_series(name, *zip(*points)))


def _fig7_10(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.characterization import (
        figure7_series, figure8_series, figure9_series, figure10_series)
    for title, series in (
        ("Figure 7: DMA latency (µs)", figure7_series()),
        ("Figure 8: DMA throughput (Mops)", figure8_series()),
        ("Figure 9: RDMA latency (µs)", figure9_series()),
        ("Figure 10: RDMA throughput (Mops)", figure10_series()),
    ):
        print(title)
        for name, points in series.items():
            print(" ", render_series(name, *zip(*points)))


def _fig13(quick: bool = False, jobs: int = 1) -> None:
    from .exec import ParallelSweep, grids
    from .experiments.applications import ROLES
    sizes = (512,) if quick else (64, 256, 512, 1024)
    merged = ParallelSweep(jobs=jobs).run(grids.fig13_grid(quick=quick)).results
    print("Figure 13: host cores used (10GbE CN2350)")
    for size in sizes:
        for system in ("dpdk", "ipipe"):
            for role, (app, idx) in ROLES.items():
                cores = merged[("fig13", system, app, size)].host_cores[f"s{idx}"]
                print(f"  {size:5d}B {system:5s} {role:15s} {cores:5.2f}")


def _fig14(quick: bool = False, jobs: int = 1) -> None:
    from .exec import ParallelSweep, grids
    clients = (2, 16) if quick else (2, 8, 24, 64)
    merged = ParallelSweep(jobs=jobs).run(grids.fig14_grid(quick=quick)).results
    print("Figure 14: latency vs per-core throughput (10GbE, 512B)")
    for system in ("dpdk", "ipipe"):
        for app in ("rta", "dt", "rkv"):
            curve = [(merged[("fig14", system, app, c)].per_core_tput("s0"),
                      merged[("fig14", system, app, c)].mean_latency_us)
                     for c in clients]
            pts = " ".join(f"{t:.2f}Mops@{l:.1f}µs" for t, l in curve)
            print(f"  {app}-{system}: {pts}")


def _fig16(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.scheduler_study import run_point, sweep
    from .nic import LIQUIDIO_CN2350
    duration = 30_000.0 if quick else 100_000.0
    loads = (0.5, 0.9) if quick else (0.3, 0.5, 0.7, 0.9)
    for dispersion in ("low", "high"):
        print(f"Figure 16 ({dispersion} dispersion, CN2350): p99 (µs)")
        results = sweep(LIQUIDIO_CN2350, dispersion, loads,
                        duration_us=duration, executor=_executor(jobs))
        for policy, series in results.items():
            print(" ", render_series(policy, [l for l, _, _ in series],
                                     [p for _, _, p in series],
                                     xfmt="{:.1f}"))
    # where the sojourn time goes at the knee: a traced rerun of the
    # hybrid at the highest swept load, attributed per pipeline stage
    _, _, stages = run_point(LIQUIDIO_CN2350, "ipipe", "high", loads[-1],
                             duration_us=duration, traced=True)
    print(f"Figure 16 stage breakdown (ipipe, high dispersion, "
          f"load={loads[-1]:.1f}):")
    for stage, st in stages.items():
        print(f"  {stage:14s} n={st['count']:<8d} p50={st['p50_us']:8.2f}µs "
              f"p99={st['p99_us']:8.2f}µs")


def _fig17(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.applications import overhead_comparison
    duration = 8_000.0 if quick else 15_000.0
    print("Figure 17: host-only RKV CPU with vs without iPipe")
    for load, dpdk, ipipe in overhead_comparison(
            load_fractions=(0.5, 1.0), duration_us=duration,
            executor=_executor(jobs)):
        print(f"  load={load:.2f}: w/o iPipe {dpdk:.2f} cores, "
              f"w/ iPipe {ipipe:.2f} cores")


def _fig18(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.migration_study import breakdown_rows, run_migration_breakdown
    print("Figure 18: migration breakdown")
    for row in breakdown_rows(run_migration_breakdown(warmup_us=2_000.0)):
        print(f"  {row.actor:10s} p1={row.phase1_us:6.0f}µs "
              f"p2={row.phase2_us:6.0f}µs p3={row.phase3_us:8.0f}µs "
              f"p4={row.phase4_us:8.0f}µs  total={row.total_ms:.2f}ms")


def _sec56(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.netfns import floem_vs_ipipe
    duration = 8_000.0 if quick else 12_000.0
    for size in (1024, 64):
        floem, ipipe = floem_vs_ipipe(packet_size=size, clients=96,
                                      duration_us=duration)
        print(f"§5.6 {size}B: Floem {floem.gbps_per_core:.2f} vs "
              f"iPipe {ipipe.gbps_per_core:.2f} Gbps/core")


def _sec57(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.netfns import firewall_latency_vs_load, ipsec_goodput_gbps
    from .nic import LIQUIDIO_CN2360
    duration = 8_000.0 if quick else 15_000.0
    print("§5.7 firewall (8K rules):")
    for load, latency in firewall_latency_vs_load(duration_us=duration):
        print(f"  load={load:.2f}: {latency:.2f}µs")
    print(f"§5.7 IPsec: 10GbE={ipsec_goodput_gbps(duration_us=duration):.1f} "
          f"Gbps, 25GbE={ipsec_goodput_gbps(spec=LIQUIDIO_CN2360, duration_us=duration):.1f} Gbps")


def _plan_study(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.plan_study import render_comparison, run_study
    study = run_study(quick=quick)
    print(render_table(render_comparison(study["comparisons"]),
                       title="PlanPlane: planner vs reactive DRR "
                             "(docs/PLANNING.md)"))
    chaos = study["chaos"]
    print(chaos.describe())
    if not chaos.ok:
        raise SystemExit("plan-study: planned placement broke the chaos "
                         "recovery criterion")


def _tenant_study(quick: bool = False, jobs: int = 1) -> None:
    from .experiments.tenant_study import run_tenant_study
    kwargs = ({"duration_us": 20_000.0, "n_requests": 30,
               "aggressor_stop_us": 18_000.0} if quick else {})
    record = run_tenant_study(**kwargs)
    print("TenantPlane: noisy neighbor vs hierarchical DRR shares "
          "(docs/TENANCY.md)")
    print(f"  victim p99 solo      {record['victim_p99_solo_us']:8.1f}µs")
    print(f"  victim p99 flat      {record['victim_p99_flat_us']:8.1f}µs "
          f"({record['degradation_x']:.2f}x)")
    print(f"  victim p99 isolated  {record['victim_p99_isolated_us']:8.1f}µs "
          f"({record['isolated_x']:.2f}x)")
    bad = [k for k, good in record["invariants"].items() if not good]
    if bad:
        raise SystemExit(f"tenant-study: violated {', '.join(bad)}")
    print("  all isolation invariants hold")


def _cmd_trace(argv) -> int:
    """``repro trace``: run a traced workload, export Chrome trace JSON."""
    from .experiments.chaos_study import RUNNERS
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one traced workload and export a Perfetto-loadable "
                    "Chrome trace (open it at https://ui.perfetto.dev).")
    parser.add_argument("--workload", choices=sorted(RUNNERS), default="rkv")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="trace.json", metavar="PATH",
                        help="output path for the trace_event JSON")
    args = parser.parse_args(argv)
    report = RUNNERS[args.workload](seed=args.seed, trace=True)
    print(report.summary())
    events = report.trace_plane.export_chrome(args.out)
    print(f"\n{events} trace events -> {args.out} "
          f"(drag into https://ui.perfetto.dev)")
    return 0 if report.ok else 1


def _cmd_top(argv) -> int:
    """``repro top``: flame-style fold of span time by node/stage/actor."""
    from .experiments.chaos_study import RUNNERS
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Run one traced workload and print where the "
                    "virtual time went, folded by span fields.")
    parser.add_argument("--workload", choices=sorted(RUNNERS), default="rkv")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--by", default="node,cat,actor",
                        help="comma-separated fold key (span fields "
                             "node/cat/name/track or attribute names)")
    parser.add_argument("--limit", type=int, default=40)
    args = parser.parse_args(argv)
    report = RUNNERS[args.workload](seed=args.seed, trace=True)
    by = tuple(dim.strip() for dim in args.by.split(",") if dim.strip())
    print(report.trace_plane.flame(by=by, limit=args.limit))
    print()
    print(report.trace_plane.render_stages())
    return 0


def _cmd_slo(argv) -> int:
    """``repro slo``: run the SLO study and print the burn-rate report."""
    from .experiments.slo_study import run_slo_chaos
    from .obs import render_slo_report
    parser = argparse.ArgumentParser(
        prog="python -m repro slo",
        description="Run the PulsePlane SLO study (aggressor vs victim) "
                    "and print each SLO's burn-rate evaluation: state, "
                    "breach/recovery transitions, and budget math "
                    "(docs/OBSERVABILITY.md). Exit code 0: the whole "
                    "breach -> load-driven migration -> recovery loop "
                    "closed; 1 otherwise.")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threshold", type=float, default=150.0,
                        metavar="US", help="victim p99 SLO threshold")
    parser.add_argument("--quick", action="store_true",
                        help="shorter run (~1s)")
    args = parser.parse_args(argv)
    kwargs = {"seed": args.seed, "threshold_us": args.threshold}
    if args.quick:
        kwargs.update(duration_us=25_000.0, n_requests=55,
                      aggressor_stop_us=20_000.0)
    report = run_slo_chaos(**kwargs)
    print(report.summary())
    print(render_slo_report(report.pulse_plane.slo_report()))
    return 0 if report.ok else 1


def _cmd_pulse(argv) -> int:
    """``repro pulse``: run a pulse-sampled study, export the series."""
    from .experiments.slo_study import run_slo_chaos
    parser = argparse.ArgumentParser(
        prog="python -m repro pulse",
        description="Run the pulse-sampled SLO study and export the "
                    "continuous telemetry: --csv for a series,t_us,value "
                    "table, --out for Perfetto-loadable counter tracks "
                    "(open at https://ui.perfetto.dev).")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write the sampled series as CSV")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write Chrome trace_event counter tracks")
    args = parser.parse_args(argv)
    if not args.csv and not args.out:
        parser.error("nothing to export: pass --csv and/or --out")
    report = run_slo_chaos(seed=args.seed)
    print(report.summary())
    pulse = report.pulse_plane
    if args.csv:
        rows = pulse.export_csv(args.csv)
        print(f"{rows} samples -> {args.csv}")
    if args.out:
        events = pulse.export_chrome(args.out)
        print(f"{events} counter events -> {args.out} "
              f"(drag into https://ui.perfetto.dev)")
    return 0 if report.ok else 1


def _cmd_sweep(argv) -> int:
    """``repro sweep``: run one experiment grid through the executor."""
    from .exec import DEFAULT_CACHE_DIR, ParallelSweep, ResultCache, grids
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run an experiment grid through the parallel sweep "
                    "executor, caching point results on disk so re-runs "
                    "only recompute dirty points.")
    parser.add_argument("grid", choices=sorted(grids.GRIDS),
                        help="which figure/study grid to run")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations for a fast look")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU; default 1)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR", help="result cache directory "
                        f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point; do not touch the cache")
    args = parser.parse_args(argv)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = ParallelSweep(jobs=args.jobs, cache=cache).run(
        grids.GRIDS[args.grid](quick=args.quick))
    for key, value in report.results.items():
        text = repr(value)
        if len(text) > 110:
            text = text[:107] + "..."
        print(f"  {key}: {text}")
    print(report.summary())
    return 0


def _cmd_bench(argv) -> int:
    """``repro bench``: kernel + sweep benchmarks -> BENCH_sweep.json."""
    import json
    from .exec.bench import (REGRESSION_THRESHOLD, check_regression,
                             run_bench, write_bench)
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="DES-kernel and sweep-executor benchmarks; writes the "
                    "BENCH_sweep.json perf baseline and optionally gates "
                    "against a committed one.")
    parser.add_argument("--out", default="BENCH_sweep.json", metavar="PATH")
    parser.add_argument("--pool", type=int, default=4, metavar="N",
                        help="pool size for the sweep benchmark (default 4)")
    parser.add_argument("--full", action="store_true",
                        help="full-size sweep grid instead of the quick one")
    parser.add_argument("--figures", action="store_true",
                        help="also time per-figure grid wall-clock")
    # argparse help strings are %-interpolated: escape the threshold
    threshold = f"{REGRESSION_THRESHOLD:.0%}".replace("%", "%%")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare *_eps metrics against a baseline "
                             "JSON file. Exit code 0: every metric is "
                             f"within {threshold} of the baseline (the "
                             "fresh results are still written to --out). "
                             "Exit code 1: at least one metric regressed "
                             "beyond the threshold; each failing metric "
                             "is printed with its baseline and current "
                             "value")
    args = parser.parse_args(argv)
    bench = run_bench(pool=args.pool, quick=not args.full,
                      figures=args.figures)
    # The file is written before any printing or gating: a section that
    # errored is stamped into it, and CI uploads it ``if: always()``.
    write_bench(bench, args.out)
    errored = sorted(section for section, metrics in bench.items()
                     if isinstance(metrics, dict) and "error" in metrics)
    kern, sw = bench["kernel"], bench["sweep"]
    cores = bench.get("meta", {}).get("runner_cores", "?")
    print(f"wrote {args.out} ({cores} runner core(s))")
    if "kernel" not in errored:
        print(f"  kernel: post chain {kern['post_chain_eps']:,.0f} ev/s "
              f"(seed kernel {kern['seed_chain_eps']:,.0f}; "
              f"{kern['speedup_post_vs_seed']:.2f}x), cancel-heavy "
              f"{kern['speedup_cancel_vs_seed']:.2f}x, peak heap "
              f"{kern['cancel_heavy_peak_heap']:.0f} vs seed "
              f"{kern['cancel_heavy_seed_peak_heap']:.0f}")
    if "sweep" not in errored:
        speedup = sw.get("pool_speedup")
        pool_txt = (f"pool x{sw['pool']} {speedup:.2f}x"
                    if speedup is not None
                    else f"pool x{sw['pool']} skipped "
                         f"({sw.get('pool_note', 'single-core host')})")
        print(f"  sweep ({sw['points']} pts): {pool_txt}, "
              f"warm cache {sw['cached_speedup']:.2f}x "
              f"(hit rate {sw['cache_hit_rate']:.0%}), "
              f"identical={sw['identical']}")
    shard = bench.get("shard")
    if shard and "shard" not in errored:
        proc = shard.get("proc_speedup")
        proc_txt = (f", process-sharded {proc:.2f}x" if proc is not None
                    else f" ({shard.get('proc_note', 'no process leg')})")
        print(f"  shard ({shard['spec']}): {shard['racks']} racks, "
              f"serial {shard['serial_s']:.2f}s vs sharded "
              f"{shard['shard_s']:.2f}s ({shard['shard_speedup']:.2f}x on "
              f"{shard['effective_jobs']} effective core(s))"
              f"{proc_txt}, rounds={shard['rounds']}, "
              f"fingerprint match={shard['match']}")
    for section in errored:
        print(f"  {section}: ERRORED: {bench[section]['error']}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_regression(bench, baseline)
        if failures:
            print("PERF REGRESSION vs " + args.check + ":")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"  no regression vs {args.check}")
    return 1 if errored else 0


def _scenario_names() -> tuple:
    """Shipped scenario spec names, found on disk so listing them does
    not import the (heavy) scenario layer at CLI start."""
    spec_dir = os.path.join(os.path.dirname(__file__), "scenario", "specs")
    if not os.path.isdir(spec_dir):
        return ()
    return tuple(sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(spec_dir) if entry.endswith(".json")))


#: ``repro check`` targets: representative runs covering the scheduler
#: study (fig16), the characterization dataplane (fig5), the three
#: chaos scenarios (full fault-injection + recovery paths), and every
#: shipped scenario spec (as ``scenario-<name>``).
CHECK_TARGETS = ("fig5", "fig16", "chaos-rkv", "chaos-dt", "chaos-rta",
                 "steering-chaos", "slo-study", "tenant-study"
                 ) + tuple(f"scenario-{name}" for name in _scenario_names()) \
                   + tuple(f"plan-{name}" for name in _scenario_names())


def _check_run_fn(target: str, quick: bool, seed: int | None):
    """A self-contained zero-arg runner for one ``repro check`` target.

    ``--quick`` shrinks durations to sanitizer-smoke size (a two-replay
    check finishes in about a second); without it the experiment's
    default duration is used.
    """
    if target == "fig16":
        from .experiments.scheduler_study import run_point
        from .nic import LIQUIDIO_CN2350
        kwargs = {"seed": 1 if seed is None else seed}
        if quick:
            kwargs["duration_us"] = 4_000.0
        return lambda: run_point(LIQUIDIO_CN2350, "ipipe", "high", 0.9,
                                 **kwargs)
    if target == "fig5":
        from .experiments.characterization import traffic_manager_experiment
        kwargs = {"seed": 3 if seed is None else seed}
        if quick:
            kwargs["duration_us"] = 3_000.0
        return lambda: traffic_manager_experiment(frame_bytes=512, cores=6,
                                                  **kwargs)
    if target == "steering-chaos":
        from .experiments.steering_study import rebalance_point
        kwargs = {"seed": 42 if seed is None else seed}
        if quick:
            kwargs.update(duration_us=20_000.0, n_requests=40,
                          send_gap_us=300.0, notice_us=3_000.0)
        return lambda: rebalance_point(**kwargs)
    if target == "slo-study":
        from .experiments.slo_study import slo_point
        kwargs = {"seed": 42 if seed is None else seed}
        if quick:
            # shrunk but still closing the breach -> migrate -> recover
            # loop, so the pulse/SLO fingerprint terms stay exercised
            kwargs.update(duration_us=25_000.0, n_requests=55,
                          aggressor_stop_us=20_000.0)
        return lambda: slo_point(**kwargs)
    if target == "tenant-study":
        from .experiments.tenant_study import tenant_point
        kwargs = {"seed": 42 if seed is None else seed}
        if quick:
            # shrunk three-leg run; still long enough for the flood to
            # degrade the flat leg >= 2x and for the shares to hold the
            # isolated leg within 25% of solo
            kwargs.update(duration_us=20_000.0, n_requests=30,
                          aggressor_stop_us=18_000.0)
        return lambda: tenant_point(**kwargs)
    if target.startswith("scenario-"):
        import dataclasses
        from .scenario import load_shipped, run_scenario
        spec = load_shipped(target[len("scenario-"):])
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        duration = 5_000.0 if quick else None
        return lambda: run_scenario(spec, duration_us=duration).fingerprint()
    if target.startswith("plan-"):
        # the whole planning pipeline: profile -> solve -> apply -> run;
        # the digest covers the plan *and* the planned run
        import dataclasses
        from .plan import apply_placement, compute_plan
        from .scenario import load_shipped, run_scenario
        spec = load_shipped(target[len("plan-"):])
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        duration = 5_000.0 if quick else None
        profile_us = 2_000.0 if quick else None

        def planned_run():
            plan = compute_plan(spec, profile_us)
            planned = apply_placement(plan, spec)
            result = run_scenario(planned, duration_us=duration)
            return (plan.fingerprint(), result.fingerprint())
        return planned_run
    workload = target.split("-", 1)[1]
    from .exec.grids import chaos_point
    kwargs = {"seed": 42 if seed is None else seed}
    if quick:
        kwargs["duration_us"] = 10_000.0
    return lambda: chaos_point(workload, **kwargs)


#: The committed golden registry: one CRC-32 per ``repro check`` target.
GOLDENS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tests", "goldens.json")


def _golden_digests() -> Dict[str, str]:
    """CRC-32 of ``repr()`` of every check target's ``--quick`` result,
    run with the target's default seed."""
    import zlib
    out = {}
    for target in CHECK_TARGETS:
        result = _check_run_fn(target, True, None)()
        out[target] = f"{zlib.crc32(repr(result).encode()):08x}"
    return out


def _python_minor() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def _check_goldens(path: str, update: bool) -> int:
    """Verify (or with ``update`` rewrite) the golden registry."""
    import json
    if update:
        goldens = {"python": _python_minor(), "targets": _golden_digests()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"goldens: wrote {len(CHECK_TARGETS)} targets to {path} "
              f"(Python {_python_minor()})")
        return 0
    with open(path, encoding="utf-8") as fh:
        goldens = json.load(fh)
    if goldens["python"] != _python_minor():
        # float results may differ between interpreter versions
        print(f"goldens: SKIPPED, recorded under Python {goldens['python']}, "
              f"running {_python_minor()}")
        return 0
    want = goldens["targets"]
    got = _golden_digests()
    names = sorted(set(want) | set(got))
    bad = [t for t in names if want.get(t) != got.get(t)]
    for target in bad:
        print(f"  {target}: golden {want.get(target)} got {got.get(target)}")
    print(f"goldens: {len(names) - len(bad)}/{len(names)} targets match "
          f"{path}")
    return 1 if bad else 0


def _cmd_check(argv) -> int:
    """``repro check``: N-replay determinism sanitizer over one target."""
    from .check import replay_check
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Replay one experiment N times under the determinism "
                    "sanitizer and compare rolling event digests; on a "
                    "mismatch, binary-search to the first divergent event "
                    "and name the offending callback. Exit code 0: all "
                    "replays bit-identical and no nondeterminism hazard "
                    "observed; exit code 1 otherwise.")
    parser.add_argument("target", choices=CHECK_TARGETS, nargs="?",
                        help="which experiment to replay")
    parser.add_argument("--goldens", nargs="?", const=GOLDENS_PATH,
                        default=None, metavar="PATH",
                        help="instead of replaying one target, compare "
                             "every target's --quick result CRC against "
                             "the golden registry (default "
                             "tests/goldens.json); exit 1 on a mismatch")
    parser.add_argument("--update", action="store_true",
                        help="with --goldens: rewrite the registry")
    parser.add_argument("--replay", type=int, default=2, metavar="N",
                        help="replays to compare (minimum 2; default 2)")
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the target's own)")
    parser.add_argument("--quick", action="store_true",
                        help="sanitizer-smoke durations (~1s per check)")
    parser.add_argument("--monitors", action="store_true",
                        help="also sweep the runtime invariant monitors "
                             "during each replay (violations fail the "
                             "check)")
    args = parser.parse_args(argv)
    if args.goldens is not None:
        return _check_goldens(args.goldens, args.update)
    if args.update:
        parser.error("--update needs --goldens")
    if args.target is None:
        parser.error("a target is required without --goldens")
    if args.replay < 2:
        parser.error("--replay must be at least 2")
    run_fn = _check_run_fn(args.target, args.quick, args.seed)
    result = replay_check(run_fn, replays=args.replay,
                          monitors=args.monitors)
    print(f"check {args.target}"
          + (f" --seed {args.seed}" if args.seed is not None else "")
          + (" --monitors" if args.monitors else ""))
    print(result.describe())
    return 0 if result.ok else 1


def _resolve_spec(ref: str):
    """A spec from a shipped name or a ``.json``/``.toml`` path."""
    from .scenario import from_file, load_shipped
    if ref.endswith(".json") or ref.endswith(".toml") or os.sep in ref:
        return from_file(ref)
    return load_shipped(ref)


def _cmd_scenario(argv) -> int:
    """``repro scenario``: list, validate, and run declarative specs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Work with declarative deployment scenarios "
                    "(docs/SCENARIOS.md). Specs ship under "
                    "repro/scenario/specs/ and load from JSON or TOML.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="shipped scenario specs with a summary")
    p_val = sub.add_parser(
        "validate", help="validate spec files (default: all shipped)")
    p_val.add_argument("specs", nargs="*", metavar="SPEC",
                       help="shipped names or .json/.toml paths")
    p_run = sub.add_parser("run", help="build one scenario and run it")
    p_run.add_argument("spec", metavar="SPEC",
                       help="shipped name or .json/.toml path")
    p_run.add_argument("--duration-us", type=float, default=None,
                       help="override the spec's horizon")
    p_run.add_argument("--shards", choices=("none", "by-rack"), default=None,
                       help="execution mode override: by-rack runs one "
                            "simulator per rack in conservative lookahead "
                            "windows (default: the spec's own setting)")
    p_run.add_argument("--processes", type=int, default=None, metavar="N",
                       help="with by-rack shards: fork one worker process "
                            "per rack when N > 0 (default: the spec's own)")
    p_run.add_argument("--compare-serial", action="store_true",
                       help="also run the serial single-simulator "
                            "execution and verify the fingerprints match "
                            "(exit 1 on divergence)")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        from .scenario import load_shipped, shipped_specs
        for name in shipped_specs():
            spec = load_shipped(name)
            servers = sum(len(r.servers) for r in spec.racks)
            apps = ",".join(a.kind for a in spec.apps) or "none"
            print(f"{name}: {len(spec.racks)} rack(s), {servers} server(s), "
                  f"apps [{apps}], {len(spec.fleets)} fleet(s), "
                  f"{len(spec.tenants)} tenant(s), {len(spec.faults)} "
                  f"fault(s)")
            if spec.description:
                print(f"  {spec.description}")
        return 0

    if args.cmd == "validate":
        from .scenario import ScenarioError, shipped_specs
        refs = args.specs or shipped_specs()
        if not refs:
            print("no specs to validate", file=sys.stderr)
            return 2
        failures = 0
        for ref in refs:
            try:
                spec = _resolve_spec(ref)
                spec.validate()
            except (ScenarioError, OSError, KeyError) as exc:
                failures += 1
                print(f"FAIL {ref}: {exc}")
            else:
                print(f"ok   {ref} ({spec.name})")
        return 1 if failures else 0

    import dataclasses
    from .scenario import run_scenario
    spec = _resolve_spec(args.spec)
    if args.shards is not None or args.processes is not None:
        ex = spec.execution
        spec = dataclasses.replace(spec, execution=dataclasses.replace(
            ex,
            shards=args.shards if args.shards is not None else ex.shards,
            processes=(args.processes if args.processes is not None
                       else ex.processes)))
    spec.validate()
    result = run_scenario(spec, duration_us=args.duration_us)
    print(f"scenario {result.name} (seed {result.seed}, "
          f"{result.duration_us:.0f}µs"
          + (f", shards={spec.execution.shards}"
             if spec.execution.shards != "none" else "") + ")")
    print(f"  sent {result.sent}, completed {result.completed} "
          f"({result.throughput_mops:.3f} Mops)")
    if result.completed:
        print(f"  latency mean {result.mean_latency_us:.3f}µs "
              f"p99 {result.p99_latency_us:.3f}µs")
    for client, count in sorted(result.client_received.items()):
        print(f"  client {client}: {count} replies")
    for switch, (fwd, dropped) in sorted(result.switch_counters.items()):
        print(f"  switch {switch}: forwarded {fwd}, dropped {dropped}")
    if result.faults_injected or result.recoveries:
        print(f"  faults {result.faults_injected}, "
              f"recoveries {result.recoveries}")
    print(f"  fingerprint {result.fingerprint()}")
    if args.compare_serial:
        serial_spec = dataclasses.replace(spec, execution=dataclasses.replace(
            spec.execution, shards="none",
            fault_streams=spec.execution.resolved_fault_streams()))
        serial = run_scenario(serial_spec, duration_us=args.duration_us)
        if serial.fingerprint() == result.fingerprint():
            print("  serial equivalence: MATCH")
        else:
            print("  serial equivalence: MISMATCH")
            print(f"  serial fingerprint {serial.fingerprint()}")
            return 1
    return 0


def _cmd_plan(argv) -> int:
    """``repro plan``: compile a profile-driven placement plan."""
    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description="Profile one scenario under the TracePlane, solve "
                    "fabric-wide shard/actor placement against the "
                    "calibrated NIC/host cost models, and emit the plan "
                    "as a declarative PlacementSpec (docs/PLANNING.md). "
                    "Exit code 0: planned (and, with --run, ran) "
                    "successfully. Exit code 1: the plan failed "
                    "validation, did not fit the scenario, or the "
                    "planned run failed. Exit code 2: usage error.")
    parser.add_argument("scenario", metavar="SCENARIO",
                        help="shipped name or .json/.toml spec path")
    parser.add_argument("--out", metavar="PLAN.json", default=None,
                        help="write the PlacementSpec JSON here")
    parser.add_argument("--spec-out", metavar="SPEC.json", default=None,
                        help="also write the planned (transformed) "
                             "scenario spec here")
    parser.add_argument("--validate", metavar="PLAN.json", default=None,
                        help="validate an existing plan against the "
                             "scenario instead of solving a new one")
    parser.add_argument("--profile-us", type=float, default=None,
                        metavar="US", help="profiling window (default: "
                        "min(spec horizon, 5000µs))")
    parser.add_argument("--run", action="store_true",
                        help="run the planned scenario and report it "
                             "next to the unplanned (reactive) run")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-profile and re-solve; do not "
                             "touch the result cache")
    args = parser.parse_args(argv)

    from .exec import DEFAULT_CACHE_DIR, ResultCache
    from .plan import (PlanError, apply_placement, plan_scenario, to_json)
    from .plan import from_file as plan_from_file
    from .scenario import ScenarioError, run_scenario
    from .scenario import to_json as spec_to_json
    try:
        spec = _resolve_spec(args.scenario)
        spec.validate()

        if args.validate is not None:
            plan = plan_from_file(args.validate).validate()
            planned = apply_placement(plan, spec)
            planned.validate()
            print(f"ok   {args.validate} fits {spec.name} "
                  f"(plan {plan.fingerprint()}, "
                  f"{len(plan.actors)} actor placements)")
            return 0

        cache = None if args.no_cache else ResultCache(
            os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
        plan = plan_scenario(spec, profile_duration_us=args.profile_us,
                             cache=cache)
        planned = apply_placement(plan, spec)
        planned.validate()

        nic = sum(1 for p in plan.actors if p.device == "nic")
        host = len(plan.actors) - nic
        print(f"plan {spec.name}: {len(plan.assignments)} shard "
              f"assignment(s), {len(plan.actors)} actor placement(s) "
              f"({nic} nic / {host} host)")
        print(f"  profile {plan.profile_fingerprint}, "
              f"plan {plan.fingerprint()}, "
              f"predicted p99 {plan.objective_p99_us:.3f}µs")
        for a in plan.assignments:
            print(f"  {a.app} shard {a.shard}: "
                  f"{a.servers[0]} (leader) + "
                  f"{', '.join(a.servers[1:]) or 'no followers'}")
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(to_json(plan))
            print(f"  wrote {args.out}")
        if args.spec_out is not None:
            with open(args.spec_out, "w", encoding="utf-8") as fh:
                fh.write(spec_to_json(planned))
            print(f"  wrote {args.spec_out}")

        if args.run:
            planned_res = run_scenario(planned)
            reactive_res = run_scenario(spec)
            for label, res in (("planned", planned_res),
                               ("reactive", reactive_res)):
                done = res.completed or sum(res.client_received.values())
                line = (f"  {label}: {done} completed")
                if res.completed:
                    line += (f", p99 {res.p99_latency_us:.3f}µs")
                line += f", fingerprint {res.fingerprint()}"
                print(line)
        return 0
    except (PlanError, ScenarioError, OSError, KeyError) as exc:
        print(f"plan failed: {exc}", file=sys.stderr)
        return 1


def _cmd_lint(argv) -> int:
    """``repro lint``: static nondeterminism-hazard pass over src/repro."""
    import os
    from .check import RULES, lint_file, lint_tree
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static pass banning nondeterminism hazards (host "
                    "clocks, module-level random, set iteration feeding "
                    "event scheduling) in simulation code. Exit code 0: "
                    "clean; 1: findings; 2: a path does not exist.")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--rules", action="store_true",
                        help="list the lint rules and exit")
    args = parser.parse_args(argv)
    if args.rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule:15s} {description}")
        return 0
    roots = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    findings = []
    for root in roots:
        if not os.path.exists(root):
            print(f"no such path: {root}", file=sys.stderr)
            return 2
        if os.path.isfile(root):
            findings.extend(lint_file(root))
        else:
            findings.extend(lint_tree(root))
    for finding in findings:
        print(finding)
    checked = ", ".join(args.paths) if args.paths else "src/repro"
    if findings:
        print(f"repro lint: {len(findings)} finding(s) in {checked}")
        return 1
    print(f"repro lint: clean ({checked})")
    return 0


EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": lambda quick=False, jobs=1: _table1(),
    "table2": lambda quick=False, jobs=1: _table2(),
    "table3": lambda quick=False, jobs=1: _table3(),
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7-10": _fig7_10,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "sec5.6": _sec56,
    "sec5.7": _sec57,
    "plan-study": _plan_study,
    "tenant-study": _tenant_study,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _cmd_trace(argv[1:])
    if argv and argv[0] == "top":
        return _cmd_top(argv[1:])
    if argv and argv[0] == "sweep":
        return _cmd_sweep(argv[1:])
    if argv and argv[0] == "bench":
        return _cmd_bench(argv[1:])
    if argv and argv[0] == "check":
        return _cmd_check(argv[1:])
    if argv and argv[0] == "lint":
        return _cmd_lint(argv[1:])
    if argv and argv[0] == "scenario":
        return _cmd_scenario(argv[1:])
    if argv and argv[0] == "plan":
        return _cmd_plan(argv[1:])
    if argv and argv[0] == "run":
        # shorthand: ``repro run SPEC ...`` == ``repro scenario run ...``
        return _cmd_scenario(["run"] + argv[1:])
    if argv and argv[0] == "slo":
        return _cmd_slo(argv[1:])
    if argv and argv[0] == "pulse":
        return _cmd_pulse(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the iPipe paper.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids (see 'list'), or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations for a fast look")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan experiment grids out to N worker "
                             "processes (results identical to serial)")
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0
    targets = (list(EXPERIMENTS) if args.experiments == ["all"]
               else args.experiments)
    for name in targets:
        fn = EXPERIMENTS.get(name)
        if fn is None:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2
        fn(quick=args.quick, jobs=args.jobs)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
