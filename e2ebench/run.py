"""End-to-end and per-layer benchmark of the iPipe simulator.

Run from the repository root:

    python3 e2ebench/run.py --workload rkv-testbed --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` makes one traced run and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: metrics named in BENCHMARK.json; the JSON line carries exactly these
END_TO_END = ("sim_us_per_s", "replies_per_s", "setup_s", "peak_rss_mb",
              "sim_mops", "sim_p50_us", "sim_p99_us")


def import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC_DIR)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {SRC_DIR}: {exc}")
    here = os.path.realpath(os.path.dirname(repro.__file__))
    if not here.startswith(os.path.realpath(SRC_DIR) + os.sep):
        raise SystemExit(f"imported repro from {here}, not from {SRC_DIR}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = "".join(f" {k}={m[k]}" for k in ("n", "beyond") if k in m)
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']:<15s}{extra}")


def untraced(workload: str, seed: int, seconds: float):
    import harness
    measured = harness.measure(workload, seed, seconds)
    reps = measured["reps"]
    metrics = harness.end_to_end(reps, measured["setups"],
                                 harness.peak_rss_mb())
    report_metrics(f"end-to-end ({len(reps)} runs, horizon "
                   f"{reps[0].horizon_us:g} sim_us, "
                   f"{'closed' if reps[0].closed_loop else 'open'} loop)",
                   metrics)
    print("run wall s: " + " ".join(f"{r.run_s:.3f}" for r in reps))
    print("at nominal host speed: "
          + " ".join(f"{harness.nominal_run_s(r):.3f}" for r in reps))
    return reps[0], measured["problems"], {
        k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
        for k in END_TO_END}


def traced(workload: str, seed: int):
    import harness
    import layers
    gc.collect()
    base = harness.run_rep(workload, seed)
    problems = [f"untraced: {p}" for p in harness.check_rep(base)]
    setups = [(load, build) for load, build, _ in
              harness.time_setups(workload, seed, 15)]
    gc.collect()
    other = harness.run_rep(workload, seed + 1)
    problems += [f"seed {seed + 1}: {p}" for p in harness.check_rep(other)]
    gc.collect()
    rep, probes = layers.traced_rep(workload, seed)
    problems += [f"traced: {p}" for p in harness.check_rep(rep)]
    if rep.result.fingerprint() != base.result.fingerprint():
        problems.append("traced run fingerprint differs from the untraced run")
    seed_moves = (harness.comparable(other.result)
                  != harness.comparable(base.result))
    print(f"seed {seed + 1} changes the fingerprint: "
          f"{'yes' if seed_moves else 'no'}")
    report_metrics("simulated end-to-end", harness.simulated_metrics(base))
    metrics = layers.per_layer(rep, probes, base, setups)
    report_metrics("per-layer (traced run)", metrics)
    program = (metrics["profile.self_s"]["value"]
               - metrics["other.self_s"]["value"])
    shares = ", ".join(
        f"{layer} {100 * metrics[f'{layer}.self_s']['value'] / program:.1f}%"
        for layer in ("sim", "core", "apps", "apps.rta", "net", "nic", "obs"))
    print(f"shares of the program's self time (probes excluded): {shares}")
    return base, problems, {k: {"value": m["value"], "unit": m["unit"]}
                            for k, m in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r} "
                         f"(known: {', '.join(harness.WORKLOADS)})")
    print(f"workload {args.workload} (spec "
          f"{harness.WORKLOADS[args.workload]}), seed {args.seed}")
    if args.trace:
        rep, problems, metrics = traced(args.workload, args.seed)
    else:
        rep, problems, metrics = untraced(args.workload, args.seed,
                                          args.seconds)
    for line in harness.disagreements(rep):
        print(f"disagrees with ScenarioResult: {line}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("checks: all passed")
    print(json.dumps({"correct": not problems, "attempted": rep.n_sent,
                      "failed": rep.n_sent - rep.n_replies,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
