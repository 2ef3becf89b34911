"""Tests for the ``python -m repro`` command-line interface."""

import json
import textwrap

import pytest

from repro.cli import CHECK_TARGETS, EXPERIMENTS, main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert set(out) == set(EXPERIMENTS)


def test_unknown_experiment_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_table_experiments_print(capsys):
    assert main(["table1", "table2", "table3"]) == 0
    out = capsys.readouterr().out
    assert "LiquidIOII CN2350" in out
    assert "8.3" in out               # Table 2 L1 latency
    assert "flow_classifier" in out   # Table 3 workload


def test_fig2_fig4_print_series(capsys):
    assert main(["fig2", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "1500B" in out
    assert "Figure 4" in out


def test_fig6_to_10_print(capsys):
    assert main(["fig6", "fig7-10"]) == 0
    out = capsys.readouterr().out
    assert "DPDK-send" in out
    assert "RDMA one-sided read" in out


def test_quick_fig17_runs(capsys):
    assert main(["fig17", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "w/o iPipe" in out


# -- repro lint -----------------------------------------------------------------

def test_lint_clean_on_package_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_findings_exit_one(capsys, tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(textwrap.dedent("""\
        import random
        def f():
            return random.random()
    """))
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[module-random]" in out and "1 finding(s)" in out


def test_lint_missing_path_exits_two(capsys, tmp_path):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("wall-clock", "module-random", "unordered-iter"):
        assert rule in out


# -- repro check ----------------------------------------------------------------

def test_check_quick_fig16_exits_zero(capsys):
    assert main(["check", "fig16", "--quick", "--replay", "2"]) == 0
    out = capsys.readouterr().out
    assert "determinism: OK" in out


def test_check_rejects_single_replay(capsys):
    with pytest.raises(SystemExit):
        main(["check", "fig16", "--quick", "--replay", "1"])


def test_check_targets_cover_scheduler_dataplane_chaos_and_scenarios():
    assert {"fig5", "fig16", "chaos-rkv", "chaos-dt",
            "chaos-rta"} <= set(CHECK_TARGETS)
    # every shipped scenario spec is a check target
    from repro.scenario import shipped_specs
    names = shipped_specs()
    assert names  # the package ships specs
    for name in names:
        assert f"scenario-{name}" in CHECK_TARGETS
    assert "slo-study" in CHECK_TARGETS
    assert "steering-chaos" in CHECK_TARGETS


def test_pulse_without_export_paths_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pulse"])
    assert exc.value.code == 2
    assert "nothing to export" in capsys.readouterr().err


def test_slo_quick_prints_the_burn_rate_report(capsys):
    assert main(["slo", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[slo:rkv-p99]" in out
    assert "breach @" in out and "recover @" in out


# -- repro bench --check --------------------------------------------------------

_CANNED_BENCH = {
    "meta": {},
    "kernel": {
        "post_chain_eps": 1_000_000.0,
        "seed_chain_eps": 800_000.0,
        "speedup_post_vs_seed": 1.25,
        "speedup_cancel_vs_seed": 1.5,
        "cancel_heavy_peak_heap": 100.0,
        "cancel_heavy_seed_peak_heap": 200.0,
    },
    "sweep": {
        "points": 4, "pool": 2, "pool_speedup": 1.8,
        "cached_speedup": 5.0, "cache_hit_rate": 1.0, "identical": True,
    },
}


def test_bench_check_regression_gate_failure_path(capsys, tmp_path,
                                                  monkeypatch):
    import repro.exec.bench as bench_mod
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda **kwargs: _CANNED_BENCH)
    baseline = tmp_path / "baseline.json"
    # baseline far above the canned result: the 30% gate must trip
    inflated = {"kernel": {"post_chain_eps": 10_000_000.0,
                           "seed_chain_eps": 800_000.0}}
    baseline.write_text(json.dumps(inflated))
    out_path = tmp_path / "BENCH_sweep.json"
    code = main(["bench", "--out", str(out_path),
                 "--check", str(baseline)])
    assert code == 1
    out = capsys.readouterr().out
    assert "PERF REGRESSION" in out and "post_chain_eps" in out
    # fresh results are still written even when the gate fails
    assert json.loads(out_path.read_text())["kernel"]["post_chain_eps"] == (
        1_000_000.0)


def test_bench_check_passing_gate_exits_zero(capsys, tmp_path, monkeypatch):
    import repro.exec.bench as bench_mod
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda **kwargs: _CANNED_BENCH)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"kernel": {"post_chain_eps": 1_000_000.0}}))
    code = main(["bench", "--out", str(tmp_path / "out.json"),
                 "--check", str(baseline)])
    assert code == 0
    assert "no regression" in capsys.readouterr().out


def test_bench_check_help_states_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = " ".join(capsys.readouterr().out.split())   # undo help wrapping
    assert "Exit code 0" in out and "Exit code 1" in out


def test_check_goldens_skips_on_another_python(capsys, tmp_path):
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps({"python": "2.7", "targets": {}}))
    assert main(["check", "--goldens", str(path)]) == 0
    assert "SKIPPED" in capsys.readouterr().out


def test_check_update_needs_goldens(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--update"])
    assert "--update needs --goldens" in capsys.readouterr().err
