"""Tests of the benchmark's own logic, at short horizons.

Run from the repository root: ``python3 -m pytest e2ebench/tests``.
"""

import cProfile
import math
import pstats

import pytest

import harness
import layers
from repro.sim.distributions import percentile

SMOKE_US = 400.0


def test_quantile_is_none_without_samples():
    assert harness.quantile([], 0.5) is None
    assert harness.quantile([], 0.99) is None


def test_quantile_uses_the_programs_rank_rule():
    samples = [float((7 * i) % 101) for i in range(257)]
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert harness.quantile(samples, q) == percentile(samples, 100 * q)


def test_simulated_metrics_report_null_without_replies():
    rep = harness.run_rep("rkv-testbed", 1, horizon_us=SMOKE_US)
    rep.latencies = []
    metrics = harness.simulated_metrics(rep)
    assert metrics["sim_p50_us"]["value"] is None
    assert metrics["sim_p99_us"]["value"] is None
    assert "no replies" in harness.check_rep(rep)


def test_folding_charges_builtins_to_their_caller():
    samples = [float((7 * i) % 101) for i in range(2000)]
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(50):
        percentile(samples, 99)
    profile.disable()
    stats = pstats.Stats(profile).stats
    folded = layers.fold_profile(stats)
    total = sum(entry[2] for entry in stats.values())
    assert math.isclose(sum(folded.values()), total, rel_tol=1e-9)
    assert set(folded) == {"sim.distributions", layers.OTHER}
    # the builtin sorted() is charged to percentile's module
    sorted_s = sum(entry[2] for func, entry in stats.items()
                   if func[2] == "<built-in method builtins.sorted>")
    own_s = sum(entry[2] for func, entry in stats.items()
                if func[2] == "percentile")
    assert sorted_s > 0
    assert folded["sim.distributions"] >= (sorted_s + own_s) * (1 - 1e-9)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_smoke_run(workload):
    base = harness.run_rep(workload, 3, horizon_us=SMOKE_US)
    rep, probes = layers.traced_rep(workload, 3, horizon_us=SMOKE_US)
    assert harness.check_rep(base) == []
    assert harness.check_rep(rep) == []
    assert rep.result.fingerprint() == base.result.fingerprint()
    package = set(layers.SELF_TIME_LAYERS) | {"scenario"}
    assert {m.split(".")[0] for m in probes["self_s"]} <= package
    assert layers.layer_total(probes["self_s"], "sim") > 0.0
    counter = probes["counter"]
    assert counter.events == sum(counter.by_module().values()) > 0
    setups = [(base.spec_load_s, base.build_s)]
    metrics = layers.per_layer(rep, probes, base, setups)
    assert metrics["net.switch_drops"]["value"] == 0
    assert metrics["core.host_poll_calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_measure_smoke_run(workload):
    measured = harness.measure(workload, 5, seconds=0.0, min_reps=2,
                               setups_per_rep=3, horizon_us=SMOKE_US)
    assert measured["problems"] == []
    assert len(measured["reps"]) == 2 and len(measured["setups"]) == 6
    metrics = harness.end_to_end(measured["reps"], measured["setups"],
                                 harness.peak_rss_mb())
    assert all(m["value"] > 0 for name, m in metrics.items()
               if name != "unanswered_frac")


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_slicing_the_run_does_not_change_the_simulation(workload):
    whole = harness.run_rep(workload, 2, horizon_us=SMOKE_US)
    sliced = harness.run_rep(workload, 2, horizon_us=SMOKE_US, slices=4,
                             between=harness.host_speed)
    assert sliced.result.fingerprint() == whole.result.fingerprint()
    assert sliced.latencies == whole.latencies
    assert len(sliced.ref_s) == 4
    assert all(r > 0 for r in sliced.ref_s)


def test_nominal_run_time_scales_with_the_host_speed_readings():
    rep = harness.run_rep("rkv-testbed", 1, horizon_us=SMOKE_US)
    rep.run_s, rep.ref_s = 2.0, [harness.REF_NOMINAL_S] * 3
    assert math.isclose(harness.nominal_run_s(rep), 2.0)
    # a host twice as slow doubles both the run and the reference
    rep.run_s, rep.ref_s = 4.0, [2 * harness.REF_NOMINAL_S] * 3
    assert math.isclose(harness.nominal_run_s(rep), 2.0)


def test_seed_reaches_every_fleet():
    spec = harness.load_spec("rkv-fabric-open", 123)
    assert spec.seed == 123
    assert all(f.seed == 123 for f in spec.fleets)


def test_patched_restores_the_original():
    from repro.scenario import ClientPort
    original = ClientPort.receive
    with harness.ReplyTap().active():
        assert ClientPort.receive is not original
    assert ClientPort.receive is original
