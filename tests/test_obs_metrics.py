"""Metrics correctness: log-linear histogram accuracy and windowing."""

import pytest

from repro.obs import EMPTY_QUANTILE, Histogram, MetricsRegistry, no_data
from repro.obs.metrics import _bucket_index, _bucket_value
from repro.sim import Rng, percentile as exact_percentile


class _Sim:
    def __init__(self):
        self.now = 0.0
        self.tracer = self.metrics = self.checker = self.pulse = None


# -- bucket lattice -----------------------------------------------------------
def test_bucket_roundtrip_relative_error():
    """The bucket midpoint is within the advertised 1/(2·sub) relative
    error for values on the log-linear lattice (≥ 1.0); the sub-unit
    linear region bounds the *absolute* error at 1/(2·sub) instead."""
    sub = 16
    value = 1.0
    while value < 1e7:
        mid = _bucket_value(_bucket_index(value, sub), sub)
        assert mid == pytest.approx(value, rel=1.0 / (2 * sub) + 1e-9), value
        value *= 1.37
    value = 0.001
    while value < 1.0:
        mid = _bucket_value(_bucket_index(value, sub), sub)
        assert abs(mid - value) <= 1.0 / (2 * sub) + 1e-9, value
        value *= 1.6


def test_bucket_index_monotone():
    sub = 16
    prev = -1
    value = 0.001
    while value < 1e6:
        idx = _bucket_index(value, sub)
        assert idx >= prev
        prev = idx
        value *= 1.05


# -- histogram accuracy -------------------------------------------------------
@pytest.mark.parametrize("pct", [50, 90, 99])
def test_histogram_percentiles_match_exact(pct):
    rng = Rng(5)
    hist = Histogram("svc")
    samples = []
    for _ in range(20_000):
        v = rng.lognormal(40.0, 0.8)
        samples.append(v)
        hist.record(0.0, v)
    approx = hist.percentile(pct)
    exact = exact_percentile(samples, pct)
    assert approx == pytest.approx(exact, rel=0.05)


def test_histogram_mean_and_count_are_exact():
    hist = Histogram()
    values = [1.0, 2.0, 3.0, 10.0, 100.0]
    for v in values:
        hist.record(0.0, v)
    assert hist.count == len(values)
    assert hist.mean == pytest.approx(sum(values) / len(values))
    assert hist.max_value == 100.0


def test_histogram_negative_values_clamped():
    hist = Histogram()
    hist.record(0.0, -5.0)
    assert hist.count == 1
    assert hist.percentile(50) < 1.0


# -- windowing ----------------------------------------------------------------
def test_window_ages_out_old_samples():
    hist = Histogram(window_us=1_000.0, windows=2)
    hist.record(0.0, 1000.0)            # old spike
    for t in range(10):
        hist.record(5_000.0 + t, 1.0)   # recent, far past the horizon
    # windowed view only sees the recent values; all-time still has both
    assert hist.percentile(99, now=5_100.0) < 10.0
    assert hist.percentile(99, now=None) > 500.0
    assert hist.window_count(5_100.0) == 10
    assert hist.count == 11


def test_window_merges_adjacent_windows():
    hist = Histogram(window_us=1_000.0, windows=6)
    hist.record(500.0, 10.0)
    hist.record(1_500.0, 20.0)          # rotates; previous window kept
    assert hist.window_count(1_600.0) == 2


def test_rotation_jumps_large_gaps_in_one_step():
    hist = Histogram(window_us=1_000.0, windows=6)
    hist.record(0.0, 1.0)
    # a gap of a billion windows must not loop a billion times
    hist.record(1e12, 2.0)
    assert hist.count == 2
    assert hist.window_count(1e12) == 1


# -- empty-window sentinel ----------------------------------------------------
def test_empty_histogram_quantile_is_the_sentinel_not_zero():
    hist = Histogram("empty")
    value = hist.percentile(99)
    assert no_data(value)
    assert no_data(EMPTY_QUANTILE)
    assert not no_data(0.0)


def test_expired_window_quantile_is_the_sentinel():
    hist = Histogram(window_us=1_000.0, windows=2)
    hist.record(100.0, 42.0)
    assert hist.percentile(99, 500.0) == pytest.approx(42.0, rel=0.05)
    # everything recorded has aged past the 2-window horizon: the query
    # must say "no data", never a stale or fabricated quantile
    assert no_data(hist.percentile(99, 10_000.0))
    # the whole-run query still sees the sample
    assert hist.percentile(99) == pytest.approx(42.0, rel=0.05)


# -- registry -----------------------------------------------------------------
def test_registry_snapshot_types():
    sim = _Sim()
    reg = MetricsRegistry(sim)
    reg.inc("ops", 3)
    reg.set_gauge("depth", 7.0)
    reg.observe("lat", 12.0)
    snap = reg.snapshot(sim.now)
    assert snap["ops"] == {"type": "counter", "value": 3}
    assert snap["depth"]["type"] == "gauge"
    assert snap["depth"]["value"] == 7.0
    assert snap["lat"]["type"] == "histogram"
    assert snap["lat"]["count"] == 1
    assert set(reg.names()) == {"ops", "depth", "lat"}


def test_registry_counter_rate():
    sim = _Sim()
    reg = MetricsRegistry(sim, window_us=100.0)
    for i in range(10):
        sim.now = float(i)
        reg.inc("rx")
    assert reg.counter("rx").rate_per_us(10.0) == pytest.approx(1.0)


def test_registry_create_on_use_is_stable():
    reg = MetricsRegistry(_Sim())
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.counter("c") is reg.counter("c")
    assert reg.gauge("g") is reg.gauge("g")


def test_registry_histogram_window_overrides_apply_at_creation_only():
    reg = MetricsRegistry(_Sim(), window_us=10_000.0)
    hist = reg.histogram("svc", window_us=2_000.0, windows=2)
    assert hist.window_us == 2_000.0 and hist.max_windows == 2
    # later callers (recorders, probes) get the same histogram back;
    # their defaults must not resize an already-declared window
    assert reg.histogram("svc") is hist
    assert reg.histogram("svc", window_us=500.0).window_us == 2_000.0
    assert reg.histogram("other").window_us == 10_000.0


def test_registry_get_histogram_never_materialises():
    reg = MetricsRegistry(_Sim())
    assert reg.get_histogram("ghost") is None
    assert "ghost" not in reg.names()
    reg.observe("real", 1.0, now=0.0)
    assert reg.get_histogram("real") is not None


def test_runtime_snapshot_carries_metrics():
    """telemetry.snapshot() surfaces the TracePlane registry."""
    from repro.experiments.chaos_study import run_rta_chaos

    report = run_rta_chaos(seed=3, n_requests=10, duration_us=20_000.0,
                           trace=True)
    assert report.ok
    metrics = report.trace_plane.metrics_snapshot(windowed=False)
    assert metrics["sched.ops"]["value"] > 0
    assert metrics["sched.service_us"]["count"] > 0
    assert metrics["sched.service_us"]["p99"] >= metrics["sched.service_us"]["p50"]
