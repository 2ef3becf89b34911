"""Raw DES-kernel throughput: events/sec, current vs seed kernel.

The kernel fast path makes two claims this benchmark pins down:

* the handle-free ``post`` path beats the seed kernel's per-event
  allocating ``call_in`` loop on a pure timer chain;
* tombstone compaction bounds the heap under a cancel-heavy watchdog
  load where the seed kernel accumulates every tombstone.

Numbers are best-of-N (CI hosts throttle); the committed perf gate lives
in ``benchmarks/BENCH_baseline.json`` and is enforced by
``python -m repro bench --check`` (see ``.github/workflows/ci.yml``).
"""

from repro.exec.bench import (
    SeedSimulator,
    _cancel_heavy_eps,
    _chain_eps,
    _process_eps,
)
from repro.sim import Simulator


def test_post_chain_beats_seed_kernel(once, emit):
    seed_eps = _chain_eps(SeedSimulator, events=60_000)
    post_eps = _chain_eps(Simulator, schedule="post", events=60_000)
    once(_chain_eps, Simulator, schedule="post", events=60_000)
    emit(f"timer chain: seed {seed_eps:,.0f} ev/s, "
         f"post {post_eps:,.0f} ev/s ({post_eps / seed_eps:.2f}x)")
    # the fast path exists to be faster; allow jitter headroom on slow CI
    assert post_eps > seed_eps * 1.05


def test_cancel_heavy_compaction_bounds_heap(once, emit):
    seed_eps, seed_peak = _cancel_heavy_eps(SeedSimulator, events=20_000)
    eps, peak = _cancel_heavy_eps(Simulator, events=20_000)
    once(_cancel_heavy_eps, Simulator, events=20_000)
    emit(f"cancel-heavy: seed {seed_eps:,.0f} ev/s (peak heap {seed_peak}), "
         f"compacting {eps:,.0f} ev/s (peak heap {peak})")
    # the seed kernel keeps every tombstone; compaction caps the heap
    assert seed_peak >= 20_000
    assert peak < seed_peak / 10


def test_process_timeout_throughput(once, emit):
    eps = _process_eps(events=40_000)
    once(_process_eps, events=40_000)
    emit(f"generator-process Timeout loop: {eps:,.0f} ev/s")
    assert eps > 0
