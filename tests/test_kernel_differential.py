"""Differential test: the DES kernel against the seed kernel it replaced.

:class:`~repro.exec.bench.SeedSimulator` is the seed's plain ``heapq``
loop: one handle per event, lazy cancel without compaction, and an O(n)
``pending()`` scan.  Random plans drive both kernels through the same
operations: handle-free ``post`` (``call_at`` on the seed side),
``call_at``, cancels, bursts of cancels big enough to compact the heap
while ``run()`` iterates it, and bounded ``run(until=)`` calls.  Every
fired event logs its tag, ``now`` and ``pending()``; the two logs must
be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.bench import SeedSimulator
from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_DEAD

# half-microsecond steps, so same-time ties are common
_delays = st.integers(0, 16).map(lambda half_us: half_us * 0.5)

_inner_ops = st.one_of(
    st.tuples(st.just("post"), _delays, st.just(())),
    st.tuples(st.just("call"), _delays, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("burst"), st.integers(0, 3 * _COMPACT_MIN_DEAD)),
)

_outer_ops = st.one_of(
    st.tuples(st.just("post"), _delays, st.lists(_inner_ops, max_size=4)),
    st.tuples(st.just("call"), _delays, st.lists(_inner_ops, max_size=4)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("burst"), st.integers(0, 3 * _COMPACT_MIN_DEAD)),
    st.tuples(st.just("run"), _delays),
)


class _Driver:
    """Applies plan operations to one kernel and logs what fires."""

    def __init__(self, sim, seed_kernel: bool):
        self.sim = sim
        self.seed_kernel = seed_kernel
        self.handles = []
        self.log = []
        self.tags = 0

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind in ("post", "call"):
            _, delay, reaction = op
            self.tags += 1
            args = (self._fire, self.tags, reaction)
            if kind == "call":
                self.handles.append(sim.call_at(sim.now + delay, *args))
            elif self.seed_kernel:
                sim.call_at(sim.now + delay, *args)
            else:
                sim.post(delay, *args)
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "burst":
            doomed = [sim.call_at(sim.now + 1e6 + i, self._fire, -1, ())
                      for i in range(op[1])]
            for handle in doomed:
                handle.cancel()
        else:                                   # bounded run
            sim.run(until=sim.now + op[1])
            self.log.append(("run", sim.now, sim.pending()))

    def _fire(self, tag, reaction):
        self.log.append((tag, self.sim.now, self.sim.pending()))
        for op in reaction:
            self.apply(op)


def _replay(sim, seed_kernel, plan):
    driver = _Driver(sim, seed_kernel)
    for op in plan:
        driver.apply(op)
    sim.run()
    driver.log.append(("end", sim.now, sim.pending()))
    return driver.log


@settings(max_examples=150, deadline=None)
@given(st.lists(_outer_ops, max_size=40))
def test_kernel_matches_seed_kernel(plan):
    assert (_replay(Simulator(), False, plan)
            == _replay(SeedSimulator(), True, plan))


def test_burst_cancel_compacts_mid_run():
    """The plan shape the fuzz relies on really compacts inside run()."""
    sim = Simulator()
    driver = _Driver(sim, seed_kernel=False)
    heap_sizes = []

    def burst():
        driver.apply(("burst", 2 * _COMPACT_MIN_DEAD))
        heap_sizes.append(len(sim._heap))

    sim.post(1.0, burst)
    sim.run()
    # without compaction all 2 * _COMPACT_MIN_DEAD tombstones would stay
    assert heap_sizes == [_COMPACT_MIN_DEAD - 1]
