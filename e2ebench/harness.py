"""Drive one shipped scenario spec through the public scenario API, timed
from outside the program, and check what it produced.

Every number comes from outside ``src/``: wall clock around
``from_file``/``build``/``Scenario.run``, a wrap on ``ClientPort.receive``
for each reply's simulated latency, and ``ScenarioResult`` for the
cross-checks.  Nothing here changes what the simulation does.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import heapq
import math
import os
import resource
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.scenario import ClientPort, ScenarioSpec, build, from_file
from repro.scenario.run import SPEC_DIR, ScenarioResult, _collect
from repro.sim import Simulator

#: workload name -> shipped spec it runs, at the spec's own horizon
WORKLOADS: Dict[str, str] = {
    "rkv-testbed": "paper-testbed",
    "rkv-fabric-open": "multi-rack-rkv",
    "tenant-mixed": "multi-tenant-mixed",
}


def quantile(samples: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolated quantile, ``q`` in [0, 1]; None when empty.

    Same rank rule as the program's ``LatencyRecorder`` so the outside
    p99 can be compared with ``ScenarioResult.p99_latency_us``.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


@contextmanager
def patched(owner: type, name: str,
            make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` with ``make(original)`` for the block."""
    had = name in owner.__dict__
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        if had:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


class ReplyTap:
    """Counts replies per client node and records each one's simulated
    latency (``sim.now - packet.created_at``) as the client receives it.

    Must be active while the scenario is *built*: the fabric binds
    ``port.receive`` when the client node is attached.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.replies: Counter = Counter()

    @contextmanager
    def active(self) -> Iterator["ReplyTap"]:
        def make(original):
            @functools.wraps(original)
            def receive(port, packet):
                self.latencies.append(port.sim.now - packet.created_at)
                self.replies[port.name] += 1
                return original(port, packet)
            return receive
        with patched(ClientPort, "receive", make):
            yield self


def load_spec(workload: str, seed: int) -> ScenarioSpec:
    """The workload's shipped spec with ``seed`` written into the spec
    and every fleet (sharded fleets derive their per-shard seeds from it)."""
    spec = from_file(os.path.join(SPEC_DIR, WORKLOADS[workload] + ".json"))
    fleets = tuple(dataclasses.replace(f, seed=seed) for f in spec.fleets)
    return dataclasses.replace(spec, seed=seed, fleets=fleets)


@dataclass
class Rep:
    """One set-up and run of a workload at one seed."""

    horizon_us: float
    closed_loop: bool
    spec_load_s: float
    build_s: float
    run_s: float
    result: ScenarioResult
    latencies: List[float]
    replies: Dict[str, int]
    sent: Dict[str, int]
    scenario: object = field(repr=False, default=None)
    #: reference timings taken between the slices (see ``host_speed``)
    ref_s: List[float] = field(default_factory=list)

    @property
    def n_sent(self) -> int:
        return sum(self.sent.values())

    @property
    def n_replies(self) -> int:
        return len(self.latencies)


def time_setup(workload: str, seed: int, sim: Optional[Simulator] = None):
    """Load the spec and build it; returns (spec, scenario, load_s, build_s)."""
    t0 = time.perf_counter()
    spec = load_spec(workload, seed)
    t1 = time.perf_counter()
    scenario = build(spec, sim=sim)
    t2 = time.perf_counter()
    return spec, scenario, t1 - t0, t2 - t1


def run_rep(workload: str, seed: int, horizon_us: Optional[float] = None,
            sim: Optional[Simulator] = None, around_run=None,
            keep_scenario: bool = False, slices: int = 1,
            between: Optional[Callable[[], float]] = None) -> Rep:
    """Set up, run to the horizon and stop one scenario.

    ``sim`` builds into a pre-made simulator (the traced run installs its
    event counter there); ``around_run`` is a context manager factory
    wrapped around ``Scenario.run`` only (the traced run's profiler).
    ``slices`` > 1 runs the horizon as that many equal ``Scenario.run``
    calls; that simulates the same as one call.  ``between`` is called
    after each slice, outside the timing, and what it returns is kept in
    ``ref_s``.
    """
    tap = ReplyTap()
    with tap.active():
        spec, scenario, load_s, build_s = time_setup(workload, seed, sim)
        horizon = horizon_us if horizon_us is not None else spec.duration_us
        run_s, ref_s = 0.0, []
        with around_run() if around_run is not None else nullcontext():
            for i in range(1, slices + 1):
                t3 = time.perf_counter()
                scenario.run(until=horizon if i == slices
                             else horizon * i / slices)
                run_s += time.perf_counter() - t3
                if between is not None:
                    ref_s.append(between())
        scenario.stop()
    result = _collect(scenario, horizon)
    sent: Counter = Counter()
    for gen in scenario.generators:
        sent[gen.src] += gen.sent
    return Rep(horizon_us=horizon,
               closed_loop=all(f.mode == "closed" for f in spec.fleets),
               spec_load_s=load_s, build_s=build_s, run_s=run_s,
               result=result, latencies=tap.latencies,
               replies=dict(tap.replies), sent=dict(sent),
               scenario=scenario if keep_scenario else None,
               ref_s=ref_s)


def comparable(result: ScenarioResult) -> tuple:
    """The fingerprint without its name and seed fields, so runs at two
    seeds compare on what the simulation produced."""
    return result.fingerprint()[2:]


def check_rep(rep: Rep) -> List[str]:
    """Correctness problems in one run; empty when it passed."""
    problems = []
    for client, got in sorted(rep.replies.items()):
        if got > rep.sent.get(client, 0):
            problems.append(f"{client}: {got} replies > "
                            f"{rep.sent.get(client, 0)} sent")
    if not rep.latencies:
        problems.append("no replies")
    drops = {sw: d for sw, (_, d) in rep.result.switch_counters.items() if d}
    if drops:
        problems.append(f"switch drops on a fault-free spec: {drops}")
    if rep.closed_loop and rep.latencies:
        outside = sum(rep.latencies) / len(rep.latencies)
        if not math.isclose(outside, rep.result.mean_latency_us,
                            rel_tol=1e-9):
            problems.append(
                f"mean latency {outside!r} us != ScenarioResult."
                f"mean_latency_us {rep.result.mean_latency_us!r}")
    return problems


def disagreements(rep: Rep) -> List[str]:
    """Where the outside reply count and p99 differ from the program's
    own ``ScenarioResult`` (reported, not a failed check)."""
    out = []
    if rep.n_replies != rep.result.completed:
        out.append(f"completed: ScenarioResult {rep.result.completed} vs "
                   f"{rep.n_replies} replies received")
    p99 = quantile(rep.latencies, 0.99)
    if p99 is None or not math.isclose(p99, rep.result.p99_latency_us,
                                       rel_tol=1e-9):
        out.append(f"p99_latency_us: ScenarioResult "
                   f"{rep.result.p99_latency_us!r} vs {p99!r} from replies")
    return out


def simulated_metrics(rep: Rep) -> Dict[str, dict]:
    """End-to-end metrics in simulated time: repeat exactly for a seed."""
    lat = rep.latencies
    n = len(lat)
    p99 = quantile(lat, 0.99)
    return {
        "sim_mops": {"value": n / rep.horizon_us, "unit": "replies/sim_us",
                     "n": n},
        "sim_p50_us": {"value": quantile(lat, 0.5), "unit": "sim_us", "n": n},
        "sim_p99_us": {"value": p99, "unit": "sim_us", "n": n,
                       "beyond": sum(1 for x in lat if x > p99) if n else 0},
        "unanswered_frac": {
            "value": ((rep.n_sent - n) / rep.n_sent if rep.n_sent else None),
            "unit": "ratio", "n": rep.n_sent},
    }


def time_setups(workload: str, seed: int, count: int,
                between: Optional[Callable[[], float]] = None
                ) -> List[tuple]:
    """``count`` timed set-ups as (spec_load_s, build_s, ref_s), each
    right after a full collection; ``ref_s`` is what ``between`` returned
    just before the set-up (None without it)."""
    samples = []
    for _ in range(count):
        gc.collect()
        ref = between() if between is not None else None
        _, scenario, load_s, build_s = time_setup(workload, seed)
        del scenario
        samples.append((load_s, build_s, ref))
    return samples


# -- host speed ---------------------------------------------------------------
#
# The host is shared: its speed for this process swings by tens of percent,
# from one second to the next and over minutes.  A fixed reference workload,
# timed between the slices of every measured run and before every timed
# set-up, sees the same swings.  The host-time metrics are wall times scaled
# to the speed at which one reference call takes ``REF_NOMINAL_S``.

#: wall seconds of one ``reference_s`` call at the nominal host speed
REF_NOMINAL_S = 0.010
#: events in one reference call
REF_EVENTS = 4000
#: reference calls per reading; the fastest one is kept
REF_CALLS = 2


class _RefEvent:
    __slots__ = ("when", "fn", "arg")

    def __init__(self, when: int, fn: Callable[[int], int], arg: int):
        self.when = when
        self.fn = fn
        self.arg = arg

    def __lt__(self, other: "_RefEvent") -> bool:
        return self.when < other.when


def reference_s() -> float:
    """Wall seconds of a fixed, program-independent piece of work shaped
    like the simulator's inner loop: push events onto a heap, pop them in
    order and call each one's callback, which updates a dict.  The
    collector is off meanwhile, so the program's heap does not bear on it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[_RefEvent] = []
        counts: Dict[int, int] = {}

        def callback(x: int) -> int:
            counts[x & 1023] = counts.get(x & 1023, 0) + 1
            return 3 * x + 1

        for i in range(REF_EVENTS):
            heapq.heappush(heap, _RefEvent((i * 7919) % 10007, callback, i))
        total = 0
        while heap:
            event = heapq.heappop(heap)
            total += event.fn(event.arg)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    """One reading of the host's speed: the fastest of ``REF_CALLS``
    reference calls, in wall seconds."""
    return min(reference_s() for _ in range(REF_CALLS))


#: equal slices of the horizon in a measured run, with a host-speed
#: reading after each
SLICES = 20


def measure(workload: str, seed: int, seconds: float, min_reps: int = 3,
            setups_per_rep: int = 5,
            horizon_us: Optional[float] = None) -> Dict[str, object]:
    """Repeat the workload for about ``seconds`` and collect its timings.

    Runs are repeated while the next one is expected to finish inside the
    budget (at least ``min_reps``); each is run in ``SLICES`` slices with
    a host-speed reading after each.  After each run, ``setups_per_rep``
    set-ups are timed: spreading them over the whole budget lets their
    median see the same drift in host speed as the runs do, and the first
    run has paid for lazy imports by then.  Every run must produce the
    same fingerprint.
    """
    reps: List[Rep] = []
    setups: List[float] = []
    problems: List[str] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t = time.perf_counter()
        rep = run_rep(workload, seed, horizon_us, slices=SLICES,
                      between=host_speed)
        reps.append(rep)
        problems += [f"run {len(reps)}: {p}" for p in check_rep(rep)]
        if rep.result.fingerprint() != reps[0].result.fingerprint():
            problems.append(f"run {len(reps)}: fingerprint differs from "
                            f"run 1 at the same seed")
        setups += [(load + build) * REF_NOMINAL_S / ref for load, build, ref
                   in time_setups(workload, seed, setups_per_rep,
                                  host_speed)]
        last = time.perf_counter() - t
        if (len(reps) >= min_reps
                and time.perf_counter() - start + last > seconds):
            break
    return {"reps": reps, "setups": setups, "problems": problems}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nominal_run_s(rep: Rep) -> float:
    """Wall seconds of one measured run, scaled to the nominal host speed
    by the host-speed readings taken between its slices."""
    return rep.run_s * REF_NOMINAL_S / (sum(rep.ref_s) / len(rep.ref_s))


def end_to_end(reps: List[Rep], setups: List[float],
               rss_mb: float) -> Dict[str, dict]:
    """All eight end-to-end metrics, each with unit and sample count."""
    first = reps[0]
    run_s = median([nominal_run_s(r) for r in reps])
    metrics = {
        "sim_us_per_s": {"value": first.horizon_us / run_s,
                         "unit": "sim_us/s", "n": len(reps)},
        "replies_per_s": {"value": first.n_replies / run_s,
                          "unit": "replies/s", "n": len(reps)},
        "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }
    metrics.update(simulated_metrics(first))
    return metrics
