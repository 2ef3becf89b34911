"""The traced run: where the wall-clock seconds of one run went, by layer.

A layer is a ``repro.<subpackage>`` (``core``, ``sim``, ``net``, ...) or
one module inside it (``core.runtime``, ``apps.rta``).  Three sources,
all installed from outside ``src/``:

* cProfile around ``Scenario.run``; self time is folded by the module a
  function lives in.  C builtins and standard-library functions are
  charged to the layer of whoever called them; the probes' own time
  (this directory) is ``other``.
* :class:`EventCounter` on the public ``Simulator.checker`` hook counts
  fired events by owning layer; a process resume counts toward the
  module of its generator function.
* Wraps on ``Channel.host_poll`` / ``ReliableChannel.host_poll`` and on
  the RTA filter's ``Regex.search`` count calls and time.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, Optional, Tuple

import repro
from repro.apps.rta.filter import Regex
from repro.core import Channel, ReliableChannel, snapshot
from repro.sim import Simulator
from repro.sim.process import Process

from harness import Rep, median, patched, run_rep

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OTHER = "other"

#: layers whose self time is reported; a layer covers its sub-modules
SELF_TIME_LAYERS = (
    "sim", "core", "core.runtime", "core.scheduler", "core.channel",
    "core.dmo", "apps", "apps.rta", "apps.rkv", "net", "nic", "host",
    "obs", "workloads", OTHER,
)
EVENT_LAYERS = ("core", "net", "nic")


def module_of_file(filename: str) -> Optional[str]:
    """``core.runtime`` for ``.../repro/core/runtime.py``; ``other`` for
    this benchmark's own files; None for a C builtin (``~``) or any other
    file, whose time belongs to its caller."""
    if not filename.endswith(".py"):
        return None
    path = os.path.abspath(filename)
    if path.startswith(BENCH_DIR + os.sep):
        return OTHER
    rel = os.path.relpath(path, PACKAGE_DIR)
    if rel.startswith(".."):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or OTHER


def module_of_name(module: Optional[str]) -> str:
    if module == "repro" or not module:
        return OTHER
    if module.startswith("repro."):
        return module[len("repro."):]
    return OTHER


def in_layer(module: str, layer: str) -> bool:
    return module == layer or module.startswith(layer + ".")


def layer_total(by_module: Dict[str, float], layer: str) -> float:
    return sum(v for m, v in by_module.items() if in_layer(m, layer))


# -- cProfile folding ---------------------------------------------------------

def fold_profile(stats: Dict[Tuple, tuple]) -> Dict[str, float]:
    """Self seconds per module from ``pstats.Stats(...).stats``.

    A package function's self time goes to its own module and a probe's
    to ``other``.  A builtin or library function's self time is split over
    its callers in proportion to the time each call site accounts for,
    and follows each caller up the call graph to the first module that
    has a layer (``other`` when there is none).  The result sums to the
    total self time.
    """
    owners: Dict[Tuple, Dict[str, float]] = {}

    def owner(func, visiting) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        module = module_of_file(func[0])
        if module is not None:
            owners[func] = {module: 1.0}
            return owners[func]
        if func in visiting or func not in stats:
            return {OTHER: 1.0}
        callers = stats[func][4]
        weights = {c: entry[2] for c, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: entry[0] for c, entry in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            owners[func] = {OTHER: 1.0}
            return owners[func]
        share: Counter = Counter()
        for caller, weight in weights.items():
            for mod, frac in owner(caller, visiting | {func}).items():
                share[mod] += frac * weight / total
        # a share reached through a cycle is provisional; cache only
        # results computed with nothing on the visiting path
        if not visiting:
            owners[func] = dict(share)
        return dict(share)

    folded: Counter = Counter()
    for func, entry in stats.items():
        self_s = entry[2]
        if self_s:
            for mod, frac in owner(func, frozenset()).items():
                folded[mod] += self_s * frac
    return dict(folded)


@contextmanager
def profiled(sink: dict) -> Iterator[None]:
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        sink["stats"] = pstats.Stats(profile).stats


# -- event counting -----------------------------------------------------------

class EventCounter:
    """A ``Simulator.checker`` that counts fired events by owning layer.

    Also counts host-worker resumes, and of those the *idle* ones: the
    worker woke from its idle wait, polled the ring, found nothing and
    went back to waiting.  ``poll_tap`` tells it how each step's polls
    ended.
    """

    def __init__(self, poll_tap: "PollTap") -> None:
        self.poll_tap = poll_tap
        self.by_owner: Counter = Counter()
        self.events = 0
        self.host_worker_wakeups = 0
        self.host_idle_wakeups = 0
        self._ended_idle: Dict[Process, bool] = {}

    def on_schedule(self, when, seq, fn) -> None:
        pass

    def after_step(self, when, seq, fn) -> None:
        self.events += 1
        polled, missed = self.poll_tap.take_step()
        func = getattr(fn, "__func__", fn)
        if func is not Process._resume:
            try:
                self.by_owner[func] += 1
            except TypeError:   # a builtin bound to an unhashable object
                self.by_owner[type(fn.__self__)] += 1
            return
        proc = fn.__self__
        code = proc.gen.gi_code
        self.by_owner[code] += 1
        if code.co_name == "_host_worker":
            self.host_worker_wakeups += 1
            ended_idle = polled and missed
            if ended_idle and self._ended_idle.get(proc, False):
                self.host_idle_wakeups += 1
            self._ended_idle[proc] = ended_idle

    def by_module(self) -> Dict[str, int]:
        """Fired events per module of the callback (a process resume:
        of its generator function)."""
        out: Counter = Counter()
        for owner, count in self.by_owner.items():
            if hasattr(owner, "co_filename"):
                module = module_of_file(owner.co_filename) or OTHER
            else:
                module = module_of_name(getattr(owner, "__module__", None))
            out[module] += count
        return dict(out)


class PollTap:
    """Counts host ring polls and hits; remembers how the current
    simulator step's last poll ended."""

    def __init__(self) -> None:
        self.calls = 0
        self.hits = 0
        self._step_polled = False
        self._step_missed = False

    def take_step(self) -> Tuple[bool, bool]:
        state = (self._step_polled, self._step_missed)
        self._step_polled = self._step_missed = False
        return state

    def wrap(self, original):
        @functools.wraps(original)
        def host_poll(channel):
            msg = original(channel)
            self.calls += 1
            self._step_polled = True
            self._step_missed = msg is None
            if msg is not None:
                self.hits += 1
            return msg
        return host_poll


class TimedTap:
    """Counts calls of a wrapped function and the wall time inside it."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t
                self.calls += 1
        return timed


# -- the traced run -----------------------------------------------------------

def traced_rep(workload: str, seed: int,
               horizon_us: Optional[float] = None) -> Tuple[Rep, dict]:
    """One run with every layer probe installed."""
    polls = PollTap()
    search = TimedTap()
    counter = EventCounter(polls)
    sim = Simulator()
    sim.checker = counter
    sink: dict = {}
    with ExitStack() as stack:
        stack.enter_context(patched(Channel, "host_poll", polls.wrap))
        stack.enter_context(patched(ReliableChannel, "host_poll", polls.wrap))
        stack.enter_context(patched(Regex, "search", search.wrap))
        rep = run_rep(workload, seed, horizon_us, sim=sim,
                      around_run=lambda: profiled(sink), keep_scenario=True)
    return rep, {"counter": counter, "polls": polls, "search": search,
                 "self_s": fold_profile(sink["stats"])}


def snapshot_counts(rep: Rep) -> Dict[str, tuple]:
    """Simulated per-layer counters, as (value, unit), from
    ``core.telemetry`` snapshots and the switch counters."""
    migrations = backoffs = 0
    host_cores = nic_cores = 0.0
    for server in rep.scenario.servers.values():
        runtime = server.runtime
        if not hasattr(runtime, "nic_scheduler"):
            continue
        snap = snapshot(runtime, window_us=rep.horizon_us)
        s = snap.scheduler
        migrations += s.downgrades + s.upgrades + s.pushes + s.pulls
        backoffs += snap.channel.ring_full_backoffs
        host_cores += snap.host_cores_used
        nic_cores += snap.nic_cores_used
    drops = sum(d for _, d in rep.result.switch_counters.values())
    return {"core.sched.migrations": (migrations, "count"),
            "core.channel.ring_full_backoffs": (backoffs, "count"),
            "core.host_cores_used": (host_cores, "cores"),
            "nic.cores_used": (nic_cores, "cores"),
            "net.switch_drops": (drops, "count")}


def per_layer(traced: Rep, probes: dict, untraced: Rep,
              setups: list) -> Dict[str, dict]:
    """Every per-layer metric, each ``{"value", "unit"}``."""
    counter: EventCounter = probes["counter"]
    polls: PollTap = probes["polls"]
    search: TimedTap = probes["search"]
    self_s = probes["self_s"]
    events_by_module = counter.by_module()
    sim_self = layer_total(self_s, "sim")
    out: Dict[str, dict] = {
        "sim.events": (counter.events, "count"),
        "sim.self_ns_per_event": (
            sim_self / counter.events * 1e9 if counter.events else None,
            "ns"),
        "profile.self_s": (sum(self_s.values()), "s"),
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (layer_total(self_s, layer), "s")
    for layer in EVENT_LAYERS:
        out[f"{layer}.events"] = (layer_total(events_by_module, layer),
                                  "count")
    out.update({
        "core.host_worker_wakeups": (counter.host_worker_wakeups, "count"),
        "core.host_idle_wakeups": (counter.host_idle_wakeups, "count"),
        "core.host_idle_wakeup_frac": (
            counter.host_idle_wakeups / counter.events
            if counter.events else None, "ratio"),
        "core.host_poll_calls": (polls.calls, "count"),
        "core.host_poll_hit_frac": (
            polls.hits / polls.calls if polls.calls else None, "ratio"),
        "apps.rta.filter_calls": (search.calls, "count"),
        "apps.rta.filter_s": (search.seconds, "s"),
        "scenario.spec_load_s": (median([s[0] for s in setups]), "s"),
        "scenario.build_s": (median([s[1] for s in setups]), "s"),
        "trace_overhead": (traced.run_s / untraced.run_s, "ratio"),
    })
    out.update(snapshot_counts(traced))
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}
