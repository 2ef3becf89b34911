"""PulsePlane: continuous fleet telemetry on a virtual-time lattice.

TracePlane answers *post-hoc* questions; the PulsePlane lets the system
observe itself *while running*.  A periodic sampler scrapes gauges —
per-server NIC-core utilization, DRR queue depth, steering decision
rates, per-service latency quantiles out of the existing windowed
histograms — into an in-memory, fingerprint-stable time-series store
with ring-buffer retention.  On top of the store sit the
:class:`~repro.obs.slo.SloEvaluator`\\ s (multi-window burn-rate SLO
alerting) and the :class:`LoadFeed`, which publishes per-backend
utilization to the :class:`~repro.net.steering.Rebalancer` so migration
can be *load*-driven, not only outage-driven.

Zero virtual-time cost
----------------------

The engine samples on a fixed virtual-time lattice: before it fires the
first event later than a period boundary, it moves the clock to that
boundary and calls :meth:`PulsePlane.sample` — once for every boundary
crossed, so an idle gap of *k* periods yields *k* samples, each seeing
the state as of its boundary.  A bounded ``run(until)`` also samples
the boundaries up to ``until`` before it returns.  No attribute beyond
``sim.pulse`` is read when no plane is installed, exactly like
``sim.tracer``/``sim.metrics``/``sim.checker``.  Crucially the sampler
**schedules nothing** — a sampled run fires the exact same event
sequence as an unsampled one, which the determinism sanitizer's step
digests prove and the :class:`~repro.check.monitors.PulseMonitor`
enforces at runtime (``passive_schedules`` must stay 0).  The one
deliberate exception is the :class:`LoadFeed`: triggering a migration is
a *control action*, so feeds run after the passive bookkeeping and their
scheduling is attributed to the rebalancer, not the sampler.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .metrics import EMPTY_QUANTILE, MetricsRegistry, no_data

#: Default sampling cadence (virtual µs) and per-series ring capacity.
DEFAULT_PERIOD_US = 500.0
DEFAULT_RETENTION = 4096


class Series:
    """One named time series: a ring buffer of ``(t_us, value)``."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str, retention: int = DEFAULT_RETENTION):
        self.name = name
        self._points: Deque[Tuple[float, float]] = deque(
            maxlen=max(int(retention), 1))

    def append(self, t: float, value: float) -> None:
        self._points.append((t, value))

    def last(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def __len__(self) -> int:
        return len(self._points)


class SeriesStore:
    """Named series directory with ring-buffer retention.

    Retention bounds memory for arbitrarily long runs; the fingerprint
    covers exactly the retained points, so two runs compare equal iff
    they retained identical telemetry.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION):
        self.retention = retention
        self._series: Dict[str, Series] = {}

    def series(self, name: str) -> Series:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = Series(name, self.retention)
        return s

    def get(self, name: str) -> Optional[Series]:
        return self._series.get(name)

    def record(self, t: float, name: str, value: float) -> None:
        self.series(name).append(t, value)

    def names(self) -> List[str]:
        return sorted(self._series)

    def total_points(self) -> int:
        return sum(len(s) for s in self._series.values())

    def fingerprint(self) -> int:
        """CRC-32 over every retained point, in sorted series order.

        ``repr(float)`` is the shortest round-tripping decimal form in
        every supported CPython, so equal samples digest equally across
        processes; the NaN sentinel digests as ``'nan'``.
        """
        crc = 0
        for name in self.names():
            for t, v in self._series[name].points():
                crc = zlib.crc32(
                    f"{name}@{t!r}={v!r}\n".encode(), crc)
        return crc

    # -- export ----------------------------------------------------------
    def to_csv(self) -> str:
        """``series,t_us,value`` rows, series-sorted then time-ordered."""
        lines = ["series,t_us,value"]
        for name in self.names():
            for t, v in self._series[name].points():
                lines.append(f"{name},{t!r},{v!r}")
        return "\n".join(lines) + "\n"

    def to_chrome(self) -> Dict[str, object]:
        """Chrome ``trace_event`` counter tracks (Perfetto-loadable).

        Every series becomes a ``"ph": "C"`` counter under one ``pulse``
        process, alongside the span export from
        :func:`repro.obs.profiler.to_chrome_trace`; no-data sentinel
        points are omitted (Perfetto draws gaps, not zeros).
        """
        events: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "pulse"}}]
        for name in self.names():
            for t, v in self._series[name].points():
                if no_data(v):
                    continue
                events.append({"name": name, "ph": "C", "ts": t,
                               "pid": 0, "args": {"value": v}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "virtual-us"}}


# -- probe factories ----------------------------------------------------------

def _peak_probe(trackers) -> Callable[[float], float]:
    """Peak per-tracker utilization over the elapsed sample period.

    Differences the cumulative busy time each
    :class:`~repro.sim.stats.UtilizationTracker` already accumulates, so
    the probe is read-only.  The *hottest* tracker is the signal, not
    the mean: a single pinned actor can saturate one core while the
    average across a 12-core NIC stays under 10% — and that hotspot is
    exactly what load-driven rebalancing must see.
    """
    trackers = list(trackers)
    prev = [0.0] * len(trackers)
    state = [0.0]               # previous boundary

    def probe(t: float) -> float:
        span = t - state[0]
        peak = 0.0
        for idx, u in enumerate(trackers):
            busy = u.busy_time
            if span > 0 and busy - prev[idx] > peak * span:
                peak = (busy - prev[idx]) / span
            prev[idx] = busy
        state[0] = t
        return min(max(peak, 0.0), 1.0)
    return probe


def nic_utilization_probe(nic) -> Callable[[float], float]:
    """Peak per-core NIC utilization (``SmartNic.charge_core`` charges)."""
    return _peak_probe(nic.core_util)


def host_utilization_probe(runtime) -> Callable[[float], float]:
    """Peak per-worker host utilization (``IPipeRuntime.host_util``)."""
    return _peak_probe(runtime.host_util)


def queue_depth_probe(scheduler) -> Callable[[float], float]:
    """Instantaneous NIC work backlog: TM queue + DRR runnable actors."""
    def probe(t: float) -> float:
        return float(len(scheduler.queue) + len(scheduler.drr_runnable))
    return probe


def counter_rate_probe(read_total: Callable[[], float]
                       ) -> Callable[[float], float]:
    """Per-second rate from a cumulative counter reader (e.g. steering
    decisions): delta over the elapsed sample period."""
    state = [0.0, 0.0]

    def probe(t: float) -> float:
        total = float(read_total())
        span = t - state[1]
        rate = (total - state[0]) / span * 1e6 if span > 0 else 0.0
        state[0], state[1] = total, t
        return rate
    return probe


def service_quantile_probe(metrics: MetricsRegistry, metric: str,
                           pct: float) -> Callable[[float], float]:
    """Windowed latency quantile of a service histogram; the empty-window
    sentinel (NaN) when nothing was recorded recently."""
    def probe(t: float) -> float:
        hist = metrics.get_histogram(metric)
        if hist is None:
            return EMPTY_QUANTILE
        return hist.percentile(pct, t)
    return probe


def tenant_utilization_probe(schedulers,
                             tenant: str) -> Callable[[float], float]:
    """One tenant's NIC compute rate over the elapsed sample period.

    Differences the cumulative ``tenant_busy_us`` ledger summed across
    the tenant's schedulers; the value is busy µs per elapsed µs, i.e.
    cores-worth of compute (can exceed 1.0 on a multi-core NIC)."""
    scheds = list(schedulers)
    state = [0.0, 0.0]          # previous busy total, previous boundary

    def probe(t: float) -> float:
        busy = sum(s.tenant_busy_us.get(tenant, 0.0) for s in scheds)
        span = t - state[1]
        rate = (busy - state[0]) / span if span > 0 else 0.0
        state[0], state[1] = busy, t
        return max(rate, 0.0)
    return probe


def tenant_steering_probe(controller,
                          services) -> Callable[[float], float]:
    """Per-second steering decision rate over one tenant's services.

    Scans the controller's decision ledger incrementally (the
    SteeringMonitor idiom) counting decisions whose service belongs to
    the tenant; read-only, never rescans history."""
    owned = frozenset(services)
    state = [0, 0.0, 0.0]       # ledger index, matched count, boundary

    def probe(t: float) -> float:
        decisions = controller.decisions
        idx = state[0]
        matched = 0
        while idx < len(decisions):
            if decisions[idx][1] in owned:
                matched += 1
            idx += 1
        state[0] = idx
        span = t - state[2]
        rate = matched / span * 1e6 if span > 0 else 0.0
        state[1] += matched
        state[2] = t
        return rate
    return probe


# -- the plane ----------------------------------------------------------------

class PulsePlane:
    """Installs the periodic sampler on a simulator (``sim.pulse``).

    Construction order matters exactly as for TracePlane/CheckPlane:
    build the plane before the components it watches, register probes
    with :meth:`add_probe` (or the ``watch_*`` helpers), then run.  When
    no :class:`~repro.obs.metrics.MetricsRegistry` is installed yet, the
    plane installs one — metric recording is passive, so this does not
    perturb the event schedule.
    """

    def __init__(self, sim, period_us: float = DEFAULT_PERIOD_US,
                 retention: int = DEFAULT_RETENTION):
        if period_us <= 0:
            raise ValueError(f"period_us must be positive: {period_us}")
        self.sim = sim
        self.period_us = float(period_us)
        self.store = SeriesStore(retention)
        self._probes: List[Tuple[str, Callable[[float], float]]] = []
        self._evaluators: List[object] = []
        self._feeds: List[object] = []
        #: the next lattice boundary to sample (read by the run loop)
        self.next_us = self.period_us * (sim.now // self.period_us + 1)
        self.samples = 0
        self.first_sample_us: Optional[float] = None
        self.last_sample_us: Optional[float] = None
        #: times the *passive* sampling pass (probes + SLO evaluation)
        #: scheduled a simulator event — must stay 0; the PulseMonitor
        #: turns any increment into an invariant violation.
        self.passive_schedules = 0
        if sim.metrics is None:
            sim.metrics = MetricsRegistry(sim)
        sim.pulse = self

    def uninstall(self) -> None:
        if self.sim.pulse is self:
            self.sim.pulse = None

    # -- registration -----------------------------------------------------
    def add_probe(self, name: str,
                  fn: Callable[[float], float]) -> None:
        """Register a gauge probe; called once per sample with the
        boundary timestamp, must return a float and schedule nothing."""
        self._probes.append((name, fn))

    def add_evaluator(self, evaluator) -> None:
        """Attach an :class:`~repro.obs.slo.SloEvaluator` (evaluated
        every sample, after the probes recorded)."""
        self._evaluators.append(evaluator)

    def add_feed(self, feed) -> None:
        """Attach a control-side consumer (e.g. :class:`LoadFeed`); runs
        after the passive pass and *may* schedule events."""
        self._feeds.append(feed)

    # -- convenience wiring ----------------------------------------------
    def watch_server(self, name: str, nic=None, scheduler=None,
                     runtime=None) -> None:
        """Per-server gauges: ``nic.util.<name>``, ``nic.queue.<name>``,
        and ``host.util.<name>`` when the runtime has host workers."""
        if nic is not None:
            self.add_probe(f"nic.util.{name}", nic_utilization_probe(nic))
        if scheduler is not None:
            self.add_probe(f"nic.queue.{name}", queue_depth_probe(scheduler))
        if runtime is not None and getattr(runtime, "host_util", None):
            self.add_probe(f"host.util.{name}",
                           host_utilization_probe(runtime))

    def watch_steering(self, controller) -> None:
        """Fabric-wide steering decision rate: ``steer.rate``."""
        self.add_probe("steer.rate",
                       counter_rate_probe(lambda: controller.steered))

    def watch_service(self, service: str, pct: float = 99.0,
                      window_us: Optional[float] = None) -> None:
        """Per-service latency quantile: ``svc.<service>.p<pct>``.

        ``window_us`` sizes the backing histogram's sliding window (two
        windows deep) so the quantile tracks the SLO's evaluation
        horizon instead of the registry's default — stale congestion
        must age out at the SLO's cadence for recovery to be visible.
        """
        metric = f"svc.{service}.latency_us"
        if window_us is not None:
            self.sim.metrics.histogram(metric, window_us=window_us,
                                       windows=2)
        self.add_probe(f"svc.{service}.p{pct:g}",
                       service_quantile_probe(self.sim.metrics, metric, pct))

    def watch_tenant(self, tenant: str, schedulers=(), services=(),
                     controller=None, pct: float = 99.0,
                     window_us: Optional[float] = None) -> None:
        """Per-tenant gauges (docs/TENANCY.md): ``tenant.util.<t>`` from
        the schedulers' busy ledgers, ``tenant.steer.<t>`` over the
        tenant's services, and ``tenant.svc.<t>.<svc>.p<pct>`` — the
        same quantile :meth:`watch_service` exposes, re-registered under
        the tenant namespace so per-tenant SLOs and fleet SLOs never
        share a series."""
        if schedulers:
            self.add_probe(f"tenant.util.{tenant}",
                           tenant_utilization_probe(schedulers, tenant))
        if controller is not None and services:
            self.add_probe(f"tenant.steer.{tenant}",
                           tenant_steering_probe(controller, services))
        for service in services:
            metric = f"svc.{service}.latency_us"
            if window_us is not None:
                self.sim.metrics.histogram(metric, window_us=window_us,
                                           windows=2)
            self.add_probe(
                f"tenant.svc.{tenant}.{service}.p{pct:g}",
                service_quantile_probe(self.sim.metrics, metric, pct))

    # -- engine hook ------------------------------------------------------
    def sample(self) -> None:
        """Sample at boundary ``next_us`` and advance to the next one.

        The run loop calls this with the clock at the boundary, after
        every event at or before it and before any event past it."""
        t = self.next_us
        self.next_us = t + self.period_us
        sim = self.sim
        seq0 = sim._seq
        for name, fn in self._probes:
            self.store.record(t, name, fn(t))
        for evaluator in self._evaluators:
            evaluator.evaluate(t)
        if sim._seq != seq0:
            # a probe or evaluator scheduled an event: the zero-cost
            # contract is broken (PulseMonitor reports it)
            self.passive_schedules += 1
        for feed in self._feeds:
            feed.publish(t)
        self.samples += 1
        if self.first_sample_us is None:
            self.first_sample_us = t
        self.last_sample_us = t

    # -- reporting / export -----------------------------------------------
    def slo_report(self) -> List[Dict[str, object]]:
        return [ev.report() for ev in self._evaluators]

    def breaches(self) -> int:
        return sum(ev.breaches for ev in self._evaluators)

    def telemetry(self) -> Dict[str, object]:
        """Plain-data digest for replay fingerprints (ChaosReport)."""
        out: Dict[str, object] = {
            "samples": self.samples,
            "series": len(self.store.names()),
            "points": self.store.total_points(),
            "store_crc": self.store.fingerprint(),
            "passive_schedules": self.passive_schedules,
        }
        if self._evaluators:
            out["breaches"] = self.breaches()
            out["recoveries"] = sum(ev.recoveries
                                    for ev in self._evaluators)
            out["slo_transitions"] = tuple(
                (ev.name, round(t, 3), kind)
                for ev in self._evaluators
                for t, kind, _bf, _bs in ev.transitions)
        for feed in self._feeds:
            triggered = getattr(feed, "triggered", None)
            if triggered is not None:
                out["load_migrations"] = tuple(
                    (round(t, 3), home, dst) for t, home, dst in triggered)
        return out

    def export_csv(self, path: str) -> int:
        """Write the store as CSV; returns the number of data rows."""
        text = self.store.to_csv()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text.count("\n") - 1

    def export_chrome(self, path: str) -> int:
        """Write Perfetto counter tracks; returns the event count."""
        doc = self.store.to_chrome()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])


class LoadFeed:
    """Publishes per-server utilization samples to the Rebalancer.

    Closes the ROADMAP "load-driven rebalancing" item: each pulse, every
    server's utilization — the *max* of its latest ``nic.util.<server>``
    and ``host.util.<server>`` gauges, i.e. its hottest execution
    resource — is handed to
    :meth:`repro.net.steering.Rebalancer.on_load_sample`, which owns the
    hysteresis + cooldown policy and may launch a live migration of the
    hottest sustained backend.  The feed itself is a dumb adapter — the
    *decision* lives with the steering layer, the *measurement* here.
    """

    def __init__(self, pulse: PulsePlane, rebalancer,
                 prefixes: Tuple[str, ...] = ("nic.util.", "host.util.")):
        self.pulse = pulse
        self.rebalancer = rebalancer
        self.prefixes = prefixes
        self.published = 0
        #: (t, home, dst) per migration this feed triggered.
        self.triggered: List[Tuple[float, str, str]] = []
        pulse.add_feed(self)

    def publish(self, t: float) -> None:
        store = self.pulse.store
        utils: Dict[str, float] = {}
        for name in store.names():
            prefix = next((p for p in self.prefixes
                           if name.startswith(p)), None)
            if prefix is None:
                continue
            point = store.get(name).last()
            if point is not None and point[0] == t:
                server = name[len(prefix):]
                utils[server] = max(utils.get(server, 0.0), point[1])
        if not utils:
            return
        self.published += 1
        move = self.rebalancer.on_load_sample(t, utils)
        if move is not None:
            self.triggered.append((t, move[0], move[1]))
            store.record(t, "load.migrations", float(len(self.triggered)))
