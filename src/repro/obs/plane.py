"""TracePlane: one object that turns a simulation observable.

Construct it against a :class:`~repro.sim.Simulator` *before* the
runtimes you want instrumented start executing::

    bed = make_testbed(seed=42)
    plane = TracePlane(bed.sim)            # tracing + metrics on
    ... build servers, run ...
    print(plane.render_stages())           # per-stage p50/p99
    plane.export_chrome("trace.json")      # open in Perfetto

Installation is a pair of simulator attributes (``sim.tracer``,
``sim.metrics``) that every instrumentation site in the dataplane checks
with ``getattr(sim, "...", None)`` — so a simulation without a TracePlane
(or with ``enabled=False``) runs the exact seed code path plus one failed
attribute lookup per event.  Tracing never charges virtual time: two runs
with the same seeds produce identical results traced or not.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from .metrics import DEFAULT_WINDOW_US, DEFAULT_WINDOWS, MetricsRegistry
from .profiler import (
    fold,
    render_flame,
    render_stages,
    stage_breakdown,
    write_chrome_trace,
)
from .trace import Tracer


class TracePlane:
    """Owns the tracer + metrics registry for one simulation."""

    def __init__(self, sim, enabled: bool = True,
                 max_spans: int = 200_000,
                 window_us: float = DEFAULT_WINDOW_US,
                 windows: int = DEFAULT_WINDOWS):
        self.sim = sim
        self.enabled = enabled
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        if enabled:
            self.tracer = Tracer(sim, max_spans=max_spans)
            self.metrics = MetricsRegistry(sim, window_us=window_us,
                                           windows=windows)
            sim.tracer = self.tracer
            sim.metrics = self.metrics

    def uninstall(self) -> None:
        """Detach from the simulator (spans already recorded are kept)."""
        if self.sim.tracer is self.tracer:
            self.sim.tracer = None
        if self.sim.metrics is self.metrics:
            self.sim.metrics = None

    # -- analysis ------------------------------------------------------------
    @property
    def spans(self):
        return self.tracer.spans if self.tracer is not None else ()

    def stage_breakdown(self) -> Dict[str, Any]:
        """Per-stage latency stats, ``{cat: StageStats}``."""
        return stage_breakdown(self.spans)

    def stage_report(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly per-stage p50/p99 table."""
        return {name: st.as_dict()
                for name, st in self.stage_breakdown().items()}

    def render_stages(self) -> str:
        return render_stages(self.stage_breakdown())

    def flame(self, by: Sequence[str] = ("node", "cat", "actor"),
              limit: int = 40) -> str:
        """The ``repro top`` table: span time folded by ``by``."""
        return render_flame(fold(self.spans, by=by), by=by, limit=limit)

    def export_chrome(self, path: str) -> int:
        """Write Chrome trace_event JSON; returns the event count."""
        if self.tracer is not None:
            self.tracer.close_all()
        return write_chrome_trace(self.spans, path)

    def violations(self):
        """Spans recorded by CheckPlane invariant monitors (category
        ``check.violation``) — one instant span per violation."""
        return [span for span in self.spans if span.cat == "check.violation"]

    def metrics_snapshot(self, windowed: bool = True) -> Dict[str, Dict[str, float]]:
        if self.metrics is None:
            return {}
        now = self.sim.now if windowed else None
        return self.metrics.snapshot(now)
