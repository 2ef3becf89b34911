"""CheckPlane: one object that turns a simulation self-checking.

Construct it against a :class:`~repro.sim.Simulator` *before* the
runtimes you want monitored, exactly like
:class:`~repro.obs.plane.TracePlane`::

    sim = Simulator()
    plane = CheckPlane(sim)                # monitors on, strict
    runtime = IPipeRuntime(sim, ...)       # auto-registers its monitors
    sim.run()
    assert not plane.violations

Installation is one simulator attribute (``sim.checker``) the engine
checks per event; without a CheckPlane a run pays a single attribute
read per event and nothing else.  Monitors never charge virtual time,
so checked and unchecked runs produce identical results.

Violations carry the active trace context when a tracer is installed
(the enclosing handler span for synchronous Paxos checks, the most
recent open span otherwise), emit a ``check.violation`` instant span
and a ``check.violations`` metric, and — in strict mode (default) —
raise :class:`~repro.check.monitors.InvariantViolation` at the point
of detection.

The same object is the engine-side channel of the determinism
sanitizer: when constructed with a ``recorder``
(:class:`~repro.check.sanitizer.StepRecorder`), every schedule and
every fired event is forwarded into the rolling step digest.
"""

from __future__ import annotations

from typing import List, Optional

from .monitors import (
    ChannelMonitor,
    DmoMonitor,
    InvariantViolation,
    PaxosMonitor,
    PlanMonitor,
    PulseMonitor,
    RingMonitor,
    SchedulerMonitor,
    SteeringMonitor,
    TenantMonitor,
    Violation,
)

#: Default monitor sweep period, in engine events.  Monitors are
#: incremental-cost observers; every-event checking is only worth it in
#: targeted tests (pass ``every=1``).
DEFAULT_EVERY = 256


class CheckPlane:
    """Owns the invariant monitors (and optional sanitizer channel) for
    one simulator."""

    def __init__(self, sim, every: int = DEFAULT_EVERY, strict: bool = True,
                 recorder=None, sim_index: int = 0, monitors: bool = True):
        self.sim = sim
        self.every = max(int(every), 1)
        self.strict = strict
        self.recorder = recorder
        self.sim_index = sim_index
        self.monitors_enabled = monitors
        self.monitors: List = []
        self.violations: List[Violation] = []
        self._disabled: set = set()
        self._tick = self.every
        self._paxos: Optional[PaxosMonitor] = None
        self._steering: Optional[SteeringMonitor] = None
        self._pulse: Optional[PulseMonitor] = None
        self._plan: Optional[PlanMonitor] = None
        self._tenancy: Optional[TenantMonitor] = None
        sim.checker = self

    def uninstall(self) -> None:
        """Detach from the simulator (recorded violations are kept)."""
        if self.sim.checker is self:
            self.sim.checker = None

    # -- engine hook (called by Simulator.run) ----------------------------
    def on_schedule(self, when: float, seq: int, fn) -> None:
        rec = self.recorder
        if rec is not None:
            rec.on_schedule(self.sim_index, self.sim._running, when, seq, fn)

    def after_step(self, when: float, seq: int, fn) -> None:
        rec = self.recorder
        if rec is not None:
            rec.after_step(self.sim_index, when, seq, fn)
        if self.monitors and self.monitors_enabled:
            self._tick -= 1
            if self._tick <= 0:
                self._tick = self.every
                self.check_now()

    # -- monitor management ----------------------------------------------
    def add_monitor(self, monitor) -> None:
        self.monitors.append(monitor)

    def enable(self, name: str) -> None:
        """Re-enable a monitor family by name (e.g. ``"scheduler"``)."""
        self._disabled.discard(name)

    def disable(self, name: str) -> None:
        """Toggle off every monitor with this name."""
        self._disabled.add(name)

    def wire_runtime(self, runtime) -> None:
        """Attach the full monitor set for one IPipeRuntime.

        Called automatically from ``IPipeRuntime.__init__`` when the
        runtime's simulator already carries this CheckPlane.
        """
        if not self.monitors_enabled:
            return
        self.add_monitor(SchedulerMonitor(runtime.nic_scheduler))
        self.add_monitor(DmoMonitor(runtime.dmo,
                                    component=runtime.node_name))
        self.add_monitor(RingMonitor(runtime.channel.to_host))
        self.add_monitor(RingMonitor(runtime.channel.to_nic))
        if runtime.rchannel is not None:
            self.add_monitor(ChannelMonitor(runtime.rchannel))

    def watch_paxos(self, group: str, *nodes) -> PaxosMonitor:
        """Watch a Paxos replica group for conflicting chosen values."""
        if self._paxos is None:
            self._paxos = PaxosMonitor(plane=self)
            self.add_monitor(self._paxos)
        for node in nodes:
            self._paxos.watch(group, node)
        return self._paxos

    def watch_steering(self, controller) -> SteeringMonitor:
        """Watch a SteeringController for ownership/affinity/exactly-once
        violations (one monitor per plane; repeat calls return it)."""
        if self._steering is None:
            self._steering = SteeringMonitor(controller)
            self.add_monitor(self._steering)
        return self._steering

    def watch_plan(self, server: str, runtime, placements) -> PlanMonitor:
        """Watch one runtime's planned actor placement (one monitor per
        plane; repeat calls register more runtimes on it)."""
        if self._plan is None:
            self._plan = PlanMonitor()
            self.add_monitor(self._plan)
        self._plan.watch(server, runtime, placements)
        return self._plan

    def watch_tenancy(self, server: str, runtime) -> TenantMonitor:
        """Watch one runtime's tenant ledgers (one monitor per plane;
        repeat calls register more runtimes on it)."""
        if self._tenancy is None:
            self._tenancy = TenantMonitor()
            self.add_monitor(self._tenancy)
        self._tenancy.watch(server, runtime)
        return self._tenancy

    def watch_pulse(self, pulse) -> PulseMonitor:
        """Watch a PulsePlane for passivity/lattice/accounting violations
        (one monitor per plane; repeat calls return it)."""
        if self._pulse is None:
            self._pulse = PulseMonitor(pulse)
            self.add_monitor(self._pulse)
        return self._pulse

    # -- checking ---------------------------------------------------------
    def check_now(self) -> None:
        """Run every enabled monitor once, immediately."""
        now = self.sim.now
        for monitor in self.monitors:
            if monitor.name in self._disabled:
                continue
            for message in monitor.check(now):
                self.report(monitor, message)

    def report(self, monitor, message: str, component: str = "") -> None:
        """Record one violation (and raise it when strict)."""
        trace_ctx = None
        tracer = self.sim.tracer
        if tracer is not None:
            open_spans = tracer.open_spans
            if open_spans:
                trace_ctx = open_spans[-1].ctx
        violation = Violation(
            monitor=monitor.name,
            component=component or getattr(monitor, "component", ""),
            message=message,
            time_us=self.sim.now,
            trace=trace_ctx,
        )
        self.violations.append(violation)
        if tracer is not None:
            tracer.instant(f"violation:{monitor.name}", "check.violation",
                           trace=trace_ctx, node=violation.component,
                           track="check", monitor=monitor.name,
                           message=message)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("check.violations").inc(self.sim.now)
        if self.strict:
            raise InvariantViolation(violation)
