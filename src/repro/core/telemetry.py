"""Runtime observability: one-call snapshots of an iPipe deployment.

The paper's runtime keeps its bookkeeping (EWMA latencies, per-core
utilization, migration counters) in the NIC's scratchpad (§3.3); this
module exposes the equivalent as structured snapshots for operators,
examples, and the experiment harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .actor import Location


@dataclass
class ActorSnapshot:
    name: str
    location: str
    scheduling_group: str          # "fcfs" / "drr"
    requests_seen: int
    mean_response_us: float
    mean_service_us: float
    dispersion_us: float
    mailbox_depth: int
    dmo_bytes: int


@dataclass
class SchedulerSnapshot:
    fcfs_cores: int = 0
    drr_cores: int = 0
    fcfs_wait_mean_us: float = 0.0
    fcfs_wait_tail_us: float = 0.0
    ops_completed: int = 0
    forwards_completed: int = 0
    downgrades: int = 0
    upgrades: int = 0
    pushes: int = 0
    pulls: int = 0
    core_moves: int = 0
    core_failures: int = 0
    core_stalls: int = 0


@dataclass
class ChannelSnapshot:
    to_host_produced: int = 0
    to_host_consumed: int = 0
    to_nic_produced: int = 0
    to_nic_consumed: int = 0
    checksum_failures: int = 0
    sync_messages: int = 0
    drops: int = 0
    nacks: int = 0
    retransmits: int = 0
    ring_full_backoffs: int = 0


@dataclass
class RecoverySnapshot:
    """Fault-injection and recovery roll-up for one server."""

    faults_injected: Dict[str, int] = field(default_factory=dict)
    fault_schedule_len: int = 0
    retransmits: int = 0
    ring_full_backoffs: int = 0
    nacks: int = 0
    messages_recovered: int = 0
    duplicates_dropped: int = 0
    crashes: int = 0
    restarts: int = 0
    core_failures: int = 0
    core_stalls: int = 0
    #: mean/max time-to-recovery across channel retransmits and actor
    #: restarts (first failure → back in service), microseconds
    mttr_mean_us: float = 0.0
    mttr_max_us: float = 0.0
    restart_mttr_mean_us: float = 0.0
    channel_mttr_mean_us: float = 0.0


@dataclass
class RuntimeSnapshot:
    """Everything an operator dashboard would show for one server."""

    node: str
    now_us: float
    nic_model: str
    nic_cores_used: float
    host_cores_used: float
    actors: List[ActorSnapshot] = field(default_factory=list)
    scheduler: SchedulerSnapshot = field(default_factory=SchedulerSnapshot)
    channel: ChannelSnapshot = field(default_factory=ChannelSnapshot)
    migrations: int = 0
    dos_kills: List[str] = field(default_factory=list)
    recovery: RecoverySnapshot = field(default_factory=RecoverySnapshot)
    #: windowed metrics from the TracePlane registry, when one is
    #: installed on the simulator ({metric name: typed summary dict})
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def actor(self, name: str) -> ActorSnapshot:
        for snap in self.actors:
            if snap.name == name:
                return snap
        raise KeyError(name)

    def placement(self) -> Dict[str, str]:
        return {a.name: a.location for a in self.actors}

    def summary(self) -> str:
        """A terse human-readable one-screen summary."""
        lines = [
            f"[{self.node}] t={self.now_us / 1000:.1f}ms  {self.nic_model}",
            f"  cores: NIC {self.nic_cores_used:.2f} busy "
            f"({self.scheduler.fcfs_cores} FCFS / {self.scheduler.drr_cores} DRR), "
            f"host {self.host_cores_used:.2f} busy",
            f"  sched: {self.scheduler.ops_completed} ops, "
            f"{self.scheduler.forwards_completed} forwards, "
            f"wait µ={self.scheduler.fcfs_wait_mean_us:.1f}µs "
            f"tail={self.scheduler.fcfs_wait_tail_us:.1f}µs",
            f"  adapt: {self.scheduler.downgrades}↓ {self.scheduler.upgrades}↑ "
            f"{self.scheduler.pushes} push / {self.scheduler.pulls} pull, "
            f"{self.migrations} migrations total",
        ]
        for a in self.actors:
            lines.append(
                f"  actor {a.name:14s} @{a.location:4s}/{a.scheduling_group:4s} "
                f"reqs={a.requests_seen:<7d} svc={a.mean_service_us:6.1f}µs "
                f"resp={a.mean_response_us:7.1f}µs mbox={a.mailbox_depth}")
        return "\n".join(lines)


def snapshot(runtime, window_us: float = None) -> RuntimeSnapshot:
    """Capture the current state of an :class:`IPipeRuntime`."""
    sim = runtime.sim
    elapsed = window_us if window_us is not None else max(sim.now, 1.0)
    sched = runtime.nic_scheduler
    chan = runtime.channel
    rchannel = runtime.rchannel
    registry = sim.metrics

    actors = []
    for actor in runtime.actors:
        actors.append(ActorSnapshot(
            name=actor.name,
            location=actor.location.value,
            scheduling_group="drr" if actor.is_drr else "fcfs",
            requests_seen=actor.requests_seen,
            mean_response_us=actor.latency.mu,
            mean_service_us=actor.service.mu,
            dispersion_us=actor.dispersion,
            mailbox_depth=len(actor.mailbox),
            dmo_bytes=runtime.dmo.bytes_owned(actor.name),
        ))

    return RuntimeSnapshot(
        node=runtime.node_name,
        now_us=sim.now,
        nic_model=runtime.nic.spec.model,
        nic_cores_used=runtime.nic.cores_used(elapsed),
        host_cores_used=runtime.host_cores_used(elapsed),
        actors=actors,
        scheduler=SchedulerSnapshot(
            fcfs_cores=sched.fcfs_cores(),
            drr_cores=sched.drr_cores(),
            fcfs_wait_mean_us=sched.fcfs_tracker.mu,
            fcfs_wait_tail_us=sched.fcfs_tracker.tail,
            ops_completed=sched.ops_completed,
            forwards_completed=sched.forwards_completed,
            downgrades=sched.downgrades,
            upgrades=sched.upgrades,
            pushes=sched.pushes,
            pulls=sched.pulls,
            core_moves=sched.core_moves,
            core_failures=sched.core_failures,
            core_stalls=sched.core_stalls,
        ),
        channel=ChannelSnapshot(
            to_host_produced=chan.to_host.produced,
            to_host_consumed=chan.to_host.consumed,
            to_nic_produced=chan.to_nic.produced,
            to_nic_consumed=chan.to_nic.consumed,
            checksum_failures=(chan.to_host.checksum_failures
                               + chan.to_nic.checksum_failures),
            sync_messages=(chan.to_host.sync_messages
                           + chan.to_nic.sync_messages),
            drops=runtime.channel_drops,
            nacks=chan.to_host.nacks + chan.to_nic.nacks,
            retransmits=rchannel.retransmits if rchannel is not None else 0,
            ring_full_backoffs=(rchannel.ring_full_backoffs
                                if rchannel is not None else 0),
        ),
        migrations=len(runtime.migrator.reports),
        dos_kills=list(runtime.config.isolation.kills),
        recovery=recovery_snapshot(runtime),
        metrics=registry.snapshot(sim.now) if registry is not None else {},
    )


def recovery_snapshot(runtime) -> RecoverySnapshot:
    """Roll up FaultPlane + recovery telemetry for one server."""
    sched = runtime.nic_scheduler
    chan = runtime.channel
    rchannel = runtime.rchannel              # Optional[ReliableChannel]
    plane = runtime.fault_plane              # Optional[FaultPlane]

    channel_samples = (list(rchannel.mttr_samples)
                       if rchannel is not None else [])
    restart_samples = list(runtime.recovery_mttr)
    all_samples = channel_samples + restart_samples

    def _mean(samples):
        return sum(samples) / len(samples) if samples else 0.0

    return RecoverySnapshot(
        faults_injected=dict(plane.counts) if plane is not None else {},
        fault_schedule_len=(len(plane.schedule_log)
                            if plane is not None else 0),
        retransmits=rchannel.retransmits if rchannel is not None else 0,
        ring_full_backoffs=(rchannel.ring_full_backoffs
                            if rchannel is not None else 0),
        nacks=chan.to_host.nacks + chan.to_nic.nacks,
        messages_recovered=rchannel.recovered if rchannel is not None else 0,
        duplicates_dropped=(rchannel.duplicates_dropped
                            if rchannel is not None else 0),
        crashes=runtime.crashes,
        restarts=runtime.restarts,
        core_failures=sched.core_failures,
        core_stalls=sched.core_stalls,
        mttr_mean_us=_mean(all_samples),
        mttr_max_us=max(all_samples) if all_samples else 0.0,
        restart_mttr_mean_us=_mean(restart_samples),
        channel_mttr_mean_us=_mean(channel_samples),
    )
