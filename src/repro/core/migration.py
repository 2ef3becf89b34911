"""Four-phase actor migration (§3.2.5, Appendix B.3, Figure 18).

Only the SmartNIC initiates migration (it is far more overload-sensitive
than the host).  The phases:

1. **Prepare** — the actor leaves the dispatcher (and the DRR runnable
   queue); new requests are buffered by the runtime.
2. **Drain** — the actor finishes in-flight work; a DRR actor drains its
   whole mailbox.  Ends in the *Ready* state.
3. **Move** — every distributed memory object migrates across the PCIe
   (bulk DMA); the destination side registers the actor; state → *Gone*.
   This phase dominates (≈68% of migration time in Figure 18 — the LSM
   memtable actor's ~32MB of objects takes ~36ms).
4. **Forward** — buffered requests are re-addressed and pushed to the new
   side; state → *Clean*, then the actor resumes as *Running*.

Pull migration (host → NIC) mirrors the same phases with the transfer
direction reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..net import Packet
from ..sim import Simulator, Timeout
from .actor import Actor, Location, Message, MigrationState


@dataclass
class MigrationReport:
    """Per-phase elapsed time of one migration, for Figure 18."""

    actor: str
    direction: str                      # "to_host" / "to_nic"
    phase_us: Dict[int, float] = field(default_factory=dict)
    moved_bytes: int = 0
    forwarded_requests: int = 0

    @property
    def total_us(self) -> float:
        return sum(self.phase_us.values())

    def share(self, phase: int) -> float:
        return self.phase_us.get(phase, 0.0) / self.total_us if self.total_us else 0.0


#: Runtime-lock + state-manipulation overhead of the light phases (µs).
PREPARE_COST_US = 15.0
READY_COST_US = 10.0

PHASE_NAMES = {1: "prepare", 2: "drain", 3: "move", 4: "forward"}


class Migrator:
    """Executes migrations on behalf of the scheduler's management core.

    The runtime provides the integration points: draining leftover
    requests, pricing the object move, re-registering the actor, and
    re-forwarding buffered traffic.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.reports: List[MigrationReport] = []

    def _trace_report(self, report: MigrationReport) -> None:
        """Emit one parent span per migration with the four phases as
        strictly-contained children (the phases tile the parent)."""
        tracer = self.runtime.sim.tracer
        if tracer is None or not report.phase_us:
            return
        node = getattr(self.runtime, "node_name", "")
        end = self.runtime.sim.now
        start = end - report.total_us
        parent = tracer.record_span(
            f"migrate:{report.actor}", "migration", start, end,
            node=node, track="mgmt", actor=report.actor,
            direction=report.direction, moved_bytes=report.moved_bytes,
            forwarded=report.forwarded_requests)
        t = start
        for phase in sorted(report.phase_us):
            dur = report.phase_us[phase]
            tracer.record_span(
                PHASE_NAMES.get(phase, f"phase{phase}"), "migration",
                t, t + dur, parent=parent, node=node, track="mgmt",
                actor=report.actor, phase=phase)
            t += dur

    # -- NIC → host (push) ----------------------------------------------------
    def migrate_to_host(self, actor: Actor):
        """Process generator driving one push migration."""
        if actor.location is not Location.NIC or actor.pinned:
            return
        sim = self.runtime.sim
        report = MigrationReport(actor=actor.name, direction="to_host")

        # Phase 1: Prepare — leave the dispatcher, start buffering.
        t0 = sim.now
        actor.migration_state = MigrationState.PREPARE
        self.runtime.begin_buffering(actor)
        if actor.is_drr:
            actor.is_drr = False
            scheduler = self.runtime.nic_scheduler
            if actor in scheduler.drr_runnable:
                scheduler.drr_runnable.remove(actor)
            scheduler.forfeit_deficit(actor)
        yield Timeout(PREPARE_COST_US)
        report.phase_us[1] = sim.now - t0

        # Phase 2: Drain — run out the mailbox, then Ready.
        t0 = sim.now
        while actor.mailbox:
            msg = actor.mailbox.popleft()
            yield from self.runtime.execute_for_migration(actor, msg)
        while not actor.try_lock(-1):      # wait for in-flight handler
            yield Timeout(1.0)
        actor.unlock(-1)
        actor.migration_state = MigrationState.READY
        yield Timeout(READY_COST_US)
        report.phase_us[2] = sim.now - t0

        # Phase 3: Move objects over PCIe, start host actor, mark Gone.
        t0 = sim.now
        moved = self.runtime.dmo.migrate_all(actor.name, Location.HOST)
        report.moved_bytes = moved
        yield Timeout(self.runtime.bulk_transfer_us(moved))
        actor.location = Location.HOST
        actor.migration_state = MigrationState.GONE
        report.phase_us[3] = sim.now - t0

        # Phase 4: Forward buffered requests, rewrite destinations, Clean.
        t0 = sim.now
        buffered = self.runtime.end_buffering(actor)
        report.forwarded_requests = len(buffered)
        from .channel import RingFullError
        rchannel = getattr(self.runtime, "rchannel", None)
        for msg in buffered:
            if rchannel is not None:
                # the reliable layer owns retransmit/backoff; charge the
                # descriptor-write cost and hand the message over
                yield Timeout(
                    self.runtime.channel.to_host.produce_cost_us(msg, batch=8))
                rchannel.nic_send(msg)
                continue
            while True:
                yield from self.runtime.channel.to_host.wait_not_full()
                yield Timeout(
                    self.runtime.channel.to_host.produce_cost_us(msg, batch=8))
                try:
                    # live forwarding traffic races us for ring slots, so
                    # the reservation may vanish during the descriptor write
                    self.runtime.channel.nic_send(msg)
                    break
                except RingFullError:
                    continue
        actor.migration_state = MigrationState.CLEAN
        report.phase_us[4] = sim.now - t0

        actor.migration_state = MigrationState.RUNNING
        if hasattr(self.runtime, "update_steering"):
            self.runtime.update_steering(actor)
        self.reports.append(report)
        self._trace_report(report)
        return report

    # -- host → NIC (pull) --------------------------------------------------------
    def migrate_to_nic(self, actor: Actor):
        """Process generator driving one pull migration."""
        if actor.location is not Location.HOST or actor.pinned:
            return
        sim = self.runtime.sim
        report = MigrationReport(actor=actor.name, direction="to_nic")

        t0 = sim.now
        actor.migration_state = MigrationState.PREPARE
        self.runtime.begin_buffering(actor)
        yield Timeout(PREPARE_COST_US)
        report.phase_us[1] = sim.now - t0

        t0 = sim.now
        while actor.mailbox:
            msg = actor.mailbox.popleft()
            yield from self.runtime.execute_for_migration(actor, msg)
        actor.migration_state = MigrationState.READY
        yield Timeout(READY_COST_US)
        report.phase_us[2] = sim.now - t0

        t0 = sim.now
        moved = self.runtime.dmo.migrate_all(actor.name, Location.NIC)
        report.moved_bytes = moved
        yield Timeout(self.runtime.bulk_transfer_us(moved))
        actor.location = Location.NIC
        actor.migration_state = MigrationState.GONE
        report.phase_us[3] = sim.now - t0

        t0 = sim.now
        buffered = self.runtime.end_buffering(actor)
        report.forwarded_requests = len(buffered)
        for msg in buffered:
            self.runtime.enqueue_nic_message(msg)
        actor.migration_state = MigrationState.CLEAN
        report.phase_us[4] = sim.now - t0

        actor.migration_state = MigrationState.RUNNING
        if hasattr(self.runtime, "update_steering"):
            self.runtime.update_steering(actor)
        self.reports.append(report)
        self._trace_report(report)
        return report

    def last_report(self) -> Optional[MigrationReport]:
        return self.reports[-1] if self.reports else None


# -- cross-rack migration (SteerPlane) ----------------------------------------

#: Control-plane rendezvous cost of a cross-rack move (µs): destination
#: admission, region reservation, and the steering-repoint RPC.
XRACK_HANDSHAKE_US = 25.0


class MigrationInterrupted(RuntimeError):
    """A cross-rack move lost its destination mid-transfer.

    The migration ticket survives: the source still holds the drained
    actors (Ready state) and the checkpoint, so re-invoking
    :meth:`CrossRackMigrator.migrate` with a new destination resumes at
    the transfer — restart is idempotent.
    """

    def __init__(self, src_node: str, dst_node: str, actors: Tuple[str, ...]):
        super().__init__(
            f"destination {dst_node!r} failed while migrating "
            f"{list(actors)} from {src_node!r}")
        self.src_node = src_node
        self.dst_node = dst_node
        self.actors = actors


@dataclass
class CrossRackTicket:
    """Resumable progress record of one cross-rack migration."""

    actors: Tuple[str, ...]
    src_node: str
    service: Optional[str]
    #: milestone reached: 1 prepared, 2 drained, 3 checkpointed.
    milestone: int = 0
    actor_objs: List[Actor] = field(default_factory=list)
    steering_keys: Dict[str, List[str]] = field(default_factory=dict)
    state: object = None
    moved_bytes: int = 0
    seen: set = field(default_factory=set)
    attempts: int = 0
    report: MigrationReport = None


def _trace_xrack(sim: Simulator, node: str, report: MigrationReport) -> None:
    """Parent migration span + phase children, on the source's mgmt track."""
    tracer = sim.tracer
    if tracer is None or not report.phase_us:
        return
    end = sim.now
    start = end - report.total_us
    parent = tracer.record_span(
        f"migrate:{report.actor}", "migration", start, end,
        node=node, track="mgmt", actor=report.actor,
        direction=report.direction, moved_bytes=report.moved_bytes,
        forwarded=report.forwarded_requests)
    t = start
    for phase in sorted(report.phase_us):
        dur = report.phase_us[phase]
        tracer.record_span(
            PHASE_NAMES.get(phase, f"phase{phase}"), "migration",
            t, t + dur, parent=parent, node=node, track="mgmt",
            actor=report.actor, phase=phase)
        t += dur


class CrossRackMigrator:
    """Live migration of a steered backend between servers (SteerPlane).

    Extends the four-phase protocol across the fabric:

    1. **Prepare** — every actor of the backend leaves its dispatcher and
       starts buffering; duplicate suppression arms on the source.
    2. **Drain** — mailboxes run dry, in-flight handlers finish (Ready).
    3. **Move** — DMO state is checkpointed (via the app's ``detach``
       hook when provided) and shipped over the rack uplink; if the
       destination dies mid-transfer, :class:`MigrationInterrupted`
       fires and the retained ticket makes a retry resume here.
    4. **Repoint + forward** — atomically (one simulator event): the
       source deletes the actors, the destination restores them, the
       steering table repoints the shard (epoch bump), and forwarding
       tombstones are installed on the source.  Buffered requests are
       then re-addressed to the new home; ``window_us`` later the
       forwarding window is flushed (tombstones + affinity pins dropped,
       duplicate suppression disarmed).
    """

    def __init__(self, sim: Simulator, steering=None):
        self.sim = sim
        #: the SteeringController repointed at phase 4 (optional).
        self.steering = steering
        self.reports: List[MigrationReport] = []
        self._tickets: Dict[Tuple[str, Tuple[str, ...]], CrossRackTicket] = {}

    # -- cost model -------------------------------------------------------
    def wire_transfer_us(self, src_runtime, nbytes: int) -> float:
        """Checkpoint shipping time over the source's rack uplink."""
        bandwidth_gbps, propagation_us, inter_rack_us = 40.0, 1.0, 0.0
        network = getattr(src_runtime, "network", None)
        if network is not None:
            inter_rack_us = getattr(network, "inter_rack_propagation_us", 0.0)
            try:
                uplink = network.uplink(src_runtime.node_name)
            except (AttributeError, KeyError):
                uplink = None
            if uplink is not None:
                bandwidth_gbps = uplink.bandwidth_gbps
                propagation_us = uplink.propagation_us
        serialization = nbytes * 8.0 / (bandwidth_gbps * 1000.0)
        return (XRACK_HANDSHAKE_US + serialization
                + 2.0 * (propagation_us + inter_rack_us))

    # -- the protocol -----------------------------------------------------
    def migrate(self, src_runtime, dst_runtime, actor_names: List[str],
                service: Optional[str] = None,
                detach: Optional[Callable[[], object]] = None,
                attach: Optional[Callable] = None,
                window_us: float = 2_000.0):
        """Process generator driving one cross-rack move (resumable)."""
        sim = self.sim
        src_node = src_runtime.node_name
        dst_node = dst_runtime.node_name
        key = (src_node, tuple(actor_names))
        ticket = self._tickets.get(key)
        if ticket is None:
            ticket = CrossRackTicket(
                actors=tuple(actor_names), src_node=src_node,
                service=service,
                report=MigrationReport(
                    actor="+".join(actor_names),
                    direction=f"xrack:{src_node}->{dst_node}"))
            self._tickets[key] = ticket
        ticket.attempts += 1
        report = ticket.report
        report.direction = f"xrack:{src_node}->{dst_node}"

        # Phase 1: Prepare every actor; arm duplicate suppression.
        if ticket.milestone < 1:
            t0 = sim.now
            for name in actor_names:
                actor = src_runtime.actors.lookup(name)
                if actor is None:
                    raise RuntimeError(
                        f"cannot migrate unknown actor {name!r} off {src_node}")
                ticket.actor_objs.append(actor)
                actor.migration_state = MigrationState.PREPARE
                src_runtime.begin_buffering(actor)
                if actor.is_drr:
                    actor.is_drr = False
                    scheduler = src_runtime.nic_scheduler
                    if actor in scheduler.drr_runnable:
                        scheduler.drr_runnable.remove(actor)
                    scheduler.forfeit_deficit(actor)
            src_runtime.steer_suppress_active = True
            yield Timeout(PREPARE_COST_US)
            ticket.milestone = 1
            report.phase_us[1] = sim.now - t0

        # Phase 2: Drain each actor's mailbox and in-flight handler.
        if ticket.milestone < 2:
            t0 = sim.now
            for actor in ticket.actor_objs:
                while actor.mailbox:
                    msg = actor.mailbox.popleft()
                    yield from src_runtime.execute_for_migration(actor, msg)
                while not actor.try_lock(-1):
                    yield Timeout(1.0)
                actor.unlock(-1)
                actor.migration_state = MigrationState.READY
            yield Timeout(READY_COST_US)
            ticket.milestone = 2
            report.phase_us[2] = sim.now - t0

        # Phase 3a: Checkpoint (no simulated time: state is summarised
        # from DMO contents already resident on the source).
        if ticket.milestone < 3:
            for actor in ticket.actor_objs:
                spec = src_runtime._actor_specs.get(actor.name, {})
                ticket.steering_keys[actor.name] = list(
                    spec.get("steering_keys", [actor.name]))
                ticket.moved_bytes += src_runtime.dmo.bytes_owned(actor.name)
            ticket.state = detach() if detach is not None else (
                self._default_checkpoint(src_runtime, ticket))
            if isinstance(ticket.state, dict):
                ticket.moved_bytes += int(ticket.state.get("bytes", 0))
            ticket.seen = set(src_runtime._steer_seen)
            ticket.milestone = 3

        # Phase 3b: Ship the checkpoint over the uplink.  Re-runs in full
        # on retry after a destination failure (the new destination needs
        # its own copy).
        t0 = sim.now
        report.moved_bytes = ticket.moved_bytes
        yield Timeout(self.wire_transfer_us(src_runtime, ticket.moved_bytes))
        report.phase_us[3] = report.phase_us.get(3, 0.0) + (sim.now - t0)
        if not getattr(dst_runtime, "_running", True):
            raise MigrationInterrupted(src_node, dst_node, ticket.actors)

        # Phase 4: atomic hand-over — delete at source, restore at
        # destination, repoint steering, install tombstones.  No yields
        # inside this block: no packet can observe a half-moved backend.
        t0 = sim.now
        buffered: List[Message] = []
        for actor in ticket.actor_objs:
            buffered.extend(src_runtime.end_buffering(actor))
            actor.migration_state = MigrationState.GONE
            src_runtime.delete_actor(actor.name)
        dst_runtime._steer_seen.update(ticket.seen)
        dst_runtime.steer_suppress_active = True
        if attach is not None:
            attach(dst_runtime, ticket.state)
        else:
            self._default_restore(dst_runtime, ticket)
        new_epoch = -1
        if self.steering is not None and ticket.service is not None:
            new_epoch = self.steering.replace_backend(
                ticket.service, src_node, dst_node)
        tombstone_keys: List[str] = []
        for name in ticket.actors:
            for skey in ticket.steering_keys.get(name, [name]):
                src_runtime.forwarding[skey] = (dst_node, new_epoch)
                tombstone_keys.append(skey)

        # ... then forward the buffered requests to the new home.
        report.forwarded_requests += len(buffered)
        for msg in buffered:
            yield Timeout(src_runtime.nic.forward_cost(msg.size))
            pkt = msg.packet
            if pkt is None:
                pkt = Packet(src=src_node, dst=dst_node, size=msg.size,
                             kind=msg.target,
                             payload={"kind": msg.kind,
                                      "payload": msg.payload})
            else:
                pkt.dst = dst_node
                if "steer_epoch" in pkt.meta:
                    pkt.meta["steer_epoch"] = new_epoch
            pkt.meta["steer_forwarded"] = True
            src_runtime.transmit_from(Location.NIC, pkt)
        for actor in ticket.actor_objs:
            actor.migration_state = MigrationState.CLEAN
            actor.migration_state = MigrationState.RUNNING
        report.phase_us[4] = sim.now - t0

        sim.call_at(sim.now + window_us, self._flush_window,
                    src_runtime, dst_runtime, tombstone_keys,
                    ticket.service, src_node, dst_node)
        self.reports.append(report)
        _trace_xrack(sim, src_node, report)
        del self._tickets[key]
        return report

    # -- default state hooks ---------------------------------------------
    def _default_checkpoint(self, src_runtime, ticket: CrossRackTicket):
        """Snapshot every DMO the actors own (both object tables)."""
        snapshot: Dict[str, List[Tuple[int, object, Location]]] = {}
        for actor in ticket.actor_objs:
            owned: List[Tuple[int, object, Location]] = []
            for location in (Location.NIC, Location.HOST):
                table = src_runtime.dmo.tables[location]
                for obj in sorted(table.owned_by(actor.name),
                                  key=lambda o: o.object_id):
                    owned.append((obj.size, obj.data, location))
            snapshot[actor.name] = owned
        return {"dmo": snapshot, "bytes": 0}

    def _default_restore(self, dst_runtime, ticket: CrossRackTicket) -> None:
        """Re-register the actor objects and re-materialise their DMOs."""
        snapshot = (ticket.state or {}).get("dmo", {})
        for actor in ticket.actor_objs:
            actor.deregistered = False
            actor.migration_state = MigrationState.RUNNING
            actor._locked_by = None
            actor.is_drr = False
            actor.deficit = 0.0
            dst_runtime.register_actor(
                actor, steering_keys=ticket.steering_keys.get(actor.name))
            for size, data, location in snapshot.get(actor.name, []):
                dst_runtime.dmo.malloc(actor.name, size, data=data,
                                       location=location)

    def _flush_window(self, src_runtime, dst_runtime,
                      tombstone_keys: List[str], service: Optional[str],
                      old_backend: str, new_backend: str) -> None:
        """Close the forwarding window opened by one migration."""
        for skey in tombstone_keys:
            entry = src_runtime.forwarding.get(skey)
            if entry is not None and entry[0] == new_backend:
                del src_runtime.forwarding[skey]
        src_runtime.steer_suppress_active = False
        dst_runtime.steer_suppress_active = False
        if self.steering is not None and service is not None:
            self.steering.flush(service, old_backend)
