"""The iPipe runtime: NIC-side + host-side execution environment (§3).

One :class:`IPipeRuntime` instance manages a single server equipped with a
SmartNIC.  It owns:

* the actor table and flow-dispatch table,
* the DMO manager spanning NIC and host object tables,
* the host↔NIC message channels,
* the NIC-side hybrid scheduler (:mod:`repro.core.scheduler`) running on
  the SmartNIC's cores,
* host-side worker threads (one is the pinned communication thread that
  polls the channel, per §5.5) executing host-located actors,
* the migrator.

Handlers receive an :class:`ExecutionContext` whose cost helpers resolve
to NIC-core or host-core time depending on where the actor currently
lives — so migrating an actor automatically re-times its execution.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional

from ..host.machine import HostMachine, StorageService
from ..host.stacks import StackCosts, ipipe_host_stack
from ..net import Network, Packet, line_rate_pps
from ..nic.cores import WorkloadProfile, time_on_host, time_on_nic
from ..nic.device import SmartNic
from ..nic.dma import DmaEngine
from ..sim import Doorbell, Simulator, Store, Timeout, UtilizationTracker, spawn
from ..sim.faults import RecoveryPolicy
from .actor import Actor, ActorTable, Location, Message, MigrationState
from .channel import Channel, ReliableChannel, RingFullError
from .dmo import DmoManager
from .migration import Migrator
from .scheduler import NicScheduler, SchedulerConfig, WorkItem


class ExecutionContext:
    """Per-invocation services handed to an actor handler."""

    def __init__(self, runtime: "IPipeRuntime", actor: Actor, core_id: int):
        self.runtime = runtime
        self.actor = actor
        self.core_id = core_id
        self.sim = runtime.sim
        #: trace context of the message being handled (propagated into
        #: every send/reply this handler makes) and the enclosing span
        self._trace = None
        self._span = None

    @property
    def side(self) -> Location:
        return self.actor.location

    @property
    def on_nic(self) -> bool:
        return self.side is Location.NIC

    # -- time charging ---------------------------------------------------------
    def compute(self, us: Optional[float] = None,
                profile: Optional[WorkloadProfile] = None,
                scale: float = 1.0) -> Timeout:
        """A sim command charging CPU time at the actor's current location.

        ``us`` is interpreted as NIC-core (CN2350-reference) time; when the
        actor runs on the host the charge shrinks by the workload's
        host-speedup (computed from the profile, or a default 2.8x).
        """
        prof = profile or self.actor.profile
        if us is None:
            if prof is None:
                raise ValueError("no cost given and actor has no profile")
            base = prof.exec_us
        else:
            base = us
        if self.on_nic:
            factor = (time_on_nic(prof, self.runtime.nic.spec) / prof.exec_us
                      if prof is not None else 1.0)
        else:
            factor = (time_on_host(prof, self.runtime.host.spec) / prof.exec_us
                      if prof is not None else 1.0 / 2.8)
        return Timeout(base * factor * scale)

    def accelerator(self, name: str, nbytes: int = 1024, batch: int = 1):
        """Generator charging a domain-specific accelerator invocation.

        On the NIC this contends on the real engine; on the host the same
        work runs in software at the Table-3 penalty (MD5 7x, AES 2.5x,
        default 3x for engines the paper doesn't compare).
        """
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                f"accel:{name}", "accel", trace=self._trace,
                parent=self._span, node=self.runtime.node_name,
                track="accel", engine=name, nbytes=nbytes, batch=batch,
                loc=self.side.value)
        try:
            if self.on_nic:
                yield from self.runtime.admit_accelerator(self.actor)
                start = self.sim.now
                yield from self.runtime.nic.accelerators.invoke(
                    name, nbytes=nbytes, batch=batch)
                self.runtime.charge_accelerator(self.actor,
                                                self.sim.now - start)
            else:
                prof = self.runtime.nic.accelerators.profile(name)
                host_us = prof.host_software_us
                if host_us is None:
                    host_us = prof.lat_us_b1 * 3.0
                yield Timeout(host_us * max(nbytes, 1) / prof.reference_bytes)
        finally:
            if span is not None:
                tracer.end(span)

    def storage_read(self):
        """Generator charging one persistent-storage read (host only)."""
        if self.on_nic:
            raise RuntimeError(
                f"actor {self.actor.name!r} touched storage from the NIC; "
                "storage-backed actors must be pinned to the host (§4)")
        yield Timeout(self.runtime.storage.read_cost_us())

    def storage_write(self, nbytes: int):
        """Generator charging one persistent-storage append (host only)."""
        if self.on_nic:
            raise RuntimeError("storage writes only reach the host")
        yield Timeout(self.runtime.storage.write_cost_us(nbytes))

    # -- messaging ------------------------------------------------------------
    def send(self, target: str, kind: str = "request", payload=None,
             size: int = 64, packet: Optional[Packet] = None) -> None:
        """Asynchronous message to another local actor (NIC or host)."""
        msg = Message(target=target, kind=kind, payload=payload, size=size,
                      source=self.actor.name, created_at=self.sim.now,
                      packet=packet)
        if self._trace is not None:
            msg.meta["trace"] = self._trace
        self.runtime.route_local(msg, origin=self.side)

    def send_remote(self, node: str, target: str, kind: str = "request",
                    payload=None, size: int = 64) -> None:
        """Message to an actor on another machine (goes over the wire)."""
        pkt = Packet(src=self.runtime.node_name, dst=node, size=size,
                     kind=target, payload={"kind": kind, "payload": payload},
                     created_at=self.sim.now)
        if self._trace is not None:
            # the trace id survives the hop: the remote ingress continues
            # this trace rather than starting a fresh one
            pkt.meta["trace"] = self._trace
        self.runtime.transmit_from(self.side, pkt)

    def reply(self, msg: Message, payload=None, size: Optional[int] = None) -> None:
        """Send the response packet back to the request's originator."""
        if msg.packet is None:
            raise ValueError("message did not arrive from the wire")
        reply = msg.packet.reply(size=size, payload=payload)
        if self._trace is not None:
            reply.meta["trace"] = self._trace
        self.runtime.transmit_from(self.side, reply)

    # -- DMO API -----------------------------------------------------------------
    def dmo_malloc(self, size: int, data=None):
        return self.runtime.dmo.malloc(self.actor.name, size, data=data,
                                       location=self.actor.location)

    def dmo_free(self, object_id: int) -> None:
        self.runtime.dmo.free(self.actor.name, object_id)

    def dmo_read(self, object_id: int):
        return self.runtime.dmo.read(self.actor.name, object_id)

    def dmo_write(self, object_id: int, data) -> None:
        self.runtime.dmo.write(self.actor.name, object_id, data)


#: Poll period of an idle host runtime thread (µs): "each runtime thread
#: periodically polls requests from the channel" (§5.1).
HOST_POLL_US = 0.5


class IPipeRuntime:
    """iPipe on one server: SmartNIC runtime + host runtime + channels."""

    #: §5.5 runtime tax on host-side execution: message handling, DMO
    #: address translation, and scheduler statistics together cost ~11-12%
    #: extra host CPU versus a bare DPDK loop at equal throughput.
    BOOKKEEPING_FRACTION = 0.18
    BOOKKEEPING_FLOOR_US = 0.30

    def __init__(self, sim: Simulator, nic: SmartNic, host: HostMachine,
                 network: Network, node_name: str,
                 config: Optional[SchedulerConfig] = None,
                 host_workers: int = 2,
                 host_stack: Optional[StackCosts] = None,
                 host_only: bool = False,
                 reliable: bool = False,
                 fault_plane=None,
                 recovery: Optional[RecoveryPolicy] = None):
        self.sim = sim
        #: When set, every registered actor is pinned to the host — the
        #: §5.5 overhead experiment's "host-only iPipe" configuration.
        self.host_only = host_only
        self.nic = nic
        self.host = host
        self.network = network
        self.node_name = node_name
        self.config = config or SchedulerConfig()
        self.actors = ActorTable()
        self.dmo = DmoManager(nic.dram)
        #: TenantPlane config (docs/TENANCY.md), set by
        #: :meth:`set_tenancy`.  Empty dicts = implicit single tenant:
        #: no admission path ever waits and the event schedule is
        #: bit-identical to the untenanted runtime.
        self.tenant_accel_shares: Dict[str, float] = {}
        #: Cumulative NIC-accelerator busy time per tenant (µs).
        self.tenant_accel_us: Dict[str, float] = {}
        self.storage: StorageService = host.storage
        self.host_stack = host_stack or ipipe_host_stack()

        channel_dma = (nic.host_channel if isinstance(nic.host_channel, DmaEngine)
                       else DmaEngine(sim))
        self._channel_dma = channel_dma
        #: idle host workers park here until a poll could succeed; every
        #: NIC→host produce, run-queue put and stop() rings it
        self._host_bell = Doorbell(sim, HOST_POLL_US, self._host_poll_at)
        self.channel = Channel(sim, channel_dma, name=f"{node_name}.chan")
        #: optional sequence-numbered reliable-delivery layer (FaultPlane
        #: recovery path); None keeps the seed fire-and-forget semantics
        self.rchannel: Optional[ReliableChannel] = (
            ReliableChannel(self.channel, sim) if reliable else None)
        if self.rchannel is not None:
            # wake the NIC-side poll when a backed-off host→NIC
            # retransmit finally lands
            self.rchannel.on_deliverable["to_nic"] = self._nic_channel_arrival
        self.dispatch_table: Dict[str, str] = {}
        self._migration_buffers: Dict[str, List[Message]] = {}
        self.migrator = Migrator(self)

        #: SteerPlane state (cross-rack migration, see core/migration.py):
        #: forwarding tombstones map a dispatch key that left this node to
        #: (new home, post-repoint epoch); packets that were steered under
        #: the old epoch are re-addressed there during the forwarding
        #: window instead of being dropped.
        self.forwarding: Dict[str, tuple] = {}
        self.forwarded_cross_rack = 0
        #: request uids seen at this node; while a migration's forwarding
        #: window is open (``steer_suppress_active``) a retransmit of a
        #: seen uid is dropped so it cannot race the repoint and execute
        #: on both the old and the new backend.
        self._steer_seen: set = set()
        self.steer_suppressed = 0
        self.steer_suppress_active = False
        #: SteeringController delivery-note hook (set by scenario.build)
        self.steer_note: Optional[Callable[[Packet], None]] = None

        #: crash / restart machinery (FaultPlane recovery path)
        self.recovery = recovery
        self.fault_plane = None
        self._actor_specs: Dict[str, Dict] = {}
        self._crashed: Dict[str, float] = {}   # name -> crash time
        self._restart_counts: Dict[str, int] = {}
        self.crashes = 0
        self.restarts = 0
        #: per-restart recovery time samples (crash → back serving)
        self.recovery_mttr: List[float] = []
        self._nic_poll_pending = False

        # host-side workers: worker 0 is the pinned communication thread
        self.host_workers = host_workers
        self.host_queue: Store = Store(sim)
        self.host_util: List[UtilizationTracker] = [
            UtilizationTracker() for _ in range(host_workers)]
        self.host_ops = 0
        self.channel_drops = 0
        #: host→NIC ring writes issued from host context (replies, sends);
        #: the issuing host worker pays the descriptor-write CPU cost
        self._host_ring_writes = 0
        self._running = True
        self._host_procs = [
            spawn(sim, self._host_worker(w), name=f"{node_name}-hostw{w}")
            for w in range(host_workers)]

        nic.packet_handler = self.on_packet
        nic.attach_network(network, node_name)
        if not nic.spec.is_on_path:
            # Off-path NICs steer host-bound flows through the NIC switch,
            # bypassing NIC cores entirely (§2.1); the runtime installs a
            # bypass rule whenever an actor lands on the host.
            nic.set_host_receiver(self._host_direct_rx)
        self.nic_scheduler = NicScheduler(
            sim,
            num_cores=nic.spec.cores,
            work_queue=nic.traffic_manager,
            actor_table=self.actors,
            executor=self._nic_executor,
            config=self.config,
            quantum_fn=self._drr_quantum,
            on_push_migration=self.migrator.migrate_to_host,
            on_pull_migration=self._pull_candidate,
            redeliver=self.deliver,
            core_util=nic.core_util,
            on_actor_killed=self._on_actor_killed,
            node_name=node_name,
        )
        if fault_plane is not None:
            fault_plane.wire_runtime(self)
        # A CheckPlane installed on this sim (repro.check) picks up any
        # runtime built afterwards and registers its invariant monitors.
        checker = sim.checker
        if checker is not None and hasattr(checker, "wire_runtime"):
            checker.wire_runtime(self)

    # -- multi-tenancy (docs/TENANCY.md) --------------------------------------
    def set_tenancy(self, nic_shares: Optional[Dict[str, float]] = None,
                    accel_shares: Optional[Dict[str, float]] = None,
                    dmo_budgets: Optional[Dict[str, int]] = None) -> None:
        """Activate per-tenant budgets on this server's NIC resources.

        ``nic_shares`` turns on hierarchical DRR in the scheduler,
        ``accel_shares`` rate-limits each tenant's accelerator busy time
        to a fraction of elapsed virtual time, ``dmo_budgets`` caps a
        tenant's total DMO region bytes.  All three default to off.
        """
        if nic_shares:
            self.nic_scheduler.set_tenant_shares(nic_shares)
        if accel_shares:
            self.tenant_accel_shares = {
                t: s for t, s in accel_shares.items() if s > 0.0}
        if dmo_budgets:
            for tenant, budget in dmo_budgets.items():
                if budget > 0:
                    self.dmo.set_tenant_budget(tenant, budget)

    def admit_accelerator(self, actor: Actor):
        """Per-tenant accelerator admission (generator; may wait).

        A tenant with a configured ``accelerator_share`` may keep the
        NIC engines busy for at most ``share`` of elapsed virtual time;
        past the budget the invocation is delayed until the long-run
        average drops back under the cap.  Tenants without a share (and
        every actor when no shares are configured) are admitted
        immediately with zero added events.
        """
        share = self.tenant_accel_shares.get(getattr(actor, "tenant", ""))
        if not share:
            return
        tenant = actor.tenant
        while True:
            elapsed = max(self.sim.now, 1.0)
            used = self.tenant_accel_us.get(tenant, 0.0)
            if used <= share * elapsed:
                return
            yield Timeout(used / share - elapsed)

    def charge_accelerator(self, actor: Actor, busy_us: float) -> None:
        tenant = getattr(actor, "tenant", "")
        self.tenant_accel_us[tenant] = \
            self.tenant_accel_us.get(tenant, 0.0) + busy_us

    # -- actor lifecycle -----------------------------------------------------------
    def register_actor(self, actor: Actor,
                       steering_keys: Optional[List[str]] = None,
                       region_bytes: Optional[int] = None) -> Actor:
        """actor_create + actor_register + actor_init (Table 4)."""
        if self.host_only:
            actor.location = Location.HOST
            actor.pinned = True
        self._actor_specs[actor.name] = {
            "actor": actor,
            "steering_keys": list(steering_keys or [actor.name]),
        }
        self.actors.register(actor)
        self.dmo.create_region(actor.name,
                               region_bytes or max(actor.state_bytes * 2, 1 << 20),
                               tenant=getattr(actor, "tenant", ""))
        for key in steering_keys or [actor.name]:
            self.dispatch_table[key] = actor.name
        self.update_steering(actor)
        if actor.init_handler is not None:
            actor.init_handler(actor, ExecutionContext(self, actor, core_id=-1))
        return actor

    def delete_actor(self, name: str) -> None:
        """actor_delete: deregister and reclaim every resource."""
        actor = self.actors.deregister(name)
        if actor is None:
            return
        sched = self.nic_scheduler
        if actor in sched.drr_runnable:
            sched.drr_runnable.remove(actor)
        sched.forfeit_deficit(actor)
        for key in [k for k, v in self.dispatch_table.items() if v == name]:
            del self.dispatch_table[key]
        self.dmo.destroy_region(name)
        self._actor_specs.pop(name, None)
        self._crashed.pop(name, None)

    # -- crash & restart (FaultPlane recovery path) ---------------------------
    def crash_actor(self, name: str) -> bool:
        """Kill an actor process, keeping its DMO region and dispatch
        entries.  Requests arriving while it is down are buffered through
        the migration machinery; a :class:`RecoveryPolicy` schedules the
        restart."""
        actor = self.actors.lookup(name)
        if actor is None or name not in self._actor_specs:
            return False
        self.crashes += 1
        self.actors.deregister(name)
        self._mark_down(actor, restart=(
            self.recovery is not None and self.recovery.restart_crashed))
        return True

    def _on_actor_killed(self, actor: Actor) -> None:
        """Scheduler callback: the DoS watchdog killed this actor."""
        if actor.name not in self._actor_specs:
            return
        self._mark_down(actor, restart=(
            self.recovery is not None and self.recovery.restart_killed))

    def _mark_down(self, actor: Actor, restart: bool) -> None:
        sched = self.nic_scheduler
        if actor in sched.drr_runnable:
            sched.drr_runnable.remove(actor)
        sched.forfeit_deficit(actor)
        actor.is_drr = False
        actor._locked_by = None
        # in-flight mailbox requests survive the crash: buffer them the
        # same way migration phase 1 does
        buffer = self._migration_buffers.setdefault(actor.name, [])
        while actor.mailbox:
            buffer.append(actor.mailbox.popleft())
        if restart:
            self._schedule_restart(actor.name)

    def _schedule_restart(self, name: str) -> None:
        if name in self._crashed:
            return                 # restart already pending
        attempts = self._restart_counts.get(name, 0)
        policy = self.recovery
        if policy is None or attempts >= policy.max_restarts:
            return
        self._crashed[name] = self.sim.now
        delay = policy.restart_delay_us * (policy.backoff_factor ** attempts)
        self.sim.post(delay, self.restart_actor, name)

    def restart_actor(self, name: str) -> bool:
        """Re-deploy a crashed/killed actor with DMO-recovered state.

        Reuses the migration path: the actor object re-registers with its
        original steering keys (phase 3's re-bind) and the messages
        buffered while it was down are re-delivered (phase 4's forward).
        The DMO region was never torn down, so state recovery is exactly
        a region re-attach — calling this on a live actor is a no-op,
        which makes restart idempotent w.r.t. DMO state."""
        spec = self._actor_specs.get(name)
        if spec is None:
            return False
        fault_at = self._crashed.pop(name, None)
        if self.actors.lookup(name) is not None:
            return False           # already running
        actor: Actor = spec["actor"]
        actor.deregistered = False
        actor.migration_state = MigrationState.RUNNING
        actor._locked_by = None
        actor.is_drr = False
        actor.deficit = 0.0
        self.actors.register(actor)
        for key in spec["steering_keys"]:
            self.dispatch_table.setdefault(key, name)
        self.update_steering(actor)
        self._restart_counts[name] = self._restart_counts.get(name, 0) + 1
        self.restarts += 1
        if fault_at is not None:
            self.recovery_mttr.append(self.sim.now - fault_at)
        for queued in self._migration_buffers.pop(name, []):
            self.deliver(queued)
        return True

    def _buffer_for_restart(self, msg: Message) -> bool:
        """Hold messages for an actor that is down but restartable."""
        if msg.target in self._crashed:
            self._migration_buffers.setdefault(msg.target, []).append(msg)
            return True
        return False

    @property
    def channel(self) -> Channel:
        return self._channel

    @channel.setter
    def channel(self, channel: Channel) -> None:
        self._channel = channel
        channel.to_host.on_produce = self._host_bell.ring

    def stop(self) -> None:
        self._running = False
        self.nic_scheduler.stop()
        self._host_bell.ring()

    # -- ingress -----------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Wire arrival → scheduler work item (runs at interrupt level)."""
        switch = self.nic.nic_switch
        if switch is not None:
            # off-path: the NIC switch steers host-bound flows around the
            # NIC cores entirely
            if switch.rules.get(switch.classify(packet)) == "host":
                switch.steered_host += 1
                self._host_direct_rx(packet)
                return
            switch.steered_nic += 1
        if self._steer_suppress(packet):
            return
        target = self.dispatch_table.get(packet.kind)
        if target is None:
            if self._steer_forward(packet):
                return
            return  # not for us: drop (endpoint semantics)
        payload, kind = packet.payload, packet.kind
        if isinstance(payload, dict) and "kind" in payload and "payload" in payload:
            kind, payload = payload["kind"], payload["payload"]
        msg = Message(target=target, kind=kind, payload=payload,
                      size=packet.size, source=packet.src,
                      created_at=packet.created_at, packet=packet)
        msg.meta["nic_arrival"] = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            # the trace starts here (or continues one begun on a remote
            # node); every downstream stage joins via msg.meta["trace"]
            span = tracer.instant(
                f"rx:{packet.kind}", "ingress",
                trace=packet.meta.get("trace"), node=self.node_name,
                track="nic-rx", target=target, src=packet.src,
                size=packet.size)
            msg.meta["trace"] = span.ctx
        self.deliver(msg)

    def deliver(self, msg: Message) -> None:
        """Route a message to its actor's current location."""
        actor = self.actors.lookup(msg.target)
        if actor is None:
            self._buffer_for_restart(msg)
            return
        if actor.migration_state in (MigrationState.PREPARE, MigrationState.READY):
            self._migration_buffers.setdefault(actor.name, []).append(msg)
            return
        pkt = msg.packet
        if (self.steer_note is not None and pkt is not None
                and pkt.meta.get("steer_epoch") is not None
                and not pkt.meta.get("steer_noted")):
            # first hand-off to a live actor: record the delivery for the
            # SteeringMonitor (the flag keeps a buffered-then-forwarded
            # request from being counted on both sides of a migration)
            pkt.meta["steer_noted"] = True
            self.steer_note(pkt)
        if actor.location is Location.HOST:
            # NIC core work: forwarding + channel DMA issue
            cost = (self.nic.forward_cost(msg.size)
                    + self.channel.to_host.produce_cost_us(msg, batch=8))
            self.nic.traffic_manager.push(WorkItem(
                forward_cost_us=cost,
                forward_action=lambda m=msg: self._nic_send_or_drop(m),
                arrived_at=msg.meta.get("nic_arrival", self.sim.now),
                trace=msg.meta.get("trace")))
        else:
            self.enqueue_nic_message(msg)

    def _host_direct_rx(self, packet: Packet) -> None:
        """Off-path bypass delivery: the NIC switch DMAs straight to host
        rings without touching NIC cores."""
        if self._steer_suppress(packet):
            return
        target = self.dispatch_table.get(packet.kind)
        if target is None:
            self._steer_forward(packet)
            return
        payload, kind = packet.payload, packet.kind
        if isinstance(payload, dict) and "kind" in payload and "payload" in payload:
            kind, payload = payload["kind"], payload["payload"]
        msg = Message(target=target, kind=kind, payload=payload,
                      size=packet.size, source=packet.src,
                      created_at=packet.created_at, packet=packet)
        msg.meta["nic_arrival"] = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.instant(
                f"rx:{packet.kind}", "ingress",
                trace=packet.meta.get("trace"), node=self.node_name,
                track="nic-switch", target=target, src=packet.src,
                size=packet.size, bypass=True)
            msg.meta["trace"] = span.ctx
        self._host_enqueue(msg)

    def update_steering(self, actor: Actor) -> None:
        """Refresh the off-path NIC switch rules to match the actor's
        current location (install bypass for host actors)."""
        switch = self.nic.nic_switch
        if switch is None:
            return
        keys = [k for k, v in self.dispatch_table.items() if v == actor.name]
        for key in keys:
            if actor.location is Location.HOST:
                switch.install_rule(key, "host")
            else:
                switch.remove_rule(key)

    def _steer_suppress(self, packet: Packet) -> bool:
        """Duplicate suppression for the cross-rack forwarding window.

        Marks every uid-carrying wire arrival as seen; while a window is
        open, a retransmit of a seen uid is dropped (True) so it cannot
        execute on both the draining and the restored backend.  Packets
        the migrator itself forwarded bypass the check — they *are* the
        single surviving copy of the original request.
        """
        uid = packet.meta.get("req_uid")
        if uid is None:
            return False
        if (self.steer_suppress_active
                and not packet.meta.get("steer_forwarded")
                and uid in self._steer_seen):
            self.steer_suppressed += 1
            return True
        self._steer_seen.add(uid)
        return False

    def _steer_forward(self, packet: Packet) -> bool:
        """Forwarding-window tombstone: re-address a stale-steered packet
        to the dispatch key's post-migration home (phase-4 semantics,
        extended across the fabric)."""
        entry = self.forwarding.get(packet.kind)
        if entry is None:
            return False
        new_home, epoch = entry
        packet.dst = new_home
        packet.meta["steer_forwarded"] = True
        if "steer_epoch" in packet.meta:
            # the repointed table owns the flow at the new home
            packet.meta["steer_epoch"] = epoch
        self.forwarded_cross_rack += 1
        self.transmit_from(Location.NIC, packet)
        return True

    def _nic_send_or_drop(self, msg: Message) -> None:
        """Cross the NIC→host ring.  Without the reliable layer a full
        ring drops the packet, exactly as a full descriptor ring does on
        real hardware; with it, the send is retried with backoff."""
        if self.rchannel is not None:
            self.rchannel.nic_send(msg)
            return
        try:
            self.channel.nic_send(msg)
        except RingFullError:
            self.channel_drops += 1

    def enqueue_nic_message(self, msg: Message) -> None:
        self.nic.traffic_manager.push(WorkItem(
            message=msg,
            arrived_at=msg.meta.get("nic_arrival", self.sim.now)))

    def route_local(self, msg: Message, origin: Location) -> None:
        """Actor→actor message within this server."""
        actor = self.actors.lookup(msg.target)
        if actor is None:
            self._buffer_for_restart(msg)
            return
        msg.meta["nic_arrival"] = self.sim.now
        if actor.location is Location.HOST and origin is Location.HOST:
            self._host_enqueue(msg)
        elif actor.location is Location.HOST:
            self.deliver(msg)
        elif origin is Location.HOST:
            # host → NIC actor: cross the channel, then schedule on the NIC
            self._host_ring_writes += 1
            if self.rchannel is not None:
                self.rchannel.host_send(msg)
            else:
                self._host_send_backoff(msg, 1.0)
                return
            delay = self.channel.to_nic.transfer_delay_us(msg)
            self.sim.post(delay, self._nic_channel_arrival)
        else:
            self.enqueue_nic_message(msg)

    def _host_send_backoff(self, msg: Message, backoff_us: float) -> None:
        """Event-level ``wait_not_full``: host→NIC sends run inside actor
        handlers (plain callables, not sim processes), so a full ring must
        back off via rescheduled events rather than raising RingFullError
        through the handler."""
        try:
            self.channel.host_send(msg)
        except RingFullError:
            self.sim.post(backoff_us, self._host_send_backoff, msg,
                             min(backoff_us * 2, 64.0))
            return
        delay = self.channel.to_nic.transfer_delay_us(msg)
        self.sim.post(delay, self._nic_channel_arrival)

    def _nic_channel_arrival(self, msg: Message = None) -> None:
        """Drain the host→NIC ring into the scheduler's shared queue."""
        while True:
            polled = (self.rchannel.nic_poll() if self.rchannel is not None
                      else self.channel.nic_poll())
            if polled is None:
                break
            self.enqueue_nic_message(polled)
        backlog = len(self.channel.to_nic) or (
            self.rchannel is not None and self.rchannel.pending("to_nic"))
        if backlog and not self._nic_poll_pending:
            # head slot's DMA still in flight (slots are visible strictly
            # in ring order), or a retransmit is pending: retry shortly
            self._nic_poll_pending = True
            self.sim.post(1.0, self._nic_poll_retry)

    def _nic_poll_retry(self) -> None:
        self._nic_poll_pending = False
        self._nic_channel_arrival()

    # -- egress ---------------------------------------------------------------------
    def transmit_from(self, side: Location, packet: Packet) -> None:
        """Send a packet to the wire from NIC or host context.

        Host-originated frames pay the channel crossing plus a forwarding
        work item on a NIC core (on-path NICs convey *all* traffic through
        their cores).
        """
        if side is Location.NIC:
            self.nic.transmit(packet)
        else:
            carrier = Message(target="__tx__", payload=packet,
                              size=packet.size, created_at=self.sim.now)
            self._host_ring_writes += 1
            delay = self.channel.to_nic.transfer_delay_us(carrier)
            self.sim.post(delay, self._host_tx_arrival, packet)

    def _host_tx_arrival(self, packet: Packet) -> None:
        self.nic.traffic_manager.push(WorkItem(
            forward_cost_us=self.nic.forward_cost(packet.size),
            forward_action=lambda p=packet: self.nic.transmit(p),
            arrived_at=self.sim.now,
            trace=packet.meta.get("trace")))

    # -- NIC-side handler execution ------------------------------------------------
    def _nic_executor(self, core_id: int, actor: Actor, msg: Message):
        ctx = ExecutionContext(self, actor, core_id)
        yield from self._drive(actor, msg, ctx)

    def _drive(self, actor: Actor, msg: Message, ctx: ExecutionContext):
        ctx._trace = msg.meta.get("trace")
        ctx._span = msg.meta.get("span")
        result = actor.exec_handler(actor, msg, ctx)
        if inspect.isgenerator(result):
            yield from result
        elif actor.profile is not None:
            yield ctx.compute(profile=actor.profile)

    def execute_for_migration(self, actor: Actor, msg: Message):
        """Drain-phase execution on the management core."""
        ctx = ExecutionContext(self, actor, core_id=0)
        yield from self._drive(actor, msg, ctx)

    # -- migration integration ------------------------------------------------------
    def begin_buffering(self, actor: Actor) -> None:
        self._migration_buffers.setdefault(actor.name, [])

    def end_buffering(self, actor: Actor) -> List[Message]:
        return self._migration_buffers.pop(actor.name, [])

    def bulk_transfer_us(self, nbytes: int) -> float:
        return self._channel_dma.bulk_transfer_us(nbytes)

    def _pull_candidate(self):
        candidates = [a for a in self.actors
                      if a.schedulable and a.location is Location.HOST
                      and not a.pinned and a.requests_seen > 10]
        if not candidates:
            return None
        elapsed = max(self.sim.now, 1.0)
        lightest = min(candidates, key=lambda a: a.load(elapsed))
        return self.migrator.migrate_to_nic(lightest)

    def _drr_quantum(self, actor: Actor) -> float:
        """Quantum = max tolerated forwarding latency for the actor's
        average request size (§3.2.2), i.e. the Figure-4 headroom."""
        size = int(actor.request_bytes_ewma) or 512
        spec = self.nic.spec
        rate_pp_us = line_rate_pps(spec.bandwidth_gbps, size) / 1e6
        headroom = spec.cores / rate_pp_us - self.nic.forward_cost(size)
        return max(headroom, 1.0)

    # -- host-side workers --------------------------------------------------------------
    def _host_enqueue(self, msg: Message) -> None:
        self.host_queue.put_nowait(msg)
        self._host_bell.ring()

    def _host_poll_at(self) -> Optional[float]:
        """Earliest time a host worker's poll could succeed; None: never."""
        if self.host_queue.items or not self._running:
            return self.sim.now
        if self.rchannel is not None and self.rchannel.ready("to_host"):
            return self.sim.now
        return self.channel.to_host.poll_at()

    def _host_worker(self, worker_id: int):
        """Host runtime thread: "each runtime thread periodically polls
        requests from the channel and performs actor execution" (§5.1).
        The run queue takes priority; an idle worker polls the ring every
        HOST_POLL_US, which the doorbell reproduces tick for tick without
        simulating the empty polls."""
        while self._running:
            msg = self.host_queue.try_get_nowait()
            if msg is None:
                polled = (self.rchannel.host_poll() if self.rchannel is not None
                          else self.channel.host_poll())
                if polled is not None:
                    rx = self.host_stack.rx_cost(polled.size)
                    yield Timeout(rx)
                    self.host_util[worker_id].add_busy(rx)
                    self.host_queue.put_nowait(polled)
                    continue
                yield self._host_bell
                continue
            actor = self.actors.lookup(msg.target)
            if actor is None:
                self._buffer_for_restart(msg)
                continue
            if not actor.schedulable:
                continue
            if actor.migration_state in (MigrationState.PREPARE,
                                         MigrationState.READY):
                self._migration_buffers.setdefault(actor.name, []).append(msg)
                continue
            if actor.location is Location.NIC:
                self.route_local(msg, origin=Location.HOST)
                continue
            if not actor.try_lock(1000 + worker_id):
                actor.mailbox.append(msg)
                continue
            tracer = self.sim.tracer
            span = None
            if tracer is not None:
                span = tracer.start_span(
                    f"host:{actor.name}", "host",
                    trace=msg.meta.get("trace"), node=self.node_name,
                    track=f"hostw{worker_id}", actor=actor.name,
                    worker=worker_id, loc="host")
                msg.meta["span"] = span
            try:
                start = self.sim.now
                tx_before = self._host_ring_writes
                ctx = ExecutionContext(self, actor, core_id=1000 + worker_id)
                yield from self._drive(actor, msg, ctx)
                while actor.mailbox:
                    queued = actor.mailbox.popleft()
                    yield from self._drive(actor, queued, ctx)
                # host→NIC sends made by the handler (replies, messages)
                # cost ring-descriptor writes on this worker
                tx_delta = self._host_ring_writes - tx_before
                if tx_delta:
                    yield Timeout(tx_delta * self.host_stack.tx_cost(msg.size))
                # §5.5 runtime tax: DMO translation + scheduler bookkeeping
                handler_busy = self.sim.now - start
                yield Timeout(self.BOOKKEEPING_FRACTION * handler_busy
                              + self.BOOKKEEPING_FLOOR_US)
                busy = self.sim.now - start
            finally:
                if span is not None:
                    tracer.end(span)
                    msg.meta.pop("span", None)
                actor.unlock(1000 + worker_id)
            self.host_util[worker_id].add_busy(busy)
            actor.record_execution(
                self.sim.now - msg.meta.get("nic_arrival", msg.created_at),
                msg.size, service_us=busy)
            self.host_ops += 1
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.histogram("host.service_us").record(self.sim.now, busy)
                metrics.counter("host.ops").inc(self.sim.now)

    # -- metrics -----------------------------------------------------------------------
    def host_cores_used(self, elapsed_us: float) -> float:
        return sum(u.utilization(elapsed_us) for u in self.host_util)

    def nic_cores_used(self, elapsed_us: float) -> float:
        return self.nic.cores_used(elapsed_us)
