"""The iPipe hybrid FCFS/DRR actor scheduler (§3.2, ALG 1 & ALG 2).

Scheduling cores all start in FCFS mode, pulling work items from the
shared queue the (hardware) traffic manager exposes and running actor
handlers to completion.  The scheduler then adapts:

* **Downgrade** — when the FCFS group's tail latency (µ+3σ estimate)
  exceeds ``tail_thresh``, the actor with the *highest dispersion* moves to
  the DRR runnable queue; a DRR core is spawned if none exists.
* **Upgrade** — when the FCFS tail falls below ``(1−α)·tail_thresh``, the
  DRR actor with the *lowest dispersion* returns to the FCFS group.
* **Push migration** — when the FCFS mean exceeds ``mean_thresh`` (queue
  build-up on the NIC), the actor contributing the most load migrates to
  the host.  A DRR actor whose mailbox exceeds ``q_thresh`` is also pushed.
* **Pull migration** — when the FCFS mean drops below
  ``(1−α)·mean_thresh`` and the FCFS group has CPU headroom, the
  lightest host actor is pulled back to the NIC.
* **Core auto-scaling** (§3.2.4) — cores move between the FCFS and DRR
  groups based on group utilization.

DRR cores scan the runnable queue round-robin; an actor executes a request
when its deficit counter covers the actor's estimated latency.  The
quantum added per round is the maximum tolerated forwarding latency for
the actor's average request size (the Figure-4 computing headroom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional
from collections import deque

from ..nic.cores import CoreHealth
from ..sim import LatencyTracker, Simulator, Timeout, spawn
from .actor import Actor, ActorTable, Location, Message
from .isolation import IsolationPolicy, Watchdog


@dataclass
class SchedulerConfig:
    """Thresholds and knobs of the hybrid scheduler.

    Defaults follow §3.2.3 / §5.4: the tail threshold is the P99 latency of
    line-rate MTU forwarding (measured 52.8µs on the LiquidIOII, 44.6µs on
    the Stingray), the hysteresis factor α avoids oscillation.
    """

    tail_thresh_us: float = 52.8
    mean_thresh_us: float = 15.0
    alpha: float = 0.25
    q_thresh: int = 128
    stats_alpha: float = 0.1
    #: Fallback DRR quantum when no per-size headroom model is supplied.
    default_quantum_us: float = 10.0
    migration_enabled: bool = True
    downgrade_enabled: bool = True
    autoscale: bool = True
    min_fcfs_cores: int = 1
    #: Utilization window for auto-scaling decisions.
    util_window_us: float = 500.0
    #: Idle poll interval for DRR cores with nothing runnable.
    idle_poll_us: float = 0.5
    #: Minimum spacing between downgrade (resp. upgrade) decisions — keeps
    #: the adaptation from dumping every actor into DRR in one burst.
    adapt_cooldown_us: float = 200.0
    #: Minimum spacing between migrations: a push/pull pair costs two
    #: object moves plus request buffering, so rapid oscillation throttles
    #: the very traffic the migration is meant to protect.
    migration_cooldown_us: float = 2_000.0
    isolation: IsolationPolicy = field(default_factory=IsolationPolicy)


class WorkItem:
    """What the traffic manager queue carries: a message bound for an
    actor, or a raw forwarding task (transit traffic / host TX)."""

    __slots__ = ("message", "forward_cost_us", "forward_action", "arrived_at",
                 "trace")

    def __init__(self, message: Optional[Message] = None,
                 forward_cost_us: float = 0.0,
                 forward_action: Optional[Callable[[], None]] = None,
                 arrived_at: float = 0.0,
                 trace=None):
        self.message = message
        self.forward_cost_us = forward_cost_us
        self.forward_action = forward_action
        self.arrived_at = arrived_at
        #: trace context of the request this raw item forwards, if any
        self.trace = trace


#: executor(core_id, actor, message) -> generator charging virtual time
Executor = Callable[[int, Actor, Message], object]
#: dispatch(message) -> actor or None
Dispatcher = Callable[[Message], Optional[Actor]]


class NicScheduler:
    """Runs the hybrid discipline over a SmartNIC's cores."""

    def __init__(self, sim: Simulator, *,
                 num_cores: int,
                 work_queue,                      # TrafficManager-like
                 actor_table: ActorTable,
                 executor: Executor,
                 config: Optional[SchedulerConfig] = None,
                 quantum_fn: Optional[Callable[[Actor], float]] = None,
                 on_push_migration: Optional[Callable[[Actor], object]] = None,
                 on_pull_migration: Optional[Callable[[], Optional[object]]] = None,
                 redeliver: Optional[Callable[[Message], None]] = None,
                 core_util=None,
                 on_actor_killed: Optional[Callable[[Actor], None]] = None,
                 node_name: str = "nic"):
        self.sim = sim
        #: owning server's name, stamped onto spans and metrics
        self.node_name = node_name
        self.num_cores = num_cores
        self.queue = work_queue
        self.actors = actor_table
        self.executor = executor
        self.config = config or SchedulerConfig()
        self.quantum_fn = quantum_fn or (
            lambda actor: self.config.default_quantum_us)
        self.on_push_migration = on_push_migration
        self.on_pull_migration = on_pull_migration
        self.redeliver = redeliver
        self.core_util = core_util or [None] * num_cores
        #: notified after the watchdog kills an actor (recovery hook)
        self.on_actor_killed = on_actor_killed

        #: "fcfs" / "drr" / "failed" mode per core.
        self.core_mode: List[str] = ["fcfs"] * num_cores
        #: the dedicated management core (§3.2.2); promoted on core failure
        self.mgmt_core = 0
        self.core_health = CoreHealth(num_cores)
        self.core_failures = 0
        self.core_stalls = 0
        self.drr_runnable: Deque[Actor] = deque()
        #: DRR quantum-conservation ledger (checked by
        #: repro.check.monitors.SchedulerMonitor): every µs of deficit an
        #: actor is granted is either spent on execution, forfeited when
        #: the actor leaves the DRR group (upgrade, kill, crash, empty
        #: mailbox reset), or still outstanding on a runnable actor.
        self.quantum_granted_us = 0.0
        self.deficit_spent_us = 0.0
        self.deficit_forfeited_us = 0.0
        #: Hierarchical DRR (docs/TENANCY.md): tenant -> NIC-core share.
        #: Empty means the implicit single tenant — every quantum path
        #: multiplies by exactly 1.0 and the event schedule is identical
        #: to the untenanted scheduler.
        self.tenant_shares: Dict[str, float] = {}
        #: Per-tenant split of the conservation ledger (keyed by
        #: ``actor.tenant``; the implicit tenant books under "").  The
        #: TenantMonitor proves granted == spent + forfeited +
        #: outstanding per tenant, and that the per-tenant dicts sum to
        #: the global ledger.
        self.tenant_granted_us: Dict[str, float] = {}
        self.tenant_spent_us: Dict[str, float] = {}
        self.tenant_forfeited_us: Dict[str, float] = {}
        #: Per-tenant handler busy time (feeds per-tenant utilization
        #: pulse series and the per-tenant QuotaEnforcer budgets).
        self.tenant_busy_us: Dict[str, float] = {}
        #: Queueing-delay tracker of operations handled by the FCFS group.
        #: The thresholds are forwarding-latency budgets (§3.2.3 derives
        #: them from line-rate MTU forwarding), so the compared statistic
        #: is the delay an operation waited before service — the latency
        #: that would equally be inflicted on forwarded traffic.
        self.fcfs_tracker = LatencyTracker(alpha=self.config.stats_alpha)
        self.drr_tracker = LatencyTracker(alpha=self.config.stats_alpha)
        self._group_busy: Dict[str, float] = {"fcfs": 0.0, "drr": 0.0}
        self._window_start = 0.0
        self.ops_completed = 0
        self.forwards_completed = 0
        self.downgrades = 0
        self.upgrades = 0
        self.pushes = 0
        self.pulls = 0
        self.core_moves = 0
        self._migration_inflight = False
        self._last_migration = -1e18
        self._last_downgrade = -1e18
        self._last_upgrade = -1e18
        self._running = True
        self._watchdogs = [Watchdog(self.config.isolation)
                           for _ in range(num_cores)]
        self._procs = [spawn(sim, self._core_loop(core), name=f"nic-core{core}")
                       for core in range(num_cores)]

    # -- lifecycle -------------------------------------------------------------
    def stop(self) -> None:
        self._running = False

    def forfeit_deficit(self, actor: Actor) -> None:
        """Zero an actor's deficit, accounting it as forfeited.

        Called wherever an actor leaves the DRR group with credit still
        on the books — upgrade back to FCFS, watchdog kill, crash,
        deletion, or the empty-mailbox reset of ALG 2 — so the quantum
        conservation invariant stays balanced.
        """
        if actor.deficit:
            self.deficit_forfeited_us += actor.deficit
            tenant = getattr(actor, "tenant", "")
            self.tenant_forfeited_us[tenant] = \
                self.tenant_forfeited_us.get(tenant, 0.0) + actor.deficit
            actor.deficit = 0.0

    def set_tenant_shares(self, shares: Dict[str, float]) -> None:
        """Turn on hierarchical DRR: tenant -> NIC-core share.

        A tenant's runnable actors collectively receive a
        share-proportional fraction of each DRR scan's quantum pool
        (the pool is split evenly across the tenant's runnable actors),
        so one tenant flooding the NIC with actors cannot starve
        another's quantum stream.  Tenants absent from ``shares`` (and
        the implicit "" tenant) keep the flat per-actor quantum.
        """
        self.tenant_shares = dict(shares)

    def _tenant_quantum_scale(self, actor: Actor) -> float:
        """Share-scaled pool factor for one actor's quantum grant.

        ``share * total_runnable / tenant_runnable``: the tenant's
        aggregate grant per scan is ``share`` of the flat pool however
        many actors it runs.  Exactly 1.0 when no shares are configured.
        """
        if not self.tenant_shares:
            return 1.0
        share = self.tenant_shares.get(getattr(actor, "tenant", ""))
        if share is None or share <= 0.0:
            return 1.0
        tenant = actor.tenant
        members = 0
        total = 0
        for a in self.drr_runnable:
            if not a.schedulable:
                continue
            total += 1
            if getattr(a, "tenant", "") == tenant:
                members += 1
        if members == 0 or total == 0:
            return 1.0
        return share * total / members

    def fcfs_cores(self) -> int:
        return sum(1 for m in self.core_mode if m == "fcfs")

    def drr_cores(self) -> int:
        return sum(1 for m in self.core_mode if m == "drr")

    # -- core faults (FaultPlane hooks) --------------------------------------
    def stall_core(self, core_id: int, duration_us: float) -> bool:
        """Freeze one core for ``duration_us``; survivors keep scheduling."""
        if not 0 <= core_id < self.num_cores:
            return False
        if not self.core_health.alive(core_id):
            return False
        self.core_health.stall(core_id, self.sim.now, duration_us)
        self.core_stalls += 1
        return True

    def fail_core(self, core_id: int) -> bool:
        """Permanently fail one core and rebalance the survivors.

        Takes effect at the core's next scheduling boundary (cooperative,
        the same granularity as the DoS watchdog).  If the management
        core dies, management duty is promoted to the next live FCFS
        core; the FCFS floor and a live DRR core (when DRR work exists)
        are then restored by converting survivors.
        """
        if not 0 <= core_id < self.num_cores:
            return False
        if not self.core_health.alive(core_id):
            return False
        self.core_health.fail(core_id)
        prev_mode = self.core_mode[core_id]
        self.core_mode[core_id] = "failed"
        self.core_failures += 1
        alive = [c for c in range(self.num_cores)
                 if self.core_health.alive(c)]
        if not alive:
            return True            # whole NIC down: nothing to rebalance
        if core_id == self.mgmt_core:
            fcfs_alive = [c for c in alive if self.core_mode[c] == "fcfs"]
            self.mgmt_core = fcfs_alive[0] if fcfs_alive else alive[0]
            self.core_mode[self.mgmt_core] = "fcfs"  # mgmt is always FCFS
        if self.fcfs_cores() < self.config.min_fcfs_cores:
            for core in alive:
                if self.core_mode[core] == "drr":
                    self.core_mode[core] = "fcfs"
                    self.core_moves += 1
                    break
        if prev_mode == "drr" and self.drr_cores() == 0 and self.drr_runnable:
            for core in alive:
                if (self.core_mode[core] == "fcfs"
                        and core != self.mgmt_core
                        and self.fcfs_cores() > self.config.min_fcfs_cores):
                    self.core_mode[core] = "drr"
                    self.core_moves += 1
                    break
        return True

    # -- core main loops ----------------------------------------------------------
    def _core_loop(self, core_id: int):
        while self._running:
            if not self.core_health.alive(core_id):
                return             # failed core: its loop ends for good
            stall = self.core_health.stall_remaining(core_id, self.sim.now)
            if stall > 0.0:
                yield Timeout(stall)
                continue
            mode = self.core_mode[core_id]
            if mode == "fcfs":
                yield from self._fcfs_iteration(core_id)
            elif mode == "drr":
                yield from self._drr_iteration(core_id)
            else:
                # core reassigned outside the scheduler (e.g. to an
                # off-path IOKernel dispatcher): parked here
                yield Timeout(50.0)

    # ALG 1 ---------------------------------------------------------------------
    def _fcfs_iteration(self, core_id: int):
        item: Optional[WorkItem] = None
        if hasattr(self.queue, "try_pop"):
            item = self.queue.try_pop()
        if item is None and self.drr_runnable:
            # Work conservation: an idle FCFS core steals backlogged DRR
            # work rather than blocking while DRR cores drown (§3.2.6's
            # stealing, mirrored from the FCFS side).
            stole = yield from self._steal_drr_work(core_id)
            if not stole:
                yield Timeout(self.config.idle_poll_us)
        elif item is None:
            item = yield self.queue.pop()
        if item is not None:
            yield from self._handle_item(core_id, item)

        # -- adaptation checks (lines 13-24 of ALG 1) -------------------------
        now = self.sim.now
        if (self.config.downgrade_enabled
                and self.fcfs_tracker.tail > self.config.tail_thresh_us
                and now - self._last_downgrade >= self.config.adapt_cooldown_us):
            if self._downgrade_highest_dispersion():
                self._last_downgrade = now
        if core_id == self.mgmt_core:
            yield from self._management_checks()
        if self.config.autoscale:
            self._autoscale(core_id)

    def _handle_item(self, core_id: int, item: WorkItem):
        """Dispatch + run one shared-queue work item (ALG 1 lines 5-12)."""
        start = self.sim.now
        sync = getattr(self.queue, "dequeue_sync_us", 0.0)
        if sync:
            yield Timeout(sync)

        if item.message is None:
            # raw forwarding work (transit traffic, host-originated TX)
            if item.forward_cost_us > 0:
                yield Timeout(item.forward_cost_us)
            if item.forward_action is not None:
                item.forward_action()
            self._account(core_id, "fcfs", self.sim.now - start)
            self.fcfs_tracker.record(self.sim.now - item.arrived_at)
            self.forwards_completed += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.record_span(
                    "forward", "forward", item.arrived_at, self.sim.now,
                    trace=item.trace, node=self.node_name,
                    track=f"core{core_id}", wait_us=start - item.arrived_at)
            return

        actor = self.actors.lookup(item.message.target)
        if actor is None:
            # hand it back to the router: a crashed-but-restartable actor
            # buffers the message; anything else stays a drop
            if self.redeliver is not None:
                self.redeliver(item.message)
            self._account(core_id, "fcfs", self.sim.now - start)
            return
        if not actor.schedulable or actor.location is not Location.NIC:
            # The actor migrated (or is mid-migration) after this item was
            # queued — hand the message back to the runtime's router, which
            # buffers it or crosses the channel, instead of dropping it.
            if self.redeliver is not None and not actor.deregistered:
                self.redeliver(item.message)
            self._account(core_id, "fcfs", self.sim.now - start)
            return
        if actor.is_drr:
            actor.mailbox.append(item.message)
            self._account(core_id, "fcfs", self.sim.now - start)
            self._maybe_drr_mailbox_migration(actor)
            return
        yield from self._run_actor(core_id, actor, item.message,
                                   item.arrived_at, group="fcfs")

    def _steal_drr_work(self, core_id: int):
        """Run one request from the most backlogged DRR actor (or False)."""
        backlogged = [a for a in self.drr_runnable
                      if a.mailbox and a.schedulable]
        if not backlogged:
            return False
        actor = max(backlogged, key=lambda a: len(a.mailbox))
        if not actor.try_lock(core_id):
            return False
        try:
            msg = actor.mailbox.popleft()
            yield from self._run_actor(
                core_id, actor, msg,
                msg.meta.get("nic_arrival", msg.created_at), group="drr")
        finally:
            actor.unlock(core_id)
        return True

    # ALG 2 --------------------------------------------------------------------
    def _drr_iteration(self, core_id: int):
        did_work = False
        for actor in list(self.drr_runnable):
            if not actor.is_drr or not actor.schedulable:
                continue
            if not actor.mailbox:
                self.forfeit_deficit(actor)
                continue
            quantum = self.quantum_fn(actor)
            if self.tenant_shares:
                quantum *= self._tenant_quantum_scale(actor)
            actor.deficit += quantum
            self.quantum_granted_us += quantum
            tenant = getattr(actor, "tenant", "")
            self.tenant_granted_us[tenant] = \
                self.tenant_granted_us.get(tenant, 0.0) + quantum
            # ALG 2 compares the deficit against the actor's *execution*
            # latency estimate (pure service time — using the response time
            # here would let backlog inflate the bar and starve the actor).
            est = max(actor.mean_service_us, 0.1)
            while (actor.mailbox and actor.deficit >= est
                   and self.core_mode[core_id] == "drr"):
                if not actor.try_lock(core_id):
                    break
                try:
                    msg = actor.mailbox.popleft()
                    exec_start = self.sim.now
                    yield from self._run_actor(
                        core_id, actor, msg,
                        msg.meta.get("nic_arrival", msg.created_at),
                        group="drr")
                    charge = max(self.sim.now - exec_start, est)
                    actor.deficit -= charge
                    self.deficit_spent_us += charge
                    self.tenant_spent_us[tenant] = \
                        self.tenant_spent_us.get(tenant, 0.0) + charge
                finally:
                    actor.unlock(core_id)
                did_work = True
                est = max(actor.mean_service_us, 0.1)
            if not actor.mailbox:
                self.forfeit_deficit(actor)
            self._maybe_drr_mailbox_migration(actor)
            # upgrade check (lines 10-12 of ALG 2)
            threshold = (1 - self.config.alpha) * self.config.tail_thresh_us
            if (self.fcfs_tracker.tail < threshold
                    and self.sim.now - self._last_upgrade
                    >= self.config.adapt_cooldown_us):
                if self._upgrade_lowest_dispersion():
                    self._last_upgrade = self.sim.now
        if self.config.autoscale:
            self._autoscale(core_id)
        if not did_work:
            # Work conservation: an idle DRR core pulls from the shared
            # queue itself — dispatching to mailboxes, or running FCFS
            # actors' requests to completion (akin to ZygOS stealing).
            item = None
            if hasattr(self.queue, "try_pop"):
                item = self.queue.try_pop()
            if item is not None:
                yield from self._handle_item(core_id, item)
            else:
                yield Timeout(self.config.idle_poll_us)

    # -- handler execution -------------------------------------------------------
    def _run_actor(self, core_id: int, actor: Actor, msg: Message,
                   arrived_at: float, group: str):
        if group == "fcfs" and not actor.try_lock(core_id):
            # exec_lock held elsewhere: requeue behind current work
            actor.mailbox.append(msg)
            return
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            tctx = msg.meta.get("trace")
            if arrived_at and self.sim.now > arrived_at:
                tracer.record_span(
                    "queue-wait", "sched.wait", arrived_at, self.sim.now,
                    trace=tctx, node=self.node_name, track=f"core{core_id}",
                    actor=actor.name, group=group)
            span = tracer.start_span(
                f"exec:{actor.name}", "service", trace=tctx,
                node=self.node_name, track=f"core{core_id}",
                actor=actor.name, core=core_id, group=group, loc="nic")
            msg.meta["span"] = span
        watchdog = self._watchdogs[core_id]
        watchdog.arm(self.sim.now, actor)
        start = self.sim.now
        try:
            gen = self.executor(core_id, actor, msg)
            if gen is not None:
                yield from self._bounded(gen, watchdog)
        finally:
            watchdog.disarm()
            if span is not None:
                tracer.end(span)
                msg.meta.pop("span", None)
            if group == "fcfs":
                actor.unlock(core_id)
                # Requests that arrived while we held the exec_lock were
                # parked in the mailbox; put them back on the shared queue
                # so any FCFS core can pick them up.
                while actor.mailbox and not actor.is_drr:
                    parked = actor.mailbox.popleft()
                    self.queue.push(WorkItem(
                        message=parked,
                        arrived_at=parked.meta.get("nic_arrival", self.sim.now)))
        busy = self.sim.now - start
        response = self.sim.now - (arrived_at or start)
        wait = max(start - (arrived_at or start), 0.0)
        self._account(core_id, group, busy)
        tenant = getattr(actor, "tenant", "")
        self.tenant_busy_us[tenant] = \
            self.tenant_busy_us.get(tenant, 0.0) + busy
        actor.record_execution(response, msg.size, service_us=busy)
        # The group trackers feed the adaptation logic, so they must stay
        # fresh even when every actor lives in DRR: attribute the sample by
        # the *core's* mode (an FCFS core stealing DRR work still informs
        # the FCFS-side view of system latency).
        core_mode = (self.core_mode[core_id]
                     if 0 <= core_id < self.num_cores else group)
        tracker = self.fcfs_tracker if core_mode == "fcfs" else self.drr_tracker
        tracker.record(wait)
        self.ops_completed += 1
        metrics = self.sim.metrics
        if metrics is not None:
            now = self.sim.now
            metrics.histogram("sched.wait_us").record(now, wait)
            metrics.histogram("sched.service_us").record(now, busy)
            metrics.histogram("sched.response_us").record(now, response)
            metrics.counter("sched.ops").inc(now)

    def _bounded(self, gen, watchdog: Watchdog):
        """Drive a handler generator under the DoS watchdog."""
        try:
            command = next(gen)
        except StopIteration:
            return
        while True:
            if watchdog.expired(self.sim.now):
                victim = watchdog.kill(self.actors)
                if victim is not None:
                    if victim in self.drr_runnable:
                        self.drr_runnable.remove(victim)
                    self.forfeit_deficit(victim)
                    if self.on_actor_killed is not None:
                        self.on_actor_killed(victim)
                gen.close()
                return
            result = yield command
            try:
                command = gen.send(result)
            except StopIteration:
                return

    # -- adaptation mechanics ---------------------------------------------------
    def _downgrade_highest_dispersion(self) -> bool:
        candidates = [a for a in self.actors
                      if a.schedulable and not a.is_drr
                      and a.location is Location.NIC and a.requests_seen >= 3]
        if not candidates:
            return False
        victim = max(candidates, key=lambda a: a.dispersion)
        victim.is_drr = True
        self.forfeit_deficit(victim)
        self.drr_runnable.append(victim)
        self.downgrades += 1
        if self.drr_cores() == 0:
            self._convert_core("fcfs", "drr")
        return True

    def _upgrade_lowest_dispersion(self) -> bool:
        candidates = [a for a in self.drr_runnable if a.schedulable]
        if not candidates:
            return False
        chosen = min(candidates, key=lambda a: a.dispersion)
        chosen.is_drr = False
        self.drr_runnable.remove(chosen)
        self.forfeit_deficit(chosen)
        self.upgrades += 1
        # drain its backlog back through the shared queue
        while chosen.mailbox:
            msg = chosen.mailbox.popleft()
            self.queue.push(WorkItem(
                message=msg,
                arrived_at=msg.meta.get("nic_arrival", self.sim.now)))
        if not self.drr_runnable:
            for core, mode in enumerate(self.core_mode):
                if mode == "drr":
                    self.core_mode[core] = "fcfs"
                    self.core_moves += 1
        return True

    def _management_checks(self):
        """Push/pull migration, run on the dedicated management core."""
        if not self.config.migration_enabled or self._migration_inflight:
            return
        if self.sim.now - self._last_migration < self.config.migration_cooldown_us:
            return
        mean = self.fcfs_tracker.mu
        if mean > self.config.mean_thresh_us and self.on_push_migration:
            victim = self._heaviest_nic_actor()
            if victim is not None:
                self._migration_inflight = True
                self._last_migration = self.sim.now
                self.pushes += 1
                try:
                    yield from self.on_push_migration(victim)
                finally:
                    self._migration_inflight = False
        elif (mean < (1 - self.config.alpha) * self.config.mean_thresh_us
              and self.on_pull_migration and self._fcfs_has_headroom()):
            gen = self.on_pull_migration()
            if gen is not None:
                self._migration_inflight = True
                self._last_migration = self.sim.now
                self.pulls += 1
                try:
                    yield from gen
                finally:
                    self._migration_inflight = False

    def _heaviest_nic_actor(self) -> Optional[Actor]:
        elapsed = max(self.sim.now, 1.0)
        candidates = [a for a in self.actors
                      if a.schedulable and a.location is Location.NIC
                      and not a.pinned and a.requests_seen > 10]
        if not candidates:
            return None
        return max(candidates, key=lambda a: a.load(elapsed))

    def _maybe_drr_mailbox_migration(self, actor: Actor) -> None:
        if (self.config.migration_enabled and actor.is_drr
                and len(actor.mailbox) > self.config.q_thresh
                and not actor.pinned and not self._migration_inflight
                and self.on_push_migration is not None):
            self.queue.push(WorkItem(
                forward_action=self._spawn_migration(actor),
                arrived_at=self.sim.now))

    def _spawn_migration(self, actor: Actor):
        def action():
            if not self._migration_inflight and actor.schedulable:
                self._migration_inflight = True
                self._last_migration = self.sim.now
                self.pushes += 1

                def run():
                    try:
                        yield from self.on_push_migration(actor)
                    finally:
                        self._migration_inflight = False

                spawn(self.sim, run(), name=f"migrate-{actor.name}")
        return action

    def _fcfs_has_headroom(self) -> bool:
        util = self._group_utilization("fcfs")
        return util < 0.7

    # -- core auto-scaling (§3.2.4) ----------------------------------------------
    def _account(self, core_id: int, group: str, busy_us: float) -> None:
        self._group_busy[group] += busy_us
        tracker = self.core_util[core_id]
        if tracker is not None:
            tracker.add_busy(busy_us)

    def _group_utilization(self, group: str) -> float:
        elapsed = max(self.sim.now - self._window_start, 1.0)
        cores = sum(1 for m in self.core_mode if m == group)
        if cores == 0:
            return 1.0
        return min(self._group_busy[group] / (elapsed * cores), 1.0)

    def _autoscale(self, core_id: int) -> None:
        elapsed = self.sim.now - self._window_start
        if elapsed < self.config.util_window_us:
            return
        fcfs_n = self.fcfs_cores()
        drr_n = self.drr_cores()
        fcfs_util = self._group_utilization("fcfs")
        drr_util = self._group_utilization("drr")
        if (drr_n > 0 and drr_util >= 0.95 and fcfs_n > self.config.min_fcfs_cores
                and fcfs_util < (fcfs_n - 1) / fcfs_n):
            self._convert_core("fcfs", "drr")
        elif (drr_n > 1 and fcfs_util >= 0.95
              and drr_util < (drr_n - 1) / drr_n):
            self._convert_core("drr", "fcfs")
        self._group_busy = {"fcfs": 0.0, "drr": 0.0}
        self._window_start = self.sim.now

    def _convert_core(self, src: str, dst: str) -> None:
        for core, mode in enumerate(self.core_mode):
            if mode == src:
                if src == "fcfs":
                    if self.fcfs_cores() <= self.config.min_fcfs_cores:
                        return
                    if core == self.mgmt_core:
                        # The dedicated management core (§3.2.2: migration
                        # runs on a dedicated FCFS core) — never hand it
                        # to the DRR group.
                        continue
                self.core_mode[core] = dst
                self.core_moves += 1
                return
