"""DPDK host-only baseline runtime (§5.1's comparison systems).

The same application actors, but every handler runs on host cores behind
a DPDK poll-mode driver: the dumb NIC DMAs packets straight to host
descriptor rings, and the host core pays the stack's per-packet RX/TX
cost around each handler invocation.  No SmartNIC compute, no channels,
no migration.

The class intentionally mirrors :class:`repro.core.runtime.IPipeRuntime`'s
surface (``register_actor``, ``dispatch_table``, ``dmo``, ``storage``,
``transmit_from``, ``route_local``) so the identical app wiring classes
(RkvNode, DtCoordinatorNode, …) run unmodified on either runtime.
"""

from __future__ import annotations

import inspect
from types import SimpleNamespace
from typing import Dict, List, Optional

from ..core.actor import Actor, ActorTable, Location, Message
from ..core.dmo import DmoManager
from ..host.machine import HostMachine, StorageService
from ..host.stacks import StackCosts, dpdk_stack
from ..nic.calibration import dpdk_recv_us, dpdk_send_us
from ..net import Network, Packet
from ..nic.accelerators import AcceleratorBank
from ..nic.dma import DmaEngine
from ..core.runtime import HOST_POLL_US
from ..sim import Doorbell, Simulator, Store, Timeout, UtilizationTracker, spawn


class DpdkRuntime:
    """Host-only execution environment with DPDK stack costs."""

    def __init__(self, sim: Simulator, host: HostMachine, network: Network,
                 node_name: str, workers: int = 8,
                 stack: Optional[StackCosts] = None,
                 link_bandwidth_gbps: Optional[float] = None):
        self.sim = sim
        self.host = host
        self.network = network
        self.node_name = node_name
        self.stack = stack or dpdk_stack()
        self.actors = ActorTable()
        self.dmo = DmoManager()
        self.storage: StorageService = host.storage
        self.dispatch_table: Dict[str, str] = {}
        #: accelerator profiles for ctx.accelerator's host-software path
        self.nic = SimpleNamespace(
            accelerators=AcceleratorBank(sim),
            spec=SimpleNamespace(model="dumb NIC"),
        )
        #: the dumb NIC's DMA engine: every packet pays the PCIe crossing
        #: latency to/from host memory (descriptor + payload write)
        self._dma = DmaEngine(sim)
        self.rx_queue: Store = Store(sim)
        #: idle poll-mode workers park here until a packet is queued
        self._rx_bell = Doorbell(sim, HOST_POLL_US, self._rx_poll_at)
        self.host_util: List[UtilizationTracker] = [
            UtilizationTracker() for _ in range(workers)]
        self.host_ops = 0
        self._running = True
        self._tx_pending = 0
        self._uplink = network.attach(node_name, self.on_packet,
                                      bandwidth_gbps=link_bandwidth_gbps)
        self._workers = [
            spawn(sim, self._worker(w), name=f"{node_name}-dpdk{w}")
            for w in range(workers)]

    # -- iPipe-compatible surface ------------------------------------------------
    def register_actor(self, actor: Actor,
                       steering_keys: Optional[List[str]] = None,
                       region_bytes: Optional[int] = None) -> Actor:
        actor.location = Location.HOST     # everything runs on the host
        self.actors.register(actor)
        self.dmo.create_region(actor.name,
                               region_bytes or max(actor.state_bytes * 2, 1 << 20))
        for key in steering_keys or [actor.name]:
            self.dispatch_table[key] = actor.name
        if actor.init_handler is not None:
            from ..core.runtime import ExecutionContext
            actor.init_handler(actor, ExecutionContext(self, actor, core_id=-1))
        return actor

    def stop(self) -> None:
        self._running = False
        self._rx_bell.ring()

    def on_packet(self, packet: Packet) -> None:
        target = self.dispatch_table.get(packet.kind)
        if target is None:
            return
        payload, kind = packet.payload, packet.kind
        if isinstance(payload, dict) and "kind" in payload and "payload" in payload:
            kind, payload = payload["kind"], payload["payload"]
        msg = Message(target=target, kind=kind, payload=payload,
                      size=packet.size, source=packet.src,
                      created_at=packet.created_at, packet=packet)
        msg.meta["nic_arrival"] = self.sim.now
        # NIC→host delivery: DMA write + the descriptor-pipeline share of
        # the Figure-6 receive latency (its CPU share is charged in the
        # worker; batching discounts occupancy, not one-shot latency)
        pipeline = max(dpdk_recv_us(packet.size)
                       - self.stack.rx_cost(packet.size), 0.0)
        self.sim.post(self._dma.write_latency_us(packet.size) + pipeline,
                         self._rx_enqueue, msg)

    def route_local(self, msg: Message, origin: Location) -> None:
        msg.meta["nic_arrival"] = self.sim.now
        msg.meta["local"] = True           # no RX stack cost for local sends
        self._rx_enqueue(msg)

    def transmit_from(self, side: Location, packet: Packet) -> None:
        self._tx_pending += 1
        # host→NIC: descriptor fetch + payload DMA read + the pipeline
        # share of the Figure-6 send latency
        pipeline = max(dpdk_send_us(packet.size)
                       - self.stack.tx_cost(packet.size), 0.0)
        self.sim.post(self._dma.read_latency_us(packet.size) + pipeline,
                         self._uplink.transmit, packet)

    # -- worker loop ---------------------------------------------------------------
    def _rx_enqueue(self, msg: Message) -> None:
        self.rx_queue.put_nowait(msg)
        self._rx_bell.ring()

    def _rx_poll_at(self) -> Optional[float]:
        """Earliest time a worker's poll could succeed; None: never."""
        if self.rx_queue.items or not self._running:
            return self.sim.now
        return None

    def _worker(self, worker_id: int):
        """Poll-mode worker: polls the RX ring every HOST_POLL_US while
        idle (parked on the doorbell between successful polls)."""
        while self._running:
            msg = self.rx_queue.try_get_nowait()
            if msg is None:
                yield self._rx_bell
                continue
            actor = self.actors.lookup(msg.target)
            if actor is None or not actor.schedulable:
                continue
            if not actor.try_lock(2000 + worker_id):
                actor.mailbox.append(msg)
                continue
            start = self.sim.now
            try:
                yield from self._serve(actor, msg)
                while actor.mailbox:
                    yield from self._serve(actor, actor.mailbox.popleft())
            finally:
                actor.unlock(2000 + worker_id)
            self.host_util[worker_id].add_busy(self.sim.now - start)

    def _serve(self, actor: Actor, msg: Message):
        from ..core.runtime import ExecutionContext

        if not msg.meta.get("local"):
            yield Timeout(self.stack.rx_cost(msg.size))
        tx_before = self._tx_pending
        start = self.sim.now
        ctx = ExecutionContext(self, actor, core_id=2000)
        result = actor.exec_handler(actor, msg, ctx)
        if inspect.isgenerator(result):
            yield from result
        elif actor.profile is not None:
            yield ctx.compute(profile=actor.profile)
        tx_count = self._tx_pending - tx_before
        if tx_count:
            yield Timeout(tx_count * self.stack.tx_cost(msg.size))
        self.host_ops += 1
        actor.record_execution(
            self.sim.now - msg.meta.get("nic_arrival", msg.created_at),
            msg.size, service_us=self.sim.now - start)

    # -- metrics --------------------------------------------------------------------
    def host_cores_used(self, elapsed_us: float) -> float:
        return sum(u.utilization(elapsed_us) for u in self.host_util)

    def nic_cores_used(self, elapsed_us: float) -> float:
        return 0.0
