"""Scenario assembly: one ``build(spec)`` turning data into a simulation.

The builder owns every construction step the experiment modules used to
hand-roll: fabric wiring, server bring-up (iPipe, host-only iPipe, DPDK
and Floem baselines), application placement (including sharded RKV with
cross-rack Paxos replica groups), client fleets, fault-plane wiring and
observability riders.  Construction order is fixed — simulator, fabric,
trace plane, fault plane, servers (rack by rack), apps, client ports,
fleets, fault wiring — so a spec-built deployment schedules the exact
same event sequence as the seed's hand-wired testbeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..baselines import DpdkRuntime, FloemRuntime
from ..core import IPipeRuntime, Location, SchedulerConfig
from ..host import HostMachine
from ..net import (
    ClosedLoopGenerator,
    Fabric,
    Network,
    OpenLoopGenerator,
    Packet,
)
from ..nic import NicSpec, SmartNic, host_for
from ..sim import FaultPlane, FaultSpec, RecoveryPolicy, Rng, Simulator
from .spec import (
    AppSpec,
    FabricSpec,
    FleetSpec,
    ScenarioError,
    ScenarioSpec,
    SLOSpec,
    resolve_nic,
)


@dataclass
class Server:
    """One server box: host machine + (Smart)NIC + runtime."""

    name: str
    nic: Optional[SmartNic]
    machine: HostMachine
    runtime: object


class ClientPort:
    """Receive demux for a client node: routes replies to generators.

    Replies are demultiplexed to the *owning* generator by the request's
    ``client`` meta tag (O(1) per reply); packets carrying no tag — or a
    tag from no local generator — fall through to the registered sinks.
    """

    def __init__(self, sim: Simulator, network: Fabric, name: str):
        self.sim = sim
        self.network = network
        self.name = name
        self._generators: List[ClosedLoopGenerator] = []
        self._demux: Dict[str, ClosedLoopGenerator] = {}
        self._sinks: List[Callable[[Packet], None]] = []
        self.received: int = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1
        key = packet.meta.get("client")
        if isinstance(key, tuple) and key:
            gen = self._demux.get(key[0])
            if gen is not None:
                gen.on_reply(packet)
                return
        for sink in self._sinks:
            sink(packet)

    def add_sink(self, fn: Callable[[Packet], None]) -> None:
        """A tap for replies owned by no closed-loop generator (e.g.
        open-loop response accounting)."""
        self._sinks.append(fn)

    def closed_loop(self, dst: str, clients: int, size: int,
                    payload_factory=None, rng: Optional[Rng] = None,
                    think_time_us: float = 0.0) -> ClosedLoopGenerator:
        # first generator keeps the node name as its tag (the seed's
        # meta layout); later ones get a unique suffix for the demux
        tag = (self.name if not self._generators
               else f"{self.name}#{len(self._generators)}")
        gen = ClosedLoopGenerator(
            self.sim, send=self.network.send,
            src=self.name, dst=dst, clients=clients, size=size,
            payload_factory=payload_factory, rng=rng,
            think_time_us=think_time_us, tag=tag)
        self._generators.append(gen)
        self._demux[tag] = gen
        return gen

    def open_loop(self, dst: str, rate_mpps: float, size: int,
                  payload_factory=None, rng: Optional[Rng] = None,
                  poisson: bool = True) -> OpenLoopGenerator:
        return OpenLoopGenerator(
            self.sim, send=self.network.send,
            src=self.name, dst=dst, rate_mpps=rate_mpps, size=size,
            payload_factory=payload_factory, rng=rng, poisson=poisson)


class BuiltApp:
    """One placed application: its replica groups and wired node objects."""

    def __init__(self, spec: AppSpec, groups: List[List[str]]):
        self.spec = spec
        self.kind = spec.kind
        self.groups = groups
        self.leaders: List[str] = []
        self.nodes: Dict[str, object] = {}   # server name -> app node

    def shard_for_key(self, key: str) -> int:
        return zlib.crc32(str(key).encode()) % max(len(self.groups), 1)


@dataclass
class Scenario:
    """A built simulation: everything ``build(spec)`` assembled."""

    spec: ScenarioSpec
    sim: Simulator
    network: Fabric
    servers: Dict[str, Server] = field(default_factory=dict)
    clients: Dict[str, ClientPort] = field(default_factory=dict)
    apps: List[BuiltApp] = field(default_factory=list)
    generators: List[object] = field(default_factory=list)
    fault_plane: Optional[FaultPlane] = None
    trace_plane: Optional[object] = None
    recovery: Optional[RecoveryPolicy] = None
    #: SteeringController when the spec declares steered services
    steering: Optional[object] = None
    #: Rebalancer driving cross-rack migration on rack outages
    rebalancer: Optional[object] = None
    #: PulsePlane when the spec declares continuous telemetry
    pulse_plane: Optional[object] = None

    def server(self, name: str) -> Server:
        return self.servers[name]

    def client(self, name: str) -> ClientPort:
        return self.clients[name]

    def app(self, kind: str) -> BuiltApp:
        for app in self.apps:
            if app.kind == kind:
                return app
        raise KeyError(f"no {kind!r} app in scenario {self.spec.name!r}")

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until if until is not None
                     else self.spec.duration_us)

    def stop(self) -> None:
        for gen in self.generators:
            stop = getattr(gen, "stop", None)
            if stop is not None:
                stop()
        for server in self.servers.values():
            server.runtime.stop()


# -- server bring-up ----------------------------------------------------------

def make_server(sim: Simulator, network: Fabric, name: str,
                nic_spec: NicSpec, system: str = "ipipe",
                config: Optional[SchedulerConfig] = None,
                host_workers: Optional[int] = None,
                host_cores: Optional[int] = None,
                reliable: bool = False,
                fault_plane=None,
                recovery=None) -> Server:
    """Assemble one server of any supported runtime system."""
    if host_workers is None:
        host_workers = host_for(nic_spec).cores
    machine = HostMachine(sim, host_for(nic_spec), name=name,
                          cores=host_cores or host_for(nic_spec).cores)
    if system == "ipipe":
        nic = SmartNic(sim, nic_spec, name=f"{name}.nic")
        runtime = IPipeRuntime(sim, nic, machine, network, name,
                               config=config, host_workers=host_workers,
                               reliable=reliable, fault_plane=fault_plane,
                               recovery=recovery)
    elif system == "ipipe-hostonly":
        nic = SmartNic(sim, nic_spec, name=f"{name}.nic")
        runtime = IPipeRuntime(
            sim, nic, machine, network, name,
            config=config or SchedulerConfig(migration_enabled=False),
            host_workers=host_workers, host_only=True,
            reliable=reliable, fault_plane=fault_plane, recovery=recovery)
    elif system == "floem":
        nic = SmartNic(sim, nic_spec, name=f"{name}.nic")
        runtime = FloemRuntime(sim, nic, machine, network, name,
                               host_workers=host_workers)
    elif system == "dpdk":
        nic = None
        runtime = DpdkRuntime(sim, machine, network, name,
                              workers=host_workers,
                              link_bandwidth_gbps=nic_spec.bandwidth_gbps)
    else:
        raise ValueError(f"unknown system {system!r}")
    return Server(name=name, nic=nic, machine=machine, runtime=runtime)


def make_fabric(sim: Simulator, fabric: FabricSpec, racks=()) -> Fabric:
    """A fabric from its spec, with rack placements pre-registered."""
    if len(racks) <= 1:
        # the seed's star network: identical wiring and link names
        network = Network(sim, bandwidth_gbps=fabric.bandwidth_gbps,
                          propagation_us=fabric.propagation_us)
        network.switch.forwarding_latency_us = fabric.tor_latency_us
    else:
        network = Fabric(
            sim, bandwidth_gbps=fabric.bandwidth_gbps,
            propagation_us=fabric.propagation_us,
            racks=[r.name for r in racks],
            tor_latency_us=fabric.tor_latency_us,
            spine_latency_us=fabric.spine_latency_us,
            uplink_gbps=fabric.uplink_gbps,
            inter_rack_propagation_us=fabric.inter_rack_propagation_us)
    for rack in racks:
        for server in rack.servers:
            network.place(server.name, rack.name)
        for client in rack.clients:
            network.place(client.name, rack.name)
    return network


# -- application placement ----------------------------------------------------

def _install_payload_router(scenario: Scenario, name: str) -> None:
    """Route requests by the ``kind`` their payload carries (the wire
    format the paper's workload generators speak)."""
    runtime = scenario.servers[name].runtime
    original = runtime.on_packet

    def routed(packet, original=original):
        if isinstance(packet.payload, dict) and "kind" in packet.payload \
                and "payload" not in packet.payload:
            packet.kind = packet.payload["kind"]
        original(packet)

    if hasattr(runtime, "nic") and hasattr(runtime.nic, "packet_handler") \
            and not isinstance(runtime, DpdkRuntime):
        runtime.nic.packet_handler = routed
    else:
        scenario.network.egress(runtime.node_name).receiver = routed


def _build_app(scenario: Scenario, app: AppSpec) -> BuiltApp:
    """Place one app.  Replica groups (and leaders) are always computed
    from the *spec's* full server list, but nodes are only instantiated
    for servers present in ``scenario.servers`` — a rack-sharded build
    passes a partial server set and peers address remote group members
    by name over the fabric, exactly as the serial build does."""
    built = BuiltApp(app, app.replica_groups(scenario.spec.server_names()))
    if app.kind == "none":
        return built
    runtimes = {n: s.runtime for n, s in scenario.servers.items()}
    if app.kind == "rkv":
        from ..apps.rkv import RkvNode
        memtable_limit = app.option("memtable_limit")
        prefill_keys = app.option("prefill_keys", 0)
        prefill_value_bytes = app.option("prefill_value_bytes", 64)
        for group_idx, group in enumerate(built.groups):
            leader = (app.leader if app.leader in group else group[0])
            built.leaders.append(leader)
            for name in group:
                if name not in runtimes:
                    continue
                kwargs = {}
                if memtable_limit is not None:
                    kwargs["memtable_limit"] = memtable_limit
                node = RkvNode(runtimes[name],
                               [p for p in group if p != name],
                               initial_leader=leader, **kwargs)
                if prefill_keys:
                    node.prefill(prefill_keys, prefill_value_bytes)
                built.nodes[name] = node
    elif app.kind == "dt":
        from ..apps.dt import DtCoordinatorNode, DtParticipantNode
        for group in built.groups:
            coordinator, participants = group[0], group[1:]
            built.leaders.append(coordinator)
            kwargs = {}
            if app.option("log_segment_bytes") is not None:
                kwargs["log_segment_bytes"] = app.option("log_segment_bytes")
            if coordinator in runtimes:
                built.nodes[coordinator] = DtCoordinatorNode(
                    runtimes[coordinator],
                    participant_nodes=list(participants), **kwargs)
            for name in participants:
                if name in runtimes:
                    built.nodes[name] = DtParticipantNode(runtimes[name])
    elif app.kind == "rta":
        from ..apps.rta import RtaWorkerNode
        for group in built.groups:
            aggregate = app.option("aggregate")
            if aggregate is None and len(group) > 1:
                aggregate = group[0]
            built.leaders.append(group[0])
            for name in group:
                if name not in runtimes:
                    continue
                built.nodes[name] = RtaWorkerNode(
                    runtimes[name], aggregate_node=aggregate)
    elif app.kind == "firewall":
        from ..apps.nf import FirewallNode, generate_ruleset
        rules = generate_ruleset(app.option("rule_count", 8192),
                                 rng=Rng(app.option("rule_seed", 31)))
        for group in built.groups:
            built.leaders.append(group[0])
            for name in group:
                if name not in runtimes:
                    continue
                built.nodes[name] = FirewallNode(runtimes[name], rules=rules)
                runtimes[name].dispatch_table["data"] = "firewall"
    elif app.kind == "ipsec":
        from ..apps.nf import IpsecNode
        for group in built.groups:
            built.leaders.append(group[0])
            for name in group:
                if name not in runtimes:
                    continue
                built.nodes[name] = IpsecNode(runtimes[name])
                # a gateway's whole ingress is ESP traffic
                runtime = runtimes[name]
                original = runtime.on_packet

                def esp(packet, original=original):
                    packet.kind = "esp-pkt"
                    original(packet)
                runtime.nic.packet_handler = esp
    else:
        raise ValueError(f"unknown app kind {app.kind!r}")
    return built


def _actor_names(scenario: Scenario) -> Dict[str, set]:
    """Snapshot of registered actor names per server (tenant diffing)."""
    out: Dict[str, set] = {}
    for name, server in scenario.servers.items():
        table = getattr(server.runtime, "actors", None)
        out[name] = {a.name for a in table} if table is not None else set()
    return out


def _assign_tenant(scenario: Scenario, tenant: str,
                   before: Dict[str, set]) -> None:
    """Stamp the actors one app build just registered with its tenant.

    Registration ran before the app's tenant was known, so the DMO
    region tag is applied retroactively (moving any init-time
    allocations into the tenant's usage ledger)."""
    for name, server in scenario.servers.items():
        runtime = server.runtime
        table = getattr(runtime, "actors", None)
        if table is None:
            continue
        seen = before.get(name, set())
        for actor in table:
            if actor.name in seen:
                continue
            actor.tenant = tenant
            dmo = getattr(runtime, "dmo", None)
            if dmo is not None:
                dmo.set_tenant(actor.name, tenant)


def _apply_tenancy(scenario: Scenario) -> None:
    """Push the spec's tenant budgets into every runtime and register
    the TenantMonitor (docs/TENANCY.md).

    Shares/budgets that are 0 stay unconfigured — a spec declaring
    tenants purely for accounting adds no events and keeps the schedule
    bit-identical to the untenanted build."""
    spec = scenario.spec
    nic_shares = {t.name: t.nic_core_share
                  for t in spec.tenants if t.nic_core_share > 0.0}
    accel_shares = {t.name: t.accelerator_share
                    for t in spec.tenants if t.accelerator_share > 0.0}
    budgets = {t.name: t.dmo_budget_bytes
               for t in spec.tenants if t.dmo_budget_bytes > 0}
    for name in sorted(scenario.servers):
        runtime = scenario.servers[name].runtime
        if hasattr(runtime, "set_tenancy"):
            runtime.set_tenancy(nic_shares=nic_shares or None,
                                accel_shares=accel_shares or None,
                                dmo_budgets=budgets or None)
    checker = scenario.sim.checker
    if checker is not None and hasattr(checker, "watch_tenancy"):
        for name in sorted(scenario.servers):
            runtime = scenario.servers[name].runtime
            if hasattr(runtime, "nic_scheduler"):
                checker.watch_tenancy(name, runtime)


def _apply_placement_pins(scenario: Scenario) -> None:
    """Apply a placement plan's build-time device pins
    (:attr:`AppSpec.placement`): move each named actor to its planned
    device *before any traffic flows*, so the pinned start state is part
    of the deterministic build — the planner's equivalent of registering
    the actor there in the first place.  When a CheckPlane is installed,
    every applied pin lands on its PlanMonitor, which asserts the plan
    holds until the first reactive override."""
    by_server: Dict[str, Dict[str, str]] = {}
    for app in scenario.spec.apps:
        for key, device in app.placement:
            server, _, actor_name = key.partition("/")
            node = scenario.servers.get(server)
            if node is None:
                continue    # rack-sharded partial build: not our shard
            runtime = node.runtime
            table = getattr(runtime, "actors", None)
            if table is None:
                raise ScenarioError(
                    [f"placement pin {key!r}: {server} runs "
                     f"{type(runtime).__name__}, which has no actor table"])
            actor = table.lookup(actor_name)
            if actor is None:
                raise ScenarioError(
                    [f"placement pin {key!r}: no such actor on {server}"])
            by_server.setdefault(server, {})[actor_name] = device
            target = Location.NIC if device == "nic" else Location.HOST
            if actor.location is target:
                continue
            if actor.pinned:
                raise ScenarioError(
                    [f"placement pin {key!r}: actor is pinned to "
                     f"{actor.location.value} and cannot move to {device}"])
            runtime.dmo.migrate_all(actor.name, target)
            actor.location = target
            if hasattr(runtime, "update_steering"):
                runtime.update_steering(actor)
    checker = scenario.sim.checker
    if checker is not None and hasattr(checker, "watch_plan"):
        for server in sorted(by_server):
            checker.watch_plan(server, scenario.servers[server].runtime,
                               sorted(by_server[server].items()))


# -- client fleets ------------------------------------------------------------

def _make_workload(fleet: FleetSpec, shard: Optional[int] = None):
    """The fleet's request factory; sharded fleets get disjoint
    per-shard keyspaces so shard affinity holds by construction."""
    if fleet.workload == "none":
        return None
    from ..workloads import KvWorkload, TwitterWorkload, TxnWorkload
    if fleet.workload == "kv":
        wl = (KvWorkload(packet_size=fleet.size) if shard is None
              else KvWorkload(packet_size=fleet.size, seed=11 + 97 * shard))
        if shard is None:
            return wl.next_request

        def sharded(i, wl=wl, prefix=f"g{shard}:"):
            req = wl.next_request(i)
            req["key"] = prefix + req["key"]
            return req
        return sharded
    if fleet.workload == "txn":
        wl = (TxnWorkload(packet_size=fleet.size) if shard is None
              else TxnWorkload(packet_size=fleet.size, seed=13 + 97 * shard))
        return wl.next_request
    if fleet.workload == "twitter":
        wl = (TwitterWorkload(packet_size=fleet.size) if shard is None
              else TwitterWorkload(packet_size=fleet.size,
                                   seed=17 + 97 * shard))
        return wl.next_request
    raise ValueError(f"unknown workload {fleet.workload!r}")


def _build_fleet(scenario: Scenario, fleet: FleetSpec) -> None:
    port = scenario.clients[fleet.client]
    if fleet.dst.startswith("shard:"):
        app = scenario.app(fleet.dst.split(":", 1)[1])
        targets = [(idx, leader) for idx, leader in enumerate(app.leaders)]
    else:
        targets = [(None, fleet.dst)]
    for shard, dst in targets:
        factory = _make_workload(fleet, shard)
        seed = fleet.seed if shard is None else fleet.seed + 1000 * shard
        if fleet.mode == "closed":
            gen = port.closed_loop(
                dst=dst, clients=fleet.clients, size=fleet.size,
                payload_factory=factory, rng=Rng(seed),
                think_time_us=fleet.think_time_us)
        else:
            gen = port.open_loop(
                dst=dst, rate_mpps=fleet.rate_mpps / len(targets),
                size=fleet.size, payload_factory=factory,
                rng=Rng(seed), poisson=fleet.poisson)
        scenario.generators.append(gen)


# -- the entry point ----------------------------------------------------------

def build(spec: ScenarioSpec, sim: Optional[Simulator] = None) -> Scenario:
    """Assemble the whole simulation a spec describes.

    Construction order is part of the contract (it fixes the event
    schedule): simulator → fabric → trace plane → fault plane → servers
    in rack order → apps in spec order → client ports → fleets → fault
    wiring.  Pass ``sim`` to build inside an existing simulator (e.g.
    one instrumented by a SanitizerSession).
    """
    spec.validate()
    sim = sim or Simulator()
    network = make_fabric(sim, spec.fabric, spec.racks)
    scenario = Scenario(spec=spec, sim=sim, network=network)

    if spec.observability.trace:
        from ..obs import TracePlane
        scenario.trace_plane = TracePlane(sim)

    if spec.faults:
        streams = spec.execution.resolved_fault_streams()
        plane = FaultPlane(sim, seed=spec.seed,
                           component_streams=streams == "per-component")
        for decl in spec.faults:
            plane.add(FaultSpec(
                kind=decl.kind, target=decl.target, node=decl.node,
                probability=decl.probability, every_nth=decl.every_nth,
                at_us=tuple(decl.at_us), period_us=decl.period_us,
                start_us=decl.start_us, stop_us=decl.stop_us,
                duration_us=decl.duration_us, max_count=decl.max_count))
        scenario.fault_plane = plane

    delay = spec.observability.recovery_restart_delay_us
    if delay is not None:
        scenario.recovery = RecoveryPolicy(restart_delay_us=delay)

    for rack in spec.racks:
        for sspec in rack.servers:
            config = (SchedulerConfig(**sspec.scheduler_kwargs())
                      if sspec.scheduler else None)
            scenario.servers[sspec.name] = make_server(
                sim, network, sspec.name, resolve_nic(sspec.nic),
                system=sspec.system, config=config,
                host_workers=sspec.host_workers,
                host_cores=sspec.host_cores, reliable=sspec.reliable,
                fault_plane=scenario.fault_plane,
                recovery=scenario.recovery)

    for app in spec.apps:
        before = _actor_names(scenario) if spec.tenants else {}
        scenario.apps.append(_build_app(scenario, app))
        if spec.tenants and app.tenant:
            _assign_tenant(scenario, app.tenant, before)

    if spec.tenants:
        _apply_tenancy(scenario)

    if any(app.placement for app in spec.apps):
        _apply_placement_pins(scenario)

    if spec.steering:
        _build_steering(scenario)

    # workload-kind routing: only when generated traffic carries payload
    # kinds (hand-driven scenarios — chaos, scheduler traces — install
    # their own shims)
    if any(f.workload != "none" for f in spec.fleets):
        covered = set()
        for app in scenario.apps:
            if app.kind in ("rkv", "dt", "rta"):
                for group in app.groups:
                    for name in group:
                        if name not in scenario.servers:
                            continue
                        _install_payload_router(scenario, name)
                        covered.add(name)
        if spec.steering:
            # any server may inherit a steered backend after a rebalance,
            # so every runtime must understand the fleets' wire format
            for name in sorted(scenario.servers):
                runtime = scenario.servers[name].runtime
                if name not in covered and hasattr(runtime, "_steer_seen"):
                    _install_payload_router(scenario, name)

    for rack in spec.racks:
        for cspec in rack.clients:
            port = ClientPort(sim, network, cspec.name)
            network.attach(cspec.name, port.receive, rack=rack.name)
            scenario.clients[cspec.name] = port

    for fleet in spec.fleets:
        _build_fleet(scenario, fleet)

    if scenario.fault_plane is not None:
        scenario.fault_plane.wire_network(network)

    if spec.rebalance is not None and spec.steering:
        _build_rebalancer(scenario)

    if spec.observability.pulse is not None:
        _build_pulse(scenario)

    return scenario


def _build_steering(scenario: Scenario) -> None:
    """Install the SteeringController on every fabric switch and hook
    the runtimes' delivery notes + the CheckPlane monitor."""
    from ..net.steering import SteeringController
    spec = scenario.spec
    controller = SteeringController(scenario.sim)
    scenario.steering = controller
    for st in spec.steering:
        backends = list(st.backends)
        if not backends:
            backends = list(scenario.app(st.app).leaders)
        controller.add_service(st.service, backends,
                               table_size=st.table_size,
                               window_us=st.window_us)
    for tor in scenario.network.switches.values():
        controller.install(tor)
    spine = scenario.network.spine
    if spine is not None:
        controller.install(spine)
    for name in sorted(scenario.servers):
        runtime = scenario.servers[name].runtime
        if hasattr(runtime, "_steer_seen"):
            runtime.steer_note = (
                lambda pkt, _c=controller, _n=name: _c.note_delivery(_n, pkt))
    checker = scenario.sim.checker
    if checker is not None and hasattr(checker, "watch_steering"):
        checker.watch_steering(controller)


def _build_rebalancer(scenario: Scenario) -> None:
    """Arm the rack-evacuation policy over the steered rkv backends."""
    from ..core.migration import CrossRackMigrator
    from ..net.steering import MovableBackend, RebalancePolicy, Rebalancer
    spec = scenario.spec
    service_name = spec.rebalance.service or spec.steering[0].service
    st = next(s for s in spec.steering if s.service == service_name)
    app = scenario.app(st.app)
    backends: Dict[str, MovableBackend] = {}
    for leader in app.leaders:
        node = app.nodes[leader]
        backends[leader] = MovableBackend(
            actors=("consensus", "memtable", "sst_read", "compaction"),
            detach=node.detach, attach=node.attach)
    migrator = CrossRackMigrator(scenario.sim, steering=scenario.steering)
    rb = spec.rebalance
    policy = RebalancePolicy(notice_us=rb.notice_us,
                             return_home=rb.return_home,
                             window_us=st.window_us,
                             on_load=rb.on_load,
                             util_high=rb.util_high,
                             skew_min=rb.skew_min,
                             sustain_periods=rb.sustain_periods,
                             cooldown_us=rb.cooldown_us)
    scenario.rebalancer = Rebalancer(
        scenario.sim, controller=scenario.steering, migrator=migrator,
        policy=policy, service=st.service, backends=backends,
        runtimes={n: s.runtime for n, s in scenario.servers.items()
                  if hasattr(s.runtime, "_steer_seen")},
        rack_of=scenario.network.rack_of,
        fault_plane=scenario.fault_plane)


def _build_pulse(scenario: Scenario) -> None:
    """Install the PulsePlane: fleet probes, SLO evaluators, and — when
    the rebalance policy asks for it — the LoadFeed that turns sustained
    utilization skew into migrations.  Built last: probes read servers,
    steering and the rebalancer, and PulsePlane construction schedules
    nothing, so the event schedule is untouched."""
    from ..obs.pulse import LoadFeed, PulsePlane
    from ..obs.slo import SloEvaluator
    spec = scenario.spec
    ps = spec.observability.pulse
    pulse = PulsePlane(scenario.sim, period_us=ps.period_us,
                       retention=ps.retention)
    scenario.pulse_plane = pulse
    if ps.watch_servers:
        for name in sorted(scenario.servers):
            server = scenario.servers[name]
            if server.nic is None:
                continue
            sched = getattr(server.runtime, "nic_scheduler", None)
            pulse.watch_server(name, nic=server.nic, scheduler=sched,
                               runtime=server.runtime)
    if ps.watch_steering and scenario.steering is not None:
        pulse.watch_steering(scenario.steering)
    for slo in spec.observability.slos:
        pulse.watch_service(slo.service, pct=slo.pct,
                            window_us=slo.window_us)
        pulse.add_evaluator(SloEvaluator(
            scenario.sim, pulse.store, name=slo.slo_name(),
            metric=slo.metric(), threshold_us=slo.threshold_us,
            pct=slo.pct, window_us=slo.window_us,
            slow_windows=slo.slow_windows, budget=slo.budget,
            burn_threshold=slo.burn_threshold, period_us=ps.period_us))
    if spec.tenants:
        _build_tenant_pulse(scenario, pulse)
    if scenario.rebalancer is not None and scenario.rebalancer.policy.on_load:
        LoadFeed(pulse, scenario.rebalancer)
    checker = scenario.sim.checker
    if checker is not None and hasattr(checker, "watch_pulse"):
        checker.watch_pulse(pulse)


def _build_tenant_pulse(scenario: Scenario, pulse) -> None:
    """Per-tenant telemetry (docs/TENANCY.md): ``tenant.util.<t>`` off
    the schedulers' busy ledgers, ``tenant.steer.<t>`` over the tenant's
    SLO services, ``tenant.svc.<t>.*`` quantiles, and one tenant-named
    SLO evaluator per :attr:`TenantSpec.slos` entry."""
    from ..obs.slo import SloEvaluator
    spec = scenario.spec
    ps = spec.observability.pulse
    schedulers = [scenario.servers[n].runtime.nic_scheduler
                  for n in sorted(scenario.servers)
                  if hasattr(scenario.servers[n].runtime, "nic_scheduler")]
    watched = {(slo.service, slo.pct) for slo in spec.observability.slos}
    for tenant in spec.tenants:
        slos = [SLOSpec.from_text(raw) for raw in tenant.slos]
        services = tuple(sorted({slo.service for slo in slos}))
        pulse.watch_tenant(tenant.name, schedulers=schedulers,
                           services=services,
                           controller=scenario.steering)
        for slo in slos:
            if (slo.service, slo.pct) not in watched:
                watched.add((slo.service, slo.pct))
                pulse.watch_service(slo.service, pct=slo.pct,
                                    window_us=slo.window_us)
            pulse.add_evaluator(SloEvaluator(
                scenario.sim, pulse.store,
                name=f"{tenant.name}.{slo.slo_name()}",
                metric=slo.metric(), threshold_us=slo.threshold_us,
                pct=slo.pct, window_us=slo.window_us,
                slow_windows=slo.slow_windows, budget=slo.budget,
                burn_threshold=slo.burn_threshold, period_us=ps.period_us))
