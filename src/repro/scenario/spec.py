"""Declarative scenario specs: racks, servers, fabric, apps, workloads.

A :class:`ScenarioSpec` is a plain dataclass tree describing one whole
simulated deployment — the multi-rack fabric, per-server NIC models and
host resources, application placement (sharded/replicated across racks),
client fleets, fault schedules, and observability — with nothing
imperative in it.  Specs can be written in Python, loaded from JSON (or
TOML where the interpreter ships ``tomllib``), canonicalised for the
sweep result cache, and handed to :func:`repro.scenario.build` to
assemble the simulation.

The design goal (ROADMAP: "as many scenarios as you can imagine") is
that a new deployment — say, three racks of sharded RKV with cross-rack
Paxos and an open-loop fleet standing in for a million client
connections — is ~30 lines of data, not a new experiment module.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..nic import (
    BLUEFIELD_1M332A,
    LIQUIDIO_CN2350,
    LIQUIDIO_CN2360,
    NicSpec,
    STINGRAY_PS225,
)
from ..sim.faults import ALL_KINDS, EVENT_KINDS

SPEC_VERSION = 1

#: Every simulated NIC model, addressable by model string or short alias.
NIC_CATALOG: Dict[str, NicSpec] = {}
for _spec in (LIQUIDIO_CN2350, LIQUIDIO_CN2360, BLUEFIELD_1M332A,
              STINGRAY_PS225):
    NIC_CATALOG[_spec.model] = _spec
NIC_CATALOG.update({
    "cn2350": LIQUIDIO_CN2350,
    "cn2360": LIQUIDIO_CN2360,
    "bluefield": BLUEFIELD_1M332A,
    "stingray": STINGRAY_PS225,
})

SYSTEMS = ("ipipe", "ipipe-hostonly", "dpdk", "floem")
APP_KINDS = ("rkv", "dt", "rta", "firewall", "ipsec", "none")
WORKLOAD_KINDS = ("kv", "txn", "twitter", "none")
FLEET_MODES = ("closed", "open")


class ScenarioError(ValueError):
    """A spec failed validation; ``problems`` lists every finding."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def resolve_nic(ref) -> NicSpec:
    """A NicSpec from a catalog name, alias, or an actual NicSpec."""
    if isinstance(ref, NicSpec):
        return ref
    try:
        return NIC_CATALOG[ref]
    except KeyError:
        raise ScenarioError(
            [f"unknown NIC {ref!r} (have {sorted(NIC_CATALOG)})"]) from None


# -- the spec tree ------------------------------------------------------------

@dataclass(frozen=True)
class ServerSpec:
    """One server box: NIC model, runtime system, host resources."""

    name: str
    nic: str = LIQUIDIO_CN2350.model
    system: str = "ipipe"          # ipipe | ipipe-hostonly | dpdk | floem
    host_workers: Optional[int] = None
    host_cores: Optional[int] = None
    reliable: bool = False
    #: SchedulerConfig field overrides (e.g. {"migration_enabled": False})
    scheduler: Tuple[Tuple[str, Any], ...] = ()

    def scheduler_kwargs(self) -> Dict[str, Any]:
        return dict(self.scheduler)


@dataclass(frozen=True)
class ClientSpec:
    """A client box with a dumb NIC running workload generators."""

    name: str


@dataclass(frozen=True)
class RackSpec:
    """One rack: a ToR subnet of servers and client boxes."""

    name: str
    servers: Tuple[ServerSpec, ...] = ()
    clients: Tuple[ClientSpec, ...] = ()


@dataclass(frozen=True)
class FabricSpec:
    """The wiring: port speeds, switch latencies, inter-rack runs."""

    bandwidth_gbps: float = 10.0
    propagation_us: float = 0.3
    tor_latency_us: float = 0.45
    spine_latency_us: float = 0.60
    uplink_gbps: Optional[float] = None
    inter_rack_propagation_us: float = 1.2


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: fair-share budgets for the NIC resources its apps use.

    A spec with no ``tenants`` runs exactly as before — one implicit
    tenant owns the whole NIC and no tenant machinery activates (the
    event schedule is bit-identical to the pre-tenancy code).  Declaring
    tenants turns on hierarchical DRR (per-tenant quantum pools scaled
    by ``nic_core_share``, then per-actor deficit within the pool),
    per-tenant accelerator admission, per-tenant DMO byte budgets, and
    the TenantMonitor invariants (docs/TENANCY.md).
    """

    name: str
    nic_core_share: float = 0.0        # fraction of the DRR quantum pool
    accelerator_share: float = 0.0     # fraction of accelerator time
    dmo_budget_bytes: int = 0          # total DMO region bytes (0 = unlimited)
    slos: Tuple[str, ...] = ()         # compact SLO grammar strings


@dataclass(frozen=True)
class AppSpec:
    """Application placement over the fabric's servers.

    ``servers`` lists runtime names in placement order; with
    ``shards > 1`` the list is dealt round-robin into ``shards`` replica
    groups (so listing servers rack-by-rack interleaves every shard
    across racks — cross-rack replication by construction).  Each RKV
    replica group runs its own Paxos ring; ``dt`` takes the first server
    as coordinator; ``rta`` aggregates on the first server.

    ``tenant`` names the owning :class:`TenantSpec`; every actor the app
    registers inherits it.  Empty means the implicit single tenant.
    """

    kind: str                          # rkv | dt | rta | firewall | ipsec | none
    servers: Tuple[str, ...] = ()      # default: every server in the spec
    shards: int = 1
    leader: Optional[str] = None       # rkv: initial leader (per-group: first)
    options: Tuple[Tuple[str, Any], ...] = ()
    #: build-time device pins from a placement plan (:mod:`repro.plan`):
    #: ("server/actor", "nic" | "host") pairs applied before any traffic.
    placement: Tuple[Tuple[str, str], ...] = ()
    tenant: str = ""                   # owning tenant ("" = implicit)

    def option(self, key: str, default=None):
        return dict(self.options).get(key, default)

    def replica_groups(self, all_servers: Sequence[str]
                       ) -> List[List[str]]:
        """Deal the placement into per-shard replica groups."""
        servers = list(self.servers) or list(all_servers)
        if self.shards <= 1:
            return [servers]
        return [servers[i::self.shards] for i in range(self.shards)]


@dataclass(frozen=True)
class FleetSpec:
    """One client fleet: who sends what, to whom, and how hard.

    ``dst`` is a server name, or ``"shard:<app-kind>"`` to split the
    fleet across every shard leader of that app (keys route by hash).
    ``connections`` documents the real-world connection count the fleet
    stands in for (an open-loop rate models arbitrarily many remote
    connections without one simulated process each).
    """

    client: str
    dst: str
    mode: str = "closed"               # closed | open
    clients: int = 16                  # closed-loop concurrency per shard
    rate_mpps: float = 0.0             # open-loop aggregate rate
    size: int = 512
    workload: str = "kv"               # kv | txn | twitter | none
    seed: int = 5
    think_time_us: float = 0.0
    poisson: bool = True
    connections: int = 0
    tenant: str = ""                   # owning tenant ("" = implicit)


@dataclass(frozen=True)
class FaultDecl:
    """Declarative fault-plane entry (mirrors ``repro.sim.FaultSpec``)."""

    kind: str
    target: str = "*"
    node: Optional[str] = None
    probability: float = 0.0
    every_nth: int = 0
    at_us: Tuple[float, ...] = ()
    period_us: float = 0.0
    start_us: float = 0.0
    stop_us: float = float("inf")
    duration_us: float = 0.0
    max_count: Optional[int] = None


@dataclass(frozen=True)
class SteeringSpec:
    """One steered service: a VIP consistently hashed over backends.

    Clients address ``svc:<service>``; the fabric switches resolve the
    VIP through an epoch-versioned Maglev table with per-connection
    affinity (see :mod:`repro.net.steering`).  ``backends`` defaults to
    the shard leaders of ``app``.
    """

    service: str
    app: Optional[str] = None          # app kind whose leaders back the VIP
    backends: Tuple[str, ...] = ()     # explicit backend servers
    table_size: int = 251
    window_us: float = 2_000.0         # forwarding window after a repoint


@dataclass(frozen=True)
class RebalanceSpec:
    """Policy reacting to rack outages — and, with ``on_load``, to
    sustained per-backend utilization skew measured by the PulsePlane."""

    service: str = ""                  # default: the first steering service
    notice_us: float = 1_000.0         # evacuate this long before an outage
    return_home: bool = True           # repatriate when the rack returns
    on_load: bool = False              # migrate on sustained load skew
    util_high: float = 0.75            # hot floor (mean NIC utilization)
    skew_min: float = 0.25             # hot server must beat fleet mean by
    sustain_periods: int = 3           # hysteresis: consecutive hot samples
    cooldown_us: float = 5_000.0       # min gap between load-driven moves


@dataclass(frozen=True)
class PulseSpec:
    """PulsePlane sampling: cadence, retention, default gauge sets."""

    period_us: float = 500.0           # sample lattice spacing
    retention: int = 4096              # ring-buffer points per series
    watch_servers: bool = True         # nic.util.* + nic.queue.* gauges
    watch_steering: bool = True        # steer.rate (when steering declared)


@dataclass(frozen=True)
class SLOSpec:
    """One latency SLO: ``<service> p<pct> < <threshold_us> over
    <window_us>``, evaluated per pulse with multi-window burn rates.

    ``service`` names the steered service (or app kind) whose
    ``svc.<service>.latency_us`` histogram the clients record.  In
    JSON/TOML an entry may also be the compact grammar string —
    ``"rkv p99 < 40us over 2ms"`` — parsed by
    :func:`repro.obs.slo.parse_slo`.
    """

    service: str
    threshold_us: float = 0.0          # objective bound (must be > 0)
    pct: float = 99.0                  # watched quantile
    window_us: float = 2_000.0         # fast evaluation window
    slow_windows: int = 4              # slow window, in fast windows
    budget: float = 0.1                # allowed over-threshold fraction
    burn_threshold: float = 1.0        # breach when both burns reach this
    name: str = ""                     # default: "<service>-p<pct>"

    def slo_name(self) -> str:
        return self.name or f"{self.service}-p{self.pct:g}"

    def metric(self) -> str:
        return f"svc.{self.service}.latency_us"

    @classmethod
    def from_text(cls, text: str) -> "SLOSpec":
        from ..obs.slo import parse_slo
        try:
            parsed = parse_slo(text)
        except ValueError as exc:
            raise ScenarioError([str(exc)]) from None
        return cls(service=parsed["service"], pct=parsed["pct"],
                   threshold_us=parsed["threshold_us"],
                   window_us=parsed["window_us"], name=parsed["name"])


@dataclass(frozen=True)
class ObsSpec:
    """Observability riders: TracePlane, recovery policy, PulsePlane."""

    trace: bool = False
    recovery_restart_delay_us: Optional[float] = None
    pulse: Optional[PulseSpec] = None
    slos: Tuple[SLOSpec, ...] = ()


EXEC_SHARDS = ("none", "by-rack")
FAULT_STREAM_MODES = ("auto", "shared", "per-component")


@dataclass(frozen=True)
class ExecSpec:
    """How to execute the built scenario.

    ``shards="by-rack"`` hands the spec to
    :class:`repro.exec.shard.RackShardExecutor`: each rack runs as its
    own :class:`~repro.sim.engine.Simulator`, exchanging timestamped
    cross-rack packets at the spine boundary under a conservative
    lookahead window equal to the fabric's inter-rack propagation delay.
    The result is bit-identical to the serial run (same fingerprint,
    same canonical event digest) — see docs/PERFORMANCE.md.

    ``processes`` > 0 runs that many shards as forked worker processes
    (0 = all shards in-process).  ``lookahead_us`` can only *tighten*
    the fabric-derived lookahead (useful for stress-testing the
    synchronization protocol; never needed for correctness).

    ``fault_streams`` picks how stochastic fault draws are keyed:
    ``"shared"`` is the classic one-stream-per-spec mode (pinned by
    golden schedules), ``"per-component"`` keys draws by component so
    schedules survive decomposition, ``"auto"`` resolves to
    per-component exactly when sharding is on.
    """

    shards: str = "none"               # none | by-rack
    processes: int = 0                 # 0 = in-process shards
    lookahead_us: Optional[float] = None
    fault_streams: str = "auto"        # auto | shared | per-component

    def resolved_fault_streams(self) -> str:
        if self.fault_streams != "auto":
            return self.fault_streams
        return "per-component" if self.shards != "none" else "shared"


@dataclass(frozen=True)
class ScenarioSpec:
    """The whole deployment, as data."""

    name: str
    racks: Tuple[RackSpec, ...]
    fabric: FabricSpec = FabricSpec()
    apps: Tuple[AppSpec, ...] = ()
    fleets: Tuple[FleetSpec, ...] = ()
    tenants: Tuple[TenantSpec, ...] = ()
    faults: Tuple[FaultDecl, ...] = ()
    steering: Tuple[SteeringSpec, ...] = ()
    rebalance: Optional[RebalanceSpec] = None
    observability: ObsSpec = ObsSpec()
    execution: ExecSpec = ExecSpec()
    seed: int = 42
    duration_us: float = 20_000.0
    description: str = ""
    version: int = SPEC_VERSION

    # -- introspection --------------------------------------------------------
    def server_specs(self) -> List[ServerSpec]:
        return [s for rack in self.racks for s in rack.servers]

    def server_names(self) -> List[str]:
        return [s.name for s in self.server_specs()]

    def client_names(self) -> List[str]:
        return [c.name for rack in self.racks for c in rack.clients]

    def rack_of(self, node: str) -> Optional[str]:
        for rack in self.racks:
            for s in rack.servers:
                if s.name == node:
                    return rack.name
            for c in rack.clients:
                if c.name == node:
                    return rack.name
        return None

    def is_multi_rack(self) -> bool:
        return len(self.racks) > 1

    def tenant_names(self) -> List[str]:
        return [t.name for t in self.tenants]

    def tenant_of(self, name: str) -> Optional[TenantSpec]:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None

    # -- validation -----------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ScenarioError` listing every problem found."""
        problems: List[str] = []
        if not self.racks:
            problems.append("no racks")
        names = self.server_names() + self.client_names()
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            problems.append(f"duplicate node names: {sorted(dupes)}")
        rack_names = [r.name for r in self.racks]
        if len(set(rack_names)) != len(rack_names):
            problems.append(f"duplicate rack names: {rack_names}")
        for server in self.server_specs():
            if server.system not in SYSTEMS:
                problems.append(f"{server.name}: unknown system "
                                f"{server.system!r} (have {SYSTEMS})")
            if not isinstance(server.nic, NicSpec) \
                    and server.nic not in NIC_CATALOG:
                problems.append(f"{server.name}: unknown NIC {server.nic!r}")
        known = set(self.server_names())
        clients = set(self.client_names())
        app_kinds = {a.kind for a in self.apps}
        for app in self.apps:
            if app.kind not in APP_KINDS:
                problems.append(f"app: unknown kind {app.kind!r} "
                                f"(have {APP_KINDS})")
            for server in app.servers:
                if server not in known:
                    problems.append(f"app {app.kind}: unknown server "
                                    f"{server!r}")
            if app.shards < 1:
                problems.append(f"app {app.kind}: shards must be >= 1")
            elif app.shards > 1:
                placed = list(app.servers) or list(known)
                if len(placed) < app.shards:
                    problems.append(
                        f"app {app.kind}: {app.shards} shards need at "
                        f"least that many servers (got {len(placed)})")
            if app.leader is not None and app.leader not in known:
                problems.append(f"app {app.kind}: unknown leader "
                                f"{app.leader!r}")
            for key, device in app.placement:
                if "/" not in key:
                    problems.append(f"app {app.kind}: placement key "
                                    f"{key!r} is not 'server/actor'")
                elif key.split("/", 1)[0] not in known:
                    problems.append(f"app {app.kind}: placement "
                                    f"{key!r} names an unknown server")
                if device not in ("nic", "host"):
                    problems.append(f"app {app.kind}: placement {key!r} "
                                    f"device {device!r} is not nic|host")
        for fleet in self.fleets:
            if fleet.client not in clients:
                problems.append(f"fleet: unknown client {fleet.client!r}")
            if fleet.mode not in FLEET_MODES:
                problems.append(f"fleet {fleet.client}: unknown mode "
                                f"{fleet.mode!r}")
            if fleet.workload not in WORKLOAD_KINDS:
                problems.append(f"fleet {fleet.client}: unknown workload "
                                f"{fleet.workload!r}")
            if fleet.mode == "open" and fleet.rate_mpps <= 0:
                problems.append(f"fleet {fleet.client}: open-loop needs "
                                f"rate_mpps > 0")
        steering_names = [st.service for st in self.steering]
        for fleet in self.fleets:
            if fleet.dst.startswith("shard:"):
                kind = fleet.dst.split(":", 1)[1]
                if kind not in app_kinds:
                    problems.append(f"fleet {fleet.client}: dst "
                                    f"{fleet.dst!r} names no declared app")
            elif fleet.dst.startswith("svc:"):
                service = fleet.dst.split(":", 1)[1]
                if service not in steering_names:
                    problems.append(
                        f"fleet {fleet.client}: dst {fleet.dst!r} names no "
                        f"declared steering service")
            elif fleet.dst not in known:
                problems.append(f"fleet {fleet.client}: unknown dst "
                                f"{fleet.dst!r}")
        if len(set(steering_names)) != len(steering_names):
            problems.append(f"duplicate steering services: {steering_names}")
        for st in self.steering:
            if not st.service:
                problems.append("steering: service needs a name")
            if st.app is None and not st.backends:
                problems.append(f"steering {st.service}: needs an app or "
                                f"explicit backends")
            if st.app is not None and st.app not in app_kinds:
                problems.append(f"steering {st.service}: app {st.app!r} not "
                                f"declared")
            for backend in st.backends:
                if backend not in known:
                    problems.append(f"steering {st.service}: unknown backend "
                                    f"{backend!r}")
            if st.table_size < 2:
                problems.append(f"steering {st.service}: table_size must "
                                f"be >= 2")
            if st.window_us < 0:
                problems.append(f"steering {st.service}: window_us must "
                                f"be >= 0")
        if self.rebalance is not None:
            if not steering_names:
                problems.append("rebalance: needs a steering service")
            else:
                service = self.rebalance.service or steering_names[0]
                if service not in steering_names:
                    problems.append(f"rebalance: unknown steering service "
                                    f"{service!r}")
                else:
                    st = next(s for s in self.steering
                              if s.service == service)
                    if st.app != "rkv":
                        problems.append(
                            f"rebalance: service {service!r} must be backed "
                            f"by app='rkv' (the only app with cross-rack "
                            f"state hooks)")
                    else:
                        app = next(a for a in self.apps if a.kind == "rkv")
                        groups = app.replica_groups(self.server_names())
                        if any(len(g) > 1 for g in groups):
                            problems.append(
                                "rebalance: rkv replica groups must be "
                                "single-server (peer Paxos names do not yet "
                                "follow a migrated node)")
            if self.rebalance.notice_us < 0:
                problems.append("rebalance: notice_us must be >= 0")
            rb = self.rebalance
            if rb.on_load:
                if self.observability.pulse is None:
                    problems.append(
                        "rebalance: on_load needs observability.pulse "
                        "(the LoadFeed samples utilization per pulse)")
                if not 0.0 < rb.util_high <= 1.0:
                    problems.append(
                        f"rebalance: util_high must be in (0, 1] "
                        f"(got {rb.util_high})")
                if not 0.0 <= rb.skew_min <= 1.0:
                    problems.append(
                        f"rebalance: skew_min must be in [0, 1] "
                        f"(got {rb.skew_min})")
                if rb.sustain_periods < 1:
                    problems.append(
                        f"rebalance: sustain_periods must be >= 1 "
                        f"(got {rb.sustain_periods})")
                if rb.cooldown_us < 0:
                    problems.append(
                        f"rebalance: cooldown_us must be >= 0 "
                        f"(got {rb.cooldown_us})")
        pulse = self.observability.pulse
        if pulse is not None:
            if pulse.period_us <= 0:
                problems.append(
                    f"pulse: period_us must be positive "
                    f"(got {pulse.period_us})")
            if pulse.retention < 1:
                problems.append(
                    f"pulse: retention must be >= 1 (got {pulse.retention})")
        slo_names = [s.slo_name() for s in self.observability.slos]
        if len(set(slo_names)) != len(slo_names):
            problems.append(f"duplicate SLO names: {slo_names}")
        if self.observability.slos and pulse is None:
            problems.append(
                "observability: SLOs declared without pulse sampling "
                "(set observability.pulse)")
        for slo in self.observability.slos:
            label = f"slo {slo.slo_name()}"
            if (slo.service not in steering_names
                    and slo.service not in app_kinds):
                problems.append(
                    f"{label}: service {slo.service!r} names no declared "
                    f"steering service or app")
            if slo.threshold_us <= 0:
                problems.append(
                    f"{label}: threshold_us must be positive "
                    f"(got {slo.threshold_us})")
            if slo.window_us <= 0:
                problems.append(
                    f"{label}: window_us must be positive "
                    f"(got {slo.window_us})")
            elif pulse is not None and pulse.period_us > 0 \
                    and slo.window_us < pulse.period_us:
                problems.append(
                    f"{label}: window_us {slo.window_us} is shorter than "
                    f"the pulse period {pulse.period_us} (no sample fits)")
            if not 0.0 < slo.pct <= 100.0:
                problems.append(
                    f"{label}: pct must be in (0, 100] (got {slo.pct})")
            if not 0.0 < slo.budget <= 1.0:
                problems.append(
                    f"{label}: budget must be in (0, 1] (got {slo.budget})")
            if slo.slow_windows < 1:
                problems.append(
                    f"{label}: slow_windows must be >= 1 "
                    f"(got {slo.slow_windows})")
            if slo.burn_threshold <= 0:
                problems.append(
                    f"{label}: burn_threshold must be positive "
                    f"(got {slo.burn_threshold})")
        tenant_names = [t.name for t in self.tenants]
        tenant_set = set(tenant_names)
        if len(tenant_set) != len(tenant_names):
            problems.append(f"duplicate tenant names: {tenant_names}")
        nic_total = 0.0
        acc_total = 0.0
        for tenant in self.tenants:
            label = f"tenant {tenant.name or '?'}"
            if not tenant.name:
                problems.append("tenant: needs a name")
            if not 0.0 <= tenant.nic_core_share <= 1.0:
                # 0 means "declared but unshared": ledgers and monitors
                # run, the scheduler serves the tenant flat
                problems.append(
                    f"{label}: nic_core_share must be in [0, 1] "
                    f"(got {tenant.nic_core_share})")
            else:
                nic_total += tenant.nic_core_share
            if not 0.0 <= tenant.accelerator_share <= 1.0:
                problems.append(
                    f"{label}: accelerator_share must be in [0, 1] "
                    f"(got {tenant.accelerator_share})")
            else:
                acc_total += tenant.accelerator_share
            if tenant.dmo_budget_bytes < 0:
                problems.append(
                    f"{label}: dmo_budget_bytes must be >= 0 "
                    f"(got {tenant.dmo_budget_bytes})")
            for text in tenant.slos:
                try:
                    slo = SLOSpec.from_text(text)
                except ScenarioError as exc:
                    problems.append(f"{label}: {exc.problems[0]}")
                    continue
                if (slo.service not in steering_names
                        and slo.service not in app_kinds):
                    problems.append(
                        f"{label}: SLO service {slo.service!r} names no "
                        f"declared steering service or app")
            if tenant.slos and pulse is None:
                problems.append(
                    f"{label}: SLOs declared without pulse sampling "
                    f"(set observability.pulse)")
        if nic_total > 1.0 + 1e-9:
            problems.append(
                f"tenants: nic_core_share total {nic_total:g} exceeds 1")
        if acc_total > 1.0 + 1e-9:
            problems.append(
                f"tenants: accelerator_share total {acc_total:g} exceeds 1")
        for app in self.apps:
            if app.tenant and app.tenant not in tenant_set:
                problems.append(
                    f"app {app.kind}: tenant {app.tenant!r} not declared")
            elif self.tenants and not app.tenant:
                problems.append(
                    f"app {app.kind}: no tenant (spec declares "
                    f"tenants {sorted(tenant_set)})")
        for fleet in self.fleets:
            if fleet.tenant and fleet.tenant not in tenant_set:
                problems.append(
                    f"fleet {fleet.client}: tenant {fleet.tenant!r} "
                    f"not declared")
        rack_name_set = set(rack_names)
        for decl in self.faults:
            if decl.kind not in ALL_KINDS:
                problems.append(f"fault: unknown kind {decl.kind!r} "
                                f"(have {sorted(ALL_KINDS)})")
            if decl.node is not None and decl.node not in known:
                problems.append(f"fault {decl.kind}: unknown node "
                                f"{decl.node!r}")
            if decl.kind == "rack_down" and decl.target not in rack_name_set:
                problems.append(f"fault rack_down: unknown rack "
                                f"{decl.target!r}")
        ex = self.execution
        if ex.shards not in EXEC_SHARDS:
            problems.append(f"execution: unknown shards mode "
                            f"{ex.shards!r} (have {EXEC_SHARDS})")
        if ex.processes < 0:
            problems.append("execution: processes must be >= 0")
        if ex.fault_streams not in FAULT_STREAM_MODES:
            problems.append(f"execution: unknown fault_streams mode "
                            f"{ex.fault_streams!r} "
                            f"(have {FAULT_STREAM_MODES})")
        if ex.lookahead_us is not None and ex.lookahead_us <= 0:
            problems.append("execution: lookahead_us must be positive")
        if ex.shards == "by-rack":
            # the shard executor proves bit-identity against the serial
            # run; planes that share mutable state across racks (or
            # sample global time) are not decomposable yet and are
            # rejected rather than silently diverging
            if self.steering:
                problems.append("execution: by-rack sharding does not "
                                "support steering services yet")
            if self.rebalance is not None:
                problems.append("execution: by-rack sharding does not "
                                "support the rebalancer yet")
            if self.observability.trace:
                problems.append("execution: by-rack sharding does not "
                                "support tracing yet")
            if self.observability.pulse is not None:
                problems.append("execution: by-rack sharding does not "
                                "support pulse sampling yet")
            if self.observability.slos:
                problems.append("execution: by-rack sharding does not "
                                "support SLO evaluation yet")
            if any(t.slos for t in self.tenants):
                problems.append("execution: by-rack sharding does not "
                                "support per-tenant SLO evaluation yet")
            if ex.fault_streams == "shared":
                problems.append(
                    "execution: by-rack sharding needs per-component "
                    "fault streams (shared streams depend on the global "
                    "event interleaving)")
            if self.is_multi_rack() \
                    and self.fabric.inter_rack_propagation_us <= 0:
                problems.append(
                    "execution: by-rack sharding needs "
                    "fabric.inter_rack_propagation_us > 0 (it is the "
                    "conservative lookahead)")
            for decl in self.faults:
                if decl.kind in EVENT_KINDS and decl.max_count is not None:
                    problems.append(
                        f"execution: by-rack sharding cannot honour "
                        f"max_count on event fault {decl.kind!r} (the cap "
                        f"is a global count across shards)")
        if self.duration_us <= 0:
            problems.append("duration_us must be positive")
        if problems:
            raise ScenarioError(problems)
        return self


# -- serialisation ------------------------------------------------------------

def to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Plain-data form (JSON/TOML-ready; tuples become lists)."""
    def convert(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            out = {}
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if value == f.default and not isinstance(value, tuple):
                    # keep files terse: skip values at their default
                    # (tuple fields always serialise: their default
                    # sentinel is ())
                    if f.default is not dataclasses.MISSING:
                        continue
                out[f.name] = convert(value)
            return out
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, float) and obj == float("inf"):
            return "inf"
        return obj
    return convert(spec)


def _pairs(value) -> Tuple[Tuple[str, Any], ...]:
    """Option mappings arrive as dicts from JSON/TOML; specs store
    hashable (key, value) pairs."""
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return tuple(tuple(item) for item in value)


def from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a spec from :func:`to_dict` output (or hand-written
    JSON/TOML); unknown keys raise so typos do not silently no-op."""
    def build(cls, payload):
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(payload) - set(known)
        if unknown:
            raise ScenarioError(
                [f"{cls.__name__}: unknown field(s) {sorted(unknown)}"])
        kwargs = {}
        for key, value in payload.items():
            if key == "stop_us" and value == "inf":
                value = float("inf")
            kwargs[key] = value
        return cls(**kwargs)

    racks = []
    for rack in data.get("racks", []):
        servers = tuple(build(ServerSpec, {**s, "scheduler": _pairs(
            s.get("scheduler", ()))}) for s in rack.get("servers", []))
        clients = tuple(build(ClientSpec, c) for c in rack.get("clients", []))
        racks.append(RackSpec(name=rack["name"], servers=servers,
                              clients=clients))
    apps = tuple(build(AppSpec, {**a, "servers": tuple(a.get("servers", ())),
                                 "options": _pairs(a.get("options", ())),
                                 "placement": _pairs(a.get("placement", ()))})
                 for a in data.get("apps", []))
    fleets = tuple(build(FleetSpec, f) for f in data.get("fleets", []))
    tenants = tuple(
        build(TenantSpec, {**t, "slos": tuple(t.get("slos", ()))})
        for t in data.get("tenants", []))
    faults = tuple(build(FaultDecl, {**d, "at_us": tuple(d.get("at_us", ()))})
                   for d in data.get("faults", []))
    steering = tuple(
        build(SteeringSpec, {**s, "backends": tuple(s.get("backends", ()))})
        for s in data.get("steering", []))
    rebalance_data = data.get("rebalance")
    rebalance = (build(RebalanceSpec, rebalance_data)
                 if rebalance_data is not None else None)
    obs_data = dict(data.get("observability", {}))
    pulse_data = obs_data.pop("pulse", None)
    if pulse_data is None:
        pulse = None
    elif pulse_data is True:
        pulse = PulseSpec()        # "pulse": true — defaults
    else:
        pulse = build(PulseSpec, pulse_data)
    slos = tuple(
        SLOSpec.from_text(s) if isinstance(s, str) else build(SLOSpec, s)
        for s in obs_data.pop("slos", ()))
    obs = build(ObsSpec, {**obs_data, "pulse": pulse, "slos": slos})
    fabric = build(FabricSpec, data.get("fabric", {}))
    execution = build(ExecSpec, data.get("execution", {}))
    top = {k: v for k, v in data.items()
           if k not in ("racks", "apps", "fleets", "tenants", "faults",
                        "steering", "rebalance", "observability", "fabric",
                        "execution")}
    return build(ScenarioSpec, {
        **top, "racks": tuple(racks), "fabric": fabric, "apps": apps,
        "fleets": fleets, "tenants": tenants, "faults": faults,
        "steering": steering, "rebalance": rebalance, "observability": obs,
        "execution": execution})


def to_json(spec: ScenarioSpec, indent: int = 2) -> str:
    return json.dumps(to_dict(spec), indent=indent, sort_keys=False) + "\n"


def from_json(text: str) -> ScenarioSpec:
    return from_dict(json.loads(text))


def from_toml(text: str) -> ScenarioSpec:
    """TOML specs need ``tomllib`` (Python >= 3.11); gated, not required."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - version-dependent
        raise ScenarioError(
            ["TOML specs need Python >= 3.11 (tomllib); "
             "use the JSON form instead"]) from None
    return from_dict(tomllib.loads(text))


def from_file(path: str) -> ScenarioSpec:
    """Load a spec from a ``.json`` or ``.toml`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".toml"):
        return from_toml(text)
    return from_json(text)


def canonical_key(spec: ScenarioSpec) -> str:
    """Stable string form for cache keys (see ``repro.exec.cache``).

    Dataclass canonicalisation is field-ordered and address-free, so
    logically-equal specs produce equal keys across processes.
    """
    from ..exec.cache import canonical
    return canonical(spec)


# -- convenience constructors -------------------------------------------------

def single_rack(name: str, servers: Sequence[ServerSpec],
                clients: Sequence[str] = ("client",),
                fabric: Optional[FabricSpec] = None,
                **kwargs) -> ScenarioSpec:
    """The paper's topology: one ToR, N servers, client boxes."""
    rack = RackSpec(name="rack0", servers=tuple(servers),
                    clients=tuple(ClientSpec(c) for c in clients))
    return ScenarioSpec(name=name, racks=(rack,),
                        fabric=fabric or FabricSpec(), **kwargs)


def three_servers(nic: str = LIQUIDIO_CN2350.model, system: str = "ipipe",
                  host_workers: Optional[int] = None,
                  reliable: bool = False,
                  scheduler: Tuple[Tuple[str, Any], ...] = ()
                  ) -> Tuple[ServerSpec, ...]:
    """The s0/s1/s2 deployment every paper application runs on (§5.1)."""
    return tuple(ServerSpec(name=f"s{i}", nic=nic, system=system,
                            host_workers=host_workers, reliable=reliable,
                            scheduler=scheduler)
                 for i in range(3))
