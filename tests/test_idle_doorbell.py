"""Differential test: doorbell-parked host workers against the busy loop.

Idle host runtime threads used to re-arm ``Timeout(0.5)`` forever; they
now park on a :class:`~repro.sim.Doorbell` that wakes them at the poll
tick the loop would have hit (``docs/PERFORMANCE.md``).
:class:`BusyPollRuntime` keeps that loop verbatim.  Random testbeds —
one server, 1-4 host workers, host-pinned and NIC actors, host→host
messages, an on-path or off-path NIC, a 4-slot ring that drops, the
reliable channel, torn DMA writes and ring stalls — run on both
runtimes, and everything a run reports must be identical: handler
completions (time, actor, worker), reply times, per-worker busy time,
drops, ring and retransmit counters, and the telemetry snapshot.
Handler costs are drawn from a few round values, so workers often
share a poll lattice and contend at the very same instant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Actor, SchedulerConfig
from repro.core.actor import Location, Message, MigrationState
from repro.core.channel import Channel
from repro.core.runtime import ExecutionContext, IPipeRuntime
from repro.core.telemetry import snapshot
from repro.host.machine import HostMachine
from repro.net import Network, Packet
from repro.nic import BLUEFIELD_1M332A, LIQUIDIO_CN2350
from repro.nic.device import SmartNic
from repro.scenario.build import host_for
from repro.sim import (FaultKind, FaultPlane, FaultSpec, Simulator, Timeout,
                       spawn)


class BusyPollRuntime(IPipeRuntime):
    """The runtime with the host worker loop the doorbell replaced."""

    def _host_worker(self, worker_id: int):
        """Host runtime thread: "each runtime thread periodically polls
        requests from the channel and performs actor execution" (§5.1).
        The run queue takes priority; an idle worker polls the ring."""
        while self._running:
            busy_start = self.sim.now
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
                yield Timeout(0.5)
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


HORIZON_US = 200.0

# round costs put workers on shared poll lattices; arrivals mix
# continuous times with half-microsecond ones, dense enough to back up
# the rings
_costs = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_times = st.one_of(
    st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 80).map(lambda half_us: half_us * 0.5))

_plans = st.fixed_dictionaries({
    "off_path": st.booleans(),
    "workers": st.integers(1, 4),
    "channel": st.sampled_from(["plain", "tiny", "reliable"]),
    "torn_every": st.sampled_from([0, 0, 3, 5]),
    "stalls": st.lists(st.tuples(_times, st.floats(0.5, 30.0)), max_size=2),
    "actors": st.lists(
        st.fixed_dictionaries({
            "host": st.booleans(),
            "cost": _costs,
            "jitter": st.booleans(),
            "concurrent": st.booleans(),
            "forward": st.booleans(),
        }), min_size=1, max_size=3),
    "arrivals": st.lists(
        st.tuples(_times, st.integers(0, 2), st.sampled_from([64, 512]),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=60),
})


def _run(plan, runtime_cls):
    sim = Simulator()
    network = Network(sim, bandwidth_gbps=10)
    nic_spec = BLUEFIELD_1M332A if plan["off_path"] else LIQUIDIO_CN2350
    plane = FaultPlane(sim, seed=7)
    if plan["torn_every"]:
        plane.add(FaultSpec(FaultKind.DMA_TORN, target="server.chan.to_host",
                            every_nth=plan["torn_every"]))
    for at, duration in plan["stalls"]:
        plane.add(FaultSpec(FaultKind.RING_STALL,
                            target="server.chan.to_host", at_us=(at,),
                            duration_us=duration))
    machine = HostMachine(sim, host_for(nic_spec), name="server")
    nic = SmartNic(sim, nic_spec, name="server.nic")
    rt = runtime_cls(sim, nic, machine, network, "server",
                     config=SchedulerConfig(migration_enabled=False),
                     host_workers=plan["workers"],
                     reliable=plan["channel"] == "reliable",
                     fault_plane=plane)
    if plan["channel"] == "tiny":
        rt.channel = Channel(sim, rt._channel_dma, slots=4,
                             name="server.chan")

    done = []
    replies = []
    network.attach("client", lambda p: replies.append((sim.now, p.size)))
    actors = plan["actors"]

    def handler(spec, index):
        def handle(actor, msg, ctx):
            cost = spec["cost"] + (msg.payload if spec["jitter"] else 0.0)
            yield ctx.compute(us=cost)
            done.append((sim.now, actor.name, msg.kind, ctx.core_id))
            if msg.packet is not None:
                ctx.reply(msg, size=64)
                others = [f"a{j}" for j in range(len(actors)) if j != index]
                if spec["forward"] and others:
                    ctx.send(others[index % len(others)], kind="fwd",
                             payload=msg.payload)
        return handle

    for i, spec in enumerate(actors):
        rt.register_actor(
            Actor(f"a{i}", handler(spec, i),
                  location=Location.HOST if spec["host"] else Location.NIC,
                  pinned=spec["host"], concurrent=spec["concurrent"]),
            steering_keys=[f"k{i}"])
    for at, target, size, jitter in plan["arrivals"]:
        key = f"k{target % len(actors)}"
        sim.call_at(at, network.send,
                    Packet("client", "server", size, created_at=at, kind=key,
                           payload=jitter))
    sim.run(until=HORIZON_US)
    rt.stop()
    sim.run(until=HORIZON_US + 20.0)
    rings = [(r.produced, r.consumed, r.checksum_failures, r.nacks,
              r.sync_messages, len(r))
             for r in (rt.channel.to_host, rt.channel.to_nic)]
    rel = rt.rchannel
    return {
        "done": done,
        "replies": replies,
        "busy": [u.busy_time for u in rt.host_util],
        "drops": rt.channel_drops,
        "host_ops": rt.host_ops,
        "rings": rings,
        "reliable": (None if rel is None else
                     (rel.retransmits, rel.recovered, rel.duplicates_dropped,
                      tuple(rel.mttr_samples))),
        "snapshot": repr(snapshot(rt, HORIZON_US)),
    }


@settings(max_examples=60)
@given(_plans)
def test_doorbell_matches_the_busy_poll_loop(plan):
    assert _run(plan, IPipeRuntime) == _run(plan, BusyPollRuntime)


def _burst(channel, workers, torn_every=0, stalls=()):
    return {"off_path": False, "workers": workers, "channel": channel,
            "torn_every": torn_every, "stalls": list(stalls),
            "actors": [{"host": True, "cost": 1.0, "jitter": False,
                        "concurrent": False, "forward": True},
                       {"host": True, "cost": 1.5, "jitter": True,
                        "concurrent": True, "forward": False},
                       {"host": False, "cost": 0.5, "jitter": False,
                        "concurrent": False, "forward": True}],
            "arrivals": [(0.1 + 0.37 * i, i, 512, (i * 0.29) % 1.0)
                         for i in range(60)]}


def test_a_full_tiny_ring_drops_the_same_requests():
    doorbell = _run(_burst("tiny", workers=3), IPipeRuntime)
    assert doorbell == _run(_burst("tiny", workers=3), BusyPollRuntime)
    assert doorbell["drops"] > 0


def test_torn_writes_and_stalls_recover_the_same_way():
    plan = _burst("reliable", workers=4, torn_every=3,
                  stalls=[(5.0, 12.0), (20.25, 3.5)])
    doorbell = _run(plan, IPipeRuntime)
    assert doorbell == _run(plan, BusyPollRuntime)
    assert doorbell["reliable"][0] > 0          # retransmits happened


def _tie_testbed(runtime_cls, put_at: float, lead: float):
    """One host worker parked since t=0 (ticks 0.5, 1.0, ...) and a
    host→host message put at ``put_at`` by an event posted ``lead``
    earlier; returns when the worker picked the message up."""
    sim = Simulator()
    network = Network(sim, bandwidth_gbps=10)
    machine = HostMachine(sim, host_for(LIQUIDIO_CN2350), name="server")
    nic = SmartNic(sim, LIQUIDIO_CN2350, name="server.nic")
    rt = runtime_cls(sim, nic, machine, network, "server",
                     config=SchedulerConfig(migration_enabled=False),
                     host_workers=1)
    started = []
    rt.register_actor(
        Actor("sink", lambda actor, msg, ctx: started.append(sim.now),
              location=Location.HOST, pinned=True),
        steering_keys=["sink"])

    def producer():
        yield Timeout(put_at - lead)
        yield Timeout(lead)
        rt.route_local(Message(target="sink", kind="m", size=64,
                               created_at=sim.now), origin=Location.HOST)

    spawn(sim, producer(), name="producer")
    sim.run(until=put_at + 5.0)
    return started


def test_work_landing_exactly_on_a_tick_is_taken_at_that_tick():
    """The one rule the doorbell picks rather than inherits: a put at the
    instant of a parked worker's poll is seen by that poll.  The busy
    loop left it to heap order: when the put's event was posted after
    the poll's timeout was armed (half a microsecond before), the poll
    ran first and the work waited a whole period."""
    assert _tie_testbed(IPipeRuntime, 3.0, lead=0.25) == [3.0]
    assert _tie_testbed(BusyPollRuntime, 3.0, lead=0.25) == [3.5]
    # posted before the poll was armed: the busy loop agrees
    assert _tie_testbed(IPipeRuntime, 3.0, lead=1.0) == [3.0]
    assert _tie_testbed(BusyPollRuntime, 3.0, lead=1.0) == [3.0]
    # off the lattice: both take it at the next tick
    assert _tie_testbed(IPipeRuntime, 3.2, lead=0.25) == [3.5]
    assert _tie_testbed(BusyPollRuntime, 3.2, lead=0.25) == [3.5]
