"""Tracing invariants: span lifecycle, parenthood, cross-node propagation.

Runs one traced chaos scenario per module (cached in a fixture) and
asserts the structural guarantees docs/OBSERVABILITY.md promises:

* every span closes, with ``end_us >= start_us``;
* a span claiming a parent is strictly contained in that parent's
  interval (service ⊇ accel, migration ⊇ phases);
* trace ids survive cross-node hops — one client request's trace has
  spans on multiple servers (Paxos replication) and on both sides of
  the host↔NIC rings;
* tracing is invisible to the simulation: the deterministic-replay
  fingerprint is identical with the TracePlane on or off.
"""

import pytest

from repro.core import Actor
from repro.core.actor import Location
from repro.experiments.chaos_study import ChaosClient, run_rkv_chaos
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350
from repro.obs import TracePlane, Tracer


@pytest.fixture(scope="module")
def traced_report():
    return run_rkv_chaos(seed=11, n_requests=24, duration_us=30_000.0,
                         trace=True)


def _spans(report):
    return list(report.trace_plane.spans)


def test_every_span_closes(traced_report):
    spans = _spans(traced_report)
    assert spans, "traced run recorded no spans"
    assert traced_report.trace_plane.tracer.open_spans == []
    for span in spans:
        assert span.closed
        assert span.end_us >= span.start_us


def _assert_containment(spans):
    by_id = {s.span_id: s for s in spans}
    children = [s for s in spans if s.parent_id is not None]
    eps = 1e-9
    for child in children:
        parent = by_id.get(child.parent_id)
        assert parent is not None, f"{child!r} names a missing parent"
        assert parent.trace_id == child.trace_id
        assert parent.start_us - eps <= child.start_us
        assert child.end_us <= parent.end_us + eps
    return children


def test_child_contained_in_parent(traced_report):
    """Any span claiming a parent in the chaos run is contained in it."""
    _assert_containment(_spans(traced_report))


def test_accel_span_nested_in_service():
    """An accelerator invocation becomes a child span strictly inside the
    service span of the handler that issued it."""
    bed = make_testbed(seed=3)
    plane = TracePlane(bed.sim)

    def handler(actor, msg, ctx):
        yield from ctx.accelerator("crc", nbytes=2048)
        ctx.reply(msg, size=64)

    server = bed.add_server("s0", LIQUIDIO_CN2350)
    server.runtime.register_actor(Actor("crc", handler, location=Location.NIC))
    client = ChaosClient(bed.sim, bed.network)
    client.request("s0", "crc", {})
    bed.sim.run(until=10_000.0)
    assert client.answered == 1

    spans = list(plane.spans)
    accels = [s for s in spans if s.cat == "accel"]
    assert accels, "accelerator call recorded no span"
    children = _assert_containment(spans)
    assert accels[0] in children
    by_id = {s.span_id: s for s in spans}
    assert by_id[accels[0].parent_id].cat == "service"


def test_trace_ids_cross_nodes(traced_report):
    """Paxos replication spans land on the followers under the same
    trace id the client request started on the leader."""
    by_trace = {}
    for span in _spans(traced_report):
        by_trace.setdefault(span.trace_id, []).append(span)
    multi_node = [spans for spans in by_trace.values()
                  if len({s.node for s in spans if s.node} - {"client"}) >= 2]
    assert multi_node, "no trace spans more than one server"
    # at least one replicated request shows remote service execution
    assert any(
        {s.node for s in spans if s.cat == "service"} >= {"s0", "s1"}
        for spans in multi_node)


def test_trace_ids_cross_ring(traced_report):
    """Cold gets cross the NIC→host ring; the channel and host spans must
    stay on the trace that entered at NIC ingress."""
    by_trace = {}
    for span in _spans(traced_report):
        by_trace.setdefault(span.trace_id, set()).add(span.cat)
    assert any({"ingress", "sched.wait", "service"} <= cats
               for cats in by_trace.values())
    assert any({"channel", "host"} <= cats for cats in by_trace.values()), \
        "no trace crossed the host↔NIC rings intact"


def test_stage_order_within_trace(traced_report):
    """Virtual-time causality: ingress precedes queue wait precedes
    service within every trace that has all three."""
    by_trace = {}
    for span in _spans(traced_report):
        by_trace.setdefault(span.trace_id, []).append(span)
    checked = 0
    for spans in by_trace.values():
        firsts = {}
        for s in spans:
            if s.cat in ("ingress", "sched.wait", "service"):
                if s.cat not in firsts or s.start_us < firsts[s.cat]:
                    firsts[s.cat] = s.start_us
        if len(firsts) == 3:
            assert firsts["ingress"] <= firsts["sched.wait"] <= firsts["service"]
            checked += 1
    assert checked > 0


def test_retransmit_spans_present(traced_report):
    """The default scenario injects torn DMA writes; their nack/recovery
    path must be visible as channel.retx spans."""
    cats = {s.cat for s in _spans(traced_report)}
    assert "channel.retx" in cats


def test_stage_latencies_in_report(traced_report):
    stages = traced_report.stage_latencies
    for required in ("ingress", "sched.wait", "service", "link"):
        assert required in stages
        assert stages[required]["count"] > 0
        assert stages[required]["p99_us"] >= stages[required]["p50_us"] >= 0.0


def test_tracing_does_not_perturb_replay():
    """Same seed, TracePlane on vs off: byte-identical fingerprints."""
    plain = run_rkv_chaos(seed=17, n_requests=15, duration_us=25_000.0)
    traced = run_rkv_chaos(seed=17, n_requests=15, duration_us=25_000.0,
                           trace=True)
    assert plain.telemetry_fingerprint() == traced.telemetry_fingerprint()
    assert traced.stage_latencies and not plain.stage_latencies


def test_tracer_bounds_span_retention():
    class _Sim:
        now = 0.0
        tracer = metrics = checker = pulse = None

    tracer = Tracer(_Sim(), max_spans=10)
    for i in range(25):
        tracer.record_span(f"s{i}", "service", float(i), float(i) + 1.0)
    assert len(tracer.spans) == 10
    assert tracer.dropped == 15
    # the survivors are the newest
    assert [s.name for s in tracer.spans] == [f"s{i}" for i in range(15, 25)]


def test_traceplane_disabled_installs_nothing():
    class _Sim:
        now = 0.0
        tracer = metrics = checker = pulse = None

    sim = _Sim()
    plane = TracePlane(sim, enabled=False)
    assert sim.tracer is None
    assert plane.spans == ()
    assert plane.stage_breakdown() == {}
    assert plane.metrics_snapshot() == {}
