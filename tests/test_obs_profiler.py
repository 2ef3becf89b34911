"""Profiler: folds, stage tables, Chrome trace_event export."""

import json

import pytest

from repro.obs import (
    Tracer,
    fold,
    render_flame,
    render_stages,
    stage_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profiler import STAGE_ORDER


class _Sim:
    now = 0.0
    tracer = metrics = checker = pulse = None


def _sample_spans():
    tracer = Tracer(_Sim())
    trace = (tracer.new_trace(), 0)
    tracer.record_span("rx", "ingress", 0.0, 0.0, trace=trace,
                       node="s0", track="nic-rx")
    tracer.record_span("queue-wait", "sched.wait", 0.0, 4.0, trace=trace,
                       node="s0", track="core0", actor="kv")
    svc = tracer.record_span("exec:kv", "service", 4.0, 16.0, trace=trace,
                             node="s0", track="core0", actor="kv")
    tracer.record_span("crc", "accel", 6.0, 8.0, parent=svc,
                       node="s0", track="core0", engine="crc")
    tracer.record_span("cross", "channel", 16.0, 18.0, trace=trace,
                       node="s0", track="s0.chan.to_host")
    tracer.record_span("host:sst", "host", 18.0, 40.0, trace=trace,
                       node="s0", track="hostw0", actor="sst")
    return list(tracer.spans)


def test_stage_breakdown_orders_stages():
    stages = stage_breakdown(_sample_spans())
    names = list(stages)
    assert names == sorted(names, key=lambda n: STAGE_ORDER.index(n))
    assert stages["service"].count == 1
    assert stages["service"].p50_us == pytest.approx(12.0)
    assert stages["service"].total_us == pytest.approx(12.0)
    assert stages["host"].mean_us == pytest.approx(22.0)


def test_fold_by_node_cat_actor():
    rows = fold(_sample_spans(), by=("node", "cat", "actor"))
    # sorted by descending total time: the 22µs host span leads
    assert rows[0]["cat"] == "host"
    assert rows[0]["actor"] == "sst"
    assert rows[0]["total_us"] == pytest.approx(22.0)
    svc = next(r for r in rows if r["cat"] == "service")
    assert svc["actor"] == "kv"
    assert svc["count"] == 1


def test_fold_skips_open_spans():
    tracer = Tracer(_Sim())
    tracer.start_span("never-ends", "service")
    assert fold(tracer.spans) == []
    assert stage_breakdown(tracer.spans) == {}


def test_render_flame_and_stages_are_textual():
    spans = _sample_spans()
    flame = render_flame(fold(spans), by=("node", "cat", "actor"))
    assert "host" in flame and "share" in flame
    table = render_stages(stage_breakdown(spans))
    assert "p99(µs)" in table and "service" in table
    assert render_flame([], by=("cat",)) == "(no spans recorded)"
    assert render_stages({}) == "(no spans recorded)"


def test_chrome_trace_structure():
    doc = to_chrome_trace(_sample_spans())
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 6
    assert any(m["name"] == "process_name"
               and m["args"]["name"] == "s0" for m in metas)
    assert any(m["name"] == "thread_name"
               and m["args"]["name"] == "core0" for m in metas)
    for e in xs:
        assert e["dur"] > 0.0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert "trace_id" in e["args"]
    accel = next(e for e in xs if e["cat"] == "accel")
    assert "parent_id" in accel["args"]
    # same node → same pid; distinct tracks → distinct tids
    pids = {e["pid"] for e in xs}
    assert len(pids) == 1
    assert len({e["tid"] for e in xs}) == 4
    json.dumps(doc)        # must be serializable as-is


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(_sample_spans(), str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count
    assert doc["otherData"]["clock"] == "virtual-us"


def test_non_scalar_attrs_are_stringified():
    tracer = Tracer(_Sim())
    tracer.record_span("s", "service", 0.0, 1.0, payload={"k": 1})
    doc = to_chrome_trace(tracer.spans)
    ev = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert isinstance(ev["args"]["payload"], str)
    json.dumps(doc)
