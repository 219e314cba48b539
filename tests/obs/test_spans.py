"""The sans-I/O span model: ids, context, ring buffer, tree, export.

Everything here is pure — no sockets, no processes.  The recorder's
contract is what the serving path leans on: recording never raises,
never blocks unboundedly, never grows without bound, and a disabled
recorder costs one falsy branch.
"""

import pytest

from repro.obs import (
    NULL_SPAN,
    SPAN_ID_BYTES,
    TRACE_ID_BYTES,
    WIRE_CONTEXT_BYTES,
    SpanRecorder,
    TraceContext,
    build_trace_tree,
    chrome_trace_events,
    new_span_id,
    new_trace_id,
)


# ----------------------------------------------------------------------
# Ids and the wire context
# ----------------------------------------------------------------------
def test_ids_are_hex_and_fresh():
    tid, sid = new_trace_id(), new_span_id()
    assert len(tid) == TRACE_ID_BYTES * 2
    assert len(sid) == SPAN_ID_BYTES * 2
    bytes.fromhex(tid), bytes.fromhex(sid)  # raises if not hex
    assert new_trace_id() != tid
    assert new_span_id() != sid


def test_context_wire_round_trip():
    ctx = TraceContext.new()
    blob = ctx.to_wire()
    assert len(blob) == WIRE_CONTEXT_BYTES == 24
    assert TraceContext.from_wire(blob) == ctx


def test_context_rejects_wrong_widths():
    with pytest.raises(ValueError):
        TraceContext.from_wire(b"\x00" * 23)
    with pytest.raises(ValueError):
        TraceContext("ab" * 15, "cd" * 8)  # short trace id
    with pytest.raises(ValueError):
        TraceContext("ab" * 16, "cd" * 9)  # long span id


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_context_manager_records_on_exit():
    recorder = SpanRecorder(capacity=8)
    with recorder.span("parse") as span:
        span.set_attribute("bytes", 42)
    [record] = recorder.snapshot()
    assert record["name"] == "parse"
    assert record["status"] == "ok"
    assert record["attributes"] == {"bytes": 42}
    assert record["parent_id"] is None
    assert record["duration_ms"] >= 0.0


def test_span_error_status_carries_the_exception():
    recorder = SpanRecorder(capacity=8)
    with pytest.raises(RuntimeError):
        with recorder.span("execute"):
            raise RuntimeError("boom")
    [record] = recorder.snapshot()
    assert record["status"] == "error"
    assert "boom" in record["attributes"]["error"]


def test_attributes_are_json_clean_by_construction():
    recorder = SpanRecorder(capacity=8)
    with recorder.span("op") as span:
        span.set_attribute("codec", "gorilla")
        span.set_attribute("n", 7)
        span.set_attribute("ratio", 0.5)
        span.set_attribute("ok", True)
        span.set_attribute("weird", object())  # coerced to str
        span.set_attribute("absent", None)  # dropped, not null
    attrs = recorder.snapshot()[0]["attributes"]
    assert attrs["codec"] == "gorilla" and attrs["n"] == 7
    assert isinstance(attrs["weird"], str)
    assert "absent" not in attrs


def test_child_inherits_trace_and_parents_on_span_or_context():
    recorder = SpanRecorder(capacity=8)
    root = recorder.span("root")
    local_child = recorder.span("local", parent=root)
    remote_child = recorder.span("remote", parent=root.context)
    assert local_child.trace_id == root.trace_id
    assert remote_child.trace_id == root.trace_id
    assert local_child.parent_id == root.span_id
    assert remote_child.parent_id == root.span_id


# ----------------------------------------------------------------------
# NULL_SPAN: the disabled path
# ----------------------------------------------------------------------
def test_disabled_recorder_hands_out_the_null_span():
    recorder = SpanRecorder(capacity=8, enabled=False)
    span = recorder.span("anything")
    assert span is NULL_SPAN
    assert not span  # falsy: call sites can branch cheaply
    with span as inner:  # absorbs the whole Span surface
        inner.set_attribute("k", "v")
        inner.set_error(RuntimeError("ignored"))
    assert span.context is None
    assert recorder.snapshot() == []
    assert recorder.stats()["recorded"] == 0


# ----------------------------------------------------------------------
# The ring buffer
# ----------------------------------------------------------------------
def test_ring_drops_oldest_and_counts_the_loss():
    recorder = SpanRecorder(capacity=3)
    for index in range(5):
        recorder.span(f"s{index}").finish()
    stats = recorder.stats()
    assert stats == {
        "enabled": True,
        "capacity": 3,
        "buffered": 3,
        "recorded": 5,
        "dropped": 2,
    }
    assert [s["name"] for s in recorder.snapshot()] == ["s2", "s3", "s4"]


def test_snapshot_limit_takes_the_most_recent_window():
    recorder = SpanRecorder(capacity=16)
    for index in range(6):
        recorder.span(f"s{index}").finish()
    assert [s["name"] for s in recorder.snapshot(limit=2)] == ["s4", "s5"]


def test_trace_filter_and_trace_ids():
    recorder = SpanRecorder(capacity=16)
    a = recorder.span("a")
    recorder.span("a.child", parent=a).finish()
    a.finish()
    b = recorder.span("b")
    b.finish()
    assert recorder.trace_ids() == [a.trace_id, b.trace_id]
    names = [s["name"] for s in recorder.trace(a.trace_id)]
    assert names == ["a", "a.child"]  # start-ordered, b excluded


def test_clear_and_invalid_capacity():
    recorder = SpanRecorder(capacity=4)
    recorder.span("x").finish()
    recorder.clear()
    assert recorder.snapshot() == []
    with pytest.raises(ValueError):
        SpanRecorder(capacity=0)


# ----------------------------------------------------------------------
# Tree building and Chrome export
# ----------------------------------------------------------------------
def _flat(recorder=None):
    recorder = recorder or SpanRecorder(capacity=16)
    root = recorder.span("root")
    second = recorder.span("second", parent=root)
    second.finish()
    first = recorder.span("first", parent=root)
    first.start = second.start - 1.0  # force start-order != record-order
    first.finish()
    root.finish()
    return recorder.snapshot()


def test_tree_nests_and_orders_children_by_start():
    [tree] = build_trace_tree(_flat())
    assert tree["name"] == "root"
    assert [child["name"] for child in tree["children"]] == [
        "first",
        "second",
    ]


def test_orphan_span_becomes_a_root_not_an_error():
    spans = _flat()
    orphan = dict(spans[0], span_id="ff" * 8, parent_id="ee" * 8)
    roots = build_trace_tree(spans + [orphan])
    assert {root["span_id"] for root in roots} == {
        spans[-1]["span_id"],
        "ff" * 8,
    }


def test_chrome_events_are_complete_phase_with_span_args():
    spans = _flat()
    events = chrome_trace_events(spans)
    assert len(events) == len(spans)
    for event, span in zip(events, spans):
        assert event["ph"] == "X"
        assert event["name"] == span["name"]
        assert event["ts"] == pytest.approx(span["start"] * 1e6)
        assert event["args"]["trace_id"] == span["trace_id"]
