"""Span folding and self time on hand-built trees, and the tracer."""

import sys
import types

import pytest

from bench import spans


def span(id, parent, name, start, end, request="r"):
    return {"id": id, "parent": parent, "request": request, "name": name,
            "start": start, "end": end}  # fmt: skip


def test_self_time_is_duration_minus_what_children_cover():
    tree = [
        span(1, None, "request", 0.0, 10.0),
        span(2, 1, "parse", 1.0, 2.0),
        span(3, 1, "execute", 4.0, 9.0),
        span(4, 3, "codec", 5.0, 8.0),
    ]
    self_s = {s["name"]: seconds for s, seconds in spans.self_times(tree)}
    assert self_s == {"request": 4.0, "parse": 1.0, "execute": 2.0, "codec": 3.0}
    # Self times of one tree add up to the root's duration.
    assert sum(self_s.values()) == 10.0


def test_overlapping_children_are_counted_once_and_clipped_to_the_parent():
    tree = [
        span("a", None, "request", 0.0, 10.0),
        span("b", "a", "parse", 1.0, 5.0),
        span("c", "a", "queue_wait", 3.0, 7.0),  # starts inside parse
        span("d", "a", "reply", 9.0, 12.0),  # clock jitter past the parent
    ]
    self_s = {s["name"]: seconds for s, seconds in spans.self_times(tree)}
    assert self_s["request"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_s["reply"] == 3.0


def test_fold_groups_self_time_in_ms_by_name_across_requests():
    forest = [
        span(1, None, "request", 0.0, 0.004, "r1"),
        span(2, 1, "execute", 0.001, 0.003, "r1"),
        span(3, None, "request", 1.0, 1.010, "r2"),
        span(4, 3, "execute", 1.002, 1.003, "r2"),
    ]
    folded = spans.fold_self_ms(forest)
    assert folded["request"] == pytest.approx([2.0, 9.0])
    assert folded["execute"] == pytest.approx([2.0, 1.0])


def test_program_spans_fold_like_the_benchmarks_own():
    records = [
        {"span_id": "p", "parent_id": None, "trace_id": "t", "name": "client.request",
         "start": 100.0, "duration_ms": 4.0, "status": "ok", "attributes": {}},
        {"span_id": "c", "parent_id": "p", "trace_id": "t", "name": "server.request",
         "start": 100.001, "duration_ms": 2.5, "status": "ok", "attributes": {}},
    ]  # fmt: skip
    converted = spans.from_program(records)
    assert converted[1]["parent"] == "p" and converted[1]["request"] == "t"
    folded = spans.fold_self_ms(converted)
    assert folded["client.request"] == pytest.approx([1.5])
    assert folded["server.request"] == pytest.approx([2.5])


def test_tracer_links_children_to_the_open_span_and_shares_the_request_id():
    tracer = spans.Tracer()
    with tracer.span("op", request="compress/mpc/0") as outer:
        with tracer.span("api") as middle:
            with tracer.span("codec") as inner:
                pass
        with tracer.span("check") as sibling:
            pass
    assert inner["parent"] == middle["id"] and middle["parent"] == outer["id"]
    assert sibling["parent"] == outer["id"] and outer["parent"] is None
    assert {s["request"] for s in tracer.spans} == {"compress/mpc/0"}
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    # Children finish first; take() empties the recorder.
    assert [s["name"] for s in tracer.take()] == ["codec", "api", "check", "op"]
    assert tracer.spans == []


def test_a_span_is_recorded_when_the_call_inside_it_raises():
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer.span("op"):
            raise KeyError("boom")
    assert tracer.spans[0]["end"] is not None
    with tracer.span("next") as after:
        pass
    assert after["parent"] is None


def test_instrumented_wraps_from_imports_and_puts_them_back():
    owner = types.ModuleType("repro._bench_probe_owner")
    user = types.ModuleType("repro._bench_probe_user")

    def encode(codec, data):
        return f"{codec}:{data}"

    owner.encode = user.encode = encode  # ``from owner import encode``
    user.unrelated = len
    sys.modules[owner.__name__], sys.modules[user.__name__] = owner, user
    tracer = spans.Tracer()
    try:
        target = (encode, lambda codec, *a: f"compressors.{codec}.compress")
        with spans.instrumented(tracer, [target]):
            assert user.encode is not encode and owner.encode is not encode
            with tracer.span("api"):
                assert user.encode("mpc", "x") == "mpc:x"
        assert user.encode is encode and owner.encode is encode
        assert user.unrelated is len
    finally:
        del sys.modules[owner.__name__], sys.modules[user.__name__]
    codec, api = tracer.spans
    assert codec["name"] == "compressors.mpc.compress"
    assert codec["parent"] == api["id"]
