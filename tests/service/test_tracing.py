"""End-to-end tracing: the FLAG_TRACE wire field and the span trees.

Wire half: the 24-byte trace context rides the flagged header exactly
like the deadline and tenant fields — unflagged frames stay
byte-identical to protocol v1, hostile inputs get typed errors, never
junk.  Service half: one traced compress renders as one coherent tree
— client attempt, server admission stages, queue wait, and the
worker-process execution span — retrievable over the ``TRACE``
request type.
"""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.obs import NULL_SPAN, TraceContext, build_trace_tree
from repro.service import ServiceClient, serve_background
from repro.service.tenants import TenantConfig, TenantRegistry
from repro.service.protocol import (
    COMPRESS,
    ERROR,
    FLAG_BIT,
    MAGIC,
    PING,
    TRACE,
    FrameParser,
    decode_trace_request,
    encode_frame,
    encode_trace_request,
    response_type,
)

ADMISSION_STAGES = {
    "server.parse",
    "server.deadline",
    "server.auth",
    "server.gate",
    "server.quota",
    "server.queue_wait",
    "server.execute",
}


# ----------------------------------------------------------------------
# FLAG_TRACE on the wire
# ----------------------------------------------------------------------
def _ctx():
    return TraceContext("ab" * 16, "cd" * 8)


def test_untraced_frames_are_byte_identical_to_v1():
    assert encode_frame(PING, 1, b"x", None, None, None) == encode_frame(
        PING, 1, b"x"
    )
    blob = encode_frame(PING, 1, b"x")
    assert blob[len(MAGIC)] & FLAG_BIT == 0


def test_trace_context_round_trips_alone():
    blob = encode_frame(COMPRESS, 9, b"payload", trace_context=_ctx().to_wire())
    assert blob[len(MAGIC)] == COMPRESS | FLAG_BIT
    [frame] = FrameParser().feed(blob)
    assert frame.frame_type == COMPRESS
    assert frame.request_id == 9
    assert frame.payload == b"payload"
    assert frame.deadline_ms is None and frame.tenant_token is None
    assert TraceContext.from_wire(frame.trace_context) == _ctx()


def test_trace_context_round_trips_with_deadline_and_tenant():
    blob = encode_frame(COMPRESS, 2, b"p", 1500, "tok-gold", _ctx().to_wire())
    [frame] = FrameParser().feed(blob)
    assert frame.deadline_ms == 1500
    assert frame.tenant_token == "tok-gold"
    assert TraceContext.from_wire(frame.trace_context) == _ctx()


def test_trace_context_must_be_exactly_24_bytes():
    for width in (0, 23, 25):
        with pytest.raises(ValueError, match="trace context"):
            encode_frame(PING, 1, b"", trace_context=b"\xab" * width)


def test_trace_context_refused_on_response_and_error_frames():
    ctx = _ctx().to_wire()
    with pytest.raises(ValueError):
        encode_frame(response_type(PING), 1, b"", trace_context=ctx)
    with pytest.raises(ValueError):
        encode_frame(ERROR, 1, b"", trace_context=ctx)


def test_truncated_traced_frames_never_leak_a_frame():
    blob = encode_frame(COMPRESS, 3, b"data", 99, None, _ctx().to_wire())
    for cut in range(len(blob)):
        parser = FrameParser()
        try:
            frames = parser.feed(blob[:cut])
        except ProtocolError:
            continue
        assert frames == []


def test_trace_request_payload_round_trips():
    assert decode_trace_request(encode_trace_request()) == (None, None)
    assert decode_trace_request(encode_trace_request(limit=50)) == (50, None)
    assert decode_trace_request(
        encode_trace_request(limit=5, trace_id="ab" * 16)
    ) == (5, "ab" * 16)


def test_trace_request_rejects_hostile_values():
    for limit in (0, -1, 1 << 20):
        with pytest.raises(ValueError):
            encode_trace_request(limit=limit)
    with pytest.raises(ValueError):
        encode_trace_request(trace_id="")
    with pytest.raises(ValueError):
        encode_trace_request(trace_id="x" * 65)
    with pytest.raises(ProtocolError):
        decode_trace_request(b'{"limit": true}')  # bool is not a count
    with pytest.raises(ProtocolError):
        decode_trace_request(b'{"trace_id": 7}')
    with pytest.raises(ProtocolError):
        decode_trace_request(b"\xff not json")


# ----------------------------------------------------------------------
# The traced service, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced():
    registry = TenantRegistry()
    registry.add(TenantConfig("acme", token="tr-acme"))
    handle = serve_background(
        trace=True, tenants=registry
    )
    array = np.cumsum(np.random.default_rng(7).normal(0, 1, 4096))
    with ServiceClient(
        handle.host, handle.port, trace=True, token="tr-acme"
    ) as client:
        blob = client.compress_array(array, "gorilla")
        round_tripped = client.decompress_array(blob)
        # Snapshot before the trace fetch: the TRACE exchange itself
        # opens a client.request span the server does not trace.
        client_spans = client.recorder.snapshot()
        document = client.trace(limit=500)
    yield handle, document, client_spans, array, round_tripped
    handle.stop()


def test_round_trip_still_byte_exact_when_traced(traced):
    _, _, _, array, round_tripped = traced
    assert np.array_equal(round_tripped, array)


def test_server_renders_one_tree_per_request(traced):
    _, document, _, _, _ = traced
    roots = [
        root
        for root in build_trace_tree(document["spans"])
        if root["name"] == "server.request"
    ]
    assert len(roots) >= 2  # one compress, one decompress
    for root in roots:
        children = {child["name"] for child in root["children"]}
        assert ADMISSION_STAGES <= children
        assert root["status"] == "ok"


def test_client_and_server_share_the_trace(traced):
    _, document, client_spans, _, _ = traced
    client_roots = [s for s in client_spans if s["name"] == "client.request"]
    assert len(client_roots) >= 2
    attempts = {s["name"] for s in client_spans}
    assert "client.attempt" in attempts
    server_trace_ids = {s["trace_id"] for s in document["spans"]}
    for root in client_roots:
        # FLAG_TRACE carried the client's context: the server-side
        # spans belong to the *client's* trace, not a fresh one.
        assert root["trace_id"] in server_trace_ids


def test_execute_span_crosses_the_process_pool(traced):
    _, document, _, _, _ = traced
    executes = [
        span for span in document["spans"] if span["name"] == "server.execute"
    ]
    assert executes
    waits = [
        span
        for span in document["spans"]
        if span["name"] == "server.queue_wait"
    ]
    assert waits
    # queue_wait is backdated over the stamp-to-execute gap: it must
    # start no later than its trace's execute span.
    by_trace = {span["trace_id"]: span for span in executes}
    for wait in waits:
        execute = by_trace.get(wait["trace_id"])
        if execute is not None:
            assert wait["start"] <= execute["start"] + 1e-3


def test_the_loop_time_of_placing_an_auto_compress_is_recorded():
    # Selecting an `auto` compress runs on the loop between the queue
    # wait and the execute span: its queue_wait span carries that time,
    # and the request still renders the same stages, no more.
    from repro.api import compress_array
    from repro.data.loader import load

    array = load("tpcH-order", 16384, 0)
    with serve_background(trace=True) as handle:
        with ServiceClient(handle.host, handle.port, trace=True) as client:
            assert client.compress_array(
                array, "auto", chunk_elements=4096
            ) == compress_array(array, "auto", chunk_elements=4096)
            document = client.trace(limit=100)
    (wait,) = [
        span
        for span in document["spans"]
        if span["name"] == "server.queue_wait"
    ]
    assert wait["attributes"]["loop_place_ms"] > 0
    (root,) = build_trace_tree(document["spans"])
    assert {child["name"] for child in root["children"]} == {
        "server.parse",
        "server.deadline",
        "server.gate",
        "server.queue_wait",
        "server.execute",
    }


def test_stats_document_exposes_ring_counters_when_traced(traced):
    handle, document, _, _, _ = traced
    stats = handle.server.stats_document()["tracing"]
    assert stats["enabled"] is True
    assert stats["recorded"] >= len(document["spans"]) > 0
    assert document["stats"]["enabled"] is True


def test_untraced_server_answers_trace_requests_honestly():
    handle = serve_background()
    try:
        assert "tracing" not in handle.server.stats_document()
        with ServiceClient(handle.host, handle.port) as client:
            client.compress_array(np.arange(64, dtype=np.float64), "gorilla")
            document = client.trace()
        assert document["stats"]["enabled"] is False
        assert document["spans"] == []
    finally:
        handle.stop()


def test_untraced_client_mints_no_spans():
    handle = serve_background()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            client.compress_array(np.arange(64, dtype=np.float64), "gorilla")
            assert client.recorder.span("x") is NULL_SPAN
            assert client.recorder.snapshot() == []
    finally:
        handle.stop()


def test_trace_is_a_first_class_request_type():
    assert TRACE == 0x09
