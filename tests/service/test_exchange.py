"""The client core: one sans-I/O exchange, two drivers, one surface.

Three layers, bottom up:

* :class:`~repro.service.exchange.Exchange` driven with plain bytes —
  every outcome of one request/response pairing, and whether the
  connection may carry another request afterwards;
* the contract that the blocking-socket and the asyncio driver put
  byte-identical request frames on the wire for every operation of the
  declared surface, pinned against ``protocol.encode_frame`` itself;
* regression tests for the two defects the drivers had grown apart on:
  a dead socket pooled after a framing-level error, and a stale reply
  mis-paired after a cancelled asyncio request.
"""

import asyncio

import numpy as np
import pytest

from repro.api.frames import DEFAULT_CHUNK_ELEMENTS
from repro.errors import CorruptStreamError, ProtocolError, ServerOverloadedError
from repro.obs import TraceContext
from repro.service import AsyncServiceClient, ServiceClient, serve_background
from repro.service import protocol
from repro.service.client import RequestSurface, _Connection
from repro.service.exchange import Exchange
from repro.service.protocol import (
    COMPRESS,
    ERR_CORRUPT_STREAM,
    ERR_PROTOCOL,
    ERROR,
    PING,
    FrameParser,
    encode_error,
    encode_frame,
    response_type,
)

ARRAY = np.linspace(0.0, 1.0, 64)
TOPOLOGY = {
    "version": 1,
    "replication": 1,
    "vnodes": 8,
    "nodes": [{"id": "n0", "host": "127.0.0.1", "port": 9, "state": "up"}],
}


# ----------------------------------------------------------------------
# The exchange, without sockets
# ----------------------------------------------------------------------
def _ping(request_id: int = 7) -> Exchange:
    return Exchange(PING, request_id, b"hello")


def _pong(request_id: int = 7, payload: bytes = b"hello") -> bytes:
    return encode_frame(response_type(PING), request_id, payload)


def test_request_bytes_are_encode_frame():
    exchange = Exchange(
        COMPRESS, 3, b"body", deadline_ms=250, tenant_token="t", trace_context=b"x" * 24
    )
    assert exchange.request == encode_frame(
        COMPRESS, 3, b"body", 250, tenant_token="t", trace_context=b"x" * 24
    )
    assert _ping().request == encode_frame(PING, 7, b"hello")  # v1 bytes, unflagged


def test_reply_fed_one_byte_at_a_time_then_all_at_once():
    exchange = _ping()
    reply = _pong()
    for index in range(len(reply) - 1):
        assert exchange.feed(reply[index : index + 1]) is None
        assert not exchange.in_sync  # abandoning it now would poison the stream
    frame = exchange.feed(reply[-1:])
    assert frame.payload == b"hello" and exchange.in_sync

    whole = _ping()
    assert whole.feed(reply).payload == b"hello"
    assert whole.in_sync


@pytest.mark.parametrize(
    "reply, message",
    [
        (_pong() + _pong(), "2 frames"),
        (_pong() + b"FC", "stray bytes"),
        (_pong(request_id=8), "does not match request id 7"),
        (encode_frame(response_type(COMPRESS), 7, b"hello"), "does not answer"),
        (encode_frame(ERROR, 7, encode_error(ERR_PROTOCOL, "bad magic")), "bad magic"),
        (b"HTTP/1.1 400 Bad Request\r\n\r\n", "bad frame magic"),
    ],
)
def test_protocol_errors_poison_the_connection(reply, message):
    exchange = _ping()
    with pytest.raises(ProtocolError, match=message):
        exchange.feed(reply)
    assert not exchange.in_sync


def test_typed_data_error_keeps_the_connection():
    exchange = _ping()
    with pytest.raises(CorruptStreamError, match="truncated"):
        exchange.feed(
            encode_frame(ERROR, 7, encode_error(ERR_CORRUPT_STREAM, "truncated"))
        )
    assert exchange.in_sync
    shed = _ping()
    with pytest.raises(ServerOverloadedError) as info:
        shed.feed(encode_frame(ERROR, 7, protocol.encode_overload_error("busy", 9)))
    assert info.value.retry_after_ms == 9 and shed.in_sync


def test_empty_read_is_a_connection_error():
    exchange = _ping()
    assert exchange.feed(_pong()[:5]) is None
    with pytest.raises(ConnectionError, match="mid-reply"):
        exchange.feed(b"")
    assert not exchange.in_sync


def test_oversize_reply_is_refused_by_the_exchange_parser():
    exchange = Exchange(PING, 1, b"", max_payload=16)
    with pytest.raises(ProtocolError, match="limit is 16"):
        exchange.feed(_pong(1, b"x" * 17))
    assert not exchange.in_sync


# ----------------------------------------------------------------------
# Both drivers put the same bytes on the wire
# ----------------------------------------------------------------------
def _canned_reply(request) -> bytes:
    payload = {
        PING: request.payload,
        COMPRESS: b"not-inspected",
        protocol.DECOMPRESS: protocol.encode_array(ARRAY),
        protocol.CLUSTER_TOPOLOGY: protocol.encode_topology(TOPOLOGY),
    }.get(request.frame_type, protocol.encode_json({}))
    return encode_frame(response_type(request.frame_type), request.request_id, payload)


class Wire:
    """An in-memory peer: records what is sent, answers every request.

    Speaks just enough of both transports' interfaces (blocking socket,
    asyncio reader + writer) for a driver to complete a call.
    """

    def __init__(self) -> None:
        self.sent = bytearray()
        self._parser = FrameParser()
        self._replies = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sent += data
        for frame in self._parser.feed(data):
            self._replies += _canned_reply(frame)

    def recv(self, size: int) -> bytes:
        data, self._replies = bytes(self._replies), bytearray()
        return data

    def settimeout(self, timeout) -> None:
        assert timeout > 0

    def close(self) -> None:
        pass

    write = sendall

    async def read(self, size: int) -> bytes:
        return self.recv(size)

    async def drain(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


#: One sample call per operation of the surface: (method, args, the
#: request type and payload it must put on the wire).
CALLS = {
    "ping": ((b"echo",), PING, b"echo"),
    "compress_array": (
        (ARRAY, "gorilla"),
        COMPRESS,
        protocol.encode_compress_request(
            ARRAY, "gorilla", DEFAULT_CHUNK_ELEMENTS, "heuristic"
        ),
    ),
    "decompress_array": ((b"FCF",), protocol.DECOMPRESS, b"FCF"),
    "select_explain": (
        (ARRAY,),
        protocol.SELECT_EXPLAIN,
        protocol.encode_explain_request(ARRAY, "heuristic", DEFAULT_CHUNK_ELEMENTS),
    ),
    "stats": ((), protocol.STATS, b""),
    "health": ((), protocol.HEALTH, b""),
    "cluster_topology": ((), protocol.CLUSTER_TOPOLOGY, b""),
    "cluster_control": (
        ("drain", "n0"),
        protocol.CLUSTER_CONTROL,
        protocol.encode_control("drain", "n0"),
    ),
    "trace": (
        (5, "ab" * 16),
        protocol.TRACE,
        protocol.encode_trace_request(5, "ab" * 16),
    ),
}


def _sync_sends(method: str, args, **options) -> tuple[bytes, ServiceClient]:
    wire = Wire()
    client = ServiceClient("unused", 1, **options)
    client._checkout = lambda connect_timeout: _Connection(wire)
    getattr(client, method)(*args)
    return bytes(wire.sent), client


def _async_sends(method: str, args, **options) -> tuple[bytes, AsyncServiceClient]:
    wire = Wire()
    client = AsyncServiceClient(wire, wire, **options)
    asyncio.run(getattr(client, method)(*args))
    return bytes(wire.sent), client


def test_the_contract_covers_the_whole_surface():
    declared = {
        name
        for name, member in vars(RequestSurface).items()
        if callable(member) and not name.startswith("_")
    }
    assert declared == set(CALLS)


@pytest.mark.parametrize("method", sorted(CALLS))
def test_drivers_send_identical_plain_and_tenant_frames(method):
    args, request_type, payload = CALLS[method]
    plain = encode_frame(request_type, 1, payload)
    assert _sync_sends(method, args)[0] == plain
    assert _async_sends(method, args)[0] == plain
    flagged = encode_frame(request_type, 1, payload, tenant_token="tenant-a")
    assert _sync_sends(method, args, token="tenant-a")[0] == flagged
    assert _async_sends(method, args, token="tenant-a")[0] == flagged


@pytest.mark.parametrize("method", sorted(CALLS))
def test_propagated_deadline_rides_the_flagged_header(method):
    args, request_type, payload = CALLS[method]
    sent, _ = _sync_sends(method, args, propagate_deadline=True, deadline=5.0)
    (frame,) = FrameParser().feed(sent)
    assert 4000 < frame.deadline_ms <= 5000
    assert sent == encode_frame(request_type, 1, payload, frame.deadline_ms)


@pytest.mark.parametrize("method", sorted(CALLS))
def test_traced_drivers_stamp_their_own_span_context(method):
    args, request_type, payload = CALLS[method]
    for sends, span_name in (
        (_sync_sends, "client.attempt"),
        (_async_sends, "client.request"),
    ):
        sent, client = sends(method, args, trace=True)
        (span,) = [
            span for span in client.recorder.snapshot() if span["name"] == span_name
        ]
        context = TraceContext(span["trace_id"], span["span_id"]).to_wire()
        assert sent == encode_frame(request_type, 1, payload, trace_context=context)


# ----------------------------------------------------------------------
# Regressions: what happens to the connection after a bad exchange
# ----------------------------------------------------------------------
def test_connection_closed_by_a_framing_error_is_never_pooled(monkeypatch):
    # Only the server reads the constant when it opens a connection; the
    # client's parser took the default at import, so this patch shrinks
    # the server's limit alone.
    monkeypatch.setattr(protocol, "DEFAULT_MAX_PAYLOAD", 4096)
    with serve_background() as server:
        with ServiceClient(server.host, server.port, retry=0, pool_size=1) as client:
            assert client.ping() >= 0.0
            with pytest.raises(ProtocolError, match="limit is 4096"):
                client.compress_array(np.zeros(4096), "gorilla")
            assert client._pool == []  # the server is closing that socket
            assert client.ping() >= 0.0  # ... so this dials a fresh one
            with pytest.raises(CorruptStreamError):
                client.decompress_array(b"not an FCF stream")
            assert len(client._pool) == 1  # a data error keeps its connection
            opened = server.metrics.snapshot()["connections"]["opened"]
            assert client.ping() >= 0.0
            assert server.metrics.snapshot()["connections"]["opened"] == opened
        server.stop()


def test_async_client_is_closed_after_an_abandoned_request():
    big = np.random.default_rng(0).random(1 << 17)

    async def scenario(host, port):
        async with await AsyncServiceClient.connect(host, port) as client:
            assert await client.ping() >= 0.0
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.compress_array(big), 0.01)
            # The abandoned reply is still coming; it must never be
            # paired with this ping.
            with pytest.raises(ProtocolError, match="client is closed"):
                await client.ping()

    with serve_background() as server:
        asyncio.run(scenario(server.host, server.port))
        server.stop()


def test_async_deadline_bounds_the_call_and_closes_the_client():
    big = np.random.default_rng(1).random(1 << 17)

    async def scenario(host, port):
        async with await AsyncServiceClient.connect(host, port) as client:
            with pytest.raises(asyncio.TimeoutError):
                await client.compress_array(big, deadline=0.01)
            with pytest.raises(ProtocolError, match="client is closed"):
                await client.stats()

    with serve_background() as server:
        asyncio.run(scenario(server.host, server.port))
        server.stop()


def test_async_typed_data_error_keeps_the_client_usable():
    async def scenario(host, port):
        async with await AsyncServiceClient.connect(host, port) as client:
            with pytest.raises(CorruptStreamError):
                await client.decompress_array(b"not an FCF stream")
            assert await client.ping() >= 0.0

    with serve_background() as server:
        asyncio.run(scenario(server.host, server.port))
        server.stop()
