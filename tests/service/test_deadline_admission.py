"""Deadline propagation, admission control, and overload retry.

Covers the resilience wire surface end to end: the flagged frame
header (and its byte-identity with protocol v1 when unused), typed
``ERR_DEADLINE`` / ``ERR_OVERLOADED`` answers, server-side shedding
with metrics-visible counters, client retry-on-overload honoring the
server's hint, and the connection-pool leak regression on timeout and
retry paths.
"""

import os
import socket
import threading
import zlib

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ServerOverloadedError,
)
from repro.service import ServiceClient, serve_background
from repro.service.exchange import Exchange
from repro.service.protocol import (
    COMPRESS,
    ERR_DEADLINE,
    ERR_OVERLOADED,
    ERROR,
    FLAG_BIT,
    MAGIC,
    PING,
    Frame,
    FrameParser,
    decode_error,
    encode_compress_request,
    encode_frame,
    encode_overload_error,
    encode_uvarint,
    raise_for_error,
    response_type,
)


def _array(n=512):
    return np.cumsum(np.random.default_rng(5).normal(0, 1, n))


def _exchange(host, port, blob, expected_frames):
    """Send raw bytes; collect ``expected_frames`` response frames."""
    parser = FrameParser()
    frames = []
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(blob)
        while len(frames) < expected_frames:
            data = sock.recv(1 << 16)
            assert data, "server closed before answering"
            frames.extend(parser.feed(data))
    return frames


# ----------------------------------------------------------------------
# The flagged frame header on the wire
# ----------------------------------------------------------------------
def test_unflagged_frames_are_byte_identical_to_v1():
    blob = encode_frame(PING, 1, b"x")
    assert blob[len(MAGIC)] == PING  # no flag bit without a deadline
    assert blob[len(MAGIC)] & FLAG_BIT == 0


def test_deadline_header_round_trips():
    blob = encode_frame(COMPRESS, 7, b"payload", 1234)
    assert blob[len(MAGIC)] == COMPRESS | FLAG_BIT
    frames = FrameParser().feed(blob)
    assert len(frames) == 1
    frame = frames[0]
    assert frame.frame_type == COMPRESS  # the parser strips the flag bit
    assert frame.request_id == 7
    assert frame.deadline_ms == 1234
    assert frame.payload == b"payload"


def test_deadline_zero_is_a_valid_budget():
    frame = FrameParser().feed(encode_frame(PING, 1, b"", 0))[0]
    assert frame.deadline_ms == 0


def test_deadline_refused_on_response_and_error_frames():
    with pytest.raises(ValueError):
        encode_frame(response_type(PING), 1, b"", 5)
    with pytest.raises(ValueError):
        encode_frame(ERROR, 1, b"", 5)
    with pytest.raises(ValueError):
        encode_frame(PING, 1, b"", -1)


def test_unknown_flag_bits_are_a_protocol_error():
    payload = b""
    blob = b"".join(
        [
            MAGIC,
            bytes([PING | FLAG_BIT]),
            encode_uvarint(1),  # request id
            encode_uvarint(0x08),  # an undefined flag bit
            encode_uvarint(len(payload)),
            payload,
            (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"),
        ]
    )
    with pytest.raises(ProtocolError, match="flag"):
        FrameParser().feed(blob)


def test_overload_error_carries_retry_after_hint():
    payload = encode_overload_error("admission gate full", 25)
    code, message = decode_error(payload)
    assert code == ERR_OVERLOADED
    with pytest.raises(ServerOverloadedError) as info:
        raise_for_error(Frame(ERROR, 1, payload))
    assert info.value.retry_after_ms == 25
    assert "admission gate full" in str(info.value)


# ----------------------------------------------------------------------
# Server-side deadline enforcement
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    handle = serve_background()
    yield handle
    handle.stop()


def test_expired_deadline_rejected_before_queueing(server):
    payload = encode_compress_request(_array(), "gorilla", 128)
    blob = encode_frame(COMPRESS, 1, payload, 0)  # 0 ms budget: dead on arrival
    blob += encode_frame(PING, 2, b"still-alive")  # connection must survive
    frames = _exchange(server.host, server.port, blob, 2)
    assert frames[0].frame_type == ERROR
    code, message = decode_error(frames[0].payload)
    assert code == ERR_DEADLINE
    assert "expired" in message
    assert frames[1].frame_type == response_type(PING)
    assert frames[1].payload == b"still-alive"
    assert server.metrics.snapshot()["admission"]["deadline_rejected"] >= 1


def test_generous_deadline_serves_identical_bytes(server):
    from repro.api import compress_array

    arr = _array()
    with ServiceClient(
        server.host, server.port, propagate_deadline=True, deadline=30.0
    ) as client:
        served = client.compress_array(arr, "gorilla", chunk_elements=128)
    assert served == compress_array(arr, "gorilla", chunk_elements=128)


def test_deadline_exceeded_error_is_typed_not_failover_bait(server):
    with ServiceClient(server.host, server.port) as client:
        with pytest.raises(DeadlineExceededError):
            # Hand-roll the frame so only the *server-side* check fires.
            payload = encode_compress_request(_array(), "gorilla", 128)
            request_id = client._request_id()
            exchange = Exchange(COMPRESS, request_id, payload, deadline_ms=0)
            conn = client._checkout(30.0)
            try:
                conn.run(exchange, timeout=30.0)
            finally:
                conn.close()
    assert exchange.in_sync  # a typed data error leaves the stream usable
    assert not issubclass(DeadlineExceededError, TimeoutError)


# ----------------------------------------------------------------------
# Admission control and shedding
# ----------------------------------------------------------------------
def test_admission_gate_sheds_with_retryable_overload():
    handle = serve_background(
        max_queued_requests=1, shed_retry_after_ms=7
    )
    try:
        payload = encode_compress_request(_array(), "gorilla", 128)
        blob = b"".join(
            encode_frame(COMPRESS, request_id, payload)
            for request_id in (1, 2, 3)
        )
        frames = _exchange(handle.host, handle.port, blob, 3)
        by_id = {frame.request_id: frame for frame in frames}
        assert by_id[1].frame_type == response_type(COMPRESS)
        shed = [by_id[2], by_id[3]]
        assert all(frame.frame_type == ERROR for frame in shed)
        for frame in shed:
            code, _ = decode_error(frame.payload)
            assert code == ERR_OVERLOADED
            with pytest.raises(ServerOverloadedError) as info:
                raise_for_error(frame)
            assert info.value.retry_after_ms == 7
        snapshot = handle.metrics.snapshot()
        assert snapshot["admission"]["shed_requests"] >= 2
    finally:
        handle.stop()


def test_gate_never_starves_a_lone_request():
    # A request larger than max_queued_bytes must still be admitted
    # when the gate is empty — shedding it forever would livelock.
    handle = serve_background(max_queued_bytes=1)
    try:
        arr = _array(256)
        with ServiceClient(handle.host, handle.port) as client:
            blob = client.compress_array(arr, "gorilla", chunk_elements=128)
            assert np.array_equal(client.decompress_array(blob), arr)
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Client retry-on-overload (stub server speaking raw FCS)
# ----------------------------------------------------------------------
class _StubServer:
    """Answers each incoming frame from a scripted response list."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.handled = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.host, self.port = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        parser = FrameParser()
        with conn:
            while self.handled < len(self.responses):
                try:
                    data = conn.recv(1 << 16)
                except OSError:
                    return
                if not data:
                    return
                for frame in parser.feed(data):
                    # Counted before the reply leaves: the client thread
                    # asserts on `handled` the moment it has the answer.
                    respond = self.responses[self.handled]
                    self.handled += 1
                    conn.sendall(respond(frame))

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


def _overload(retry_after_ms):
    return lambda frame: encode_frame(
        ERROR, frame.request_id, encode_overload_error("busy", retry_after_ms)
    )


def _pong(frame):
    return encode_frame(response_type(PING), frame.request_id, frame.payload)


def test_client_retries_shed_requests_honoring_the_hint():
    # The hint is well above the default policy's first backoff (at most
    # 50 ms), so only a client that honours the hint waits this long.
    stub = _StubServer([_overload(200), _pong])
    try:
        with ServiceClient(stub.host, stub.port, retry=2) as client:
            elapsed = client.ping()
        assert stub.handled == 2
        assert elapsed >= 0.2  # waited out the server's 200 ms hint
    finally:
        stub.close()


def test_overload_raises_typed_once_attempts_are_spent():
    stub = _StubServer([_overload(1), _overload(1)])
    try:
        with ServiceClient(stub.host, stub.port, retry=1) as client:
            with pytest.raises(ServerOverloadedError):
                client.ping()
        assert stub.handled == 2
    finally:
        stub.close()


# ----------------------------------------------------------------------
# Connection-pool leak regression (the satellite fix)
# ----------------------------------------------------------------------
def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def test_no_fd_leak_on_timeout_path():
    # A listener whose backlog accepts the TCP handshake but never
    # answers: every request times out after the socket was dialed.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    host, port = listener.getsockname()
    try:
        with ServiceClient(host, port, deadline=0.15, retry=0) as client:
            baseline = _fd_count()
            for _ in range(8):
                with pytest.raises(TimeoutError):
                    client.ping()
            assert _fd_count() <= baseline
    finally:
        listener.close()


def test_no_fd_leak_on_retry_path():
    # A stub that accepts and instantly closes: every attempt eats a
    # fresh connection, all of which must be closed when the retries
    # are spent.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    host, port = listener.getsockname()
    stop = threading.Event()

    def slam():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.close()

    thread = threading.Thread(target=slam, daemon=True)
    thread.start()
    try:
        with ServiceClient(host, port, retry=2) as client:
            baseline = _fd_count()
            for _ in range(6):
                with pytest.raises(ProtocolError, match="attempt"):
                    client.ping()
            assert _fd_count() <= baseline + 1  # the in-flight accept slot
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=5.0)
