"""Work-conserving batching: the connection contract, clause by clause.

``repro.service.server._Connection`` dispatches a request the moment it
arrives on an idle connection and coalesces only what piles up behind an
executing slice.  Each test here pins one clause of the contract in its
docstring: no idle tax, coalescing on backlog, backlog waiting counted
against a deadline, bounded reading, ledgers exact across a disconnect,
and a drain that answers what it admitted.
"""

import socket
import statistics
import struct
import threading
import time

import numpy as np
import pytest

from repro.api import compress_array
from repro.cli import build_parser
from repro.cluster import ClusterSupervisor
from repro.service import ServiceClient, serve_background
from repro.service.protocol import (
    COMPRESS,
    ERR_DEADLINE,
    ERR_PROTOCOL,
    ERROR,
    PING,
    FrameParser,
    decode_error,
    encode_compress_request,
    encode_frame,
    response_type,
)
from repro.service.server import CompressionServer
from repro.service.tenants import TenantConfig, TenantRegistry
from tests.service.wire import transcript

#: asyncio's selector transport hands ``data_received`` at most this much.
ONE_READ = 256 * 1024


def _slow_frame(request_id, **header):
    """A compress request that keeps its connection busy ~half a second."""
    array = np.cumsum(np.random.default_rng(1).normal(0, 1, 12_000))
    return encode_frame(
        COMPRESS,
        request_id,
        encode_compress_request(array, "dzip", 12_000),
        **header,
    )


def _small(seed, n=256):
    return np.cumsum(np.random.default_rng(seed).normal(0, 1, n))


def _small_frame(request_id, array, **header):
    return encode_frame(
        COMPRESS,
        request_id,
        encode_compress_request(array, "gorilla", 64),
        **header,
    )


class _Wire:
    """A raw FCS connection: send bytes, collect response frames."""

    def __init__(self, handle):
        self.sock = socket.create_connection(
            (handle.host, handle.port), timeout=30
        )
        self.parser = FrameParser()
        self.frames = []

    def send(self, blob):
        self.sock.sendall(blob)

    def read(self, count):
        while len(self.frames) < count:
            data = self.sock.recv(1 << 16)
            assert data, "server closed before answering every request"
            self.frames.extend(self.parser.feed(data))
        out, self.frames = self.frames[:count], self.frames[count:]
        return out

    def close(self):
        self.sock.close()

    def reset(self):
        """Vanish: an abortive close (RST), not an orderly half-close."""
        self.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _queued(handle):
    admission = handle.server.stats_document()["admission"]
    return admission["queued_requests"], admission["queued_bytes"]


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# (a) no idle tax
# ----------------------------------------------------------------------
def test_idle_connection_pays_no_queueing_and_keeps_the_span_tree():
    array = _small(0, 4096)
    with serve_background(trace=True) as handle:
        with ServiceClient(
            handle.host, handle.port, pool_size=1, trace=True
        ) as client:
            trips = []
            for _ in range(50):
                started = time.perf_counter()
                client.compress_array(array, "mpc", chunk_elements=4096)
                trips.append(time.perf_counter() - started)
            pings = [client.ping() for _ in range(50)]
            document = client.trace(limit=1000)
            stats = client.stats()
    spans = document["spans"]

    def durations(name):
        return [span["duration_ms"] for span in spans if span["name"] == name]

    waits = durations("server.queue_wait")
    assert len(waits) == 50
    # Bounds from the same run, not the host's clock: a request that
    # waits on nothing queues for less than it executes (a batch timer
    # of a few ms would invert this), and a ping costs less than the
    # compress round trip it shares the connection with.
    assert statistics.median(waits) < statistics.median(durations("server.execute"))
    assert statistics.median(pings) < statistics.median(trips)
    # The tree bench/layers.py folds by name: one root, five children.
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent_id"], []).append(span["name"])
    roots = [span for span in spans if span["name"] == "server.request"]
    assert len(roots) == 50
    for root in roots:
        assert sorted(by_parent[root["span_id"]]) == [
            "server.deadline",
            "server.execute",
            "server.gate",
            "server.parse",
            "server.queue_wait",
        ]
    assert all(
        span["attributes"]["batch_size"] == 1
        for span in spans
        if span["name"] == "server.queue_wait"
    )
    # ... and the stats keys it reads.
    assert stats["batches"]["count"] == stats["batches"]["requests"] == 50
    assert {
        "shed_requests",
        "deadline_rejected",
        "deadline_expired",
        "auth_rejected",
        "quota_rejected",
        "queued_requests",
        "queued_bytes",
    } <= set(stats["admission"])


# ----------------------------------------------------------------------
# (b) coalesce on backlog
# ----------------------------------------------------------------------
def test_frames_behind_an_executing_slice_run_as_one_batch():
    arrays = [_small(seed) for seed in range(6)]
    with serve_background(trace=True) as handle, _Wire(handle) as wire:
        wire.send(_slow_frame(1))
        _wait_for(lambda: _queued(handle)[0] == 1)
        before = handle.metrics.batches
        for request_id, array in enumerate(arrays, start=2):
            wire.send(_small_frame(request_id, array))
            time.sleep(0.002)
        # Admitted at arrival, while the slow slice still executes.
        _wait_for(lambda: _queued(handle)[0] == 7)
        frames = wire.read(7)
        assert handle.metrics.batches - before <= 2
        waits = [
            span
            for span in handle.server.recorder.snapshot()
            if span["name"] == "server.queue_wait"
        ]
    assert [frame.request_id for frame in frames] == list(range(1, 8))
    for frame, array in zip(frames[1:], arrays):
        assert frame.frame_type == response_type(COMPRESS)
        assert frame.payload == compress_array(
            array, "gorilla", chunk_elements=64
        )
    assert len(waits) == 7
    assert waits[0]["attributes"]["batch_size"] == 1
    for wait in waits[1:]:
        assert wait["attributes"]["batch_size"] >= 2
        assert wait["duration_ms"] > 10  # they did wait, and it shows


def test_each_request_of_a_traced_slice_keeps_its_own_span_tree():
    stages = [
        "server.deadline",
        "server.execute",
        "server.gate",
        "server.parse",
        "server.queue_wait",
    ]
    behind = b"".join(
        encode_frame(
            COMPRESS,
            request_id,
            encode_compress_request(_small(request_id), codec, 64, policy),
        )
        for request_id, codec, policy in (
            (2, "gorilla", "heuristic"),
            (3, "auto", "heuristic"),
            (4, "gorilla", "heuristic"),
        )
    )
    with serve_background(trace=True) as handle, _Wire(handle) as wire:
        wire.send(_slow_frame(1))
        _wait_for(lambda: _queued(handle)[0] == 1)
        wire.send(behind)  # one read, so one slice of three
        assert [f.request_id for f in wire.read(4)] == [1, 2, 3, 4]
        spans = handle.server.recorder.snapshot()
    assert handle.metrics.batches == 2
    roots = {
        span["attributes"]["request_id"]: span
        for span in spans
        if span["name"] == "server.request"
    }
    for request_id in (2, 3, 4):
        root = roots[request_id]
        children = [s for s in spans if s["parent_id"] == root["span_id"]]
        assert sorted(s["name"] for s in children) == stages
        # ... and nothing else rides this request's trace.
        assert sum(s["trace_id"] == root["trace_id"] for s in spans) == len(
            children
        ) + 1
        by_name = {s["name"]: s for s in children}
        assert by_name["server.queue_wait"]["attributes"]["batch_size"] == 3
        assert by_name["server.execute"]["attributes"]["op"] == "compress"
        assert by_name["server.execute"]["status"] == "ok"


def test_ping_behind_a_busy_slice_is_answered_in_order_not_on_a_timer():
    with serve_background() as handle, _Wire(handle) as wire:
        wire.send(_slow_frame(1))
        _wait_for(lambda: _queued(handle)[0] == 1)
        wire.send(encode_frame(PING, 2, b"behind"))
        first, second = wire.read(2)
        assert (first.request_id, second.request_id) == (1, 2)
        assert second.payload == b"behind"
        # Idle again: the next ping is a plain round trip.
        started = time.perf_counter()
        wire.send(encode_frame(PING, 3, b"idle"))
        assert wire.read(1)[0].payload == b"idle"
        assert time.perf_counter() - started < 0.05


# ----------------------------------------------------------------------
# Stamped at parse: backlog waiting counts against the deadline
# ----------------------------------------------------------------------
def test_budget_that_lapses_in_the_backlog_is_answered_not_executed():
    with serve_background() as handle, _Wire(handle) as wire:
        wire.send(_slow_frame(1))
        _wait_for(lambda: _queued(handle)[0] == 1)
        # Alive on arrival (so it is admitted), dead by its turn.
        wire.send(_small_frame(2, _small(0), deadline_ms=50))
        _wait_for(lambda: _queued(handle)[0] == 2)
        frames = wire.read(2)
        snapshot = handle.metrics.snapshot()
        assert _queued(handle) == (0, 0)
    assert frames[0].frame_type == response_type(COMPRESS)
    assert frames[1].frame_type == ERROR
    code, message = decode_error(frames[1].payload)
    assert code == ERR_DEADLINE and "while queued" in message
    assert snapshot["admission"]["deadline_expired"] == 1
    assert snapshot["admission"]["deadline_rejected"] == 0
    assert snapshot["batches"]["requests"] == 1  # the lapsed one never ran


# ----------------------------------------------------------------------
# (c) backpressure
# ----------------------------------------------------------------------
def test_reading_pauses_while_the_backlog_is_at_its_bound():
    bound = 32 * 1024
    array = _small(3, 1024)
    frame_payload = encode_compress_request(array, "gorilla", 1024)
    count = 48 * bound // len(frame_payload)  # way past 10x the bound
    total = count * len(frame_payload)
    blob = b"".join(
        encode_frame(COMPRESS, request_id, frame_payload)
        for request_id in range(1, count + 1)
    )
    peak = [0]
    done = threading.Event()
    with serve_background(
        max_inflight_bytes=bound, max_queued_requests=count
    ) as handle, _Wire(handle) as wire:

        def watch():
            while not done.is_set():
                peak[0] = max(peak[0], _queued(handle)[1])
                time.sleep(0.0005)

        watcher = threading.Thread(target=watch)
        sender = threading.Thread(target=wire.send, args=(blob,))
        watcher.start()
        sender.start()
        try:
            frames = wire.read(count)
        finally:
            done.set()
            sender.join(timeout=30)
            watcher.join(timeout=30)
        assert not sender.is_alive() and not watcher.is_alive()
        assert _queued(handle) == (0, 0)
        assert handle.metrics.snapshot()["admission"]["shed_requests"] == 0
    assert [frame.request_id for frame in frames] == list(range(1, count + 1))
    expected = compress_array(array, "gorilla", chunk_elements=1024)
    assert all(frame.payload == expected for frame in frames)
    # One executing slice plus a backlog of the bound plus one read —
    # nowhere near the 48x that was pipelined.
    assert 0 < peak[0] <= 2 * bound + ONE_READ
    assert peak[0] < total // 4


# ----------------------------------------------------------------------
# Ledgers across a disconnect, and priority order
# ----------------------------------------------------------------------
def _registry():
    registry = TenantRegistry()
    registry.add(TenantConfig("gold", token="tok-gold", priority=5))
    registry.add(TenantConfig("bronze", token="tok-bronze"))
    return registry


def test_disconnect_releases_the_gate_and_refunds_unexecuted_quota():
    registry = _registry()
    with serve_background(tenants=registry) as handle:
        with _Wire(handle) as wire:
            wire.send(_slow_frame(1, tenant_token="tok-gold"))
            _wait_for(lambda: _queued(handle)[0] == 1)
            wire.send(
                b"".join(
                    _small_frame(request_id, _small(0), tenant_token="tok-gold")
                    for request_id in (2, 3, 4)
                )
            )
            # Gate and quota are both charged at arrival ...
            _wait_for(lambda: _queued(handle)[0] == 4)
            row = registry.snapshot()["tenants"]["gold"]
            assert row["window_requests"] == 4
            wire.reset()
        # ... and the three that never ran give both back when the peer
        # vanishes; the one that executed keeps its charge.
        _wait_for(lambda: _queued(handle) == (0, 0))
        row = registry.snapshot()["tenants"]["gold"]
        assert row["window_requests"] == 1
        assert row["total_requests"] == 4
        metric_row = handle.metrics.snapshot()["tenants"]["gold"]
        assert metric_row["admitted_requests"] == 4
        _wait_for(lambda: handle.metrics.batches == 1)
        assert handle.metrics.batched_requests == 1


def test_backlog_is_taken_in_stable_priority_order_under_tenancy():
    order = [
        (2, "tok-bronze"),
        (3, "tok-gold"),
        (4, "tok-bronze"),
        (5, "tok-gold"),
    ]
    with serve_background(tenants=_registry()) as handle:
        with _Wire(handle) as wire:
            wire.send(_slow_frame(1, tenant_token="tok-bronze"))
            _wait_for(lambda: _queued(handle)[0] == 1)
            wire.send(
                b"".join(
                    _small_frame(request_id, _small(request_id), tenant_token=token)
                    for request_id, token in order
                )
            )
            frames = wire.read(5)
    assert [frame.request_id for frame in frames] == [1, 3, 5, 2, 4]
    for frame in frames[1:]:
        assert frame.payload == compress_array(
            _small(frame.request_id), "gorilla", chunk_elements=64
        )


# ----------------------------------------------------------------------
# (d) drain mid-slice
# ----------------------------------------------------------------------
def test_drain_answers_the_executing_slice_and_the_admitted_backlog():
    registry = _registry()
    handle = serve_background(tenants=registry)
    arrays = [_small(seed) for seed in (7, 8, 9)]
    with _Wire(handle) as wire:
        wire.send(_slow_frame(1, tenant_token="tok-gold"))
        _wait_for(lambda: _queued(handle)[0] == 1)
        wire.send(
            b"".join(
                _small_frame(request_id, array, tenant_token="tok-gold")
                for request_id, array in enumerate(arrays, start=2)
            )
        )
        _wait_for(lambda: _queued(handle)[0] == 4)
        server = handle.server
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        frames = wire.read(4)
        assert wire.sock.recv(1 << 16) == b""  # then the server closes
        stopper.join(timeout=30)
        assert not stopper.is_alive(), "drain hung"
    assert [frame.request_id for frame in frames] == [1, 2, 3, 4]
    for frame, array in zip(frames[1:], arrays):
        assert frame.payload == compress_array(
            array, "gorilla", chunk_elements=64
        )
    document = server.stats_document()
    assert document["admission"]["queued_requests"] == 0
    assert document["admission"]["queued_bytes"] == 0
    # Every charge is for work performed; the two ledgers agree.
    quota_row = document["tenancy"]["tenants"]["gold"]
    metric_row = document["tenants"]["gold"]
    assert quota_row["window_requests"] == 4
    assert quota_row["total_requests"] == metric_row["admitted_requests"] == 4
    assert quota_row["total_bytes"] == metric_row["admitted_bytes"]
    assert metric_row["requests"] == 4 and metric_row["errors"] == 0
    with pytest.raises(OSError):
        socket.create_connection((handle.host, handle.port), timeout=2).close()


def test_drain_closes_idle_connections_directly():
    handle = serve_background()
    with _Wire(handle) as wire:
        wire.send(encode_frame(PING, 1, b"x"))
        wire.read(1)
        started = time.perf_counter()
        handle.stop()
        assert wire.sock.recv(1 << 16) == b""
        assert time.perf_counter() - started < 1.0  # nowhere near the grace


# ----------------------------------------------------------------------
# Broken framing: a typed error *after* whatever is still owed
# ----------------------------------------------------------------------
def test_frames_ahead_of_garbage_in_one_segment_are_answered_first():
    array = _small(4)
    good = encode_frame(PING, 7, b"hello") + _small_frame(8, array)
    garbage = b"\x00garbage, and then some more of it"
    with serve_background() as handle:
        one = transcript(handle, good + garbage)
        ping, blob, farewell = FrameParser().feed(one)
        assert (ping.request_id, ping.payload) == (7, b"hello")
        assert blob.request_id == 8
        assert blob.payload == compress_array(array, "gorilla", chunk_elements=64)
        assert farewell.frame_type == ERROR and farewell.request_id == 0
        code, message = decode_error(farewell.payload)
        assert code == ERR_PROTOCOL and "magic" in message
        _wait_for(lambda: _queued(handle) == (0, 0))
        # What is answered does not depend on how TCP cut the bytes.
        assert transcript(handle, good, garbage) == one
        assert handle.metrics.snapshot()["protocol_errors"] == 2


# ----------------------------------------------------------------------
# (e) the knob is gone
# ----------------------------------------------------------------------
def test_there_is_no_window_to_configure(capsys):
    # Spelled in two halves so a grep for the retired name stays empty.
    knob = "batch_" + "window"
    flag = "--" + knob.replace("_", "-")
    with pytest.raises(TypeError):
        CompressionServer(**{knob: 0.002})
    with pytest.raises(TypeError):
        serve_background(**{knob: 0.0})
    # Nor a process tier behind a slice, nor a bound on one (PR 19).
    for gone in ({"jobs": 2}, {"batch_max": 8}):
        with pytest.raises(TypeError):
            CompressionServer(**gone)
    with pytest.raises(TypeError):
        ClusterSupervisor(2, jobs=2)
    for argv in (
        ["serve", flag, "0"],
        ["cluster", "serve", flag, "0"],
        ["serve", "--jobs", "2"],
        ["serve", "--batch-max", "8"],
        ["cluster", "serve", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert argv[-2] in capsys.readouterr().err
