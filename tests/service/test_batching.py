"""Work-conserving batching: the connection contract, clause by clause.

``repro.service.server._Connection`` dispatches a request the moment it
arrives on an idle connection and coalesces only what piles up behind an
executing slice.  Each test here pins one clause of the contract in its
docstring: no idle tax, coalescing on backlog, backlog waiting counted
against a deadline, bounded reading, ledgers exact across a disconnect,
a drain that answers what it admitted, and placement (a slice learned
cheap runs on the loop, anything else on an executor thread).
"""

import functools
import select
import socket
import statistics
import struct
import threading
import time

import numpy as np
import pytest

import repro.service.server as server_module
from repro.api import compress_array, decompress_array
from repro.cli import build_parser
from repro.cluster import ClusterSupervisor
from repro.data.loader import load
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
def test_reading_pauses_while_the_backlog_is_at_its_bound(monkeypatch):
    bound = 32 * 1024
    monkeypatch.setattr(server_module, "_SLICE_BYTES", bound)
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
    with serve_background(max_queued_requests=count) as handle, _Wire(handle) as wire:

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
# (e) placement: a slice learned cheaper than one switch interval runs
# on the loop; first-seen and learned-slow work hops to an executor, and
# a decompress is sized by the array it declares, not by its payload
# ----------------------------------------------------------------------
@pytest.fixture
def placed(monkeypatch):
    """A fresh server (nothing learned) and the thread each request ran on.

    Afterwards no slice is counted off the loop and the admission gate
    holds nothing: both ledgers return to zero whatever ran where.
    """
    threads = []
    execute = CompressionServer._execute

    def recording(self, item):
        threads.append(threading.current_thread())
        execute(self, item)

    monkeypatch.setattr(CompressionServer, "_execute", recording)
    with serve_background() as handle:
        yield handle, threads
        _wait_for(lambda: handle.server._offloaded == 0)
        assert handle.server._admission.snapshot() == {
            "queued_requests": 0,
            "queued_bytes": 0,
        }


def _until_on_the_loop(request, threads, loop, tries=20):
    """Repeat ``request()`` until it runs on ``loop``; how many it took."""
    for attempt in range(1, tries + 1):
        request()
        if threads[-1] is loop:
            return attempt
    raise AssertionError(f"{tries} cheap requests never ran on the loop")


def test_a_first_seen_codec_hops_and_a_learned_cheap_one_runs_on_the_loop(
    placed,
):
    handle, threads = placed
    array = _small(0)
    compress_array(array, "gorilla", chunk_elements=64)  # imports paid here
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        request = functools.partial(
            client.compress_array, array, "gorilla", chunk_elements=64
        )
        assert _until_on_the_loop(request, threads, handle._thread) > 1
        assert threads[0] is not handle._thread  # nothing known: executor
        blob = request()
    assert threads[-1] is handle._thread
    assert blob == compress_array(array, "gorilla", chunk_elements=64)


def test_a_learned_slow_codec_stays_off_the_loop(placed):
    handle, threads = placed
    with _Wire(handle) as busy, ServiceClient(
        handle.host, handle.port, pool_size=1
    ) as other:
        busy.send(_slow_frame(1))
        busy.read(1)  # dzip is now known to be slow
        busy.send(_slow_frame(2))
        _wait_for(lambda: len(threads) == 2)
        other.ping(b"alive")  # answered while the compress executes
        assert select.select([busy.sock], [], [], 0)[0] == []
        assert busy.read(1)[0].request_id == 2
    assert handle._thread not in threads


def test_one_slow_reading_sends_the_next_slice_to_the_executor(
    placed, monkeypatch
):
    handle, threads = placed
    loop = handle._thread
    delays = []
    execute_compress = server_module._execute_compress

    def sometimes_slow(payload, *prepared):
        if delays:
            time.sleep(delays.pop())
        return execute_compress(payload, *prepared)

    monkeypatch.setattr(server_module, "_execute_compress", sometimes_slow)
    array = _small(0)
    compress_array(array, "gorilla", chunk_elements=64)
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        request = functools.partial(
            client.compress_array, array, "gorilla", chunk_elements=64
        )
        _until_on_the_loop(request, threads, loop)
        # Predicted cheap, so it runs on the loop; it reads twice the
        # inline threshold, which a quarter-weight average would not exceed.
        delays.append(2 * server_module._INLINE_SECONDS)
        request()
        assert threads[-1] is loop
        request()
        assert threads[-1] is not loop


def test_beside_a_slice_off_the_loop_cheap_work_leaves_the_loop_too(placed):
    # Inline work would contend for the GIL with the executor thread and
    # hold the loop longer than its learned cost.
    handle, threads = placed
    loop = handle._thread
    array = _small(0)
    compress_array(array, "gorilla", chunk_elements=64)
    with _Wire(handle) as busy, ServiceClient(
        handle.host, handle.port, pool_size=1
    ) as client:
        request = functools.partial(
            client.compress_array, array, "gorilla", chunk_elements=64
        )
        _until_on_the_loop(request, threads, loop)
        seen = len(threads)
        busy.send(_slow_frame(1))
        _wait_for(lambda: len(threads) == seen + 1)
        request()
        assert select.select([busy.sock], [], [], 0)[0] == []  # dzip runs
        assert threads[-1] is not loop
        busy.read(1)
        _until_on_the_loop(request, threads, loop)


def test_a_decompress_is_placed_by_the_array_its_index_declares(placed):
    handle, threads = placed
    noisy = _small(0, 4096)
    zeros = np.zeros(1 << 19)
    blob = compress_array(noisy, "bitshuffle-lz4", chunk_elements=4096)
    flat = compress_array(zeros, "bitshuffle-lz4", chunk_elements=1 << 16)
    # Fewer payload bytes than the learned request, 128 times its array.
    assert len(flat) < len(blob)
    decompress_array(blob)  # imports paid here
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        _until_on_the_loop(
            lambda: client.decompress_array(blob), threads, handle._thread
        )
        assert np.array_equal(client.decompress_array(flat), zeros)
    assert threads[-1] is not handle._thread


def test_auto_and_policies_are_placed_by_what_runs_not_by_their_name(placed):
    # tpcH-order routes to buff (about a millisecond), citytemp to dzip
    # (tens of milliseconds): one `auto` name, two costs.  The loop runs
    # the selector and places an `auto` compress by the codec it picked.
    handle, threads = placed
    loop = handle._thread
    cheap = load("tpcH-order", 4096, 0)
    slow = load("citytemp", 2048, 0)
    cheap_blob = compress_array(cheap, "auto", chunk_elements=4096)
    slow_blob = compress_array(slow, "auto", chunk_elements=2048)
    measured_blob = compress_array(
        cheap, "auto", chunk_elements=4096, policy="measured"
    )
    decompress_array(slow_blob)  # imports paid here
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        cheap_auto = functools.partial(
            client.compress_array, cheap, "auto", chunk_elements=4096
        )
        _until_on_the_loop(cheap_auto, threads, loop)
        assert cheap_auto() == cheap_blob
        assert threads[-1] is loop  # keyed by buff, learned cheap
        for _ in range(2):  # first seen, then learned slow
            assert client.compress_array(
                slow, "auto", chunk_elements=2048
            ) == slow_blob
            assert threads[-1] is not loop  # keyed by dzip
        # `measured` trial-compresses every candidate, dzip included.
        for _ in range(2):
            assert client.compress_array(
                cheap, "auto", chunk_elements=4096, policy="measured"
            ) == measured_blob
            assert threads[-1] is not loop
        _until_on_the_loop(
            lambda: client.decompress_array(cheap_blob), threads, loop
        )
        assert np.array_equal(client.decompress_array(slow_blob), slow)
        assert threads[-1] is not loop  # keyed by dzip, not by `auto`
        explain = functools.partial(client.select_explain, cheap)
        _until_on_the_loop(explain, threads, loop)
        assert explain(policy="measured")["policy"] == "measured"
        assert threads[-1] is not loop


def _counting_decide(monkeypatch):
    """Record the thread of every ``HeuristicPolicy.decide`` call."""
    from repro.select import HeuristicPolicy

    calls = []
    decide = HeuristicPolicy.decide

    def counting(self, chunk):
        calls.append(threading.current_thread())
        return decide(self, chunk)

    monkeypatch.setattr(HeuristicPolicy, "decide", counting)
    return calls


def test_a_served_auto_compress_selects_once(placed, monkeypatch):
    # The selection that places the request is the one its stream is
    # written with: one decision per chunk, on the hop and on the loop.
    handle, threads = placed
    array = load("tpcH-order", 16384, 0)  # four chunks, all buff
    expected = compress_array(array, "auto", chunk_elements=4096)
    calls = _counting_decide(monkeypatch)
    # The picks answer the chunks in order, so the stream is written
    # serially whatever worker count a session would default to.
    monkeypatch.setenv("FCBENCH_JOBS", "2")
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        for served in range(1, 6):
            assert client.compress_array(
                array, "auto", chunk_elements=4096
            ) == expected
            assert len(calls) == 4 * served
    assert threads[0] is not handle._thread  # buff first seen: the hop
    assert threads[-1] is handle._thread
    assert handle.server.stats_document()["batches"]["inline"] > 0


def test_an_auto_compress_mixing_codecs_runs_off_the_loop(
    placed, monkeypatch
):
    handle, threads = placed
    loop = handle._thread
    order = load("tpcH-order", 4096, 0)
    repeats = np.floor(np.random.default_rng(0).normal(0, 8, 1024))
    mixed = np.concatenate([order[:1024], repeats])  # buff, then dzip
    cheap_blob = compress_array(order, "auto", chunk_elements=4096)
    expected = compress_array(mixed, "auto", chunk_elements=1024)
    calls = _counting_decide(monkeypatch)
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        _until_on_the_loop(
            lambda: client.compress_array(order, "auto", chunk_elements=4096),
            threads,
            loop,
        )
        assert client.compress_array(order, "auto", chunk_elements=4096) == (
            cheap_blob
        )
        del calls[:]
        assert client.compress_array(mixed, "auto", chunk_elements=1024) == (
            expected
        )
    assert threads[-1] is not loop
    assert calls == [loop, loop]  # selected on the loop, replayed off it


def test_an_auto_compress_with_too_many_chunks_selects_off_the_loop(
    placed, monkeypatch
):
    handle, threads = placed
    loop = handle._thread
    array = load("tpcH-order", 16384, 0)
    calls = _counting_decide(monkeypatch)

    def work(chunk_elements, budget):
        payload = encode_compress_request(array, "auto", chunk_elements)
        frame = FrameParser().feed(encode_frame(COMPRESS, 1, payload))[0]
        return server_module._work(frame, budget)

    budget = [server_module._LOOP_SELECT_ELEMENTS]
    key, _, picks = work(8, budget)  # 2,048 chunks
    assert (key, picks, calls) == (None, None, [])
    key, _, picks = work(4096, budget)
    assert key == (COMPRESS, "buff") and len(calls) == 4
    assert budget == [server_module._LOOP_SELECT_ELEMENTS - 4 * 8192]
    # What a slice has left after earlier selections, or nothing while
    # another slice is off the loop.
    assert work(4096, [3 * 8192])[0] is None and len(calls) == 4
    many = compress_array(array, "auto", chunk_elements=1024)  # 16 chunks
    del calls[:]
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        _until_on_the_loop(
            lambda: client.compress_array(array, "auto", chunk_elements=4096),
            threads,
            loop,
        )
        del calls[:]
        assert client.compress_array(array, "auto", chunk_elements=1024) == many
    assert threads[-1] is not loop
    assert len(calls) == 16 and loop not in calls


def test_beside_a_slice_off_the_loop_an_auto_compress_selects_off_it(
    placed, monkeypatch
):
    handle, threads = placed
    loop = handle._thread
    array = load("tpcH-order", 16384, 0)
    expected = compress_array(array, "auto", chunk_elements=4096)
    calls = _counting_decide(monkeypatch)
    with _Wire(handle) as busy, ServiceClient(
        handle.host, handle.port, pool_size=1
    ) as client:
        request = functools.partial(
            client.compress_array, array, "auto", chunk_elements=4096
        )
        _until_on_the_loop(request, threads, loop)
        seen = len(threads)
        busy.send(_slow_frame(1))
        _wait_for(lambda: len(threads) == seen + 1)
        del calls[:]
        assert request() == expected
        assert select.select([busy.sock], [], [], 0)[0] == []  # dzip runs
        assert threads[-1] is not loop
        assert len(calls) == 4 and loop not in calls
        busy.read(1)


def test_a_forged_auto_compress_keeps_its_typed_error(placed):
    # Selection on the loop fails over to the key-less path, where
    # `_execute` raises the same typed error as ever.
    from repro.encodings.varint import encode_uvarint
    from repro.service.protocol import ERR_PROTOCOL, ERR_SELECTION

    handle, _ = placed
    array = load("tpcH-order", 16384, 0)
    good = encode_compress_request(array, "auto", 4096)
    code = len(good) - array.nbytes - len(encode_uvarint(array.size)) - 2
    assert good[code] == 1  # the float64 dtype code
    forged = {
        "truncated array": (good[:-5], ERR_PROTOCOL),
        # The wire has no int64 code: a dtype it cannot carry.
        "non-float dtype": (
            good[:code] + bytes([2]) + good[code + 1 :],
            ERR_PROTOCOL,
        ),
        "learned policy": (
            encode_compress_request(array, "auto", 4096, policy="learned"),
            ERR_SELECTION,
        ),
    }
    with _Wire(handle) as wire:
        for request_id, (payload, expected) in enumerate(forged.values(), 1):
            wire.send(encode_frame(COMPRESS, request_id, payload))
            (answer,) = wire.read(1)
            assert answer.frame_type == ERROR
            assert decode_error(answer.payload)[0] == expected
        wire.send(encode_frame(PING, 9, b"alive"))
        assert wire.read(1)[0].payload == b"alive"


def test_a_stream_with_a_long_index_is_parsed_and_decoded_off_the_loop(placed):
    handle, threads = placed
    array = _small(0, 4096)
    few = compress_array(array, "gorilla", chunk_elements=4096)
    many = compress_array(array, "gorilla", chunk_elements=8)  # 512 frames
    decompress_array(few)  # imports paid here
    with ServiceClient(handle.host, handle.port, pool_size=1) as client:
        _until_on_the_loop(
            lambda: client.decompress_array(few), threads, handle._thread
        )
        assert np.array_equal(client.decompress_array(many), array)
    assert threads[-1] is not handle._thread


def test_a_served_decompress_parses_its_stream_once(monkeypatch):
    # Placement reads the FCF header and index; the session decoding the
    # stream is handed them rather than parsing again.
    import repro.api.session as session_module

    array = _small(0, 4096)
    blob = compress_array(array, "gorilla", chunk_elements=1024)
    parses = []
    for module in (server_module, session_module):
        monkeypatch.setattr(
            module,
            "read_layout",
            functools.partial(
                lambda read, fh: parses.append(fh) or read(fh),
                module.read_layout,
            ),
        )
    with serve_background() as handle, ServiceClient(
        handle.host, handle.port, pool_size=1
    ) as client:
        for served in range(1, 4):
            assert np.array_equal(client.decompress_array(blob), array)
            assert len(parses) == served


# ----------------------------------------------------------------------
# (f) the knob is gone
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
