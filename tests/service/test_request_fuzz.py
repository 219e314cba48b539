"""Seeded semantic-request fuzzer: well-framed, meaningless payloads.

The wire-level fuzz tests (``test_protocol.py``, ``test_server.py``)
break the *framing*.  Here the framing is always valid — magic, length
and CRC are computed over the mutated payload — so every case reaches
the request decoders, the selection stack and the FCF reader.  The
contract: each answer is a success or a specific ``repro.errors`` class
(never the generic ``ERR_INTERNAL`` → bare :class:`ServiceError`, never
an untyped exception while decoding the reply), and the connection that
carried all of it still answers a ``ping``.
"""

import io
import socket
import zlib
from collections import Counter

import numpy as np
import pytest

from repro.api import compress_array
from repro.api.frames import END_MAGIC, encode_index, read_layout
from repro.encodings.varint import encode_uvarint
from repro.errors import CorruptStreamError, ProtocolError, ReproError, ServiceError
from repro.service import protocol, serve_background
from repro.service.exchange import Exchange
from repro.service.protocol import COMPRESS, DECOMPRESS, PING, SELECT_EXPLAIN
from tests.service.wire import transcript

CASES_PER_OP = 500


def _arrays():
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(0.0, 1.0, 192))
    return [
        walk,
        walk.astype(np.float32),
        np.round(walk, 2),
        np.repeat(walk[:24], 8),
    ]


def _seeds(op):
    """Well-formed payloads of ``op`` — what the mutations start from."""
    arrays = _arrays()
    if op == COMPRESS:
        return [
            protocol.encode_compress_request(array, codec, 64, policy)
            for array in arrays
            for codec, policy in (
                ("gorilla", "heuristic"),
                ("auto", "heuristic"),
                ("auto", "online"),
                ("auto", "learned"),
                ("none", "heuristic"),
            )
        ]
    if op == SELECT_EXPLAIN:
        return [
            protocol.encode_explain_request(array, policy, 64)
            for array in arrays
            for policy in ("heuristic", "online", "learned")
        ]
    return [
        compress_array(array, codec, chunk_elements=64)
        for array in arrays
        for codec in (
            "gorilla", "auto", "bitshuffle-zstd", "fpzip", "buff", "none"
        )
    ]


def _offset(rng, data):
    # Half the time inside the first bytes, where the semantic fields
    # (names, chunking, dtype, shape, FCF header) live.
    reach = min(len(data), 32) if rng.integers(2) else len(data)
    return int(rng.integers(reach))


def _mutate(rng, payload):
    data = bytearray(payload)
    kind = rng.integers(5)
    at = _offset(rng, data)
    span = int(rng.integers(1, 17))
    if kind == 0:  # bit flips
        for _ in range(int(rng.integers(1, 4))):
            data[_offset(rng, data)] ^= 1 << int(rng.integers(8))
    elif kind == 1:  # truncation
        del data[at:]
    elif kind == 2:  # insertion
        data[at:at] = rng.integers(0, 256, span, dtype=np.uint8).tobytes()
    elif kind == 3:  # duplication
        data[at:at] = data[at : at + span]
    else:  # zero run
        data[at : at + span] = bytes(len(data[at : at + span]))
    return bytes(data)


#: Empty shapes whose non-zero extents NumPy cannot multiply out: the
#: element count is 0, so every byte-count check passes.
_FORGED_SHAPES = ((0, 2**63), (0, 2**62))


def _forged_shapes(op):
    """``op`` payloads declaring each of :data:`_FORGED_SHAPES`, and the
    typed error each must be answered with."""
    empty = np.empty((0, 1))
    if op == DECOMPRESS:
        stream = compress_array(empty, "gorilla", chunk_elements=64)
        return CorruptStreamError, [
            _forge(stream, 0, b"", shape) for shape in _FORGED_SHAPES
        ]
    if op == COMPRESS:
        request = protocol.encode_compress_request(empty, "gorilla", 64)
    else:
        request = protocol.encode_explain_request(empty, "heuristic", 64)
    array = protocol.encode_array(empty)
    head = request[: -len(array)] + array[:1]
    return ProtocolError, [
        head + b"".join(map(encode_uvarint, (len(shape), *shape)))
        for shape in _FORGED_SHAPES
    ]


_DECODERS = {
    COMPRESS: bytes,
    SELECT_EXPLAIN: protocol.decode_json,
    DECOMPRESS: protocol.decode_array,
}


def _exchange(sock, op, request_id, payload):
    exchange = Exchange(op, request_id, payload)
    sock.sendall(exchange.request)
    while (reply := exchange.feed(sock.recv(1 << 16))) is None:
        pass
    return reply.payload


@pytest.fixture(scope="module")
def server():
    with serve_background() as handle:
        yield handle


@pytest.mark.parametrize(
    "op", [COMPRESS, SELECT_EXPLAIN, DECOMPRESS], ids=protocol.REQUEST_NAMES.get
)
def test_mutated_requests_get_typed_answers_on_one_connection(server, op):
    rng = np.random.default_rng(op)
    seeds = _seeds(op)
    outcomes = Counter()
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        for case in range(CASES_PER_OP):
            payload = _mutate(rng, seeds[case % len(seeds)])
            try:
                _DECODERS[op](_exchange(sock, op, case + 1, payload))
            except ReproError as exc:
                assert type(exc) is not ServiceError, (
                    f"case {case}: untyped server failure: {exc}"
                )
                outcomes[type(exc).__name__] += 1
            else:
                outcomes["ok"] += 1
        error, forged = _forged_shapes(op)
        for case, payload in enumerate(forged, CASES_PER_OP + 1):
            with pytest.raises(error):
                _DECODERS[op](_exchange(sock, op, case, payload))
        echo = _exchange(sock, PING, CASES_PER_OP + len(forged) + 1, b"still here")
    assert echo == b"still here"
    # Not every case dies in the first decoder (FCF's CRCs do catch
    # every damaged byte of a stream, so DECOMPRESS may all be corrupt).
    assert len(outcomes) > 1 or op == DECOMPRESS, outcomes


def test_mutated_tails_never_cost_the_valid_frame_its_answer(server):
    """Here the *framing* of what follows a valid frame is broken (or
    not — some mutations leave it whole, some only truncate it): the
    valid frame is answered first whatever follows it in the same
    segment, framing violations end in one ``ERR_PROTOCOL`` farewell,
    and the answers do not depend on how TCP cut the bytes."""
    rng = np.random.default_rng(19)
    tails = [
        protocol.encode_frame(op, 2, seed)
        for op in (COMPRESS, DECOMPRESS)
        for seed in _seeds(op)[:6]
    ]
    endings = Counter()
    for case in range(60):
        head = protocol.encode_frame(PING, 1, b"case %d" % case)
        tail = _mutate(rng, tails[case % len(tails)])
        one = transcript(server, head + tail)
        frames = protocol.FrameParser().feed(one)
        assert frames, f"case {case}: the valid frame went unanswered"
        assert (frames[0].request_id, frames[0].payload) == (
            1,
            b"case %d" % case,
        )
        for frame in frames[1:]:
            if frame.is_error:
                code, _ = protocol.decode_error(frame.payload)
                assert code != protocol.ERR_INTERNAL, f"case {case}"
                if code == protocol.ERR_PROTOCOL and frame.request_id == 0:
                    assert frame is frames[-1]  # the farewell ends it
                    endings["farewell"] += 1
        assert transcript(server, head, tail) == one, f"case {case}"
        endings["cases"] += 1
    # The mutations do break framing, and do not always.
    assert 0 < endings["farewell"] < endings["cases"]


#: Forged lengths: a 5-byte varint of 2**32 - 1, and a run of 0xFF.
_FORGERIES = (b"\xff\xff\xff\xff\x0f", b"\xff" * 6)


def _forge(stream, at, data, shape=None):
    """``stream`` with ``data`` written over its first frame's payload at
    ``at``, and the index (sizes and per-frame CRCs) recomputed, so the
    forgery passes every check before the codec runs.  A given ``shape``
    replaces the array shape the index declares."""
    _, index, data_start = read_layout(io.BytesIO(stream))
    frames = []
    for number, frame in enumerate(index.frames):
        end = frame.offset + frame.compressed_bytes
        payload = bytearray(stream[frame.offset : end])
        if number == 0:
            payload[at : at + len(data)] = data
        frames.append(bytes(payload))
    trailer = encode_index(
        [(f.n_elements, len(p), zlib.crc32(p)) for f, p in zip(index.frames, frames)],
        index.shape if shape is None else shape,
    )
    return (
        stream[:data_start]
        + b"".join(frames)
        + trailer
        + len(trailer).to_bytes(8, "little")
        + END_MAGIC
    )


def test_forged_streams_with_valid_crcs_get_typed_corrupt_stream(server):
    """A forged stream passes the per-frame CRC: its payloads reach the
    codec decoders as they are, and each must end in ERR_CORRUPT_STREAM
    without sizing anything from a forged length."""
    array = _arrays()[0]
    outcomes = Counter()
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        case = 0
        for codec in ("bitshuffle-zstd", "nvcomp-bitcomp", "spdp", "gorilla", "auto"):
            stream = compress_array(array, codec, chunk_elements=64)
            for data in _FORGERIES:
                for at in range(24):
                    case += 1
                    forged = _forge(stream, at, data)
                    try:
                        protocol.decode_array(_exchange(sock, DECOMPRESS, case, forged))
                    except CorruptStreamError as exc:
                        assert "MemoryError" not in str(exc), (codec, at, exc)
                        outcomes["corrupt"] += 1
                    else:
                        outcomes["decoded"] += 1
        echo = _exchange(sock, PING, case + 1, b"still here")
    assert echo == b"still here"
    assert outcomes["corrupt"] > outcomes["decoded"], outcomes
