"""Wire-protocol units and corruption fuzz (mirrors tests/api style).

Whatever bytes the parser is fed — truncated frames, single-byte
flips, hostile length prefixes — it must either produce valid frames
or raise :class:`~repro.errors.ProtocolError`; any other exception is
an internals leak, and an unbounded allocation or loop is a DoS.
"""

import numpy as np
import pytest

from repro.errors import (
    CorruptStreamError,
    ProtocolError,
    SelectionError,
    ServiceError,
    UnknownCodecError,
    UnsupportedDtypeError,
)
from repro.service import protocol
from repro.service.protocol import (
    COMPRESS,
    ERR_CORRUPT_STREAM,
    ERR_SELECTION,
    ERROR,
    MAGIC,
    PING,
    Frame,
    FrameParser,
    encode_frame,
    response_type,
)


def _roundtrip(frame_type, request_id, payload):
    frames = FrameParser().feed(encode_frame(frame_type, request_id, payload))
    assert len(frames) == 1
    return frames[0]


# ----------------------------------------------------------------------
# Framing units
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    frame = _roundtrip(PING, 7, b"hello")
    assert frame.frame_type == PING
    assert frame.request_id == 7
    assert frame.payload == b"hello"


def test_empty_payload_roundtrip():
    frame = _roundtrip(PING, 0, b"")
    assert frame.payload == b""


def test_large_request_id_roundtrip():
    frame = _roundtrip(PING, 2**40, b"x")
    assert frame.request_id == 2**40


def test_multiple_frames_in_one_feed():
    blob = encode_frame(PING, 1, b"a") + encode_frame(PING, 2, b"bb")
    frames = FrameParser().feed(blob)
    assert [f.request_id for f in frames] == [1, 2]
    assert [f.payload for f in frames] == [b"a", b"bb"]


def test_incremental_single_byte_feeding():
    blob = encode_frame(COMPRESS, 3, b"payload bytes")
    parser = FrameParser()
    collected = []
    for index in range(len(blob)):
        collected += parser.feed(blob[index : index + 1])
    assert len(collected) == 1
    assert collected[0].payload == b"payload bytes"
    assert parser.buffered_bytes == 0


def test_payload_over_limit_rejected_before_allocation():
    parser = FrameParser(max_payload=64)
    huge = encode_frame(PING, 1, bytes(65))
    with pytest.raises(ProtocolError, match="limit"):
        parser.feed(huge)


def test_bad_magic_rejected():
    with pytest.raises(ProtocolError, match="magic"):
        FrameParser().feed(b"XXXX" + bytes(20))


def test_crc_mismatch_rejected():
    blob = bytearray(encode_frame(PING, 1, b"abcdef"))
    blob[-6] ^= 0x10  # flip a payload byte, leave the CRC alone
    with pytest.raises(ProtocolError, match="checksum"):
        FrameParser().feed(bytes(blob))


def test_frames_ahead_of_a_violation_are_handed_over_first():
    # What a peer is answered must not depend on how TCP segmented its
    # bytes: [valid][valid][bad magic] in ONE feed yields both frames;
    # the violation is raised by the next feed, and by every one after.
    good = encode_frame(PING, 7, b"hello") + encode_frame(PING, 8, b"")
    bad = b"\x00garbage that is no frame"
    parser = FrameParser()
    frames = parser.feed(good + bad)
    assert [(f.request_id, f.payload) for f in frames] == [
        (7, b"hello"),
        (8, b""),
    ]
    assert parser.buffered_bytes == len(bad)  # the offence stays buffered
    for more in (b"", b"more", encode_frame(PING, 9, b"")):
        with pytest.raises(ProtocolError, match="magic"):
            parser.feed(more)
    # The same holds for a violation only the CRC reveals.
    blob = bytearray(encode_frame(PING, 2, b"abcdef"))
    blob[-6] ^= 0x10
    parser = FrameParser()
    assert len(parser.feed(encode_frame(PING, 1, b"x") + bytes(blob))) == 1
    with pytest.raises(ProtocolError, match="checksum"):
        parser.feed(b"")


# ----------------------------------------------------------------------
# Corruption fuzz: truncation and bit flips at every offset
# ----------------------------------------------------------------------
def test_truncation_never_raises_and_never_yields_a_frame():
    blob = encode_frame(COMPRESS, 9, b"0123456789abcdef")
    for cut in range(len(blob)):
        parser = FrameParser()
        frames = parser.feed(blob[:cut])
        assert frames == []  # incomplete, never partial output


def test_single_byte_flips_are_rejected_or_reframed():
    blob = encode_frame(COMPRESS, 5, b"sensitive payload")
    type_offset = len(MAGIC)
    for offset in range(len(blob)):
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        parser = FrameParser(max_payload=1 << 16)
        try:
            frames = parser.feed(bytes(damaged))
        except ProtocolError:
            continue  # the expected rejection
        except BaseException as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(
                f"flip at {offset} leaked {type(exc).__name__}: {exc}"
            )
        # The only flip the CRC cannot see is the frame-type byte (it
        # is outside the payload checksum): the frame still parses,
        # and the server answers it with a typed unknown-type error.
        for frame in frames:
            assert offset == type_offset
            assert frame.payload == b"sensitive payload"


def test_hostile_length_prefix_never_allocates():
    # 2^62 declared payload bytes: must die on the declared length.
    head = MAGIC + bytes([PING]) + b"\x01"
    hostile = head + b"\x80\x80\x80\x80\x80\x80\x80\x80\x3e"
    with pytest.raises(ProtocolError):
        FrameParser().feed(hostile)


def test_unterminated_varint_rejected():
    head = MAGIC + bytes([PING]) + b"\x80" * 11
    with pytest.raises(ProtocolError, match="varint"):
        FrameParser().feed(head)


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def test_array_codec_roundtrip_shapes():
    for array in (
        np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4),
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.empty(0, dtype=np.float64),
        np.array(3.5),  # rank 0
    ):
        out = protocol.decode_array(protocol.encode_array(array))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert np.array_equal(out, array, equal_nan=True)


def test_array_codec_rejects_non_float():
    with pytest.raises(UnsupportedDtypeError):
        protocol.encode_array(np.arange(4))


def test_array_codec_rejects_size_mismatch():
    payload = bytearray(protocol.encode_array(np.arange(4.0)))
    with pytest.raises(ProtocolError, match="bytes"):
        protocol.decode_array(bytes(payload[:-1]))


def test_array_codec_fuzz_flips():
    payload = protocol.encode_array(np.linspace(0, 1, 32))
    for offset in range(min(6, len(payload))):  # header region
        damaged = bytearray(payload)
        damaged[offset] ^= 0xFF
        try:
            protocol.decode_array(bytes(damaged))
        except ProtocolError:
            pass
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"flip at {offset} leaked {type(exc).__name__}")


def test_compress_request_roundtrip():
    array = np.linspace(0, 1, 100)
    payload = protocol.encode_compress_request(array, "gorilla", 64, "measured")
    codec, policy, chunk_elements, out = protocol.decode_compress_request(
        payload
    )
    assert (codec, policy, chunk_elements) == ("gorilla", "measured", 64)
    assert np.array_equal(out, array)


def test_compress_request_fuzz_truncation():
    payload = protocol.encode_compress_request(
        np.linspace(0, 1, 16), "gorilla", 8
    )
    for cut in range(len(payload)):
        try:
            protocol.decode_compress_request(payload[:cut])
        except (ProtocolError, UnsupportedDtypeError):
            pass
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"cut at {cut} leaked {type(exc).__name__}")


def test_explain_request_roundtrip():
    array = np.linspace(0, 1, 30)
    policy, chunk_elements, out = protocol.decode_explain_request(
        protocol.encode_explain_request(array, "heuristic", 10)
    )
    assert (policy, chunk_elements) == ("heuristic", 10)
    assert np.array_equal(out, array)


def test_json_payload_rejects_garbage():
    with pytest.raises(ProtocolError):
        protocol.decode_json(b"\xff\xfe not json")
    with pytest.raises(ProtocolError):
        protocol.decode_json(b"[1, 2]")  # not an object


# ----------------------------------------------------------------------
# Cluster topology and control payloads
# ----------------------------------------------------------------------
def _topology_doc():
    return {
        "version": 1,
        "replication": 2,
        "vnodes": 128,
        "nodes": [
            {
                "id": f"node-{i}",
                "host": "127.0.0.1",
                "port": 7000 + i,
                "state": "up",
            }
            for i in range(3)
        ],
    }


def test_topology_roundtrip():
    doc = _topology_doc()
    assert protocol.decode_topology(protocol.encode_topology(doc)) == doc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("version"),
        lambda d: d.update(version=-1),
        lambda d: d.update(version=True),
        lambda d: d.update(version="1"),
        lambda d: d.update(replication=0),
        lambda d: d.update(vnodes=0),
        lambda d: d.update(vnodes=4097),
        lambda d: d.update(vnodes=True),
        lambda d: d.update(nodes=[]),
        lambda d: d.update(nodes="node-0"),
        lambda d: d["nodes"].append("not-an-object"),
        lambda d: d["nodes"].append(dict(d["nodes"][0])),  # duplicate id
        lambda d: d["nodes"][0].update(id=""),
        lambda d: d["nodes"][0].update(id="x" * 65),
        lambda d: d["nodes"][0].update(host=""),
        lambda d: d["nodes"][0].pop("host"),
        lambda d: d["nodes"][0].update(port=0),
        lambda d: d["nodes"][0].update(port=65536),
        lambda d: d["nodes"][0].update(port=True),
        lambda d: d["nodes"][0].update(port="7000"),
        lambda d: d["nodes"][0].update(state="zombie"),
        lambda d: d["nodes"][0].pop("state"),
    ],
)
def test_topology_defects_rejected_on_encode_and_decode(mutate):
    import json

    doc = _topology_doc()
    mutate(doc)
    with pytest.raises(ProtocolError, match="topology"):
        protocol.encode_topology(doc)
    with pytest.raises(ProtocolError, match="topology"):
        protocol.decode_topology(json.dumps(doc).encode())


def test_topology_rejects_non_object():
    with pytest.raises(ProtocolError):
        protocol.decode_topology(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        protocol.decode_topology(b"\xff not json")


def test_topology_oversized_node_list_rejected():
    doc = _topology_doc()
    doc["nodes"] = [
        {"id": f"node-{i}", "host": "h", "port": 1 + (i % 65535), "state": "up"}
        for i in range(1025)
    ]
    with pytest.raises(ProtocolError, match="nodes"):
        protocol.encode_topology(doc)


def test_topology_payload_fuzz_never_leaks():
    payload = protocol.encode_topology(_topology_doc())
    for cut in range(len(payload)):
        try:
            protocol.decode_topology(payload[:cut])
        except ProtocolError:
            pass
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"cut at {cut} leaked {type(exc).__name__}: {exc}")
    for offset in range(len(payload)):
        damaged = bytearray(payload)
        damaged[offset] ^= 0xFF
        try:
            doc = protocol.decode_topology(bytes(damaged))
        except ProtocolError:
            continue
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(
                f"flip at {offset} leaked {type(exc).__name__}: {exc}"
            )
        # A flip that still parses (e.g. inside a hostname) must still
        # be a structurally valid document.
        protocol.validate_topology(doc)


def test_topology_frame_truncation_and_flips():
    """CLUSTER_TOPOLOGY frames obey the same fuzz bar as every frame:
    damaged bytes parse to a valid frame or raise ProtocolError."""
    blob = encode_frame(
        protocol.CLUSTER_TOPOLOGY, 3, protocol.encode_topology(_topology_doc())
    )
    for cut in range(0, len(blob), 7):
        assert FrameParser().feed(blob[:cut]) == []
    for offset in range(0, len(blob), 7):
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        parser = FrameParser()
        try:
            frames = parser.feed(bytes(damaged))
        except ProtocolError:
            continue
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"flip at {offset} leaked {type(exc).__name__}")
        for frame in frames:  # only the un-checksummed type byte flip
            assert offset == len(MAGIC)
        assert parser.buffered_bytes <= len(blob)


def test_control_roundtrip():
    for action in protocol.CONTROL_ACTIONS:
        assert protocol.decode_control(protocol.encode_control(action)) == (
            action,
            None,
        )
    assert protocol.decode_control(
        protocol.encode_control("drain", "node-1")
    ) == ("drain", "node-1")


def test_control_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown control action"):
        protocol.encode_control("explode")
    with pytest.raises(ProtocolError, match="unknown control action"):
        protocol.decode_control(protocol.encode_json({"action": "explode"}))
    with pytest.raises(ProtocolError):
        protocol.decode_control(protocol.encode_json({}))
    with pytest.raises(ProtocolError):
        protocol.decode_control(
            protocol.encode_json({"action": "drain", "node": 7})
        )
    with pytest.raises(ProtocolError):
        protocol.decode_control(
            protocol.encode_json({"action": "drain", "node": "x" * 65})
        )
    with pytest.raises(ProtocolError):
        protocol.decode_control(b"\x00\x01garbage")


def test_control_payload_fuzz_never_leaks():
    payload = protocol.encode_control("drain", "node-1")
    for cut in range(len(payload)):
        try:
            protocol.decode_control(payload[:cut])
        except ProtocolError:
            pass
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"cut at {cut} leaked {type(exc).__name__}")
    for offset in range(len(payload)):
        damaged = bytearray(payload)
        damaged[offset] ^= 0xFF
        try:
            action, node = protocol.decode_control(bytes(damaged))
        except ProtocolError:
            continue
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"flip at {offset} leaked {type(exc).__name__}")
        assert action in protocol.CONTROL_ACTIONS


# ----------------------------------------------------------------------
# Typed error frames
# ----------------------------------------------------------------------
def test_error_code_mapping_is_bidirectional():
    cases = [
        (CorruptStreamError("x"), ERR_CORRUPT_STREAM, CorruptStreamError),
        (SelectionError("x"), ERR_SELECTION, SelectionError),
        (UnsupportedDtypeError("x"), protocol.ERR_UNSUPPORTED_DTYPE,
         UnsupportedDtypeError),
        (UnknownCodecError("nosuch"), protocol.ERR_UNKNOWN_CODEC,
         UnknownCodecError),
        # A KeyError from inside a codec is an internal fault, not a
        # misspelled codec name.
        (KeyError("nosuch"), protocol.ERR_INTERNAL, ServiceError),
        (RuntimeError("boom"), protocol.ERR_INTERNAL, ServiceError),
    ]
    for exc, expected_code, expected_type in cases:
        code = protocol.error_code_for(exc)
        assert code == expected_code
        frame = Frame(ERROR, 1, protocol.encode_error(code, str(exc)))
        with pytest.raises(expected_type):
            protocol.raise_for_error(frame)


def test_error_table_covers_every_code_and_round_trips_every_class():
    codes = {
        getattr(protocol, name)
        for name in protocol.__all__
        if name.startswith("ERR_")
    }
    assert codes == {code for code, _ in protocol._ERROR_TABLE}
    assert len(codes) == len(protocol._ERROR_TABLE)
    for code, exc_type in protocol._ERROR_TABLE:
        frame = Frame(ERROR, 1, protocol.encode_error(code, "x"))
        with pytest.raises(exc_type) as info:
            protocol.raise_for_error(frame)
        assert type(info.value) is exc_type  # the code decodes to its class
        # ... and the class encodes to a code that decodes to it again
        # (ERR_TOO_LARGE shares ProtocolError with ERR_PROTOCOL).
        encoded = protocol.error_code_for(info.value)
        assert protocol._ERROR_EXCEPTIONS[encoded] is exc_type
        if code != protocol.ERR_TOO_LARGE:
            assert encoded == code


def test_unknown_error_code_degrades_to_service_error():
    frame = Frame(ERROR, 1, protocol.encode_error(0xEE, "from the future"))
    with pytest.raises(ServiceError, match="future"):
        protocol.raise_for_error(frame)


def test_empty_error_payload_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        protocol.raise_for_error(Frame(ERROR, 1, b""))


def test_response_type_sets_high_bit():
    assert response_type(COMPRESS) == COMPRESS | 0x80


# ----------------------------------------------------------------------
# Inline answers: one table per endpoint, one "answer or typed error"
# ----------------------------------------------------------------------
def test_answer_inline_answers_or_types_the_error():
    import asyncio

    async def later(frame):
        return frame.payload[::-1]

    def corrupt(frame):
        raise CorruptStreamError("bad bytes")

    def boom(frame):
        raise RuntimeError("boom")

    def refuse(frame):
        raise ProtocolError("not here")

    handlers = {
        PING: lambda frame: frame.payload,
        COMPRESS: later,
        protocol.STATS: corrupt,
        protocol.HEALTH: boom,
        protocol.TRACE: refuse,
    }

    def answer(frame_type):
        return asyncio.run(
            protocol.answer_inline(
                handlers, Frame(frame_type, 1, b"abc"), "nobody serves {:#04x}"
            )
        )

    assert answer(PING) == (response_type(PING), b"abc")
    assert answer(COMPRESS) == (response_type(COMPRESS), b"cba")
    for frame_type, code, message in (
        (protocol.STATS, ERR_CORRUPT_STREAM, "CorruptStreamError: bad bytes"),
        (protocol.HEALTH, protocol.ERR_INTERNAL, "RuntimeError: boom"),
        (protocol.TRACE, protocol.ERR_PROTOCOL, "not here"),
        (0x6E, protocol.ERR_PROTOCOL, "nobody serves 0x6e"),
    ):
        assert answer(frame_type) == (ERROR, protocol.encode_error(code, message))
