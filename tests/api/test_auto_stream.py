"""Mixed-codec (FCF v2) streams: the `auto` pseudo-codec end to end.

Covers the tentpole guarantees: adaptive streams round-trip bit-exactly
with more than one codec in play, fixed-codec streams still emit format
v1 byte-for-byte, the chunk-parallel path is byte-identical to serial,
corruption anywhere surfaces as CorruptStreamError, and the heuristic
policy achieves >= 95% of the best fixed codec's compression ratio on
the generated 4-domain corpus (the paper's per-domain winners, online).
"""

import io

import numpy as np
import pytest

from repro.api import (
    AUTO_CODEC,
    FORMAT_V2,
    FORMAT_VERSION,
    DecompressSession,
    StreamHeader,
    compress_array,
    decompress_array,
)
from repro.api import frames as _frames
from repro.api.session import CompressSession
from repro.errors import CorruptStreamError, SelectionError
from repro.select.policy import (
    HeuristicPolicy,
    MeasuredPolicy,
    SelectionPolicy,
)

CHUNK = 2048


def _mixed_array():
    """Three regimes so a selecting writer must mix codecs."""
    rng = np.random.default_rng(0)
    smooth = np.sin(np.linspace(0.0, 20.0, 2 * CHUNK))
    decimal = np.round(rng.normal(10.0, 2.0, 2 * CHUNK), 2)
    noise = rng.normal(0.0, 1.0, 2 * CHUNK)
    return np.concatenate([smooth, decimal, noise])


def _bits(array):
    return array.ravel().view(np.uint64 if array.dtype.itemsize == 8 else np.uint32)


# ----------------------------------------------------------------------
# Round trips and stream shape
# ----------------------------------------------------------------------
def test_auto_stream_roundtrips_and_mixes_codecs():
    array = _mixed_array()
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    assert blob[:4] == _frames.FRAME_MAGIC
    assert blob[4] == FORMAT_V2
    out = decompress_array(blob)
    assert np.array_equal(_bits(out), _bits(array))
    with DecompressSession(blob) as stream:
        assert stream.codec_name == AUTO_CODEC
        assert stream.format_version == FORMAT_V2
        names = stream.frame_codec_names()
        assert len(names) == stream.n_chunks
        assert len(set(names)) >= 2, "engineered regimes should mix codecs"
        assert set(names) <= set(stream.codec_table)


def test_fixed_codec_still_writes_v1():
    array = _mixed_array()
    blob = compress_array(array, "gorilla", chunk_elements=CHUNK)
    assert blob[4] == FORMAT_VERSION
    with DecompressSession(blob) as stream:
        assert stream.format_version == FORMAT_VERSION
        assert stream.codec_table == ()
        assert stream.frame_codec_names() == ["gorilla"] * stream.n_chunks


def test_auto_session_tracks_codec_frames():
    array = _mixed_array()
    buf = io.BytesIO()
    with CompressSession(buf, AUTO_CODEC, chunk_elements=CHUNK) as session:
        session.write(array)
    assert sum(session.codec_frames.values()) == len(session.frames)
    assert len(session.codec_frames) >= 2


def test_auto_roundtrip_float32_and_empty():
    array = _mixed_array().astype(np.float32)
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    assert np.array_equal(_bits(decompress_array(blob)), _bits(array))
    empty = np.empty(0, dtype=np.float64)
    blob = compress_array(empty, AUTO_CODEC)
    assert decompress_array(blob).size == 0


def test_auto_random_access_reads():
    array = _mixed_array()
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    with DecompressSession(blob) as stream:
        window = stream.read(CHUNK - 5, 3 * CHUNK + 7)
        assert np.array_equal(_bits(window), _bits(array[CHUNK - 5 : 3 * CHUNK + 7]))
        chunks = list(stream.chunks())
        assert sum(c.size for c in chunks) == array.size


@pytest.mark.parametrize("policy", ["heuristic", "measured"])
def test_parallel_auto_write_is_byte_identical(policy):
    array = _mixed_array()
    resolved = (
        MeasuredPolicy(sample_elements=256) if policy == "measured" else "heuristic"
    )
    serial = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK, policy=resolved)
    fanned = compress_array(
        array, AUTO_CODEC, chunk_elements=CHUNK, policy=resolved, jobs=2
    )
    assert serial == fanned


def test_parallel_auto_decode_matches_serial():
    array = _mixed_array()
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    serial = decompress_array(blob)
    fanned = decompress_array(blob, jobs=2)
    assert np.array_equal(_bits(serial), _bits(fanned))


def test_measured_policy_stream_roundtrips():
    array = _mixed_array()
    policy = MeasuredPolicy(sample_elements=256)
    blob = compress_array(array, policy, chunk_elements=CHUNK)
    assert blob[4] == FORMAT_V2
    assert np.array_equal(_bits(decompress_array(blob)), _bits(array))


# ----------------------------------------------------------------------
# Corruption fuzz (v2-specific surfaces + whole-stream damage)
# ----------------------------------------------------------------------
def _expect_corrupt_or_exact(decode, original):
    try:
        out = decode()
    except CorruptStreamError:
        return
    except BaseException as exc:  # noqa: BLE001 - the point of the test
        pytest.fail(
            f"leaked {type(exc).__name__} instead of CorruptStreamError: {exc}"
        )
    assert out.size == original.size and np.array_equal(
        _bits(np.asarray(out)), _bits(original)
    ), "damaged stream decoded to different data without an error"


def test_v2_stream_truncation_everywhere():
    array = _mixed_array()[: 2 * CHUNK + 17]
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    cuts = sorted(set(range(0, len(blob), max(1, len(blob) // 64))) | {len(blob) - 1})
    for cut in cuts:
        _expect_corrupt_or_exact(lambda c=cut: decompress_array(blob[:c]), array)


def test_v2_stream_byte_flips_everywhere():
    array = _mixed_array()[: 2 * CHUNK + 17]
    blob = compress_array(array, AUTO_CODEC, chunk_elements=CHUNK)
    positions = sorted(
        set(range(0, len(blob), max(1, len(blob) // 96))) | {4, 5, len(blob) - 1}
    )
    for position in positions:
        damaged = bytearray(blob)
        damaged[position] ^= 0x5A
        _expect_corrupt_or_exact(
            lambda d=bytes(damaged): decompress_array(d), array
        )


def test_frame_codec_id_out_of_table_is_corruption():
    with pytest.raises(CorruptStreamError):
        _frames.split_frame_codec(b"\x07payload", n_codecs=4)
    # A truncated varint prefix is corruption too, not an IndexError.
    with pytest.raises(CorruptStreamError):
        _frames.split_frame_codec(b"", n_codecs=4)


def test_header_with_unknown_table_codec_fails_at_open():
    header = StreamHeader(
        AUTO_CODEC,
        np.dtype(np.float64),
        CHUNK,
        version=FORMAT_V2,
        codec_table=("gorilla", "definitely-not-a-codec"),
    ).encode()
    index = _frames.encode_index([], (0,))
    blob = header + index + len(index).to_bytes(8, "little") + _frames.END_MAGIC
    with pytest.raises(CorruptStreamError):
        DecompressSession(blob)


def test_header_rejects_hostile_codec_tables():
    # magic | version=2 | dtype=f64 | codec "auto" | chunk_elements=16
    prefix = _frames.FRAME_MAGIC + bytes([FORMAT_V2, 1]) + b"\x04auto" + b"\x10"
    name = b"\x07gorilla"
    # Duplicate table entries, crafted at the byte level.
    with pytest.raises(CorruptStreamError):
        StreamHeader.decode(prefix + b"\x02" + name + name)
    # Table size beyond the hard bound (33 > 32), entries absent.
    with pytest.raises(CorruptStreamError):
        StreamHeader.decode(prefix + b"\x21")
    # Zero-size table.
    with pytest.raises(CorruptStreamError):
        StreamHeader.decode(prefix + b"\x00")


def test_v2_header_encode_validation():
    with pytest.raises(ValueError):
        StreamHeader(
            AUTO_CODEC, np.dtype(np.float64), 1, version=FORMAT_V2, codec_table=()
        ).encode()
    with pytest.raises(ValueError):
        StreamHeader(
            "gorilla",
            np.dtype(np.float64),
            1,
            codec_table=("gorilla",),
        ).encode()
    with pytest.raises(ValueError):
        StreamHeader(
            AUTO_CODEC,
            np.dtype(np.float64),
            1,
            version=FORMAT_V2,
            codec_table=("gorilla", "gorilla"),
        ).encode()


def test_v2_header_roundtrip():
    header = StreamHeader(
        AUTO_CODEC,
        np.dtype(np.float32),
        4096,
        version=FORMAT_V2,
        codec_table=("bitshuffle-zstd", "fpzip"),
    )
    decoded, size = StreamHeader.decode(header.encode())
    assert decoded == header
    assert size == len(header.encode())


def test_policy_choosing_outside_table_is_a_selection_error():
    class RoguePolicy(SelectionPolicy):
        name = "rogue"
        candidates = ("gorilla",)

        def decide(self, chunk):
            from repro.select.policy import SelectionDecision

            return SelectionDecision("chimp", "off the table", None)

    buf = io.BytesIO()
    session = CompressSession(buf, RoguePolicy(), chunk_elements=64)
    with pytest.raises(SelectionError):
        session.write(np.zeros(256))
        session.close()


# ----------------------------------------------------------------------
# Acceptance: auto >= 95% of the best fixed codec, one dataset per domain
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "dataset", ["num-brain", "citytemp", "hst-wfc3-ir", "tpcH-order"]
)
def test_heuristic_auto_within_95_percent_of_best_fixed(dataset):
    """Multi-chunk regime on purpose: selection runs per 4 Ki chunk, so
    threshold regressions that only appear at finer chunking fail here."""
    from repro.data.loader import load

    policy = HeuristicPolicy()
    array = load(dataset, 8192, 0)
    auto_blob = compress_array(array, policy, chunk_elements=4096)
    assert np.array_equal(_bits(decompress_array(auto_blob)), _bits(array))
    best = min(
        len(compress_array(array, name, chunk_elements=4096))
        for name in policy.candidates
    )
    fraction = best / len(auto_blob)
    assert fraction >= 0.95, (
        f"auto achieved {fraction:.1%} of the best fixed codec on {dataset}"
    )
