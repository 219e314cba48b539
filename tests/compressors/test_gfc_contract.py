"""The contract GFC's array passes are written under: the bytes never move.

Three digests pin every ``gfc`` payload over the catalog, the bench
cells and a seeded edge set.  They were recorded from a clone of commit
43e390e (the per-element encoder), so a failure here means the stream
changed, not that a number drifted.  The second half covers the one
field the decoder takes from the payload itself: its element count.
"""

import hashlib

import numpy as np
import pytest

from repro.api import frames
from repro.compressors.gfc import GfcCompressor
from repro.data import CATALOG
from repro.data.loader import load
from repro.encodings.varint import encode_uvarint
from repro.errors import CorruptStreamError
from tests.conftest import assert_bit_exact

CHUNK = 4096
BENCH_DATASETS = ("msg-bt", "citytemp", "hst-wfc3-ir", "tpcH-order")
EDGE_SIZES = (0, 1, 2, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097)

PINNED = {
    "catalog": "2b500c01e6ae83a5f7811e7fad1810bc0beca2a57075398f8b8673bd4dac271b",
    "bench": "d5cc201cd7ae2d248a488aeab9060a5827405d943caee137b8206ad4af64829b",
    "edge": "eea05df7cc879e887bda4f9fc8a03f0a184403e2c88d18cebbb7a222aec1fd95",
}


def _catalog_cases():
    """All 33 datasets x 4 chunks of 4,096 (seed 0), native dtype."""
    for spec in CATALOG:
        flat = load(spec.name, 8 * CHUNK, 0).ravel()
        for start in range(0, 4 * CHUNK, CHUNK):
            yield flat[start : start + CHUNK]


def _bench_cases():
    """The four ``codec-bitpack`` cells: 65,536 elements, seed 0."""
    for name in BENCH_DATASETS:
        yield load(name, 65_536, 0).ravel()


def _every_code(size):
    """Residuals of every byte length 1-8 under both signs, in each
    subchunk: the first 16 values of a subchunk sit ``+-2**(8k + 3)``
    away from its base (after the first subchunk, whose base is 0), the
    rest on it."""
    step = np.zeros(size, dtype=np.uint64)
    lane = np.arange(size) % 32
    hot = lane < 16
    step[hot] = np.uint64(1) << (8 * (lane[hot] // 2) + 3).astype(np.uint64)
    odd = hot & (lane % 2 == 1)
    step[odd] = -step[odd]
    base = np.uint64(0x3FF0_0000_0000_0000)
    return (base + step).view(np.float64)


def _edge_cases():
    """Seeded arrays around every subchunk edge and every residual code."""
    rng = np.random.default_rng(24)
    plants = np.array(
        [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
         2.2e-308, 1.7e308, -1.7e308]
    )  # fmt: skip
    for size in EDGE_SIZES:
        yield rng.normal(0.0, 1.0, size)
        yield np.round(rng.normal(50.0, 10.0, size), 1)
        yield np.cumsum(rng.normal(0.0, 1e-6, size)) + 100.0
        yield np.repeat(rng.normal(0.0, 1.0, -(-size // 4)), 4)[:size]
        yield rng.normal(0.0, 1.0, size) * 1e-310
        # Uniform words: residuals wrap uint64 and carry NaN payloads.
        yield rng.integers(0, 1 << 64, size, dtype=np.uint64).view(np.float64)
        yield _every_code(size)
        yield rng.normal(0.0, 1.0, size).astype(np.float32)
        if size:
            planted = np.round(rng.normal(0.0, 100.0, size), 2)
            where = rng.integers(0, size, max(1, size // 8))
            planted[where] = rng.choice(plants, where.size)
            yield planted
            yield np.tile(plants, -(-size // plants.size))[:size]
            # The subchunk-last values (the next base) are the extremes.
            lasts = rng.normal(0.0, 1.0, size)
            lasts[31::32] = rng.choice(plants, lasts[31::32].size)
            yield lasts


CASES = {"catalog": _catalog_cases, "bench": _bench_cases, "edge": _edge_cases}


def _encode(coder, array):
    """``frames.encode_payload`` with the codec hook swapped for
    ``coder``, so float32 chunks take the reinterpretation either way."""
    comp = GfcCompressor()
    comp._compress = getattr(comp, coder)
    return frames.encode_payload(comp, array)


def digest(name: str, coder: str = "_compress") -> str:
    """sha256 over the concatenated payloads of one case set."""
    sha = hashlib.sha256()
    for array in CASES[name]():
        sha.update(_encode(coder, array))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_bytes_are_pinned(name):
    assert digest(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_writes_the_pinned_bytes_too(name):
    assert digest(name, "_compress_scalar") == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_decoders_invert_the_payload(name):
    comp = GfcCompressor()
    for array in CASES[name]():
        payload = frames.encode_payload(comp, array)
        wide = frames.codec_input(comp, array)
        for decode in (comp._decompress, comp._decompress_scalar):
            assert_bit_exact(wide, decode(payload, wide.shape, wide.dtype))
        assert_bit_exact(
            array, frames.decode_payload(comp, payload, array.size, array.dtype)
        )


def test_every_code_case_holds_every_code():
    comp = GfcCompressor()
    payload = comp._compress(_every_code(64))
    nibbles = np.frombuffer(payload[1:33], dtype=np.uint8)
    codes = set((nibbles >> 4).tolist()) | set((nibbles & 15).tolist())
    assert codes == set(range(16))


# ----------------------------------------------------------------------
# The element count is the payload's own claim: check it, then allocate
# ----------------------------------------------------------------------
F64 = np.dtype(np.float64)
DECODERS = ("_decompress", "_decompress_scalar")


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("claimed", [1 << 40, 1 << 62, 8, 3, 0])
def test_count_is_checked_before_anything_is_sized_from_it(decoder, claimed):
    decode = getattr(GfcCompressor(), decoder)
    with pytest.raises(CorruptStreamError, match="declares"):
        decode(encode_uvarint(claimed), (4,), F64)


@pytest.mark.parametrize("decoder", DECODERS)
def test_longer_payload_under_a_shorter_frame_is_refused(decoder):
    comp = GfcCompressor()
    payload = comp._compress(np.arange(8.0))
    with pytest.raises(CorruptStreamError, match="declares 8"):
        getattr(comp, decoder)(payload, (4,), F64)
    assert_bit_exact(np.arange(8.0), getattr(comp, decoder)(payload, (8,), F64))


def test_expansion_bound_is_declared():
    # Half a code byte and at least one residual byte per element.
    assert GfcCompressor.max_decode_expansion == 1
    comp = GfcCompressor()
    payload = comp._compress(np.zeros(100_000))
    assert 100_000 <= len(payload)
    frames.check_declared_count(comp, 100_000, len(payload))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_frame_layer_bounds_the_header_and_the_payload_count(dtype):
    comp = GfcCompressor()
    poisoned = encode_uvarint(1 << 40)
    with pytest.raises(CorruptStreamError, match="declares"):
        frames.decode_payload(comp, poisoned, 4, dtype)
    # 256 elements per payload byte was the default; GFC's floor is 1.
    with pytest.raises(CorruptStreamError, match="expands <= 1"):
        frames.decode_payload(comp, poisoned, 40_000, dtype)
    chunk = np.arange(8, dtype=dtype)
    payload = frames.encode_payload(comp, chunk)
    with pytest.raises(CorruptStreamError, match="declares"):
        frames.decode_payload(comp, payload, 4, dtype)
    assert_bit_exact(chunk, frames.decode_payload(comp, payload, 8, dtype))
