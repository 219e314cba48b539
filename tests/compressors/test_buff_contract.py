"""The contract BUFF's encoder is optimised under: the bytes never move.

Three digests pin every ``buff`` payload over the catalog, the bench
cells and a seeded edge set.  They were recorded from a clone of commit
00b6f16 (the encoder before it shared one base across precisions), so a
failure here means the stream changed, not that a number drifted.  The
work the encoder does is pinned as a *count* of quantized elements,
never as a time.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.compressors import buff
from repro.compressors.buff import BuffCompressor
from repro.data import CATALOG
from repro.data.loader import load
from tests.conftest import assert_bit_exact

CHUNK = 4096
BENCH_DATASETS = ("msg-bt", "citytemp", "hst-wfc3-ir", "tpcH-order")
EDGE_SIZES = (0, 1, 2, 3, 63, 64, 65, 255, 256, 257, 4095, 4096, 8193)

PINNED = {
    "catalog": "9ed0c7dadc4122e92fcd2bef233457ccb82595224734b52a65c7c581fedb3014",
    "bench": "38a465d6a64370efd09f153040fce19da34f6c0e10a346311c9433bf9181725c",
    "edge": "058ec25dc4a6cf8ef47655a90bcf8644d256c66395fecc9a983aab4c598fdc21",
}


def _catalog_cases():
    """All 33 datasets x 4 chunks of 4,096 (seed 0), default encoder."""
    for spec in CATALOG:
        flat = load(spec.name, 8 * CHUNK, 0).ravel()
        for start in range(0, 4 * CHUNK, CHUNK):
            yield BuffCompressor(), flat[start : start + CHUNK]


def _bench_cases():
    """The four ``codec-bitpack`` cells: 65,536 elements, seed 0."""
    for name in BENCH_DATASETS:
        yield BuffCompressor(), load(name, 65_536, 0).ravel()


def _decimal(rng, size, dtype, low=0.0):
    """Two-digit decimals.  From 0 every float64 one round-trips; from a
    negative base the shift costs bits and about half become outliers."""
    return np.round(rng.uniform(low, low + 200.0, size), 2).astype(dtype)


def _quarters(rng, size, dtype):
    """Multiples of 0.25: exact in both dtypes, so precision 2 clears
    where 0 and 1 do not."""
    return (np.round(rng.uniform(0.0, 100.0, size) * 4) / 4).astype(dtype)


def _noise(rng, size, dtype):
    return rng.normal(50.0, 10.0, size).astype(dtype)


def _edge_cases():
    """Seeded arrays around every branch of the precision chooser."""
    rng = np.random.default_rng(22)
    for dtype in (np.float64, np.float32):
        huge = 1e308 if dtype is np.float64 else 3e38
        plants = (
            np.nan, np.inf, -np.inf, -0.0, 0.0,
            float(np.finfo(dtype).smallest_subnormal), huge, -huge, np.pi,
        )  # fmt: skip
        for size in EDGE_SIZES:
            yield BuffCompressor(), _decimal(rng, size, dtype)
            yield BuffCompressor(), _decimal(rng, size, dtype, low=-50.0)
            yield BuffCompressor(), _quarters(rng, size, dtype)
            yield BuffCompressor(), _noise(rng, size, dtype)
            if not size:
                continue
            for plant in plants:
                planted = _quarters(rng, size, dtype)
                planted[rng.integers(0, size, max(1, size // 200))] = plant
                yield BuffCompressor(), planted
            mixed = _decimal(rng, size, dtype)
            mixed[rng.integers(0, size, max(1, size // 16))] = rng.choice(
                plants, max(1, size // 16)
            )
            yield BuffCompressor(), mixed
            yield BuffCompressor(), np.full(size, np.nan, dtype)
            # The minimum is an outlier: the final base differs from the
            # chooser's provisional one, so the re-verification runs.
            low = _decimal(rng, size, dtype) + dtype(1.0)
            low[size // 2] = np.pi / 10
            yield BuffCompressor(), low
        # 40 of 4,096 outliers clear the 0.99 threshold, 41 do not; the
        # chooser's 64-value prefix is all, most or none of the failures.
        for size, cut in itertools.product((256, 300, 4096), (2, 3, 40, 41, 64)):
            for clean in (_quarters, _decimal):
                head = clean(rng, size, dtype)
                head[:cut] = _noise(rng, cut, dtype)
                yield BuffCompressor(), head
                tail = _noise(rng, size, dtype)
                tail[:cut] = clean(rng, cut, dtype)
                yield BuffCompressor(), tail
                spread = clean(rng, size, dtype)
                spread[rng.choice(size, cut, replace=False)] = np.pi
                yield BuffCompressor(), spread
        sources = (
            _decimal(rng, CHUNK, dtype),
            _quarters(rng, 1000, dtype),
            _noise(rng, 300, dtype),
            np.round(rng.uniform(0.0, 9.0, 1000), 5).astype(dtype),
            np.concatenate([_noise(rng, 30, dtype), _quarters(rng, 270, dtype)]),
            np.array([], dtype),
        )
        for precision, threshold in itertools.product(
            (0, 2, 5, 10), (0.5, 0.99, 1.0)
        ):
            for source in sources:
                yield BuffCompressor(precision, threshold), source
        for threshold in (0.5, 1.0):
            for source in sources:
                yield BuffCompressor(None, threshold), source


CASES = {"catalog": _catalog_cases, "bench": _bench_cases, "edge": _edge_cases}


def digest(name: str) -> str:
    """sha256 over the concatenated ``_compress`` payloads of one set."""
    sha = hashlib.sha256()
    for comp, array in CASES[name]():
        sha.update(comp._compress(np.ascontiguousarray(array)))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_bytes_are_pinned(name):
    assert digest(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_roundtrip_is_bit_exact(name):
    for comp, array in CASES[name]():
        array = np.ascontiguousarray(array)
        payload = comp._compress(array)
        assert_bit_exact(array, comp._decompress(payload, array.shape, array.dtype))


@pytest.fixture
def quantized_elements(monkeypatch):
    """Sum of the elements handed to the module's one quantize helper."""
    seen = []
    original = buff._quantize

    def counting(values, *rest):
        seen.append(values.size)
        return original(values, *rest)

    monkeypatch.setattr(buff, "_quantize", counting)
    return seen


def test_decimal_chunk_is_quantized_once(quantized_elements):
    chunk = load("tpcH-order", 4 * CHUNK, 0).ravel()[:CHUNK]
    BuffCompressor()._compress(chunk)
    # Precisions 0 and 1 fall on their 64-value prefix, precision 2 is
    # the one full pass, and the encode reuses it (five passes before).
    assert sum(quantized_elements) <= CHUNK + 3 * 64


def test_outlier_minimum_still_takes_the_reverification(quantized_elements):
    rng = np.random.default_rng(5)
    chunk = _decimal(rng, CHUNK, np.float64, low=1.0)
    chunk[100] = np.pi / 10
    payload = BuffCompressor()._compress(chunk)
    # One full pass at the chosen precision against the provisional
    # base, and one over the inliers against the final base.
    assert quantized_elements[-2:] == [CHUNK, CHUNK - 1]
    meta = buff._parse_stream(payload, chunk.dtype)
    assert meta.base == 1.0
    # 36 values that round-trip from base 0 do not from base 1.
    assert meta.n_inliers == CHUNK - 1 - 36
    restored = BuffCompressor()._decompress(payload, chunk.shape, chunk.dtype)
    assert_bit_exact(chunk, restored)
