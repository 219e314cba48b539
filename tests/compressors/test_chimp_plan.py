"""Chimp's decoder after the walk: one reconstruction for every plan.

``_reconstruct`` resolves ``out[p] = out[parent[p]] ^ xor[p]`` by pointer
doubling.  It replaced a per-element loop (dense window references) and
a per-anchor slice loop (sparse ones) chosen by a density threshold, so
the hand-built plans below sit on both sides of where that threshold
was, and at the extremes of chain depth.
"""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.chimp import _reconstruct
from repro.errors import CorruptStreamError
from tests.conftest import assert_bit_exact

COUNT = 1000


def _naive(first, xors, refs):
    out = [first]
    for p, (xor, ref) in enumerate(zip(xors.tolist(), refs.tolist()), start=1):
        out.append(out[ref if ref >= 0 else p - 1] ^ xor)
    return np.asarray(out, dtype=np.uint64)


def _refs(kind: str) -> np.ndarray:
    p = np.arange(1, COUNT)
    previous = np.full(COUNT - 1, -1)
    if kind == "all-previous":
        return previous
    if kind == "window-newest":  # a chain of depth COUNT - 1, all by reference
        return p - 1
    if kind == "window-oldest":
        return np.maximum(p - 128, 0)
    if kind == "window-root":
        return np.zeros(COUNT - 1, dtype=np.int64)
    if kind == "random-window":
        rng = np.random.default_rng(4)
        return rng.integers(np.maximum(p - 128, 0), p)
    every = int(kind.rpartition("-")[2])
    return np.where(p % every == 0, np.maximum(p - 100, 0), previous)


@pytest.mark.parametrize(
    "kind",
    [
        "all-previous", "window-newest", "window-oldest", "window-root",
        "random-window", "one-in-2", "one-in-4", "one-in-5", "one-in-50",
    ],
)  # fmt: skip
def test_reconstruction_matches_the_recurrence(kind):
    rng = np.random.default_rng(len(kind))
    xors = rng.integers(0, 1 << 64, COUNT - 1, dtype=np.uint64)
    refs = _refs(kind)
    first = 0xDEADBEEF_01234567
    expected = _naive(first, xors, refs)
    assert np.array_equal(_reconstruct(first, xors, refs), expected)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_reconstruction_of_the_smallest_plans(count):
    xors = np.arange(1, count, dtype=np.uint64)
    refs = np.full(count - 1, -1)
    assert np.array_equal(_reconstruct(9, xors, refs), _naive(9, xors, refs))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_window_edge_values_reference_exactly_128_back(dtype):
    # Period 128 puts every candidate on the oldest retained slot, period
    # 129 one past it: a reference the encoder may not take.
    comp = get_compressor("chimp")
    for period in (127, 128, 129):
        array = np.tile(np.random.default_rng(period).normal(0, 1, period), 4)
        array = array.astype(dtype)
        payload = comp._compress(array)
        assert payload == comp._compress_scalar(array)
        assert_bit_exact(array, comp._decompress(payload, array.shape, array.dtype))


def _stream(record_bits: str) -> bytes:
    """1.0, then one hand-written record, padded to a byte."""
    first = int(np.array([1.0]).view(np.uint64)[0])
    bits = f"{first:064b}" + record_bits
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@pytest.mark.parametrize(
    "record",
    [
        "00" + f"{5:07b}",  # index 5 with one value retained
        "01" + f"{5:07b}" + "000" + f"{7:06b}" + "1" * 8,
        # lead 24 + centre 64 leaves a negative trailing count
        "01" + f"{0:07b}" + "111" + f"{63:06b}" + "1" * 64,
    ],
)
def test_invalid_window_records_are_refused_by_both_decoders(record):
    comp = get_compressor("chimp")
    for decode in (comp._decompress, comp._decompress_scalar):
        with pytest.raises(CorruptStreamError, match="window reference"):
            decode(_stream(record), (2,), np.dtype(np.float64))
