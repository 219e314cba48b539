"""Same outcome under mutation: the array decoders vs. their oracles.

A payload that lost its tail or had one bit flipped must get the same
answer from ``_decompress`` and ``_decompress_scalar``: either both
refuse it with :class:`CorruptStreamError`, or both return the same
bits.  Never an untyped exception, never a decode on one side only —
that is what lets a vectorised decoder replace a per-element one without
an exception list.
"""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.errors import CorruptStreamError

# 127-130 straddle chimp's 128-value window, 31-33 / 63-65 GFC's subchunks.
LENGTHS = (2, 3, 5, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 130, 257, 400)
FLIPS = 12


def _arrays(dtype):
    """Four shapes of data at every length (68 arrays per dtype)."""
    rng = np.random.default_rng(2400 + np.dtype(dtype).itemsize)
    for length in LENGTHS:
        yield rng.normal(0.0, 1.0, length).astype(dtype)
        yield np.round(rng.normal(50.0, 10.0, length), 1).astype(dtype)
        yield np.repeat(rng.normal(0.0, 1.0, -(-length // 4)), 4)[:length].astype(dtype)
        yield (np.cumsum(rng.normal(0.0, 1e-4, length)) + 100.0).astype(dtype)


def _mutations(payload: bytes, rng):
    """Every truncation of the last 12 bytes, then seeded bit flips."""
    for cut in range(1, min(12, len(payload)) + 1):
        yield payload[:-cut]
    for bit in rng.integers(0, len(payload) * 8, FLIPS).tolist():
        flipped = bytearray(payload)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        yield bytes(flipped)


def _outcome(decode, payload, array):
    try:
        return np.asarray(decode(payload, array.shape, array.dtype)).tobytes()
    except CorruptStreamError:
        return None


@pytest.mark.parametrize(
    "method, dtype",
    [
        ("gorilla", np.float64),
        ("gorilla", np.float32),
        ("chimp", np.float64),
        ("chimp", np.float32),
        ("gfc", np.float64),
    ],
)
def test_mutated_payloads_get_one_answer(method, dtype):
    compressor = get_compressor(method)
    rng = np.random.default_rng(7)
    refused = decoded = 0
    for array in _arrays(dtype):
        payload = compressor._compress(array)
        assert _outcome(compressor._decompress, payload, array) == array.tobytes()
        for mutated in _mutations(payload, rng):
            vector = _outcome(compressor._decompress, mutated, array)
            oracle = _outcome(compressor._decompress_scalar, mutated, array)
            assert vector == oracle, (
                f"{method} decoders disagree on a {len(mutated)}-byte mutation "
                f"of a {array.size}-element {array.dtype} payload"
            )
            if vector is None:
                refused += 1
            else:
                decoded += 1
    # Both outcomes are exercised, so agreement is not vacuous.
    assert refused > 100 and decoded > 100
