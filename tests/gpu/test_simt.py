"""SIMT work layout the GPU codecs keep: warp subchunks and block tables.

GFC cuts the flat array into 32-value warp subchunks; ndzip bit-transposes
residuals in word-width chunks and writes a size table ahead of its
concatenated blocks, which is what lets every block decode on its own.
"""

import numpy as np
import pytest

from repro.compressors.gfc import GfcCompressor, _residual_plan
from repro.compressors.ndzip import (
    NdzipGpuCompressor,
    _transpose_chunks,
    _untranspose_chunks,
)
from repro.compressors.util import float_bits, sign_magnitude_map
from repro.encodings.varint import decode_uvarint


def _size_table(payload: bytes) -> tuple[list[int], int]:
    """ndzip's per-block sizes and the offset of the first block."""
    n_blocks, offset = decode_uvarint(payload, 0)
    sizes = []
    for _ in range(n_blocks):
        size, offset = decode_uvarint(payload, offset)
        sizes.append(size)
    return sizes, offset


def test_pad_to_multiple():
    for dtype, width in ((np.uint64, 64), (np.uint32, 32)):
        words, _ = _transpose_chunks(np.arange(1, 11, dtype=dtype))
        assert words.size == width
        np.testing.assert_array_equal(
            _untranspose_chunks(words, 10), np.arange(1, 11, dtype=dtype)
        )
        full, _ = _transpose_chunks(np.arange(width, dtype=dtype))
        assert full.size == width


def test_pad_requires_flat():
    # Warp subchunks are cut from the flat array, whatever its shape.
    arr = np.cumsum(np.random.default_rng(1).normal(0, 1, 1024))
    gfc = GfcCompressor()
    assert gfc._compress(arr.reshape(32, 32)) == gfc._compress(arr)


def test_warp_chunks_shape():
    # 64 values form two warps: the first predicts from 0, the second
    # from the last value of the first.
    bits = np.arange(64, dtype=np.uint64)
    negative, magnitude, _ = _residual_plan(bits)
    assert not negative.any()
    np.testing.assert_array_equal(magnitude[:32], np.arange(32))
    np.testing.assert_array_equal(magnitude[32:], np.arange(1, 33))


def test_warp_chunks_rejects_ragged():
    with pytest.raises(ValueError):
        _untranspose_chunks(np.zeros(33, dtype=np.uint64), 33)


def test_exclusive_prefix_sum():
    arr = np.cumsum(np.random.default_rng(2).normal(0, 1, 2 * 4096 + 100))
    payload = NdzipGpuCompressor()._compress(arr)
    sizes, start = _size_table(payload)
    assert len(sizes) == 3
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    assert start + offsets[-1] == len(payload)


def test_compact_chunks_offsets():
    arr = np.cumsum(np.random.default_rng(3).normal(0, 1, 2 * 4096 + 100))
    codec = NdzipGpuCompressor()
    blocks = codec._encode_blocks(sign_magnitude_map(float_bits(arr)), (4096,))
    payload = codec._compress(arr)
    sizes, start = _size_table(payload)
    assert sizes == [len(block) for block in blocks]
    assert payload[start:] == b"".join(blocks)
