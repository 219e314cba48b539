"""MPC: massively parallel synthesized delta + bit-transpose pipeline.

Paper section 4.2.  MPC processes 1024-element chunks with four
components selected by combinatorial search (138,240 candidates):

1. ``LNV6s`` — subtract the 6th prior value within the chunk,
2. ``BIT``   — bit-transpose each group of 64 (32) words, so that a
   group's successive bit planes are consecutive words,
3. ``LNV1s`` — subtract the previous word of the transposed stream,
4. ``ZE``    — emit a zero-word bitmap plus the non-zero words.

The paper notes MPC "resembles ndzip in the entire pipeline, except for
using the delta-based predictor to replace the Lorenzo prediction";
structurally this module shares the transpose/zero-removal machinery
and swaps the predictor.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import float_bits, transpose_bit_tiles
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["MpcCompressor"]

_CHUNK = 1024
_DELTA_LAG = 6


@register
class MpcCompressor(Compressor):
    """MPC (Yang, Mukka, Hesaaraki & Burtscher, 2015)."""

    info = MethodInfo(
        name="mpc",
        display_name="MPC",
        year=2015,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="gpu",
        parallelism="SIMT",
        language="CUDA C",
        trait="transform+delta",
        predictor_family="delta",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=1024),
        compress_kernels=(
            KernelSpec("lnv6_bit_lnv1", int_ops=42.0, bytes_touched=5.0),
            KernelSpec("zero_eliminate", int_ops=4.0, bytes_touched=2.0),
        ),
        decompress_kernels=(
            KernelSpec("zero_restore", int_ops=4.0, bytes_touched=2.0),
            KernelSpec("unbit_unlnv", int_ops=42.0, bytes_touched=5.0),
        ),
        anchor_compress_gbs=29.595,
        anchor_decompress_gbs=28.513,
        transfer_efficiency=0.55,
        footprint_factor=2.0,
    )

    def _compress(self, array: np.ndarray) -> bytes:
        words = float_bits(array.ravel())
        n = words.size
        out = bytearray()
        out += encode_uvarint(n)
        if n == 0:
            return bytes(out)

        pad = (-n) % _CHUNK
        if pad:
            words = np.concatenate([words, np.zeros(pad, dtype=words.dtype)])
        chunks = words.reshape(-1, _CHUNK)

        # LNV6s: subtract the 6th prior value within the chunk.
        stage1 = chunks.copy()
        stage1[:, _DELTA_LAG:] = chunks[:, _DELTA_LAG:] - chunks[:, :-_DELTA_LAG]
        # BIT: a group's bit planes become consecutive words, so the
        # sign-extension planes of small residuals are equal words that
        # LNV1s zeroes and ZE removes.
        stage2 = transpose_bit_tiles(stage1)
        # LNV1s: subtract the previous word of the transposed stream.
        stage3 = stage2.copy()
        stage3[:, 1:] = stage2[:, 1:] - stage2[:, :-1]
        # ZE: zero-word bitmap plus the non-zero words.
        mask = stage3 != 0
        bitmap = np.packbits(mask, axis=1)
        out += bitmap.tobytes()
        out += stage3[mask].tobytes()
        return bytes(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n, offset = decode_uvarint(payload, 0)
        uint_dtype = np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64
        if n == 0:
            return np.empty(0, dtype=dtype)
        n_chunks = -(-n // _CHUNK)
        bitmap_bytes = n_chunks * (_CHUNK // 8)
        if offset + bitmap_bytes > len(payload):
            raise CorruptStreamError("MPC bitmap truncated")
        mask = np.unpackbits(
            np.frombuffer(payload[offset : offset + bitmap_bytes], dtype=np.uint8)
        ).astype(bool).reshape(n_chunks, _CHUNK)
        offset += bitmap_bytes
        tail = payload[offset:]
        if len(tail) % np.dtype(uint_dtype).itemsize:
            raise CorruptStreamError("MPC non-zero word stream truncated")
        nonzero = np.frombuffer(tail, dtype=uint_dtype)
        if nonzero.size != int(mask.sum()):
            raise CorruptStreamError("MPC zero-word bitmap mismatch")

        stage3 = np.zeros((n_chunks, _CHUNK), dtype=uint_dtype)
        stage3[mask] = nonzero
        stage2 = np.cumsum(stage3, axis=1, dtype=uint_dtype)
        stage1 = transpose_bit_tiles(stage2)
        # Undo LNV6s: the lag-6 recurrence splits into 6 independent
        # prefix sums over the interleaved lanes (modular arithmetic
        # wraps identically to the scalar per-lane loop).
        chunks = stage1.copy()
        for residue in range(_DELTA_LAG):
            lanes = chunks[:, residue::_DELTA_LAG]
            np.cumsum(lanes, axis=1, dtype=uint_dtype, out=lanes)
        return chunks.reshape(-1)[:n].view(dtype)
