"""MPC: massively parallel synthesized delta + bit-transpose pipeline.

Paper section 4.2.  MPC processes 1024-element chunks with four
components selected by combinatorial search (138,240 candidates):

1. ``LNV6s`` — subtract the 6th prior value within the chunk,
2. ``BIT``   — bit-transpose the chunk (same operation as bitshuffle),
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
from repro.compressors.util import float_bits
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["MpcCompressor"]

_CHUNK = 1024
_DELTA_LAG = 6


def _bit_transpose_chunks(chunks: np.ndarray) -> np.ndarray:
    """MPC's BIT component: bit transpose with plane-interleaved output.

    Per chunk of L words, bit plane p of word group j becomes output
    word ``j * width + p`` — i.e. consecutive output words are the
    *same* word-group's successive bit planes.  This ordering is what
    makes the following LNV1s delta effective: for small two's-
    complement residuals, the sign-extension planes of a group are
    identical words, so their pairwise differences are zero and ZE
    removes them.
    """
    n_chunks, chunk_len = chunks.shape
    width = chunks.dtype.itemsize * 8
    groups = chunk_len // width
    be = chunks.astype(chunks.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8).reshape(n_chunks, -1), axis=1)
    planes = bits.reshape(n_chunks, chunk_len, width).transpose(0, 2, 1)
    interleaved = planes.reshape(n_chunks, width, groups, width).transpose(
        0, 2, 1, 3
    )
    packed = np.packbits(interleaved.reshape(n_chunks, -1), axis=1)
    return (
        packed.reshape(-1)
        .view(chunks.dtype.newbyteorder(">"))
        .astype(chunks.dtype)
        .reshape(n_chunks, chunk_len)
    )


def _bit_untranspose_chunks(chunks: np.ndarray) -> np.ndarray:
    """Invert :func:`_bit_transpose_chunks`."""
    n_chunks, chunk_len = chunks.shape
    width = chunks.dtype.itemsize * 8
    groups = chunk_len // width
    be = chunks.astype(chunks.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8).reshape(n_chunks, -1), axis=1)
    interleaved = bits.reshape(n_chunks, groups, width, width).transpose(
        0, 2, 1, 3
    )
    planes = interleaved.reshape(n_chunks, width, chunk_len).transpose(0, 2, 1)
    packed = np.packbits(planes.reshape(n_chunks, -1), axis=1)
    return (
        packed.reshape(-1)
        .view(chunks.dtype.newbyteorder(">"))
        .astype(chunks.dtype)
        .reshape(n_chunks, chunk_len)
    )


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
        # BIT: bit transpose per chunk.
        stage2 = _bit_transpose_chunks(stage1)
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
        stage1 = _bit_untranspose_chunks(stage2)
        # Undo LNV6s: the lag-6 recurrence splits into 6 independent
        # prefix sums over the interleaved lanes (modular arithmetic
        # wraps identically to the scalar per-lane loop).
        chunks = stage1.copy()
        for residue in range(_DELTA_LAG):
            lanes = chunks[:, residue::_DELTA_LAG]
            np.cumsum(lanes, axis=1, dtype=uint_dtype, out=lanes)
        return chunks.reshape(-1)[:n].view(dtype)
