"""ndzip: hypercube Lorenzo transform + bit transpose + zero-word removal.

Paper sections 3.8 (CPU) and 4.4 (GPU).  The algorithm is identical on
both platforms:

1. divide the array into hypercube blocks of 4096 elements
   (4096 / 64x64 / 16x16x16 for 1-3 dimensions),
2. apply an integer Lorenzo transform inside each block (first
   differences along every axis in the sign-magnitude integer domain),
3. bit-transpose the residuals in chunks of 32 (float32) or 64
   (float64) values,
4. drop all-zero words, recording their positions in a 32/64-bit
   bitmap header and copying non-zero words verbatim.

The GPU variant differs only in its execution schedule: per-hypercube
thread groups write to a scratch area, a prefix sum over chunk sizes
computes output offsets, and decompression is block-parallel without
synchronization.  The two classes share this implementation and differ
only in cost model.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import (
    bits_to_float,
    float_bits,
    sign_magnitude_map,
    sign_magnitude_unmap,
)
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import (
    CostModel,
    KernelSpec,
    ParallelismSpec,
    ScalingSpec,
)

__all__ = ["NdzipCpuCompressor", "NdzipGpuCompressor", "block_extent_for_rank"]

_BLOCK_ELEMENTS = 4096
#: Full blocks batched per vectorized pass: enough to amortize the NumPy
#: call overhead while the bit-transpose working set stays cache-sized.
_BATCH_BLOCKS = 16


def block_extent_for_rank(rank: int) -> tuple[int, ...]:
    """Hypercube extents per rank: 4096, 64x64, or 16x16x16."""
    if rank <= 1:
        return (4096,)
    if rank == 2:
        return (64, 64)
    if rank == 3:
        return (16, 16, 16)
    # Higher ranks: fall back to flattening the leading axes.
    return (16, 16, 16)


def _lorenzo_forward(blocks: np.ndarray, rank: int) -> np.ndarray:
    """First differences along each of the trailing ``rank`` axes."""
    out = blocks.copy()
    for axis in range(1, rank + 1):
        lead = [slice(None)] * out.ndim
        lag = [slice(None)] * out.ndim
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        out[tuple(lead)] = out[tuple(lead)] - out[tuple(lag)]
    return out


def _lorenzo_inverse(blocks: np.ndarray, rank: int) -> np.ndarray:
    out = blocks.copy()
    for axis in reversed(range(1, rank + 1)):
        np.cumsum(out, axis=axis, dtype=out.dtype, out=out)
    return out


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Fold the residual sign into the low bit (integer Lorenzo sign fix).

    Without this, small negative residuals are all-ones words whose high
    bit planes defeat zero-word removal; zigzag keeps both signs' high
    planes zero, which is what makes stage 4 effective.
    """
    width = values.dtype.itemsize * 8
    signed = values.view(np.int64 if width == 64 else np.int32)
    return ((signed << 1) ^ (signed >> (width - 1))).view(values.dtype)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    width = values.dtype.itemsize * 8
    signed_dtype = np.int64 if width == 64 else np.int32
    one = np.asarray(1, dtype=values.dtype)
    signed = (values >> one).view(signed_dtype)
    correction = -(values & one).astype(signed_dtype)
    return (signed ^ correction).view(values.dtype)


def _transpose_chunks(residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit-transpose flat residuals in word-width chunks.

    Returns ``(words, nonzero_mask)`` where ``words`` is the transposed
    stream (one word per bit plane per chunk) and ``nonzero_mask`` marks
    the words kept after zero-word removal.
    """
    width = residuals.dtype.itemsize * 8
    pad = (-len(residuals)) % width
    if pad:
        residuals = np.concatenate(
            [residuals, np.zeros(pad, dtype=residuals.dtype)]
        )
    chunks = residuals.reshape(-1, width)
    be = chunks.astype(chunks.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8), axis=1)  # (n, width*width)
    matrix = bits.reshape(-1, width, width).transpose(0, 2, 1)
    packed = np.packbits(matrix.reshape(-1, width * width), axis=1)
    words = (
        packed.reshape(-1)
        .view(residuals.dtype.newbyteorder(">"))
        .astype(residuals.dtype)
    )
    return words, words != 0


def _untranspose_chunks(
    words: np.ndarray, n_residuals: int
) -> np.ndarray:
    width = words.dtype.itemsize * 8
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8)).reshape(-1, width, width)
    matrix = bits.transpose(0, 2, 1)
    packed = np.packbits(matrix.reshape(-1, width * width), axis=1)
    residuals = (
        packed.reshape(-1)
        .view(words.dtype.newbyteorder(">"))
        .astype(words.dtype)
    )
    return residuals[:n_residuals]


class _NdzipBase(Compressor):
    """Shared ndzip pipeline; subclasses set the platform cost model."""

    @staticmethod
    def _grid(shape: tuple[int, ...], extents: tuple[int, ...]):
        """Iterate block slices covering ``shape`` (borders stay partial).

        Real ndzip compresses border hypercubes over their valid region
        rather than padding the array, which keeps the ratio intact on
        inputs that are not multiples of the block extent.
        """
        from itertools import product

        counts = [-(-dim // ext) for dim, ext in zip(shape, extents)]
        for index in product(*map(range, counts)):
            yield tuple(
                slice(i * ext, min((i + 1) * ext, dim))
                for i, ext, dim in zip(index, extents, shape)
            )

    @staticmethod
    def _encode_block(region: np.ndarray) -> bytes:
        """Seed per-block pipeline; kept for border blocks and as oracle."""
        residual = _zigzag(
            _lorenzo_forward(region[None, ...], region.ndim)[0]
        )
        words, mask = _transpose_chunks(residual.ravel())
        header = np.packbits(mask)
        payload = words[mask]
        return header.tobytes() + payload.tobytes()

    def _encode_blocks(
        self, mapped: np.ndarray, extents: tuple[int, ...]
    ) -> list[bytes]:
        """Encode grid blocks, batching all full blocks into one pass.

        Interior hypercubes are stacked into a ``(n_blocks, *extents)``
        array so the Lorenzo transform, zigzag, bit transpose, and
        zero-word bitmaps each run once over every block at once;
        only the border blocks (partial extents) take the per-block
        path.  Output bytes are identical either way.
        """
        slices_list = list(self._grid(mapped.shape, extents))
        encoded: list[bytes] = [b""] * len(slices_list)
        full = [
            index
            for index, slices in enumerate(slices_list)
            if tuple(s.stop - s.start for s in slices) == tuple(extents)
        ]
        # Batch in groups: one block underuses the vector width, the
        # whole grid blows the cache during the bit transpose.
        group = _BATCH_BLOCKS
        for start in range(0, len(full), group):
            chunk = full[start : start + group]
            if len(chunk) == 1:
                break  # a lone trailing block takes the scalar path
            batch = np.stack([mapped[slices_list[i]] for i in chunk])
            residual = _zigzag(_lorenzo_forward(batch, len(extents)))
            # Full blocks hold a multiple of the word width, so chunks
            # never straddle blocks in the flattened transpose.
            words, mask = _transpose_chunks(residual.reshape(-1))
            per_block = words.size // len(chunk)
            words2d = words.reshape(len(chunk), per_block)
            mask2d = mask.reshape(len(chunk), per_block)
            headers = np.packbits(mask2d, axis=1)
            counts = mask2d.sum(axis=1)
            payloads = np.split(words2d[mask2d], np.cumsum(counts)[:-1])
            for i, index in enumerate(chunk):
                encoded[index] = (
                    headers[i].tobytes() + payloads[i].tobytes()
                )
        for index, slices in enumerate(slices_list):
            if not encoded[index]:
                encoded[index] = self._encode_block(mapped[slices])
        return encoded

    def _compress_impl(self, array: np.ndarray, batched: bool) -> bytes:
        """Shared framing; ``batched`` picks the block-encoding strategy."""
        if array.ndim > 3:
            array = array.reshape(-1, *array.shape[-2:])
        rank = min(max(array.ndim, 1), 3)
        mapped = sign_magnitude_map(float_bits(array))
        if array.size == 0:
            return encode_uvarint(0)
        extents = block_extent_for_rank(rank)[: mapped.ndim]

        if batched:
            encoded_blocks = self._encode_blocks(mapped, extents)
        else:
            encoded_blocks = [
                self._encode_block(mapped[slices])
                for slices in self._grid(mapped.shape, extents)
            ]
        # A size table, then the blocks: decoding is block-parallel.
        out = bytearray()
        out += encode_uvarint(len(encoded_blocks))
        for block in encoded_blocks:
            out += encode_uvarint(len(block))
        out += b"".join(encoded_blocks)
        return bytes(out)

    def _compress(self, array: np.ndarray) -> bytes:
        return self._compress_impl(array, batched=True)

    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference coder: every block through the per-block pipeline."""
        return self._compress_impl(array, batched=False)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count == 0:
            return np.empty(0, dtype=dtype)
        uint_dtype = np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64
        width = np.dtype(uint_dtype).itemsize * 8
        work_shape = shape
        if len(shape) > 3:
            lead = 1
            for extent in shape[:-2]:
                lead *= extent
            work_shape = (lead, *shape[-2:])
        rank = min(max(len(work_shape), 1), 3)
        extents = block_extent_for_rank(rank)[: len(work_shape)]

        n_blocks, offset = decode_uvarint(payload, 0)
        sizes = []
        for _ in range(n_blocks):
            size, offset = decode_uvarint(payload, offset)
            sizes.append(size)

        mapped = np.empty(work_shape, dtype=uint_dtype)
        block_slices = list(self._grid(work_shape, extents))
        if len(block_slices) != n_blocks:
            raise CorruptStreamError(
                f"ndzip stream holds {n_blocks} blocks, shape needs "
                f"{len(block_slices)}"
            )
        # Restore each block's word stream; full blocks are collected
        # and reconstructed in one batched untranspose/Lorenzo pass.
        full_words: list[np.ndarray] = []
        full_slices: list[tuple[slice, ...]] = []
        for slices, size in zip(block_slices, sizes):
            if offset + size > len(payload):
                raise CorruptStreamError("ndzip block stream truncated")
            chunk = payload[offset : offset + size]
            offset += size
            region_shape = tuple(s.stop - s.start for s in slices)
            n_elements = 1
            for extent in region_shape:
                n_elements *= extent
            n_words = -(-n_elements // width) * width
            header_bytes = n_words // 8
            mask = np.unpackbits(
                np.frombuffer(chunk[:header_bytes], dtype=np.uint8),
                count=n_words,
            ).astype(bool)
            nonzero = np.frombuffer(chunk[header_bytes:], dtype=uint_dtype)
            if int(mask.sum()) != nonzero.size:
                raise CorruptStreamError("ndzip zero-word bitmap mismatch")
            words = np.zeros(n_words, dtype=uint_dtype)
            words[mask] = nonzero
            if region_shape == tuple(extents):
                full_words.append(words)
                full_slices.append(slices)
                continue
            residual = _untranspose_chunks(words, n_elements).reshape(
                region_shape
            )
            mapped[slices] = _lorenzo_inverse(
                _unzigzag(residual)[None, ...], residual.ndim
            )[0]
        block_elements = 1
        for extent in extents:
            block_elements *= extent
        for start in range(0, len(full_words), _BATCH_BLOCKS):
            group = full_words[start : start + _BATCH_BLOCKS]
            stacked = np.concatenate(group)
            residual = _untranspose_chunks(
                stacked, len(group) * block_elements
            ).reshape(len(group), *extents)
            restored = _lorenzo_inverse(_unzigzag(residual), len(extents))
            for index, slices in enumerate(
                full_slices[start : start + _BATCH_BLOCKS]
            ):
                mapped[slices] = restored[index]
        return bits_to_float(sign_magnitude_unmap(mapped)).reshape(shape)


@register
class NdzipCpuCompressor(_NdzipBase):
    """ndzip-CPU (Knorr, Thoman & Fahringer, 2021)."""

    info = MethodInfo(
        name="ndzip-cpu",
        display_name="ndzip-CPU",
        year=2021,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="SIMD+threads",
        language="C++",
        trait="transform+Lorenzo",
        predictor_family="lorenzo",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(
            kind="simd+threads", default_threads=8, simd_width=8
        ),
        compress_kernels=(
            KernelSpec("lorenzo_transform", int_ops=20.0, bytes_touched=3.2),
            KernelSpec("transpose_compact", int_ops=14.0, bytes_touched=4.0),
        ),
        decompress_kernels=(
            KernelSpec("untranspose", int_ops=14.0, bytes_touched=4.0),
            KernelSpec("lorenzo_inverse", int_ops=20.0, bytes_touched=3.2),
        ),
        anchor_compress_gbs=2.192,
        anchor_decompress_gbs=1.636,
        block_setup_bytes=900.0,
        # Table 7: ndzip-CPU does not scale past one thread (the paper
        # attributes this to an implementation issue).
        scaling=ScalingSpec(
            sigma=1.0,
            kappa=0.0,
            single_thread_compress_mbs=1655.0,
            single_thread_decompress_mbs=1197.0,
        ),
        footprint_factor=2.0,
    )


@register
class NdzipGpuCompressor(_NdzipBase):
    """ndzip-GPU (Knorr, Thoman & Fahringer, SC 2021)."""

    info = MethodInfo(
        name="ndzip-gpu",
        display_name="ndzip-GPU",
        year=2021,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="gpu",
        parallelism="SIMT",
        language="SYCL C++",
        trait="transform + Lorenzo",
        predictor_family="lorenzo",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=768),
        compress_kernels=(
            KernelSpec("lorenzo_transform", int_ops=20.0, bytes_touched=2.0),
            KernelSpec("transpose_compact_scan", int_ops=26.0, bytes_touched=2.1),
        ),
        decompress_kernels=(
            KernelSpec("untranspose", int_ops=26.0, bytes_touched=2.1),
            KernelSpec("lorenzo_inverse", int_ops=20.0, bytes_touched=2.0),
        ),
        anchor_compress_gbs=142.635,
        anchor_decompress_gbs=159.312,
        transfer_efficiency=0.25,
        block_setup_bytes=0.0,
        footprint_factor=2.0,
    )
