"""Bitshuffle: bit-level transpose blocks + LZ4 or zstd back-end.

Paper section 3.7.  Bitshuffle splits the input into blocks (default
4096 bytes, sized for L1 residency), arranges each block's bits into an
(elements x element_bits) matrix, transposes it so the i-th bits of all
values become contiguous bytes, and hands the transposed block to a
downstream codec — LZ4 or zstd in the paper's evaluation.

The transform exposes correlations between the same bit position of
adjacent values (exponent bits in particular), which is why these two
variants top the paper's compression-ratio ranking (Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import bit_transpose, bit_untranspose
from repro.encodings.lz4 import (
    _lz4_compress_scalar,
    lz4_compress,
    lz4_decompress,
)
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.encodings.zstd_like import (
    _zstd_compress_scalar,
    zstd_compress,
    zstd_decompress,
)
from repro.errors import CorruptStreamError
from repro.perf.cost import (
    CostModel,
    KernelSpec,
    ParallelismSpec,
    ScalingSpec,
)

__all__ = ["BitshuffleLz4Compressor", "BitshuffleZstdCompressor"]

_DEFAULT_BLOCK_BYTES = 4096


class _BitshuffleBase(Compressor):
    """Shared transform + per-block codec plumbing for both variants."""

    def __init__(self, block_bytes: int = _DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes < 64:
            raise ValueError(f"block_bytes must be >= 64, got {block_bytes}")
        self.block_bytes = block_bytes

    # Subclasses plug in the byte codec.
    @staticmethod
    def _encode_block(data: bytes) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _encode_block_scalar(data: bytes) -> bytes:
        """``_encode_block`` built from the seed kernels (the oracle)."""
        raise NotImplementedError

    @staticmethod
    def _decode_block(data: bytes, expected: int) -> bytes:
        raise NotImplementedError

    def _compress(self, array: np.ndarray) -> bytes:
        return self._compress_blocks(array, self._encode_block)

    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """The oracle :meth:`_compress` must match byte for byte."""
        return self._compress_blocks(array, self._encode_block_scalar)

    def _compress_blocks(self, array: np.ndarray, encode_block) -> bytes:
        flat = array.ravel()
        itemsize = flat.dtype.itemsize
        per_block = max(self.block_bytes // itemsize, 8)
        out = bytearray()
        out += encode_uvarint(per_block)
        for start in range(0, flat.size, per_block):
            chunk = flat[start : start + per_block]
            transposed = bit_transpose(
                chunk.view(np.uint32 if itemsize == 4 else np.uint64)
            )
            encoded = encode_block(transposed.tobytes())
            out += encode_uvarint(len(chunk))
            out += encode_uvarint(len(encoded))
            out += encoded
        return bytes(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64
        per_block, offset = decode_uvarint(payload, 0)
        pieces: list[np.ndarray] = []
        decoded = 0
        while decoded < count:
            n_values, offset = decode_uvarint(payload, offset)
            if n_values > count - decoded:
                raise CorruptStreamError(
                    f"bitshuffle block of {n_values} values overruns the "
                    f"{count} in the frame"
                )
            enc_len, offset = decode_uvarint(payload, offset)
            if offset + enc_len > len(payload):
                raise CorruptStreamError("bitshuffle block truncated")
            raw = self._decode_block(
                payload[offset : offset + enc_len],
                n_values * np.dtype(uint_dtype).itemsize,
            )
            offset += enc_len
            pieces.append(
                bit_untranspose(
                    np.frombuffer(raw, dtype=np.uint8), n_values, uint_dtype
                )
            )
            decoded += n_values
        if decoded != count:
            raise CorruptStreamError(
                f"bitshuffle stream decoded {decoded} values, expected {count}"
            )
        if not pieces:
            return np.empty(0, dtype=dtype)
        return np.concatenate(pieces).view(dtype)


@register
class BitshuffleLz4Compressor(_BitshuffleBase):
    """bitshuffle::LZ4 (Masui et al., 2015)."""

    info = MethodInfo(
        name="bitshuffle-lz4",
        display_name="shf+LZ4",
        year=2015,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="SIMD+threads",
        language="C+Python",
        trait="transform + dict.",
        predictor_family="dictionary",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(
            kind="simd+threads", default_threads=8, simd_width=8
        ),
        compress_kernels=(
            KernelSpec("bit_transpose", int_ops=4.0, bytes_touched=4.0),
            KernelSpec("lz4_match", int_ops=12.0, bytes_touched=3.0),
        ),
        decompress_kernels=(
            KernelSpec("lz4_expand", int_ops=4.0, bytes_touched=3.0),
            KernelSpec("bit_untranspose", int_ops=4.0, bytes_touched=4.0),
        ),
        anchor_compress_gbs=0.923,
        anchor_decompress_gbs=1.181,
        block_setup_bytes=600.0,
        cache_bytes=256 * 1024.0,
        cache_rolloff=0.032,
        scaling=ScalingSpec(
            sigma=0.27,
            kappa=0.0029,
            single_thread_compress_mbs=997.0,
            single_thread_decompress_mbs=1746.0,
        ),
        footprint_factor=2.0,
    )

    @staticmethod
    def _encode_block(data: bytes) -> bytes:
        return lz4_compress(data)

    @staticmethod
    def _encode_block_scalar(data: bytes) -> bytes:
        return _lz4_compress_scalar(data)

    @staticmethod
    def _decode_block(data: bytes, expected: int) -> bytes:
        return lz4_decompress(data, expected_length=expected)


@register
class BitshuffleZstdCompressor(_BitshuffleBase):
    """bitshuffle::zstd (Masui et al., 2015, with a Zstandard back-end)."""

    info = MethodInfo(
        name="bitshuffle-zstd",
        display_name="shf+zstd",
        year=2015,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="SIMD+threads",
        language="C+Python",
        trait="transform + dict.",
        predictor_family="dictionary",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(
            kind="simd+threads", default_threads=8, simd_width=8
        ),
        compress_kernels=(
            KernelSpec("bit_transpose", int_ops=4.0, bytes_touched=4.0),
            KernelSpec("zstd_sequences", int_ops=18.0, bytes_touched=3.5),
        ),
        decompress_kernels=(
            KernelSpec("zstd_expand", int_ops=8.0, bytes_touched=3.5),
            KernelSpec("bit_untranspose", int_ops=4.0, bytes_touched=4.0),
        ),
        anchor_compress_gbs=1.407,
        anchor_decompress_gbs=1.328,
        block_setup_bytes=1_200.0,
        cache_bytes=1024 * 1024.0,
        cache_rolloff=0.05,
        scaling=ScalingSpec(
            sigma=0.05,
            kappa=0.00135,
            single_thread_compress_mbs=250.0,
            single_thread_decompress_mbs=1135.0,
        ),
        footprint_factor=2.0,
    )

    @staticmethod
    def _encode_block(data: bytes) -> bytes:
        return zstd_compress(data)

    @staticmethod
    def _encode_block_scalar(data: bytes) -> bytes:
        return _zstd_compress_scalar(data)

    @staticmethod
    def _decode_block(data: bytes, expected: int) -> bytes:
        return zstd_decompress(data, expected)
