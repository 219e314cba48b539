"""nvCOMP stand-ins: GPU-chunked LZ4 and a bitcomp-style delta packer.

Paper section 4.3.  nvCOMP has been proprietary since v2.3, so the paper
treats both methods as black boxes characterized by their Table 1 traits:
``nvCOMP::LZ4`` is "transform + dict." and ``nvCOMP::bitcomp`` is
"transform + prediction".  This module reproduces those architectures:

* **nvcomp-lz4** — the input is split into 64 KB chunks, each chunk is
  LZ4-compressed independently (the batch layout nvCOMP uses to extract
  GPU parallelism), and chunk sizes are recorded for parallel decode.
  LZ4's data-dependent token parsing is what makes it the slowest GPU
  compressor (branch divergence, section 6.1.2).
* **nvcomp-bitcomp** — per 4096-value chunk, delta against the previous
  value, zigzag, and pack every residual to the chunk's maximum
  significant-bit width.  The fixed-width layout is branch-free, which
  is why bitcomp is the fastest method in the survey, at the cost of a
  ratio near 1.0 whenever a single noisy value widens the whole chunk.

Neither method takes dimensionality parameters, matching the paper's
"Insights" note.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import float_bits
from repro.encodings.lz4 import lz4_compress, lz4_decompress
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["NvcompLz4Compressor", "NvcompBitcompCompressor"]

_LZ4_CHUNK_BYTES = 64 * 1024
# Width blocks are small so one noisy residual cannot widen a large
# span; the 1-byte-per-block header costs under 1%.
_BITCOMP_CHUNK = 128


@register
class NvcompLz4Compressor(Compressor):
    """nvCOMP::LZ4 batch compressor stand-in."""

    info = MethodInfo(
        name="nvcomp-lz4",
        display_name="nv::LZ4",
        year=2020,
        domain="general",
        precisions=frozenset({"S", "D"}),
        platform="gpu",
        parallelism="SIMT",
        language="CUDA C++",
        trait="transform + dict.",
        predictor_family="dictionary",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=128),
        compress_kernels=(
            KernelSpec("lz4_batch_match", int_ops=24.0, bytes_touched=3.0),
        ),
        decompress_kernels=(
            KernelSpec("lz4_batch_expand", int_ops=5.0, bytes_touched=2.5),
        ),
        anchor_compress_gbs=2.716,
        anchor_decompress_gbs=53.352,
        footprint_factor=2.0,
    )

    def __init__(self, chunk_bytes: int = _LZ4_CHUNK_BYTES) -> None:
        if chunk_bytes < 256:
            raise ValueError(f"chunk_bytes must be >= 256, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes

    def _compress(self, array: np.ndarray) -> bytes:
        raw = array.tobytes()
        # Keep the chunk-to-input proportion of the paper-scale setup so
        # scaled-down datasets see the same boundary effects the 64 KB
        # batches impose on multi-hundred-MB files.
        chunk_bytes = max(2048, min(self.chunk_bytes, len(raw) // 16))
        out = bytearray()
        chunks = [
            raw[start : start + chunk_bytes]
            for start in range(0, len(raw), chunk_bytes)
        ]
        out += encode_uvarint(len(chunks))
        encoded = [lz4_compress(chunk) for chunk in chunks]
        for blob, chunk in zip(encoded, chunks):
            out += encode_uvarint(len(chunk))
            out += encode_uvarint(len(blob))
            out += blob
        return bytes(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n_chunks, offset = decode_uvarint(payload, 0)
        parts: list[bytes] = []
        for _ in range(n_chunks):
            raw_len, offset = decode_uvarint(payload, offset)
            enc_len, offset = decode_uvarint(payload, offset)
            if offset + enc_len > len(payload):
                raise CorruptStreamError("nvCOMP::LZ4 chunk truncated")
            parts.append(
                lz4_decompress(
                    payload[offset : offset + enc_len], expected_length=raw_len
                )
            )
            offset += enc_len
        return np.frombuffer(b"".join(parts), dtype=dtype)


@register
class NvcompBitcompCompressor(Compressor):
    """nvCOMP::bitcomp stand-in: branch-free delta bit-plane packing."""

    info = MethodInfo(
        name="nvcomp-bitcomp",
        display_name="nv::btcmp",
        year=2020,
        domain="general",
        precisions=frozenset({"S", "D"}),
        platform="gpu",
        parallelism="SIMT",
        language="CUDA C++",
        trait="transform + prediction",
        predictor_family="prediction",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=256),
        compress_kernels=(
            KernelSpec("delta_width_pack", int_ops=8.0, bytes_touched=2.2),
        ),
        decompress_kernels=(
            KernelSpec("delta_width_unpack", int_ops=7.0, bytes_touched=2.2),
        ),
        anchor_compress_gbs=240.280,
        anchor_decompress_gbs=122.483,
        footprint_factor=2.0,
    )

    def __init__(self, chunk_values: int = _BITCOMP_CHUNK) -> None:
        if chunk_values < 64:
            raise ValueError(f"chunk_values must be >= 64, got {chunk_values}")
        self.chunk_values = chunk_values

    def _compress(self, array: np.ndarray) -> bytes:
        bits = float_bits(array.ravel())
        width = bits.dtype.itemsize * 8
        n = bits.size
        out = bytearray()
        out += encode_uvarint(n)
        signed_dtype = np.int64 if width == 64 else np.int32
        for start in range(0, n, self.chunk_values):
            chunk = bits[start : start + self.chunk_values]
            # The chunk's first word is stored verbatim; otherwise its raw
            # bit pattern would widen every delta in the chunk.
            delta = chunk[1:] - chunk[:-1]
            signed = delta.view(signed_dtype)
            zz = ((signed << 1) ^ (signed >> (width - 1))).view(chunk.dtype)
            kbits = int(_max_bits(zz))
            out.append(kbits)
            out += int(chunk[0]).to_bytes(width // 8, "little")
            out += _pack_bits(zz, kbits)
        return bytes(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n, offset = decode_uvarint(payload, 0)
        # ``n`` is stream bytes: nothing is sized from it until the frame
        # agrees.
        expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if n != expected:
            raise CorruptStreamError(
                f"bitcomp payload declares {n} elements, the frame holds {expected}"
            )
        uint_dtype = np.uint32 if np.dtype(dtype).itemsize == 4 else np.uint64
        width = np.dtype(uint_dtype).itemsize * 8
        signed_dtype = np.int64 if width == 64 else np.int32
        out = np.empty(n, dtype=uint_dtype)
        done = 0
        word_bytes = width // 8
        while done < n:
            count = min(self.chunk_values, n - done)
            if offset + 1 + word_bytes > len(payload):
                raise CorruptStreamError("bitcomp chunk header truncated")
            kbits = payload[offset]
            offset += 1
            first = int.from_bytes(payload[offset : offset + word_bytes], "little")
            offset += word_bytes
            nbytes = ((count - 1) * kbits + 7) // 8
            if offset + nbytes > len(payload):
                raise CorruptStreamError("bitcomp chunk payload truncated")
            zz = _unpack_bits(
                payload[offset : offset + nbytes], count - 1, kbits, uint_dtype
            )
            offset += nbytes
            one = np.asarray(1, dtype=uint_dtype)
            signed = (zz >> one).view(signed_dtype)
            correction = -(zz & one).astype(signed_dtype)
            delta = (signed ^ correction).view(uint_dtype)
            chunk = np.empty(count, dtype=uint_dtype)
            chunk[0] = first
            if count > 1:
                np.cumsum(delta, dtype=uint_dtype, out=delta)
                chunk[1:] = np.asarray(first, dtype=uint_dtype) + delta
            out[done : done + count] = chunk
            done += count
        return out.view(dtype)


def _max_bits(values: np.ndarray) -> int:
    from repro.compressors.util import significant_bits

    if values.size == 0:
        return 0
    return int(significant_bits(values).max())


def _pack_bits(values: np.ndarray, kbits: int) -> bytes:
    """Pack each value's low ``kbits`` bits contiguously (MSB first)."""
    if kbits == 0:
        return b""
    width = values.dtype.itemsize * 8
    be = values.astype(values.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8)).reshape(len(values), width)
    return np.packbits(bits[:, width - kbits :].reshape(-1)).tobytes()


def _unpack_bits(
    payload: bytes, count: int, kbits: int, dtype: np.dtype
) -> np.ndarray:
    """Invert :func:`_pack_bits` for ``count`` values."""
    dtype = np.dtype(dtype)
    if kbits == 0:
        return np.zeros(count, dtype=dtype)
    width = dtype.itemsize * 8
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=count * kbits
    ).reshape(count, kbits)
    full = np.zeros((count, width), dtype=np.uint8)
    full[:, width - kbits :] = bits
    return (
        np.packbits(full.reshape(-1))
        .view(dtype.newbyteorder(">"))
        .astype(dtype)
    )
