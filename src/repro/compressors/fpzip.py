"""fpzip: Lorenzo-predicted, range-coded floating-point compression.

Paper section 3.1.  fpzip predicts each value from its previously
encoded hypercube neighbors with the Lorenzo predictor (section 2.3),
maps floats to sign-magnitude integers so residuals are small, encodes
each residual's significant-bit count with a fast range coder, and
copies the remaining mantissa bits verbatim.

The multidimensional Lorenzo residual is the composition of first
differences along every axis, computed here vectorized in the mapped
integer domain with wraparound arithmetic; the inverse is a cumulative
sum along the same axes in reverse.  Providing the true dimensionality
improves prediction (paper's "Insights" note and Table 9), which this
implementation reproduces because extra axes add extra difference
passes.

Plan-then-code (``docs/performance.md``): the bit-length symbols are
known before the first is coded, so
:func:`~repro.encodings.range_coder.encode_symbols` plans the adaptive
model's interval for every symbol in NumPy passes and loops only the
coder recurrence; the mantissa bits are packed in one
:func:`~repro.encodings.vectorbit.pack_fields` pass.  Decoding runs
:func:`~repro.encodings.range_coder.decode_symbols`, one fused loop,
and unpacks the mantissas in one pass.  ``_compress_scalar`` /
``_decompress_scalar`` drive the model and coder objects per symbol and
are the oracles.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import (
    bits_to_float,
    float_bits,
    sign_magnitude_map,
    sign_magnitude_unmap,
    significant_bits,
)
from repro.encodings.bitio import BitReader, BitWriter
from repro.encodings.vectorbit import pack_fields, unpack_fields
from repro.encodings.range_coder import (
    AdaptiveSymbolModel,
    RangeDecoder,
    RangeEncoder,
    decode_symbols,
    encode_symbols,
)
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["FpzipCompressor"]


def _lorenzo_residuals(mapped: np.ndarray) -> np.ndarray:
    """Forward Lorenzo transform: first differences along every axis."""
    residual = mapped.copy()
    for axis in range(residual.ndim):
        lead = [slice(None)] * residual.ndim
        lag = [slice(None)] * residual.ndim
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        residual[tuple(lead)] = residual[tuple(lead)] - residual[tuple(lag)]
    return residual


def _lorenzo_reconstruct(residual: np.ndarray) -> np.ndarray:
    """Inverse Lorenzo transform: cumulative sums along axes in reverse."""
    values = residual.copy()
    for axis in reversed(range(values.ndim)):
        np.cumsum(values, axis=axis, dtype=values.dtype, out=values)
    return values


def _zigzag(residual: np.ndarray) -> np.ndarray:
    width = residual.dtype.itemsize * 8
    signed = residual.view(np.int64 if width == 64 else np.int32)
    zz = (signed << 1) ^ (signed >> (width - 1))
    return zz.view(residual.dtype)


def _unzigzag(zz: np.ndarray) -> np.ndarray:
    width = zz.dtype.itemsize * 8
    one = np.asarray(1, dtype=zz.dtype)
    signed = (zz >> one).view(np.int64 if width == 64 else np.int32)
    correction = -(zz & one).astype(np.int64 if width == 64 else np.int32)
    return (signed ^ correction).view(zz.dtype)


@register
class FpzipCompressor(Compressor):
    """fpzip in lossless mode (Lindstrom & Isenburg, 2006)."""

    #: The adaptive range coder approaches zero bits per element on
    #: constant data, so the best-case expansion is far beyond the
    #: 1-bit-per-element codecs (empirically ~3.3k elements/byte at 1M
    #: elements, asymptoting below 128k as model counts saturate).
    max_decode_expansion = 1 << 17

    info = MethodInfo(
        name="fpzip",
        display_name="fpzip",
        year=2006,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="C++",
        trait="Lorenzo",
        predictor_family="lorenzo",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("lorenzo_predict", int_ops=9.0, bytes_touched=2.0),
            KernelSpec("range_encode", int_ops=22.0, bytes_touched=1.4),
        ),
        decompress_kernels=(
            KernelSpec("range_decode", int_ops=24.0, bytes_touched=1.4),
            KernelSpec("lorenzo_reconstruct", int_ops=9.0, bytes_touched=2.0),
        ),
        anchor_compress_gbs=0.079,
        anchor_decompress_gbs=0.074,
        block_setup_bytes=16_000.0,
        footprint_factor=2.0,
    )

    def _compress(self, array: np.ndarray) -> bytes:
        mapped = sign_magnitude_map(float_bits(array))
        residual = _lorenzo_residuals(mapped)
        zz = _zigzag(residual).ravel()
        width = zz.dtype.itemsize * 8

        lengths = significant_bits(zz)
        wide = lengths > 1
        # The top significant bit is implicit; pack_fields masks to the
        # field width exactly as BitWriter.write_bits did.
        mantissa = pack_fields(
            zz[wide], lengths[wide].astype(np.int64) - 1
        )
        range_blob = encode_symbols(lengths, width + 1)
        return (
            encode_uvarint(len(range_blob))
            + range_blob
            + mantissa
        )

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8

        blob_len, offset = decode_uvarint(payload, 0)
        if offset + blob_len > len(payload):
            raise CorruptStreamError("fpzip range stream truncated")
        lengths = np.array(
            decode_symbols(payload[offset : offset + blob_len], count, width + 1),
            dtype=np.int64,
        )
        widths = lengths - 1
        np.maximum(widths, 0, out=widths)
        vals = unpack_fields(payload[offset + blob_len :], widths)
        shift = widths.view(np.uint64)
        zz = np.where(
            lengths > 1,
            (np.uint64(1) << shift) | vals,
            lengths.view(np.uint64),
        ).astype(uint_dtype)
        residual = _unzigzag(zz).reshape(shape)
        mapped = _lorenzo_reconstruct(residual)
        return bits_to_float(sign_magnitude_unmap(mapped)).reshape(shape)

    # ------------------------------------------------------------------
    # Scalar oracle (the original per-element implementation)
    # ------------------------------------------------------------------
    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference coder; the vectorized path must match it bit-exactly."""
        mapped = sign_magnitude_map(float_bits(array))
        residual = _lorenzo_residuals(mapped)
        zz = _zigzag(residual).ravel()
        width = zz.dtype.itemsize * 8

        lengths = significant_bits(zz)
        encoder = RangeEncoder()
        model = AdaptiveSymbolModel(width + 1)
        bits = BitWriter()
        zz_list = zz.tolist()
        for index, length in enumerate(lengths.tolist()):
            model.encode_symbol(encoder, length)
            if length > 1:
                # The top significant bit is implicit.
                bits.write_bits(zz_list[index], length - 1)
        range_blob = encoder.finish()
        return (
            encode_uvarint(len(range_blob))
            + range_blob
            + bits.getvalue()
        )

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8

        blob_len, offset = decode_uvarint(payload, 0)
        if offset + blob_len > len(payload):
            raise CorruptStreamError("fpzip range stream truncated")
        decoder = RangeDecoder(payload[offset : offset + blob_len])
        model = AdaptiveSymbolModel(width + 1)
        bits = BitReader(payload[offset + blob_len :])

        zz = np.empty(count, dtype=uint_dtype)
        for index in range(count):
            length = model.decode_symbol(decoder)
            if length == 0:
                zz[index] = 0
            elif length == 1:
                zz[index] = 1
            else:
                zz[index] = (1 << (length - 1)) | bits.read_bits(length - 1)
        residual = _unzigzag(zz).reshape(shape)
        mapped = _lorenzo_reconstruct(residual)
        return bits_to_float(sign_magnitude_unmap(mapped)).reshape(shape)
