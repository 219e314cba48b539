"""GFC: warp-parallel delta compression for double-precision data.

Paper section 4.1.  GFC splits the input into chunks that map onto GPU
warps; each warp compresses independent 32-value subchunks by
subtracting the last value of the previous subchunk from every value of
the current one, then encoding each residual as a 4-bit prefix (1 sign
bit + 3 bits of leading-zero byte count) followed by the residual's
non-zero bytes.

Two documented limitations are reproduced deliberately:

* the delta predictor is inaccurate for multidimensional data because
  all 32 residuals share one base value (hence GFC's last-place ranking
  in Figure 7b), and
* inputs larger than 512 MB are rejected (the "-" cells of Table 4).

Both directions run as whole-array passes, and exactly so, because the
format keeps the 4-bit codes in a stream of their own: every residual's
byte count is known before a residual byte is touched, so the stream
order of the residual bytes is the row-major order of an ``(n, 8)``
little-endian lane matrix masked by ``lane < nbytes`` — one boolean
index packs it, the same index scatters it back.  The subchunk bases
look serial (each is the *decoded* last value of the previous
subchunk) but ``base[k + 1] = base[k] + residual[32k + 31]``, a
wrapping ``uint64`` ``cumsum`` over one residual per subchunk.
``_compress_scalar`` / ``_decompress_scalar`` keep the original
per-element loops as the byte-identity oracle.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import float_bits, significant_bits
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["GfcCompressor", "GFC_MAX_INPUT_BYTES"]

_SUBCHUNK = 32
_LANE = np.arange(8, dtype=np.uint8)
GFC_MAX_INPUT_BYTES = 512 * 1024 * 1024


@register
class GfcCompressor(Compressor):
    """GFC (O'Neil & Burtscher, 2011), double-precision only."""

    info = MethodInfo(
        name="gfc",
        display_name="GFC",
        year=2011,
        domain="HPC",
        precisions=frozenset({"D"}),
        platform="gpu",
        parallelism="SIMT",
        language="CUDA C",
        trait="delta",
        predictor_family="delta",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=32),
        compress_kernels=(
            KernelSpec("warp_delta_encode", int_ops=16.0, bytes_touched=4.0),
        ),
        decompress_kernels=(
            KernelSpec("warp_delta_decode", int_ops=14.0, bytes_touched=4.0),
        ),
        anchor_compress_gbs=87.778,
        anchor_decompress_gbs=99.258,
        transfer_efficiency=0.5,
        footprint_factor=2.0,
    )
    max_input_bytes = GFC_MAX_INPUT_BYTES
    #: An element costs half a code byte and at least one residual byte.
    max_decode_expansion = 1

    def _compress(self, array: np.ndarray) -> bytes:
        bits = float_bits(array.ravel())
        n = bits.size
        if n == 0:
            return encode_uvarint(0)
        negative, magnitude, nbytes = _residual_plan(bits)

        # Two 4-bit codes per byte, first value in the high nibble (an
        # odd tail leaves the low nibble zero).
        codes = np.zeros(n + (n & 1), dtype=np.uint8)
        codes[:n] = (negative.view(np.uint8) << 3) | (8 - nbytes)
        packed = (codes[0::2] << 4) | codes[1::2]
        # The little-endian byte lanes of each magnitude; row-major
        # boolean indexing keeps lanes below nbytes in stream order.
        lanes = magnitude.astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
        data = lanes[_LANE < nbytes[:, None]]
        return encode_uvarint(n) + packed.tobytes() + data.tobytes()

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n, offset = _checked_count(payload, shape)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        stream = np.frombuffer(payload, dtype=np.uint8)
        data_start = offset + (n + 1) // 2
        packed = stream[offset:data_start]
        if packed.size < data_start - offset:
            raise CorruptStreamError("GFC code stream truncated")
        codes = np.empty(2 * packed.size, dtype=np.uint8)
        codes[0::2] = packed >> 4
        codes[1::2] = packed & 0x0F
        codes = codes[:n]
        nbytes = 8 - (codes & 0x07)
        total = int(nbytes.sum(dtype=np.int64))
        if data_start + total > stream.size:
            raise CorruptStreamError("GFC residual stream truncated")

        lanes = np.zeros((n, 8), dtype=np.uint8)
        lanes[_LANE < nbytes[:, None]] = stream[data_start : data_start + total]
        residual = lanes.view("<u8").ravel().astype(np.uint64, copy=False)
        np.negative(residual, out=residual, where=codes >= 8)
        # base[k + 1] = base[k] + residual[32k + 31]: a wrapping cumsum.
        bases = np.zeros(-(-n // _SUBCHUNK), dtype=np.uint64)
        lasts = residual[_SUBCHUNK - 1 :: _SUBCHUNK][: bases.size - 1]
        np.cumsum(lasts, out=bases[1:])
        return (residual + np.repeat(bases, _SUBCHUNK)[:n]).view(np.float64)

    # ------------------------------------------------------------------
    # Scalar oracle (the original per-element implementation)
    # ------------------------------------------------------------------
    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference coder; the vectorized path must match it bit-exactly."""
        bits = float_bits(array.ravel())
        n = bits.size
        if n == 0:
            return encode_uvarint(0)
        negative, magnitude, nonzero_bytes = _residual_plan(bits)
        codes = bytearray()
        data = bytearray()
        mags = magnitude.tolist()
        lengths = nonzero_bytes.tolist()
        negs = negative.tolist()
        pending = -1
        for index in range(n):
            nbytes = lengths[index]
            code = (8 if negs[index] else 0) | (8 - nbytes)
            if pending < 0:
                pending = code
            else:
                codes.append((pending << 4) | code)
                pending = -1
            data += mags[index].to_bytes(8, "little")[:nbytes]
        if pending >= 0:
            codes.append(pending << 4)
        return encode_uvarint(n) + bytes(codes) + bytes(data)

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        n, offset = _checked_count(payload, shape)
        out = np.empty(n, dtype=np.uint64)
        code_len = (n + 1) // 2
        codes = payload[offset : offset + code_len]
        if len(codes) < code_len:
            raise CorruptStreamError("GFC code stream truncated")
        pos = offset + code_len
        base = 0
        for index in range(n):
            packed = codes[index >> 1]
            code = (packed >> 4) if index % 2 == 0 else (packed & 0x0F)
            nbytes = 8 - (code & 0x07)
            if pos + nbytes > len(payload):
                raise CorruptStreamError("GFC residual stream truncated")
            magnitude = int.from_bytes(payload[pos : pos + nbytes], "little")
            pos += nbytes
            if code & 0x08:
                residual = (-magnitude) & 0xFFFFFFFFFFFFFFFF
            else:
                residual = magnitude
            value = (base + residual) & 0xFFFFFFFFFFFFFFFF
            out[index] = value
            if index % _SUBCHUNK == _SUBCHUNK - 1:
                base = value
        return out.view(np.float64)


def _residual_plan(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign, magnitude and stored byte count (1-8) of every residual."""
    n = bits.size
    # Base value per subchunk: last value of the previous subchunk.
    bases = np.zeros(-(-n // _SUBCHUNK), dtype=np.uint64)
    bases[1:] = bits[_SUBCHUNK - 1 :: _SUBCHUNK][: bases.size - 1]
    residual = bits - np.repeat(bases, _SUBCHUNK)[:n]
    # Sign and magnitude of the wrapped two's-complement residual.
    negative = residual >> np.uint64(63) == 1
    magnitude = np.where(negative, (~residual) + np.uint64(1), residual)
    nbytes = (np.maximum(significant_bits(magnitude), 1) + 7) // 8  # uint8
    return negative, magnitude, nbytes


def _checked_count(payload: bytes, shape: tuple[int, ...]) -> tuple[int, int]:
    """The payload's own element count, refused unless the frame agrees.

    Nothing may be sized from ``n`` before this: it is stream bytes.
    """
    n, offset = decode_uvarint(payload, 0)
    expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if n != expected:
        raise CorruptStreamError(
            f"GFC payload declares {n} elements, the frame holds {expected}"
        )
    return n, offset
