"""BUFF: decomposed bounded floats with queryable byte sub-columns.

Paper section 3.3.  BUFF splits values into integer and fractional
parts, keeps only the mantissa bits a target decimal precision requires
(Table 2), subtracts the minimum, and stores the resulting fixed-point
integers as byte-aligned *sub-columns* (all first bytes together, then
all second bytes, ...).  That layout supports predicate evaluation
directly on the encoded bytes — the feature behind BUFF's 35x-50x
selective-filter speedups — via progressive byte-plane elimination.

Losslessness: the paper notes BUFF is lossy without precision
information.  This implementation auto-detects the smallest decimal
precision that round-trips at least ``outlier_threshold`` of the values;
the remainder (and every non-finite value) is stored verbatim in an
outlier list, so the stream is always bit-exact.  On data that needs
full mantissa precision nearly everything becomes an outlier and the
ratio drops below 1 — reproducing the sub-1.0 BUFF cells of Table 4.

Encode cost: a decimal chunk is quantized once.  Every precision is
tested against one provisional base ``floor(min finite)``, so what they
share is built once; a precision is rejected on a 64-value prefix when
that is a proof (:meth:`BuffCompressor._choose_precision`); and the
chosen precision's pass is the encode's own unless an outlier held the
minimum (:meth:`BuffCompressor._compress`).  The encoder is a pure
function of the chunk: no hint, cache or setting feeds it.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError, PrecisionError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["BuffCompressor", "PRECISION_BITS"]

#: Values a precision is tried on before it is given a full pass, and the
#: chunk size under which the prefix is not worth its fixed cost.
_PREFIX = 64
_PREFIX_MIN_COUNT = 256

#: Table 2 of the paper: mantissa bits needed per decimal precision.
PRECISION_BITS = {
    0: 0, 1: 5, 2: 8, 3: 11, 4: 15, 5: 18,
    6: 21, 7: 25, 8: 28, 9: 31, 10: 35,
}


@register
class BuffCompressor(Compressor):
    """BUFF (Liu, Jiang, Paparrizos & Elmore, 2021)."""

    info = MethodInfo(
        name="buff",
        display_name="BUFF",
        year=2021,
        domain="Database",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="rust",
        trait="delta",
        predictor_family="delta",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("bounded_quantize", int_ops=10.0, flops=4.0, bytes_touched=3.0),
            KernelSpec("subcolumn_scatter", int_ops=4.0, bytes_touched=2.5),
        ),
        decompress_kernels=(
            KernelSpec("subcolumn_gather", int_ops=4.0, bytes_touched=2.5),
            KernelSpec("dequantize", int_ops=6.0, flops=4.0, bytes_touched=2.0),
        ),
        anchor_compress_gbs=0.202,
        anchor_decompress_gbs=0.254,
        block_setup_bytes=8_000.0,
        # Figure 10: BUFF's working set is about 7x the input.
        footprint_factor=7.0,
    )

    def __init__(
        self, precision: int | None = None, outlier_threshold: float = 0.99
    ) -> None:
        if precision is not None and precision not in PRECISION_BITS:
            raise PrecisionError(
                f"precision must be in 0..10 (Table 2), got {precision}"
            )
        if not 0.0 < outlier_threshold <= 1.0:
            raise ValueError(
                f"outlier_threshold must be in (0, 1], got {outlier_threshold}"
            )
        self.precision = precision
        self.outlier_threshold = outlier_threshold

    # ------------------------------------------------------------------
    # Precision selection
    # ------------------------------------------------------------------
    def _choose_precision(
        self, subset: np.ndarray, count: int
    ) -> tuple[int, float, np.ndarray, np.ndarray]:
        """Pick the smallest precision whose pass rate clears the threshold.

        ``subset`` holds the finite values of a ``count``-element chunk.
        Returns ``(precision, base, passes, quantized)``: the provisional
        base ``floor(min)`` every precision was tested against, the
        round-trip mask over ``subset`` at the chosen precision (values
        that fail become outliers) and that pass's fixed-point vector.
        When no precision clears, the one with the most passes wins and
        the higher precision breaks a tie.

        A precision is first tried on a 64-value prefix — against the
        *chunk's* base, not the prefix's own, so the result is element
        for element the head of the full pass, which can then pass at
        most ``n_finite - prefix_failures`` values.  When that bound over
        ``count`` (the float division ``mask.mean()`` performs, monotone
        in its numerator) is under the threshold, the precision provably
        could not have cleared and its full pass is skipped.
        """
        if self.precision is not None:
            candidates = [self.precision]
        else:
            candidates = sorted(PRECISION_BITS)
        if not subset.size:
            return candidates[-1], 0.0, np.zeros(0, dtype=bool), np.zeros(0)

        # What every precision shares is computed once.
        base = float(np.floor(subset.min()))
        values64 = subset.astype(np.float64, copy=False)
        shifted = values64 - base
        positive = _not_negative_zero(subset)

        def attempt(precision: int, stop: int | None = None):
            scale = 10.0**precision
            quantized = _quantize(shifted[:stop], scale)
            passes = _exact(quantized, scale, base, values64[:stop], positive[:stop])
            return np.count_nonzero(passes), precision, passes, quantized

        # Worth trying only where a full pass costs more than the prefix
        # and failing all of it would reject (count < 64 / (1 - threshold)).
        use_prefix = (
            count >= _PREFIX_MIN_COUNT
            and (subset.size - _PREFIX) / count < self.outlier_threshold
        )

        def full_passes():
            skipped = []
            for precision in candidates:
                if use_prefix:
                    passed, _, head, _ = attempt(precision, _PREFIX)
                    bound = subset.size - (head.size - passed)
                    if bound / count < self.outlier_threshold:
                        skipped.append(precision)
                        continue
                yield attempt(precision)
            # Nothing cleared: the fallback ranks every precision, so
            # the skipped ones get their full pass after all.
            yield from map(attempt, skipped)

        best = (-1, -1)
        for result in full_passes():
            if result[0] / count >= self.outlier_threshold:
                best = result
                break
            if result[:2] > best[:2]:
                best = result
        _, precision, passes, quantized = best
        return precision, base, passes, quantized

    # ------------------------------------------------------------------
    # Compressor interface
    # ------------------------------------------------------------------
    def _compress(self, array: np.ndarray) -> bytes:
        """Encode one chunk: header, byte planes, outlier bitmap, outliers.

        The chooser's last fixed-point vector was computed against the
        provisional base; the stream's base is ``floor(min inliers)``.
        When the two are equal — always, unless an outlier held the
        minimum — that vector is what quantizing against the final base
        would produce and every inlier already passed the exactness test
        against it, so it is emitted as is.  Otherwise the inliers are
        re-quantized and re-verified against the final base.
        """
        values = array.ravel()
        count = values.size
        finite = np.isfinite(values)
        all_finite = bool(finite.all())
        subset = values if all_finite else values[finite]
        # A span past the float64 range (1e308 over a base of -1e308)
        # overflows harmlessly: ``_exact`` sends the value to the outliers.
        with np.errstate(over="ignore", invalid="ignore"):
            precision, base, passes, quantized = self._choose_precision(
                subset, count
            )
            n_inliers = int(np.count_nonzero(passes))
            if not n_inliers:
                base, quantized = 0.0, quantized[:0]
            elif n_inliers < subset.size:
                subset, quantized = subset[passes], quantized[passes]
                provisional, base = base, float(np.floor(subset.min()))
                if base != provisional:
                    # The chooser ran against a provisional base that an
                    # outlier set; re-verify against the final one.
                    # Values that fail become outliers, which keeps the
                    # stream bit-exact unconditionally.
                    scale = 10.0**precision
                    values64 = subset.astype(np.float64, copy=False)
                    quantized = _quantize(values64 - base, scale)
                    exact = _exact(
                        quantized, scale, base, values64, _not_negative_zero(subset)
                    )
                    if not exact.all():
                        keep = passes.copy()
                        keep[passes] = exact
                        passes, quantized = keep, quantized[exact]
                        n_inliers = quantized.size
        # Integer-part bits cover the value span above Table 2's
        # fraction bits; together they bound every quantized inlier.
        max_q = int(quantized.max()) if n_inliers else 0
        nbytes = (max(max_q.bit_length(), 1) + 7) // 8

        # Sub-column (byte-plane) layout, most significant plane first:
        # the big-endian bytes of each integer, transposed.
        big_endian = quantized.astype(">i8").view(np.uint8).reshape(n_inliers, 8)
        planes = big_endian[:, 8 - nbytes :].T
        if n_inliers == count:
            bitmap, outliers = bytes((count + 7) // 8), b""
        else:
            if all_finite:
                inliers = passes
            else:
                inliers = finite.copy()
                inliers[finite] = passes
            outlier_mask = ~inliers
            bitmap = np.packbits(outlier_mask).tobytes()
            outliers = values[outlier_mask].tobytes()
        return b"".join(
            (
                encode_uvarint(count),
                encode_uvarint(precision),
                encode_uvarint(nbytes),
                np.float64(base).tobytes(),
                encode_uvarint(n_inliers),
                planes.tobytes(),
                bitmap,
                outliers,
            )
        )

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        meta = _parse_stream(payload, dtype)
        quantized = _gather_planes(meta)
        restored = _dequantize(quantized, meta.base, 10.0**meta.precision, dtype)
        out = np.empty(meta.count, dtype=dtype)
        out[meta.inlier_mask] = restored
        out[~meta.inlier_mask] = meta.outliers
        return out

    # ------------------------------------------------------------------
    # Query without decoding (the paper's byte-oriented pattern match)
    # ------------------------------------------------------------------
    def scan_less_equal(self, blob: bytes, threshold: float) -> np.ndarray:
        """Evaluate ``x <= threshold`` directly on the encoded sub-columns.

        Inliers are compared plane by plane against the encoded threshold
        (big-endian fixed point preserves numeric order); a record is
        skipped as soon as a more significant plane disqualifies it,
        mirroring BUFF's progressive filtering.  Only outliers are
        materialized.  Any threshold NumPy answers is answered the same
        way (values compare as their float64 images): NaN matches
        nothing, ``+inf`` everything but NaN.
        """
        meta = self._parse_blob(blob)
        threshold = float(threshold)
        inlier_result = np.zeros(meta.n_inliers, dtype=bool)

        # Encode the threshold at the stream's fixed-point parameters:
        # target is the largest quantized value whose reconstruction is
        # <= threshold.  Rounding first and then verifying avoids the
        # floor() boundary error when the threshold equals a stored value
        # whose (threshold - base) * scale image lands just below the
        # integer grid.
        target = _fixed_point(meta, threshold)
        if target is not None:
            if not meta.base + target / 10.0**meta.precision <= threshold:
                target -= 1
            if target >= (1 << (8 * meta.nbytes)) - 1:
                inlier_result[:] = True
            elif target >= 0:
                # undecided: records equal to the target prefix so far.
                undecided = np.ones(meta.n_inliers, dtype=bool)
                for plane, target_byte in zip(
                    meta.planes, target.to_bytes(meta.nbytes, "big")
                ):
                    inlier_result |= undecided & (plane < target_byte)
                    undecided &= plane == target_byte
                inlier_result |= undecided  # exactly equal
        return _scatter(meta, inlier_result, meta.outliers <= np.float64(threshold))

    def scan_equal(self, blob: bytes, value: float) -> np.ndarray:
        """Evaluate ``x == value`` on the encoded sub-columns.

        ``value`` is encoded the way the encoder encoded every inlier —
        against the stream's base — so an inlier equals it exactly when
        its planes spell that integer and the integer reconstructs
        ``value``; otherwise no inlier does.  ``-0.0`` matches the
        ``+0.0`` inliers, NaN matches nothing, as in NumPy.
        """
        meta = self._parse_blob(blob)
        value = float(value)
        matches = np.zeros(meta.n_inliers, dtype=bool)

        target = _fixed_point(meta, value)
        if (
            target is not None
            and 0 <= target < (1 << (8 * meta.nbytes))
            and meta.base + target / 10.0**meta.precision == value
        ):
            matches[:] = True
            for plane, target_byte in zip(
                meta.planes, target.to_bytes(meta.nbytes, "big")
            ):
                matches &= plane == target_byte
                if not matches.any():
                    break
        return _scatter(meta, matches, meta.outliers == np.float64(value))

    def _parse_blob(self, blob: bytes) -> _StreamMeta:
        from repro.api.frames import decode_legacy_header

        _, dtype, offset = decode_legacy_header(blob)
        return _parse_stream(blob[offset:], dtype)


class _StreamMeta:
    """Parsed BUFF stream: parameters, planes, and outliers."""

    __slots__ = (
        "count", "precision", "nbytes", "base",
        "n_inliers", "planes", "inlier_mask", "outliers",
    )

    def __init__(self, **fields: object) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


def _fixed_point(meta: _StreamMeta, value: float) -> int | None:
    """``value`` as the encoder quantizes it against the stream's base,
    or ``None`` for NaN (which compares false with everything).

    Clamped to just outside what a stream holds (inliers lie in
    ``[0, 2**62)``), so ``inf`` and a product past the float64 range are
    decided like any other out-of-range value instead of failing to
    convert.
    """
    position = (value - meta.base) * 10.0**meta.precision
    if position != position:
        return None
    return round(min(max(position, -1.0), 2.0**63))


def _scatter(
    meta: _StreamMeta, inlier_result: np.ndarray, outlier_result: np.ndarray
) -> np.ndarray:
    result = np.empty(meta.count, dtype=bool)
    result[meta.inlier_mask] = inlier_result
    result[~meta.inlier_mask] = outlier_result
    return result


def _quantize(shifted: np.ndarray, scale: float) -> np.ndarray:
    """Fixed-point quantization of ``value - base`` in float64 (round
    half to even).  The caller silences overflow."""
    quantized = shifted * scale
    return np.rint(quantized, out=quantized)


def _exact(
    quantized: np.ndarray,
    scale: float,
    base: float,
    values64: np.ndarray,
    positive: np.ndarray,
) -> np.ndarray:
    """True where ``quantized`` reconstructs ``values64`` bit for bit."""
    restored = quantized / scale
    restored += base
    exact = restored == values64
    exact &= quantized >= 0
    exact &= quantized < 2.0**62
    exact &= positive
    return exact


def _not_negative_zero(values: np.ndarray) -> np.ndarray:
    """False at -0.0: it compares equal to the reconstructed +0.0 yet
    differs bitwise, so it must take the outlier path."""
    return ~(np.signbit(values) & (values == 0.0))


def _dequantize(
    quantized: np.ndarray, base: float, scale: float, dtype: np.dtype
) -> np.ndarray:
    """Invert :func:`_quantize` in float64, then cast to the native dtype.

    The round-trip test compares in float64 (see :func:`_exact`), so
    a float32 value qualifies as an inlier only when its exact float64
    image lies on the decimal grid.  This reproduces the published BUFF
    behaviour: single-precision datasets rarely qualify (their Table 4
    BUFF cells sit at or below 1.0) because float32("12.3") upcasts to
    12.30000019..., which is not a 1-decimal number.
    """
    return (base + quantized.astype(np.float64) / scale).astype(dtype)


def _parse_stream(payload: bytes, dtype: np.dtype) -> _StreamMeta:
    count, pos = decode_uvarint(payload, 0)
    precision, pos = decode_uvarint(payload, pos)
    nbytes, pos = decode_uvarint(payload, pos)
    if pos + 8 > len(payload):
        raise CorruptStreamError("BUFF header truncated")
    base = float(np.frombuffer(payload[pos : pos + 8], dtype=np.float64)[0])
    pos += 8
    n_inliers, pos = decode_uvarint(payload, pos)
    if precision not in PRECISION_BITS:
        raise CorruptStreamError(f"BUFF precision {precision} is not in Table 2")
    if not 1 <= nbytes <= 8:
        raise CorruptStreamError(f"BUFF sub-column count {nbytes} is not in 1..8")
    if n_inliers > count:
        raise CorruptStreamError(
            f"BUFF stream declares {n_inliers} inliers among {count} values"
        )

    plane_bytes = nbytes * n_inliers
    bitmap_bytes = (count + 7) // 8
    n_outliers = count - n_inliers
    need = plane_bytes + bitmap_bytes + n_outliers * np.dtype(dtype).itemsize
    if pos + need > len(payload):
        raise CorruptStreamError("BUFF stream truncated")

    planes = np.frombuffer(
        payload[pos : pos + plane_bytes], dtype=np.uint8
    ).reshape(nbytes, n_inliers)
    pos += plane_bytes
    outlier_bits = np.frombuffer(
        payload[pos : pos + bitmap_bytes], dtype=np.uint8
    )
    pos += bitmap_bytes
    inlier_mask = ~np.unpackbits(outlier_bits, count=count).astype(bool)
    if np.count_nonzero(inlier_mask) != n_inliers:
        raise CorruptStreamError(
            "BUFF outlier bitmap disagrees with the declared inlier count"
        )
    outliers = np.frombuffer(
        payload[pos : pos + n_outliers * np.dtype(dtype).itemsize], dtype=dtype
    )
    return _StreamMeta(
        count=count,
        precision=precision,
        nbytes=nbytes,
        base=base,
        n_inliers=n_inliers,
        planes=planes,
        inlier_mask=inlier_mask,
        outliers=outliers,
    )


def _gather_planes(meta: _StreamMeta) -> np.ndarray:
    """Rebuild quantized integers from byte planes."""
    quantized = np.zeros(meta.n_inliers, dtype=np.int64)
    for plane in range(meta.nbytes):
        shift = 8 * (meta.nbytes - 1 - plane)
        quantized |= meta.planes[plane].astype(np.int64) << shift
    return quantized
