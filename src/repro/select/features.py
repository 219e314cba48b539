"""Cheap per-chunk statistics that drive codec selection.

FCBench's cross-domain result — no single method dominates — is driven
by measurable block statistics: entropy class, smoothness, and mantissa
structure (paper sections 5-7; the benchmark-datasets companion work
makes the same point per block).  This module computes those statistics
for one chunk at write time, cheaply enough to run inside a
:class:`~repro.api.session.CompressSession` flush:

* value/byte entropy via :mod:`repro.data.entropy` (Table 3's columns),
* XOR-residual structure via the :mod:`repro.compressors.util` exact
  float-exponent fast paths (the quantities Gorilla/Chimp windows code),
* lag-1 autocorrelation (smooth fields vs. noise),
* exponent spread and decimal quantization (what BUFF and the DB-domain
  coders exploit).

Selection has to cost a small fraction of the compression it steers
(FRaZ makes the point about parameter search), so the statistics are
**staged**: a :class:`ChunkFeatures` computes each one the first time
it is read, from intermediates (bit view, lag-1 XOR, finite mask) that
are themselves built at most once.  A rule chain that settles on
``decimal_digits`` and ``frac_unique`` pays for those two (~65 us on a
4,096-element float64 chunk) instead of the whole vector (~330 us);
:func:`extract_features` is the forced form for callers that want all
of it now.

Everything is deterministic: the same chunk bytes always produce the
same values, whatever order they are read in, which is what makes the
parallel auto write path byte-identical to the serial one.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.util import float_bits, significant_bits, trailing_zeros
from repro.data.entropy import byte_entropy

__all__ = [
    "FEATURE_ORDER",
    "FEATURE_SAMPLE_ELEMENTS",
    "MAX_DECIMAL_DIGITS",
    "ChunkFeatures",
    "extract_features",
]

#: Features are computed on at most this many leading elements — a
#: fixed prefix keeps extraction O(sample) per chunk and deterministic
#: regardless of chunk size.
FEATURE_SAMPLE_ELEMENTS = 8192

#: Largest decimal precision probed by :attr:`ChunkFeatures.decimal_digits`.
MAX_DECIMAL_DIGITS = 4

#: A decimal precision is tried on this many leading values before the
#: whole sample: a prefix that misses the tolerance proves the sample
#: misses it, so continuous data never pays a full pass.
_DECIMAL_PREFIX = 64

_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

#: Stable feature ordering, as :meth:`ChunkFeatures.as_dict` lists them.
FEATURE_ORDER = (
    "frac_unique",
    "byte_entropy",
    "delta_byte_entropy",
    "lag1_autocorr",
    "xor_significant_fraction",
    "xor_lead_fraction",
    "xor_trail_fraction",
    "exponent_count",
    "decimal_digits",
)

#: What every statistic reads on an empty chunk.
_EMPTY = dict.fromkeys(FEATURE_ORDER, 0.0) | {
    "exponent_count": 0,
    "decimal_digits": -1,
}


class _staged:
    """Attribute computed on first read; the instance dict answers after.

    ``functools.cached_property`` without the class-wide lock it takes
    before Python 3.12, which would serialize threads computing the same
    statistic on different chunks.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class ChunkFeatures:
    """Deterministic selection statistics for one chunk, computed on first read.

    ``n_elements`` and ``sampled`` are known at construction; each name
    in :data:`FEATURE_ORDER` is computed over the first
    ``sample_elements`` values when something reads it and kept.  Until
    :meth:`force` has run the object reads the chunk it was built over,
    so hold an unforced one only as long as the chunk is left alone.
    """

    def __init__(
        self, chunk: np.ndarray, sample_elements: int = FEATURE_SAMPLE_ELEMENTS
    ) -> None:
        flat = np.ascontiguousarray(chunk).ravel()
        self.n_elements = int(flat.size)
        self._sample = flat[: max(1, int(sample_elements))]
        self._bits = float_bits(self._sample)  # typed error unless f32/f64
        self.sampled = int(self._sample.size)
        if not self.sampled:
            self.__dict__.update(_EMPTY)

    # -- shared intermediates, each built at most once ---------------------
    @_staged
    def _xor(self) -> np.ndarray:
        """Lag-1 XOR residuals (empty for a single value)."""
        return self._bits[1:] ^ self._bits[:-1]

    @_staged
    def _xor_significant_bits(self) -> int:
        """Total significant bits over the residuals — an exact integer."""
        return int(significant_bits(self._xor).sum(dtype=np.int64))

    @_staged
    def _finite(self) -> np.ndarray:
        return np.isfinite(self._sample)

    def _xor_mean_fraction(self, total_bits: int) -> float:
        """Mean per-residual bit count over the word width."""
        width = self._bits.dtype.itemsize * 8
        return float(np.float64(total_bits) / max(1, self._xor.size)) / width

    # -- the statistics -----------------------------------------------------
    @_staged
    def frac_unique(self) -> float:
        """Distinct bit patterns / sampled count — low for quantized or
        repeat-heavy data (Table 3's low-entropy class)."""
        ordered = np.sort(self._bits)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        return float(distinct / self.sampled)

    @_staged
    def byte_entropy(self) -> float:
        """Shannon entropy of the raw byte stream, bits/byte."""
        return byte_entropy(self._sample)

    @_staged
    def delta_byte_entropy(self) -> float:
        """Byte entropy of the lag-1 XOR residual stream — what the
        XOR-window and byte-stream codecs actually see."""
        return byte_entropy(self._xor)

    @_staged
    def lag1_autocorr(self) -> float:
        """Lag-1 autocorrelation of the (finite) values; ~1 for smooth
        fields, ~0 for noise and shuffled tables."""
        values = np.where(
            self._finite, self._sample.astype(np.float64, copy=False), 0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            corr = _centered_lag1(values)
            if np.isnan(corr):
                # Sums of squares overflow above ~1e75 and underflow below
                # ~1e-75; the statistic is scale-free.
                corr = _centered_lag1(values / np.abs(values).max())
        return corr

    @_staged
    def xor_significant_fraction(self) -> float:
        """Mean significant bits of the lag-1 XOR residual over the word
        width — the Gorilla/Chimp window cost per element."""
        return self._xor_mean_fraction(self._xor_significant_bits)

    @_staged
    def xor_lead_fraction(self) -> float:
        """Mean leading-zero fraction of the XOR residuals: the word
        width less the significant bits, residual by residual."""
        word_bits = self._bits.dtype.itemsize * 8 * self._xor.size
        return self._xor_mean_fraction(word_bits - self._xor_significant_bits)

    @_staged
    def xor_trail_fraction(self) -> float:
        """Mean trailing-zero fraction of the XOR residuals."""
        return self._xor_mean_fraction(
            int(trailing_zeros(self._xor).sum(dtype=np.int64))
        )

    @_staged
    def exponent_count(self) -> int:
        """Distinct IEEE exponents in the sample (dynamic-range spread)."""
        bits = self._bits
        if bits.dtype.itemsize == 4:
            exponents = (bits >> np.uint32(23)) & np.uint32(0xFF)
        else:
            exponents = (bits >> np.uint64(52)) & np.uint64(0x7FF)
        return int(np.count_nonzero(np.bincount(exponents.astype(np.intp))))

    @_staged
    def decimal_digits(self) -> int:
        """Smallest d <= MAX_DECIMAL_DIGITS with round(v, d) == v for the
        whole sample, or -1 when the data is not decimal-quantized."""
        sample = self._sample
        finite = sample[self._finite]
        if finite.size == 0:
            return -1
        # Representation noise scales with magnitude (a stored decimal is
        # only exact to ~ulp), but the probe is only meaningful while the
        # tolerance stays far below the quantization step 0.5 * 10^-d —
        # otherwise any large-magnitude continuous field would "round
        # clean" and be misclassified as decimal-quantized.
        relative = 1e-6 if sample.dtype == np.float32 else 1e-10
        magnitude = np.abs(finite)
        peak = float(magnitude.max())
        noise = relative * max(1.0, peak)
        # A nonzero chunk that lives below the tolerance rounds to zero
        # whatever its data, which is no evidence of quantization.
        if 0.0 < peak <= noise:
            return -1
        # Nor is one that lives at or above 2^(mantissa bits + 1), where
        # every float is an integer and rounds clean at any precision;
        # a stray value up there says nothing about the rest and stays
        # out of the rounding passes, where scaling it by 10^d could
        # overflow.
        integral = 2.0 ** (np.finfo(sample.dtype).nmant + 1)
        if peak >= integral:
            if magnitude[magnitude > 0].min() >= integral:
                return -1
            finite = finite[magnitude < integral]
        finite = finite.astype(np.float64, copy=False)
        prefix = finite[:_DECIMAL_PREFIX]
        for digits in range(MAX_DECIMAL_DIGITS + 1):
            tolerance = min(noise, 0.05 * 10.0**-digits)
            if (
                _rounding_error(prefix, digits) <= tolerance
                and _rounding_error(finite, digits) <= tolerance
            ):
                return digits
        return -1

    # -- whole-vector views -------------------------------------------------
    def force(self) -> ChunkFeatures:
        """Compute whatever is still missing and let go of the chunk."""
        for name in FEATURE_ORDER:
            getattr(self, name)
        for private in [name for name in self.__dict__ if name.startswith("_")]:
            del self.__dict__[private]
        return self

    def computed_fields(self) -> frozenset[str]:
        """The statistics something has read so far."""
        return frozenset(self.__dict__).intersection(FEATURE_ORDER)

    def as_dict(self) -> dict:
        """The full vector, ``n_elements`` and ``sampled`` first."""
        record = {"n_elements": self.n_elements, "sampled": self.sampled}
        for name in FEATURE_ORDER:
            record[name] = getattr(self, name)
        return record

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChunkFeatures):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}"
            for name, value in self.__dict__.items()
            if not name.startswith("_")
        )
        return f"ChunkFeatures({shown})"


def _centered_lag1(values: np.ndarray) -> float:
    """Lag-1 autocorrelation; NaN when a sum of products left the range."""
    centered = values - values.mean()
    x, y = centered[:-1], centered[1:]
    product = float((x * x).sum()) * float((y * y).sum())
    if product < _SMALLEST_NORMAL:
        # Zero for a constant chunk.  In a varying one the squares are
        # underflowing — a subnormal product has already lost digits —
        # which is as far out of range as squares that overflow.
        return float("nan") if centered.any() else 0.0
    denom = np.sqrt(product)
    if not np.isfinite(denom):
        return float("nan")
    return float((x * y).sum() / denom)


def _rounding_error(values: np.ndarray, digits: int) -> float:
    return float(np.abs(np.round(values, digits) - values).max())


def extract_features(
    chunk: np.ndarray, sample_elements: int = FEATURE_SAMPLE_ELEMENTS
) -> ChunkFeatures:
    """The full :class:`ChunkFeatures` vector for one float chunk, now.

    Only the first ``sample_elements`` values are inspected; statistics
    are exact over that prefix and deterministic for identical bytes.
    The result holds no reference to ``chunk``.
    """
    return ChunkFeatures(chunk, sample_elements).force()
