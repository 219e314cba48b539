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

Everything is deterministic: the same chunk bytes always produce the
same :class:`ChunkFeatures`, which is what makes the parallel auto
write path byte-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.compressors.util import (
    UINT_FOR_FLOAT,
    float_bits,
    leading_zeros,
    significant_bits,
    trailing_zeros,
)
from repro.data.entropy import byte_entropy

__all__ = [
    "FEATURE_SAMPLE_ELEMENTS",
    "MAX_DECIMAL_DIGITS",
    "ChunkFeatures",
    "extract_features",
]

#: Features are computed on at most this many leading elements — a
#: fixed prefix keeps extraction O(sample) per chunk and deterministic
#: regardless of chunk size.
FEATURE_SAMPLE_ELEMENTS = 8192

#: Largest decimal precision probed by :func:`extract_features`.
MAX_DECIMAL_DIGITS = 4


@dataclass(frozen=True)
class ChunkFeatures:
    """Deterministic selection statistics for one chunk."""

    n_elements: int
    sampled: int
    #: Distinct bit patterns / sampled count — low for quantized or
    #: repeat-heavy data (Table 3's low-entropy class).
    frac_unique: float
    #: Shannon entropy of the raw byte stream, bits/byte.
    byte_entropy: float
    #: Byte entropy of the lag-1 XOR residual stream — what the
    #: XOR-window and byte-stream codecs actually see.
    delta_byte_entropy: float
    #: Lag-1 autocorrelation of the (finite) values; ~1 for smooth
    #: fields, ~0 for noise and shuffled tables.
    lag1_autocorr: float
    #: Mean significant bits of the lag-1 XOR residual over the word
    #: width — the Gorilla/Chimp window cost per element.
    xor_significant_fraction: float
    #: Mean leading / trailing zero fraction of the XOR residuals
    #: (mantissa-structure stats, via the util fast paths).
    xor_lead_fraction: float
    xor_trail_fraction: float
    #: Distinct IEEE exponents in the sample (dynamic-range spread).
    exponent_count: int
    #: Smallest d <= MAX_DECIMAL_DIGITS with round(v, d) == v for the
    #: whole sample, or -1 when the data is not decimal-quantized.
    decimal_digits: int

    def as_dict(self) -> dict:
        return asdict(self)

    def numeric_vector(self) -> tuple[float, ...]:
        """Feature values in :data:`FEATURE_ORDER` (for learned policies)."""
        record = self.as_dict()
        return tuple(float(record[name]) for name in FEATURE_ORDER)


#: Stable feature ordering used by the learned policy's distance metric.
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


def _lag1_autocorr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    finite = np.nan_to_num(
        values.astype(np.float64, copy=False), posinf=0.0, neginf=0.0
    )
    with np.errstate(over="ignore", invalid="ignore"):
        corr = _centered_lag1(finite)
        if np.isnan(corr):
            # Squares overflow above ~1e154; the statistic is scale-free.
            corr = _centered_lag1(finite / np.abs(finite).max())
    return corr


def _centered_lag1(values: np.ndarray) -> float:
    """Lag-1 autocorrelation; NaN when a sum of products overflowed."""
    centered = values - values.mean()
    x, y = centered[:-1], centered[1:]
    denom = np.sqrt(float((x * x).sum()) * float((y * y).sum()))
    if denom == 0.0:
        return 0.0
    if not np.isfinite(denom):
        return float("nan")
    return float((x * y).sum() / denom)


def _decimal_digits(values: np.ndarray) -> int:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return -1
    # Representation noise scales with magnitude (a stored decimal is
    # only exact to ~ulp), but the probe is only meaningful while the
    # tolerance stays far below the quantization step 0.5 * 10^-d —
    # otherwise any large-magnitude continuous field would "round
    # clean" and be misclassified as decimal-quantized.
    relative = 1e-6 if values.dtype == np.float32 else 1e-10
    magnitude = np.abs(finite)
    peak = float(magnitude.max())
    # From 2^(mantissa bits) up every float is an integer: a chunk that
    # lives there rounds clean whatever its data, which is no evidence.
    integral = 2.0 ** (np.finfo(values.dtype).nmant + 1)
    if peak >= integral and magnitude[magnitude > 0].min() >= integral:
        return -1
    noise = relative * max(1.0, peak)
    finite = finite.astype(np.float64, copy=False)
    for digits in range(MAX_DECIMAL_DIGITS + 1):
        tolerance = min(noise, 0.05 * 10.0**-digits)
        if np.abs(np.round(finite, digits) - finite).max() <= tolerance:
            return digits
    return -1


def extract_features(
    chunk: np.ndarray, sample_elements: int = FEATURE_SAMPLE_ELEMENTS
) -> ChunkFeatures:
    """Compute :class:`ChunkFeatures` for one float chunk.

    Only the first ``sample_elements`` values are inspected; statistics
    are exact over that prefix and deterministic for identical bytes.
    """
    flat = np.ascontiguousarray(chunk).ravel()
    if flat.dtype not in UINT_FOR_FLOAT:
        from repro.errors import UnsupportedDtypeError

        raise UnsupportedDtypeError(
            f"feature extraction expects float32/float64, got {flat.dtype}"
        )
    n_elements = int(flat.size)
    sample = flat[: max(1, int(sample_elements))] if n_elements else flat
    sampled = int(sample.size)
    if sampled == 0:
        return ChunkFeatures(
            n_elements=0,
            sampled=0,
            frac_unique=0.0,
            byte_entropy=0.0,
            delta_byte_entropy=0.0,
            lag1_autocorr=0.0,
            xor_significant_fraction=0.0,
            xor_lead_fraction=0.0,
            xor_trail_fraction=0.0,
            exponent_count=0,
            decimal_digits=-1,
        )
    bits = float_bits(sample)
    width = bits.dtype.itemsize * 8
    frac_unique = float(len(np.unique(bits)) / sampled)
    if sampled > 1:
        xor = bits[1:] ^ bits[:-1]
        xor_sig = float(significant_bits(xor).mean()) / width
        xor_lead = float(leading_zeros(xor).mean()) / width
        xor_trail = float(trailing_zeros(xor).mean()) / width
        delta_entropy = byte_entropy(xor)
    else:
        xor_sig = xor_lead = xor_trail = 0.0
        delta_entropy = 0.0
    if width == 32:
        exponents = (bits >> np.uint32(23)) & np.uint32(0xFF)
    else:
        exponents = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    return ChunkFeatures(
        n_elements=n_elements,
        sampled=sampled,
        frac_unique=frac_unique,
        byte_entropy=byte_entropy(sample),
        delta_byte_entropy=delta_entropy,
        lag1_autocorr=_lag1_autocorr(sample),
        xor_significant_fraction=xor_sig,
        xor_lead_fraction=xor_lead,
        xor_trail_fraction=xor_trail,
        exponent_count=int(len(np.unique(exponents))),
        decimal_digits=_decimal_digits(sample),
    )
