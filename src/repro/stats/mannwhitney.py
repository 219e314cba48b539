"""Mann-Whitney U test (normal approximation with tie correction).

The paper uses this test (section 6.1.5, Table 9) to check whether
compressing multidimensional data as flat 1-D arrays significantly
changes compression ratios; with alpha = 0.05 it finds no significant
difference.  Implemented from scratch; the unit tests cross-validate
against scipy's reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MannWhitneyResult", "mann_whitney_u"]


@dataclass(frozen=True)
class MannWhitneyResult:
    """Two-sided Mann-Whitney U outcome."""

    u_statistic: float
    z_score: float
    p_value: float

    def rejects_null(self, alpha: float = 0.05) -> bool:
        """True when the two samples differ significantly at ``alpha``."""
        return self.p_value < alpha


def mann_whitney_u(
    sample_a: np.ndarray, sample_b: np.ndarray
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U via the tie-corrected normal approximation."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")

    combined = np.concatenate([a, b])
    # Midranks: average rank across tied values.
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(len(combined), dtype=np.float64)
    sorted_values = combined[order]
    index = 0
    while index < len(sorted_values):
        stop = index
        while (
            stop + 1 < len(sorted_values)
            and sorted_values[stop + 1] == sorted_values[index]
        ):
            stop += 1
        midrank = (index + stop) / 2.0 + 1.0
        ranks[order[index : stop + 1]] = midrank
        index = stop + 1

    rank_sum_a = float(ranks[:n1].sum())
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    u = min(u_a, n1 * n2 - u_a)

    mean_u = n1 * n2 / 2.0
    # Tie correction for the variance.
    _, tie_counts = np.unique(sorted_values, return_counts=True)
    tie_term = float(((tie_counts**3) - tie_counts).sum())
    n = n1 + n2
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return MannWhitneyResult(u_statistic=u, z_score=0.0, p_value=1.0)
    from scipy import stats as scipy_stats  # 1 s import; keep off `import repro`

    z = (u - mean_u + 0.5) / math.sqrt(variance)  # continuity correction
    p = float(2.0 * scipy_stats.norm.cdf(z))
    return MannWhitneyResult(
        u_statistic=u, z_score=z, p_value=min(max(p, 0.0), 1.0)
    )
