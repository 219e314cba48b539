"""Friedman test for comparing k methods over N datasets.

Implements the chi-square form (Friedman, 1937) and the Iman-Davenport
F correction that Demsar (2006) recommends — the exact workflow the
paper applies with alpha = 0.05, k = 13, N = 33 (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ranking import rank_matrix

__all__ = ["FriedmanResult", "friedman_test"]


@dataclass(frozen=True)
class FriedmanResult:
    """Outcome of the Friedman + Iman-Davenport test."""

    n_datasets: int
    n_methods: int
    average_ranks: np.ndarray
    chi_square: float
    chi_square_pvalue: float
    iman_davenport_f: float
    iman_davenport_pvalue: float

    def rejects_null(self, alpha: float = 0.05) -> bool:
        """True when the methods are *not* all equivalent at ``alpha``."""
        return self.iman_davenport_pvalue < alpha


def friedman_test(
    scores: np.ndarray, higher_is_better: bool = True
) -> FriedmanResult:
    """Run the Friedman test on a (datasets x methods) score matrix."""
    from scipy import stats as scipy_stats  # 1 s import; keep off `import repro`

    scores = np.asarray(scores, dtype=np.float64)
    n, k = scores.shape
    if n < 2 or k < 2:
        raise ValueError(
            f"Friedman test needs >=2 datasets and >=2 methods, got {n}x{k}"
        )
    ranks = rank_matrix(scores, higher_is_better)
    mean_ranks = ranks.mean(axis=0)

    chi2 = (12.0 * n) / (k * (k + 1)) * (
        float((mean_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0
    )
    chi2_p = float(scipy_stats.chi2.sf(chi2, k - 1))

    # Iman & Davenport (1980): less conservative F statistic.
    denominator = n * (k - 1) - chi2
    if denominator <= 0:
        f_stat = float("inf")
        f_p = 0.0
    else:
        f_stat = (n - 1) * chi2 / denominator
        f_p = float(scipy_stats.f.sf(f_stat, k - 1, (k - 1) * (n - 1)))

    return FriedmanResult(
        n_datasets=n,
        n_methods=k,
        average_ranks=mean_ranks,
        chi_square=chi2,
        chi_square_pvalue=chi2_p,
        iman_davenport_f=f_stat,
        iman_davenport_pvalue=f_p,
    )
