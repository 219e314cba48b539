"""Nemenyi post-hoc test: critical difference of average ranks.

After a significant Friedman test, two methods differ significantly
when their average ranks differ by at least

    CD = q_alpha * sqrt(k * (k + 1) / (6 * N))

where ``q_alpha`` is the studentized-range quantile divided by sqrt(2)
(Demsar, 2006).  The paper's Figure 7b visualizes this as a CD diagram;
:mod:`repro.stats.cd_diagram` renders the same figure as text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NemenyiResult", "critical_difference", "nemenyi_test"]


def critical_difference(k: int, n: int, alpha: float = 0.05) -> float:
    """The Nemenyi critical difference for k methods over n datasets."""
    if k < 2 or n < 1:
        raise ValueError(f"need k >= 2 methods and n >= 1 datasets, got {k}, {n}")
    from scipy import stats as scipy_stats  # 1 s import; keep off `import repro`

    q_alpha = scipy_stats.studentized_range.ppf(1.0 - alpha, k, np.inf) / math.sqrt(2.0)
    return float(q_alpha * math.sqrt(k * (k + 1) / (6.0 * n)))


@dataclass(frozen=True)
class NemenyiResult:
    """Average ranks plus the CD and the derived groupings."""

    methods: tuple[str, ...]
    average_ranks: np.ndarray
    critical_difference: float

    def ordered(self) -> list[tuple[str, float]]:
        """(method, rank) pairs sorted best (lowest rank) first."""
        order = np.argsort(self.average_ranks)
        return [(self.methods[i], float(self.average_ranks[i])) for i in order]

    def significantly_different(self, a: str, b: str) -> bool:
        """True when |rank(a) - rank(b)| exceeds the CD."""
        ranks = dict(zip(self.methods, self.average_ranks))
        return abs(ranks[a] - ranks[b]) > self.critical_difference

    def cliques(self) -> list[tuple[str, ...]]:
        """Maximal groups of methods not significantly different.

        These are the connecting bars of the CD diagram: each clique is
        a maximal run of rank-adjacent methods whose extremes stay
        within one critical difference.
        """
        pairs = self.ordered()
        cliques: list[tuple[str, ...]] = []
        for start in range(len(pairs)):
            members = [pairs[start][0]]
            for nxt in range(start + 1, len(pairs)):
                if pairs[nxt][1] - pairs[start][1] <= self.critical_difference:
                    members.append(pairs[nxt][0])
                else:
                    break
            if len(members) > 1:
                clique = tuple(members)
                if not any(set(clique) <= set(c) for c in cliques):
                    cliques.append(clique)
        return cliques


def nemenyi_test(
    methods: list[str],
    average_ranks: np.ndarray,
    n_datasets: int,
    alpha: float = 0.05,
) -> NemenyiResult:
    """Package average ranks with their critical difference."""
    average_ranks = np.asarray(average_ranks, dtype=np.float64)
    if len(methods) != len(average_ranks):
        raise ValueError(
            f"{len(methods)} methods but {len(average_ranks)} ranks"
        )
    return NemenyiResult(
        methods=tuple(methods),
        average_ranks=average_ranks,
        critical_difference=critical_difference(
            len(methods), n_datasets, alpha
        ),
    )
