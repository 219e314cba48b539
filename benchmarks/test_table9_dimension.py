"""Table 9: the influence of dimension information on CR.

Paper claims (Observation 6): treating multidimensional data as 1-D
arrays does not significantly change compression ratios (Mann-Whitney U,
alpha = 0.05, no rejection for any of the five dimension-aware methods).

The md column is the suite's own whole-array cell, so after
``suite_results`` only the 1d (one flat chunk) cells are measured.
"""

from conftest import run_once

from repro.core.experiments import table9_dimension
from repro.data.catalog import CATALOG


def test_table9(benchmark, emit, suite_results):
    out = run_once(benchmark, table9_dimension)
    emit("table9_dimension", str(out))
    for method, row in out.data.items():
        assert not row["significant"], (
            f"{method}: md vs 1d difference should not be significant "
            f"(p={row['p']:.3f})"
        )
        # Ratios themselves stay close.
        assert abs(row["md"] - row["1d"]) / row["md"] < 0.25, method
    # GFC's paper-scale skip applies: its row covers the N-d datasets its
    # Table 4 column covers.
    nd = {spec.name for spec in CATALOG if spec.ndim >= 2}
    covered = [m.dataset for m in suite_results.for_method("gfc")
               if m.ok and m.dataset in nd]
    assert out.data["gfc"]["datasets"] == covered
