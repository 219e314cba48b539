"""Paper-scale statistical reporting over the experiment database.

``fcbench report --db`` reads finished cells out of an
:class:`~repro.expdb.store.ExperimentStore` and produces the paper's
comparison apparatus: per-domain ratio/throughput tables, a Friedman
omnibus test over the codec×dataset ratio matrix, Nemenyi post-hoc
critical differences, and a text critical-difference diagram — plus a
machine-readable JSON summary (``--json``).

Aggregation rules:

* a *method* is the codec keyfield, except ``auto`` cells which report
  as ``auto/<policy>`` so selection policies rank against fixed codecs;
* multiple configurations of the same (dataset, method) pair — chunk
  sizes, job counts, seeds — are averaged before ranking, so a method
  swept at more configurations gains no rank weight;
* failed cells contribute NaN, which the rank machinery counts as the
  worst rank on that dataset (a method that cannot compress a dataset
  is penalized, exactly like the paper's ``-`` table entries);
* datasets with no finished cell at all (offline corpus files, fully
  skipped rows) are dropped from the matrix rather than penalizing
  every method equally.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.data.catalog import dataset_names
from repro.errors import ExperimentError
from repro.expdb.store import ExperimentStore

__all__ = [
    "render_report",
    "score_matrix",
    "sweep_report",
    "write_artifacts",
]

METRICS = ("ratio", "encode_mbs", "decode_mbs")

#: Minimum matrix for the Friedman test to be meaningful (the statistic
#: itself needs >= 2x2; the paper-scale gate in ISSUE.md is 4x6).
MIN_METHODS = 2
MIN_DATASETS = 2


def _dataset_order(datasets: set[str]) -> list[str]:
    """Catalog order first (paper table order), then externals sorted."""
    ordered = [name for name in dataset_names() if name in datasets]
    extras = sorted(datasets - set(ordered))
    return ordered + extras


def score_matrix(
    store: ExperimentStore, metric: str = "ratio"
) -> tuple[list[str], list[str], np.ndarray]:
    """``(datasets, methods, scores)`` for one metric.

    ``scores[i, j]`` is the mean of ``metric`` over every *done* cell of
    dataset ``i`` under method ``j``; NaN where every cell failed.
    Methods are every distinct label in the grid (so an always-failing
    codec still appears, ranked worst); datasets are those with at least
    one finished cell.
    """
    if metric not in METRICS:
        raise ExperimentError(
            f"unknown report metric {metric!r} (choose from {METRICS})"
        )
    cells = store.cells()
    labels = sorted({cell.key.method_label for cell in cells})
    datasets_done = {cell.key.dataset for cell in cells if cell.status == "done"}
    datasets = _dataset_order(datasets_done)
    if not labels or not datasets:
        return datasets, labels, np.zeros((0, len(labels)))

    sums: dict[tuple[str, str], list[float]] = {}
    terminal: set[tuple[str, str]] = set()
    for cell in cells:
        pair = (cell.key.dataset, cell.key.method_label)
        if cell.status == "failed":
            terminal.add(pair)
        if cell.status != "done":
            continue
        terminal.add(pair)
        value = getattr(cell, metric)
        if value is not None and math.isfinite(value):
            sums.setdefault(pair, []).append(float(value))

    scores = np.full((len(datasets), len(labels)), np.nan)
    for i, dataset in enumerate(datasets):
        for j, label in enumerate(labels):
            values = sums.get((dataset, label))
            if values:
                scores[i, j] = float(np.mean(values))
    return datasets, labels, scores


def _stats_block(
    datasets: list[str], methods: list[str], scores: np.ndarray, alpha: float
) -> dict:
    """Friedman + Nemenyi + CD diagram, or a reason they are unavailable."""
    if len(methods) < MIN_METHODS or len(datasets) < MIN_DATASETS:
        return {
            "available": False,
            "reason": (
                f"need >= {MIN_METHODS} methods and >= {MIN_DATASETS} "
                f"datasets with results (have {len(methods)} x {len(datasets)})"
            ),
        }
    from repro.stats import friedman_test, nemenyi_test, render_cd_diagram

    friedman = friedman_test(scores, higher_is_better=True)
    nemenyi = nemenyi_test(
        methods, friedman.average_ranks, friedman.n_datasets, alpha=alpha
    )
    ordered = nemenyi.ordered()
    different = [
        [a, b]
        for i, (a, _) in enumerate(ordered)
        for b, _ in ordered[i + 1 :]
        if nemenyi.significantly_different(a, b)
    ]
    def _finite(value: float) -> float | None:
        return float(value) if math.isfinite(value) else None

    return {
        "available": True,
        "alpha": alpha,
        "friedman": {
            "n_datasets": friedman.n_datasets,
            "n_methods": friedman.n_methods,
            "chi_square": _finite(friedman.chi_square),
            "chi_square_pvalue": _finite(friedman.chi_square_pvalue),
            "iman_davenport_f": _finite(friedman.iman_davenport_f),
            "iman_davenport_pvalue": _finite(friedman.iman_davenport_pvalue),
            "rejects_null": friedman.rejects_null(alpha),
        },
        "average_ranks": {
            method: float(rank)
            for method, rank in zip(methods, friedman.average_ranks)
        },
        "ranking": [method for method, _ in ordered],
        "nemenyi": {
            "critical_difference": nemenyi.critical_difference,
            "cliques": [list(clique) for clique in nemenyi.cliques()],
            "significantly_different": different,
        },
        "cd_diagram": render_cd_diagram(nemenyi),
    }


def _domain_tables(store: ExperimentStore) -> dict:
    """Per-domain mean metric tables: domain -> method -> metric -> value."""
    by_domain: dict[str, dict[str, dict[str, list[float]]]] = {}
    n_datasets: dict[str, set[str]] = {}
    for cell in store.cells(status="done"):
        label = cell.key.method_label
        domain = by_domain.setdefault(cell.domain, {})
        n_datasets.setdefault(cell.domain, set()).add(cell.key.dataset)
        method = domain.setdefault(label, {m: [] for m in METRICS})
        for metric in METRICS:
            value = getattr(cell, metric)
            if value is not None and math.isfinite(value):
                method[metric].append(float(value))
    tables = {}
    for domain in sorted(by_domain):
        tables[domain] = {
            "datasets": len(n_datasets[domain]),
            "methods": {
                label: {
                    metric: (float(np.mean(vals)) if vals else None)
                    for metric, vals in metrics.items()
                }
                for label, metrics in sorted(by_domain[domain].items())
            },
        }
    return tables


def sweep_report(
    store: ExperimentStore, metric: str = "ratio", alpha: float = 0.05
) -> dict:
    """The full machine-readable report for one experiment database.

    Parameters
    ----------
    metric:
        The ranked measurement (one of :data:`METRICS`).
    alpha:
        Significance level for the statistics.
    """
    datasets, methods, scores = score_matrix(store, metric)
    # Methods with no finished cell anywhere would poison the ranking of
    # real results only when *nothing* ran; keep them (they rank worst),
    # but drop the stats block if no method finished at all.
    any_done = bool(datasets)
    report = {
        "schema": 1,
        "database": str(store.path),
        "metric": metric,
        "counts": store.counts(),
        "grid": store.get_meta("grid"),
        "datasets": datasets,
        "methods": methods,
        "scores": [
            [None if math.isnan(v) else round(float(v), 6) for v in row]
            for row in scores
        ],
        "domains": _domain_tables(store),
        "stats": (
            _stats_block(datasets, methods, scores, alpha)
            if any_done
            else {"available": False, "reason": "no finished cells"}
        ),
    }
    return report


def render_report(report: dict) -> str:
    """Human-readable text rendering of :func:`sweep_report` output."""
    lines: list[str] = []
    counts = report["counts"]
    lines.append(
        f"sweep: {counts['done']} done, {counts['failed']} failed, "
        f"{counts['skipped']} skipped, {counts['pending']} pending, "
        f"{counts['claimed']} claimed ({counts['total']} cells)"
    )
    lines.append(f"metric: {report['metric']}")
    lines.append("")

    for domain, table in report["domains"].items():
        lines.append(f"[{domain}]  ({table['datasets']} datasets)")
        header = f"  {'method':<18} {'ratio':>8} {'enc MB/s':>10} {'dec MB/s':>10}"
        lines.append(header)
        for label, metrics in table["methods"].items():
            def _fmt(value, width):
                if value is None:
                    return "-".rjust(width)
                return f"{value:.2f}".rjust(width)

            lines.append(
                f"  {label:<18} {_fmt(metrics['ratio'], 8)} "
                f"{_fmt(metrics['encode_mbs'], 10)} "
                f"{_fmt(metrics['decode_mbs'], 10)}"
            )
        lines.append("")

    stats = report["stats"]
    if not stats.get("available"):
        lines.append(f"statistics: unavailable ({stats.get('reason')})")
        return "\n".join(lines) + "\n"

    friedman = stats["friedman"]

    def _num(value, spec):
        return format(value, spec) if value is not None else "inf"

    lines.append(
        f"Friedman ({friedman['n_methods']} methods x "
        f"{friedman['n_datasets']} datasets): "
        f"chi2 = {_num(friedman['chi_square'], '.3f')} "
        f"(p = {_num(friedman['chi_square_pvalue'], '.4g')}), "
        f"Iman-Davenport F = {_num(friedman['iman_davenport_f'], '.3f')} "
        f"(p = {_num(friedman['iman_davenport_pvalue'], '.4g')})"
    )
    verdict = (
        "methods differ significantly"
        if friedman["rejects_null"]
        else "no significant difference"
    )
    lines.append(f"  at alpha = {stats['alpha']}: {verdict}")
    lines.append("")
    lines.append("average ranks (lower is better):")
    for method in stats["ranking"]:
        lines.append(f"  {method:<18} {stats['average_ranks'][method]:.3f}")
    lines.append("")
    lines.append(stats["cd_diagram"])
    return "\n".join(lines) + "\n"


def write_artifacts(report: dict, directory: str | Path) -> list[Path]:
    """Write ``summary.json`` + ``cd_diagram.txt`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    summary = directory / "summary.json"
    summary.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    written.append(summary)
    stats = report.get("stats", {})
    if stats.get("available"):
        diagram = directory / "cd_diagram.txt"
        diagram.write_text(stats["cd_diagram"] + "\n")
        written.append(diagram)
    report_txt = directory / "report.txt"
    report_txt.write_text(render_report(report))
    written.append(report_txt)
    return written

