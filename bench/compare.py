"""Compare two sets of runs of the benchmark.

    python3 bench/compare.py A.json B.json

``A`` holds the parent's runs and ``B`` the change's, as ``bench/run.py
--out`` wrote them (at least three runs a side for every workload
compared).  Every (end-to-end metric, workload) pair gets one verdict
from the bound ``BENCHMARK.json`` fixes for the metric:

``better``      every run of B reads better than every run of A
``same``        B's median is no worse than A's by more than the bound
``worse``       B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the runs cannot tell ``same`` from ``worse``

Per-layer metrics have no bound; their medians are listed for the
traced runs both files hold.  The exit status is 1 when any pair is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import load_contract  # noqa: E402
from bench.measure import spread  # noqa: E402

MIN_RUNS = 3


def verdict(parent, change, better: str, bound: float) -> str:
    """One of ``better / same / worse / unresolved`` for one metric on
    one workload, from the values of the parent's and the change's runs."""
    # As costs, so that lower is better whichever way the metric points.
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * value for value in parent]
    cost_b = [sign * value for value in change]
    base = statistics.median(cost_a)
    worsening = (statistics.median(cost_b) - base) / abs(base)
    if max(cost_b) < min(cost_a):
        return "better"
    if max(spread(parent), spread(change)) > bound:
        every_worse = min(cost_b) > max(cost_a)
        return "worse" if every_worse and worsening > bound else "unresolved"
    return "worse" if worsening > bound else "same"


def load_runs(path) -> dict:
    """``{(workload, trace): {metric: [values]}}`` of one result file."""
    grouped: dict = {}
    for record in json.loads(Path(path).read_text())["runs"]:
        if record.get("quick"):
            raise SystemExit(f"{path}: holds --quick runs, which measure nothing")
        metrics = grouped.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return grouped


def compare(parent: dict, change: dict, contract: dict) -> list[tuple]:
    """Rows ``(workload, metric, median A, median B, change %, spread A,
    spread B, verdict)`` for every end-to-end pair both sides measured."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        a_runs, b_runs = parent.get((workload, 0)), change.get((workload, 0))
        if not a_runs or not b_runs:
            continue
        for metric in contract["end_to_end"]:
            a, b = a_runs[metric["name"]], b_runs[metric["name"]]
            if min(len(a), len(b)) < MIN_RUNS:
                raise SystemExit(
                    f"{workload}: {len(a)} and {len(b)} runs; a verdict "
                    f"needs at least {MIN_RUNS} a side"
                )
            base = statistics.median(a)
            rows.append(
                (
                    workload,
                    metric["name"],
                    base,
                    statistics.median(b),
                    (statistics.median(b) - base) / abs(base) * 100,
                    spread(a),
                    spread(b),
                    verdict(a, b, metric["better"], metric["bound"]),
                )
            )
    return rows


def layer_rows(parent: dict, change: dict) -> list[tuple]:
    """Median of each per-layer metric over all traced runs of a side."""

    def medians(grouped):
        pooled: dict = {}
        for (_, trace), metrics in grouped.items():
            if trace:
                for name, values in metrics.items():
                    pooled.setdefault(name, []).extend(values)
        return {name: statistics.median(v) for name, v in pooled.items()}

    a, b = medians(parent), medians(change)
    return [(name, a[name], b[name]) for name in a if name in b]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = load_contract()
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(parent, change, contract)
    print(
        f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'B vs A':>8} {'spread A':>9} {'spread B':>9}  verdict"
    )
    for workload, name, a, b, change_pct, spread_a, spread_b, result in rows:
        print(
            f"{workload:<14} {name:<20} {a:>12.5g} {b:>12.5g} {change_pct:>+7.2f}% "
            f"{spread_a * 100:>8.2f}% {spread_b * 100:>8.2f}%  {result}"
        )
    layers = layer_rows(parent, change)
    if layers:
        print(f"\n{'per-layer metric (no bound)':<46} {'A median':>12} {'B median':>12}")
        for name, a, b in layers:
            print(f"{name:<46} {a:>12.5g} {b:>12.5g}")
    counts = {v: sum(row[-1] == v for row in rows) for v in
              ("better", "same", "worse", "unresolved")}  # fmt: skip
    print("\n" + ", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
