"""Fit the learned selection policy from the result store.

Every suite run (and every whole-array sweep) leaves (method, dataset)
measurements in the result store (:mod:`repro.core.suite`).  Those
cells already contain the ground truth selection needs — which codec
achieved the best compression ratio on which data — so training is a
query, not a re-run:

1. group the fresh whole-array cells by (dataset, element budget,
   seed) — stale rows were measured by code that has since changed and
   are ignored, and stream cells measure a chunking, not the codec,
2. keep the best-CR method per group (optionally restricted to a
   candidate set),
3. materialize the dataset at that budget/seed and extract its
   :class:`~repro.select.features.ChunkFeatures`,
4. persist the feature → winner table as JSON.

``fcbench select train`` drives this offline; a
:class:`~repro.select.policy.LearnedPolicy` then serves the table at
write time via nearest-neighbour lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.suite import cache_dir, open_store, stored_cells
from repro.errors import SelectionError
from repro.select.features import FEATURE_ORDER, extract_features
from repro.select.policy import LearnedPolicy

__all__ = [
    "TABLE_SCHEMA",
    "TableRow",
    "default_table_path",
    "build_table",
    "table_from_results",
    "save_table",
    "load_table",
    "load_policy",
]

TABLE_SCHEMA = 1
_TABLE_FILE = "select_table.json"


def default_table_path() -> Path:
    """Where ``fcbench select train`` writes (and ``learned`` reads)."""
    return cache_dir() / _TABLE_FILE


@dataclass(frozen=True)
class TableRow:
    """One training sample: a dataset's features and its best codec."""

    dataset: str
    target_elements: int
    seed: int
    winner: str
    winner_cr: float
    features: dict

    def vector(self) -> tuple[float, ...]:
        return tuple(float(self.features[name]) for name in FEATURE_ORDER)


def _winners_from_cells(
    cells, candidates: tuple[str, ...] | None
) -> dict[tuple[str, int, int], tuple[str, float]]:
    best: dict[tuple[str, int, int], tuple[str, float]] = {}
    # Method order plus strict > below keeps the alphabetically first
    # method on exact ties, so training is deterministic.
    for row, fields in sorted(cells, key=lambda cell: cell[0].key.codec):
        method = row.key.codec
        if candidates is not None and method not in candidates:
            continue
        if fields is None or row.key.chunk_elements != 0:
            continue
        ratio = fields.get("ratio")
        if not isinstance(ratio, (int, float)) or not ratio > 0:
            continue
        key = (row.key.dataset, row.key.target_elements, row.key.seed)
        incumbent = best.get(key)
        if incumbent is None or ratio > incumbent[1]:
            best[key] = (method, float(ratio))
    return best


def build_table(
    root: Path | None = None,
    candidates: tuple[str, ...] | None = None,
) -> list[TableRow]:
    """Query the result store into a feature → winner table.

    Raises :class:`SelectionError` when the store holds no usable cells
    — training needs at least one completed suite run.
    """
    from repro.data.loader import load

    with open_store(root) as store:
        winners = _winners_from_cells(stored_cells(store), candidates)
    rows = []
    for (dataset, target_elements, seed), (winner, ratio) in sorted(
        winners.items()
    ):
        try:
            array = load(dataset, target_elements, seed)
        except Exception:  # noqa: BLE001 - stored row naming a gone dataset
            continue
        rows.append(
            TableRow(
                dataset=dataset,
                target_elements=target_elements,
                seed=seed,
                winner=winner,
                winner_cr=ratio,
                features=extract_features(array).as_dict(),
            )
        )
    if not rows:
        raise SelectionError(
            "the result store holds no usable cells to train from "
            "(run `fcbench run` first, then `fcbench select train`)"
        )
    return rows


def table_from_results(
    results,
    target_elements: int,
    seed: int = 0,
    candidates: tuple[str, ...] | None = None,
) -> list[TableRow]:
    """Build a table straight from a :class:`ResultSet` (no store)."""
    from repro.data.loader import load

    best: dict[str, tuple[str, float]] = {}
    for m in results.measurements:
        if not m.ok or not m.compression_ratio > 0:
            continue
        if candidates is not None and m.method not in candidates:
            continue
        incumbent = best.get(m.dataset)
        if incumbent is None or m.compression_ratio > incumbent[1]:
            best[m.dataset] = (m.method, float(m.compression_ratio))
    rows = []
    for dataset, (winner, ratio) in sorted(best.items()):
        array = load(dataset, target_elements, seed)
        rows.append(
            TableRow(
                dataset=dataset,
                target_elements=target_elements,
                seed=seed,
                winner=winner,
                winner_cr=ratio,
                features=extract_features(array).as_dict(),
            )
        )
    if not rows:
        raise SelectionError("no usable measurements to train from")
    return rows


def save_table(rows: list[TableRow], path: Path | None = None) -> Path:
    """Persist a training table as JSON; returns the path written."""
    path = Path(path) if path is not None else default_table_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": TABLE_SCHEMA,
        "feature_order": list(FEATURE_ORDER),
        "rows": [
            {
                "dataset": row.dataset,
                "target_elements": row.target_elements,
                "seed": row.seed,
                "winner": row.winner,
                "winner_cr": row.winner_cr,
                "features": row.features,
            }
            for row in rows
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_table(path: Path | None = None) -> list[TableRow]:
    """Read a training table written by :func:`save_table`."""
    path = Path(path) if path is not None else default_table_path()
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise SelectionError(
            f"no training table at {path} "
            "(run `fcbench select train` first)"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SelectionError(f"training table {path} is not valid JSON") from exc
    if payload.get("schema") != TABLE_SCHEMA:
        raise SelectionError(
            f"training table {path} has schema {payload.get('schema')!r}, "
            f"this reader speaks {TABLE_SCHEMA}"
        )
    stored_order = payload.get("feature_order")
    if stored_order != list(FEATURE_ORDER):
        raise SelectionError(
            f"training table {path} was fit on features {stored_order}, "
            f"this build computes {list(FEATURE_ORDER)} — retrain"
        )
    rows = []
    for record in payload.get("rows", []):
        try:
            rows.append(
                TableRow(
                    dataset=str(record["dataset"]),
                    target_elements=int(record["target_elements"]),
                    seed=int(record["seed"]),
                    winner=str(record["winner"]),
                    winner_cr=float(record["winner_cr"]),
                    features=dict(record["features"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SelectionError(
                f"training table {path} holds a malformed row: {record!r}"
            ) from exc
    if not rows:
        raise SelectionError(f"training table {path} holds no rows")
    return rows


def load_policy(path: Path | None = None, **options) -> LearnedPolicy:
    """Instantiate a :class:`LearnedPolicy` from a saved table."""
    rows = load_table(path)
    return LearnedPolicy(
        rows=tuple((row.winner, row.vector()) for row in rows), **options
    )
