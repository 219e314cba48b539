"""Full-suite orchestration: parallel execution over the result store.

Running all 14 table methods over all 33 datasets is ~462 independent
(method, dataset) cells.  ``run_suite`` serves what it can from the
experiment database (:mod:`repro.expdb.store`) at
``cache_dir()/results.sqlite`` — the same store ``fcbench sweep``
writes — and fans the misses out over the :mod:`repro.parallel` process
pool, each one executed by the sweep's own experiment function
(:func:`repro.expdb.sweep.execute_cell`) and stored the moment it
finishes, so

* multi-core hardware cuts a cold run roughly by the worker count,
* editing one compressor re-runs only that method's column — every
  other cell is a hit, and
* an interrupted run keeps what it measured.

The suite schedules on the in-process pool rather than the sweep's
claim loop because it promises what a claim loop cannot: results in
dataset-major order, ``on_cell`` callbacks in the calling process, and
private runs (``use_cache=False``) that touch no store.

A suite cell is stored under the whole-array keyfields
(``chunk_elements=0, jobs=1, policy="fixed"``) with its full
:class:`Measurement` and the fingerprint of the code that produced it
(:meth:`BenchmarkRunner.cell_fingerprint`).  A row is a hit only while
that fingerprint matches; otherwise it is *stale*: re-run, overwritten.
:func:`serve_cells` is that serve-or-measure step for any list of cell
keys; Tables 9 and 10 pass it stream cells too.

Dzip is excluded from the default method list exactly as the paper
excludes it from the headline tables (section 4.5).

Usage — run a 2x2 slice of the matrix, then hit the cache:

    >>> import tempfile, os
    >>> os.environ["FCBENCH_CACHE_DIR"] = tempfile.mkdtemp()
    >>> from repro.core.suite import run_suite, run_suite_detailed
    >>> results = run_suite(methods=["gorilla", "chimp"],
    ...                     datasets=["citytemp", "gas-price"],
    ...                     target_elements=1024)
    >>> len(results)
    4
    >>> rerun = run_suite_detailed(methods=["gorilla", "chimp"],
    ...                            datasets=["citytemp", "gas-price"],
    ...                            target_elements=1024)
    >>> (rerun.cache_stats.hits, rerun.cache_stats.misses)
    (4, 0)
    >>> rerun.results.fingerprint() == results.fingerprint()
    True

Parallelism is opt-in: pass ``jobs=N`` (or set ``FCBENCH_JOBS``) and
the same call returns a result set whose ``fingerprint()`` is identical
to the serial run's.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.compressors import paper_table_order
from repro.core.results import Measurement, ResultSet
from repro.core.runner import BenchmarkRunner
from repro.data.catalog import CATALOG, get_spec
from repro.data.loader import DEFAULT_TARGET_ELEMENTS, check_target_elements
from repro.errors import UnknownCodecError
from repro.parallel import map_ordered, resolve_jobs

__all__ = [
    "CacheStats",
    "SuiteRun",
    "cache_dir",
    "cell_fields",
    "open_store",
    "run_suite",
    "run_suite_detailed",
    "serve_cells",
    "default_methods",
    "default_datasets",
    "stored_cells",
]

_STORE_FILE = "results.sqlite"


def cache_dir() -> Path:
    """Root directory of the result store (override with FCBENCH_CACHE_DIR)."""
    root = os.environ.get("FCBENCH_CACHE_DIR")
    path = (
        Path(root) if root
        else Path(__file__).resolve().parents[3] / ".fcbench_cache"
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def open_store(root: Path | None = None):
    """Open the result store under ``root`` (default :func:`cache_dir`)."""
    # Imported here: every `import repro` (each server child, cluster
    # node, pool worker) would otherwise pay for sqlite3.
    from repro.expdb.store import ExperimentStore

    root = Path(root) if root is not None else cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    return ExperimentStore(root / _STORE_FILE)


def cell_fields(measurement: Measurement) -> dict:
    """The result and provenance columns of one whole-array measurement."""
    fields = {
        "fingerprint": BenchmarkRunner().cell_fingerprint(measurement.method),
        "measurement": json.dumps(asdict(measurement)),
    }
    if measurement.ok:

        def mbs(seconds: float) -> float | None:  # NaN > 0 is False
            return measurement.input_bytes / seconds / 1e6 if seconds > 0 else None

        fields.update(
            ratio=measurement.compression_ratio,
            input_bytes=measurement.input_bytes,
            compressed_bytes=measurement.compressed_bytes,
            encode_mbs=mbs(measurement.measured_compress_s),
            decode_mbs=mbs(measurement.measured_decompress_s),
        )
    return fields


def _servable(row) -> dict | None:
    """The fields ``row`` stores, or None when it cannot serve a hit.

    Missing or unfinished rows, rows without provenance (pre-version-2,
    crashed, ``auto``), rows whose fingerprint moved on, and whole-array
    rows whose measurement no longer parses are all just misses: the
    cell re-runs.
    """
    if row is None or row.status not in ("done", "failed"):
        return None
    try:
        if row.fingerprint != BenchmarkRunner().cell_fingerprint(row.key.codec):
            return None
        if row.key.chunk_elements == 0:
            _measurement(row.measurement)
    except (UnknownCodecError, TypeError, ValueError):
        return None
    return {
        **row.resultfields(),
        "fingerprint": row.fingerprint,
        "measurement": row.measurement,
    }


def _measurement(text: str) -> Measurement:
    return Measurement(**json.loads(text))


def stored_cells(store):
    """Yield ``(row, fields)`` per finished cell, whole-array or stream.

    ``fields`` is what the row serves as a hit, None for a *stale* row —
    one :func:`serve_cells` would re-measure.  ``fcbench cache`` is a
    view over this.
    """
    for row in store.cells():
        if row.status in ("done", "failed"):
            yield row, _servable(row)


def default_methods() -> list[str]:
    """The 14 table methods in the paper's column order (no Dzip)."""
    return paper_table_order()


def default_datasets() -> list[str]:
    """All 33 Table 3 datasets in catalog order."""
    return [spec.name for spec in CATALOG]


@dataclass
class CacheStats:
    """Hit/miss/store accounting for one suite run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


@dataclass
class SuiteRun:
    """A suite's results plus the execution/caching bookkeeping."""

    results: ResultSet
    cache_stats: CacheStats
    elapsed_seconds: float
    jobs: int


def _execute_timed(key) -> tuple[tuple, float]:
    """Pool-side half of a miss: the one experiment function, timed."""
    from repro.expdb.sweep import execute_cell

    start = time.perf_counter()
    outcome = execute_cell(key)
    return outcome, time.perf_counter() - start


def serve_cells(
    keys: list,
    use_cache: bool = True,
    jobs: int | None = None,
    on_cell: Callable[..., None] | None = None,
) -> tuple[dict, CacheStats]:
    """Every key's fields, served from the result store or measured.

    Each key is a :class:`~repro.expdb.store.CellKey` of any protocol —
    whole-array or stream.  A stored row serves a hit while its
    fingerprint matches; each miss runs the one experiment function,
    :func:`repro.expdb.sweep.execute_cell`, over the :mod:`repro.parallel`
    pool and is stored the moment it finishes.  Returns ``({key: fields},
    stats)``; ``on_cell(key, fields, elapsed_s)`` fires per cell in the
    calling process (0.0 seconds for a hit).  ``use_cache=False`` measures
    every key and touches no store.
    """
    jobs = resolve_jobs(jobs)
    stats = CacheStats()
    start = time.perf_counter()
    served: dict = {}
    with open_store() if use_cache else nullcontext() as store:
        if store is not None:
            for key in keys:
                hit = _servable(store.find_cell(key))
                if hit is not None:
                    served[key] = hit
                    if on_cell is not None:
                        on_cell(key, hit, 0.0)
        missing = [key for key in keys if key not in served]
        if store is not None:
            stats.hits, stats.misses = len(keys) - len(missing), len(missing)

        def finished(position: int, result: tuple) -> None:
            (status, fields, error, _), elapsed = result
            key = missing[position]
            served[key] = fields
            # Only a fingerprinted outcome persists: a failure synthesised
            # from a crash carries none, and a stored MemoryError would
            # replay forever.  Deterministic failures (paper-limit skips,
            # roundtrip mismatches) do persist.
            if store is not None and fields.get("fingerprint"):
                row = {
                    **key.as_dict(),
                    "domain": get_spec(key.dataset).domain,
                    "status": status,
                    "error": error,
                    "source": "suite",
                    "finished_at": time.time(),
                    **fields,
                }
                stats.stores += store.upsert_cells([row])
            if on_cell is not None:
                on_cell(key, fields, elapsed)

        map_ordered(_execute_timed, missing, jobs=jobs, on_result=finished)
        if store is not None:
            store.set_meta(
                "last_run",
                {
                    "timestamp": time.time(),
                    **stats.as_dict(),
                    "cells": len(keys),
                    "jobs": jobs,
                    "elapsed_seconds": round(time.perf_counter() - start, 3),
                },
            )
    return served, stats


def run_suite(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    jobs: int | None = None,
    on_cell: Callable[..., None] | None = None,
) -> ResultSet:
    """Evaluate ``methods`` x ``datasets`` and return the result matrix.

    Cells are kept individually in the result store; pass
    ``use_cache=False`` to force re-execution.
    ``jobs`` selects the process-pool width (``FCBENCH_JOBS`` overrides,
    default serial); ``on_cell(key, measurement, elapsed_s)`` streams
    per-cell status in the calling process (``key`` is the cell's
    :class:`~repro.expdb.store.CellKey`; a hit reports 0.0 seconds).
    """
    return run_suite_detailed(
        methods=methods,
        datasets=datasets,
        target_elements=target_elements,
        seed=seed,
        use_cache=use_cache,
        jobs=jobs,
        on_cell=on_cell,
    ).results


def run_suite_detailed(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    jobs: int | None = None,
    on_cell: Callable[..., None] | None = None,
) -> SuiteRun:
    """Like :func:`run_suite` but also returns cache/timing bookkeeping.

    Parameters
    ----------
    target_elements:
        Per-dataset element budget.
    seed:
        Data generator seed.
    use_cache:
        Serve and store cells through the result store.
    jobs:
        Worker processes; ``0`` auto-detects os.cpu_count() (default:
        ``FCBENCH_JOBS`` or 1 = serial).
    """
    from repro.expdb.store import CellKey

    check_target_elements(target_elements)
    methods = methods or default_methods()
    datasets = datasets or default_datasets()
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    # The whole-array protocol, as `fcbench sweep` spells it.
    keys = [
        CellKey(method, dataset, 0, 1, "fixed", seed, target_elements)
        for dataset in datasets
        for method in methods
    ]
    report = None
    if on_cell is not None:

        def report(key, fields: dict, elapsed: float) -> None:
            on_cell(key, _measurement(fields["measurement"]), elapsed)

    served, stats = serve_cells(keys, use_cache, jobs, report)
    results = ResultSet([_measurement(served[key]["measurement"]) for key in keys])
    elapsed = time.perf_counter() - start
    return SuiteRun(
        results=results, cache_stats=stats, elapsed_seconds=elapsed, jobs=jobs
    )
