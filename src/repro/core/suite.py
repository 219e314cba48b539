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
private runs (a custom ``runner``, ``use_cache=False``) that touch no
store.

A suite cell is stored under the whole-array keyfields
(``chunk_elements=0, jobs=1, policy="fixed"``) with its full
:class:`Measurement` and the fingerprint of the code that produced it
(:meth:`BenchmarkRunner.cell_fingerprint`).  A row is a hit only while
that fingerprint matches; otherwise it is *stale*: re-run, overwritten.

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
from functools import partial
from pathlib import Path
from typing import Callable

from repro.compressors import paper_table_order
from repro.core.results import Measurement, ResultSet
from repro.core.runner import BenchmarkRunner
from repro.data.catalog import CATALOG
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


def cell_fields(measurement: Measurement, runner: BenchmarkRunner) -> dict:
    """The result and provenance columns of one whole-array measurement."""
    fields = {
        "fingerprint": runner.cell_fingerprint(measurement.method),
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


def _servable(row, runner: BenchmarkRunner) -> Measurement | None:
    """The measurement ``row`` stores, or None when it cannot serve a hit.

    Missing rows, rows without provenance (pending, pre-version-2,
    crashed), rows whose fingerprint moved on, and rows whose
    measurement no longer parses are all just misses: the cell re-runs.
    """
    if row is None:
        return None
    try:
        if row.fingerprint != runner.cell_fingerprint(row.key.codec):
            return None
        return Measurement(**json.loads(row.measurement))
    except (UnknownCodecError, TypeError, ValueError):
        return None


def stored_cells(store):
    """Yield ``(row, measurement)`` per finished whole-array cell.

    ``measurement`` is None for a *stale* row — one a suite run would
    not serve as a hit.  ``fcbench cache`` and ``fcbench select train``
    are both views over this.
    """
    runner = BenchmarkRunner()
    for row in store.cells():
        if row.key.chunk_elements == 0 and row.status in ("done", "failed"):
            yield row, _servable(row, runner)


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


def _execute_timed(runner: BenchmarkRunner, key) -> tuple[tuple, float]:
    """Pool-side half of a miss: the one experiment function, timed."""
    from repro.expdb.sweep import execute_cell

    start = time.perf_counter()
    outcome = execute_cell(key, runner=runner)
    return outcome, time.perf_counter() - start


def run_suite(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    runner: BenchmarkRunner | None = None,
    jobs: int | None = None,
    on_cell: Callable[..., None] | None = None,
) -> ResultSet:
    """Evaluate ``methods`` x ``datasets`` and return the result matrix.

    Cells are kept individually in the result store; pass
    ``use_cache=False`` (or a custom ``runner``) to force re-execution.
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
        runner=runner,
        jobs=jobs,
        on_cell=on_cell,
    ).results


def run_suite_detailed(
    methods: list[str] | None = None,
    datasets: list[str] | None = None,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
    use_cache: bool = True,
    runner: BenchmarkRunner | None = None,
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
    # Custom runners measure under non-default policies; never let those
    # results shadow (or be shadowed by) the standard stored cells.
    use_store = use_cache and runner is None
    runner = runner or BenchmarkRunner()
    stats = CacheStats()

    start = time.perf_counter()
    # The whole-array protocol, as `fcbench sweep` spells it.
    keys = [
        CellKey(method, dataset, 0, 1, "fixed", seed, target_elements)
        for dataset in datasets
        for method in methods
    ]
    measured: dict = {}
    with open_store() if use_store else nullcontext() as store:
        if store is not None:
            for key in keys:
                hit = _servable(store.find_cell(key), runner)
                if hit is not None:
                    measured[key] = hit
                    if on_cell is not None:
                        on_cell(key, hit, 0.0)
        missing = [key for key in keys if key not in measured]
        if store is not None:
            stats.hits, stats.misses = len(keys) - len(missing), len(missing)

        def finished(position: int, result: tuple) -> None:
            (status, fields, error, _), elapsed = result
            key = missing[position]
            measurement = Measurement(**json.loads(fields["measurement"]))
            measured[key] = measurement
            # Never persist transient (crash-synthesized) failures: a
            # stored MemoryError would replay forever.  Deterministic
            # policy failures (skips, roundtrip mismatches) do persist.
            if store is not None and not measurement.transient:
                row = {
                    **key.as_dict(),
                    "domain": measurement.domain,
                    "status": status,
                    "error": error,
                    "source": "suite",
                    "finished_at": time.time(),
                    **fields,
                }
                stats.stores += store.upsert_cells([row])
            if on_cell is not None:
                on_cell(key, measurement, elapsed)

        map_ordered(
            partial(_execute_timed, runner), missing, jobs=jobs, on_result=finished
        )
        results = ResultSet([measured[key] for key in keys])
        elapsed = time.perf_counter() - start
        if store is not None:
            store.set_meta(
                "last_run",
                {
                    "timestamp": time.time(),
                    **stats.as_dict(),
                    "cells": len(keys),
                    "methods": len(methods),
                    "datasets": len(datasets),
                    "jobs": jobs,
                    "elapsed_seconds": round(elapsed, 3),
                },
            )
    return SuiteRun(
        results=results, cache_stats=stats, elapsed_seconds=elapsed, jobs=jobs
    )
