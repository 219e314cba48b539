"""Measured-throughput benchmark harness: the repo's perf trajectory.

The modeled numbers in :mod:`repro.perf.timing` reproduce the *paper's*
testbed; this module measures what the reproduction itself achieves on
the host it runs on, so optimizations land with evidence and
regressions are caught.  ``fcbench bench`` drives it:

* each (method, dataset) cell times ``_compress`` / ``_decompress`` at a
  fixed element count (best of ``repeats`` runs, wall clock),
* methods that retain a scalar oracle (``_compress_scalar``, the seed
  per-element implementation) are timed against it, recording the
  vectorization speedup on the same machine and input,
* results are written to ``BENCH_<git-sha>.json`` at the repo root and
  diffed against the most recent earlier snapshot, making each commit's
  throughput a point on a tracked trajectory,
* a small ``guard`` section holds fast re-measurable cells that the
  ``perf``-marked pytest guard checks for >30% regressions.

Usage — one tiny cell, no snapshot file:

    >>> from repro.perf.bench import run_bench
    >>> report = run_bench(methods=["gorilla"], datasets=["citytemp"],
    ...                    elements=2048, repeats=1, guard=False)
    >>> [c["method"] for c in report["cells"]]
    ['gorilla']
    >>> report["cells"][0]["compress_mbs"] > 0
    True
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BENCH_PREFIX",
    "bench_cell",
    "run_bench",
    "write_report",
    "find_snapshots",
    "latest_snapshot",
    "diff_reports",
    "git_sha",
    "repo_root",
]

BENCH_PREFIX = "BENCH_"
SCHEMA_VERSION = 1

#: Default matrix: the two per-element-loop codecs the vectorized
#: bit-stream engine rewrote, plus the other plan-then-pack rewrites.
DEFAULT_METHODS = ("gorilla", "chimp", "fpzip", "ndzip-cpu", "mpc")
DEFAULT_DATASETS = ("tpcH-order", "num-brain", "msg-bt")
DEFAULT_ELEMENTS = 1_000_000
#: Guard cells stay small so the pytest perf guard re-measures in seconds.
GUARD_ELEMENTS = 200_000
GUARD_METHODS = ("gorilla", "chimp")
GUARD_DATASET = "tpcH-order"


def repo_root() -> Path:
    """Repository root (where ``BENCH_*.json`` snapshots live)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "ROADMAP.md").exists() or (parent / ".git").exists():
            return parent
    return Path.cwd()


def git_sha() -> str:
    """Short HEAD sha (``-dirty`` suffixed when the tree is modified).

    Snapshots are points on a per-commit trajectory; measuring an
    uncommitted tree must not masquerade as the HEAD commit.  Returns
    ``unknown`` outside a usable git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=repo_root(),
            timeout=10,
        )
        sha = out.stdout.strip()
        if out.returncode != 0 or not sha:
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            cwd=repo_root(),
            timeout=10,
        )
        if dirty.returncode == 0 and dirty.stdout.strip():
            return f"{sha}-dirty"
        return sha
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_lines() -> int:
    """Line count of ``src/repro/**/*.py`` — the size the ROADMAP tracks."""
    package = Path(__file__).resolve().parents[1]
    return sum(
        len(path.read_text().splitlines()) for path in package.rglob("*.py")
    )


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_cell(
    method: str,
    dataset: str,
    elements: int,
    repeats: int = 3,
    oracle: bool = True,
    seed: int = 0,
) -> dict:
    """Measure one (method, dataset) cell; returns a JSON-ready dict."""
    from repro.api.frames import codec_input
    from repro.compressors import get_compressor
    from repro.data.loader import load

    compressor = get_compressor(method)
    work = np.ascontiguousarray(
        codec_input(compressor, load(dataset, elements, seed))
    )
    shape, dtype = work.shape, work.dtype

    payload = compressor._compress(work)
    compress_s = _best_seconds(lambda: compressor._compress(work), repeats)
    decompress_s = _best_seconds(
        lambda: compressor._decompress(payload, shape, dtype), repeats
    )
    mb = work.nbytes / 1e6
    cell = {
        "method": method,
        "dataset": dataset,
        "elements": int(work.size),
        "dtype": str(dtype),
        "input_bytes": int(work.nbytes),
        "compressed_bytes": len(payload),
        "compression_ratio": work.nbytes / max(len(payload), 1),
        "compress_s": compress_s,
        "decompress_s": decompress_s,
        "compress_mbs": mb / compress_s,
        "decompress_mbs": mb / decompress_s,
    }
    scalar_compress = getattr(compressor, "_compress_scalar", None)
    if oracle and scalar_compress is not None:
        scalar_payload = scalar_compress(work)
        if scalar_payload != payload:
            raise AssertionError(
                f"{method}/{dataset}: vectorized payload does not match "
                "the scalar oracle"
            )
        scalar_s = _best_seconds(
            lambda: scalar_compress(work), min(repeats, 2)
        )
        cell["scalar_compress_s"] = scalar_s
        cell["scalar_compress_mbs"] = mb / scalar_s
        cell["encode_speedup_vs_scalar"] = scalar_s / compress_s
        scalar_decompress = getattr(compressor, "_decompress_scalar", None)
        if scalar_decompress is not None:
            dec_s = _best_seconds(
                lambda: scalar_decompress(payload, shape, dtype),
                min(repeats, 2),
            )
            cell["scalar_decompress_s"] = dec_s
            cell["decode_speedup_vs_scalar"] = dec_s / decompress_s
    return cell


def run_bench(
    methods: Sequence[str] | None = None,
    datasets: Sequence[str] | None = None,
    elements: int = DEFAULT_ELEMENTS,
    repeats: int = 3,
    oracle: bool = True,
    guard: bool = True,
    seed: int = 0,
    on_cell: Callable[[dict], None] | None = None,
) -> dict:
    """Measure the (methods x datasets) matrix plus the guard cells.

    Parameters
    ----------
    methods, datasets:
        The matrix (default: :data:`DEFAULT_METHODS` x
        :data:`DEFAULT_DATASETS`).
    elements:
        Elements per cell.
    repeats:
        Timing repetitions; the best run wins.
    oracle:
        Also time the scalar-oracle baselines.
    guard:
        Also measure the small regression-guard cells.
    seed:
        Data generator seed.
    on_cell:
        ``on_cell(cell)`` after each measured cell.
    """
    methods = list(methods or DEFAULT_METHODS)
    datasets = list(datasets or DEFAULT_DATASETS)
    report = {
        "schema": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source_lines": source_lines(),
        "elements": elements,
        "repeats": repeats,
        "cells": [],
        "guard": [],
    }
    for dataset in datasets:
        for method in methods:
            cell = bench_cell(
                method, dataset, elements, repeats, oracle, seed
            )
            report["cells"].append(cell)
            if on_cell is not None:
                on_cell(cell)
    if guard:
        # Guard cells always carry the scalar-oracle baseline: the
        # regression guard compares speedup *ratios*, which cancel out
        # machine speed and load, not absolute MB/s.
        for method in GUARD_METHODS:
            cell = bench_cell(
                method, GUARD_DATASET, GUARD_ELEMENTS, repeats, True, seed
            )
            report["guard"].append(cell)
            if on_cell is not None:
                on_cell(cell)
    return report


def write_report(report: dict, root: Path | None = None) -> Path:
    """Write ``BENCH_<sha>.json`` at the repo root; returns the path."""
    root = Path(root) if root is not None else repo_root()
    path = root / f"{BENCH_PREFIX}{report.get('git_sha', 'unknown')}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def find_snapshots(root: Path | None = None) -> list[Path]:
    """All ``BENCH_*.json`` files, oldest first by recorded timestamp."""
    root = Path(root) if root is not None else repo_root()
    stamped = []
    for path in root.glob(f"{BENCH_PREFIX}*.json"):
        try:
            created = json.loads(path.read_text()).get("created", "")
        except (OSError, json.JSONDecodeError):
            continue
        stamped.append((created, path))
    return [path for _, path in sorted(stamped)]


def latest_snapshot(
    root: Path | None = None, exclude: Path | None = None
) -> Path | None:
    """Most recent snapshot, optionally skipping the one just written."""
    snaps = [
        path
        for path in find_snapshots(root)
        if exclude is None or path.resolve() != Path(exclude).resolve()
    ]
    return snaps[-1] if snaps else None


def diff_reports(old: dict, new: dict) -> str:
    """Human-readable per-cell throughput comparison of two reports."""
    from repro.core.report import format_table

    old_cells = {
        (c["method"], c["dataset"], c["elements"]): c
        for c in old.get("cells", [])
    }
    rows = []
    for cell in new.get("cells", []):
        key = (cell["method"], cell["dataset"], cell["elements"])
        prev = old_cells.get(key)
        if prev is None:
            enc = dec = "new"
        else:
            enc = f"{cell['compress_mbs'] / prev['compress_mbs']:.2f}x"
            dec = f"{cell['decompress_mbs'] / prev['decompress_mbs']:.2f}x"
        rows.append(
            [
                cell["method"],
                cell["dataset"],
                f"{cell['compress_mbs']:.1f}",
                f"{cell['decompress_mbs']:.1f}",
                enc,
                dec,
            ]
        )
    title = (
        f"vs {old.get('git_sha', '?')} ({old.get('created', '?')}): "
        "encode/decode MB/s and change"
    )
    table = format_table(
        ["method", "dataset", "enc MB/s", "dec MB/s", "enc Δ", "dec Δ"],
        rows,
    )
    return f"{title}\n{table}"
