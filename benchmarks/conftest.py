"""Shared fixtures for the table/figure regeneration benchmarks.

The full 14-method x 33-dataset suite is executed once; every benchmark
consumes the same matrix, regenerates its table or figure, asserts the
paper's qualitative claims, and writes the rendered text to
benchmarks/output/.

Suite execution goes through repro.core.suite, which keeps each
(method, dataset) cell as one row of .fcbench_cache/results.sqlite — so
a compressor edit re-runs only that method's column here — and fans
cold cells out over a process pool when FCBENCH_JOBS (or jobs=) asks
for parallelism.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.suite import run_suite

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def suite_results():
    return run_suite()


@pytest.fixture(scope="session")
def emit():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (drivers that re-compress are slow)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              iterations=1, rounds=1)
