"""Suite cells over the parallel fan-out (repro.parallel + execute_cell)."""

from __future__ import annotations

import pytest

from repro.core.runner import BenchmarkRunner
from repro.core.suite import run_suite
from repro.parallel import resolve_jobs

_METHODS = ("gorilla", "chimp")
_DATASETS = ("citytemp", "gas-price")
_CELLS = [(dataset, method) for dataset in _DATASETS for method in _METHODS]


def _run(methods=_METHODS, datasets=_DATASETS, **kwargs):
    """A private run: no store, so every cell really executes."""
    return run_suite(
        methods=list(methods),
        datasets=list(datasets),
        target_elements=512,
        use_cache=False,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("FCBENCH_JOBS", raising=False)
    assert resolve_jobs() == 1


def test_resolve_jobs_env_override(monkeypatch):
    monkeypatch.setenv("FCBENCH_JOBS", "4")
    assert resolve_jobs() == 4
    # Explicit argument beats the environment.
    assert resolve_jobs(2) == 2


def test_resolve_jobs_clamps_and_tolerates_garbage(monkeypatch):
    assert resolve_jobs(-3) == 1
    monkeypatch.setenv("FCBENCH_JOBS", "not-a-number")
    assert resolve_jobs() == 1


def test_resolve_jobs_zero_auto_detects_cpu_count(monkeypatch):
    import os

    expected = os.cpu_count() or 1
    assert resolve_jobs(0) == expected
    monkeypatch.setenv("FCBENCH_JOBS", "0")
    assert resolve_jobs() == expected
    # cpu_count() can legitimately return None; auto still yields >= 1.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs(0) == 1


# ----------------------------------------------------------------------
# Serial vs parallel equivalence
# ----------------------------------------------------------------------
def test_serial_and_parallel_results_identical():
    serial = _run(jobs=1)
    parallel = _run(jobs=2)
    assert len(serial) == len(parallel) == len(_CELLS)
    # Dataset-major order is preserved regardless of completion order...
    assert [(m.dataset, m.method) for m in serial.measurements] == _CELLS
    assert [(m.dataset, m.method) for m in parallel.measurements] == _CELLS
    # ...and every deterministic field matches bit-for-bit.
    assert serial.canonical() == parallel.canonical()
    assert serial.fingerprint() == parallel.fingerprint()


def test_run_suite_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    kwargs = dict(
        methods=["gorilla", "chimp"],
        datasets=["citytemp", "gas-price"],
        target_elements=512,
        use_cache=False,
    )
    serial = run_suite(jobs=1, **kwargs)
    parallel = run_suite(jobs=2, **kwargs)
    assert serial.fingerprint() == parallel.fingerprint()


# ----------------------------------------------------------------------
# Progress callbacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_fires_per_cell(jobs):
    seen: list[tuple[str, str]] = []

    def on_cell(key, measurement, elapsed):
        assert measurement.ok
        assert elapsed >= 0.0
        seen.append((key.dataset, key.codec))

    _run(jobs=jobs, on_cell=on_cell)
    assert sorted(seen) == sorted(_CELLS)


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_one_failing_cell_does_not_kill_the_suite(jobs, monkeypatch):
    """A non-Repro exception in one cell fails that cell only.

    The pool forks after the patch, so workers inherit it.
    """
    real = BenchmarkRunner.run_cell

    def explode(self, method, array, spec):
        if (method, spec.name) == ("chimp", "citytemp"):
            raise RuntimeError("injected worker failure")
        return real(self, method, array, spec)

    monkeypatch.setattr(BenchmarkRunner, "run_cell", explode)
    results = _run(jobs=jobs)
    assert len(results) == len(_CELLS)
    failed = results.cell("chimp", "citytemp")
    assert failed is not None and not failed.ok
    assert "RuntimeError" in failed.error
    assert "injected worker failure" in failed.error
    others = [m for m in results.measurements if m is not failed]
    assert len(others) == 3 and all(m.ok for m in others)


def test_unknown_dataset_becomes_failed_measurement():
    [m] = _run(["gorilla"], ["no-such-dataset"], jobs=1).measurements
    assert not m.ok and m.transient
    assert "DatasetError" in m.error


def test_unknown_method_becomes_failed_measurement():
    [m] = _run(["no-such-method"], ["citytemp"], jobs=1).measurements
    assert not m.ok and m.transient
    assert m.error.startswith("UnknownCodecError: unknown compressor")
