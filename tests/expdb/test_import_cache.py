"""Suite cells land in the experiment database — with no import step.

``fcbench sweep import-cache`` used to copy ``fcbench run``'s per-cell
JSON cache into the database; these tests pinned what that bridge
guaranteed (rows under the whole-array keyfields, idempotence, rows
equal to the measurements, equal to a fresh sweep execution).  The
bridge is gone because the two sides are now one store,
``$FCBENCH_CACHE_DIR/results.sqlite``: a suite run *is* the import.  The
same guarantees are pinned here on that store, plus the new ones — a
sweep and a suite run of the same keyfields serve each other's hits, and
``fcbench report --db`` renders whichever of them measured the cells.
"""

import json
import math

import pytest

from repro.cli import main
from repro.core.suite import open_store, run_suite_detailed
from repro.expdb.store import CellKey
from repro.expdb.sweep import GridSpec, execute_cell, init_grid, run_sweep

_KW = dict(
    methods=["gorilla", "chimp"],
    datasets=["citytemp", "gas-price"],
    target_elements=1024,
)


def _whole_array_grid(codecs, datasets, target_elements=1024) -> GridSpec:
    return GridSpec(
        codecs=codecs,
        datasets=datasets,
        chunk_elements=(0,),
        target_elements=target_elements,
    )


_GRID = _whole_array_grid(("gorilla", "chimp"), ("citytemp", "gas-price"))


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(root))
    return root


def test_import_counts_and_rows():
    run = run_suite_detailed(**_KW)
    with open_store() as store:
        cells = store.cells()
        assert store.counts()["done"] == len(run.results) == len(cells) == 4
    for cell in cells:
        assert cell.source == "suite"
        assert cell.finished_at is not None
        assert (cell.key.chunk_elements, cell.key.jobs, cell.key.policy) == (
            0, 1, "fixed",
        )


def test_import_is_idempotent():
    run_suite_detailed(**_KW)
    with open_store() as store:
        before = [(c.id, c.finished_at) for c in store.cells()]
    warm = run_suite_detailed(**_KW)
    assert warm.cache_stats.stores == 0
    with open_store() as store:
        assert [(c.id, c.finished_at) for c in store.cells()] == before


def test_imported_rows_match_measurements():
    run = run_suite_detailed(**_KW)
    with open_store() as store:
        for m in run.results.measurements:
            cell = store.find_cell(
                CellKey(m.method, m.dataset, 0, 1, "fixed", 0, 1024)
            )
            assert cell.ratio == m.compression_ratio
            assert cell.input_bytes == m.input_bytes
            assert cell.compressed_bytes == m.compressed_bytes
            assert cell.domain == m.domain
            assert math.isclose(
                cell.encode_mbs, m.input_bytes / m.measured_compress_s / 1e6
            )
            assert json.loads(cell.measurement)["compress_gbs"] == m.compress_gbs


def test_round_trip_matches_fresh_run():
    """A stored suite cell == a sweep execution of the same keyfields."""
    run_suite_detailed(**_KW)
    with open_store() as store:
        cells = store.cells()
    for cell in cells:
        status, fields, error, _ = execute_cell(cell.key)
        assert status == cell.status, error
        assert fields["ratio"] == cell.ratio
        assert fields["input_bytes"] == cell.input_bytes
        assert fields["compressed_bytes"] == cell.compressed_bytes
        assert fields["fingerprint"] == cell.fingerprint


def test_sweep_then_suite_is_all_hits(cache_root):
    cache_root.mkdir()
    db = cache_root / "results.sqlite"
    with open_store() as store:
        init_grid(store, _GRID)
    assert run_sweep(db)["counts"]["done"] == 4
    warm = run_suite_detailed(**_KW)
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (4, 0)
    assert warm.cache_stats.stores == 0
    # Identical deterministic fields to measuring the cells directly.
    fresh = run_suite_detailed(use_cache=False, **_KW)
    assert warm.results.fingerprint() == fresh.results.fingerprint()
    with open_store() as store:
        assert {c.source for c in store.cells()} == {"sweep"}


def test_suite_then_sweep_has_nothing_left_to_run(cache_root):
    run_suite_detailed(**_KW)
    with open_store() as store:
        summary = init_grid(store, _GRID)
        assert summary.added == 0
        assert store.counts()["pending"] == 0


def test_sweep_stores_deterministic_failures_for_the_suite(cache_root):
    cache_root.mkdir()
    with open_store() as store:
        init_grid(store, _whole_array_grid(("gfc",), ("nyc-taxi",), 512))
    assert run_sweep(cache_root / "results.sqlite")["counts"]["failed"] == 1
    warm = run_suite_detailed(
        methods=["gfc"], datasets=["nyc-taxi"], target_elements=512
    )
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (1, 0)
    assert "exceeds" in warm.results.measurements[0].error


def test_suite_overwrites_a_pending_sweep_row(cache_root):
    cache_root.mkdir()
    with open_store() as store:
        init_grid(store, _whole_array_grid(("gorilla",), ("citytemp",)))
    run = run_suite_detailed(
        methods=["gorilla"], datasets=["citytemp"], target_elements=1024
    )
    assert (run.cache_stats.misses, run.cache_stats.stores) == (1, 1)
    with open_store() as store:
        [cell] = store.cells()
    assert (cell.status, cell.source) == ("done", "suite")


def test_run_then_report_db_cli(cache_root, capsys):
    args = [
        "run", "--quiet", "--methods", "gorilla,chimp",
        "--datasets", "citytemp,gas-price", "--target-elements", "1024",
    ]
    assert main(args) == 0
    assert "0 hits / 4 misses" in capsys.readouterr().out
    assert main(args) == 0
    assert "4 hits / 0 misses" in capsys.readouterr().out

    db = str(cache_root / "results.sqlite")
    assert main(["report", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "Friedman (2 methods x 2 datasets)" in out
    assert "CD = " in out

    assert main(["report", "--db", db, "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["done"] == 4
    assert report["stats"]["available"]
    assert report["stats"]["nemenyi"]["critical_difference"] > 0

    # The same store is what `fcbench cache` counts: four fresh cells.
    assert main(["cache"]) == 0
    assert "cells: 4 (0 stale, " in capsys.readouterr().out
