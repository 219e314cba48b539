"""Grid expansion, cell execution, and the in-process worker loop."""

import hashlib
import json

import numpy as np
import pytest

from repro.data.catalog import ExternalCorpus
from repro.errors import ExperimentError
from repro.expdb.store import CellKey, ExperimentStore
from repro.expdb.sweep import (
    GridSpec,
    execute_cell,
    expand_grid,
    init_grid,
    validate_grid,
    worker_loop,
)

SMALL = GridSpec(
    codecs=("gorilla", "chimp"),
    datasets=("citytemp", "msg-bt"),
    chunk_elements=(512,),
    target_elements=1024,
)


@pytest.fixture()
def db(tmp_path):
    return tmp_path / "exp.sqlite"


# ----------------------------------------------------------------------
# Grid expansion / init
# ----------------------------------------------------------------------
def test_expand_grid_is_full_cross_product():
    keys = expand_grid(SMALL)
    assert len(keys) == 4
    assert len(set(keys)) == 4
    assert {k.codec for k in keys} == {"gorilla", "chimp"}


def test_expand_grid_fans_auto_per_policy():
    grid = GridSpec(
        codecs=("gorilla", "auto"),
        datasets=("citytemp",),
        chunk_elements=(512,),
        policies=("heuristic", "measured"),
    )
    keys = expand_grid(grid)
    labels = sorted(k.method_label for k in keys)
    assert labels == ["auto/heuristic", "auto/measured", "gorilla"]
    # Fixed codecs never multiply across policies.
    assert [k.policy for k in keys if k.codec == "gorilla"] == ["fixed"]


def test_validate_grid_rejects_unknowns():
    with pytest.raises(ExperimentError, match="unknown codec"):
        validate_grid(GridSpec(codecs=("middle-out",)))
    with pytest.raises(ExperimentError, match="unknown dataset"):
        validate_grid(GridSpec(datasets=("atlantis",)))
    with pytest.raises(ExperimentError, match="auto"):
        validate_grid(GridSpec(codecs=("auto",), chunk_elements=(0,)))


def test_init_grid_is_idempotent(db):
    with ExperimentStore(db) as store:
        first = init_grid(store, SMALL)
        second = init_grid(store, SMALL)
        assert first.added == 4
        assert second.added == 0
        assert store.counts()["pending"] == 4
        assert store.get_meta("grid")["codecs"] == ["gorilla", "chimp"]


def test_init_grid_widening_adds_only_new_cells(db):
    import dataclasses

    with ExperimentStore(db) as store:
        init_grid(store, SMALL)
        wider = dataclasses.replace(
            SMALL, codecs=("gorilla", "chimp", "spdp")
        )
        summary = init_grid(store, wider)
        assert summary.added == 2  # one new codec x two datasets
        assert store.counts()["total"] == 6


def test_init_grid_never_resets_finished_work(db):
    from repro.expdb.claim import claim_next

    with ExperimentStore(db) as store:
        init_grid(store, SMALL)
        cell = claim_next(store, "w")
        store.write_result(cell.id, "w", "done", {"ratio": 2.0})
        init_grid(store, SMALL)
        assert store.cell_by_id(cell.id).status == "done"


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _key(**overrides) -> CellKey:
    base = dict(
        codec="gorilla",
        dataset="citytemp",
        chunk_elements=512,
        jobs=1,
        policy="fixed",
        seed=0,
        target_elements=1024,
    )
    base.update(overrides)
    return CellKey(**base)


def test_execute_stream_cell_done():
    status, fields, error, events = execute_cell(_key())
    assert status == "done", error
    assert fields["ratio"] > 0
    assert fields["input_bytes"] == 1024 * 4  # citytemp is float32
    assert fields["compressed_bytes"] > 0
    assert fields["encode_mbs"] > 0
    assert fields["decode_mbs"] > 0
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "encoded"
    assert kinds.count("chunk") == 2  # 1024 elements / 512 per chunk


def test_execute_stream_cell_deterministic_sizes():
    a = execute_cell(_key())[1]
    b = execute_cell(_key())[1]
    assert a["compressed_bytes"] == b["compressed_bytes"]
    assert a["ratio"] == b["ratio"]


def test_execute_legacy_cell_matches_runner():
    from repro.core.runner import BenchmarkRunner
    from repro.data.catalog import get_spec
    from repro.data.loader import load

    key = _key(chunk_elements=0)
    status, fields, error, _ = execute_cell(key)
    assert status == "done", error
    reference = BenchmarkRunner().run_cell(
        "gorilla", load("citytemp", 1024, 0), get_spec("citytemp")
    )
    assert fields["ratio"] == reference.compression_ratio
    assert fields["input_bytes"] == reference.input_bytes
    assert fields["compressed_bytes"] == reference.compressed_bytes


def test_execute_auto_cell_selects_per_chunk():
    status, fields, _, events = execute_cell(
        _key(codec="auto", policy="heuristic")
    )
    assert status == "done"
    encoded = events[0]["payload"]
    assert sum(encoded["codec_frames"].values()) == encoded["chunks"]


def test_execute_cell_honest_failure_for_paper_limit_skip():
    # GFC rejects paper-scale inputs over its 512 MB limit (the paper's
    # "-" cell on astro-mhd); the legacy protocol records that as a
    # failed cell with the typed error, never an exception.
    status, fields, error, _ = execute_cell(
        _key(codec="gfc", dataset="astro-mhd", chunk_elements=0)
    )
    assert status == "failed"
    # No resultfields, only the provenance that lets `fcbench run` serve
    # this deterministic verdict as a hit.
    assert set(fields) == {"fingerprint", "measurement"}
    assert "limit" in error


def test_execute_cell_auto_requires_chunks():
    status, _, error, _ = execute_cell(_key(codec="auto", chunk_elements=0))
    assert status == "failed"
    assert "auto" in error


def test_execute_cell_unknown_dataset_fails():
    status, _, error, _ = execute_cell(_key(dataset="atlantis"))
    assert status == "failed"
    assert error


def test_sweep_and_suite_rows_carry_the_same_measurement(tmp_path, monkeypatch):
    from repro.core.suite import open_store, run_suite

    def stored_measurement(root):
        with open_store(root) as store:
            [row] = store.cells()
        assert row.status == "done" and row.fingerprint
        measurement = json.loads(row.measurement)
        for name in ("measured_compress_s", "measured_decompress_s"):
            assert measurement.pop(name) > 0
        return row.fingerprint, measurement

    swept, suite = tmp_path / "swept", tmp_path / "suite"
    with open_store(swept) as store:
        init_grid(
            store,
            GridSpec(
                codecs=("gorilla",), datasets=("citytemp",),
                chunk_elements=(0,), target_elements=1024,
            ),
        )
    assert worker_loop(swept / "results.sqlite")["done"] == 1
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(suite))
    run_suite(methods=["gorilla"], datasets=["citytemp"], target_elements=1024)
    assert stored_measurement(swept) == stored_measurement(suite)


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
def test_worker_loop_drains_grid(db):
    with ExperimentStore(db) as store:
        init_grid(store, SMALL)
    summary = worker_loop(db)
    assert summary["executed"] == 4
    assert summary["done"] == 4
    assert summary["lost_claims"] == 0
    with ExperimentStore(db) as store:
        counts = store.counts()
        assert counts["done"] == 4
        assert counts["pending"] == 0
        # Exactly-once audit: one "done" event per cell, one attempt.
        for cell in store.cells():
            assert cell.attempts == 1
            assert len(store.events(cell.id, kind="done")) == 1


def test_worker_loop_respects_max_cells(db):
    with ExperimentStore(db) as store:
        init_grid(store, SMALL)
    summary = worker_loop(db, max_cells=1)
    assert summary["executed"] == 1
    with ExperimentStore(db) as store:
        assert store.counts()["pending"] == 3


def test_worker_loop_resumes_after_interruption(db):
    with ExperimentStore(db) as store:
        init_grid(store, SMALL)
    worker_loop(db, max_cells=2)
    summary = worker_loop(db)
    assert summary["executed"] == 2
    with ExperimentStore(db) as store:
        assert store.counts()["done"] == 4


# ----------------------------------------------------------------------
# External corpus integration
# ----------------------------------------------------------------------
@pytest.fixture()
def corpus(tmp_path):
    arr = np.sin(np.linspace(0.0, 20.0, 2000)).astype(np.float64)
    blob = arr.tobytes()
    (tmp_path / "buoy.bin").write_bytes(blob)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "version": 1,
                "datasets": [
                    {
                        "name": "buoy",
                        "domain": "OBS",
                        "dtype": "f64",
                        "url": "https://example.org/buoy.bin",
                        "sha256": hashlib.sha256(blob).hexdigest(),
                    },
                    {
                        "name": "glacier",
                        "domain": "HPC",
                        "dtype": "f64",
                        "url": "https://example.org/glacier.bin",
                        "sha256": "0" * 64,
                    },
                ],
            }
        )
    )
    return manifest


def test_init_grid_marks_offline_corpus_cells_skipped(db, corpus):
    grid = GridSpec(
        codecs=("gorilla",),
        datasets=("citytemp", "buoy", "glacier"),
        chunk_elements=(512,),
        target_elements=1024,
    )
    ext = ExternalCorpus.from_manifest(corpus)
    with ExperimentStore(db) as store:
        summary = init_grid(store, grid, ext, manifest_path=corpus)
        assert summary.offline_datasets == ["glacier"]
        counts = store.counts()
        assert counts["pending"] == 2  # citytemp + buoy
        assert counts["skipped"] == 1  # glacier (offline, not failed)
        assert store.get_meta("corpus_manifest") == str(corpus.resolve())


def test_offline_cells_revive_when_file_appears(db, corpus):
    grid = GridSpec(
        codecs=("gorilla",),
        datasets=("glacier",),
        chunk_elements=(512,),
        target_elements=1024,
    )
    ext = ExternalCorpus.from_manifest(corpus)
    with ExperimentStore(db) as store:
        init_grid(store, grid, ext, manifest_path=corpus)
        assert store.counts()["skipped"] == 1

        # The file arrives (with the right hash) and init revives cells.
        arr = np.cos(np.linspace(0.0, 5.0, 700))
        blob = arr.tobytes()
        (corpus.parent / "glacier.bin").write_bytes(blob)
        payload = json.loads(corpus.read_text())
        payload["datasets"][1]["sha256"] = hashlib.sha256(blob).hexdigest()
        corpus.write_text(json.dumps(payload))

        summary = init_grid(
            store, grid, ExternalCorpus.from_manifest(corpus), corpus
        )
        assert summary.revived == 1
        assert store.counts()["pending"] == 1
    summary = worker_loop(db)
    assert summary["done"] == 1


def test_worker_loop_executes_corpus_cells_through_manifest_meta(db, corpus):
    grid = GridSpec(
        codecs=("gorilla", "chimp"),
        datasets=("buoy",),
        chunk_elements=(512,),
        target_elements=1024,
    )
    ext = ExternalCorpus.from_manifest(corpus)
    with ExperimentStore(db) as store:
        init_grid(store, grid, ext, manifest_path=corpus)
    # worker_loop opens its own corpus from the stored manifest path.
    summary = worker_loop(db)
    assert summary["done"] == 2
    with ExperimentStore(db) as store:
        for cell in store.cells(status="done"):
            assert cell.domain == "OBS"
            # target_elements truncation: 1024 of the 2000 on disk.
            assert cell.input_bytes == 1024 * 8


def test_an_nd_corpus_file_is_capped_by_elements_in_whole_rows(tmp_path):
    npy = tmp_path / "field.npy"
    np.save(npy, np.cumsum(np.ones((1000, 3)), axis=0))
    blob = npy.read_bytes()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "version": 1,
                "datasets": [
                    {
                        "name": "field",
                        "domain": "HPC",
                        "dtype": "f64",
                        "url": "https://example.org/field.npy",
                        "sha256": hashlib.sha256(blob).hexdigest(),
                        "filename": "field.npy",
                    }
                ],
            }
        )
    )
    key = _key(dataset="field", chunk_elements=256, target_elements=512)
    status, fields, error, _ = execute_cell(
        key, ExternalCorpus.from_manifest(manifest)
    )
    assert status == "done", error
    # 170 whole rows of 3: the 512-element budget, never 512 rows.
    assert fields["input_bytes"] == 170 * 3 * 8
