"""Tests for suite orchestration over the result store."""

from repro.core.suite import (
    default_datasets,
    default_methods,
    open_store,
    run_suite,
    run_suite_detailed,
)


def _stored(codec=None) -> int:
    with open_store() as store:
        return len(store.cells(status="done", codec=codec))


def test_default_methods_are_table_order():
    methods = default_methods()
    assert methods[0] == "pfpc"
    assert methods[-1] == "ndzip-gpu"
    assert "dzip" not in methods


def test_default_datasets_all_33():
    assert len(default_datasets()) == 33


def test_mini_suite_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    results = run_suite(
        methods=["chimp", "gorilla"],
        datasets=["citytemp", "gas-price"],
        target_elements=1024,
    )
    assert len(results) == 4
    assert all(m.ok for m in results.measurements)
    # One row per cell, under the whole-array keyfields.
    assert _stored() == 4
    assert _stored("chimp") == 2
    with open_store() as store:
        assert {
            (c.key.chunk_elements, c.key.jobs, c.key.policy, c.source)
            for c in store.cells()
        } == {(0, 1, "fixed", "suite")}
    # Second call must be served entirely from the store, bit-identical.
    rerun = run_suite_detailed(
        methods=["chimp", "gorilla"],
        datasets=["citytemp", "gas-price"],
        target_elements=1024,
    )
    assert (rerun.cache_stats.hits, rerun.cache_stats.misses) == (4, 0)
    assert [m.compression_ratio for m in rerun.results.measurements] == [
        m.compression_ratio for m in results.measurements
    ]
    assert rerun.results.fingerprint() == results.fingerprint()


def test_cache_key_depends_on_scale(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    run_suite(methods=["gorilla"], datasets=["citytemp"], target_elements=512)
    run_suite(methods=["gorilla"], datasets=["citytemp"], target_elements=1024)
    assert _stored("gorilla") == 2


def test_cache_key_depends_on_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    run_suite(methods=["gorilla"], datasets=["citytemp"], target_elements=512)
    run_suite(methods=["gorilla"], datasets=["citytemp"], target_elements=512, seed=7)
    assert _stored("gorilla") == 2


def test_results_keep_dataset_major_order(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    results = run_suite(
        methods=["chimp", "gorilla"],
        datasets=["citytemp", "gas-price"],
        target_elements=512,
    )
    assert [(m.dataset, m.method) for m in results.measurements] == [
        ("citytemp", "chimp"),
        ("citytemp", "gorilla"),
        ("gas-price", "chimp"),
        ("gas-price", "gorilla"),
    ]


def test_on_cell_reports_cached_and_fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    seen: list[tuple[str, str]] = []
    run_suite(
        methods=["gorilla"],
        datasets=["citytemp"],
        target_elements=512,
        on_cell=lambda key, m, elapsed: seen.append((key.codec, key.dataset)),
    )
    run_suite(
        methods=["gorilla"],
        datasets=["citytemp"],
        target_elements=512,
        on_cell=lambda key, m, elapsed: seen.append((key.codec, key.dataset)),
    )
    # The callback fires for the executed cell and again for the cache hit.
    assert seen == [("gorilla", "citytemp")] * 2
