"""Per-cell hits, misses and staleness of suite runs over the result store."""

from __future__ import annotations

import pytest

from repro.core import runner as runner_mod
from repro.core.runner import BenchmarkRunner
from repro.core.suite import open_store, run_suite_detailed, stored_cells

_KW = dict(
    methods=["gorilla", "chimp"],
    datasets=["citytemp", "gas-price"],
    target_elements=512,
)
_ONE = dict(methods=["gorilla"], datasets=["citytemp"], target_elements=512)


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    return tmp_path


def _touch(monkeypatch, method: str) -> None:
    """Simulate an edit to ``<method>.py``: its source fingerprint changes."""
    real = runner_mod.method_fingerprint
    monkeypatch.setattr(
        runner_mod,
        "method_fingerprint",
        lambda name: "deadbeefdeadbeef" if name == method else real(name),
    )


def _scan() -> list[tuple[str, bool]]:
    """``(method, stale)`` per stored cell."""
    with open_store() as store:
        return [(row.key.codec, m is None) for row, m in stored_cells(store)]


def test_hit_miss_accounting(cache_root):
    cold = run_suite_detailed(**_KW)
    assert (cold.cache_stats.hits, cold.cache_stats.misses) == (0, 4)
    assert cold.cache_stats.stores == 4
    warm = run_suite_detailed(**_KW)
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (4, 0)
    assert warm.cache_stats.stores == 0
    assert warm.cache_stats.hit_rate == 1.0
    assert warm.results.fingerprint() == cold.results.fingerprint()
    # One store: a sqlite file, no per-cell JSON tree beside it.
    assert sorted(p.name for p in cache_root.iterdir()) == ["results.sqlite"]


def test_editing_one_compressor_reruns_only_its_column(monkeypatch):
    run_suite_detailed(**_KW)
    _touch(monkeypatch, "gorilla")
    assert sorted(_scan()) == [
        ("chimp", False), ("chimp", False), ("gorilla", True), ("gorilla", True),
    ]
    rerun = run_suite_detailed(**_KW)
    # Chimp's two cells hit; only gorilla's column re-executed...
    assert (rerun.cache_stats.hits, rerun.cache_stats.misses) == (2, 2)
    # ...and overwrote its stale rows instead of adding new ones.
    assert sorted(_scan()) == [
        ("chimp", False), ("chimp", False), ("gorilla", False), ("gorilla", False),
    ]


def test_bumping_cache_version_reruns_everything(monkeypatch):
    run_suite_detailed(**_KW)
    monkeypatch.setattr(runner_mod, "CACHE_VERSION", "v-next")
    assert all(stale for _, stale in _scan())
    rerun = run_suite_detailed(**_KW)
    assert (rerun.cache_stats.hits, rerun.cache_stats.misses) == (0, 4)
    assert not any(stale for _, stale in _scan())


def test_transient_failures_are_never_cached(monkeypatch):
    def crash(self, method, array, spec):
        raise MemoryError("injected")

    with monkeypatch.context() as patched:
        patched.setattr(BenchmarkRunner, "run_cell", crash)
        run = run_suite_detailed(**_ONE)
    assert run.results.measurements[0].error == "MemoryError: injected"
    assert not run.results.measurements[0].ok
    # The crash-synthesized failure must not be persisted...
    assert run.cache_stats.stores == 0
    assert _scan() == []
    # ...so a healthy rerun is a miss that re-executes and stores.
    healthy = run_suite_detailed(**_ONE)
    assert healthy.cache_stats.misses == 1
    assert healthy.results.measurements[0].ok


def test_interrupted_run_keeps_what_it_measured():
    kw = dict(_KW, datasets=["citytemp", "gas-price", "nyc-taxi"])
    seen = []

    def interrupt_after_three(key, measurement, elapsed):
        seen.append(key)
        if len(seen) == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_suite_detailed(on_cell=interrupt_after_three, **kw)
    # Each cell was stored as it finished, so the re-run resumes.
    resumed = run_suite_detailed(**kw)
    assert (resumed.cache_stats.hits, resumed.cache_stats.misses) == (3, 3)
    assert resumed.cache_stats.stores == 3


def test_deterministic_failures_are_stored_and_served():
    # GFC's paper-scale size skip is a policy verdict, not a crash.
    kw = dict(methods=["gfc"], datasets=["nyc-taxi"], target_elements=512)
    cold = run_suite_detailed(**kw)
    assert not cold.results.measurements[0].ok
    assert cold.cache_stats.stores == 1
    warm = run_suite_detailed(**kw)
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (1, 0)
    assert warm.results.fingerprint() == cold.results.fingerprint()
    with open_store() as store:
        [row] = store.cells()
    assert row.status == "failed" and row.ratio is None


def test_runner_fingerprint_distinguishes_policies():
    base = BenchmarkRunner().cell_fingerprint("gorilla")
    assert BenchmarkRunner(verify=False).cell_fingerprint("gorilla") != base
    assert BenchmarkRunner(paper_limits=False).cell_fingerprint("gorilla") != base
    assert BenchmarkRunner().cell_fingerprint("chimp") != base
    # Stable for equivalent configurations.
    assert BenchmarkRunner().cell_fingerprint("gorilla") == base


def test_custom_runner_does_not_touch_cache(cache_root):
    run = run_suite_detailed(runner=BenchmarkRunner(verify=False), **_KW)
    assert run.cache_stats.lookups == 0
    assert run.cache_stats.stores == 0
    assert list(cache_root.iterdir()) == []


def test_parallel_run_equals_serial():
    serial = run_suite_detailed(jobs=1, **_KW)
    parallel = run_suite_detailed(jobs=2, use_cache=False, **_KW)
    assert parallel.results.fingerprint() == serial.results.fingerprint()
    # The parallel run's rows would have served the serial run's hits.
    warm = run_suite_detailed(jobs=2, **_KW)
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (4, 0)


def _row(codec: str, dataset: str, **columns) -> dict:
    key = dict(
        codec=codec, dataset=dataset, chunk_elements=0, jobs=1,
        policy="fixed", seed=0, target_elements=512,
    )
    return {**key, **columns}


def _write_legacy_row(store, dataset: str = "nyc-taxi") -> None:
    """A finished whole-array row as a schema-version-1 sweep left it."""
    assert store.insert_cells([_row("gorilla", dataset, status="done", ratio=1.5)])


def test_scan_classifies_stale_and_legacy(monkeypatch):
    run_suite_detailed(
        methods=["chimp", "gorilla"], datasets=["citytemp"], target_elements=512
    )
    with open_store() as store:
        _write_legacy_row(store)
        # Never judged, never served: a stream cell (outside the suite's
        # keyspace) and a whole-array cell that has not finished.
        store.insert_cells(
            [
                _row("chimp", "citytemp", chunk_elements=1024, status="done"),
                _row("chimp", "gas-price"),
            ]
        )
    _touch(monkeypatch, "chimp")
    assert sorted(_scan()) == [
        ("chimp", True),  # fingerprint moved on
        ("gorilla", False),  # fresh
        ("gorilla", True),  # legacy: finished, but carries no provenance
    ]


def test_clear_stale_keeps_current_entries(monkeypatch, capsys):
    from repro.cli import main

    run_suite_detailed(**_KW)
    with open_store() as store:
        _write_legacy_row(store)
    _touch(monkeypatch, "chimp")
    assert main(["cache", "clear", "--stale"]) == 0
    assert "cleared (stale): 3 cell(s), 2 kept" in capsys.readouterr().out
    assert _scan() == [("gorilla", False), ("gorilla", False)]
    # The fresh cells survived and still serve hits.
    warm = run_suite_detailed(**_KW)
    assert (warm.cache_stats.hits, warm.cache_stats.misses) == (2, 2)


def test_clear_all_removes_everything(capsys):
    from repro.cli import main

    run_suite_detailed(**_KW)
    with open_store() as store:
        assert store.get_meta("last_run") is not None
    assert main(["cache", "clear"]) == 0
    assert "cleared (all): 4 cell(s), 0 kept" in capsys.readouterr().out
    with open_store() as store:
        assert store.counts()["total"] == 0
        assert store.get_meta("last_run") is None
    cold = run_suite_detailed(**_KW)
    assert (cold.cache_stats.hits, cold.cache_stats.misses) == (0, 4)


def test_corrupt_cell_file_is_a_miss_and_stale():
    """A measurement column that no longer parses cannot serve a hit."""
    run_suite_detailed(**_ONE)
    for garbage in ("{not json", "[]", '{"method": "gorilla"}', None):
        with open_store() as store:
            store.conn.execute("UPDATE cells SET measurement = ?", (garbage,))
        assert _scan() == [("gorilla", True)]
        rerun = run_suite_detailed(**_ONE)
        assert (rerun.cache_stats.hits, rerun.cache_stats.misses) == (0, 1)
        # The miss re-executed and overwrote the corrupt row with a good one.
        assert _scan() == [("gorilla", False)]


def test_unregistered_method_rows_are_stale():
    run_suite_detailed(**_ONE)
    with open_store() as store:
        store.conn.execute("UPDATE cells SET codec = 'retired-codec'")
    assert _scan() == [("retired-codec", True)]


def test_last_run_counters_persisted():
    run_suite_detailed(**_KW)
    with open_store() as store:
        last = store.get_meta("last_run")
    assert last["misses"] == 4 and last["cells"] == 4 and last["stores"] == 4
    run_suite_detailed(**_KW)
    with open_store() as store:
        last = store.get_meta("last_run")
    assert last["hits"] == 4 and last["misses"] == 0


def test_a_requeued_row_is_a_miss():
    """`sweep reset` flips a stored verdict back to pending: it must re-run."""
    kw = dict(methods=["gfc"], datasets=["astro-mhd"], target_elements=512)
    first = run_suite_detailed(**kw)
    assert not first.results.measurements[0].ok  # the paper-limit skip, stored
    with open_store() as store:
        assert store.reset_cells(("failed",)) == 1
    rerun = run_suite_detailed(**kw)
    assert (rerun.cache_stats.hits, rerun.cache_stats.misses) == (0, 1)
    assert _scan() == [("gfc", False)]
