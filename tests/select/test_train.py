"""Training the learned policy from the result store and ResultSets."""

import pytest

from repro.core.results import Measurement, ResultSet
from repro.core.suite import cell_fields, open_store
from repro.errors import SelectionError
from repro.select import (
    LearnedPolicy,
    build_table,
    load_policy,
    load_table,
    save_table,
    table_from_results,
)
from repro.select.features import FEATURE_ORDER


def _measurement(method, dataset, ratio, ok=True):
    return Measurement(
        method=method,
        dataset=dataset,
        domain="TS",
        precision="D",
        ok=ok,
        compression_ratio=ratio,
    )


def _seed_cache(tmp_path, cells=None, fingerprint=None):
    cells = cells or [
        ("gorilla", "citytemp", 2.0),
        ("chimp", "citytemp", 3.5),
        ("gorilla", "tpcH-order", 1.9),
        ("chimp", "tpcH-order", 1.2),
    ]
    with open_store(tmp_path) as store:
        store.upsert_cells(
            [
                {
                    "codec": method,
                    "dataset": dataset,
                    "chunk_elements": 0,
                    "jobs": 1,
                    "policy": "fixed",
                    "seed": 0,
                    "target_elements": 512,
                    "status": "done",
                    **cell_fields(_measurement(method, dataset, ratio)),
                    **({"fingerprint": fingerprint} if fingerprint else {}),
                }
                for method, dataset, ratio in cells
            ]
        )


def test_build_table_picks_best_cr_per_dataset(tmp_path):
    _seed_cache(tmp_path)
    rows = build_table(root=tmp_path)
    winners = {row.dataset: row.winner for row in rows}
    assert winners == {"citytemp": "chimp", "tpcH-order": "gorilla"}
    for row in rows:
        assert set(FEATURE_ORDER) <= set(row.features)


def test_build_table_respects_candidate_restriction(tmp_path):
    _seed_cache(tmp_path)
    rows = build_table(root=tmp_path, candidates=("gorilla",))
    assert {row.winner for row in rows} == {"gorilla"}


def test_build_table_on_empty_cache_raises(tmp_path):
    with pytest.raises(SelectionError):
        build_table(root=tmp_path)


def test_build_table_ignores_stale_rows(tmp_path):
    """A stale row's ratio was measured by code that has since changed."""
    _seed_cache(tmp_path)
    # A stale fpzip row that would win citytemp if it were trusted.
    _seed_cache(tmp_path, [("fpzip", "citytemp", 99.0)], fingerprint="0" * 20)
    winners = {row.dataset: row.winner for row in build_table(root=tmp_path)}
    assert winners == {"citytemp": "chimp", "tpcH-order": "gorilla"}
    # Once re-measured under the current fingerprint it counts again.
    _seed_cache(tmp_path, [("fpzip", "citytemp", 99.0)])
    winners = {row.dataset: row.winner for row in build_table(root=tmp_path)}
    assert winners["citytemp"] == "fpzip"


def test_build_table_ignores_fresh_stream_cells(tmp_path):
    """A stream cell's ratio measures a chunking, not the codec."""
    from repro.core.runner import BenchmarkRunner

    _seed_cache(tmp_path)
    with open_store(tmp_path) as store:
        store.upsert_cells(
            [
                {
                    "codec": "fpzip", "dataset": "citytemp",
                    "chunk_elements": 1024, "jobs": 1, "policy": "fixed",
                    "seed": 0, "target_elements": 512, "status": "done",
                    "ratio": 99.0,
                    "fingerprint": BenchmarkRunner().cell_fingerprint("fpzip"),
                }
            ]
        )
    winners = {row.dataset: row.winner for row in build_table(root=tmp_path)}
    assert winners == {"citytemp": "chimp", "tpcH-order": "gorilla"}


def test_build_table_ties_go_to_the_alphabetically_first_method(tmp_path):
    _seed_cache(tmp_path, [("gorilla", "citytemp", 2.0), ("chimp", "citytemp", 2.0)])
    assert [row.winner for row in build_table(root=tmp_path)] == ["chimp"]


def test_table_round_trips_through_json(tmp_path):
    _seed_cache(tmp_path)
    rows = build_table(root=tmp_path)
    path = save_table(rows, tmp_path / "table.json")
    assert load_table(path) == rows
    policy = load_policy(path)
    assert isinstance(policy, LearnedPolicy)
    assert set(policy.candidates) == {"chimp", "gorilla"}


def test_load_table_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(SelectionError):
        load_table(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SelectionError):
        load_table(bad)
    drifted = tmp_path / "drifted.json"
    drifted.write_text('{"schema": 99, "rows": []}')
    with pytest.raises(SelectionError):
        load_table(drifted)


def test_load_table_rejects_feature_order_drift(tmp_path):
    _seed_cache(tmp_path)
    path = save_table(build_table(root=tmp_path), tmp_path / "table.json")
    import json

    payload = json.loads(path.read_text())
    payload["feature_order"] = ["something_else"]
    path.write_text(json.dumps(payload))
    with pytest.raises(SelectionError):
        load_table(path)


def test_table_from_results():
    results = ResultSet()
    results.add(_measurement("gorilla", "citytemp", 2.0))
    results.add(_measurement("chimp", "citytemp", 3.0))
    results.add(_measurement("fpzip", "citytemp", 9.0, ok=False))  # ignored
    rows = table_from_results(results, target_elements=512)
    assert [row.winner for row in rows] == ["chimp"]
    assert rows[0].winner_cr == 3.0


def test_table_from_results_with_nothing_usable():
    results = ResultSet()
    results.add(_measurement("gorilla", "citytemp", 2.0, ok=False))
    with pytest.raises(SelectionError):
        table_from_results(results, target_elements=512)
