"""Reporting layer: aggregation, statistics wiring, artifacts."""

import json
import math

import pytest

from repro.errors import ExperimentError
from repro.expdb.report import (
    render_report,
    score_matrix,
    sweep_report,
    write_artifacts,
)
from repro.expdb.store import CellKey, ExperimentStore


@pytest.fixture()
def store(tmp_path):
    with ExperimentStore(tmp_path / "exp.sqlite") as s:
        yield s


def _finish(store, codec, dataset, ratio, domain="TS", policy="fixed", **extra):
    key = CellKey(
        codec=codec,
        dataset=dataset,
        chunk_elements=extra.pop("chunk_elements", 512),
        jobs=1,
        policy=policy,
        seed=extra.pop("seed", 0),
        target_elements=1024,
    )
    store.insert_cells([{**key.as_dict(), "domain": domain}])
    cell = store.find_cell(key)
    store.conn.execute(
        "UPDATE cells SET status = 'claimed', owner = 'w' WHERE id = ?",
        (cell.id,),
    )
    fields = {"ratio": ratio, "encode_mbs": 10.0, "decode_mbs": 20.0}
    if extra.pop("failed", False):
        store.write_result(cell.id, "w", "failed", error="boom")
    else:
        store.write_result(cell.id, "w", "done", fields)
    return cell


# 4 methods x 6 datasets with a strict quality ordering.
METHODS = ("m-best", "m-good", "m-fair", "m-poor")
DATASETS = ("d1", "d2", "d3", "d4", "d5", "d6")


def _fill_grid(store):
    for di, dataset in enumerate(DATASETS):
        for mi, method in enumerate(METHODS):
            _finish(store, method, dataset, ratio=4.0 - mi + 0.01 * di)


def test_score_matrix_shape_and_values(store):
    _fill_grid(store)
    datasets, methods, scores = score_matrix(store)
    assert len(datasets) == 6
    assert methods == sorted(METHODS)
    assert scores.shape == (6, 4)
    best = methods.index("m-best")
    poor = methods.index("m-poor")
    assert (scores[:, best] > scores[:, poor]).all()


def test_score_matrix_averages_configurations(store):
    # Two configurations (chunk sizes) of the same (dataset, method)
    # pair collapse into one mean score: more configs != more weight.
    _finish(store, "m", "d1", ratio=1.0, chunk_elements=256)
    _finish(store, "m", "d1", ratio=3.0, chunk_elements=512)
    _, _, scores = score_matrix(store)
    assert scores[0, 0] == pytest.approx(2.0)


def test_score_matrix_failed_cells_are_nan(store):
    _finish(store, "m-ok", "d1", ratio=2.0)
    _finish(store, "m-bad", "d1", ratio=0.0, failed=True)
    datasets, methods, scores = score_matrix(store)
    bad = methods.index("m-bad")
    ok = methods.index("m-ok")
    assert math.isnan(scores[0, bad])
    assert scores[0, ok] == 2.0


def test_score_matrix_auto_cells_report_policy_label(store):
    _finish(store, "auto", "d1", ratio=2.5, policy="heuristic")
    _, methods, _ = score_matrix(store)
    assert methods == ["auto/heuristic"]


def test_score_matrix_rejects_unknown_metric(store):
    with pytest.raises(ExperimentError, match="metric"):
        score_matrix(store, "vibes")


def test_sweep_report_statistics(store):
    _fill_grid(store)
    report = sweep_report(store)
    stats = report["stats"]
    assert stats["available"]
    assert stats["friedman"]["n_methods"] == 4
    assert stats["friedman"]["n_datasets"] == 6
    # Strict ordering on every dataset -> maximal chi2 for 4x6 and a
    # rejected null.
    assert stats["friedman"]["rejects_null"]
    assert stats["ranking"] == ["m-best", "m-good", "m-fair", "m-poor"]
    assert stats["cd_diagram"].startswith("CD = ")
    assert stats["nemenyi"]["critical_difference"] > 0


def test_sweep_report_without_results(store):
    report = sweep_report(store)
    assert not report["stats"]["available"]
    assert "no finished cells" in report["stats"]["reason"]
    render_report(report)  # must not raise


def test_sweep_report_too_small_for_statistics(store):
    _finish(store, "only-method", "d1", ratio=2.0)
    report = sweep_report(store)
    assert not report["stats"]["available"]
    assert "need >=" in report["stats"]["reason"]


def test_domain_tables_group_by_domain(store):
    _finish(store, "m", "hpc-d", ratio=2.0, domain="HPC")
    _finish(store, "m", "ts-d", ratio=3.0, domain="TS")
    report = sweep_report(store)
    assert set(report["domains"]) == {"HPC", "TS"}
    assert report["domains"]["HPC"]["methods"]["m"]["ratio"] == 2.0


def test_render_report_mentions_everything(store):
    _fill_grid(store)
    text = render_report(sweep_report(store))
    for method in METHODS:
        assert method in text
    assert "Friedman" in text
    assert "CD = " in text


def test_write_artifacts(tmp_path, store):
    _fill_grid(store)
    report = sweep_report(store)
    written = write_artifacts(report, tmp_path / "art")
    names = {p.name for p in written}
    assert names == {"summary.json", "cd_diagram.txt", "report.txt"}
    summary = json.loads((tmp_path / "art" / "summary.json").read_text())
    assert summary["stats"]["ranking"] == report["stats"]["ranking"]
    assert (tmp_path / "art" / "cd_diagram.txt").read_text().startswith("CD = ")


def test_artifacts_json_is_finite_even_with_degenerate_stats(tmp_path, store):
    # Identical scores on every dataset make the Iman-Davenport F
    # degenerate (chi2 == N(k-1) edge); the JSON artifact must still be
    # strictly valid (no NaN/Infinity literals).
    for dataset in ("d1", "d2"):
        _finish(store, "a", dataset, ratio=2.0)
        _finish(store, "b", dataset, ratio=1.0)
    report = sweep_report(store)
    written = write_artifacts(report, tmp_path / "art")
    json.loads((tmp_path / "art" / "summary.json").read_text())


def test_report_is_deterministic(store):
    _fill_grid(store)
    a = sweep_report(store)
    b = sweep_report(store)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
