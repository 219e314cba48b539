"""The same / better / worse / unresolved verdicts."""

import json

import pytest

from bench import compare

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_within_the_bound_is_same():
    assert compare.verdict(STEADY, [v * 1.04 for v in STEADY[::-1]], "lower", 0.10) == "same"
    assert compare.verdict(STEADY, [v * 0.97 for v in STEADY[::-1]], "higher", 0.10) == "same"


def test_median_worse_by_more_than_the_bound_is_worse():
    assert compare.verdict(STEADY, [v * 1.2 for v in STEADY], "lower", 0.10) == "worse"
    assert compare.verdict(STEADY, [v * 0.8 for v in STEADY], "higher", 0.10) == "worse"


def test_every_run_better_than_every_parent_run_is_better():
    assert compare.verdict(STEADY, [v * 0.9 for v in STEADY], "lower", 0.10) == "better"
    assert compare.verdict(STEADY, [v * 1.1 for v in STEADY], "higher", 0.10) == "better"
    # Even when the runs are too noisy to call anything else.
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [50.0, 60.0, 70.0, 55.0, 65.0], "lower", 0.10) == "better"


def test_spread_wider_than_the_bound_is_unresolved_not_same():
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10) == "unresolved"
    assert compare.verdict(STEADY, noisy, "lower", 0.10) == "unresolved"
    # ... unless every run of the change reads worse, beyond the bound.
    assert compare.verdict(noisy, [v * 2 for v in noisy], "lower", 0.10) == "worse"


def _result_file(path, scale):
    contract = compare.load_contract()
    runs = [
        {
            "workload": workload["name"],
            "seed": seed,
            "trace": 0,
            "metrics": {
                m["name"]: {"value": (100.0 + seed) * scale.get(m["name"], 1.0),
                            "unit": m["unit"]}
                for m in contract["end_to_end"]
            },
        }
        for workload in contract["workloads"]
        for seed in range(3)
    ]  # fmt: skip
    path.write_text(json.dumps({"runs": runs}))
    return contract


def test_two_files_give_one_verdict_per_metric_and_workload(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    contract = _result_file(a, {})
    _result_file(b, {"compress_mbs": 0.5, "decompress_p50_ms": 0.5})
    rows = compare.compare(compare.load_runs(a), compare.load_runs(b), contract)
    assert len(rows) == len(contract["workloads"]) * len(contract["end_to_end"])
    by_metric = {row[1]: row[-1] for row in rows}
    assert by_metric["compress_mbs"] == "worse"
    assert by_metric["decompress_p50_ms"] == "better"
    assert by_metric["setup_s"] == "same"
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_too_few_runs_are_refused(tmp_path):
    a = tmp_path / "a.json"
    contract = _result_file(a, {})
    few = json.loads(a.read_text())
    few["runs"] = [r for r in few["runs"] if r["seed"] == 0]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(few))
    with pytest.raises(SystemExit, match="at least 3"):
        compare.compare(compare.load_runs(a), compare.load_runs(b), contract)
