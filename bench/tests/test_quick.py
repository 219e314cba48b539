"""The contract file, and a --quick run of every workload against the
real ``serve`` and 2-node ``cluster serve`` children."""

import json
import re
import subprocess
import sys

import pytest

import bench
from bench import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return bench.load_contract()


def test_contract_file_keeps_to_its_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_names_the_workloads_the_code_runs(contract):
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)


def test_quick_run_of_every_workload_matches_the_contract(contract, tmp_path):
    # Side by side: the inputs are tiny, so the processes mostly import.
    started = {
        workload["name"]: subprocess.Popen(
            [
                sys.executable, str(bench.ROOT / "bench" / "run.py"), "--quick",
                "--workload", workload["name"], "--seed", "7", "--seconds", "0.3",
                "--trace", "0", "--out", str(tmp_path / f"{workload['name']}.json"),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )  # fmt: skip
        for workload in contract["workloads"]
    }
    wanted = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for name, process in started.items():
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, name
        result = json.loads(output.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
        (record,) = json.loads((tmp_path / f"{name}.json").read_text())["runs"]
        assert record["workload"] == name and record["seed"] == 7
        assert {"git", "nproc", "python", "numpy", "loadavg_1min_start",
                "loadavg_1min_end"} <= set(record["host"])  # fmt: skip
        assert set(record["detail"]["phases"]) == {"compress", "decompress"}
        assert record["detail"]["phases"]["compress"]["ops"] >= 1
