"""Throughput-bench harness: schema, snapshots, and diffs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def tiny_report():
    return bench.run_bench(
        methods=["gorilla", "chimp"],
        datasets=["citytemp"],
        elements=2048,
        repeats=1,
        oracle=True,
        guard=False,
    )


class TestRunBench:
    def test_schema(self, tiny_report):
        assert tiny_report["schema"] == bench.SCHEMA_VERSION
        assert tiny_report["elements"] == 2048
        assert len(tiny_report["cells"]) == 2
        cell = tiny_report["cells"][0]
        for key in (
            "method",
            "dataset",
            "compress_s",
            "decompress_s",
            "compress_mbs",
            "decompress_mbs",
            "compression_ratio",
        ):
            assert key in cell
        assert cell["compress_mbs"] > 0
        assert cell["decompress_mbs"] > 0

    def test_source_lines_in_metadata(self, tiny_report):
        # The ROADMAP's shrink-the-system trajectory, as a number.
        package = Path(bench.__file__).resolve().parents[1]
        own = len((package / "perf" / "bench.py").read_text().splitlines())
        assert own < tiny_report["source_lines"] == bench.source_lines()
        assert tiny_report["source_lines"] > 10_000

    def test_oracle_fields_present_for_rewritten_codecs(self, tiny_report):
        for cell in tiny_report["cells"]:
            assert cell["encode_speedup_vs_scalar"] > 0
            assert cell["scalar_compress_mbs"] > 0

    def test_guard_cells(self):
        report = bench.run_bench(
            methods=["gorilla"],
            datasets=["citytemp"],
            elements=1024,
            repeats=1,
            oracle=False,
            guard=True,
        )
        assert [c["method"] for c in report["guard"]] == list(
            bench.GUARD_METHODS
        )
        assert all(
            c["elements"] == bench.GUARD_ELEMENTS for c in report["guard"]
        )

    def test_on_cell_streams(self):
        seen = []
        bench.run_bench(
            methods=["gorilla"],
            datasets=["citytemp"],
            elements=512,
            repeats=1,
            oracle=False,
            guard=False,
            on_cell=lambda cell: seen.append(cell["method"]),
        )
        assert seen == ["gorilla"]

    def test_report_sections(self, tiny_report):
        # Served latency, auto-vs-best-fixed and the sweep summary are
        # measured by bench/run.py and `fcbench report --db`, not here.
        assert not {"auto", "service", "sweep"} & set(tiny_report)

    @pytest.mark.parametrize(
        "argv, parameter",
        [
            (["--auto"], "auto"),
            (["--service"], "service"),
            (["--resilience"], "resilience"),
            (["--sweep-db", "exp.sqlite"], "sweep_db"),
            (["--tenancy"], "tenancy"),
        ],
    )
    def test_retired_sections_are_errors(self, argv, parameter, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["bench", *argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(TypeError):
            bench.run_bench(**{parameter: True})


class TestSnapshots:
    def test_write_find_latest_and_diff(self, tiny_report, tmp_path):
        old = dict(tiny_report, git_sha="aaaaaaa", created="2026-01-01T00:00:00")
        new = dict(tiny_report, git_sha="bbbbbbb", created="2026-02-01T00:00:00")
        old_path = bench.write_report(old, tmp_path)
        new_path = bench.write_report(new, tmp_path)
        assert old_path.name == "BENCH_aaaaaaa.json"
        assert json.loads(new_path.read_text())["git_sha"] == "bbbbbbb"
        assert bench.find_snapshots(tmp_path) == [old_path, new_path]
        assert bench.latest_snapshot(tmp_path) == new_path
        assert bench.latest_snapshot(tmp_path, exclude=new_path) == old_path

        diff = bench.diff_reports(old, new)
        assert "gorilla" in diff and "citytemp" in diff
        assert "1.00x" in diff  # identical cells diff to exactly 1.00x

    def test_diff_marks_new_cells(self, tiny_report):
        old = dict(tiny_report, cells=[])
        assert "new" in bench.diff_reports(old, tiny_report)

    def test_corrupt_snapshot_ignored(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        assert bench.find_snapshots(tmp_path) == []

    def test_git_sha_shape(self):
        sha = bench.git_sha()
        assert sha == "unknown" or 4 <= len(sha) <= 40


class TestOracleVerification:
    def test_bench_cell_asserts_byte_identity(self, monkeypatch):
        from repro.compressors import get_compressor

        compressor = get_compressor("gorilla")
        monkeypatch.setattr(
            type(compressor), "_compress_scalar", lambda self, a: b"bogus"
        )
        with pytest.raises(AssertionError):
            bench.bench_cell("gorilla", "citytemp", 256, repeats=1)
