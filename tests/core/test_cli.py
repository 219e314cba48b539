"""Tests for the fcbench command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_list_methods_and_datasets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bitshuffle-zstd" in out
    assert "citytemp" in out
    assert "HPC" in out


def test_list_methods_only(capsys):
    assert main(["list", "--methods"]) == 0
    out = capsys.readouterr().out
    assert "gorilla" in out
    assert "citytemp" not in out


def test_run_streams_cells_and_summarizes(capsys):
    rc = main(
        [
            "run",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[   1/2]" in out and "[   2/2]" in out
    assert "ok=2 failed=0" in out
    assert "0 hits / 2 misses" in out


def test_run_quiet_emits_summary_only(capsys):
    rc = main(
        [
            "run", "--quiet",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("\n") == 1
    assert out.startswith("ran 1 cells")


def test_run_reports_cache_hits_on_second_invocation(capsys):
    args = [
        "run", "--quiet",
        "--methods", "gorilla",
        "--datasets", "citytemp",
        "--target-elements", "512",
    ]
    main(args)
    capsys.readouterr()
    main(args)
    assert "cache: 1 hits / 0 misses" in capsys.readouterr().out


def test_run_rejects_unknown_method(capsys):
    rc = main(["run", "--methods", "zipzap"])
    assert rc == 2
    assert "unknown methods: zipzap" in capsys.readouterr().err


def test_run_rejects_unknown_dataset(capsys):
    rc = main(["run", "--datasets", "nope"])
    assert rc == 2
    assert "unknown datasets: nope" in capsys.readouterr().err


def test_cache_inspect_and_clear(tmp_path, capsys):
    main(
        [
            "run", "--quiet",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    capsys.readouterr()

    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert f"cache root: {tmp_path}" in out
    assert "cells: 2 (0 stale" in out
    assert "chimp" in out and "gorilla" in out
    assert "last run: 0 hits / 2 misses" in out

    assert main(["cache", "clear", "--stale"]) == 0
    assert "0 cell(s), 2 kept" in capsys.readouterr().out
    assert main(["cache"]) == 0
    assert "cells: 2 (0 stale" in capsys.readouterr().out

    assert main(["cache", "clear"]) == 0
    assert "2 cell(s), 0 kept" in capsys.readouterr().out
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "cells: 0 (0 stale" in out
    assert "last run" not in out
    # The store is one file; nothing else accumulates beside it.
    assert [p.name for p in tmp_path.iterdir()] == ["results.sqlite"]


def test_report_table4(capsys):
    rc = main(
        [
            "report", "table4",
            "--methods", "gorilla,chimp",
            "--datasets", "citytemp,gas-price",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 4" in out
    assert "Gorilla" in out and "Chimp" in out


def test_report_arbitrary_metric(capsys):
    rc = main(
        [
            "report",
            "--metric", "compressed_bytes",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "metric: compressed_bytes" in out
    assert "citytemp" in out


def test_report_unknown_metric(capsys):
    rc = main(
        [
            "report",
            "--metric", "nonsense",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
        ]
    )
    assert rc == 2
    assert "unknown metric" in capsys.readouterr().err


def test_parallel_run_matches_serial_fingerprint(capsys):
    args = [
        "run", "--quiet", "--no-cache",
        "--methods", "gorilla,chimp",
        "--datasets", "citytemp,gas-price",
        "--target-elements", "512",
    ]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    def fp(text):
        return text.rsplit("fingerprint=", 1)[1].split()[0]

    assert fp(serial) == fp(parallel)


def test_run_jobs_zero_auto_detects(capsys):
    rc = main(
        [
            "run", "--quiet", "--no-cache",
            "--methods", "gorilla",
            "--datasets", "citytemp",
            "--target-elements", "512",
            "--jobs", "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    import os

    assert f"jobs={os.cpu_count() or 1}" in out


def test_jobs_help_documents_auto_detection(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "os.cpu_count()" in capsys.readouterr().out


def test_version_flag_prints_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"fcbench {repro.__version__}"


def test_client_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:  # argparse's own exit
        main(["client"])
    assert excinfo.value.code == 2


def test_client_refused_connection_is_a_clean_error(tmp_path, capsys):
    import socket

    # Grab a port, then close it so nothing is listening there.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["client", "--port", str(port), "--retries", "0", "ping"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture
def npy(tmp_path):
    import numpy as np

    path = tmp_path / "a.npy"
    np.save(path, np.linspace(0.0, 1.0, 1000))
    return path


@pytest.fixture
def quiet_server_logging(monkeypatch):
    # A server that never starts must not reroute the process's logging.
    monkeypatch.setattr(
        "repro.service.server.configure_logging", lambda **kwargs: None
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "{npy}", "{tmp}/a.fcf", "--chunk-elements", "0"],
        ["serve", "--max-queued-requests", "0"],
        ["serve", "--trace-capacity", "0"],
        ["cluster", "serve", "--nodes", "0"],
        ["tenant", "quota", "t1", "--file", "{tmp}/t.json", "--window", "-3"],
        ["client", "--timeout", "-1", "ping"],
        ["compress", "{npy}", "{tmp}/missing/a.fcf"],
        ["decompress", "{tmp}/ok.fcf", "{tmp}/missing/a.npy"],
        ["client", "--port", "{port}", "compress", "{npy}", "{tmp}/missing/a.fcf"],
    ],
)
def test_bad_input_is_an_error_line_not_a_traceback(
    argv, npy, tmp_path, capsys, quiet_server_logging
):
    from repro.service.server import serve_background

    assert main(["tenant", "create", "t1", "--file", str(tmp_path / "t.json")]) == 0
    assert main(["compress", str(npy), str(tmp_path / "ok.fcf"), "--quiet"]) == 0
    capsys.readouterr()
    with serve_background() as handle:
        fields = {"npy": npy, "tmp": tmp_path, "port": handle.port}
        code = main([arg.format(**fields) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_non_positive_target_elements_is_refused_and_stores_nothing(
    tmp_path, capsys
):
    for budget in ("0", "-100"):
        code = main(
            [
                "run", "--quiet",
                "--methods", "gorilla",
                "--datasets", "citytemp",
                "--target-elements", budget,
            ]
        )
        assert code == 2
        assert "target_elements must be >= 1" in capsys.readouterr().err
    assert main(["cache"]) == 0
    assert "cells: 0 (0 stale" in capsys.readouterr().out


def test_sweep_init_refuses_a_non_positive_budget(tmp_path, capsys):
    db = tmp_path / "e.sqlite"
    code = main(["sweep", "init", "--db", str(db), "--target-elements", "-3"])
    assert code == 2
    assert "target_elements must be >= 1" in capsys.readouterr().err
    if db.exists():
        assert main(["sweep", "status", "--db", str(db)]) == 0
        assert capsys.readouterr().out.startswith("0 cells")


def test_select_explain_refuses_non_positive_sizes(npy, capsys):
    code = main(["select", "explain", "citytemp", "--target-elements", "-5"])
    assert code == 2
    assert "target_elements must be >= 1" in capsys.readouterr().err
    code = main(["select", "explain", str(npy), "--chunk-elements", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: chunk_elements must be positive\n"


def test_unknown_tenant_is_named_without_quotes_around_the_message(
    tmp_path, capsys
):
    registry = str(tmp_path / "t.json")
    assert main(["tenant", "create", "t1", "--file", registry]) == 0
    capsys.readouterr()
    assert main(["tenant", "quota", "nobody", "--file", registry]) == 2
    assert capsys.readouterr().err == "error: unknown tenant 'nobody'\n"
