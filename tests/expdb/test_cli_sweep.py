"""The ``fcbench sweep`` / ``fcbench report --db`` CLI surface."""

import json

import pytest

from repro.cli import main
from repro.expdb.store import ExperimentStore


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "exp.sqlite")


INIT = [
    "sweep",
    "init",
    "--codecs",
    "gorilla,chimp",
    "--datasets",
    "citytemp,msg-bt",
    "--chunk-elements",
    "512",
    "--target-elements",
    "1024",
]


def test_sweep_init_run_status(db, capsys):
    assert main([*INIT, "--db", db]) == 0
    assert "4 total cells" in capsys.readouterr().out

    assert main(["sweep", "run", "--db", db, "--quiet"]) == 0
    assert "executed 4 cells" in capsys.readouterr().out

    assert main(["sweep", "status", "--db", db]) == 0
    assert "4 done" in capsys.readouterr().out


def test_sweep_init_is_idempotent_via_cli(db, capsys):
    main([*INIT, "--db", db])
    capsys.readouterr()
    main([*INIT, "--db", db])
    assert "0 added" in capsys.readouterr().out


def test_sweep_init_rejects_unknown_codec(db, capsys):
    assert main(["sweep", "init", "--db", db, "--codecs", "middle-out"]) == 2
    assert "unknown codec" in capsys.readouterr().err


def test_sweep_run_requires_initialized_db(db, capsys):
    assert main(["sweep", "run", "--db", db]) == 2
    assert "sweep init" in capsys.readouterr().err


def test_sweep_status_json(db, capsys):
    main([*INIT, "--db", db])
    capsys.readouterr()
    assert main(["sweep", "status", "--db", db, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["pending"] == 4
    assert payload["grid"]["codecs"] == ["gorilla", "chimp"]


def test_sweep_worker_verb_json_summary(db, capsys):
    main([*INIT, "--db", db])
    capsys.readouterr()
    assert main(["sweep", "worker", "--db", db, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["executed"] == 4
    assert summary["done"] == 4


def test_sweep_reset_requeues_failures(db, capsys):
    main([*INIT, "--db", db])
    main(["sweep", "run", "--db", db, "--quiet"])
    with ExperimentStore(db) as store:
        store.conn.execute(
            "UPDATE cells SET status = 'failed' WHERE id = 1"
        )
    capsys.readouterr()
    assert main(["sweep", "reset", "--db", db]) == 0
    assert "reset 1 cell" in capsys.readouterr().out
    with ExperimentStore(db) as store:
        assert store.counts()["pending"] == 1


def test_report_db_text_and_artifacts(db, tmp_path, capsys):
    main(
        [
            "sweep",
            "init",
            "--db",
            db,
            "--codecs",
            "gorilla,chimp,spdp",
            "--datasets",
            "citytemp,msg-bt,nyc-taxi",
            "--chunk-elements",
            "512",
            "--target-elements",
            "1024",
        ]
    )
    main(["sweep", "run", "--db", db, "--quiet"])
    capsys.readouterr()

    art = tmp_path / "artifacts"
    assert main(["report", "--db", db, "--artifacts", str(art)]) == 0
    out = capsys.readouterr().out
    assert "Friedman" in out
    assert (art / "cd_diagram.txt").exists()
    assert (art / "summary.json").exists()

    assert main(["report", "--db", db, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["done"] == 9
    assert payload["stats"]["available"]


def test_report_db_json_to_file(db, tmp_path, capsys):
    main([*INIT, "--db", db])
    main(["sweep", "run", "--db", db, "--quiet"])
    capsys.readouterr()
    out_path = tmp_path / "report.json"
    assert main(["report", "--db", db, "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["counts"]["done"] == 4


def test_report_db_unknown_metric_rejected(db, capsys):
    main([*INIT, "--db", db])
    assert main(["report", "--db", db, "--metric", "vibes"]) == 2
    assert "sweep metrics" in capsys.readouterr().err


def test_report_db_missing_database(tmp_path, capsys):
    assert main(["report", "--db", str(tmp_path / "nope.sqlite")]) == 2
    assert "no experiment database" in capsys.readouterr().err


def test_report_json_without_db_rejected(capsys):
    assert main(["report", "--json"]) == 2
    assert "--db" in capsys.readouterr().err


def test_sweep_import_cache_cli(db, capsys):
    """The verb is retired: `fcbench run` writes the database directly."""
    with pytest.raises(SystemExit) as info:
        main(["sweep", "import-cache", "--db", db])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
