"""Tests for the sqlite experiment store (schema, inserts, guards)."""

import sqlite3

import pytest

from repro.errors import ExperimentError
from repro.expdb.store import (
    RESULT_FIELDS,
    SCHEMA_VERSION,
    STATUSES,
    CellKey,
    ExperimentStore,
)


@pytest.fixture()
def store(tmp_path):
    with ExperimentStore(tmp_path / "exp.sqlite") as s:
        yield s


def _key(**overrides) -> CellKey:
    base = dict(
        codec="gorilla",
        dataset="citytemp",
        chunk_elements=1024,
        jobs=1,
        policy="fixed",
        seed=0,
        target_elements=2048,
    )
    base.update(overrides)
    return CellKey(**base)


def _row(**overrides) -> dict:
    row = _key().as_dict()
    row["domain"] = "TS"
    row.update(overrides)
    return row


def test_schema_version_recorded(store):
    assert store.get_meta("schema_version") == str(SCHEMA_VERSION)


def test_schema_version_mismatch_refused(tmp_path):
    path = tmp_path / "exp.sqlite"
    with ExperimentStore(path) as s:
        s.conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
    with pytest.raises(ExperimentError, match="schema version"):
        ExperimentStore(path)


def test_wal_mode_enabled(store):
    mode = store.conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"


def test_insert_is_idempotent(store):
    assert store.insert_cells([_row()]) == 1
    assert store.insert_cells([_row()]) == 0
    assert store.counts()["total"] == 1


def test_insert_distinguishes_every_keyfield(store):
    rows = [_row()]
    for field, value in [
        ("codec", "chimp"),
        ("dataset", "msg-bt"),
        ("chunk_elements", 0),
        ("jobs", 2),
        ("policy", "measured"),
        ("seed", 7),
        ("target_elements", 512),
    ]:
        rows.append(_row(**{field: value}))
    assert store.insert_cells(rows) == len(rows)


def test_insert_rejects_bad_status(store):
    with pytest.raises(ExperimentError, match="status"):
        store.insert_cells([_row(status="wedged")])


def test_find_cell_round_trips_keyfields(store):
    store.insert_cells([_row()])
    cell = store.find_cell(_key())
    assert cell is not None
    assert cell.key == _key()
    assert cell.status == "pending"
    assert cell.domain == "TS"
    assert store.find_cell(_key(seed=99)) is None


def test_counts_cover_every_status(store):
    assert store.counts() == {**{s: 0 for s in STATUSES}, "total": 0}
    store.insert_cells([_row(), _row(codec="chimp", status="skipped")])
    counts = store.counts()
    assert counts["pending"] == 1
    assert counts["skipped"] == 1
    assert counts["total"] == 2


def test_write_result_requires_matching_owner(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "worker-a")
    assert not store.write_result(cell.id, "worker-b", "done", {"ratio": 2.0})
    assert store.cell_by_id(cell.id).status == "claimed"
    assert store.write_result(cell.id, "worker-a", "done", {"ratio": 2.0})
    row = store.cell_by_id(cell.id)
    assert row.status == "done"
    assert row.ratio == 2.0
    assert row.finished_at is not None


def test_write_result_requires_claimed_status(store):
    store.insert_cells([_row()])
    cell = store.find_cell(_key())
    # Never claimed: a write against a pending cell is rejected.
    assert not store.write_result(cell.id, "worker-a", "done", {"ratio": 2.0})


def test_write_result_rejects_non_terminal_status(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "w")
    with pytest.raises(ExperimentError, match="terminal"):
        store.write_result(cell.id, "w", "pending")


def test_write_result_rejects_unknown_resultfield(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "w")
    with pytest.raises(ExperimentError, match="resultfield"):
        store.write_result(cell.id, "w", "done", {"vibes": 11.0})


def test_resultfields_round_trip(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "w")
    fields = {
        "ratio": 1.5,
        "encode_mbs": 100.0,
        "decode_mbs": 200.0,
        "input_bytes": 8192,
        "compressed_bytes": 5461,
    }
    assert set(fields) == set(RESULT_FIELDS)
    store.write_result(cell.id, "w", "done", fields)
    assert store.cell_by_id(cell.id).resultfields() == fields


def test_reset_cells_requeues_failures(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "w")
    store.write_result(cell.id, "w", "failed", error="boom")
    assert store.reset_cells(("failed",)) == 1
    row = store.cell_by_id(cell.id)
    assert row.status == "pending"
    assert row.error == ""


def test_events_logtable(store):
    store.insert_cells([_row()])
    cell = store.find_cell(_key())
    store.log_event(cell.id, "w", "chunk", {"index": 0, "compressed_bytes": 9})
    store.log_event(cell.id, "w", "done")
    events = store.events(cell_id=cell.id)
    assert [e.kind for e in events] == ["chunk", "done"]
    assert events[0].payload == {"index": 0, "compressed_bytes": 9}
    assert store.events(kind="done")[0].cell_id == cell.id


def test_meta_json_round_trip(store):
    store.set_meta("grid", {"codecs": ["gorilla"], "seeds": [0, 1]})
    assert store.get_meta("grid") == {"codecs": ["gorilla"], "seeds": [0, 1]}
    assert store.get_meta("missing", "fallback") == "fallback"


def test_status_check_constraint_enforced_by_sqlite(store):
    store.insert_cells([_row()])
    with pytest.raises(sqlite3.IntegrityError):
        store.conn.execute("UPDATE cells SET status = 'bogus'")


def test_two_connections_share_one_database(tmp_path):
    path = tmp_path / "exp.sqlite"
    with ExperimentStore(path) as a, ExperimentStore(path) as b:
        a.insert_cells([_row()])
        assert b.counts()["total"] == 1


# ----------------------------------------------------------------------
# Schema version 2: provenance columns, upsert, delete, in-place upgrade
# ----------------------------------------------------------------------
def test_provenance_columns_round_trip(store):
    from repro.expdb.claim import claim_next

    store.insert_cells([_row()])
    cell = claim_next(store, "w")
    assert (cell.fingerprint, cell.measurement) == (None, None)
    store.write_result(
        cell.id, "w", "done",
        {"ratio": 1.5, "fingerprint": "abc", "measurement": '{"ok": true}'},
    )
    row = store.cell_by_id(cell.id)
    assert (row.fingerprint, row.measurement) == ("abc", '{"ok": true}')
    # Provenance rides beside the resultfields, it is not one of them.
    assert set(row.resultfields()) == set(RESULT_FIELDS)


def test_upsert_overwrites_where_insert_ignores(store):
    store.insert_cells([_row(status="done", ratio=1.0, fingerprint="old")])
    [before] = store.cells()
    assert store.insert_cells([_row(status="done", ratio=9.0)]) == 0
    assert store.cells()[0].ratio == 1.0
    assert store.upsert_cells(
        [_row(status="failed", error="boom", fingerprint="new", source="suite")]
    ) == 1
    [after] = store.cells()
    assert after.id == before.id  # same row, so its events stay attached
    assert (after.status, after.error, after.source) == ("failed", "boom", "suite")
    assert (after.ratio, after.fingerprint) == (None, "new")
    assert store.upsert_cells([_row(codec="chimp")]) == 1
    assert store.counts()["total"] == 2
    with pytest.raises(ExperimentError, match="status"):
        store.upsert_cells([_row(status="wedged")])


def test_delete_cells_takes_their_events_along(store):
    store.insert_cells([_row(), _row(codec="chimp"), _row(codec="fpzip")])
    ids = [cell.id for cell in store.cells()]
    for cell_id in ids:
        store.log_event(cell_id, "w", "done")
    assert store.delete_cells([ids[0], ids[2]]) == 2
    assert [cell.id for cell in store.cells()] == [ids[1]]
    assert [event.cell_id for event in store.events()] == [ids[1]]
    assert store.delete_cells([]) == 0
    assert store.delete_cells([ids[1], 999]) == 1
    assert store.counts()["total"] == 0 and store.events() == []


_V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE cells (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    codec TEXT NOT NULL, dataset TEXT NOT NULL,
    chunk_elements INTEGER NOT NULL, jobs INTEGER NOT NULL,
    policy TEXT NOT NULL, seed INTEGER NOT NULL,
    target_elements INTEGER NOT NULL,
    domain TEXT NOT NULL DEFAULT '?',
    status TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'claimed', 'done', 'failed', 'skipped')),
    owner TEXT, attempts INTEGER NOT NULL DEFAULT 0,
    claimed_at REAL, heartbeat REAL, finished_at REAL,
    error TEXT NOT NULL DEFAULT '', source TEXT NOT NULL DEFAULT 'sweep',
    ratio REAL, encode_mbs REAL, decode_mbs REAL,
    input_bytes INTEGER, compressed_bytes INTEGER,
    UNIQUE (codec, dataset, chunk_elements, jobs, policy, seed,
            target_elements)
);
CREATE TABLE events (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    cell_id INTEGER NOT NULL REFERENCES cells (id),
    worker TEXT NOT NULL, kind TEXT NOT NULL,
    payload TEXT NOT NULL DEFAULT '{}', created REAL NOT NULL
);
INSERT INTO meta VALUES ('schema_version', '1');
INSERT INTO meta VALUES ('grid', '{"codecs": ["gorilla"]}');
INSERT INTO cells (codec, dataset, chunk_elements, jobs, policy, seed,
                   target_elements, domain, status, ratio, input_bytes)
VALUES ('gorilla', 'citytemp', 0, 1, 'fixed', 0, 1024, 'TS', 'done',
        1.25, 8192),
       ('chimp', 'citytemp', 512, 1, 'fixed', 0, 1024, 'TS', 'pending',
        NULL, NULL);
INSERT INTO events (cell_id, worker, kind, created) VALUES (1, 'w', 'done', 1.0);
"""


def test_schema_v1_database_is_upgraded_in_place(tmp_path, monkeypatch):
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(_V1_SCHEMA)
    conn.close()

    with ExperimentStore(path) as s:
        assert s.get_meta("schema_version") == str(SCHEMA_VERSION) == "2"
        assert s.get_meta("grid") == {"codecs": ["gorilla"]}
        done, pending = s.cells()
        assert (done.status, done.ratio, done.input_bytes) == ("done", 1.25, 8192)
        assert (done.fingerprint, done.measurement) == (None, None)
        assert pending.status == "pending"
        assert [e.kind for e in s.events(cell_id=done.id)] == ["done"]
    # Reopening an upgraded database is a no-op, not a second ALTER.
    with ExperimentStore(path) as s:
        assert s.counts()["total"] == 2

    # The kept whole-array row has no provenance, so a suite run re-measures
    # and overwrites it; `report --db` reads the database either way.
    from repro.core.suite import run_suite_detailed

    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    path.rename(tmp_path / "results.sqlite")
    run = run_suite_detailed(
        methods=["gorilla"], datasets=["citytemp"], target_elements=1024
    )
    assert (run.cache_stats.hits, run.cache_stats.misses) == (0, 1)
    with ExperimentStore(tmp_path / "results.sqlite") as s:
        done, pending = s.cells()
        assert done.id == 1 and done.fingerprint is not None
        assert done.ratio == run.results.measurements[0].compression_ratio
        assert pending.status == "pending"
