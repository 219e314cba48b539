"""SQLite-backed experiment store: keyfields, resultfields, logtables.

The sweep grid (codec x dataset x chunk_elements x jobs x policy x seed
x target_elements) is persisted as one row per cell in a single SQLite
database, following the py_experimenter design: *keyfields* identify a
cell, *resultfields* hold its measurements, and an append-only *events*
logtable records per-chunk and lifecycle events.  The database is the
unit of resumability — any number of worker processes can open it
concurrently (WAL mode), claim pending cells atomically (see
:mod:`repro.expdb.claim`), and write results transactionally.

Cell lifecycle::

    pending --claim--> claimed --write_result--> done | failed | skipped
       ^                  |
       +---heartbeat------+      (stale claims revert to pending)

``skipped`` marks cells whose external-corpus file is absent — they are
not failures and flip back to ``pending`` when the file appears (see
:func:`repro.expdb.sweep.init_grid`).  ``done`` and ``failed`` are
terminal.

Whole-array cells (``chunk_elements = 0``) also carry two *provenance*
columns — ``measurement``, the full ``Measurement`` as JSON, and
``fingerprint``, a digest of the code that produced it — which is what
lets ``fcbench run`` serve a stored cell as a hit (:mod:`repro.core.suite`).

The schema is versioned: a version-1 database (no provenance columns)
is upgraded in place, any other version raises
:class:`~repro.errors.ExperimentError` instead of silently misreading
rows.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.errors import ExperimentError

__all__ = [
    "SCHEMA_VERSION",
    "STATUSES",
    "CellKey",
    "CellRow",
    "EventRow",
    "ExperimentStore",
]

#: Bump when the table layout changes.  Version 1 (before the
#: provenance columns) is upgraded in place; anything else is refused.
SCHEMA_VERSION = 2

#: Every status a cell can be in.  ``pending`` and ``claimed`` are
#: transient; ``done``/``failed`` are terminal; ``skipped`` can revert
#: to ``pending`` when a missing corpus file appears.
STATUSES = ("pending", "claimed", "done", "failed", "skipped")

#: Resultfield columns, in schema order.
RESULT_FIELDS = (
    "ratio",
    "encode_mbs",
    "decode_mbs",
    "input_bytes",
    "compressed_bytes",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    codec           TEXT    NOT NULL,
    dataset         TEXT    NOT NULL,
    chunk_elements  INTEGER NOT NULL,
    jobs            INTEGER NOT NULL,
    policy          TEXT    NOT NULL,
    seed            INTEGER NOT NULL,
    target_elements INTEGER NOT NULL,
    domain          TEXT    NOT NULL DEFAULT '?',
    status          TEXT    NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'claimed', 'done', 'failed', 'skipped')),
    owner           TEXT,
    attempts        INTEGER NOT NULL DEFAULT 0,
    claimed_at      REAL,
    heartbeat       REAL,
    finished_at     REAL,
    error           TEXT    NOT NULL DEFAULT '',
    source          TEXT    NOT NULL DEFAULT 'sweep',
    ratio           REAL,
    encode_mbs      REAL,
    decode_mbs      REAL,
    input_bytes     INTEGER,
    compressed_bytes INTEGER,
    fingerprint     TEXT,
    measurement     TEXT,
    UNIQUE (codec, dataset, chunk_elements, jobs, policy, seed,
            target_elements)
);
CREATE INDEX IF NOT EXISTS idx_cells_status ON cells (status, id);
CREATE TABLE IF NOT EXISTS events (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    cell_id INTEGER NOT NULL REFERENCES cells (id),
    worker  TEXT    NOT NULL,
    kind    TEXT    NOT NULL,
    payload TEXT    NOT NULL DEFAULT '{}',
    created REAL    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_cell ON events (cell_id, id);
"""


@dataclass(frozen=True)
class CellKey:
    """The keyfields identifying one grid cell."""

    codec: str
    dataset: str
    chunk_elements: int
    jobs: int
    policy: str
    seed: int
    target_elements: int

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def method_label(self) -> str:
        """Report-facing method name: ``auto`` cells carry their policy."""
        if self.codec == "auto":
            return f"auto/{self.policy}"
        return self.codec


#: Keyfield columns, in schema (and UNIQUE-constraint) order.
KEY_FIELDS = tuple(f.name for f in fields(CellKey))

#: Provenance columns of whole-array cells (schema version 2).
PROVENANCE_FIELDS = ("fingerprint", "measurement")

#: Columns an insert may set, with the defaults of the ones it may omit.
_INSERT_DEFAULTS = {
    **dict.fromkeys(KEY_FIELDS),
    "domain": "?",
    "status": "pending",
    "source": "sweep",
    "error": "",
    "finished_at": None,
    "attempts": 0,
    **dict.fromkeys(RESULT_FIELDS + PROVENANCE_FIELDS),
}


@dataclass(frozen=True)
class CellRow:
    """One cells-table row: keyfields + lifecycle + resultfields."""

    id: int
    key: CellKey
    domain: str
    status: str
    owner: str | None
    attempts: int
    claimed_at: float | None
    heartbeat: float | None
    finished_at: float | None
    error: str
    source: str
    ratio: float | None
    encode_mbs: float | None
    decode_mbs: float | None
    input_bytes: int | None
    compressed_bytes: int | None
    fingerprint: str | None
    measurement: str | None

    def resultfields(self) -> dict:
        return {name: getattr(self, name) for name in RESULT_FIELDS}


@dataclass(frozen=True)
class EventRow:
    """One logtable entry."""

    id: int
    cell_id: int
    worker: str
    kind: str
    payload: dict = field(default_factory=dict)
    created: float = 0.0


def _where(**equals) -> tuple[str, list]:
    """``WHERE`` clause and parameters for the filters that are not None."""
    given = {name: value for name, value in equals.items() if value is not None}
    clause = " AND ".join(f"{name} = ?" for name in given)
    return (f"WHERE {clause}" if clause else ""), list(given.values())


def _row_to_cell(row: sqlite3.Row) -> CellRow:
    columns = dict(row)
    key = CellKey(**{name: columns.pop(name) for name in KEY_FIELDS})
    return CellRow(key=key, **columns)


class ExperimentStore:
    """One connection to the experiment database.

    Instances are **not** thread-safe (SQLite connections are bound to
    their creating thread by default); open one store per thread or
    process.  Cross-process safety is the whole point: WAL journaling
    plus ``BEGIN IMMEDIATE`` claim transactions let any number of
    workers share one file.
    """

    def __init__(self, path: str | Path, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.conn = sqlite3.connect(self.path, timeout=timeout)
        self.conn.row_factory = sqlite3.Row
        # Autocommit mode: transactions are explicit (see transaction()),
        # so reads never hold a transaction open and writers serialize
        # only where we ask them to.
        self.conn.isolation_level = None
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._initialize()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        with self.transaction("IMMEDIATE"):
            # Not executescript(): that issues an implicit COMMIT, which
            # would silently break the surrounding transaction.
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    self.conn.execute(statement)
            row = self.conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None or row["value"] == "1":
                if row is not None:
                    # Additive upgrade: every version-1 row stays valid,
                    # it just has no provenance (so never serves a hit).
                    for column in PROVENANCE_FIELDS:
                        self.conn.execute(
                            f"ALTER TABLE cells ADD COLUMN {column} TEXT"
                        )
                self.set_meta("schema_version", SCHEMA_VERSION)
            elif row["value"] != str(SCHEMA_VERSION):
                raise ExperimentError(
                    f"{self.path} uses schema version {row['value']}, this "
                    f"build reads version {SCHEMA_VERSION}; start a fresh "
                    "database (or run with the matching build)"
                )

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def transaction(self, mode: str = "DEFERRED"):
        """Explicit transaction; ``IMMEDIATE`` takes the write lock up front."""
        self.conn.execute(f"BEGIN {mode}")
        try:
            yield self.conn
        except BaseException:
            self.conn.execute("ROLLBACK")
            raise
        else:
            self.conn.execute("COMMIT")

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------
    def set_meta(self, key: str, value) -> None:
        self.conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, json.dumps(value)),
        )

    def get_meta(self, key: str, default=None):
        row = self.conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return default
        if key == "schema_version":
            return row["value"]
        try:
            return json.loads(row["value"])
        except json.JSONDecodeError:
            return row["value"]

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def _insert(self, rows: list[dict], on_conflict: str) -> int:
        columns = tuple(_INSERT_DEFAULTS)
        sql = (
            f"INSERT INTO cells ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)}) "
            f"ON CONFLICT ({', '.join(KEY_FIELDS)}) DO {on_conflict}"
        )
        changed = 0
        with self.transaction("IMMEDIATE"):
            for row in rows:
                row = {**_INSERT_DEFAULTS, **row}
                if row["status"] not in STATUSES:
                    raise ExperimentError(
                        f"unknown cell status {row['status']!r}"
                    )
                cur = self.conn.execute(sql, [row[name] for name in columns])
                changed += cur.rowcount
        return changed

    def insert_cells(self, rows: list[dict]) -> int:
        """Insert cells, ignoring rows whose keyfields already exist.

        Each row dict needs the seven keyfields plus ``domain``; it may
        carry ``status``, ``source``, ``error``, ``finished_at``, and
        result / provenance fields.  Returns the number of rows actually
        added, so re-running a grid init reports only the new cells.
        """
        return self._insert(rows, "NOTHING")

    def upsert_cells(self, rows: list[dict]) -> int:
        """Insert cells, overwriting rows whose keyfields already exist.

        How ``fcbench run`` writes a measured cell back: a stale row (or
        a sweep's still-pending one) under the same keyfields is
        replaced by the fresh result.  Returns the rows written.
        """
        updates = ", ".join(
            f"{name} = excluded.{name}"
            for name in _INSERT_DEFAULTS
            if name not in KEY_FIELDS
        )
        return self._insert(rows, f"UPDATE SET {updates}")

    def delete_cells(self, ids: list[int]) -> int:
        """Delete the given cells and their events; returns cells deleted."""
        with self.transaction("IMMEDIATE"):
            marks = [(cell_id,) for cell_id in ids]
            self.conn.executemany(
                "DELETE FROM events WHERE cell_id = ?", marks
            )
            return self.conn.executemany(
                "DELETE FROM cells WHERE id = ?", marks
            ).rowcount

    def cells(
        self,
        status: str | None = None,
        dataset: str | None = None,
        codec: str | None = None,
    ) -> list[CellRow]:
        """Cells in id order, optionally filtered."""
        where, params = _where(status=status, dataset=dataset, codec=codec)
        rows = self.conn.execute(
            f"SELECT * FROM cells {where} ORDER BY id", params
        ).fetchall()
        return [_row_to_cell(row) for row in rows]

    def cell_by_id(self, cell_id: int) -> CellRow | None:
        row = self.conn.execute(
            "SELECT * FROM cells WHERE id = ?", (cell_id,)
        ).fetchone()
        return _row_to_cell(row) if row is not None else None

    def find_cell(self, key: CellKey) -> CellRow | None:
        where, params = _where(**key.as_dict())
        row = self.conn.execute(
            f"SELECT * FROM cells {where}", params
        ).fetchone()
        return _row_to_cell(row) if row is not None else None

    def counts(self) -> dict:
        """Cell count per status (every status present, even at 0)."""
        out = {status: 0 for status in STATUSES}
        for row in self.conn.execute(
            "SELECT status, COUNT(*) AS n FROM cells GROUP BY status"
        ):
            out[row["status"]] = row["n"]
        out["total"] = sum(out[s] for s in STATUSES)
        return out

    def write_result(
        self,
        cell_id: int,
        owner: str,
        status: str,
        resultfields: dict | None = None,
        error: str = "",
        now: float | None = None,
    ) -> bool:
        """Finish a claimed cell — only if ``owner`` still holds the claim.

        The guard (``WHERE id = ? AND owner = ? AND status = 'claimed'``)
        is what makes a heartbeat-expired worker harmless: once its
        claim reverted to pending (and was possibly re-claimed by
        someone else), its late write matches zero rows and returns
        False instead of clobbering the re-run.
        """
        if status not in ("done", "failed", "skipped"):
            raise ExperimentError(
                f"write_result only accepts terminal statuses, got {status!r}"
            )
        fields = dict(resultfields or {})
        writable = RESULT_FIELDS + PROVENANCE_FIELDS
        unknown = set(fields) - set(writable)
        if unknown:
            raise ExperimentError(
                f"unknown resultfields: {', '.join(sorted(unknown))}"
            )
        now = time.time() if now is None else now
        sets = ["status = ?", "finished_at = ?", "error = ?"]
        params: list = [status, now, error]
        for name in writable:
            if name in fields:
                sets.append(f"{name} = ?")
                params.append(fields[name])
        params += [cell_id, owner]
        with self.transaction("IMMEDIATE"):
            cur = self.conn.execute(
                f"UPDATE cells SET {', '.join(sets)} "
                "WHERE id = ? AND owner = ? AND status = 'claimed'",
                params,
            )
            return cur.rowcount == 1

    def reset_cells(self, statuses: tuple[str, ...] = ("failed",)) -> int:
        """Flip terminal cells back to pending (e.g. to retry failures)."""
        marks = ", ".join("?" for _ in statuses)
        with self.transaction("IMMEDIATE"):
            cur = self.conn.execute(
                f"UPDATE cells SET status = 'pending', owner = NULL, "
                f"error = '', finished_at = NULL WHERE status IN ({marks})",
                statuses,
            )
            return cur.rowcount

    # ------------------------------------------------------------------
    # Events (logtable)
    # ------------------------------------------------------------------
    def log_event(
        self,
        cell_id: int,
        worker: str,
        kind: str,
        payload: dict | None = None,
        now: float | None = None,
    ) -> None:
        self.conn.execute(
            "INSERT INTO events (cell_id, worker, kind, payload, created) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                cell_id,
                worker,
                kind,
                json.dumps(payload or {}, sort_keys=True),
                time.time() if now is None else now,
            ),
        )

    def events(
        self, cell_id: int | None = None, kind: str | None = None
    ) -> list[EventRow]:
        where, params = _where(cell_id=cell_id, kind=kind)
        rows = self.conn.execute(
            f"SELECT * FROM events {where} ORDER BY id", params
        ).fetchall()
        out = []
        for row in rows:
            try:
                payload = json.loads(row["payload"])
            except json.JSONDecodeError:
                payload = {}
            out.append(EventRow(**{**dict(row), "payload": payload}))
        return out
