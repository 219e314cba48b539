"""Experiment database: the one result store, resumable sweeps, reporting.

The subsystem behind ``fcbench sweep`` and ``fcbench report --db``, and
the store ``fcbench run / report / cache`` keep their
measured cells in (see :mod:`repro.core.suite`):

* :mod:`repro.expdb.store` — sqlite-backed experiment store
  (keyfields × resultfields × logtables, WAL mode, versioned schema);
* :mod:`repro.expdb.claim` — atomic claim-pending-row semantics with
  owner ids and heartbeats, so crashed workers lose nothing and late
  writers double nothing;
* :mod:`repro.expdb.sweep` — idempotent grid expansion plus the
  multi-process worker loop;
* :mod:`repro.expdb.report` — Friedman / Nemenyi / CD-diagram
  reporting over finished cells.

The design follows the keyfield/resultfield experiment-tracking pattern:
a cell is one point of the cross product, identified by its keyfields
(codec, dataset, chunk_elements, jobs, policy, seed, target_elements),
carrying its measured resultfields (ratio, throughputs, byte counts),
for whole-array cells the full measurement plus the fingerprint of the
code that produced it, and a per-cell event logtable.
"""

from repro.expdb.claim import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    Heartbeat,
    beat,
    claim_next,
    make_owner_id,
    release_stale,
)
from repro.expdb.report import (
    render_report,
    score_matrix,
    sweep_report,
    write_artifacts,
)
from repro.expdb.store import (
    RESULT_FIELDS,
    SCHEMA_VERSION,
    STATUSES,
    CellKey,
    CellRow,
    EventRow,
    ExperimentStore,
)
from repro.expdb.sweep import (
    DEFAULT_SWEEP_CODECS,
    DEFAULT_SWEEP_DATASETS,
    GridSpec,
    execute_cell,
    expand_grid,
    init_grid,
    run_sweep,
    worker_loop,
)

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_SWEEP_CODECS",
    "DEFAULT_SWEEP_DATASETS",
    "RESULT_FIELDS",
    "SCHEMA_VERSION",
    "STATUSES",
    "CellKey",
    "CellRow",
    "EventRow",
    "ExperimentStore",
    "GridSpec",
    "Heartbeat",
    "beat",
    "claim_next",
    "execute_cell",
    "expand_grid",
    "init_grid",
    "make_owner_id",
    "release_stale",
    "render_report",
    "run_sweep",
    "score_matrix",
    "sweep_report",
    "worker_loop",
    "write_artifacts",
]
