"""Grid population and the resumable multi-worker sweep loop.

``fcbench sweep init`` expands a :class:`GridSpec` into cells-table
rows — idempotently, so re-running an init after widening the grid adds
only the missing cells.  ``fcbench sweep run --workers N`` spawns N
worker processes (the ``fcbench sweep worker`` verb) that repeatedly
claim a pending cell, execute it, and write the result back
transactionally.  Workers are crash-safe by construction: a SIGKILLed
worker's claim expires via the heartbeat timeout and its cell is
re-claimed by any survivor (see :mod:`repro.expdb.claim`).

This claim loop is one of two schedulers over one experiment function,
:func:`execute_cell`; ``run_suite`` (:mod:`repro.core.suite`) is the
other.  It exists because a claim lets OS worker processes outlive a
SIGKILLed sibling, where one dead ``ProcessPoolExecutor`` worker breaks
the in-process pool for all.

:func:`execute_cell` measures two kinds of cell:

* ``chunk_elements == 0`` cells run the legacy whole-array protocol
  through :class:`~repro.core.runner.BenchmarkRunner` and yield the
  full measurement plus its fingerprint — the very cell ``fcbench run``
  executes, so the two commands serve each other's hits;
* ``chunk_elements > 0`` cells measure the streaming surface — an FCF
  frame stream at the keyfield's chunk size, with ``jobs`` fanning
  chunk compression over the :mod:`repro.parallel` process pool
  and ``codec="auto"`` cells resolving their ``policy`` keyfield.  A
  fixed-codec stream cell is fingerprinted too, which is how Table 10's
  page-sized cells are served from the store like any suite cell.

External-corpus datasets without a local file mark their cells
``skipped`` (never failed); re-running ``sweep init`` after the files
arrive flips them back to pending.

The ``FCBENCH_SWEEP_DELAY_S`` environment variable inserts a sleep
between claim and execution — a fault-injection seam the crash-resume
tests (and the CI smoke job) use to SIGKILL a worker while it
demonstrably holds a claim.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.data.catalog import ExternalCorpus, dataset_names, get_spec
from repro.data.loader import check_target_elements
from repro.errors import DatasetError, ExperimentError
from repro.expdb.claim import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    Heartbeat,
    claim_next,
    make_owner_id,
    release_stale,
)
from repro.expdb.store import CellKey, ExperimentStore

__all__ = [
    "DEFAULT_SWEEP_CODECS",
    "DEFAULT_SWEEP_DATASETS",
    "GridSpec",
    "execute_cell",
    "expand_grid",
    "init_grid",
    "run_sweep",
    "worker_command",
    "worker_loop",
]

#: Fault-injection seam: seconds to sleep between claiming a cell and
#: executing it.  Used by crash-resume tests to kill a worker mid-cell.
DELAY_ENV = "FCBENCH_SWEEP_DELAY_S"

#: Default sweep codecs: one per architectural family (XOR-chain,
#: window-chained XOR, predictive + range coder, byte-transpose + LZ).
DEFAULT_SWEEP_CODECS = ("gorilla", "chimp", "fpzip", "bitshuffle-zstd")

#: Default sweep datasets: two per paper domain.
DEFAULT_SWEEP_DATASETS = (
    "msg-bt",
    "turbulence",
    "citytemp",
    "nyc-taxi",
    "acs-wht",
    "hdr-night",
    "tpcH-order",
    "tpcDS-store",
)

#: Cap on per-chunk logtable events per cell, so a million-chunk stream
#: cannot balloon the database.
MAX_CHUNK_EVENTS = 128


@dataclass(frozen=True)
class GridSpec:
    """The cross product ``fcbench sweep init`` expands into cells."""

    codecs: tuple[str, ...] = DEFAULT_SWEEP_CODECS
    datasets: tuple[str, ...] = DEFAULT_SWEEP_DATASETS
    chunk_elements: tuple[int, ...] = (4096,)
    jobs: tuple[int, ...] = (1,)
    policies: tuple[str, ...] = ("heuristic",)
    seeds: tuple[int, ...] = (0,)
    target_elements: int = 16_384

    def as_dict(self) -> dict:
        return {
            "codecs": list(self.codecs),
            "datasets": list(self.datasets),
            "chunk_elements": list(self.chunk_elements),
            "jobs": list(self.jobs),
            "policies": list(self.policies),
            "seeds": list(self.seeds),
            "target_elements": self.target_elements,
        }


def _known_codecs() -> list[str]:
    from repro.compressors import compressor_names

    return [*compressor_names(), "none", "auto"]


def validate_grid(grid: GridSpec, corpus: ExternalCorpus | None = None) -> None:
    """Reject unknown codecs/datasets before they become dead rows."""
    known = _known_codecs()
    bad = [codec for codec in grid.codecs if codec not in known]
    if bad:
        raise ExperimentError(
            f"unknown codec(s): {', '.join(bad)} "
            f"(known: {', '.join(known)})"
        )
    catalog = set(dataset_names())
    external = set(corpus.names()) if corpus is not None else set()
    bad = [d for d in grid.datasets if d not in catalog and d not in external]
    if bad:
        raise ExperimentError(
            f"unknown dataset(s): {', '.join(bad)} (neither in the catalog "
            "nor in the corpus manifest)"
        )
    if any(ce < 0 for ce in grid.chunk_elements):
        raise ExperimentError("chunk_elements must be >= 0 (0 = whole array)")
    check_target_elements(grid.target_elements)
    if any(j < 1 for j in grid.jobs):
        raise ExperimentError("jobs keyfield values must be >= 1")
    bad = [c for c in grid.codecs if c == "auto" and 0 in grid.chunk_elements]
    if bad:
        raise ExperimentError(
            "codec 'auto' needs chunk_elements > 0 (whole-array cells have "
            "no per-chunk selection)"
        )


def expand_grid(grid: GridSpec) -> list[CellKey]:
    """The full cross product; ``auto`` cells fan out per policy."""
    keys: list[CellKey] = []
    for codec in grid.codecs:
        policies = grid.policies if codec == "auto" else ("fixed",)
        for dataset in grid.datasets:
            for chunk_elements in grid.chunk_elements:
                for jobs in grid.jobs:
                    for policy in policies:
                        for seed in grid.seeds:
                            keys.append(
                                CellKey(
                                    codec=codec,
                                    dataset=dataset,
                                    chunk_elements=chunk_elements,
                                    jobs=jobs,
                                    policy=policy,
                                    seed=seed,
                                    target_elements=grid.target_elements,
                                )
                            )
    return keys


@dataclass
class InitSummary:
    """What one ``sweep init`` changed."""

    added: int = 0
    total: int = 0
    skipped_offline: int = 0
    revived: int = 0
    offline_datasets: list[str] = field(default_factory=list)


def init_grid(
    store: ExperimentStore,
    grid: GridSpec,
    corpus: ExternalCorpus | None = None,
    manifest_path: str | Path | None = None,
) -> InitSummary:
    """Expand ``grid`` into cells, idempotently.

    Existing rows (matched on the full keyfield tuple) are left alone,
    so re-running an init never resets finished work.  External-corpus
    datasets whose file is missing get their cells inserted as
    ``skipped``; once the file appears a later init revives them to
    pending (and vice versa — a file that vanished flips pending cells
    back to skipped, claimed/terminal cells untouched).
    """
    validate_grid(grid, corpus)
    summary = InitSummary()
    offline: set[str] = set()
    if corpus is not None:
        offline = {
            name
            for name in grid.datasets
            if name in corpus and not corpus.available(name)
        }
    rows = []
    for key in expand_grid(grid):
        row = key.as_dict()
        row["domain"] = _cell_spec(key, corpus).domain
        if key.dataset in offline:
            row["status"] = "skipped"
            row["error"] = "corpus file not present locally"
        rows.append(row)
    summary.added = store.insert_cells(rows)
    summary.offline_datasets = sorted(offline)

    # Availability transitions for external datasets (both directions).
    if corpus is not None:
        for name in grid.datasets:
            if name not in corpus:
                continue
            if corpus.available(name):
                with store.transaction("IMMEDIATE"):
                    cur = store.conn.execute(
                        "UPDATE cells SET status = 'pending', error = '' "
                        "WHERE dataset = ? AND status = 'skipped'",
                        (name,),
                    )
                summary.revived += cur.rowcount
            else:
                with store.transaction("IMMEDIATE"):
                    cur = store.conn.execute(
                        "UPDATE cells SET status = 'skipped', "
                        "error = 'corpus file not present locally' "
                        "WHERE dataset = ? AND status = 'pending'",
                        (name,),
                    )
                summary.skipped_offline += cur.rowcount

    store.set_meta("grid", grid.as_dict())
    if manifest_path is not None:
        store.set_meta("corpus_manifest", str(Path(manifest_path).resolve()))
    summary.total = store.counts()["total"]
    return summary


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _cell_spec(key: CellKey, corpus: ExternalCorpus | None):
    """The dataset's spec, from the corpus manifest or the catalog."""
    if corpus is not None and key.dataset in corpus:
        return corpus.spec(key.dataset)
    return get_spec(key.dataset)


def _load_cell_array(key: CellKey, corpus: ExternalCorpus | None) -> np.ndarray:
    """Materialize the cell's dataset (catalog or corpus)."""
    if corpus is not None and key.dataset in corpus:
        array = corpus.load(key.dataset)
        if key.target_elements > 0 and array.size > key.target_elements:
            array = array[: key.target_elements]
        return array
    from repro.data.loader import load

    return load(key.dataset, key.target_elements, key.seed)


def execute_cell(
    key: CellKey, corpus: ExternalCorpus | None = None, runner=None
) -> tuple[str, dict, str, list[dict]]:
    """Run one cell; returns ``(status, resultfields, error, events)``.

    The one experiment function: the sweep's claim loop and
    ``serve_cells`` (``run_suite``, Table 10) both call it with the
    keyfields (``runner`` replaces the default
    :class:`~repro.core.runner.BenchmarkRunner`, which measures a
    whole-array cell and fingerprints every cell).  Never raises: any
    failure becomes a ``failed`` (or, for an offline corpus file,
    ``skipped``) status, so one bad cell cannot take a worker down;
    whether a failure is persisted is the caller's decision.
    """
    spec = None  # stays None when the dataset name itself is the problem
    try:
        spec = _cell_spec(key, corpus)
        array = _load_cell_array(key, corpus)
        if key.chunk_elements > 0:
            return _execute_stream_cell(key, array, runner)
        if key.codec == "auto":
            return _failed(key, spec, "codec 'auto' requires chunk_elements > 0")
        return _execute_legacy_cell(key, array, spec, runner)
    except Exception as exc:  # fault isolation: one bad cell != dead sweep
        if (
            isinstance(exc, DatasetError)
            and corpus is not None
            and key.dataset in corpus
            and not corpus.available(key.dataset)
        ):
            return "skipped", {}, f"{exc}", []
        return _failed(key, spec, f"{type(exc).__name__}: {exc}")


def _failed(key: CellKey, spec, error: str):
    """A ``failed`` outcome no measurement backs (a crash, a bad key).

    A whole-array cell still carries a :class:`Measurement` — marked
    ``transient``, so ``run_suite`` returns it but never stores it —
    and no fingerprint, so the row the sweep loop persists (to be
    retried by ``sweep reset``) can never serve a hit.
    """
    fields = {}
    if key.chunk_elements == 0:
        from repro.core.results import Measurement

        measurement = Measurement.failed(
            key.codec, key.dataset, spec, error, transient=True
        )
        fields["measurement"] = json.dumps(asdict(measurement))
    return "failed", fields, error, []


def _execute_legacy_cell(key: CellKey, array, spec, runner):
    """Whole-array protocol — the same cell ``fcbench run`` measures."""
    from repro.core.runner import BenchmarkRunner
    from repro.core.suite import cell_fields

    runner = runner or BenchmarkRunner()
    measurement = runner.run_cell(key.codec, array, spec)
    events = [{"kind": "protocol", "payload": {"protocol": "legacy"}}]
    status = "done" if measurement.ok else "failed"
    return status, cell_fields(measurement, runner), measurement.error, events


def _execute_stream_cell(key: CellKey, array, runner):
    """Streaming protocol: FCF frames at the keyfield's chunk size.

    A fixed-codec cell carries the runner's fingerprint for its codec, so
    ``run_suite``'s store serves it as a hit (Table 10's page cells); an
    ``auto`` cell names no single codec and carries none.
    """
    from repro.api.session import CompressSession, decompress_array
    from repro.core.runner import BenchmarkRunner, verify_roundtrip
    from repro.errors import UnknownCodecError

    runner = runner or BenchmarkRunner()
    try:
        provenance = {"fingerprint": runner.cell_fingerprint(key.codec)}
    except UnknownCodecError:  # `auto` and the raw `none` name no codec
        provenance = {}
    work = np.ascontiguousarray(array)
    buf = io.BytesIO()
    t0 = time.perf_counter()
    session = CompressSession(
        buf,
        key.codec,
        work.dtype,
        chunk_elements=key.chunk_elements,
        jobs=key.jobs,
        shape=work.shape,
        policy=key.policy if key.codec == "auto" else "heuristic",
    )
    session.write(work)
    session.close()
    t1 = time.perf_counter()
    blob = buf.getvalue()
    restored = decompress_array(blob, jobs=key.jobs)
    t2 = time.perf_counter()
    if not verify_roundtrip(work, restored):
        return "failed", provenance, "roundtrip verification failed", []

    events: list[dict] = [
        {
            "kind": "encoded",
            "payload": {
                "protocol": "stream",
                "chunks": len(session.frames),
                "codec_frames": dict(session.codec_frames or {}),
            },
        }
    ]
    for index, frame in enumerate(session.frames[:MAX_CHUNK_EVENTS]):
        events.append(
            {
                "kind": "chunk",
                "payload": {
                    "index": index,
                    "n_elements": frame.n_elements,
                    "compressed_bytes": frame.compressed_bytes,
                },
            }
        )
    if len(session.frames) > MAX_CHUNK_EVENTS:
        events.append(
            {
                "kind": "chunk-events-truncated",
                "payload": {"total_chunks": len(session.frames)},
            }
        )
    fields = {
        "ratio": work.nbytes / len(blob) if blob else None,
        "input_bytes": int(work.nbytes),
        "compressed_bytes": len(blob),
        "encode_mbs": work.nbytes / (t1 - t0) / 1e6 if t1 > t0 else None,
        "decode_mbs": work.nbytes / (t2 - t1) / 1e6 if t2 > t1 else None,
        **provenance,
    }
    return "done", fields, "", events


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
def _corpus_from_meta(store: ExperimentStore) -> ExternalCorpus | None:
    manifest = store.get_meta("corpus_manifest")
    if not manifest:
        return None
    try:
        return ExternalCorpus.from_manifest(manifest)
    except DatasetError:
        # The manifest moved or broke after init; external cells will
        # fail with an unknown-dataset error, which is honest.
        return None


def worker_loop(
    db_path: str | Path,
    owner: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    max_cells: int | None = None,
    on_cell=None,
) -> dict:
    """Claim-and-execute until no pending cells remain.

    One iteration: expire stale claims, claim the oldest pending cell,
    execute it under a heartbeat, write the result back guarded by the
    owner id.  Returns a summary dict (owner, executed, done, failed,
    skipped, lost_claims, reclaimed).

    Parameters
    ----------
    db_path:
        The experiment database.
    owner:
        Owner id written on every claim (default: host, pid and a
        random suffix).
    heartbeat_interval:
        Seconds between claim heartbeats.
    heartbeat_timeout:
        Seconds of heartbeat silence before a claim is reaped.
    max_cells:
        Stop after this many executed cells.
    on_cell:
        ``on_cell(cell, status, fields, error)`` after each write-back.
    """
    owner = owner or make_owner_id()
    delay = float(os.environ.get(DELAY_ENV, "0") or 0)
    summary = {
        "owner": owner,
        "executed": 0,
        "done": 0,
        "failed": 0,
        "skipped": 0,
        "lost_claims": 0,
        "reclaimed": 0,
    }
    with ExperimentStore(db_path) as store:
        corpus = _corpus_from_meta(store)
        while True:
            summary["reclaimed"] += len(
                release_stale(store, heartbeat_timeout, worker=owner)
            )
            cell = claim_next(store, owner)
            if cell is None:
                break
            if delay > 0:
                time.sleep(delay)
            with Heartbeat(
                db_path, cell.id, owner, interval=heartbeat_interval
            ) as hb:
                status, fields, error, events = execute_cell(cell.key, corpus)
            if hb.lost:
                summary["lost_claims"] += 1
                continue
            wrote = store.write_result(cell.id, owner, status, fields, error)
            if not wrote:
                summary["lost_claims"] += 1
                continue
            for event in events:
                store.log_event(
                    cell.id, owner, event["kind"], event.get("payload")
                )
            store.log_event(cell.id, owner, status, {"error": error})
            summary["executed"] += 1
            summary[status] += 1
            if on_cell is not None:
                on_cell(cell, status, fields, error)
            if max_cells is not None and summary["executed"] >= max_cells:
                break
    return summary


# ----------------------------------------------------------------------
# Multi-worker driver
# ----------------------------------------------------------------------
def worker_command(
    db_path: str | Path,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    max_cells: int | None = None,
) -> list[str]:
    """The argv for one worker subprocess (``fcbench sweep worker``)."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "sweep",
        "worker",
        "--db",
        str(db_path),
        "--heartbeat-interval",
        str(heartbeat_interval),
        "--heartbeat-timeout",
        str(heartbeat_timeout),
        "--json",
    ]
    if max_cells is not None:
        cmd += ["--max-cells", str(max_cells)]
    return cmd


def worker_env() -> dict:
    """Subprocess env with the repro package importable (src layout)."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    parts = env.get("PYTHONPATH", "")
    if src not in parts.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + parts if parts else "")
    return env


def run_sweep(
    db_path: str | Path,
    workers: int = 1,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    max_cells: int | None = None,
    on_cell=None,
    on_progress=None,
) -> dict:
    """Drive the sweep to quiescence with ``workers`` processes.

    Parameters
    ----------
    db_path:
        The experiment database.
    workers:
        Worker processes; ``workers <= 1`` runs the loop in-process.
        Larger counts spawn real OS worker processes so a worker death —
        including SIGKILL — never takes the sweep down; survivors finish
        the grid and the dead worker's claimed cell is recovered by the
        heartbeat timeout on the next run (or by any survivor's reaper
        pass).
    heartbeat_interval, heartbeat_timeout, max_cells, on_cell:
        Forwarded to each :func:`worker_loop`.
    on_progress:
        ``on_progress(counts)`` about four times a second while worker
        processes run.
    """
    db_path = Path(db_path)
    with ExperimentStore(db_path) as store:
        release_stale(store, heartbeat_timeout)
        before = store.counts()

    if workers <= 1 or before["pending"] <= 1:
        summaries = [
            worker_loop(
                db_path,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                max_cells=max_cells,
                on_cell=on_cell,
            )
        ]
        exit_codes = [0]
    else:
        procs = []
        try:
            for _ in range(workers):
                procs.append(
                    subprocess.Popen(
                        worker_command(
                            db_path,
                            heartbeat_interval,
                            heartbeat_timeout,
                            max_cells,
                        ),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT,
                        env=worker_env(),
                        text=True,
                    )
                )
        except OSError:
            # Fork-less sandbox: degrade to the in-process loop.
            for proc in procs:
                proc.kill()
            return run_sweep(
                db_path,
                workers=1,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                max_cells=max_cells,
                on_cell=on_cell,
            )
        summaries, exit_codes = [], []
        if on_progress is not None:
            with ExperimentStore(db_path) as store:
                while any(proc.poll() is None for proc in procs):
                    on_progress(store.counts())
                    time.sleep(0.25)
        for proc in procs:
            output, _ = proc.communicate()
            exit_codes.append(proc.returncode)
            for line in reversed((output or "").splitlines()):
                try:
                    summaries.append(json.loads(line))
                    break
                except json.JSONDecodeError:
                    continue

    with ExperimentStore(db_path) as store:
        counts = store.counts()
    return {
        "workers": max(1, workers),
        "exit_codes": exit_codes,
        "summaries": summaries,
        "counts": counts,
        "executed": sum(s.get("executed", 0) for s in summaries),
    }
