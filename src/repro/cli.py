"""``fcbench`` — drive the benchmark suite without pytest.

Subcommands:

* ``fcbench run``    — execute (a slice of) the measurement matrix,
  streaming per-cell status, with ``--jobs N`` parallelism; cells
  already in the result store (``results.sqlite``) are not re-run.
* ``fcbench report`` — render a paper table (4/5/6) or an arbitrary
  metric matrix from suite results; with ``--db`` render per-domain
  tables plus Friedman / Nemenyi / CD-diagram statistics from an
  experiment database (``--json`` and ``--artifacts`` for the
  machine-readable forms).
* ``fcbench sweep``  — the resumable experiment database:
  ``init`` expands a codec x dataset x configuration grid into pending
  cells (idempotently), ``run --workers N`` drives them to completion
  with crash-safe claim/heartbeat semantics, ``status`` shows progress,
  and ``reset`` re-queues failures.  See ``docs/experiments.md``.
* ``fcbench cache``  — inspect the result store (``inspect``, the
  default) or delete cells from it (``clear``, with ``--stale`` to drop
  only cells whose fingerprint — cache version, method source, modeled
  hardware — is out of date).
* ``fcbench compress / decompress / inspect`` — the streaming codec
  surface: turn a ``.npy`` array into a seekable ``.fcf`` frame stream
  (``--codec``, ``--chunk-elements``, ``--jobs``), restore it
  bit-exactly, or print a stream's header and chunk index.
  ``--codec auto`` selects a codec per chunk (``--policy
  heuristic|measured``) and writes a mixed-codec v2 stream.
* ``fcbench select explain`` — prints per-chunk features, the chosen
  codec, and the reason.
* ``fcbench serve``  — run the network compression service (an asyncio
  TCP server speaking the FCS wire protocol; see ``docs/service.md``)
  with request batching and graceful drain; ``--metrics-json`` writes
  the final metrics snapshot on shutdown.
* ``fcbench client`` — talk to a running server:
  ``ping | compress | decompress | stats``.  A served ``compress`` is
  byte-identical to the local one.
* ``fcbench trace`` — inspect a traced server's span buffer:
  ``tail | export | stats`` (see ``docs/observability.md``); the
  cluster-wide view is ``fcbench cluster trace``.
* ``fcbench list``   — enumerate the registered methods and datasets
  (``--json`` for machine-readable registry introspection).

Usage — run a single cell, then clear the stored cell it left behind:

    >>> import tempfile, os
    >>> os.environ["FCBENCH_CACHE_DIR"] = tempfile.mkdtemp()
    >>> from repro.cli import main
    >>> main(["run", "--methods", "gorilla", "--datasets", "citytemp",
    ...       "--target-elements", "512", "--quiet"])  # doctest: +ELLIPSIS
    ran 1 cells in ...s (jobs=1) ok=1 failed=0 cache: 0 hits / 1 misses fingerprint=...
    0
    >>> main(["cache", "clear"])
    cleared (all): 1 cell(s), 0 kept
    0

Stream a ``.npy`` array into the frame format and back, bit-exactly:

    >>> import numpy as np
    >>> d = tempfile.mkdtemp()
    >>> npy = os.path.join(d, "field.npy")
    >>> np.save(npy, np.linspace(0.0, 1.0, 3000).reshape(3, 1000))
    >>> main(["compress", npy, npy + ".fcf", "--codec", "gorilla",
    ...       "--chunk-elements", "1024", "--quiet"])
    0
    >>> main(["inspect", npy + ".fcf"])  # doctest: +ELLIPSIS
    codec            gorilla
    version          1
    dtype            float64
    shape            3x1000
    chunk elements   1024
    chunks           3
    raw bytes        24000
    compressed bytes ...
    ratio            ...
    0
    >>> main(["decompress", npy + ".fcf", os.path.join(d, "back.npy"),
    ...       "--quiet"])
    0
    >>> bool(np.array_equal(np.load(os.path.join(d, "back.npy")),
    ...                     np.load(npy)))
    True

Exit codes: 0 on success (the summary line still reports per-cell
failures, which include the paper's deliberate "-" skip cells), 1 when
*no* cell produced a measurement, 2 on bad arguments — any
``ReproError``, ``OSError`` or ``ValueError`` a command raises is one
``error: …`` line.  A flag that feeds a library keyword is declared by
naming the keyword (:func:`_derive`), and only the invoked command's
options are declared (:func:`build_parser`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.compressors import compressor_names, get_compressor, paper_table_order
from repro.data.catalog import CATALOG, dataset_names
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _csv(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _validate(kind: str, names: list[str] | None, known: list[str]) -> list[str] | None:
    if names is None:
        return None
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"error: unknown {kind}: {', '.join(unknown)}\n"
            f"known {kind}: {', '.join(known)}"
        )
    return names


# ----------------------------------------------------------------------
# fcbench run
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.suite import run_suite_detailed

    methods = _validate("methods", _csv(args.methods), compressor_names())
    datasets = _validate("datasets", _csv(args.datasets), dataset_names())
    total = len(methods or paper_table_order()) * len(datasets or dataset_names())
    done = {"n": 0}

    def on_cell(key, measurement, elapsed: float) -> None:
        done["n"] += 1
        if args.quiet:
            return
        if measurement.ok:
            status = f"CR={measurement.compression_ratio:7.3f}"
        else:
            status = f"skip ({measurement.error})"
        timing = "   cached" if elapsed == 0.0 else f"{elapsed * 1e3:7.1f}ms"
        print(
            f"[{done['n']:4d}/{total}] {key.dataset:<16} {key.codec:<16} "
            f"{timing}  {status}",
            flush=True,
        )

    run = run_suite_detailed(
        methods=methods,
        datasets=datasets,
        on_cell=on_cell,
        **_picked(args, run_suite_detailed),
    )
    ok = sum(1 for m in run.results.measurements if m.ok)
    failed = len(run.results) - ok
    stats = run.cache_stats
    print(
        f"ran {len(run.results)} cells in {run.elapsed_seconds:.2f}s "
        f"(jobs={run.jobs}) ok={ok} failed={failed} "
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"fingerprint={run.results.fingerprint()}"
    )
    # "failed" includes the paper's deliberate "-" cells (GFC size skips);
    # only a run where nothing succeeded signals a broken harness.
    return 0 if ok else 1


# ----------------------------------------------------------------------
# fcbench report
# ----------------------------------------------------------------------
_REPORT_PRESETS = ("table4", "table5", "table6")


def _existing_db(path: str, hint: str = "") -> str:
    import os

    if not os.path.exists(path):
        raise SystemExit(f"error: no experiment database at {path!r}{hint}")
    return path


def _cmd_report(args: argparse.Namespace) -> int:
    if args.db:
        return _cmd_report_db(args)
    if args.json is not None or args.artifacts:
        raise SystemExit(
            "error: --json/--artifacts render the experiment database; "
            "pass --db PATH"
        )
    from repro.core.suite import run_suite_detailed

    methods = _validate("methods", _csv(args.methods), compressor_names())
    datasets = _validate("datasets", _csv(args.datasets), dataset_names())
    run = run_suite_detailed(
        methods=methods, datasets=datasets, **_picked(args, run_suite_detailed)
    )
    results = run.results
    if args.metric:
        print(_metric_matrix(results, args.metric))
        return 0
    from repro.core import experiments

    driver = {
        "table4": experiments.table4_cr_matrix,
        "table5": experiments.table5_throughput,
        "table6": experiments.table6_walltime,
    }[args.what]
    print(driver(results))
    return 0


def _cmd_report_db(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.expdb import ExperimentStore, render_report, sweep_report
    from repro.expdb.report import METRICS, write_artifacts

    _existing_db(args.db)
    metric = args.metric or "ratio"
    if metric not in METRICS:
        raise SystemExit(
            f"error: unknown sweep metric {metric!r}\n"
            f"sweep metrics: {', '.join(METRICS)}"
        )
    with ExperimentStore(args.db) as store:
        report = sweep_report(store, metric=metric, **_picked(args, sweep_report))
    if args.artifacts:
        for path in write_artifacts(report, args.artifacts):
            print(f"wrote {path}")
    if args.json is None:
        print(render_report(report), end="")
    elif args.json == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


def _metric_matrix(results, metric: str) -> str:
    import dataclasses

    from repro.core.report import format_matrix
    from repro.core.results import Measurement

    numeric = [
        f.name
        for f in dataclasses.fields(Measurement)
        if f.type in ("int", "float")
    ]
    if metric not in numeric:
        raise SystemExit(
            f"error: unknown metric {metric!r}\n"
            f"numeric metrics: {', '.join(numeric)}"
        )
    methods = results.methods()
    datasets = results.datasets()
    matrix = results.matrix(metric, methods, datasets)
    display = [get_compressor(m).info.display_name for m in methods]
    return format_matrix(datasets, display, matrix, title=f"metric: {metric}")


# ----------------------------------------------------------------------
# fcbench cache
# ----------------------------------------------------------------------
def _cmd_cache(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.core.report import format_table
    from repro.core.runner import CACHE_VERSION
    from repro.core.suite import open_store, stored_cells

    with open_store() as store:
        cells = list(stored_cells(store))
        stale = [row.id for row, fields in cells if fields is None]
        if args.action == "clear":
            doomed = stale if args.stale else [row.id for row in store.cells()]
            removed = store.delete_cells(doomed)
            if not args.stale:
                store.set_meta("last_run", None)
            mode = "stale" if args.stale else "all"
            print(
                f"cleared ({mode}): {removed} cell(s), "
                f"{len(cells) - len(stale) if args.stale else 0} kept"
            )
            return 0
        last = store.get_meta("last_run")
    size = store.path.stat().st_size / 1024
    print(f"cache root: {store.path.parent}")
    print(f"cache version: {CACHE_VERSION}")
    print(f"cells: {len(cells)} ({len(stale)} stale, {size:.1f} KiB)")
    per_method = Counter(row.key.codec for row, _ in cells)
    if per_method:
        rows = [[name, str(n)] for name, n in sorted(per_method.items())]
        print(format_table(["method", "cells"], rows))
    if last:
        print(
            f"last run: {last.get('hits', 0)} hits / "
            f"{last.get('misses', 0)} misses over {last.get('cells', '?')} cells "
            f"(jobs={last.get('jobs', '?')}, "
            f"{last.get('elapsed_seconds', '?')}s)"
        )
    return 0


# ----------------------------------------------------------------------
# fcbench sweep (the experiment database)
# ----------------------------------------------------------------------
def _sweep_grid(args: argparse.Namespace):
    """The default :class:`GridSpec` with every comma list given replaced."""
    import dataclasses

    from repro.expdb import GridSpec

    overrides = {}
    for field in ("codecs", "datasets", "chunk_elements", "jobs", "policies", "seeds"):
        if getattr(args, field):
            values = _csv(getattr(args, field))
            numeric = field in ("chunk_elements", "jobs", "seeds")
            overrides[field] = tuple(int(v) if numeric else v for v in values)
    if args.target_elements:
        overrides["target_elements"] = args.target_elements
    return dataclasses.replace(GridSpec(), **overrides)


def _cmd_sweep_init(args: argparse.Namespace) -> int:
    from repro.data.catalog import ExternalCorpus
    from repro.expdb import ExperimentStore, init_grid

    corpus = ExternalCorpus.from_manifest(args.corpus) if args.corpus else None
    grid = _sweep_grid(args)
    with ExperimentStore(args.db) as store:
        summary = init_grid(store, grid, corpus, manifest_path=args.corpus)
        counts = store.counts()
    line = (
        f"grid: {summary.added} added, {counts['total']} total cells "
        f"({counts['pending']} pending, {counts['done']} done, "
        f"{counts['skipped']} skipped)"
    )
    if summary.offline_datasets:
        line += f"  offline: {', '.join(summary.offline_datasets)}"
    if summary.revived:
        line += f"  revived: {summary.revived}"
    print(line)
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.expdb import run_sweep, worker_loop
    from repro.expdb.store import CellRow

    _existing_db(args.db, " (run `fcbench sweep init` first)")

    def on_cell(cell: CellRow, status: str, fields: dict, error: str) -> None:
        if args.quiet:
            return
        key = cell.key
        detail = (
            f"CR={fields['ratio']:.3f}"
            if status == "done" and fields.get("ratio")
            else error
        )
        print(
            f"{key.dataset:<16} {key.method_label:<16} "
            f"ce={key.chunk_elements:<6} {status:<8} {detail}",
            flush=True,
        )

    def on_progress(counts: dict) -> None:
        if args.quiet:
            return
        print(
            f"\r{counts['done']} done / {counts['failed']} failed / "
            f"{counts['pending']} pending / {counts['claimed']} claimed",
            end="",
            flush=True,
        )

    summary = run_sweep(
        args.db,
        on_cell=on_cell,
        on_progress=None if args.quiet or args.workers <= 1 else on_progress,
        **_picked(args, run_sweep),
        **_picked(args, worker_loop),
    )
    if not args.quiet and args.workers > 1:
        print()
    counts = summary["counts"]
    print(
        f"sweep: executed {summary['executed']} cells with "
        f"{summary['workers']} worker(s); now {counts['done']} done / "
        f"{counts['failed']} failed / {counts['skipped']} skipped / "
        f"{counts['pending']} pending"
    )
    return 0 if counts["pending"] == 0 and counts["claimed"] == 0 else 1


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    """Internal verb: one worker process (spawned by ``sweep run``)."""
    import json

    from repro.expdb import worker_loop

    summary = worker_loop(args.db, **_picked(args, worker_loop))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"worker {summary['owner']}: {summary['executed']} executed "
            f"({summary['done']} done, {summary['failed']} failed, "
            f"{summary['skipped']} skipped)"
        )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    import json

    from repro.expdb import ExperimentStore

    with ExperimentStore(_existing_db(args.db)) as store:
        counts = store.counts()
        grid = store.get_meta("grid")
        claimed = store.cells(status="claimed")
        failed = store.cells(status="failed")
    if args.json:
        print(
            json.dumps(
                {
                    "counts": counts,
                    "grid": grid,
                    "claimed": [
                        {"id": c.id, "owner": c.owner, **c.key.as_dict()}
                        for c in claimed
                    ],
                    "failed": [
                        {"id": c.id, "error": c.error, **c.key.as_dict()}
                        for c in failed
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{counts['total']} cells: {counts['done']} done, "
        f"{counts['failed']} failed, {counts['skipped']} skipped, "
        f"{counts['pending']} pending, {counts['claimed']} claimed"
    )
    for cell in claimed:
        print(
            f"  claimed: {cell.key.dataset}/{cell.key.method_label} "
            f"by {cell.owner}"
        )
    for cell in failed[:10]:
        print(
            f"  failed: {cell.key.dataset}/{cell.key.method_label}: "
            f"{cell.error}"
        )
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more failures")
    return 0


def _cmd_sweep_reset(args: argparse.Namespace) -> int:
    from repro.expdb import ExperimentStore

    statuses = tuple(_csv(args.statuses) or ("failed",))
    with ExperimentStore(_existing_db(args.db)) as store:
        reset = store.reset_cells(statuses)
    print(f"reset {reset} cell(s) ({', '.join(statuses)} -> pending)")
    return 0


# ----------------------------------------------------------------------
# fcbench compress / decompress / inspect (the streaming surface)
# ----------------------------------------------------------------------
def _load_npy(path: str):
    import numpy as np

    try:
        array = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path!r}: {exc}") from exc
    if array.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise SystemExit(
            f"error: {path!r} holds {array.dtype}; the frame format stores "
            "float32/float64 (cast the array first)"
        )
    return array


def _build_policy(args: argparse.Namespace):
    """Resolve the ``--policy`` family of flags into a policy instance."""
    from repro.select import resolve_policy

    options: dict = {}
    if args.policy == "measured" and args.select_sample is not None:
        options["sample_elements"] = args.select_sample
    return resolve_policy(args.policy, **options)


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.api import AUTO_CODEC, CompressSession, available_codecs, open_stream

    known = [*available_codecs(), AUTO_CODEC]
    if args.codec not in known:
        raise SystemExit(
            f"error: unknown codec {args.codec!r}\n"
            f"known codecs: {', '.join(known)}"
        )
    codec = args.codec
    if codec == AUTO_CODEC:
        codec = _build_policy(args)
    array = _load_npy(args.input)
    out = open_stream(
        args.output,
        "wb",
        codec=codec,
        dtype=array.dtype,
        shape=array.shape,
        **_picked(args, CompressSession),
    )
    with out:
        out.write(array)
    if not args.quiet:
        import os

        compressed = os.path.getsize(args.output)
        ratio = out.raw_bytes / compressed if compressed else float("inf")
        chosen = ""
        if out.codec_frames:
            counts = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(out.codec_frames.items())
            )
            chosen = f" [{counts}]"
        print(
            f"{args.input} -> {args.output}: {array.size} elements in "
            f"{len(out.frames)} chunk(s), {out.raw_bytes} -> {compressed} "
            f"bytes (ratio {ratio:.3f}, codec {args.codec}){chosen}"
        )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import DecompressSession, open_stream

    try:
        with open_stream(args.input, **_picked(args, DecompressSession)) as stream:
            array = stream.read_all()
            codec = stream.codec_name
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input!r}: {exc}") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {args.input}: {exc}") from exc
    np.save(args.output, array)
    if not args.quiet:
        print(
            f"{args.input} -> {args.output}: {array.size} x {array.dtype} "
            f"restored (shape {'x'.join(map(str, array.shape))}, codec {codec})"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.api import open_stream

    try:
        with open_stream(args.file) as stream:
            dtype = stream.dtype
            raw = stream.n_elements * dtype.itemsize
            compressed = stream.compressed_bytes
            frame_codecs = stream.frame_codec_names()
            payload = {
                "codec": stream.codec_name,
                "format_version": stream.format_version,
                "codec_table": list(stream.codec_table),
                "dtype": str(dtype),
                "shape": list(stream.shape),
                "chunk_elements": stream.chunk_elements,
                "n_chunks": stream.n_chunks,
                "n_elements": stream.n_elements,
                "raw_bytes": raw,
                "compressed_bytes": compressed,
                "compression_ratio": raw / compressed if compressed else None,
                "chunks": [
                    {
                        "n_elements": f.n_elements,
                        "compressed_bytes": f.compressed_bytes,
                        "offset": f.offset,
                        "codec": name,
                    }
                    for f, name in zip(stream.frames, frame_codecs)
                ],
            }
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.file!r}: {exc}") from exc
    except ReproError as exc:
        raise SystemExit(f"error: {args.file}: {exc}") from exc
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    ratio = payload["compression_ratio"]
    rows = [
        ("codec", payload["codec"]),
        ("version", str(payload["format_version"])),
        ("dtype", payload["dtype"]),
        ("shape", "x".join(map(str, payload["shape"])) or "scalar"),
        ("chunk elements", str(payload["chunk_elements"])),
        ("chunks", str(payload["n_chunks"])),
        ("raw bytes", str(raw)),
        ("compressed bytes", str(compressed)),
        ("ratio", f"{ratio:.3f}" if ratio else "inf"),
    ]
    if payload["codec_table"]:
        from collections import Counter

        counts = Counter(frame_codecs)
        rows.insert(
            2,
            (
                "codec table",
                ", ".join(
                    f"{name} x{counts.get(name, 0)}"
                    for name in payload["codec_table"]
                ),
            ),
        )
    for key, value in rows:
        print(f"{key:<16} {value}")
    return 0


# ----------------------------------------------------------------------
# fcbench select
# ----------------------------------------------------------------------
def _explain_input(args: argparse.Namespace):
    """``select explain`` takes a .npy path or a catalog dataset name."""
    import os

    from repro.data.loader import load

    if os.path.exists(args.input):
        return _load_npy(args.input)
    if args.input in dataset_names():
        return load(args.input, **_picked(args, load))
    raise SystemExit(
        f"error: {args.input!r} is neither a readable .npy file nor a "
        "catalog dataset name (see `fcbench list --datasets`)"
    )


def _cmd_select_explain(args: argparse.Namespace) -> int:
    import json

    from repro.select import explain

    document = explain(_explain_input(args), _build_policy(args), args.chunk_elements)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    chunks = document["chunks"]
    print(
        f"policy {document['policy']}  "
        f"candidates: {', '.join(document['candidates'])}"
    )
    for index, chunk in enumerate(chunks):
        print(
            f"chunk {index:4d} @ {chunk['start']:>10d}  -> {chunk['codec']:<16} "
            f"({chunk['reason']})"
        )
        if args.verbose:
            features = chunk["features"]
            print(
                f"            frac_unique={features['frac_unique']:.3f} "
                f"autocorr={features['lag1_autocorr']:+.3f} "
                f"byte_entropy={features['byte_entropy']:.2f} "
                f"xor_sig={features['xor_significant_fraction']:.2f} "
                f"decimals={features['decimal_digits']}"
            )
    from collections import Counter

    counts = Counter(chunk["codec"] for chunk in chunks)
    summary = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
    print(f"{len(chunks)} chunk(s): {summary}")
    return 0


# ----------------------------------------------------------------------
# fcbench serve / client (the network compression service)
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service.server import CompressionServer, run_server

    tenants = None
    if args.tenants:
        from repro.service.tenants import TenantRegistry

        try:
            tenants = TenantRegistry.load(args.tenants)
        except (OSError, ReproError) as exc:
            raise SystemExit(
                f"error: bad tenants file {args.tenants!r}: {exc}"
            ) from exc

    gateways = []

    def on_ready(server) -> None:
        # Machine-parseable: CI greps this line for the ephemeral port.
        print(f"serving on {server.host}:{server.port}", flush=True)
        if args.gateway_port is not None:
            from repro.service.gateway import ObservabilityGateway

            gateway = ObservabilityGateway(
                server, host=args.host, port=args.gateway_port
            ).start()
            gateways.append(gateway)
            # Machine-parseable: CI greps this line for the scrape port.
            print(f"gateway on {gateway.host}:{gateway.port}", flush=True)
        if not args.quiet and tenants is not None:
            print(f"  tenants={len(tenants)} from {args.tenants}", flush=True)

    topology = None
    if args.topology_json:
        from repro.errors import ProtocolError
        from repro.service.protocol import validate_topology

        try:
            with open(args.topology_json) as fh:
                topology = validate_topology(json.load(fh))
        except (OSError, json.JSONDecodeError, ProtocolError) as exc:
            raise SystemExit(
                f"error: bad topology file {args.topology_json!r}: {exc}"
            ) from exc

    try:
        metrics = run_server(
            on_ready=on_ready,
            topology=topology,
            tenants=tenants,
            **_picked(args, run_server),
            **_picked(args, CompressionServer),
        )
    finally:
        for gateway in gateways:
            gateway.stop()
    snapshot = metrics.snapshot()
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_json}")
    elif not args.quiet:
        ops = snapshot["ops"]
        served = ", ".join(
            f"{op} x{c['requests']}" for op, c in ops.items()
        ) or "nothing"
        print(f"drained: served {served}")
    return 0


def _dial(args: argparse.Namespace):
    """The one client every talking command uses: ``--host``/``--port``
    (or, for the cluster's control port, the ``--state`` file) plus the
    keywords ``fcbench client`` derives, else ``--timeout`` and no retry."""
    import json

    from repro.service.client import ServiceClient

    host, port = args.host, args.port
    if port is None:
        state_path = args.state or "cluster.json"
        try:
            with open(state_path) as fh:
                state = json.load(fh)
            host = state["control"]["host"]
            port = int(state["control"]["port"])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise SystemExit(
                f"error: cannot read cluster state {state_path!r}: {exc} "
                "(pass --port, or --state pointing at the supervisor's "
                "cluster.json)"
            ) from exc
    options = _picked(args, ServiceClient) or {"retry": 0, "deadline": args.timeout}
    return ServiceClient(host, port, **options)


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.service.client import ServiceClient

    if args.client_command == "ping":
        with _dial(args) as client:
            seconds = client.ping()
        print(f"pong from {args.host}:{args.port} in {seconds * 1e3:.2f}ms")
    elif args.client_command == "stats":
        with _dial(args) as client:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
    elif args.client_command == "compress":
        array = _load_npy(args.input)
        with _dial(args) as client:
            blob = client.compress_array(
                array, **_picked(args, ServiceClient.compress_array)
            )
        with open(args.output, "wb") as fh:
            fh.write(blob)
        if not args.quiet:
            ratio = array.nbytes / len(blob) if blob else float("inf")
            print(
                f"{args.input} -> {args.output}: {array.size} elements, "
                f"{array.nbytes} -> {len(blob)} bytes "
                f"(ratio {ratio:.3f}, codec {args.codec}, served by "
                f"{args.host}:{args.port})"
            )
    else:  # decompress
        try:
            with open(args.input, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read {args.input!r}: {exc}") from exc
        with _dial(args) as client:
            array = client.decompress_array(blob)
        np.save(args.output, array)
        if not args.quiet:
            print(
                f"{args.input} -> {args.output}: {array.size} x {array.dtype} "
                f"restored (shape {'x'.join(map(str, array.shape))})"
            )
    return 0


# ----------------------------------------------------------------------
# fcbench tenant (multi-tenant registry management)
# ----------------------------------------------------------------------
def _load_registry(path, *, must_exist: bool):
    import os

    from repro.service.tenants import TenantRegistry

    if not os.path.exists(path):
        if must_exist:
            raise SystemExit(f"error: no tenants file at {path!r}")
        return TenantRegistry()
    return TenantRegistry.load(path)


def _cmd_tenant(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.service.tenants import TenantConfig, TenantRegistry, generate_token

    if args.tenant_command == "create":
        registry = _load_registry(args.file, must_exist=False)
        token = args.token or generate_token()
        registry.add(
            TenantConfig(args.tenant_id, token=token, **_picked(args, TenantConfig))
        )
        registry.save(args.file)
        # The one moment the token is shown: it is never readable from
        # stats or the gateway afterwards.
        print(f"tenant {args.tenant_id!r} created in {args.file}")
        print(f"token: {token}")
        return 0

    if args.tenant_command == "quota":
        registry = _load_registry(args.file, must_exist=True)
        if args.tenant_id not in registry.tenant_ids():
            raise SystemExit(f"error: unknown tenant {args.tenant_id!r}")
        changes = {}
        if args.priority is not None:
            changes["priority"] = args.priority
        if args.max_bytes is not None:
            changes["max_bytes_per_window"] = (
                None if args.max_bytes < 0 else args.max_bytes
            )
        if args.max_requests is not None:
            changes["max_requests_per_window"] = (
                None if args.max_requests < 0 else args.max_requests
            )
        if args.window is not None:
            changes["window_seconds"] = args.window
        if not changes:
            raise SystemExit(
                "error: nothing to change (pass --priority, --max-bytes, "
                "--max-requests, or --window)"
            )
        # TenantConfig is frozen and the registry append-only, so a
        # quota change rebuilds the registry with one tenant replaced.
        updated = TenantRegistry()
        for tenant_id in registry.tenant_ids():
            tenant = registry.get(tenant_id)
            if tenant_id == args.tenant_id:
                tenant = dataclasses.replace(tenant, **changes)
            updated.add(tenant)
        updated.save(args.file)
        row = updated.get(args.tenant_id).as_dict()
        row.pop("token", None)
        print(json.dumps({args.tenant_id: row}, indent=2, sort_keys=True))
        return 0

    if args.tenant_command == "list":
        registry = _load_registry(args.file, must_exist=True)
        snap = registry.snapshot()["tenants"]
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0

    # stats: dial a live server and print its tenancy accounting
    with _dial(args) as client:
        stats = client.stats()
    body = {
        "tenancy": stats.get("tenancy", {}),
        "tenants": stats.get("tenants", {}),
    }
    print(json.dumps(body, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# fcbench cluster (sharded multi-node serving)
# ----------------------------------------------------------------------
def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import signal
    import time as _time

    from repro.cluster import ClusterSupervisor

    supervisor = ClusterSupervisor(**_picked(args, ClusterSupervisor))
    supervisor.start()

    stop = []

    def _signal(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.append(signum)

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)

    # Machine-parseable lines: CI greps the control address and the
    # state-file path.
    print(
        f"cluster control on {supervisor.control_host}:"
        f"{supervisor.control_port}",
        flush=True,
    )
    print(f"cluster state file {supervisor.state_path}", flush=True)
    for entry in supervisor.status()["nodes"]:
        print(
            f"  node {entry['id']} serving on "
            f"{entry['host']}:{entry['port']} (pid {entry['pid']})",
            flush=True,
        )
    if not args.quiet:
        print(
            f"  replication={supervisor.replication} "
            f"vnodes={supervisor.vnodes} "
            f"restart={'on' if not args.no_restart else 'off'}  "
            "(Ctrl-C stops the cluster)",
            flush=True,
        )
    try:
        while not stop:
            _time.sleep(0.2)
    finally:
        supervisor.stop()
    if not args.quiet:
        restarts = sum(
            entry["restarts"] for entry in supervisor.status()["nodes"]
        )
        print(f"cluster stopped ({restarts} node restart(s) over its life)")
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from repro.core.report import format_table

    with _dial(args) as client:
        status = client.cluster_control("status")
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    control = status["control"]
    print(
        f"supervisor pid {status['supervisor_pid']} on "
        f"{control['host']}:{control['port']}  "
        f"replication={status['replication']} vnodes={status['vnodes']}"
    )
    rows = [
        [
            entry["id"],
            f"{entry['host']}:{entry['port']}",
            entry["state"],
            str(entry["pid"] or "-"),
            str(entry["restarts"]),
        ]
        for entry in status["nodes"]
    ]
    print(format_table(["node", "address", "state", "pid", "restarts"], rows))
    return 0


def _cmd_cluster_drain(args: argparse.Namespace) -> int:
    with _dial(args) as client:
        entry = client.cluster_control("drain", args.node)
    print(
        f"drained {entry['id']} ({entry['host']}:{entry['port']}): "
        f"state={entry['state']} — traffic now fails over to its replicas"
    )
    return 0


def _show_spans(doc: dict, args: argparse.Namespace, empty: str) -> int:
    """The one span renderer: the raw document (``--json``), a
    chrome://tracing file (``--out`` / ``--export``), or indented
    parent→child trees."""
    import datetime
    import json

    from repro.obs import build_trace_tree, chrome_trace_events

    spans = doc.get("spans", [])
    export = getattr(args, "out", None) or getattr(args, "export", None)
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if export:
        with open(export, "w") as fh:
            json.dump({"traceEvents": chrome_trace_events(spans)}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {export} ({len(spans)} span(s); open in chrome://tracing)")
        return 0
    if not spans:
        print(empty)
        return 0

    def _walk(node, depth: int) -> None:
        ts = datetime.datetime.fromtimestamp(node["start"]).strftime(
            "%H:%M:%S.%f"
        )[:-3]
        attrs = node.get("attributes") or {}
        extras = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        flag = "  [ERROR]" if node.get("status") == "error" else ""
        print(
            f"{ts}  {node.get('duration_ms') or 0.0:>9.3f}ms  "
            f"{node['trace_id'][:8]}  {'  ' * depth}{node['name']}{flag}"
            + (f"  {extras}" if extras else "")
        )
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in build_trace_tree(spans):
        _walk(root, 0)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    with _dial(args) as client:
        doc = client.trace(
            limit=getattr(args, "limit", None),
            trace_id=getattr(args, "trace_id", None),
        )
    if args.trace_command == "stats":
        print(json.dumps(doc.get("stats", {}), indent=2, sort_keys=True))
        return 0
    if not (doc.get("stats") or {}).get("enabled"):
        raise SystemExit(
            f"error: tracing is disabled on {doc.get('node', 'the server')} "
            "(start it with 'fcbench serve --trace')"
        )
    return _show_spans(doc, args, "no spans recorded yet")


def _cmd_cluster_trace(args: argparse.Namespace) -> int:
    with _dial(args) as client:
        doc = client.trace(limit=args.limit, trace_id=args.trace_id)
    if not (args.json or args.export):
        nodes = doc.get("nodes", {})
        for node_id in sorted(nodes):
            entry = nodes[node_id]
            if "error" in entry:
                print(f"node {node_id}: unreachable ({entry['error']})")
            else:
                state = "tracing" if entry.get("enabled") else "tracing disabled"
                print(
                    f"node {node_id}: {state}, "
                    f"{entry.get('buffered', 0)} span(s) buffered"
                )
        if doc.get("spans"):
            print()
    return _show_spans(
        doc, args, "no spans recorded yet (start the cluster with --trace)"
    )


# ----------------------------------------------------------------------
# fcbench chaos
# ----------------------------------------------------------------------
def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.chaos import FaultPlan, run_chaos_soak

    options = _picked(args, run_chaos_soak)
    if args.plan:
        try:
            options["plan"] = FaultPlan.from_json(Path(args.plan).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load plan {args.plan!r}: {exc}")
    if args.no_kill:
        options["kill_node"] = None
    report = run_chaos_soak(**options)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"chaos soak: {report['ops']} ops in "
        f"{report['duration_seconds']:.1f}s — availability "
        f"{report['availability'] * 100:.2f}%, "
        f"{report['deadline_misses']} deadline misses, "
        f"{report['byte_identity_failures']} byte-identity failures, "
        f"p99 {report['latency_under_faults']['p99_ms']:.1f}ms under faults",
        flush=True,
    )
    failed = []
    if report["availability"] < args.min_availability:
        failed.append(
            f"availability {report['availability'] * 100:.2f}% below the "
            f"--min-availability gate ({args.min_availability * 100:.2f}%)"
        )
    if report["byte_identity_failures"]:
        failed.append(
            f"{report['byte_identity_failures']} successful round trips "
            "returned bytes differing from the local reference"
        )
    if report["failures"]["untyped"]:
        failed.append(
            f"{report['failures']['untyped']} failures outside the typed "
            f"error taxonomy: {report['untyped_examples']}"
        )
    if args.tenants and not report["tenancy"]["byte_exact"]:
        failed.append(
            "per-tenant quota ledgers drifted from the metrics ledgers: "
            f"{report['tenancy']['mismatches']}"
        )
    if failed:
        for reason in failed:
            print(f"FAIL: {reason}", flush=True)
        return 1
    return 0


# ----------------------------------------------------------------------
# fcbench list
# ----------------------------------------------------------------------
def _list_json() -> str:
    import dataclasses
    import json

    from repro.api import available_codecs

    methods = []
    for name in paper_table_order():
        info = get_compressor(name).info
        record = dataclasses.asdict(info)
        record["precisions"] = sorted(record["precisions"])
        methods.append(record)
    datasets = [dataclasses.asdict(spec) for spec in CATALOG]
    for record in datasets:
        record["paper_extent"] = list(record["paper_extent"])
    return json.dumps(
        {
            "methods": methods,
            "datasets": datasets,
            "frame_codecs": available_codecs(),
        },
        indent=2,
        sort_keys=True,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(_list_json())
        return 0
    from repro.core.report import format_table

    show_methods = args.methods or not args.datasets
    show_datasets = args.datasets or not args.methods
    if show_methods:
        rows = []
        for name in paper_table_order():
            info = get_compressor(name).info
            rows.append(
                [
                    name,
                    info.display_name,
                    str(info.year),
                    info.platform,
                    info.parallelism,
                    ",".join(sorted(info.precisions)),
                ]
            )
        print(
            format_table(
                ["method", "table label", "year", "platform", "parallelism", "prec"],
                rows,
            )
        )
    if show_datasets:
        if show_methods:
            print()
        rows = [
            [
                spec.name,
                spec.domain,
                spec.dtype,
                f"{spec.paper_bytes / 1e6:.0f}",
                "x".join(str(e) for e in spec.paper_extent),
            ]
            for spec in CATALOG
        ]
        print(
            format_table(
                ["dataset", "domain", "dtype", "paper MB", "paper extent"], rows
            )
        )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _parameter_docs(callee) -> dict[str, str]:
    """``{keyword: first sentence}`` of ``callee``'s numpydoc ``Parameters``
    section, markup stripped and ``%`` escaped for argparse."""
    import inspect
    import re

    section = inspect.getdoc(callee).partition("Parameters\n----------\n")[2]
    words: dict[str, list[str]] = {}
    names: list[str] = []
    for line in section.splitlines():
        entry = re.fullmatch(r"(\w+(?:, \w+)*) ?:.*", line)
        if entry:
            names = entry.group(1).split(", ")
        elif line[:1].isspace():
            for name in names:
                words.setdefault(name, []).append(line.strip())
        elif line:
            break  # the next section
    docs = {}
    for name, text in words.items():
        text = re.sub(r":\w+:`~?(?:[\w.]+\.)?([^`.]+)`", r"\1", " ".join(text))
        text = text.replace("``", "").replace("*", "").replace("%", "%%")
        docs[name] = re.split(r"(?<=\.)\s+(?=[A-Z])", text)[0]
    return docs


def _flag_type(annotation):
    """``int`` or ``float`` for a keyword annotated so (``| None`` allowed),
    else ``None`` — argparse's string.  Callee modules postpone
    annotations, so ``annotation`` is the source text."""
    name = str(annotation).removeprefix("Optional[").split("|")[0].strip(" ]")
    return {"int": int, "float": float}.get(name)


def _derive(parser: argparse.ArgumentParser, callee, *names: str, **extra) -> None:
    """Declare ``--name`` (or ``"flag=keyword"``) for ``callee``'s keywords:
    type and default from the signature, help from the docstring entry, a
    ``True`` default as a ``--no-…`` switch; ``extra`` adds per-flag
    argparse settings.  The handler calls ``callee(**_picked(args, callee))``.
    """
    import inspect

    params = inspect.signature(callee).parameters
    docs = _parameter_docs(callee)
    for name in names:
        flag, _, keyword = name.partition("=")
        keyword = keyword or flag
        default = params[keyword].default
        options = {"help": docs[keyword], **extra.get(flag, {})}
        if isinstance(default, bool):
            options["action"] = "store_true"
            if default:
                options["help"] = f"turn off: {options['help']}"
        else:
            options.update(default=default, type=_flag_type(params[keyword].annotation))
            if "default" not in options["help"]:
                options["help"] += " (default %(default)s)"
        parser.add_argument("--" + flag.replace("_", "-"), **options)
        parser.derived.append((flag, callee, keyword, default is True))


def _picked(args: argparse.Namespace, callee) -> dict:
    """The keywords ``callee`` receives from the flags derived from it."""
    return {
        keyword: not getattr(args, dest) if negated else getattr(args, dest)
        for dest, source, keyword, negated in args.derived
        if source is callee
    }


def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    from repro.core.suite import run_suite_detailed

    parser.add_argument(
        "--methods", help="comma-separated method names (default: all 14)"
    )
    parser.add_argument(
        "--datasets", help="comma-separated dataset names (default: all 33)"
    )
    _derive(parser, run_suite_detailed, "target_elements", "seed", "jobs")


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        default="heuristic",
        choices=("heuristic", "measured"),
        help="selection policy for the auto codec (default %(default)s)",
    )
    parser.add_argument(
        "--select-sample",
        type=int,
        default=None,
        help="measured policy: trial-compress this many leading elements "
        "per chunk (default 2048)",
    )


def _add_dial_args(parser, port: int | None = 8765, timeout: float | None = 10.0):
    """Where :func:`_dial` connects; ``port=None`` reads the cluster state
    file, ``timeout=None`` leaves the deadline to derived client flags."""
    parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=port, help="server port (default %(default)s)"
    )
    if port is None:
        parser.add_argument(
            "--state",
            default=None,
            help="cluster state file written by `fcbench cluster serve` "
            "(default ./cluster.json when --port is omitted)",
        )
    if timeout is not None:
        parser.add_argument(
            "--timeout",
            type=float,
            default=timeout,
            help="overall deadline in seconds (default %(default)ss)",
        )


def _sweep_db_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db",
        default="experiments.sqlite",
        help="experiment database path (default %(default)s)",
    )


def _run_args(p: argparse.ArgumentParser) -> None:
    from repro.core.suite import run_suite_detailed

    _add_matrix_args(p)
    _derive(p, run_suite_detailed, "no_cache=use_cache")
    p.add_argument(
        "--quiet", action="store_true", help="summary line only, no per-cell status"
    )


def _report_args(p: argparse.ArgumentParser) -> None:
    from repro.expdb.report import sweep_report

    p.add_argument(
        "what",
        nargs="?",
        default="table4",
        choices=_REPORT_PRESETS,
        help="which table to render (default %(default)s)",
    )
    p.add_argument(
        "--metric",
        help="render an arbitrary Measurement field as a matrix instead "
        "(with --db: ratio, encode_mbs, or decode_mbs)",
    )
    p.add_argument(
        "--db",
        help="report from an experiment database (fcbench sweep) instead "
        "of re-running the suite: per-domain tables plus Friedman / "
        "Nemenyi / CD-diagram statistics",
    )
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="with --db: machine-readable report to PATH (default stdout)",
    )
    p.add_argument(
        "--artifacts",
        metavar="DIR",
        help="with --db: write summary.json / cd_diagram.txt / report.txt "
        "under DIR",
    )
    _derive(p, sweep_report, "alpha")
    _add_matrix_args(p)


def _cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "action",
        nargs="?",
        default="inspect",
        choices=("inspect", "clear"),
        help="inspect the store or delete cells from it (default %(default)s)",
    )
    p.add_argument(
        "--stale",
        action="store_true",
        help="with clear: drop only cells whose fingerprint is out of date",
    )


def _sweep_init_args(p: argparse.ArgumentParser) -> None:
    _sweep_db_arg(p)
    p.add_argument(
        "--codecs", help="comma-separated codec keyfield values"
    )
    p.add_argument(
        "--datasets", help="comma-separated dataset keyfield values"
    )
    p.add_argument(
        "--chunk-elements",
        help="comma-separated chunk sizes (0 = legacy whole-array cell)",
    )
    p.add_argument("--jobs", help="comma-separated jobs keyfield values")
    p.add_argument(
        "--policies",
        help="comma-separated selection policies for codec 'auto'",
    )
    p.add_argument("--seeds", help="comma-separated generator seeds")
    p.add_argument(
        "--target-elements",
        type=int,
        default=None,
        help="elements per dataset cell",
    )
    p.add_argument(
        "--corpus",
        help="external-corpus manifest JSON; datasets whose file is "
        "absent become 'skipped' cells instead of failing",
    )


def _sweep_run_args(p: argparse.ArgumentParser) -> None:
    from repro.expdb import run_sweep, worker_loop

    _sweep_db_arg(p)
    _derive(p, run_sweep, "workers")
    _derive(p, worker_loop, "heartbeat_interval", "heartbeat_timeout", "max_cells")
    p.add_argument(
        "--quiet", action="store_true", help="summary line only"
    )


def _sweep_worker_args(p: argparse.ArgumentParser) -> None:
    from repro.expdb import worker_loop

    _sweep_db_arg(p)
    _derive(
        p, worker_loop, "owner", "heartbeat_interval", "heartbeat_timeout",
        "max_cells",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the final summary as one JSON line",
    )


def _sweep_status_args(p: argparse.ArgumentParser) -> None:
    _sweep_db_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable status")


def _sweep_reset_args(p: argparse.ArgumentParser) -> None:
    _sweep_db_arg(p)
    p.add_argument(
        "--statuses",
        default="failed",
        help="comma-separated statuses to reset (default %(default)s)",
    )


def _compress_args(p: argparse.ArgumentParser) -> None:
    from repro.api import CompressSession

    p.add_argument("input", help="source .npy file (float32/float64)")
    p.add_argument("output", help="destination .fcf stream")
    p.add_argument(
        "--codec",
        default="bitshuffle-zstd",
        help="frame codec: a registered method, 'none', or 'auto' for "
        "adaptive per-chunk selection (default %(default)s)",
    )
    _add_policy_args(p)
    _derive(p, CompressSession, "chunk_elements", "jobs")
    p.add_argument("--quiet", action="store_true", help="no summary line")


def _decompress_args(p: argparse.ArgumentParser) -> None:
    from repro.api import DecompressSession

    p.add_argument("input", help="source .fcf stream")
    p.add_argument("output", help="destination .npy file")
    _derive(p, DecompressSession, "jobs")
    p.add_argument("--quiet", action="store_true", help="no summary line")


def _inspect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help=".fcf stream to inspect")
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def _explain_args(p: argparse.ArgumentParser) -> None:
    from repro.data.loader import load

    p.add_argument(
        "input", help="a .npy file or a catalog dataset name"
    )
    _add_policy_args(p)
    p.add_argument(
        "--chunk-elements",
        type=int,
        default=1 << 16,
        help="selection granularity (default %(default)s)",
    )
    _derive(p, load, "target_elements", "seed")
    p.add_argument(
        "--verbose", action="store_true", help="print per-chunk feature values"
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable decisions"
    )


def _serve_args(p: argparse.ArgumentParser) -> None:
    from repro.service.server import CompressionServer, run_server

    _derive(p, run_server, "host", "port", "grace")
    _derive(
        p, CompressionServer, "max_queued_requests", "max_queued_bytes",
        "shed_retry_after_ms", "node_id", "trace",
        "trace_capacity", "slow_ms=slow_request_ms",
    )
    p.add_argument(
        "--metrics-json",
        help="write the final metrics snapshot to this path on shutdown",
    )
    p.add_argument(
        "--topology-json",
        default=None,
        help="cluster topology file this node serves for "
        "cluster-topology requests (set by the cluster supervisor)",
    )
    p.add_argument(
        "--tenants",
        default=None,
        help="tenant registry JSON (see 'fcbench tenant create'); "
        "enables token auth and per-tenant quotas",
    )
    p.add_argument(
        "--gateway-port",
        type=int,
        default=None,
        help="also serve an HTTP observability gateway (/metrics, "
        "/healthz, /tenants) on this port; 0 picks an ephemeral port",
    )
    p.add_argument(
        "--quiet", action="store_true", help="address line only"
    )


def _client_args(p: argparse.ArgumentParser) -> None:
    from repro.service.client import ServiceClient

    _add_dial_args(p, timeout=None)
    _derive(p, ServiceClient, "retries=retry", "timeout=deadline", "token")


def _client_compress_args(p: argparse.ArgumentParser) -> None:
    from repro.service.client import ServiceClient

    p.add_argument("input", help="source .npy file (float32/float64)")
    p.add_argument("output", help="destination .fcf stream")
    _derive(
        p, ServiceClient.compress_array, "codec", "policy", "chunk_elements",
        policy={"choices": ("heuristic", "measured")},
    )
    p.add_argument("--quiet", action="store_true", help="no summary line")


def _client_decompress_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="source .fcf stream")
    p.add_argument("output", help="destination .npy file")
    p.add_argument("--quiet", action="store_true", help="no summary line")


def _trace_args(p: argparse.ArgumentParser, limit: int) -> None:
    p.add_argument(
        "--limit",
        type=int,
        default=limit,
        help="most recent spans to fetch (default %(default)s)",
    )
    p.add_argument(
        "--trace-id",
        default=None,
        help="only spans belonging to this trace id",
    )


def _trace_tail_args(p: argparse.ArgumentParser) -> None:
    _add_dial_args(p)
    _trace_args(p, 100)
    p.add_argument(
        "--json", action="store_true", help="raw span document"
    )


def _trace_export_args(p: argparse.ArgumentParser) -> None:
    _add_dial_args(p)
    _trace_args(p, 1000)
    p.add_argument(
        "--out",
        default="trace.json",
        help="output path (default %(default)s)",
    )


def _tenant_create_args(p: argparse.ArgumentParser) -> None:
    from repro.service.tenants import TenantConfig

    p.add_argument("tenant_id", help="tenant identity (stable id)")
    p.add_argument(
        "--file",
        default="tenants.json",
        help="registry file, created if absent (default %(default)s)",
    )
    p.add_argument(
        "--token",
        default=None,
        help="explicit auth token (default: generate a random one)",
    )
    _derive(
        p, TenantConfig, "priority", "max_bytes=max_bytes_per_window",
        "max_requests=max_requests_per_window", "window=window_seconds",
    )


def _tenant_quota_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("tenant_id", help="tenant to update")
    p.add_argument(
        "--file", default="tenants.json", help="registry file"
    )
    p.add_argument(
        "--priority", type=int, default=None, help="batch-ordering priority"
    )
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="payload-byte budget per window; -1 = unlimited",
    )
    p.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="request budget per window; -1 = unlimited",
    )
    p.add_argument(
        "--window", type=float, default=None, help="quota window seconds"
    )


def _tenant_list_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--file", default="tenants.json", help="registry file"
    )


def _cluster_serve_args(p: argparse.ArgumentParser) -> None:
    from repro.cluster import ClusterSupervisor

    _derive(
        p, ClusterSupervisor, "nodes", "host", "replication", "vnodes",
        "control_port", "health_interval", "no_restart=auto_restart",
        "grace=node_grace", "state_dir", "tenants", "trace",
    )
    p.add_argument(
        "--quiet", action="store_true", help="address lines only"
    )


def _cluster_status_args(p: argparse.ArgumentParser) -> None:
    _add_dial_args(p, port=None)
    p.add_argument(
        "--json", action="store_true", help="machine-readable status"
    )


def _cluster_drain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("node", help="node id to drain (e.g. node-1)")
    _add_dial_args(p, port=None)


def _cluster_trace_args(p: argparse.ArgumentParser) -> None:
    _add_dial_args(p, port=None)
    _trace_args(p, 200)
    p.add_argument(
        "--json", action="store_true", help="raw merged document"
    )
    p.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON file instead of printing",
    )


def _chaos_args(p: argparse.ArgumentParser) -> None:
    from repro.chaos import run_chaos_soak

    _derive(
        p, run_chaos_soak, "nodes", "replication", "connections",
        "seconds=duration_seconds", "elements", "chunk_elements", "codec",
        "dataset", "seed", "kill=kill_node", "drain=drain_node",
        "op_deadline", "attempt_timeout", "tenants", "trace",
        kill={"metavar": "NODE"}, drain={"metavar": "NODE"},
    )
    p.add_argument(
        "--plan",
        help="JSON fault-plan file (default: the built-in mild mixed plan)",
    )
    p.add_argument(
        "--no-kill", action="store_true",
        help="skip the mid-run node kill",
    )
    p.add_argument(
        "--min-availability", type=float, default=0.99,
        help="exit non-zero below this availability (default %(default)s)",
    )
    p.add_argument(
        "--output", help="write the JSON report here instead of stdout"
    )


def _list_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--methods", action="store_true", help="methods only")
    p.add_argument("--datasets", action="store_true", help="datasets only")
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump: methods with MethodInfo "
        "fields, datasets, available frame codecs",
    )


#: Every command: name -> (one-line help, handler, options builder).  A
#: group names the table of its subcommands where a leaf names a handler.
_COMMANDS = {
    "run": ("execute the measurement matrix", _cmd_run, _run_args),
    "report": ("render a paper table from results", _cmd_report, _report_args),
    "cache": ("inspect or clear the result store", _cmd_cache, _cache_args),
    "sweep": ("resumable experiment sweeps over a shared sqlite database", {
        "init": ("expand the grid into pending cells (idempotent)",
                 _cmd_sweep_init, _sweep_init_args),
        "run": ("execute pending cells until the grid is quiescent",
                _cmd_sweep_run, _sweep_run_args),
        "worker": ("single worker loop (internal; spawned by `sweep run`)",
                   _cmd_sweep_worker, _sweep_worker_args),
        "status": ("cell counts, live claims, and failures",
                   _cmd_sweep_status, _sweep_status_args),
        "reset": ("flip terminal cells back to pending",
                  _cmd_sweep_reset, _sweep_reset_args),
    }, None),
    "compress": ("compress a .npy array into a seekable .fcf frame stream",
                 _cmd_compress, _compress_args),
    "decompress": ("restore a .fcf stream back to a .npy array",
                   _cmd_decompress, _decompress_args),
    "inspect": ("print an .fcf stream's header and chunk index",
                _cmd_inspect, _inspect_args),
    "select": ("codec selection: explain per-chunk choices", {
        "explain": ("print per-chunk features and the chosen codec",
                    _cmd_select_explain, _explain_args),
    }, None),
    "serve": ("run the network compression service (FCS protocol over TCP)",
              _cmd_serve, _serve_args),
    "client": ("talk to a running compression service", {
        "ping": ("round-trip liveness probe", _cmd_client, None),
        "stats": ("print the server's metrics snapshot (JSON)", _cmd_client, None),
        "compress": ("compress a .npy through the server into a .fcf stream "
                     "(byte-identical to local compression)",
                     _cmd_client, _client_compress_args),
        "decompress": ("restore a .fcf stream to a .npy array through the "
                       "server", _cmd_client, _client_decompress_args),
    }, _client_args),
    "trace": ("inspect the distributed-tracing span buffer of a running "
              "server (start it with 'fcbench serve --trace')", {
        "tail": ("print the most recent span trees", _cmd_trace, _trace_tail_args),
        "export": ("write recent spans as a chrome://tracing JSON file",
                   _cmd_trace, _trace_export_args),
        "stats": ("print the server's span-recorder counters",
                  _cmd_trace, _add_dial_args),
    }, None),
    "tenant": ("manage the multi-tenant registry (tokens, quotas, stats)", {
        "create": ("add a tenant to a registry file (prints its token)",
                   _cmd_tenant, _tenant_create_args),
        "quota": ("change a tenant's quotas or priority in place",
                  _cmd_tenant, _tenant_quota_args),
        "list": ("print a registry file's tenants (tokens redacted)",
                 _cmd_tenant, _tenant_list_args),
        "stats": ("print a live server's per-tenant accounting (quota "
                  "windows, serving counters)",
                  _cmd_tenant, _add_dial_args),
    }, None),
    "cluster": ("run and operate a sharded multi-node compression cluster", {
        "serve": ("spawn N compression nodes under a health-checking "
                  "supervisor (consistent-hash sharding, replica failover)",
                  _cmd_cluster_serve, _cluster_serve_args),
        "status": ("print node states, pids, and restart counts",
                   _cmd_cluster_status, _cluster_status_args),
        "drain": ("gracefully stop one node and keep it stopped (replicas "
                  "absorb its traffic)", _cmd_cluster_drain, _cluster_drain_args),
        "trace": ("merge recent spans from every node into one cluster-wide "
                  "trace view (nodes must be started with --trace)",
                  _cmd_cluster_trace, _cluster_trace_args),
    }, None),
    "chaos": ("soak a supervised cluster behind fault-injecting proxies and "
              "report availability, shed and deadline-miss rates",
              _cmd_chaos, _chaos_args),
    "list": ("enumerate methods and datasets", _cmd_list, _list_args),
}


def _add_commands(parser, table, dest, argv, derived) -> None:
    """Add ``table``'s commands to ``parser``; with ``argv``, declare
    options (importing their callees) only on commands it names."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, target, options) in table.items():
        child = sub.add_parser(name, help=help_text)
        if argv is not None and name not in argv:
            continue  # listed in --help, never invoked: nothing to build
        child.derived = list(derived)
        if options is not None:
            options(child)
        if isinstance(target, dict):
            _add_commands(child, target, f"{name}_command", argv, child.derived)
        else:
            child.set_defaults(func=target, derived=child.derived)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The ``fcbench`` parser.  Every command is listed; with ``argv``,
    only the commands it names get their options (and import what those
    options are derived from), so ``fcbench serve`` loads no harness."""
    parser = argparse.ArgumentParser(
        prog="fcbench",
        description="FCBench reproduction: run, report, and cache the "
        "14-method x 33-dataset measurement matrix.",
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    _add_commands(parser, _COMMANDS, "command", argv, [])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # argparse errors or our own messages
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return exc.code if exc.code is not None else 0
    except BrokenPipeError:  # e.g. `fcbench list | head`
        return 0
    except (ReproError, OSError, ValueError) as exc:
        # The one error boundary: a typed error, a file or socket that
        # failed, a value the callee refused.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
