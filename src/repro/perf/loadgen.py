"""Multi-connection load generator for the compression service.

Drives a :mod:`repro.service` server with ``connections`` concurrent
clients (threads, one pooled connection each) issuing compress +
decompress round trips, and reports exact client-side latency
percentiles (p50/p95/p99 from the full sample set, not histogram
buckets) and aggregate throughput per codec.  The result dict plugs
into the ``BENCH_<git-sha>.json`` snapshot flow: ``fcbench bench
--service`` stores it under the report's ``"service"`` key, so serving
latency becomes a point on the same per-commit trajectory as codec
throughput.

When no ``host`` is given the generator starts its own in-process
server on an ephemeral port and tears it down afterwards — the
self-contained mode CI and the bench harness use.

Usage — tiny self-served run:

    >>> from repro.perf.loadgen import run_loadgen
    >>> report = run_loadgen(connections=2, requests=2, elements=512,
    ...                      codecs=("gorilla",), verify=True)
    >>> [c["codec"] for c in report["codecs"]]
    ['gorilla']
    >>> report["codecs"][0]["errors"]
    0
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "run_cluster_loadgen",
    "run_loadgen",
    "run_tracing_overhead",
    "percentile",
]

DEFAULT_CODECS = ("bitshuffle-zstd", "gorilla", "auto")
DEFAULT_DATASET = "tpcH-order"


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact quantile: the ceil(q*n)-th smallest sample."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[rank]


def _latency_summary(samples: list[float]) -> dict:
    return {
        "count": len(samples),
        "mean_ms": float(np.mean(samples)) * 1e3 if samples else 0.0,
        "p50_ms": percentile(samples, 0.50) * 1e3,
        "p95_ms": percentile(samples, 0.95) * 1e3,
        "p99_ms": percentile(samples, 0.99) * 1e3,
    }


def _worker(
    client_factory: Callable[[], object],
    array: np.ndarray,
    codec: str,
    chunk_elements: int,
    requests: int,
    out: dict,
    barrier: threading.Barrier,
) -> None:
    """One connection's request loop; records latencies into ``out``."""
    compress_s: list[float] = []
    decompress_s: list[float] = []
    errors = 0
    try:
        client = client_factory()
    except Exception as exc:
        out.update(error=f"connect: {exc}", compress=[], decompress=[],
                   errors=requests)
        barrier.wait()
        return
    barrier.wait()  # start all connections together
    try:
        for _ in range(requests):
            try:
                start = time.perf_counter()
                blob = client.compress_array(
                    array, codec, chunk_elements=chunk_elements
                )
                compress_s.append(time.perf_counter() - start)
                start = time.perf_counter()
                client.decompress_array(blob)
                decompress_s.append(time.perf_counter() - start)
            except Exception:
                errors += 1
    finally:
        client.close()
    out.update(compress=compress_s, decompress=decompress_s, errors=errors)


def run_loadgen(
    host: str | None = None,
    port: int | None = None,
    *,
    connections: int = 4,
    requests: int = 8,
    elements: int = 4096,
    chunk_elements: int = 1024,
    codecs: Sequence[str] = DEFAULT_CODECS,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    server_jobs: int | None = None,
    verify: bool = True,
    trace: bool = False,
    on_result: Callable[[dict], None] | None = None,
) -> dict:
    """Run the load matrix; returns a JSON-ready report.

    ``connections`` threads per codec issue ``requests`` compress +
    decompress round trips each over the same ``dataset`` slice.  With
    ``verify`` the served stream is additionally checked byte-identical
    to the local ``compress_array`` output for every codec (outside the
    timed loop).  ``trace`` turns on distributed tracing end to end:
    the self-served server records spans and every loadgen client
    stamps trace context onto the wire (against an external ``host``
    only the client side can be switched on here).
    """
    from repro.data.loader import load

    if connections < 1 or requests < 1:
        raise ValueError("connections and requests must be positive")
    array = load(dataset, elements, seed)

    handle = None
    if host is None:
        from repro.service.server import serve_background

        handle = serve_background(jobs=server_jobs, trace=trace)
        host, port = handle.host, handle.port
    if port is None:
        raise ValueError("port is required when host is given")

    report = {
        "dataset": dataset,
        "elements": int(array.size),
        "chunk_elements": chunk_elements,
        "connections": connections,
        "requests_per_connection": requests,
        "self_served": handle is not None,
        "trace": bool(trace),
        "codecs": [],
    }
    try:
        for codec in codecs:
            cell = _run_codec(
                host, port, array, codec, chunk_elements,
                connections, requests, verify, trace,
            )
            report["codecs"].append(cell)
            if on_result is not None:
                on_result(cell)
        if handle is not None:
            snapshot = handle.metrics.snapshot()
            report["server"] = {
                "batches": snapshot["batches"],
                "protocol_errors": snapshot["protocol_errors"],
                "connections_opened": snapshot["connections"]["opened"],
            }
    finally:
        if handle is not None:
            handle.stop()
    return report


def _run_codec(
    host: str,
    port: int,
    array: np.ndarray,
    codec: str,
    chunk_elements: int,
    connections: int,
    requests: int,
    verify: bool,
    trace: bool = False,
) -> dict:
    from repro.service.client import ServiceClient

    def factory() -> ServiceClient:
        return ServiceClient(host, port, pool_size=1, trace=trace)

    identical = None
    if verify:
        from repro.api.session import compress_array, decompress_array

        local_codec = codec
        if codec == "auto":
            from repro.select import resolve_policy

            local_codec = resolve_policy("heuristic")
        with factory() as probe:
            served = probe.compress_array(
                array, codec, chunk_elements=chunk_elements
            )
            local = compress_array(
                array, local_codec, chunk_elements=chunk_elements
            )
            identical = bool(
                served == local
                and np.array_equal(
                    probe.decompress_array(served).ravel(),
                    decompress_array(local).ravel(),
                )
            )

    cell = _drive_workers(
        [factory] * connections, array, codec, chunk_elements, requests
    )
    if identical is not None:
        cell["byte_identical_with_local"] = identical
    return cell


def _drive_workers(
    factories: Sequence[Callable[[], object]],
    array: np.ndarray,
    codec: str,
    chunk_elements: int,
    requests: int,
) -> dict:
    """Drive one worker thread per factory; aggregate into a codec cell."""
    results = [dict() for _ in factories]
    barrier = threading.Barrier(len(factories) + 1)
    threads = [
        threading.Thread(
            target=_worker,
            args=(factories[index], array, codec, chunk_elements,
                  requests, results[index], barrier),
            daemon=True,
        )
        for index in range(len(factories))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    compress_s = [s for r in results for s in r.get("compress", [])]
    decompress_s = [s for r in results for s in r.get("decompress", [])]
    errors = sum(r.get("errors", 0) for r in results)
    round_trips = len(decompress_s)
    # Raw array bytes moved through the service in both directions.
    moved = array.nbytes * (len(compress_s) + len(decompress_s))
    return {
        "codec": codec,
        "requests": len(factories) * requests,
        "completed_round_trips": round_trips,
        "errors": errors,
        "wall_seconds": wall,
        "throughput_mbs": moved / 1e6 / wall if wall > 0 else 0.0,
        "compress": _latency_summary(compress_s),
        "decompress": _latency_summary(decompress_s),
    }


def run_tracing_overhead(
    *,
    connections: int = 4,
    requests: int = 16,
    elements: int = 4096,
    chunk_elements: int = 1024,
    codec: str = "bitshuffle-zstd",
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    server_jobs: int | None = None,
    repeats: int = 3,
    budget_pct: float = 2.0,
) -> dict:
    """Measure what end-to-end tracing costs in served throughput.

    Runs the self-served loadgen ``repeats`` times per mode in
    alternating order (off, on, off, on, …) so drift hits both modes
    equally, then compares the *best* aggregate throughput of each mode
    — the max is the least scheduler-noisy summary of a short run.  A
    traced pass pays for 24 trace-context bytes per request on the
    wire, span bookkeeping on both ends, and the ring-buffer write.

    Returns a JSON-ready section for ``BENCH_<git-sha>.json``:
    ``overhead_pct`` (positive = tracing is slower) and
    ``within_budget`` against ``budget_pct``.
    """

    def _one(trace: bool) -> float:
        report = run_loadgen(
            connections=connections,
            requests=requests,
            elements=elements,
            chunk_elements=chunk_elements,
            codecs=(codec,),
            dataset=dataset,
            seed=seed,
            server_jobs=server_jobs,
            verify=False,
            trace=trace,
        )
        return float(report["codecs"][0]["throughput_mbs"])

    baseline: list[float] = []
    traced: list[float] = []
    for _ in range(max(1, repeats)):
        baseline.append(_one(False))
        traced.append(_one(True))
    best_base = max(baseline)
    best_traced = max(traced)
    overhead_pct = (
        (1.0 - best_traced / best_base) * 100.0 if best_base > 0 else 0.0
    )
    return {
        "codec": codec,
        "connections": connections,
        "requests_per_connection": requests,
        "elements": elements,
        "repeats": max(1, repeats),
        "baseline_throughput_mbs": best_base,
        "traced_throughput_mbs": best_traced,
        "baseline_runs_mbs": baseline,
        "traced_runs_mbs": traced,
        "overhead_pct": overhead_pct,
        "budget_pct": float(budget_pct),
        "within_budget": bool(overhead_pct < budget_pct),
    }


class _StreamClient:
    """Adapt one ClusterClient + stream prefix to the _worker shape.

    Each compress starts a fresh stream id under the worker's prefix
    (the paired decompress reuses it), so the matrix spreads over many
    placements and the whole ring carries load — a single fixed id per
    worker would park every worker on one replica set and measure one
    node's ceiling, not the cluster's.
    """

    def __init__(self, cluster, prefix: str) -> None:
        self._cluster = cluster
        self._prefix = prefix
        self._round = 0
        self._stream_id = f"{prefix}/0"

    def compress_array(self, array, codec, *, chunk_elements):
        self._stream_id = f"{self._prefix}/{self._round}"
        self._round += 1
        return self._cluster.compress_stream(
            self._stream_id, array, codec, chunk_elements=chunk_elements
        )

    def decompress_array(self, blob):
        return self._cluster.decompress_stream(self._stream_id, blob)

    def close(self) -> None:
        self._cluster.close()

    def __enter__(self) -> "_StreamClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_cluster_loadgen(
    *,
    node_counts: Sequence[int] = (1, 2, 3),
    connections: int = 4,
    requests: int = 8,
    elements: int = 4096,
    chunk_elements: int = 1024,
    codecs: Sequence[str] = DEFAULT_CODECS,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    replication: int = 2,
    node_jobs: int | None = None,
    verify: bool = True,
    on_result: Callable[[dict], None] | None = None,
) -> dict:
    """Scaling curve: the loadgen matrix against 1→N-node clusters.

    For each entry in ``node_counts`` a fresh
    :class:`~repro.cluster.supervisor.ClusterSupervisor` spawns that
    many real node processes; ``connections`` workers (one
    :class:`~repro.cluster.ClusterClient` and one distinct stream id
    each, so shards are actually spread) issue ``requests`` compress +
    decompress round trips per codec.  With ``verify`` every codec's
    served stream is checked byte-identical to the local
    ``compress_array`` output at every cluster size.

    Returns a JSON-ready report whose ``"scaling"`` list holds one
    ``{"nodes": N, "codecs": [...]}`` entry per cluster size — the
    cluster throughput trajectory for ``BENCH_<git-sha>.json``.
    """
    from repro.cluster import ClusterSupervisor
    from repro.data.loader import load

    if connections < 1 or requests < 1:
        raise ValueError("connections and requests must be positive")
    if any(count < 1 for count in node_counts):
        raise ValueError("node counts must be positive")
    array = load(dataset, elements, seed)

    import os

    report = {
        "dataset": dataset,
        "elements": int(array.size),
        "chunk_elements": chunk_elements,
        "connections": connections,
        "requests_per_connection": requests,
        "replication": replication,
        # Node processes scale with cores: on a 1-CPU host the curve is
        # flat by construction (N processes time-share one core), so
        # the snapshot records what the throughput numbers mean.
        "host_cpus": os.cpu_count() or 1,
        "scaling": [],
    }
    for count in node_counts:
        supervisor = ClusterSupervisor(
            count,
            replication=min(replication, count),
            jobs=node_jobs,
        )
        supervisor.start()
        try:
            control = (supervisor.control_host, supervisor.control_port)
            entry = {"nodes": int(count), "codecs": []}
            for codec in codecs:
                cell = _run_cluster_codec(
                    control, array, codec, chunk_elements,
                    connections, requests, verify,
                )
                cell["nodes"] = int(count)
                entry["codecs"].append(cell)
                if on_result is not None:
                    on_result(cell)
            report["scaling"].append(entry)
        finally:
            supervisor.stop()
    return report


def _run_cluster_codec(
    control: tuple[str, int],
    array: np.ndarray,
    codec: str,
    chunk_elements: int,
    connections: int,
    requests: int,
    verify: bool,
) -> dict:
    from repro.cluster import ClusterClient

    def factory_for(index: int) -> Callable[[], _StreamClient]:
        def factory() -> _StreamClient:
            return _StreamClient(
                ClusterClient([control], pool_size=1),
                f"loadgen/{codec}/worker-{index}",
            )

        return factory

    identical = None
    if verify:
        from repro.api.session import compress_array, decompress_array

        local_codec = codec
        if codec == "auto":
            from repro.select import resolve_policy

            local_codec = resolve_policy("heuristic")
        with factory_for(0)() as probe:
            served = probe.compress_array(
                array, codec, chunk_elements=chunk_elements
            )
            local = compress_array(
                array, local_codec, chunk_elements=chunk_elements
            )
            identical = bool(
                served == local
                and np.array_equal(
                    probe.decompress_array(served).ravel(),
                    decompress_array(local).ravel(),
                )
            )

    factories = [factory_for(index) for index in range(connections)]
    cell = _drive_workers(factories, array, codec, chunk_elements, requests)
    if identical is not None:
        cell["byte_identical_with_local"] = identical
    return cell
