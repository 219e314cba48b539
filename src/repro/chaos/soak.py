"""The chaos soak: measure resilience against a real, faulty cluster.

:func:`run_chaos_soak` spins up a supervised cluster, interposes one
:class:`~repro.chaos.proxy.ChaosProxy` per node, and hammers it with
deadline-carrying :class:`~repro.cluster.ClusterClient` workers while
faults land — optionally SIGKILLing (and auto-restarting) or draining
a node mid-run.  The report is JSON-ready; ``fcbench chaos --output``
writes it and CI gates it with ``--min-availability``:

* ``availability`` — successful round trips / attempted round trips.
* ``deadline_misses`` — operations lost to the deadline budget
  (server-typed :class:`DeadlineExceededError` plus client-side
  ``TimeoutError`` budget exhaustion).
* ``byte_identity_failures`` — successful round trips whose served
  stream differed from the local ``compress_array`` output (must be
  zero: faults may *fail* an operation, never falsify one).
* ``untyped_failures`` — exceptions outside the typed error taxonomy
  (must be zero: chaos is allowed to hurt, not to surprise).
* ``server.shed_requests`` / ``deadline_rejected`` / ``deadline_expired``
  — the admission-control counters summed across surviving nodes.

With ``tenants=True`` the soak runs multi-tenant: every node loads the
same two-tenant registry, each worker authenticates as one of the
tenants, and after the dust settles the report carries a per-node
**quota-ledger audit**: the tenant registry's lifetime totals
(``total_requests`` / ``total_bytes``) must equal the metrics ledger's
``admitted_requests`` / ``admitted_bytes`` *byte-exactly*, per tenant,
per surviving node — the two counters are updated under different
locks at the same admission site, so any drift means a lost or
double-charged admission somewhere in the failover machinery.

Clients reach nodes through the proxies via ``address_overrides``; the
supervisor's control endpoint stays unproxied so topology discovery is
a clean control plane, as it would be in production.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro.chaos.plan import FaultPlan
from repro.chaos.proxy import ChaosProxy
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    ReproError,
    ServerOverloadedError,
)

__all__ = ["run_chaos_soak"]


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


def _soak_worker(
    index: int,
    client_factory: Callable[[], object],
    array: np.ndarray,
    expected_blob: bytes,
    codec: str,
    chunk_elements: int,
    stop_at: float,
    barrier: threading.Barrier,
    out: dict,
) -> None:
    """One worker's hammer loop; classifies every outcome."""
    ops = successes = byte_mismatches = 0
    deadline_misses = overload_failures = 0
    cluster_failures = typed_failures = untyped_failures = 0
    latencies: list[float] = []
    untyped_examples: list[str] = []
    try:
        client = client_factory()
    except Exception as exc:
        out.update(
            ops=1, successes=0, latencies=[], deadline_misses=0,
            overload_failures=0, cluster_failures=0, typed_failures=0,
            untyped_failures=1, byte_identity_failures=0,
            untyped_examples=[f"connect: {exc!r}"], resilience={},
        )
        barrier.wait()
        return
    barrier.wait()
    attempt = 0
    while time.monotonic() < stop_at:
        stream_id = f"chaos/worker-{index}/op-{attempt}"
        attempt += 1
        ops += 1
        start = time.perf_counter()
        try:
            blob = client.compress_stream(
                stream_id, array, codec, chunk_elements=chunk_elements
            )
            restored = client.decompress_stream(stream_id, blob)
        except DeadlineExceededError:
            deadline_misses += 1
        except TimeoutError:
            # Client-side budget exhaustion is a deadline miss too.
            deadline_misses += 1
        except ServerOverloadedError:
            overload_failures += 1
        except ClusterError:
            cluster_failures += 1
        except ReproError:
            typed_failures += 1
        except Exception as exc:  # noqa: BLE001 - the soak's whole point
            untyped_failures += 1
            if len(untyped_examples) < 3:
                untyped_examples.append(repr(exc))
        else:
            latencies.append(time.perf_counter() - start)
            if blob != expected_blob or not np.array_equal(
                np.asarray(restored).ravel(), array.ravel()
            ):
                byte_mismatches += 1
            else:
                successes += 1
    resilience = {}
    try:
        resilience = client.resilience_snapshot()
    finally:
        client.close()
    out.update(
        ops=ops,
        successes=successes,
        latencies=latencies,
        deadline_misses=deadline_misses,
        overload_failures=overload_failures,
        cluster_failures=cluster_failures,
        typed_failures=typed_failures,
        untyped_failures=untyped_failures,
        byte_identity_failures=byte_mismatches,
        untyped_examples=untyped_examples,
        resilience=resilience,
    )


def _sum_breakers(snapshots: list[dict]) -> dict:
    """Aggregate the workers' resilience snapshots."""
    totals = {
        "failovers": 0,
        "breaker_skips": 0,
        "topology_refreshes": 0,
        "breaker_trips": 0,
    }
    for snapshot in snapshots:
        totals["failovers"] += snapshot.get("failovers", 0)
        totals["breaker_skips"] += snapshot.get("breaker_skips", 0)
        totals["topology_refreshes"] += snapshot.get("topology_refreshes", 0)
        for breaker in snapshot.get("breakers", {}).values():
            totals["breaker_trips"] += breaker.get("trips", 0)
    return totals


def run_chaos_soak(
    *,
    nodes: int = 3,
    replication: int = 2,
    connections: int = 4,
    duration_seconds: float = 6.0,
    elements: int = 2048,
    chunk_elements: int = 1024,
    codec: str = "gorilla",
    dataset: str = "tpcH-order",
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    kill_node: Optional[str] = "auto",
    kill_after_fraction: float = 0.5,
    drain_node: Optional[str] = None,
    drain_after_fraction: float = 0.33,
    op_deadline: float = 8.0,
    attempt_timeout: float = 2.0,
    tenants: bool = False,
    trace: bool = False,
    on_cluster: Optional[Callable[[object], None]] = None,
) -> dict:
    """Run the soak; returns the JSON-ready resilience report.

    Parameters
    ----------
    nodes:
        Cluster size.
    replication:
        Replicas per shard.
    connections:
        Concurrent client workers.
    duration_seconds:
        Soak duration in seconds.
    elements:
        Elements per request.
    chunk_elements:
        Elements per chunk frame.
    codec:
        Codec under test.
    dataset:
        Catalog dataset the requests compress.
    seed:
        Seed of the data and of the default ``plan``.
    plan:
        Fault-injection schedule (default: :meth:`FaultPlan.default`).
    kill_node:
        SIGKILL this node id mid-run; ``"auto"`` picks the second node
        (or the only one), ``None`` skips the kill.
    drain_node:
        Gracefully drain this node id mid-run and keep it down;
        ``"auto"`` as for ``kill_node``.
    kill_after_fraction, drain_after_fraction:
        When the kill and the drain land, as a share of the run.
    op_deadline:
        Per-operation deadline budget in seconds.
    attempt_timeout:
        Per-node attempt timeout in seconds.
    tenants:
        Run authenticated (two tenants, workers alternating) and audit
        per-node quota ledgers afterwards.
    trace:
        Trace every node and report whether span recording survived the
        mid-run kill.
    on_cluster:
        ``on_cluster(supervisor)`` fires once the cluster and proxies
        are up — the hook tests use to observe the soak from the side.
    """
    from repro.api.session import compress_array
    from repro.cluster import ClusterClient, ClusterSupervisor
    from repro.data.loader import load
    from repro.service.resilience import RetryPolicy

    if nodes < 1 or connections < 1:
        raise ValueError("nodes and connections must be positive")
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")

    fault_plan = plan if plan is not None else FaultPlan.default(seed)
    array = load(dataset, elements, seed)
    local_codec = codec
    if codec == "auto":
        from repro.select import resolve_policy

        local_codec = resolve_policy("heuristic")
    expected_blob = compress_array(
        array, local_codec, chunk_elements=chunk_elements
    )

    tenants_file = None
    tenant_tokens: list[tuple[str, str]] = []
    if tenants:
        import os
        import tempfile

        from repro.service.tenants import TenantConfig, TenantRegistry

        registry = TenantRegistry()
        tenant_tokens = [
            ("soak-gold", "chaos-gold"),
            ("soak-bronze", "chaos-bronze"),
        ]
        for priority, (tenant_id, token) in enumerate(
            reversed(tenant_tokens)
        ):
            registry.add(
                TenantConfig(tenant_id, token=token, priority=priority)
            )
        fd, tenants_file = tempfile.mkstemp(
            prefix="fcbench-chaos-tenants-", suffix=".json"
        )
        os.close(fd)
        registry.save(tenants_file)

    supervisor = ClusterSupervisor(
        nodes,
        replication=min(replication, nodes),
        tenants=tenants_file,
        trace=trace,
    )
    supervisor.start()
    proxies: list[ChaosProxy] = []
    timers: list[threading.Timer] = []
    try:
        overrides: dict[str, tuple[str, int]] = {}
        for node in supervisor.topology()["nodes"]:
            proxy = ChaosProxy(node["host"], node["port"], fault_plan)
            proxy.start()
            proxies.append(proxy)
            overrides[f"{node['host']}:{node['port']}"] = proxy.address

        control = (supervisor.control_host, supervisor.control_port)
        if on_cluster is not None:
            on_cluster(supervisor)

        def factory(index: int = 0) -> ClusterClient:
            token = None
            if tenant_tokens:
                token = tenant_tokens[index % len(tenant_tokens)][1]
            return ClusterClient(
                [control],
                pool_size=1,
                deadline=op_deadline,
                attempt_timeout=attempt_timeout,
                token=token,
                propagate_deadline=True,
                address_overrides=overrides,
                breaker_threshold=3,
                breaker_reset=1.0,
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay=0.02, max_delay=0.2, seed=seed
                ),
            )

        node_ids = [node["id"] for node in supervisor.topology()["nodes"]]
        kill_target = None
        kill_stamp: list[float] = []
        if kill_node is not None:
            kill_target = (
                node_ids[min(1, len(node_ids) - 1)]
                if kill_node == "auto"
                else kill_node
            )

            def _kill(target: str) -> None:
                kill_stamp.append(time.time())
                supervisor.kill_node(target)

            timers.append(
                threading.Timer(
                    duration_seconds * kill_after_fraction,
                    _kill,
                    args=(kill_target,),
                )
            )
        drain_target = None
        if drain_node is not None:
            drain_target = (
                node_ids[-1] if drain_node == "auto" else drain_node
            )
            if drain_target == kill_target:
                raise ValueError(
                    f"cannot both kill and drain node {drain_target!r}"
                )
            timers.append(
                threading.Timer(
                    duration_seconds * drain_after_fraction,
                    supervisor.drain,
                    args=(drain_target,),
                )
            )

        results = [dict() for _ in range(connections)]
        barrier = threading.Barrier(connections + 1)
        stop_at = time.monotonic() + duration_seconds
        from functools import partial

        threads = [
            threading.Thread(
                target=_soak_worker,
                args=(
                    index, partial(factory, index), array, expected_blob,
                    codec, chunk_elements, stop_at, barrier, results[index],
                ),
                daemon=True,
            )
            for index in range(connections)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        barrier.wait()
        for timer in timers:
            timer.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started

        # Server-side admission counters, summed across nodes that are
        # up at the end (a killed-and-restarted node reports its fresh
        # process; a drained node is unreachable and skipped).
        server_totals = {
            "shed_requests": 0,
            "deadline_rejected": 0,
            "deadline_expired": 0,
            "auth_rejected": 0,
            "quota_rejected": 0,
        }
        ledger_nodes: dict[str, dict] = {}
        ledger_mismatches: list[dict] = []
        with ClusterClient([control], pool_size=1, deadline=10.0) as reporter:
            for node_id, snapshot in reporter.stats().items():
                admission = snapshot.get("admission")
                if isinstance(admission, dict):
                    for key in server_totals:
                        server_totals[key] += int(admission.get(key, 0))
                if not tenants:
                    continue
                # The two-ledger audit: registry lifetime totals vs the
                # metrics admission counters, per tenant, on this node.
                quota_rows = snapshot.get("tenancy", {}).get("tenants", {})
                metric_rows = snapshot.get("tenants", {})
                node_audit = {}
                for tenant_id in quota_rows.keys() | metric_rows.keys():
                    quota_row = quota_rows.get(tenant_id, {})
                    metric_row = metric_rows.get(tenant_id, {})
                    entry = {
                        "registry_requests": int(
                            quota_row.get("total_requests", 0)
                        ),
                        "registry_bytes": int(quota_row.get("total_bytes", 0)),
                        "admitted_requests": int(
                            metric_row.get("admitted_requests", 0)
                        ),
                        "admitted_bytes": int(
                            metric_row.get("admitted_bytes", 0)
                        ),
                    }
                    entry["byte_exact"] = (
                        entry["registry_requests"] == entry["admitted_requests"]
                        and entry["registry_bytes"] == entry["admitted_bytes"]
                    )
                    node_audit[tenant_id] = entry
                    if not entry["byte_exact"]:
                        ledger_mismatches.append(
                            {"node": node_id, "tenant": tenant_id, **entry}
                        )
                ledger_nodes[node_id] = node_audit

        ops = sum(result.get("ops", 0) for result in results)
        successes = sum(result.get("successes", 0) for result in results)
        latencies = [
            sample
            for result in results
            for sample in result.get("latencies", [])
        ]
        injected: dict[str, int] = {}
        proxied_connections = 0
        for proxy in proxies:
            stats = proxy.stats()
            proxied_connections += stats["connections"]
            for kind, count in stats["injected"].items():
                injected[kind] = injected.get(kind, 0) + count

        def total(key: str) -> int:
            return sum(result.get(key, 0) for result in results)

        deadline_misses = total("deadline_misses")
        tracing_section: dict = {"enabled": bool(trace)}
        if trace:
            # Merge what survived: the killed node's buffer died with
            # its process (its restart starts empty), the other nodes'
            # rings still hold the soak's spans — including ones
            # recorded *after* the SIGKILL, which is the property the
            # resilience snapshot pins.
            merged = supervisor.trace_document(limit=4096)
            spans = merged.get("spans", [])
            killed_at = kill_stamp[0] if kill_stamp else None
            tracing_section.update(
                nodes=merged.get("nodes", {}),
                spans_merged=len(spans),
                trace_ids=len({s.get("trace_id") for s in spans}),
                spans_after_kill=(
                    sum(
                        1
                        for s in spans
                        if s.get("start", 0.0) >= killed_at
                    )
                    if killed_at is not None
                    else None
                ),
            )
        return {
            "nodes": int(nodes),
            "replication": int(min(replication, nodes)),
            "connections": int(connections),
            "duration_seconds": round(wall, 3),
            "codec": codec,
            "dataset": dataset,
            "elements": int(array.size),
            "chunk_elements": int(chunk_elements),
            "plan": fault_plan.to_dict(),
            "killed_node": kill_target,
            "drained_node": drain_target,
            "ops": ops,
            "successes": successes,
            "availability": successes / ops if ops else 0.0,
            "deadline_misses": deadline_misses,
            "deadline_miss_rate": deadline_misses / ops if ops else 0.0,
            "failures": {
                "overload": total("overload_failures"),
                "cluster": total("cluster_failures"),
                "typed_other": total("typed_failures"),
                "untyped": total("untyped_failures"),
            },
            "untyped_examples": [
                example
                for result in results
                for example in result.get("untyped_examples", [])
            ],
            "byte_identity_failures": total("byte_identity_failures"),
            "latency_under_faults": _latency_summary(latencies),
            "faults": {
                "proxied_connections": proxied_connections,
                "injected": dict(sorted(injected.items())),
            },
            "client": _sum_breakers(
                [result.get("resilience", {}) for result in results]
            ),
            "server": server_totals,
            "tenancy": (
                {
                    "enabled": True,
                    "tenants": [tid for tid, _ in tenant_tokens],
                    "per_node": ledger_nodes,
                    "byte_exact": not ledger_mismatches,
                    "mismatches": ledger_mismatches,
                }
                if tenants
                else {"enabled": False}
            ),
            "tracing": tracing_section,
        }
    finally:
        for timer in timers:
            timer.cancel()
        for proxy in proxies:
            proxy.stop()
        supervisor.stop()
        if tenants_file is not None:
            import os

            try:
                os.unlink(tenants_file)
            except OSError:
                pass
