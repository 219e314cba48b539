"""Chaos soaks against real supervised clusters.

The acceptance bar for the resilience layer: under the default mixed
fault plan plus a mid-run SIGKILL of one node, a replicated cluster
stays ≥ 99% available, every failure is typed, and every successful
round trip returns exactly the bytes a local call would produce.

These spawn real node processes and run for seconds, so they carry the
``chaos`` marker (select alone with ``-m chaos``); the quick smoke
below stays in the tier-1 run.
"""

import threading
import time

import pytest

from repro.chaos import FaultPlan, FaultSpec, run_chaos_soak
from repro.errors import ReproError

pytestmark = pytest.mark.chaos


def _assert_clean(report):
    assert report["failures"]["untyped"] == 0, report["untyped_examples"]
    assert report["byte_identity_failures"] == 0
    assert report["ops"] > 0


def test_soak_with_faults_and_node_kill_stays_available():
    report = run_chaos_soak(
        nodes=3,
        replication=2,
        connections=3,
        duration_seconds=5.0,
        elements=1024,
        kill_node="auto",
    )
    _assert_clean(report)
    assert report["killed_node"] == "node-1"
    assert report["availability"] >= 0.99
    assert report["faults"]["proxied_connections"] > 0
    # The kill plus injected faults must actually exercise the
    # resilience machinery, not just coast on a healthy cluster.
    assert report["client"]["failovers"] > 0
    assert report["plan"] == FaultPlan.default(0).to_dict()


def test_soak_report_is_json_ready():
    import json

    report = run_chaos_soak(
        nodes=1,
        replication=1,
        connections=2,
        duration_seconds=1.5,
        elements=512,
        kill_node=None,
        plan=FaultPlan((FaultSpec("latency", probability=0.2,
                                  seconds=0.01),)),
    )
    _assert_clean(report)
    parsed = json.loads(json.dumps(report, sort_keys=True))
    assert parsed["nodes"] == 1
    assert 0.0 <= parsed["availability"] <= 1.0
    for key in ("shed_requests", "deadline_rejected", "deadline_expired"):
        assert parsed["server"][key] >= 0


def test_drain_under_load_keeps_failures_typed_and_metrics_whole():
    """Satellite: graceful drain during a soak.

    While workers hammer a proxied cluster and one node is drained
    mid-run, a side-channel observer polls every node's metrics
    snapshot; each snapshot must be internally consistent (never torn:
    all sections present, counters non-negative), and no worker may see
    an exception outside the typed taxonomy.
    """
    from repro.cluster import ClusterClient

    torn: list[str] = []
    polled = [0]
    stop = threading.Event()
    observer: list[threading.Thread] = []

    def on_cluster(supervisor):
        control = (supervisor.control_host, supervisor.control_port)

        def observe():
            with ClusterClient([control], pool_size=1, deadline=5.0) as peek:
                while not stop.is_set():
                    for node_id, snapshot in peek.stats().items():
                        if "error" in snapshot:
                            continue  # the drained node: unreachable is fine
                        polled[0] += 1
                        problems = _snapshot_problems(snapshot)
                        if problems:
                            torn.append(f"{node_id}: {problems}")
                    time.sleep(0.05)

        thread = threading.Thread(target=observe, daemon=True)
        thread.start()
        observer.append(thread)

    try:
        report = run_chaos_soak(
            nodes=3,
            replication=2,
            connections=3,
            duration_seconds=4.0,
            elements=1024,
            kill_node=None,
            drain_node="auto",
            plan=FaultPlan((FaultSpec("latency", probability=0.2,
                                      seconds=0.02),)),
            on_cluster=on_cluster,
        )
    finally:
        stop.set()
        for thread in observer:
            thread.join(timeout=10.0)
    _assert_clean(report)
    assert report["drained_node"] == "node-2"
    assert report["availability"] >= 0.99
    assert polled[0] > 0  # the observer actually sampled live snapshots
    assert torn == [], torn


def test_soak_with_tenancy_ledger_byte_exact_across_failover():
    """Tentpole acceptance: quota accounting survives node failover.

    The soak runs authenticated (two tenants, workers alternate
    tokens), SIGKILLs a node mid-run, and afterwards audits every
    node's two ledgers against each other: the registry's lifetime
    quota totals must equal the metrics admission totals byte-exactly.
    """
    report = run_chaos_soak(
        nodes=3,
        replication=2,
        connections=3,
        duration_seconds=4.0,
        elements=1024,
        kill_node="auto",
        tenants=True,
    )
    _assert_clean(report)
    assert report["availability"] >= 0.99
    tenancy = report["tenancy"]
    assert tenancy["enabled"]
    assert set(tenancy["tenants"]) == {"soak-gold", "soak-bronze"}
    assert tenancy["byte_exact"], tenancy["mismatches"]
    assert set(tenancy["per_node"]) == {"node-0", "node-1", "node-2"}
    # Both tenants actually pushed traffic through the cluster.
    served = {
        tenant: sum(
            node.get(tenant, {}).get("registry_requests", 0)
            for node in tenancy["per_node"].values()
        )
        for tenant in tenancy["tenants"]
    }
    assert all(count > 0 for count in served.values()), served


def _snapshot_problems(snapshot: dict) -> list[str]:
    problems = []
    admission = snapshot.get("admission")
    if not isinstance(admission, dict):
        problems.append("missing admission section")
    else:
        for key in ("shed_requests", "deadline_rejected", "deadline_expired"):
            value = admission.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"bad admission counter {key}={value!r}")
    if "resilience" in snapshot:
        problems.append("retired 'resilience' alias is back")
    ops = snapshot.get("ops")
    if not isinstance(ops, dict):
        problems.append("missing ops section")
    else:
        for op, cell in ops.items():
            if cell.get("requests", 0) < cell.get("failures", 0):
                problems.append(f"{op}: more failures than requests")
    return problems


def test_worker_exceptions_are_all_repro_typed():
    """Every error class the soak classifier distinguishes is typed."""
    from repro.errors import (
        ClusterError,
        DeadlineExceededError,
        ServerOverloadedError,
    )

    for exc_type in (ClusterError, DeadlineExceededError,
                     ServerOverloadedError):
        assert issubclass(exc_type, ReproError)
