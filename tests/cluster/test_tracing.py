"""The tracing acceptance run: one failover, one coherent trace tree.

A traced client compresses through a traced 3-node cluster while the
replica set's primary is SIGKILLed.  The resulting trace — retrieved
both through the client's own merge (``ClusterClient.trace``) and the
supervisor's cluster-wide merge (``fcbench cluster trace``) — must
render as ONE tree: the cluster request at the root, one errored
replica attempt, the successful retry on the next replica, and under
it the server-side admission stages, queue wait, and the
worker-process execute span.
"""

import numpy as np
import pytest

from repro.api import compress_array
from repro.cluster import ClusterClient, ClusterSupervisor
from repro.cluster.client import DEFAULT_STREAM_ID
from repro.obs import build_trace_tree

pytestmark = pytest.mark.cluster

SERVER_STAGES = {
    "server.parse",
    "server.deadline",
    "server.gate",
    "server.queue_wait",
    "server.execute",
}


def _sample(n=4096, seed=17):
    return np.cumsum(np.random.default_rng(seed).normal(0, 1, n))


@pytest.fixture(scope="module")
def traced_run():
    """Drive the scenario once; every test inspects the same trace."""
    # A long health interval + no auto-restart keeps the supervisor
    # from marking the victim down (which would *route around* it
    # instead of exercising the failover path) or resurrecting it.
    supervisor = ClusterSupervisor(
        3,
        replication=2,
        health_interval=60.0,
        auto_restart=False,
        trace=True,
    )
    supervisor.start()
    client = ClusterClient(
        [(supervisor.control_host, supervisor.control_port)],
        deadline=30.0,
        trace=True,
    )
    try:
        array = _sample()
        local = compress_array(array, "gorilla")
        warm = client.compress_array(array, "gorilla")
        victim = client.nodes_for(DEFAULT_STREAM_ID)[0]
        supervisor.kill_node(victim)
        # The very next request hits the corpse, fails over, succeeds.
        failed_over = client.compress_array(array, "gorilla")
        client_spans = client.recorder.snapshot()
        merged = client.trace(limit=4096)
        supervisor_doc = supervisor.trace_document(limit=4096)
        yield {
            "local": local,
            "warm": warm,
            "failed_over": failed_over,
            "victim": victim,
            "client_spans": client_spans,
            "merged": merged,
            "supervisor_doc": supervisor_doc,
        }
    finally:
        client.close()
        supervisor.stop()


def _failover_tree(run):
    """The cluster.request tree that contains the errored replica."""
    trees = [
        root
        for root in build_trace_tree(run["merged"]["spans"])
        if root["name"] == "cluster.request"
    ]
    assert trees, "no cluster.request roots in the merged trace"
    for root in trees:
        replicas = [
            child
            for child in root["children"]
            if child["name"] == "cluster.replica"
        ]
        if any(r["status"] == "error" for r in replicas):
            return root, replicas
    raise AssertionError("no trace contains an errored replica attempt")


def test_bytes_stay_identical_through_the_traced_failover(traced_run):
    assert traced_run["warm"] == traced_run["local"]
    assert traced_run["failed_over"] == traced_run["local"]


def test_failover_renders_one_tree_with_both_attempts(traced_run):
    root, replicas = _failover_tree(traced_run)
    assert root["status"] == "ok"  # the request as a whole succeeded
    assert len(replicas) >= 2
    failed = [r for r in replicas if r["status"] == "error"]
    served = [r for r in replicas if r["status"] == "ok"]
    assert failed and served
    # The errored attempt targeted the node we killed, and started
    # before the attempt that served.
    assert any(
        r["attributes"].get("node") == traced_run["victim"] for r in failed
    )
    assert min(r["start"] for r in failed) <= min(
        r["start"] for r in served
    )


def test_server_side_stages_join_the_client_trace(traced_run):
    root, replicas = _failover_tree(traced_run)
    served = next(r for r in replicas if r["status"] == "ok")

    def _names(node, out):
        out.add(node["name"])
        for child in node["children"]:
            _names(child, out)

    names: set = set()
    _names(served, names)
    assert "client.request" in names
    assert "client.attempt" in names
    assert SERVER_STAGES <= names, names


def test_supervisor_merge_sees_the_same_trace(traced_run):
    doc = traced_run["supervisor_doc"]
    root, _ = _failover_tree(traced_run)
    supervisor_ids = {span["trace_id"] for span in doc["spans"]}
    assert root["trace_id"] in supervisor_ids
    # The killed node cannot answer; it must degrade to an error
    # entry, not break the merge.
    entry = doc["nodes"][traced_run["victim"]]
    assert "error" in entry
    live = [n for n in doc["nodes"].values() if "error" not in n]
    assert live and all(n["enabled"] for n in live)


def test_client_spans_cover_every_hop(traced_run):
    names = {span["name"] for span in traced_run["client_spans"]}
    assert {
        "cluster.request",
        "cluster.replica",
        "client.request",
        "client.attempt",
    } <= names
