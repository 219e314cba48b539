"""Supervisor lifecycle: spawn, observe, control, drain, restart.

A 3-node cluster of real ``fcbench serve`` processes, exercised
through every operator surface: the Python API, the FCS control
endpoint ``fcbench cluster status|drain`` dials, the state file CI
scripts read, and the topology/health frames nodes themselves serve.
"""

import json
import os
import time

import pytest

from repro.cluster import ClusterSupervisor
from repro.errors import ClusterError, ProtocolError, ServiceError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import validate_topology

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster():
    supervisor = ClusterSupervisor(
        3, replication=2, health_interval=0.15, node_grace=1.5,
    )
    supervisor.start()
    yield supervisor
    supervisor.stop()


def _control(cluster, **kwargs):
    return ServiceClient(
        cluster.control_host, cluster.control_port, pool_size=1, **kwargs
    )


def _wait_until(predicate, timeout=15.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_all_nodes_up_with_live_pids(cluster):
    status = cluster.status()
    assert [n["id"] for n in status["nodes"]] == ["node-0", "node-1", "node-2"]
    for node in status["nodes"]:
        assert node["state"] == "up"
        assert node["restarts"] == 0
        os.kill(node["pid"], 0)  # raises if the pid is gone


def test_topology_document_is_wire_valid(cluster):
    topology = cluster.topology()
    validate_topology(topology)  # raises ProtocolError on any defect
    assert topology["replication"] == 2
    assert {n["state"] for n in topology["nodes"]} == {"up"}
    # ports are distinct and stable
    ports = [n["port"] for n in topology["nodes"]]
    assert len(set(ports)) == 3


def test_state_file_is_discoverable(cluster):
    state = json.loads(cluster.state_path.read_text())
    assert state["control"]["port"] == cluster.control_port
    assert state["supervisor_pid"] == os.getpid()
    assert len(state["nodes"]) == 3
    # the bootstrap topology file nodes were started from is wire-valid
    validate_topology(json.loads(cluster.topology_path.read_text()))


def test_control_endpoint_serves_topology_health_status(cluster):
    with _control(cluster) as client:
        assert client.ping() >= 0.0
        topology = client.cluster_topology()
        assert topology == cluster.topology()
        health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "supervisor"
        status = client.cluster_control("status")
        assert [n["id"] for n in status["nodes"]] == [
            "node-0", "node-1", "node-2",
        ]


def test_nodes_serve_topology_and_health_frames(cluster):
    spec = cluster.topology()["nodes"][0]
    with ServiceClient(spec["host"], spec["port"], pool_size=1) as client:
        topology = client.cluster_topology()
        validate_topology(topology)
        assert [n["id"] for n in topology["nodes"]] == [
            "node-0", "node-1", "node-2",
        ]
        health = client.health()
        assert health["status"] == "ok"
        assert health["node_id"] == "node-0"
        assert health["pid"] == cluster.node_pid("node-0")


def test_nodes_reject_cluster_control_frames(cluster):
    spec = cluster.topology()["nodes"][0]
    with ServiceClient(spec["host"], spec["port"], pool_size=1) as client:
        with pytest.raises(ProtocolError, match="supervisor"):
            client.cluster_control("status")
        # the connection survives the typed error
        assert client.ping() >= 0.0


def test_control_drain_without_node_is_a_typed_error(cluster):
    with _control(cluster) as client:
        with pytest.raises(ServiceError, match="needs a node"):
            client.cluster_control("drain")
        with pytest.raises(ServiceError, match="no node"):
            client.cluster_control("drain", node="node-99")


def test_control_endpoint_rejects_compress_frames(cluster):
    payload = protocol.encode_json({"action": "status"})
    with _control(cluster) as client:
        with pytest.raises(ProtocolError, match="does not serve"):
            client._request(protocol.COMPRESS, payload)


def test_restart_via_control_changes_pid(cluster):
    pid_before = cluster.node_pid("node-2")
    with _control(cluster, deadline=30.0) as client:
        answer = client.cluster_control("restart", node="node-2")
    assert answer["id"] == "node-2"
    assert answer["restarts"] == 1
    assert cluster.node_pid("node-2") != pid_before
    assert _wait_until(
        lambda: {n["id"]: n["state"] for n in cluster.status()["nodes"]}[
            "node-2"
        ]
        == "up"
    )


def test_supervisor_rejects_bad_parameters():
    with pytest.raises(ValueError, match="at least one node"):
        ClusterSupervisor(0)
    with pytest.raises(ValueError, match="replication"):
        ClusterSupervisor(2, replication=0)


def test_stop_with_an_open_control_connection_is_clean(caplog):
    # A pooled client (an operator's monitoring loop) still holds its
    # control connection when the supervisor stops: the endpoint must
    # close it gracefully, not pull the event loop out from under it.
    supervisor = ClusterSupervisor(1, replication=1, node_grace=1.5).start()
    client = ServiceClient(
        supervisor.control_host, supervisor.control_port, pool_size=1
    )
    try:
        assert client.cluster_control("status")["nodes"][0]["state"] == "up"
        with caplog.at_level("WARNING", logger="asyncio"):
            supervisor.stop()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
    finally:
        client.close()
        supervisor.stop()


def test_occupied_control_port_is_a_cluster_error():
    import socket

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        supervisor = ClusterSupervisor(
            1, replication=1, node_grace=1.5,
            control_port=taken.getsockname()[1],
        )
        try:
            with pytest.raises(
                ClusterError, match="control endpoint failed to bind: .*in use"
            ):
                supervisor.start()
        finally:
            supervisor.stop()
