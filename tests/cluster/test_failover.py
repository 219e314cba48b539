"""Fault injection: SIGKILL nodes under traffic, byte-identity intact.

The acceptance bar for the cluster: a node can be SIGKILLed between
requests or with a request in flight and no caller ever sees an error
or — worse — wrong bytes.  Failover replays on a replica, the
supervisor respawns the corpse, and every answer stays byte-identical
to the local ``compress_array``.  There is no wrong-data path: typed
data errors (corrupt stream) are *not* failed over, they are the
deterministic answer.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import compress_array
from repro.cluster import ClusterClient, ClusterSupervisor
from repro.errors import ClusterError, CorruptStreamError
from repro.select import resolve_policy

pytestmark = pytest.mark.cluster

SLOW_CODEC = "bitshuffle-zstd"  # a compress of _big() long enough to
# SIGKILL the serving node with the request in flight.


@pytest.fixture(scope="module")
def cluster():
    supervisor = ClusterSupervisor(
        3, replication=2, health_interval=0.15, node_grace=1.5,
    )
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture()
def client(cluster):
    with ClusterClient(
        [(cluster.control_host, cluster.control_port)], deadline=60.0
    ) as client:
        yield client


def _sample(n=4096, seed=11):
    rng = np.random.default_rng(seed)
    arr = np.cumsum(rng.normal(0, 1, n))
    arr[7] = np.nan
    return arr


def _big():
    return _sample(n=120_000, seed=3)


def _wait_all_up(cluster, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(n["state"] == "up" for n in cluster.status()["nodes"]):
            return
        time.sleep(0.1)
    raise AssertionError(
        f"cluster not healthy after {timeout}s: {cluster.status()['nodes']}"
    )


def _wait_respawned(cluster, node_id, old_pid, timeout=20.0):
    """Wait until the health loop has respawned ``node_id``.

    Polling for state alone races the health sweep (the supervisor
    reports the stale ``up`` until its next probe), so wait for the
    observable respawn: a fresh pid answering health probes.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = {n["id"]: n for n in cluster.status()["nodes"]}
        node = status[node_id]
        if node["state"] == "up" and node["pid"] != old_pid:
            return node
        time.sleep(0.1)
    raise AssertionError(
        f"{node_id} (old pid {old_pid}) not respawned after {timeout}s: "
        f"{cluster.status()['nodes']}"
    )


def test_roundtrip_byte_identical_fixed_and_auto(cluster, client):
    arr = _sample()
    for codec, local_codec in (
        ("gorilla", "gorilla"),
        ("auto", resolve_policy("heuristic")),
    ):
        blob = client.compress_stream("t0/base", arr, codec)
        assert blob == compress_array(arr, local_codec)
        assert np.array_equal(
            client.decompress_stream("t0/base", blob), arr, equal_nan=True
        )


def test_kill_primary_between_requests_fails_over(cluster, client):
    arr = _sample(seed=23)
    stream = "t1/kill-between"
    primary, replica = client.nodes_for(stream)
    local = compress_array(arr, "auto")
    assert client.compress_stream(stream, arr, "auto") == local

    pid = cluster.node_pid(primary)
    cluster.kill_node(primary)
    # No sleep: the very next request must fail over, not error.
    assert client.compress_stream(stream, arr, "auto") == local
    assert np.array_equal(
        client.decompress_stream(stream, local), arr, equal_nan=True
    )
    respawned = _wait_respawned(cluster, primary, pid)
    assert respawned["restarts"] >= 1


def test_kill_primary_mid_request_fails_over(cluster, client):
    arr = _big()
    stream = "t2/kill-mid"
    primary = client.nodes_for(stream)[0]
    pid = cluster.node_pid(primary)
    start = time.perf_counter()
    local = compress_array(arr, SLOW_CODEC)
    # The node compresses as fast as this process did, so halfway
    # through that time the request is in flight on any host.
    halfway = (time.perf_counter() - start) / 2

    # Fire the kill while the slow compress is in flight on the
    # primary.  The client's connection dies mid-read; the replay on
    # the replica must return the identical bytes.
    killer = threading.Timer(halfway, cluster.kill_node, args=(primary,))
    killer.start()
    try:
        blob = client.compress_stream(stream, arr, SLOW_CODEC)
    finally:
        killer.cancel()
    assert blob == local
    _wait_respawned(cluster, primary, pid)


def test_corrupt_stream_is_answered_not_failed_over(cluster, client):
    status_before = {
        n["id"]: n["restarts"] for n in cluster.status()["nodes"]
    }
    with pytest.raises(CorruptStreamError):
        client.decompress_stream("t3/corrupt", b"FCF\x00 garbage bytes")
    # A deterministic data error must not look like a node fault.
    status_after = {
        n["id"]: n["restarts"] for n in cluster.status()["nodes"]
    }
    assert status_after == status_before


def test_hammer_with_mid_run_kill_zero_errors(cluster, client):
    """The acceptance run: concurrent load, one node SIGKILLed mid-run.

    Every round trip must complete with byte-identical results —
    failed requests and wrong bytes both count as test failure.
    """
    _wait_all_up(cluster)
    workers, requests = 4, 6
    arrays = {
        index: _sample(n=8192, seed=100 + index) for index in range(workers)
    }
    locals_ = {
        index: compress_array(arrays[index], "auto")
        for index in range(workers)
    }
    failures: list[str] = []
    barrier = threading.Barrier(workers + 1)

    def _drive(index: int) -> None:
        stream = f"t4/hammer/{index}"
        own = ClusterClient(
            [(cluster.control_host, cluster.control_port)], deadline=60.0
        )
        barrier.wait()
        try:
            for _ in range(requests):
                blob = own.compress_stream(stream, arrays[index], "auto")
                if blob != locals_[index]:
                    failures.append(f"{stream}: wrong bytes")
                out = own.decompress_stream(stream, blob)
                if not np.array_equal(out, arrays[index], equal_nan=True):
                    failures.append(f"{stream}: wrong round trip")
        except Exception as exc:  # noqa: BLE001 - the point of the test
            failures.append(f"{stream}: {type(exc).__name__}: {exc}")
        finally:
            own.close()

    threads = [
        threading.Thread(target=_drive, args=(index,), daemon=True)
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(0.15)
    pid = cluster.node_pid("node-1")
    cluster.kill_node("node-1")
    for thread in threads:
        thread.join(timeout=120.0)
    assert failures == []
    _wait_respawned(cluster, "node-1", pid)


def test_drain_keeps_node_down_and_traffic_flowing(cluster, client):
    """Runs last in this module: it permanently removes node-0."""
    _wait_all_up(cluster)
    answer = cluster.drain("node-0")
    assert answer["state"] == "down"
    # the health loop must not resurrect a drained node
    time.sleep(cluster.health_interval * 6)
    status = {n["id"]: n for n in cluster.status()["nodes"]}
    assert status["node-0"]["state"] == "down"

    arr = _sample(seed=41)
    local = compress_array(arr, "auto")
    for index in range(6):  # several streams → both survivors serve
        stream = f"t5/drain/{index}"
        assert client.compress_stream(stream, arr, "auto") == local


def test_whole_replica_set_loss_is_a_cluster_error():
    """With no survivors the client raises ClusterError, never junk."""
    supervisor = ClusterSupervisor(
        1, replication=1, health_interval=0.1, auto_restart=False,
        node_grace=0.5,
    )
    supervisor.start()
    try:
        with ClusterClient(
            [(supervisor.control_host, supervisor.control_port)], deadline=5.0
        ) as client:
            arr = _sample(seed=5)
            blob = client.compress_stream("t6/only", arr, "gorilla")
            assert blob == compress_array(arr, "gorilla")
            supervisor.kill_node("node-0")
            with pytest.raises(ClusterError, match="no replica"):
                client.compress_stream("t6/only", arr, "gorilla")
    finally:
        supervisor.stop()
