"""Client pooling/retry behavior and the metrics instruments."""

import pytest

from repro.errors import ProtocolError
from repro.chaos.soak import percentile
from repro.service import ServiceClient, serve_background
from repro.service.metrics import LatencyHistogram, ServiceMetrics


# ----------------------------------------------------------------------
# Client: pooling and transparent retry
# ----------------------------------------------------------------------
def test_pool_reuses_connections():
    with serve_background() as handle:
        with ServiceClient(handle.host, handle.port, pool_size=1) as client:
            for _ in range(5):
                client.ping()
        # One pooled connection served all five requests.
        assert handle.metrics.connections_opened == 1
        handle.stop()


def test_retry_after_server_restart_on_same_port():
    # Kill the server under a client holding a pooled (now dead)
    # connection, restart on the same port, and issue a request: the
    # retry path must discard the stale socket and redial.
    handle = serve_background()
    host, port = handle.host, handle.port
    client = ServiceClient(host, port, pool_size=1, retry=2, deadline=10)
    assert client.ping() >= 0  # parks a live connection in the pool
    handle.stop()
    handle2 = serve_background(port=port)
    try:
        assert client.ping() >= 0  # transparent redial
    finally:
        client.close()
        handle2.stop()


def test_no_retries_surfaces_transport_failure():
    handle = serve_background()
    client = ServiceClient(
        handle.host, handle.port, pool_size=1, retry=0, deadline=5
    )
    assert client.ping() >= 0
    handle.stop()
    with pytest.raises(ProtocolError, match="1 attempt"):
        client.ping()
    client.close()


def test_slow_server_surfaces_timeout_not_protocol_error():
    # A server that accepts but never answers: the client must raise a
    # real TimeoutError (the request may still be executing server-side)
    # instead of retrying the work and reporting a transport failure.
    import socket

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    try:
        client = ServiceClient("127.0.0.1", port, retry=2, deadline=0.3)
        with pytest.raises(TimeoutError):
            client.ping()
        client.close()
    finally:
        listener.close()


def test_closed_client_refuses_requests():
    with serve_background() as handle:
        client = ServiceClient(handle.host, handle.port)
        client.close()
        with pytest.raises(ProtocolError, match="closed"):
            client.ping()
        handle.stop()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_latency_histogram_quantiles_are_monotonic():
    hist = LatencyHistogram()
    for ms in (1, 2, 3, 5, 8, 13, 21, 400):
        hist.record(ms / 1e3)
    assert hist.total == 8
    p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
    assert 0 < p50 <= p95 <= p99
    assert hist.quantile(0.5) >= 0.003  # the true median is 5-8 ms
    assert hist.mean_seconds == pytest.approx(
        sum((1, 2, 3, 5, 8, 13, 21, 400)) / 8 / 1e3
    )


def test_latency_histogram_empty_and_invalid():
    hist = LatencyHistogram()
    assert hist.quantile(0.99) == 0.0
    assert hist.mean_seconds == 0.0
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_service_metrics_snapshot_shape():
    metrics = ServiceMetrics()
    metrics.connection_opened()
    metrics.record_batch(3, inline=True)
    metrics.record_batch(1, inline=False)
    metrics.record_request(
        "compress", 0.01, codec="gorilla", bytes_in=800, bytes_out=200
    )
    metrics.record_request("compress", 0.02, ok=False)
    metrics.record_protocol_error()
    snapshot = metrics.snapshot()
    assert snapshot["ops"]["compress"]["requests"] == 2
    assert snapshot["ops"]["compress"]["errors"] == 1
    assert snapshot["ops"]["compress"]["latency"]["count"] == 2
    assert snapshot["codecs"]["gorilla"] == {
        "requests": 1, "bytes_in": 800, "bytes_out": 200,
    }
    assert snapshot["batches"] == {
        "count": 2, "requests": 4, "inline": 1, "mean_size": 2.0,
    }
    assert snapshot["protocol_errors"] == 1
    import json

    json.dumps(snapshot)  # must be JSON-serializable as-is


def test_service_metrics_concurrent_hammer_is_never_torn():
    """N threads mutate while others snapshot: every snapshot must be
    internally consistent (a request's op count, codec bytes, and
    latency sample land atomically), and the final totals exact."""
    import threading

    metrics = ServiceMetrics()
    writers, per_writer = 8, 400
    bytes_in, bytes_out = 64, 16
    stop_reading = threading.Event()
    torn: list[str] = []

    def _write(index: int) -> None:
        for _ in range(per_writer):
            metrics.connection_opened()
            metrics.record_request(
                "compress",
                0.001,
                codec="gorilla",
                bytes_in=bytes_in,
                bytes_out=bytes_out,
            )
            metrics.record_batch(2, inline=index % 2 == 0)
            metrics.connection_closed()

    def _read() -> None:
        while not stop_reading.is_set():
            snapshot = metrics.snapshot()
            ops = snapshot["ops"].get("compress")
            if ops is None:
                continue
            codec = snapshot["codecs"].get("gorilla", {})
            # Atomicity invariants: each record_request lands whole.
            if ops["latency"]["count"] != ops["requests"]:
                torn.append(
                    f"latency {ops['latency']['count']} != "
                    f"requests {ops['requests']}"
                )
            if codec and codec["bytes_in"] != codec["requests"] * bytes_in:
                torn.append(
                    f"bytes_in {codec['bytes_in']} != "
                    f"{codec['requests']} * {bytes_in}"
                )

    threads = [
        threading.Thread(target=_write, args=(index,), daemon=True)
        for index in range(writers)
    ] + [threading.Thread(target=_read, daemon=True) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads[:writers]:
        thread.join(timeout=60.0)
    stop_reading.set()
    for thread in threads[writers:]:
        thread.join(timeout=10.0)

    assert torn == []
    total = writers * per_writer
    snapshot = metrics.snapshot()
    assert snapshot["ops"]["compress"]["requests"] == total
    assert snapshot["ops"]["compress"]["latency"]["count"] == total
    assert snapshot["codecs"]["gorilla"] == {
        "requests": total,
        "bytes_in": total * bytes_in,
        "bytes_out": total * bytes_out,
    }
    assert snapshot["batches"] == {
        "count": total,
        "requests": total * 2,
        "inline": (writers + 1) // 2 * per_writer,
        "mean_size": 2.0,
    }
    assert snapshot["connections"] == {"opened": total, "active": 0}


# ----------------------------------------------------------------------
# Exact client-side percentiles (the chaos soak's latency summary)
# ----------------------------------------------------------------------
def test_percentile_exact_ranks():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.95) == 95.0
    assert percentile(samples, 0.99) == 99.0
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile([], 0.5) == 0.0

