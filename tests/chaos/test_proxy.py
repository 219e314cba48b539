"""ChaosProxy against a real compression server.

Every fault must surface as a *typed* failure on the client —
transport errors, protocol errors, or timeouts — never as silently
wrong bytes, and a fault-free proxied round trip must be
byte-identical to a direct one.
"""

import numpy as np
import pytest

from repro.api import compress_array
from repro.chaos import ChaosProxy, FaultPlan, FaultSpec
from repro.errors import ProtocolError
from repro.service import ServiceClient, serve_background


@pytest.fixture(scope="module")
def server():
    handle = serve_background()
    yield handle
    handle.stop()


def _array(n=512):
    return np.cumsum(np.random.default_rng(11).normal(0, 1, n))


def _client(proxy, **kwargs):
    kwargs.setdefault("retry", 0)
    return ServiceClient(proxy.listen_host, proxy.listen_port, **kwargs)


def test_faultless_proxy_is_transparent(server):
    arr = _array()
    with ChaosProxy(server.host, server.port, FaultPlan()) as proxy:
        with _client(proxy) as client:
            served = client.compress_array(arr, "gorilla", chunk_elements=128)
            assert served == compress_array(arr, "gorilla", chunk_elements=128)
            assert np.array_equal(client.decompress_array(served), arr)
        assert proxy.stats()["connections"] == 1
        assert proxy.stats()["injected"] == {}


def test_corruption_is_caught_by_the_frame_crc(server):
    plan = FaultPlan((FaultSpec("corrupt", probability=1.0, after_bytes=20),))
    with ChaosProxy(server.host, server.port, plan) as proxy:
        with _client(proxy) as client:
            with pytest.raises(ProtocolError, match="checksum"):
                client.compress_array(_array(), "gorilla", chunk_elements=128)
        assert proxy.stats()["injected"]["corrupt"] == 1


def test_mid_frame_disconnect_is_a_transport_fault(server):
    plan = FaultPlan((FaultSpec("disconnect", probability=1.0,
                                after_bytes=64),))
    with ChaosProxy(server.host, server.port, plan) as proxy:
        with _client(proxy) as client:
            # retry=0: the transport fault surfaces as the exhausted-
            # attempts ProtocolError, not as corrupted data.
            with pytest.raises(ProtocolError, match="attempt"):
                client.compress_array(_array(), "gorilla", chunk_elements=128)
        assert proxy.stats()["injected"]["disconnect"] == 1


def test_connect_refusal_shows_up_before_any_bytes(server):
    plan = FaultPlan((FaultSpec("connect_refuse", probability=1.0),))
    with ChaosProxy(server.host, server.port, plan) as proxy:
        with _client(proxy) as client:
            with pytest.raises(ProtocolError, match="attempt"):
                client.ping()
        assert proxy.stats()["injected"]["connect_refuse"] >= 1


def test_latency_spike_trips_the_operation_deadline(server):
    plan = FaultPlan((FaultSpec("latency", probability=1.0, seconds=0.5),))
    with ChaosProxy(server.host, server.port, plan) as proxy:
        with _client(proxy, deadline=0.15) as client:
            with pytest.raises(TimeoutError):
                client.ping()
        assert proxy.stats()["injected"]["latency"] == 1


def test_stall_resumes_and_the_round_trip_stays_identical(server):
    arr = _array()
    plan = FaultPlan((FaultSpec("stall", probability=1.0, seconds=0.1,
                                after_bytes=32),))
    with ChaosProxy(server.host, server.port, plan) as proxy:
        with _client(proxy, deadline=10.0) as client:
            served = client.compress_array(arr, "gorilla", chunk_elements=128)
        assert served == compress_array(arr, "gorilla", chunk_elements=128)
        assert proxy.stats()["injected"]["stall"] == 1


def test_retry_through_a_sometimes_faulty_proxy_succeeds(server):
    # Connection 0 is refused, connection 1 is clean (probability comes
    # from the seeded draw, so this script is stable).
    plan = FaultPlan((FaultSpec("connect_refuse", probability=1.0),))
    clean = FaultPlan()
    specs_by_connection = {0: plan, 1: clean}

    class _Scripted(FaultPlan):
        def decide(self, connection_index):
            scripted = specs_by_connection.get(connection_index, clean)
            return [
                spec for spec in scripted.specs
                if spec.probability >= 1.0
            ]

    with ChaosProxy(server.host, server.port, _Scripted()) as proxy:
        with _client(proxy, retry=2) as client:
            assert client.ping() > 0.0


def test_proxy_survives_target_death():
    handle = serve_background()
    with ChaosProxy(handle.host, handle.port, FaultPlan()) as proxy:
        with _client(proxy) as client:
            client.ping()
            handle.stop()
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                client.ping()
                client.ping()  # pooled conn may eat the first EOF
