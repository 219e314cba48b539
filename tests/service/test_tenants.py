"""Multi-tenant serving: auth, quotas, priority, and ledger accounting.

The acceptance bars: a zero-quota tenant is always rejected with the
*typed* quota error (never a retryable overload — a lone over-quota
request must not livelock the admission gate), authentication failures
are typed too, quota windows refund what never executed while lifetime
totals keep every admission, and the registry's lifetime ledger always
equals the metrics ledger byte-exactly (the invariant the chaos soak
audits across node failover).
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api.session import DecompressSession
from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    ReproError,
)
from repro.service import ServiceClient, serve_background
from repro.service.protocol import (
    COMPRESS,
    ERR_DEADLINE,
    ERROR,
    FrameParser,
    decode_error,
    encode_compress_request,
    encode_frame,
    response_type,
)
from repro.service.tenants import (
    TenantConfig,
    TenantRegistry,
    generate_token,
)


def _registry() -> TenantRegistry:
    registry = TenantRegistry()
    registry.add(TenantConfig("acme", token="tok-acme", priority=5))
    registry.add(
        TenantConfig(
            "small",
            token="tok-small",
            max_bytes_per_window=4096,
            window_seconds=3600.0,
        )
    )
    registry.add(
        TenantConfig(
            "suspended",
            token="tok-zero",
            max_requests_per_window=0,
        )
    )
    return registry


@pytest.fixture(scope="module")
def server():
    handle = serve_background(tenants=_registry())
    yield handle
    handle.stop()


@pytest.fixture()
def array():
    return np.linspace(0.0, 1.0, 2048).astype(np.float64)


# -- registry unit behavior -----------------------------------------------
class TestRegistry:
    def test_duplicate_id_and_token_rejected(self):
        registry = TenantRegistry()
        registry.add(TenantConfig("a", token="t1"))
        with pytest.raises(ValueError):
            registry.add(TenantConfig("a", token="t2"))
        with pytest.raises(ValueError):
            registry.add(TenantConfig("b", token="t1"))

    def test_authenticate_unknown_token_typed(self):
        registry = _registry()
        with pytest.raises(AuthenticationError):
            registry.authenticate("nope")
        with pytest.raises(AuthenticationError):
            registry.authenticate(None)

    def test_zero_quota_never_admissible(self):
        registry = _registry()
        decision = registry.check_quota("suspended", 16)
        assert not decision.admitted
        # None, not a number: there is no window reset that will help.
        assert decision.retry_after_ms is None

    def test_window_refund_keeps_lifetime_totals(self):
        registry = TenantRegistry()
        registry.add(
            TenantConfig("t", token="x", max_bytes_per_window=1000)
        )
        assert registry.check_quota("t", 600).admitted
        registry.release("t", 600)  # admitted but never executed
        # The window got its budget back ...
        assert registry.check_quota("t", 600).admitted
        row = registry.snapshot()["tenants"]["t"]
        # ... but the lifetime ledger kept both admissions.
        assert row["total_requests"] == 2
        assert row["total_bytes"] == 1200

    def test_json_round_trip(self, tmp_path):
        registry = _registry()
        path = tmp_path / "tenants.json"
        registry.save(path)
        restored = TenantRegistry.load(path)
        assert restored.tenant_ids() == registry.tenant_ids()
        for tenant_id in registry.tenant_ids():
            assert restored.get(tenant_id) == registry.get(tenant_id)

    def test_snapshot_redacts_tokens(self):
        text = json.dumps(_registry().snapshot())
        assert "tok-acme" not in text and "tok-zero" not in text

    def test_generate_token_unique(self):
        assert generate_token() != generate_token()


# -- served behavior ------------------------------------------------------
class TestServedTenancy:
    def test_round_trip_with_token(self, server, array):
        with ServiceClient(
            server.host, server.port, token="tok-acme"
        ) as client:
            blob = client.compress_array(array, "gorilla")
            restored = client.decompress_array(blob)
        assert np.array_equal(restored, array)

    def test_missing_token_typed_auth_error(self, server, array):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(AuthenticationError):
                client.compress_array(array, "gorilla")

    def test_bad_token_typed_auth_error(self, server, array):
        with ServiceClient(
            server.host, server.port, token="wrong"
        ) as client:
            with pytest.raises(AuthenticationError):
                client.compress_array(array, "gorilla")

    def test_light_probes_stay_unauthenticated(self, server):
        # Supervisors and dashboards probe without credentials.
        with ServiceClient(server.host, server.port) as client:
            assert client.ping() >= 0.0
            assert "ops" in client.stats()

    def test_zero_quota_always_rejected_typed(self, server, array):
        with ServiceClient(
            server.host, server.port, token="tok-zero"
        ) as client:
            for _ in range(3):
                with pytest.raises(QuotaExceededError) as excinfo:
                    client.compress_array(array, "gorilla")
                assert excinfo.value.retry_after_ms is None

    def test_over_quota_request_never_livelocks(self, server):
        # One request larger than the whole byte budget: on an *empty*
        # gate it must fail fast with the typed quota error, not spin
        # as a retryable overload until the deadline.
        big = np.zeros(4096, dtype=np.float64)  # 32 KiB > 4 KiB budget
        with ServiceClient(
            server.host, server.port, token="tok-small", deadline=10.0
        ) as client:
            with pytest.raises(QuotaExceededError) as excinfo:
                client.compress_array(big, "gorilla")
        assert excinfo.value.retry_after_ms is None

    def test_quota_error_not_burned_as_retry(self, server, array):
        # Quota errors must not be retried transparently: the error
        # surfaces on the first attempt even with retries enabled.
        with ServiceClient(
            server.host, server.port, token="tok-zero", retry=3
        ) as client:
            with pytest.raises(QuotaExceededError):
                client.compress_array(array, "gorilla")

    def test_two_ledger_invariant(self, array):
        registry = _registry()
        with serve_background(tenants=registry) as handle:
            with ServiceClient(
                handle.host, handle.port, token="tok-acme"
            ) as client:
                for _ in range(5):
                    client.compress_array(array, "gorilla")
                stats = client.stats()
            quota_row = stats["tenancy"]["tenants"]["acme"]
            metric_row = stats["tenants"]["acme"]
            assert quota_row["total_requests"] == 5
            assert (
                quota_row["total_requests"]
                == metric_row["admitted_requests"]
            )
            assert quota_row["total_bytes"] == metric_row["admitted_bytes"]

    def test_per_tenant_metrics_and_rejections_attributed(self, array):
        with serve_background(tenants=_registry()) as handle:
            with ServiceClient(
                handle.host, handle.port, token="tok-acme"
            ) as ok_client:
                ok_client.compress_array(array, "gorilla")
            with ServiceClient(
                handle.host, handle.port, token="tok-zero"
            ) as zero:
                with pytest.raises(ReproError):
                    zero.compress_array(array, "gorilla")
                stats = zero.stats()
        assert stats["tenants"]["acme"]["requests"] == 1
        assert stats["tenants"]["suspended"]["quota_rejected"] == 1
        assert stats["admission"]["quota_rejected"] == 1
        assert "resilience" not in stats  # the pre-tenancy alias is gone

    def test_request_expiring_in_the_backlog_counts_as_the_tenants_error(self):
        slow = encode_frame(
            COMPRESS,
            1,
            encode_compress_request(
                np.cumsum(np.random.default_rng(1).normal(0, 1, 12_000)),
                "dzip",
                12_000,
            ),
            tenant_token="tok-acme",
        )
        lapsing = encode_frame(
            COMPRESS,
            2,
            encode_compress_request(np.linspace(0, 1, 64), "gorilla", 64),
            deadline_ms=50,  # alive at admission, dead behind the dzip
            tenant_token="tok-acme",
        )
        parser, frames = FrameParser(), []
        with serve_background(tenants=_registry()) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(slow)
                while not handle.metrics.snapshot()["tenants"]:
                    time.sleep(0.002)  # admitted, hence already executing
                sock.sendall(lapsing)
                while len(frames) < 2:
                    data = sock.recv(1 << 16)
                    assert data, "server closed before answering"
                    frames.extend(parser.feed(data))
            stats = handle.server.stats_document()
        assert [frame.frame_type for frame in frames] == [
            response_type(COMPRESS),
            ERROR,
        ]
        assert decode_error(frames[1].payload)[0] == ERR_DEADLINE
        assert stats["admission"]["deadline_expired"] == 1
        row = stats["tenants"]["acme"]
        assert (row["requests"], row["errors"]) == (2, 1)
        assert row["admitted_requests"] == 2
        # The lapsed request never ran: its window charge was refunded.
        assert stats["tenancy"]["tenants"]["acme"]["window_requests"] == 1

    def test_priority_orders_batch_execution(self):
        # Two tenants of different priority, served concurrently, both
        # answer correctly (responses match by request id).  The order
        # a backlog is taken in is asserted in test_batching.py.
        registry = _registry()
        array = np.linspace(0.0, 1.0, 256).astype(np.float64)
        with serve_background(tenants=registry) as handle:
            out = {}

            def work(token, key):
                with ServiceClient(
                    handle.host, handle.port, token=token
                ) as client:
                    out[key] = client.decompress_array(
                        client.compress_array(array, "gorilla")
                    )

            threads = [
                threading.Thread(target=work, args=("tok-acme", "hi")),
                threading.Thread(target=work, args=("tok-small", "lo")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert np.array_equal(out["hi"], array)
        assert np.array_equal(out["lo"], array)

    def test_seeded_online_bandits_replay_the_same_arms(self):
        # The seeded per-tenant bandit is gone; served `auto` is the
        # heuristic, so the arm sequence is fixed by the request
        # sequence alone — whichever tenant sends each request.
        registry = TenantRegistry()
        registry.add(TenantConfig("gold", token="tok-gold", priority=5))
        registry.add(TenantConfig("bronze", token="tok-bronze"))
        rng = np.random.default_rng(5)
        walk = np.cumsum(rng.normal(0, 1, 512))
        shapes = [
            walk,
            np.round(walk, 1),
            rng.normal(0, 1, 512),
            np.repeat(walk[:64], 8),
        ]
        arms = []
        with serve_background(tenants=registry) as handle:
            with ServiceClient(
                handle.host, handle.port, token="tok-gold"
            ) as gold, ServiceClient(
                handle.host, handle.port, token="tok-bronze"
            ) as bronze:
                for turn in range(40):
                    blob = (gold, bronze)[turn % 2].compress_array(
                        shapes[(turn // 2) % 4],
                        "auto",
                        policy="heuristic",
                        chunk_elements=512,
                    )
                    with DecompressSession(blob) as session:
                        arms.extend(session.frame_codec_names())
            document = handle.server.stats_document()
        requests = {
            tenant: row["requests"]
            for tenant, row in document["tenants"].items()
        }
        z, f, d = "bitshuffle-zstd", "fpzip", "dzip"
        assert arms == [f, f, d, d, z, z, d, d] * 5
        assert requests == {"bronze": 20, "gold": 20}
        assert "online" not in document
