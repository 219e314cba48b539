"""HTTP observability gateway: Prometheus exposition, health, tenants.

The exposition-format validator below is deliberately strict about the
parts scrapers are strict about: every sample line belongs to a family
announced by ``# HELP``/``# TYPE``, counter family names end in
``_total``, label values are quoted and escaped, and values parse as
floats.  The live-scrape tests then assert per-tenant counters and
quota-window gauges actually show up for real traffic.
"""

import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import AuthenticationError, QuotaExceededError
from repro.service import ServiceClient, serve_background
from repro.service.gateway import ObservabilityGateway, render_prometheus
from repro.service.metrics import ServiceMetrics
from repro.service.tenants import TenantConfig, TenantRegistry

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$')


def validate_exposition(text: str) -> dict:
    """Parse a Prometheus text-format page; return {family: kind}."""
    families: dict[str, str] = {}
    announced: set[str] = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            announced.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name in announced, f"TYPE before HELP for {name}"
            assert kind in {"counter", "gauge", "summary"}, kind
            if kind == "counter":
                assert name.endswith("_total"), (
                    f"counter {name} must end in _total"
                )
            families[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        assert match.group("name") in families, (
            f"sample {match.group('name')} has no TYPE header"
        )
        if match.group("labels"):
            inner = match.group("labels")[1:-1]
            for pair in filter(None, inner.split(",")):
                assert LABEL_RE.match(pair), f"bad label pair: {pair!r}"
        float(match.group("value"))  # raises if not a number
    assert families, "no metric families found"
    return families


def _registry():
    registry = TenantRegistry()
    registry.add(TenantConfig("acme", token="gw-acme", priority=5))
    registry.add(TenantConfig("beta", token="gw-beta"))
    return registry


@pytest.fixture(scope="module")
def stack():
    handle = serve_background(tenants=_registry())
    gateway = ObservabilityGateway(handle.server)
    gateway.start()
    array = np.linspace(0.0, 1.0, 2048).astype(np.float64)
    with ServiceClient(handle.host, handle.port, token="gw-acme") as acme:
        for _ in range(3):
            blob = acme.compress_array(array, "auto")
            acme.decompress_array(blob)
    with ServiceClient(handle.host, handle.port, token="gw-beta") as beta:
        beta.compress_array(array, "gorilla")
    yield gateway
    gateway.stop()
    handle.stop()


def _get(gateway, path):
    with urllib.request.urlopen(gateway.url(path), timeout=5) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestRenderPrometheus:
    def test_render_is_valid_exposition(self, stack):
        document = stack.server.stats_document()
        families = validate_exposition(render_prometheus(document))
        assert families["fcbench_uptime_seconds"] == "gauge"
        assert families["fcbench_requests_total"] == "counter"
        assert families["fcbench_tenant_requests_total"] == "counter"

    def test_rejections_are_counted_where_they_can_be_attributed(self):
        # A failed authentication has no tenant: it counts server-wide
        # only.  A quota rejection counts server-wide and under its tenant.
        registry = TenantRegistry()
        registry.add(
            TenantConfig("frozen", token="gw-frozen", max_requests_per_window=0)
        )
        array = np.linspace(0.0, 1.0, 256)
        with serve_background(tenants=registry) as handle:
            for token, error in (
                ("gw-nobody", AuthenticationError),
                ("gw-frozen", QuotaExceededError),
            ):
                with ServiceClient(
                    handle.host, handle.port, token=token
                ) as client, pytest.raises(error):
                    client.compress_array(array, "gorilla")
            document = handle.server.stats_document()
        assert document["admission"]["auth_rejected"] == 1
        assert document["admission"]["quota_rejected"] == 1
        assert document["tenants"]["frozen"]["quota_rejected"] == 1
        assert "auth_rejected" not in document["tenants"]["frozen"]
        text = render_prometheus(document)
        families = validate_exposition(text)
        assert "fcbench_tenant_auth_rejected_total" not in families
        assert 'fcbench_admission_rejected_total{reason="auth"} 1\n' in text
        assert 'fcbench_admission_rejected_total{reason="quota"} 1\n' in text
        assert (
            'fcbench_tenant_quota_rejected_total{tenant="frozen"} 1\n' in text
        )

    def test_admission_gate_occupancy_exported_as_gauges(self, stack):
        document = stack.server.stats_document()
        assert document["admission"]["queued_requests"] == 0  # idle stack
        document["admission"].update(queued_requests=3, queued_bytes=98_304)
        text = render_prometheus(document, node_id="node-7")
        families = validate_exposition(text)
        assert families["fcbench_queue_depth"] == "gauge"
        assert families["fcbench_queued_bytes"] == "gauge"
        assert 'fcbench_queue_depth{node="node-7"} 3\n' in text
        assert 'fcbench_queued_bytes{node="node-7"} 98304\n' in text

    def test_slices_counted_by_where_they_ran(self):
        metrics = ServiceMetrics()
        for inline in (True, False, True):
            metrics.record_batch(2, inline)
        text = render_prometheus(metrics.snapshot(), node_id="node-7")
        families = validate_exposition(text)
        assert families["fcbench_slices_total"] == "counter"
        assert (
            'fcbench_slices_total{node="node-7",placement="loop"} 2\n' in text
        )
        assert (
            'fcbench_slices_total{node="node-7",placement="executor"} 1\n'
            in text
        )

    def test_node_label_threaded_through(self, stack):
        document = stack.server.stats_document()
        text = render_prometheus(document, node_id="node-7")
        assert 'node="node-7"' in text
        validate_exposition(text)

    def test_label_values_escaped(self, stack):
        document = stack.server.stats_document()
        text = render_prometheus(document, node_id='we"ird\\nd\n')
        validate_exposition(text)
        assert '\\"' in text and "\\\\" in text and "\\n" in text


class TestEndpoints:
    def test_metrics_scrape(self, stack):
        status, body = _get(stack, "/metrics")
        assert status == 200
        families = validate_exposition(body)
        # The fixture's traffic is done: the admission gate reads empty.
        assert re.search(r"^fcbench_queue_depth\{[^}]*\} 0$", body, re.M)
        assert re.search(r"^fcbench_queued_bytes\{[^}]*\} 0$", body, re.M)
        # Per-tenant counters attribute the traffic the fixture drove.
        acme = re.search(
            r'fcbench_tenant_requests_total\{[^}]*tenant="acme"\} (\d+)',
            body,
        )
        beta = re.search(
            r'fcbench_tenant_requests_total\{[^}]*tenant="beta"\} (\d+)',
            body,
        )
        assert acme and int(acme.group(1)) == 6  # 3 compress + 3 decompress
        assert beta and int(beta.group(1)) == 1
        assert families["fcbench_tenant_window_requests"] == "gauge"
        assert 'tenant="acme"' in body

    def test_healthz_ok(self, stack):
        status, body = _get(stack, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_tenants_json(self, stack):
        status, body = _get(stack, "/tenants")
        assert status == 200
        payload = json.loads(body)
        assert set(payload["tenancy"]["tenants"]) == {"acme", "beta"}
        assert "acme" in payload["tenants"]
        assert "gw-acme" not in body  # tokens never leave the server

    def test_unknown_path_404(self, stack):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(stack, "/nope")
        assert excinfo.value.code == 404

    def test_port_resolves_and_restart_is_idempotent(self, stack):
        assert stack.port > 0
        assert stack.start() is stack  # second start is a no-op


class TestErrorPaths:
    def test_non_get_is_405_with_allow_header(self, stack):
        for method in ("POST", "PUT", "DELETE"):
            request = urllib.request.Request(
                stack.url("/metrics"),
                data=b"" if method != "DELETE" else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 405, method
            assert excinfo.value.headers["Allow"] == "GET"

    def test_trace_on_an_untraced_server_is_a_clean_404(self, stack):
        # The fixture's server runs without --trace: the route exists
        # but answers 404 JSON, not a 500 or an exposition page.
        for path in ("/trace", "/trace/chrome", "/trace/" + "ab" * 16):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(stack, path)
            assert excinfo.value.code == 404, path
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["error"] == "tracing disabled"

    def test_build_info_and_scrape_duration_exported(self, stack):
        _, body = _get(stack, "/metrics")
        families = validate_exposition(body)
        assert families["fcbench_build_info"] == "gauge"
        assert (
            families["fcbench_gateway_scrape_duration_seconds"] == "gauge"
        )
        info = re.search(r"fcbench_build_info\{([^}]*)\} 1", body)
        assert info, "build info sample missing"
        assert 'version="' in info.group(1)
        assert 'python="' in info.group(1)

    def test_concurrent_scrapes_race_metric_writes_cleanly(self, stack):
        """Scrapes racing live traffic must each see a valid page."""
        import threading

        array = np.linspace(0.0, 1.0, 1024).astype(np.float64)
        errors: list[str] = []
        stop = threading.Event()

        def _traffic():
            with ServiceClient(
                stack.server.host, stack.server.port, token="gw-acme"
            ) as client:
                while not stop.is_set():
                    client.compress_array(array, "gorilla")

        def _scrape():
            try:
                for _ in range(10):
                    status, body = _get(stack, "/metrics")
                    assert status == 200
                    validate_exposition(body)
            except Exception as exc:  # noqa: BLE001 - the point
                errors.append(f"{type(exc).__name__}: {exc}")

        driver = threading.Thread(target=_traffic, daemon=True)
        scrapers = [
            threading.Thread(target=_scrape, daemon=True) for _ in range(4)
        ]
        driver.start()
        for thread in scrapers:
            thread.start()
        for thread in scrapers:
            thread.join(timeout=60)
        stop.set()
        driver.join(timeout=60)
        assert errors == []


class TestTraceRoutes:
    @pytest.fixture(scope="class")
    def traced_stack(self):
        handle = serve_background(trace=True)
        gateway = ObservabilityGateway(handle.server)
        gateway.start()
        array = np.linspace(0.0, 1.0, 2048).astype(np.float64)
        with ServiceClient(handle.host, handle.port, trace=True) as client:
            blob = client.compress_array(array, "gorilla")
            client.decompress_array(blob)
            trace_ids = sorted(
                {s["trace_id"] for s in client.recorder.snapshot()}
            )
        yield gateway, trace_ids
        gateway.stop()
        handle.stop()

    def test_trace_lists_recent_spans_and_ids(self, traced_stack):
        gateway, trace_ids = traced_stack
        status, body = _get(gateway, "/trace")
        assert status == 200
        payload = json.loads(body)
        assert payload["stats"]["enabled"] is True
        assert set(trace_ids) <= set(payload["trace_ids"])
        names = {span["name"] for span in payload["spans"]}
        assert {"server.request", "server.execute"} <= names

    def test_trace_by_id_returns_one_nested_tree(self, traced_stack):
        gateway, trace_ids = traced_stack
        status, body = _get(gateway, f"/trace/{trace_ids[0]}")
        assert status == 200
        payload = json.loads(body)
        assert all(
            span["trace_id"] == trace_ids[0] for span in payload["spans"]
        )
        [root] = payload["tree"]
        assert root["name"] == "server.request"
        assert {c["name"] for c in root["children"]} >= {
            "server.parse",
            "server.execute",
        }

    def test_unknown_trace_id_is_404(self, traced_stack):
        gateway, _ = traced_stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(gateway, "/trace/" + "00" * 16)
        assert excinfo.value.code == 404

    def test_chrome_export_loads_in_about_tracing(self, traced_stack):
        gateway, _ = traced_stack
        status, body = _get(gateway, "/trace/chrome")
        assert status == 200
        events = json.loads(body)["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
