"""HTTP observability gateway: Prometheus metrics, health, tenants.

The FCS wire protocol is a binary, length-prefixed format — great for
the data path, opaque to every off-the-shelf dashboard.  This module
bolts a tiny read-only HTTP sidecar onto a running
:class:`~repro.service.server.CompressionServer`:

``GET /metrics``
    The full metrics snapshot rendered as Prometheus text exposition
    (version 0.0.4) — per-op request/error/latency series, per-codec
    byte accounting, admission-control rejections by reason, and when
    tenancy is enabled, per-tenant counters and quota windows.
``GET /healthz``
    The server's health document as JSON; status 200 while serving,
    503 once draining, so load balancers can rotate the node out
    before the TCP listener closes.
``GET /tenants``
    The tenancy sections as JSON — quota windows and lifetime totals —
    for humans and tooling that want structure rather than flat
    samples.
``GET /trace``
    The span recorder's recent window as JSON (stats, distinct trace
    ids, span dicts; ``?limit=N`` bounds the window).  404 when the
    server runs without ``--trace`` — absent, not broken.
``GET /trace/<trace-id>``
    One trace as a flat span list plus its nested parent→child tree.
``GET /trace/chrome``
    The recent window as Chrome ``chrome://tracing`` / Perfetto JSON
    (``{"traceEvents": [...]}``) — save and load it in the browser.

Non-GET methods get a proper 405 with an ``Allow: GET`` header.

Everything is stdlib (:mod:`http.server` on a daemon thread): the
gateway adds no dependencies and no load-bearing state.  It only ever
*reads* — each request takes one atomic snapshot, so scraping can
never skew accounting.  Like the FCS light probes, the gateway is
unauthenticated by design: it redacts tokens and serves operators, not
tenants.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import build_trace_tree, chrome_trace_events

__all__ = ["ObservabilityGateway", "render_prometheus"]

_CONTENT_TYPE_PROM = "text/plain; version=0.0.4; charset=utf-8"
_CONTENT_TYPE_JSON = "application/json; charset=utf-8"


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value) -> str:
    """Render one sample value (Prometheus wants plain floats/ints)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Family:
    """One metric family: HELP/TYPE header plus its samples, in order."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: list[tuple[dict, float]] = []

    def add(self, labels: dict | None, value) -> None:
        self.samples.append((labels or {}, value))

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in self.samples:
            if labels:
                inner = ",".join(
                    f'{key}="{_escape_label(val)}"'
                    for key, val in labels.items()
                )
                lines.append(f"{self.name}{{{inner}}} {_fmt(value)}")
            else:
                lines.append(f"{self.name} {_fmt(value)}")
        return "\n".join(lines)


def render_gateway_meta(node_id: str | None, scrape_seconds: float) -> str:
    """The gateway's own exposition tail: build info + scrape cost.

    ``fcbench_build_info`` is the Prometheus info-metric idiom — a
    constant ``1`` whose labels carry the interesting values — and the
    scrape-duration gauge makes the cost of ``/metrics`` itself
    visible (a snapshot that starts crawling is an incident signal).
    """
    import repro

    base = {"node": node_id} if node_id else {}
    info = _Family(
        "fcbench_build_info",
        "gauge",
        "Constant 1; labels carry the build version and Python runtime.",
    )
    info.add(
        {
            **base,
            "version": repro.__version__,
            "python": platform.python_version(),
        },
        1,
    )
    dur = _Family(
        "fcbench_gateway_scrape_duration_seconds",
        "gauge",
        "Seconds the gateway spent producing this /metrics answer.",
    )
    dur.add(base, scrape_seconds)
    return info.render() + "\n" + dur.render() + "\n"


def render_prometheus(document: dict, node_id: str | None = None) -> str:
    """Render a :meth:`CompressionServer.stats_document` as exposition text.

    Pure function of the snapshot — the gateway calls it per scrape,
    and tests call it directly to validate the format without sockets.
    Every family carries ``# HELP`` / ``# TYPE`` headers; counters end
    in ``_total`` per convention.
    """
    families: list[_Family] = []

    def family(name: str, kind: str, help_text: str) -> _Family:
        fam = _Family(name, kind, help_text)
        families.append(fam)
        return fam

    base = {"node": node_id} if node_id else {}

    fam = family(
        "fcbench_uptime_seconds", "gauge", "Seconds since the server started."
    )
    fam.add(base, document.get("uptime_seconds", 0.0))

    connections = document.get("connections", {})
    fam = family(
        "fcbench_connections_active", "gauge", "Currently open connections."
    )
    fam.add(base, connections.get("active", 0))
    fam = family(
        "fcbench_connections_opened_total",
        "counter",
        "Connections accepted since start.",
    )
    fam.add(base, connections.get("opened", 0))

    fam = family(
        "fcbench_protocol_errors_total",
        "counter",
        "Frames rejected as malformed.",
    )
    fam.add(base, document.get("protocol_errors", 0))

    batches = document.get("batches", {})
    fam = family(
        "fcbench_batched_requests_total",
        "counter",
        "Requests served through batches.",
    )
    fam.add(base, batches.get("requests", 0))
    fam = family(
        "fcbench_slices_total",
        "counter",
        "Heavy-op batches executed, by where they ran.",
    )
    inline = batches.get("inline", 0)
    fam.add({**base, "placement": "loop"}, inline)
    fam.add({**base, "placement": "executor"}, batches.get("count", 0) - inline)

    admission = document.get("admission", {})
    fam = family(
        "fcbench_admission_rejected_total",
        "counter",
        "Requests rejected at admission, by reason.",
    )
    for reason, key in (
        ("shed", "shed_requests"),
        ("deadline_rejected", "deadline_rejected"),
        ("deadline_expired", "deadline_expired"),
        ("auth", "auth_rejected"),
        ("quota", "quota_rejected"),
    ):
        fam.add({**base, "reason": reason}, admission.get(key, 0))
    fam = family(
        "fcbench_queue_depth",
        "gauge",
        "Heavy requests admitted and not yet finished, all connections.",
    )
    fam.add(base, admission.get("queued_requests", 0))
    fam = family(
        "fcbench_queued_bytes",
        "gauge",
        "Payload bytes of the requests counted in fcbench_queue_depth.",
    )
    fam.add(base, admission.get("queued_bytes", 0))

    ops = document.get("ops", {})
    req = family("fcbench_requests_total", "counter", "Requests served, by op.")
    err = family(
        "fcbench_request_errors_total", "counter", "Request errors, by op."
    )
    lat = family(
        "fcbench_request_latency_ms",
        "gauge",
        "Request latency quantiles in milliseconds, by op.",
    )
    for op, counts in sorted(ops.items()):
        labels = {**base, "op": op}
        req.add(labels, counts.get("requests", 0))
        err.add(labels, counts.get("errors", 0))
        latency = counts.get("latency", {})
        for quantile, key in (
            ("0.5", "p50_ms"),
            ("0.95", "p95_ms"),
            ("0.99", "p99_ms"),
        ):
            lat.add({**labels, "quantile": quantile}, latency.get(key, 0.0))

    codecs = document.get("codecs", {})
    creq = family(
        "fcbench_codec_requests_total", "counter", "Requests served, by codec."
    )
    cin = family(
        "fcbench_codec_bytes_in_total",
        "counter",
        "Uncompressed bytes handled, by codec.",
    )
    cout = family(
        "fcbench_codec_bytes_out_total",
        "counter",
        "Compressed bytes produced, by codec.",
    )
    for codec, stats in sorted(codecs.items()):
        labels = {**base, "codec": codec}
        creq.add(labels, stats.get("requests", 0))
        cin.add(labels, stats.get("bytes_in", 0))
        cout.add(labels, stats.get("bytes_out", 0))

    tenants = document.get("tenants", {})
    if tenants:
        series = {
            "requests": family(
                "fcbench_tenant_requests_total",
                "counter",
                "Requests served, by tenant.",
            ),
            "errors": family(
                "fcbench_tenant_request_errors_total",
                "counter",
                "Request errors, by tenant.",
            ),
            "bytes_in": family(
                "fcbench_tenant_bytes_in_total",
                "counter",
                "Request payload bytes received, by tenant.",
            ),
            "bytes_out": family(
                "fcbench_tenant_bytes_out_total",
                "counter",
                "Response payload bytes sent, by tenant.",
            ),
            "admitted_requests": family(
                "fcbench_tenant_admitted_requests_total",
                "counter",
                "Requests past quota admission, by tenant.",
            ),
            "admitted_bytes": family(
                "fcbench_tenant_admitted_bytes_total",
                "counter",
                "Payload bytes past quota admission, by tenant.",
            ),
            "quota_rejected": family(
                "fcbench_tenant_quota_rejected_total",
                "counter",
                "Quota rejections, by tenant.",
            ),
        }
        for tenant, row in sorted(tenants.items()):
            labels = {**base, "tenant": tenant}
            for key, fam in series.items():
                fam.add(labels, row.get(key, 0))

    quota = document.get("tenancy", {}).get("tenants", {})
    if quota:
        wb = family(
            "fcbench_tenant_window_bytes",
            "gauge",
            "Payload bytes charged in the current quota window, by tenant.",
        )
        wr = family(
            "fcbench_tenant_window_requests",
            "gauge",
            "Requests charged in the current quota window, by tenant.",
        )
        for tenant, row in sorted(quota.items()):
            labels = {**base, "tenant": tenant}
            wb.add(labels, row.get("window_bytes", 0))
            wr.add(labels, row.get("window_requests", 0))

    return "\n".join(fam.render() for fam in families) + "\n"


class ObservabilityGateway:
    """Serve ``/metrics``, ``/healthz``, ``/tenants`` for one server.

    Runs a :class:`ThreadingHTTPServer` on a daemon thread; every
    request snapshots the compression server's stats document afresh.
    Start with :meth:`start` (or as a context manager); ``port``
    resolves the ephemeral port after binding.
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self._requested_port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "ObservabilityGateway":
        if self._httpd is not None:
            return self
        compression_server = self.server

        class Handler(BaseHTTPRequestHandler):
            # One scrape per GET; no logging spam on the serving node.
            def log_message(self, *args) -> None:  # noqa: D102
                pass

            def _send(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, status: int, body) -> None:
                self._send(
                    status,
                    _CONTENT_TYPE_JSON,
                    json.dumps(body, sort_keys=True).encode("utf-8"),
                )

            def _query_limit(self) -> int | None:
                _, _, query = self.path.partition("?")
                for pair in query.split("&"):
                    key, _, value = pair.partition("=")
                    if key == "limit" and value.isdigit():
                        return int(value)
                return None

            def _do_trace(self, path: str) -> None:
                recorder = getattr(compression_server, "recorder", None)
                if recorder is None or not recorder.enabled:
                    # Absent, not broken: the server runs untraced.
                    self._send_json(404, {"error": "tracing disabled"})
                    return
                node_id = compression_server.effective_node_id
                if path == "/trace":
                    self._send_json(
                        200,
                        {
                            "node": node_id,
                            "stats": recorder.stats(),
                            "trace_ids": recorder.trace_ids(),
                            "spans": recorder.snapshot(self._query_limit()),
                        },
                    )
                elif path == "/trace/chrome":
                    self._send_json(
                        200,
                        {
                            "traceEvents": chrome_trace_events(
                                recorder.snapshot(self._query_limit())
                            )
                        },
                    )
                else:
                    # Trace ids are 32 hex chars, so they can never
                    # collide with the "chrome" sub-path above.
                    trace_id = path[len("/trace/") :]
                    spans = recorder.trace(trace_id)
                    if not spans:
                        self._send_json(
                            404, {"error": f"no trace {trace_id!r}"}
                        )
                        return
                    self._send_json(
                        200,
                        {
                            "node": node_id,
                            "trace_id": trace_id,
                            "spans": spans,
                            "tree": build_trace_tree(spans),
                        },
                    )

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        scrape_started = time.perf_counter()
                        document = compression_server.stats_document()
                        text = render_prometheus(
                            document, compression_server.effective_node_id
                        )
                        text += render_gateway_meta(
                            compression_server.effective_node_id,
                            time.perf_counter() - scrape_started,
                        )
                        self._send(
                            200, _CONTENT_TYPE_PROM, text.encode("utf-8")
                        )
                    elif path == "/healthz":
                        health = compression_server.health_document()
                        status = 200 if health.get("status") == "ok" else 503
                        self._send(
                            status,
                            _CONTENT_TYPE_JSON,
                            json.dumps(health).encode("utf-8"),
                        )
                    elif path == "/tenants":
                        document = compression_server.stats_document()
                        body = {
                            "tenancy": document.get("tenancy", {}),
                            "tenants": document.get("tenants", {}),
                        }
                        self._send(
                            200,
                            _CONTENT_TYPE_JSON,
                            json.dumps(body, sort_keys=True).encode("utf-8"),
                        )
                    elif path == "/trace" or path.startswith("/trace/"):
                        self._do_trace(path)
                    else:
                        self._send(
                            404, _CONTENT_TYPE_JSON, b'{"error": "not found"}'
                        )
                except Exception as exc:  # snapshot raced a shutdown
                    self._send(
                        500,
                        _CONTENT_TYPE_JSON,
                        json.dumps({"error": str(exc)}).encode("utf-8"),
                    )

            def _method_not_allowed(self) -> None:
                body = b'{"error": "method not allowed"}'
                self.send_response(405)
                self.send_header("Allow", "GET")
                self.send_header("Content-Type", _CONTENT_TYPE_JSON)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            # A read-only gateway: every mutating (or headless) verb is
            # answered 405 + Allow, not the default 501 or a 404.
            do_POST = _method_not_allowed  # noqa: N815 (http.server API)
            do_PUT = _method_not_allowed  # noqa: N815
            do_DELETE = _method_not_allowed  # noqa: N815
            do_PATCH = _method_not_allowed  # noqa: N815
            do_HEAD = _method_not_allowed  # noqa: N815

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="fcbench-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObservabilityGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
