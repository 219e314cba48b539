"""The network compression service.

Turns the in-process streaming surface (:mod:`repro.api`) into a
multi-client TCP service: a length-prefixed binary wire protocol
(:mod:`repro.service.protocol`), an asyncio server with per-connection
backpressure, request batching, and graceful drain
(:mod:`repro.service.server`), sync and async client libraries
(:mod:`repro.service.client`), request/latency metrics
(:mod:`repro.service.metrics`), the resilience primitives —
deadlines, retry policies and budgets, circuit breakers — the clients
compose around their transports (:mod:`repro.service.resilience`),
per-tenant authentication and quota admission
(:mod:`repro.service.tenants`), and an HTTP observability gateway
serving Prometheus metrics (:mod:`repro.service.gateway`).

Compressed payloads cross the wire as FCF streams verbatim, so a served
round trip is byte-identical to a local ``compress_array`` /
``decompress_array`` call — including ``codec="auto"`` v2 mixed-codec
streams.  See ``docs/service.md`` for the wire specification and threat
model; ``fcbench serve`` / ``fcbench client`` are the CLI entry points.
"""

from importlib import import_module

# Lazy (PEP 562): ``import repro.service.client`` -- and so
# ``repro.connect`` -- must not load the server, the gateway or
# ``http.server`` just because this package initialises first.
_EXPORTS = {
    "client": ("AsyncServiceClient", "DEFAULT_CODEC", "ServiceClient"),
    "gateway": ("ObservabilityGateway", "render_prometheus"),
    "metrics": ("LatencyHistogram", "ServiceMetrics"),
    "protocol": (
        "DEFAULT_MAX_PAYLOAD", "MAGIC", "PROTOCOL_VERSION", "Frame",
        "FrameParser", "encode_frame",
    ),
    "resilience": ("CircuitBreaker", "Deadline", "RetryBudget", "RetryPolicy"),
    "server": (
        "CompressionServer", "ServerHandle", "run_server", "serve_background",
    ),
    "tenants": ("TenantConfig", "TenantRegistry", "generate_token"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_MODULE_OF)
