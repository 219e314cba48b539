"""Tenancy: auth tokens, quotas, and priorities for the service.

"Millions of users" means the server must know *who* is asking, how
much of the machine they may consume, and who goes first when frames
queue behind each other.  This module is the server-side source of
truth for all three:

* :class:`TenantConfig` — one tenant's identity: auth token, priority
  (higher runs first among the frames queued on one connection), and
  per-window byte/request budgets (``None`` = unlimited, ``0`` =
  always rejected).  Priority never reorders frames across
  connections, and every in-tree client carries one token per
  connection, so it never reorders one client's traffic either.
* :class:`TenantRegistry` — thread-safe token → tenant lookup, fixed-
  window quota accounting, and per-tenant usage counters.  The server
  consults it at admission, *before* the shared
  :class:`~repro.service.server._AdmissionGate`, so an over-quota
  tenant is answered with a typed
  :class:`~repro.errors.QuotaExceededError` immediately — it can never
  occupy gate capacity, and (unlike an overload shed) the client will
  not spin retries against it.

Quota windows are **fixed windows on the monotonic clock**: a tenant's
byte/request usage accumulates until ``window_seconds`` elapse, then
resets.  The rejection carries ``retry_after_ms`` pointing at the
window reset — except for budgets the request could *never* fit (a
zero-quota tenant, or a single request larger than the whole byte
budget), which reject with no hint at all: waiting would not help, and
a hint would invite a retry livelock.

Registries round-trip through JSON (``fcbench tenant create|quota``
edits the file, ``fcbench serve --tenants`` loads it); tokens are
generated with :mod:`secrets` and never logged.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from dataclasses import asdict, dataclass

from repro.errors import AuthenticationError, ReproError

__all__ = [
    "TenantConfig",
    "TenantQuotaDecision",
    "TenantRegistry",
    "generate_token",
]

_MAX_TENANT_ID = 64
#: Default quota window: budgets are per-minute unless configured.
DEFAULT_WINDOW_SECONDS = 60.0


def generate_token(nbytes: int = 16) -> str:
    """A fresh URL-safe tenant token (``secrets``-grade randomness)."""
    return secrets.token_hex(nbytes)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's identity, priority, and budgets.

    Parameters
    ----------
    tenant_id:
        Stable identity, 1–64 characters.
    token:
        Auth token the tenant's requests carry.
    priority:
        Backlog-ordering priority: among frames queued on one
        connection, higher runs first.
    max_bytes_per_window, max_requests_per_window:
        Payload-byte and request budgets per window; ``None`` disables
        that budget and ``0`` rejects every request (a suspended tenant
        keeps its identity and metrics without serving anything).
    window_seconds:
        Quota window in seconds.
    """

    tenant_id: str
    token: str
    priority: int = 0
    max_bytes_per_window: int | None = None
    max_requests_per_window: int | None = None
    window_seconds: float = DEFAULT_WINDOW_SECONDS

    def __post_init__(self) -> None:
        if not 1 <= len(self.tenant_id) <= _MAX_TENANT_ID:
            raise ValueError(
                f"tenant id must be 1..{_MAX_TENANT_ID} chars, "
                f"got {self.tenant_id!r}"
            )
        if not self.token:
            raise ValueError(f"tenant {self.tenant_id!r} has an empty token")
        for name in ("max_bytes_per_window", "max_requests_per_window"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 or None, got {value}")
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TenantQuotaDecision:
    """Outcome of one admission-time quota check."""

    admitted: bool
    #: ms until the window reset would admit the request, or ``None``
    #: when no amount of waiting can (zero/too-small budget).
    retry_after_ms: int | None = None
    reason: str = ""


@dataclass
class _Usage:
    """One tenant's current-window accounting plus lifetime totals."""

    window_start: float = 0.0
    window_bytes: int = 0
    window_requests: int = 0
    total_bytes: int = 0
    total_requests: int = 0
    total_rejections: int = 0


class TenantRegistry:
    """Thread-safe tenant lookup, quota windows, and usage accounting.

    The server's event loop authenticates and consumes quota; other
    threads (the gateway's ``/tenants`` endpoint, ``stats`` snapshots)
    read concurrently.  One lock covers every mutation, so usage
    counters are never torn.
    """

    def __init__(self, tenants: list[TenantConfig] | None = None) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantConfig] = {}
        self._by_token: dict[str, str] = {}
        self._usage: dict[str, _Usage] = {}
        for tenant in tenants or []:
            self.add(tenant)

    # -- membership ----------------------------------------------------
    def add(self, tenant: TenantConfig) -> None:
        with self._lock:
            if tenant.tenant_id in self._tenants:
                raise ValueError(f"duplicate tenant id {tenant.tenant_id!r}")
            if tenant.token in self._by_token:
                raise ValueError(
                    f"tenant {tenant.tenant_id!r} reuses another "
                    "tenant's token"
                )
            self._tenants[tenant.tenant_id] = tenant
            self._by_token[tenant.token] = tenant.tenant_id
            self._usage[tenant.tenant_id] = _Usage()

    def get(self, tenant_id: str) -> TenantConfig:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise KeyError(f"unknown tenant {tenant_id!r}") from None

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    # -- authentication ------------------------------------------------
    def authenticate(self, token: str | None) -> TenantConfig:
        """Resolve a wire token to its tenant; typed error otherwise."""
        with self._lock:
            tenant_id = (
                self._by_token.get(token) if token is not None else None
            )
            if tenant_id is None:
                raise AuthenticationError(
                    "request carried no tenant token"
                    if token is None
                    else "unknown tenant token"
                )
            return self._tenants[tenant_id]

    # -- quota ---------------------------------------------------------
    def check_quota(
        self, tenant_id: str, nbytes: int, now: float | None = None
    ) -> TenantQuotaDecision:
        """Consume ``nbytes`` + one request from the tenant's window.

        Admission and accounting are one atomic step: a decision that
        admits has already charged the window, so concurrent requests
        cannot overshoot the budget between check and charge.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            usage = self._usage[tenant_id]
            if now - usage.window_start >= tenant.window_seconds:
                usage.window_start = now
                usage.window_bytes = 0
                usage.window_requests = 0
            reset_ms = int(
                max(
                    0.0,
                    (tenant.window_seconds - (now - usage.window_start))
                    * 1000.0,
                )
            )
            budget = tenant.max_requests_per_window
            if budget is not None and usage.window_requests + 1 > budget:
                usage.total_rejections += 1
                # A fresh window could not admit it either -> no hint.
                hopeless = budget < 1
                return TenantQuotaDecision(
                    False,
                    None if hopeless else reset_ms,
                    f"request budget ({budget}/window) exhausted",
                )
            budget = tenant.max_bytes_per_window
            if budget is not None and usage.window_bytes + nbytes > budget:
                usage.total_rejections += 1
                hopeless = nbytes > budget
                return TenantQuotaDecision(
                    False,
                    None if hopeless else reset_ms,
                    f"byte budget ({budget}/window) exhausted",
                )
            usage.window_requests += 1
            usage.window_bytes += nbytes
            usage.total_requests += 1
            usage.total_bytes += nbytes
            return TenantQuotaDecision(True)

    def release(self, tenant_id: str, nbytes: int) -> None:
        """Refund a charge whose request never ran (connection died).

        Only the *current* window is refunded — a refund that arrives
        after the window rolled over is dropped, since the new window
        never saw the charge.
        """
        with self._lock:
            usage = self._usage.get(tenant_id)
            if usage is None:
                return
            usage.window_requests = max(0, usage.window_requests - 1)
            usage.window_bytes = max(0, usage.window_bytes - nbytes)

    # -- observability -------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready per-tenant config + usage (tokens redacted)."""
        with self._lock:
            tenants = {}
            for tenant_id, tenant in sorted(self._tenants.items()):
                usage = self._usage[tenant_id]
                tenants[tenant_id] = {
                    "priority": tenant.priority,
                    "max_bytes_per_window": tenant.max_bytes_per_window,
                    "max_requests_per_window": tenant.max_requests_per_window,
                    "window_seconds": tenant.window_seconds,
                    "window_bytes": usage.window_bytes,
                    "window_requests": usage.window_requests,
                    "total_bytes": usage.total_bytes,
                    "total_requests": usage.total_requests,
                    "total_rejections": usage.total_rejections,
                }
            return {"tenants": tenants}

    # -- persistence ---------------------------------------------------
    def to_json(self) -> str:
        with self._lock:
            tenants = [t.as_dict() for _, t in sorted(self._tenants.items())]
        return json.dumps({"tenants": tenants}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TenantRegistry":
        try:
            body = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"malformed tenants file: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(
            body.get("tenants"), list
        ):
            raise ReproError(
                'tenants file must be {"tenants": [...]} '
                "(run `fcbench tenant create` to build one)"
            )
        registry = cls()
        for record in body["tenants"]:
            if not isinstance(record, dict):
                raise ReproError("tenant entry is not an object")
            try:
                registry.add(TenantConfig(**record))
            except (TypeError, ValueError) as exc:
                raise ReproError(f"bad tenant entry: {exc}") from exc
        return registry

    @classmethod
    def load(cls, path) -> "TenantRegistry":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ReproError(f"cannot read tenants file {path!r}: {exc}") from exc
        return cls.from_json(text)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
