"""Clients for the compression service: one exchange core, two drivers.

How a request becomes a reply is the sans-I/O
:class:`~repro.service.exchange.Exchange`; which operations exist, and
how their payloads encode and decode, is spelled once on
``RequestSurface``.  The clients only move bytes:

:class:`ServiceClient` is the synchronous driver: a small connection
pool over blocking sockets, transparent retry on transient disconnects,
and ``compress_array`` / ``decompress_array`` methods that mirror the
local :mod:`repro.api` surface — the compressed bytes a served call
returns are exactly the FCF stream the local call would produce.

:class:`AsyncServiceClient` is the asyncio driver (one connection, the
same request surface as awaitables) for callers already living on an
event loop.

Usage::

    from repro.service import ServiceClient, serve_background

    with serve_background() as server:
        with ServiceClient(server.host, server.port) as client:
            blob = client.compress_array(array, codec="gorilla")
            back = client.decompress_array(blob)

Every server-reported failure raises the same typed exception a local
call would (:class:`~repro.errors.CorruptStreamError`,
:class:`~repro.errors.SelectionError`, ...); transport-level garbage
raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time

import numpy as np

from repro.api.frames import DEFAULT_CHUNK_ELEMENTS
from repro.client import CompressionClient
from repro.errors import ProtocolError, ServerOverloadedError
from repro.obs import SpanRecorder
from repro.service import protocol
from repro.service.exchange import Exchange
from repro.service.resilience import Deadline, RetryBudget, RetryPolicy
from repro.service.protocol import Frame

__all__ = ["ServiceClient", "AsyncServiceClient", "DEFAULT_CODEC"]

#: Default codec for served compression, matching ``fcbench compress``.
DEFAULT_CODEC = "bitshuffle-zstd"

#: Transport failures worth one transparent retry on a fresh connection.
_TRANSIENT = (ConnectionError, BrokenPipeError, EOFError, OSError)


class RequestSurface:
    """Every FCS operation, declared once: request type, payload
    encoder, reply decoder.

    Each method funnels into ``_call(request_type, payload, decode,
    deadline)``.  :class:`ServiceClient` returns the decoded answer and
    :class:`AsyncServiceClient` an awaitable of it (the annotations
    name the answer); the cluster client routes the same calls to a
    stream's replica set.  ``deadline`` is seconds (or a pre-built
    :class:`~repro.service.resilience.Deadline`) bounding the whole
    operation across retries; ``None`` falls back to the client's own.
    """

    def _call(self, request_type: int, payload: bytes, decode, deadline):
        raise NotImplementedError

    def ping(self, payload: bytes = b"fcbench", *, deadline=None) -> float:
        """Round-trip ``payload``; returns the wall-clock seconds taken."""
        sent, start = bytes(payload), time.perf_counter()

        def seconds(echo: bytes) -> float:
            if echo != sent:
                raise ProtocolError("pong payload does not echo the ping")
            return time.perf_counter() - start

        return self._call(protocol.PING, sent, seconds, deadline)

    def compress_array(
        self,
        array,
        codec: str = DEFAULT_CODEC,
        *,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        policy: str = "heuristic",
        deadline=None,
    ) -> bytes:
        """Served mirror of :func:`repro.api.compress_array`.

        Returns the FCF stream bytes — verbatim what the local call
        produces, including v2 mixed-codec streams for
        ``codec="auto"``.

        Parameters
        ----------
        codec:
            Frame codec: a registered method, ``none``, or ``auto``.
        chunk_elements:
            Elements per chunk frame.
        policy:
            Selection policy for ``codec="auto"``: ``heuristic`` or
            ``measured``, as locally.  Any other name, ``online`` and
            ``learned`` included, is a typed
            :class:`~repro.errors.SelectionError`.
        """
        payload = protocol.encode_compress_request(
            np.asarray(array), codec, chunk_elements, policy
        )
        return self._call(protocol.COMPRESS, payload, bytes, deadline)

    def decompress_array(self, blob, *, deadline=None) -> np.ndarray:
        """Served mirror of :func:`repro.api.decompress_array`."""
        return self._call(
            protocol.DECOMPRESS, bytes(blob), protocol.decode_array, deadline
        )

    def select_explain(
        self,
        array,
        *,
        policy: str = "heuristic",
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        deadline=None,
    ) -> dict:
        """Per-chunk selection decisions, as ``fcbench select explain``."""
        payload = protocol.encode_explain_request(
            np.asarray(array), policy, chunk_elements
        )
        return self._json(protocol.SELECT_EXPLAIN, payload, deadline)

    def _json(self, request_type: int, payload: bytes, deadline) -> dict:
        return self._call(request_type, payload, protocol.decode_json, deadline)

    def stats(self, *, deadline=None) -> dict:
        """The server's :meth:`ServiceMetrics.snapshot`."""
        return self._json(protocol.STATS, b"", deadline)

    def health(self, *, deadline=None) -> dict:
        """The peer's liveness document (status, node id, uptime, pid)."""
        return self._json(protocol.HEALTH, b"", deadline)

    def cluster_topology(self, *, deadline=None) -> dict:
        """The peer's validated cluster topology document.

        A standalone server answers with a single-node topology
        pointing at itself; a cluster node or supervisor answers with
        the full ring membership.
        """
        return self._call(
            protocol.CLUSTER_TOPOLOGY, b"", protocol.decode_topology, deadline
        )

    def cluster_control(
        self, action: str, node: str | None = None, *, deadline=None
    ) -> dict:
        """Send a supervisor control verb (``drain``/``restart``/``status``).

        Only the cluster supervisor's control endpoint serves these;
        a compression node answers with a typed protocol error.
        """
        payload = protocol.encode_control(action, node)
        return self._json(protocol.CLUSTER_CONTROL, payload, deadline)

    def trace(
        self,
        limit: int | None = None,
        trace_id: str | None = None,
        *,
        deadline=None,
    ) -> dict:
        """The peer's span-recorder document (``fcbench trace`` remote).

        ``trace_id`` narrows the answer to one trace; otherwise the
        most recent ``limit`` spans.  A peer with tracing disabled
        answers honestly (``stats.enabled: false``, no spans).
        """
        payload = protocol.encode_trace_request(limit, trace_id)
        return self._json(protocol.TRACE, payload, deadline)


def _request_span(client, request_type: int, request_id: int, parent=None):
    return client.recorder.span(
        "client.request",
        parent=parent,
        attributes={
            "op": protocol.REQUEST_NAMES.get(request_type, "unknown"),
            "request_id": request_id,
        },
    )


def _stamped(client, span, request_type, request_id, payload, deadline_ms=None):
    """The exchange for one attempt, carrying ``client``'s tenant token
    and ``span``'s context: the server span becomes that span's child,
    so a redialed retry is a *sibling* attempt in the same trace."""
    ctx = span.context
    return Exchange(
        request_type,
        request_id,
        payload,
        deadline_ms=deadline_ms,
        tenant_token=client.token,
        trace_context=ctx.to_wire() if ctx else None,
    )


class _Connection:
    """Blocking-socket driver: moves one exchange's bytes, on the clock."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def run(
        self,
        exchange: Exchange,
        *,
        timeout: float,
        deadline: Deadline | None = None,
    ) -> Frame:
        """One round trip.  ``timeout`` caps each socket operation;
        ``deadline`` (when given) additionally caps the *whole* wait.
        """
        self._arm(timeout, deadline, "before send")
        self.sock.sendall(exchange.request)
        while True:
            self._arm(timeout, deadline, "awaiting the reply")
            reply = exchange.feed(self.sock.recv(1 << 16))
            if reply is not None:
                return reply

    def _arm(self, timeout: float, deadline: Deadline | None, when: str) -> None:
        if deadline is not None:
            timeout = min(timeout, deadline.remaining())
            if timeout <= 0:
                raise TimeoutError(f"operation deadline expired {when}")
        self.sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ServiceClient(RequestSurface, CompressionClient):
    """Synchronous client with connection pooling and retries.

    Parameters
    ----------
    host, port:
        Server address.
    pool_size:
        Most idle connections kept open for reuse.  Each request
        checks one out (or dials a new one) and returns it afterwards,
        so the client is safe to share across threads — concurrent
        requests simply use distinct connections.
    retry:
        Transparent re-dials after a transient transport failure
        (connection reset, broken pipe).  Requests are idempotent pure
        functions, so replaying one is always safe.  The client paces
        them with a default :class:`~repro.service.resilience.RetryPolicy`
        of ``retry + 1`` attempts, and a default
        :class:`~repro.service.resilience.RetryBudget` caps them at
        about a tenth of its traffic.
    deadline:
        The *overall operation budget* in seconds: one budget that
        every attempt, backoff sleep, and re-dial spends from.  A
        per-call ``deadline=`` argument overrides it per request.
    attempt_timeout:
        Cap on each individual socket operation (connect, send, recv).
        Defaults to ``deadline``, preserving the historical behavior
        where one knob served both roles.
    token:
        Tenant auth token carried on every request frame
        (``FLAG_TENANT``) — required when the server runs with a
        tenant registry, ignored otherwise.  ``None`` sends unflagged
        frames, parseable by any server version.
    propagate_deadline:
        When true, every request carries its remaining budget (whole
        ms) in the flagged frame header so the server can reject or
        skip expired work.  Off by default: a flagged frame is not
        parseable by pre-deadline servers, so enabling this is the
        caller's statement that the server is new enough.
    trace:
        Client-side distributed tracing.  ``True`` gives the client its
        own :class:`~repro.obs.spans.SpanRecorder`; passing a recorder
        shares one (the cluster client does this so failover renders in
        one tree).  Every request then opens a ``client.request`` root
        with a ``client.attempt`` child per try, and each attempt's
        span context rides the wire (``FLAG_TRACE``) so a traced server
        joins the same trace.  Off by default — untraced clients send
        byte-identical frames to previous releases.

    Retry semantics: transient transport faults and typed
    ``ServerOverloadedError`` sheds are retried (the latter honoring
    the server's retry-after hint); ``TimeoutError``, typed data errors
    (``CorruptStreamError`` …), ``DeadlineExceededError``,
    ``AuthenticationError``, ``QuotaExceededError``, and
    ``ProtocolError`` never are — credentials and budgets do not get
    better by asking again.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 2,
        retry: int = 1,
        deadline: float = 30.0,
        attempt_timeout: float | None = None,
        token: str | None = None,
        propagate_deadline: bool = False,
        trace: bool | SpanRecorder = False,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.host = host
        self.port = int(port)
        self.pool_size = int(pool_size)
        self.retry_policy = RetryPolicy(max_attempts=max(0, int(retry)) + 1)
        self.retry_budget = RetryBudget()
        self.propagate_deadline = bool(propagate_deadline)
        self.token = token
        self.deadline = float(deadline)
        self.attempt_timeout = float(
            deadline if attempt_timeout is None else attempt_timeout
        )
        self.recorder = SpanRecorder.for_option(trace)
        self._pool: list[_Connection] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False

    # -- pooling -------------------------------------------------------
    def _checkout(self, connect_timeout: float) -> _Connection:
        with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            if self._pool:
                return self._pool.pop()
        return _Connection(
            socket.create_connection((self.host, self.port), connect_timeout)
        )

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _request_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _may_retry(self, attempts: int, deadline: Deadline) -> bool:
        """Common gate for every retry: attempts, budget, and deadline."""
        return (
            attempts < self.retry_policy.max_attempts
            and not deadline.expired
            and self.retry_budget.try_spend()
        )

    def _call(self, request_type: int, payload: bytes, decode, deadline):
        return decode(self._request(request_type, payload, deadline).payload)

    def _request(
        self, frame_type: int, payload: bytes, deadline=None, parent=None
    ) -> Frame:
        """The retry loop around one exchange per attempt.

        ``parent`` is the span (or wire context) the ``client.request``
        root hangs under — the cluster client passes its per-replica
        span; plain callers start a fresh trace.
        """
        op_deadline = Deadline.after(
            self.deadline if deadline is None else deadline
        )
        request_id = self._request_id()
        self.retry_budget.record_call()
        last: BaseException | None = None
        with _request_span(self, frame_type, request_id, parent) as root:
            for attempts in itertools.count(1):
                try:
                    with self.recorder.span(
                        "client.attempt",
                        parent=root,
                        attributes={"attempt": attempts},
                    ) as attempt:
                        connect_timeout = op_deadline.clamp(self.attempt_timeout)
                        if connect_timeout <= 0:
                            raise TimeoutError(
                                f"operation deadline expired after "
                                f"{attempts - 1} attempt(s): {last}"
                            )
                        exchange = _stamped(
                            self,
                            attempt,
                            frame_type,
                            request_id,
                            payload,
                            op_deadline.remaining_ms()
                            if self.propagate_deadline
                            else None,
                        )
                        return self._attempt(
                            attempt, exchange, connect_timeout, op_deadline
                        )
                except TimeoutError:
                    # A slow request is not a transport fault: the server
                    # may still be executing it, so replaying would double
                    # its work.  Surface the timeout as a timeout.
                    raise
                except ServerOverloadedError as exc:
                    # The server shed the request before queueing it, so a
                    # replay is free of double-execution risk — wait out
                    # the server's hint (budget permitting) and try again.
                    last = exc
                    if not self._may_retry(attempts, op_deadline):
                        raise
                    delay = self.retry_policy.delay(attempts - 1)
                    if exc.retry_after_ms is not None:
                        delay = max(delay, exc.retry_after_ms / 1e3)
                    if delay >= op_deadline.remaining():
                        raise
                    self._back_off(root, delay)
                except _TRANSIENT as exc:
                    # The connection is gone either way; retry dials a
                    # fresh one.  ProtocolError is deliberately NOT retried:
                    # the server is answering, just not speaking FCS.
                    last = exc
                    if not self._may_retry(attempts, op_deadline):
                        raise ProtocolError(
                            f"request failed after {attempts} attempt(s): "
                            f"{last}"
                        ) from last
                    self._back_off(
                        root,
                        op_deadline.clamp(self.retry_policy.delay(attempts - 1)),
                    )

    def _attempt(
        self, span, exchange: Exchange, connect_timeout: float, deadline: Deadline
    ) -> Frame:
        """Run ``exchange`` on one pooled (or freshly dialed) connection."""
        try:
            conn = self._checkout(connect_timeout)
            try:
                return conn.run(
                    exchange, timeout=self.attempt_timeout, deadline=deadline
                )
            finally:
                # Every checked-out connection is back in the pool or
                # closed on *every* exit path, and only one the exchange
                # left in sync (an answer or a typed data error) is pooled.
                if exchange.in_sync:
                    self._checkin(conn)
                else:
                    conn.close()
        except TimeoutError:
            raise
        except _TRANSIENT:
            span.set_attribute("redial", True)
            raise

    def _back_off(self, root, delay: float) -> None:
        with self.recorder.span("client.backoff", parent=root) as nap:
            nap.set_attribute("seconds", delay)
            time.sleep(delay)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()


class AsyncServiceClient(RequestSurface):
    """Asyncio client: one connection, the same request surface.

    Use :meth:`connect` (or the async context manager) to dial::

        async with await AsyncServiceClient.connect(host, port) as client:
            blob = await client.compress_array(array, codec="auto")

    There is no pool to re-dial from, so the client lives exactly as
    long as its one connection stays in sync: a request that ends by
    cancellation, timeout, EOF or ``ProtocolError`` closes it, and every
    later call raises ``ProtocolError("client is closed")``.  A per-call
    ``deadline=`` bounds the wait for the reply; without one a call
    waits as long as the caller lets it.
    """

    def __init__(
        self,
        reader,
        writer,
        *,
        token: str | None = None,
        trace: bool | SpanRecorder = False,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._closed = False
        self._lock = asyncio.Lock()
        self.token = token
        self.recorder = SpanRecorder.for_option(trace)

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        attempt_timeout: float = 30.0,
        token: str | None = None,
        trace: bool | SpanRecorder = False,
    ) -> "AsyncServiceClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), attempt_timeout
        )
        return cls(reader, writer, token=token, trace=trace)

    async def _call(self, request_type: int, payload: bytes, decode, deadline):
        return decode((await self._request(request_type, payload, deadline)).payload)

    async def _request(
        self, frame_type: int, payload: bytes, deadline=None
    ) -> Frame:
        if deadline is not None:
            deadline = Deadline.after(deadline).remaining()
        async with self._lock:  # one in-flight request per connection
            if self._closed:
                raise ProtocolError("client is closed")
            self._next_id += 1
            with _request_span(self, frame_type, self._next_id) as span:
                exchange = _stamped(
                    self, span, frame_type, self._next_id, payload
                )
                try:
                    return await asyncio.wait_for(self._run(exchange), deadline)
                finally:
                    if not exchange.in_sync:
                        # The reply may still arrive; nothing could pair
                        # it with its request any more.
                        self._closed = True
                        self._writer.close()

    async def _run(self, exchange: Exchange) -> Frame:
        self._writer.write(exchange.request)
        await self._writer.drain()
        while True:
            reply = exchange.feed(await self._reader.read(1 << 16))
            if reply is not None:
                return reply

    async def close(self) -> None:
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
