"""Asyncio TCP compression server speaking the FCS wire protocol.

:class:`CompressionServer` accepts connections, parses frames with the
sans-I/O :class:`~repro.service.protocol.FrameParser`, and answers
``compress`` / ``decompress`` / ``select-explain`` / ``stats`` /
``ping`` requests.  What matters beyond the happy path:

* **Batching, backpressure, graceful drain** — work-conserving, with
  nothing to tune: a request on an idle connection is dispatched the
  moment it arrives, frames that arrive while that connection's slice
  executes become the next slice (byte-identical to serial execution),
  the unexecuted backlog is bounded, and :meth:`CompressionServer.stop`
  answers what was admitted before it closes.  :class:`_Connection`
  spells the contract out.
* **Placement** — a slice whose learned cost fits in ``_INLINE_SECONDS``
  (5 ms, the default switch interval) runs on the event loop while no
  other slice is on an executor thread; slow or unknown work makes one
  hop to an executor thread (:meth:`CompressionServer._execute_slice`).
  An ``auto`` compress is placed by the codec its chunks pick: the loop
  runs the heuristic once (a few chunks, about a millisecond at most)
  and the stream is written from those picks.  Chunks that mix codecs,
  ``measured``, a request over the selection cap, or one that arrives
  while a slice is off the loop select on the executor instead.
* **Tenancy** — with a :class:`~repro.service.tenants.TenantRegistry`
  configured, every heavy request must carry a tenant token
  (``FLAG_TENANT`` on the frame): unknown tokens are answered with
  ``ERR_UNAUTHENTICATED``, over-budget tenants with a typed
  ``ERR_QUOTA`` (deliberately not the retryable overload path).  A
  tenant's priority orders only frames that share one connection, and
  every in-tree client carries one token per connection, so it never
  reorders their traffic.  Light probes (ping, stats, health,
  topology) stay unauthenticated so supervisors and dashboards need no
  credentials.

Malformed bytes never crash or hang the server: framing violations get
a typed ``ERROR`` frame (code ``ERR_PROTOCOL``) and the connection is
closed, because a stream with broken framing cannot be re-synchronized;
request-level failures (corrupt FCF payloads, unknown codecs, selection
misconfiguration) get a typed error frame and the connection lives on.

:func:`serve_background` runs a server on a daemon thread with its own
event loop — the embedding used by the tests, the cluster supervisor's
control endpoint, and ``examples/compression_service.py``.
"""

from __future__ import annotations

import asyncio
import functools
import io
import os
import threading
import time
from concurrent import futures

from repro.api.frames import (
    AUTO_CODEC,
    FOOTER_BYTES,
    FORMAT_V2,
    read_layout,
    split_frame_codec,
)
from repro.errors import AuthenticationError, ProtocolError, ReproError
from repro.obs import (
    NULL_SPAN,
    SlowRequestSampler,
    Span,
    SpanRecorder,
    TraceContext,
    configure_logging,
    get_logger,
)
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    CLUSTER_CONTROL,
    CLUSTER_TOPOLOGY,
    COMPRESS,
    DECOMPRESS,
    ERR_DEADLINE,
    ERR_PROTOCOL,
    ERR_UNAUTHENTICATED,
    ERROR,
    HEALTH,
    PING,
    REQUEST_TYPES,
    SELECT_EXPLAIN,
    STATS,
    TRACE,
    Frame,
    FrameParser,
    encode_error,
    encode_frame,
    encode_overload_error,
    encode_quota_error,
    response_type,
    validate_topology,
)
from repro.service.tenants import TenantRegistry

__all__ = [
    "CompressionServer",
    "ServerHandle",
    "serve_background",
    "run_server",
]

#: Request types that go through batching, the admission gate, and
#: deadline enforcement; everything else is answered inline.
_HEAVY_TYPES = (COMPRESS, DECOMPRESS, SELECT_EXPLAIN)
_OP_NAMES = dict(protocol.REQUEST_NAMES)
#: Most requests one slice executes together, and most a connection
#: holds unexecuted before it stops reading.
_SLICE_MAX = 16
#: Most payload bytes one slice executes together, and most a
#: connection holds unexecuted before it stops reading (64 MiB).
_SLICE_BYTES = 1 << 26
#: Weight of a faster reading when it pulls a learned seconds-per-array-
#: byte estimate down; a slower reading replaces the estimate outright.
_COST_WEIGHT = 0.25
#: Largest FCF index the loop parses to place a decompress: about 250
#: frames, a millisecond of parsing.  A larger index is parsed, and its
#: stream decoded, on an executor thread.
_LOOP_INDEX_BYTES = 2048
#: Most elements the loop runs the ``auto`` selector over to place one
#: slice's compresses, counted as chunks times the heuristic's
#: per-chunk sample (8,192 elements), whatever a chunk holds: eight
#: chunks, about a millisecond, since each chunk also pays a fixed
#: ~50 us.  A request past it is selected, and compressed, on an
#: executor thread.
_LOOP_SELECT_ELEMENTS = 1 << 16
#: Most learned seconds a slice may cost and still run on the loop: the
#: interpreter's default switch interval, the longest an executor
#: thread running Python holds the loop off anyway.  A constant, so a
#: changed switch interval does not move placement.
_INLINE_SECONDS = 0.005
#: The typed refusal for a well-formed frame of a type nobody speaks.
_UNKNOWN_TYPE = (
    "unknown request type {:#04x} "
    f"(this server speaks {sorted(REQUEST_TYPES)})"
)


# ----------------------------------------------------------------------
# Request execution: pure functions of the payload, which is what makes
# a slice's bytes serial bytes
# ----------------------------------------------------------------------
def _error_result(op: str, exc: BaseException) -> tuple:
    code = protocol.error_code_for(exc)
    message = f"{type(exc).__name__}: {exc}"
    return ("err", code, message, {"op": op})


def _work(
    frame: Frame, budget: list[int]
) -> tuple[tuple | None, int, object | None]:
    """What a request's cost is learned under, the array bytes it moves,
    and what placement already parsed or decided for its execution.

    Read without decoding the array, except for an ``auto`` compress,
    which the selector may sample from (``budget`` holds the elements
    the slice may still sample; see ``_select_auto``).  The key names
    what sets the cost: ``(type, codec)`` for a compress with a fixed
    codec, for an ``auto`` compress whose chunks the selector sends to
    one codec, and for a decompress whose frames all use one codec (a
    v2 stream is keyed by the codec its frames name, not by ``auto``);
    ``(type, policy)`` for select-explain.  A ``None`` key leaves the
    request to the executor: an ``auto`` compress whose chunks mix
    codecs or that the loop does not select for, a decompress whose
    frames mix codecs or whose index is too long to parse on the loop,
    and a payload that cannot say, which gets its typed error from
    ``_execute``.  A decompress is sized by the array its FCF index
    declares, since decoding costs by output and a stream of zeros
    expands a hundredfold; the others by their payload, which is the
    array.  A decompress's parsed layout and an ``auto`` compress's
    picks are handed to execution, so a stream is parsed once and a
    selection made once.
    """
    kind = frame.frame_type
    payload = frame.payload
    try:
        if kind == COMPRESS:
            codec = protocol._decode_name(payload, 0, "codec name")[0]
            if codec == AUTO_CODEC:
                return _select_auto(payload, budget)
            return (kind, codec), len(payload), None
        if kind != DECOMPRESS:
            policy = protocol._decode_name(payload, 0, "policy name")[0]
            return (kind, policy), len(payload), None
        index_bytes = int.from_bytes(payload[-FOOTER_BYTES:][:8], "little")
        if index_bytes > _LOOP_INDEX_BYTES:
            return None, len(payload), None
        layout = read_layout(io.BytesIO(payload))
        header, index, _ = layout
        codecs = {header.codec}
        if header.version == FORMAT_V2:
            view = memoryview(payload)
            codecs = {
                header.codec_table[
                    split_frame_codec(
                        view[f.offset : f.offset + f.compressed_bytes],
                        len(header.codec_table),
                    )[0]
                ]
                for f in index.frames
            }
    except ReproError:
        return None, len(payload), None
    key = (kind, *codecs) if len(codecs) == 1 else None
    return key, index.n_elements * header.dtype.itemsize, layout


def _select_auto(payload: bytes, budget: list[int]) -> tuple:
    """Run the heuristic once on the loop; key the compress by its pick.

    Only ``heuristic`` is selected here: ``measured`` trial-compresses
    every candidate.  Nor is a request whose chunks times the
    heuristic's per-chunk sample exceed ``budget[0]``, what the slice
    may still sample (nothing while a slice is off the loop: this one
    goes to the executor anyway, and selecting here would contend for
    the GIL with that thread).  Those, and a request the selector fails
    on, select in ``_execute``, which also raises the typed error.  A
    selected request charges its sample to ``budget`` and hands its
    picks to ``_execute_compress`` as a replaying policy.
    """
    _, policy_name, chunk_elements, array = protocol.decode_compress_request(
        payload
    )
    if policy_name != "heuristic":
        return None, len(payload), None
    from repro.select.policy import HeuristicPolicy

    policy = HeuristicPolicy()
    sampled = -(-array.size // chunk_elements) * policy.sample_elements
    if sampled > budget[0]:
        return None, len(payload), None
    flat = array.ravel()
    try:
        picks = tuple(
            policy.select(flat[start : start + chunk_elements])
            for start in range(0, flat.size, chunk_elements)
        )
    except Exception:  # the same input fails the same way in _execute
        return None, len(payload), None
    budget[0] -= sampled
    codecs = set(picks)
    key = (COMPRESS, *codecs) if len(codecs) == 1 else None
    return key, len(payload), _replay_type()(policy, picks)


@functools.cache
def _replay_type() -> type:
    """A selection policy that answers picks already made, in order.

    Built on first use: a server loads ``repro.select`` only once an
    ``auto`` request arrives.
    """
    from repro.select.policy import SelectionPolicy

    class Replay(SelectionPolicy):
        """``policy``'s name and codec table; ``select`` answers the
        next of ``picks``, so one serial write of the array they were
        made on selects nothing again."""

        def __init__(self, policy, picks: tuple[str, ...]) -> None:
            self.name = policy.name
            self.candidates = policy.candidates
            self._picks = iter(picks)

        def select(self, chunk) -> str:
            return next(self._picks)

    return Replay


def _execute_compress(payload: bytes, replay=None) -> tuple:
    from repro.api.session import compress_array

    name, policy_name, chunk_elements, array = (
        protocol.decode_compress_request(payload)
    )
    codec, jobs = name, None
    if replay is not None:
        # The picks answer the chunks in order: write them serially.
        codec, jobs = replay, 1
    elif name == AUTO_CODEC:
        from repro.select import resolve_policy

        codec = resolve_policy(policy_name)
    blob = compress_array(array, codec, chunk_elements=chunk_elements, jobs=jobs)
    meta = {
        "op": "compress",
        "codec": name,
        "bytes_in": int(array.nbytes),
        "bytes_out": len(blob),
    }
    return ("ok", response_type(COMPRESS), blob, meta)


def _execute_decompress(payload: bytes, layout: tuple | None) -> tuple:
    from repro.api.session import DecompressSession

    with DecompressSession(bytes(payload), layout=layout) as session:
        codec = session.codec_name
        array = session.read_all()
    out = protocol.encode_array(array)
    meta = {
        "op": "decompress",
        "codec": codec,
        "bytes_in": len(payload),
        "bytes_out": int(array.nbytes),
    }
    return ("ok", response_type(DECOMPRESS), out, meta)


def _execute_explain(payload: bytes) -> tuple:
    from repro.select import explain, resolve_policy

    policy_name, chunk_elements, array = protocol.decode_explain_request(payload)
    answer = explain(array, resolve_policy(policy_name), chunk_elements)
    meta = {"op": "select-explain", "bytes_in": int(array.nbytes)}
    return ("ok", response_type(SELECT_EXPLAIN), protocol.encode_json(answer), meta)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _AdmissionGate:
    """Server-wide bound on admitted-but-unfinished heavy work.

    Beyond the per-connection inflight cap, this bounds what *all*
    connections together may have queued: a request count and a payload
    byte total.  Admission happens when a heavy frame arrives, release
    when its slice finishes (or it is discarded), so the gate tracks
    exactly the work the server is holding in memory.  A request that
    does not fit is shed — never queued, never executed.

    An empty gate always admits, whatever the request's size: the
    per-frame ``protocol.DEFAULT_MAX_PAYLOAD`` bound already caps a
    single request, and shedding a request that could never fit would
    livelock its retries.
    """

    def __init__(self, max_requests: int, max_bytes: int) -> None:
        if max_requests < 1:
            raise ValueError("max_queued_requests must be positive")
        if max_bytes < 1:
            raise ValueError("max_queued_bytes must be positive")
        self.max_requests = int(max_requests)
        self.max_bytes = int(max_bytes)
        self._requests = 0
        self._bytes = 0
        self._lock = threading.Lock()

    def try_admit(self, nbytes: int) -> bool:
        with self._lock:
            if self._requests == 0:
                self._requests, self._bytes = 1, nbytes
                return True
            if (
                self._requests + 1 > self.max_requests
                or self._bytes + nbytes > self.max_bytes
            ):
                return False
            self._requests += 1
            self._bytes += nbytes
            return True

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._requests = max(0, self._requests - 1)
            self._bytes = max(0, self._bytes - nbytes)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "queued_requests": self._requests,
                "queued_bytes": self._bytes,
            }


class _Pending:
    """One parsed request frame plus its server-side deadline stamp."""

    __slots__ = (
        "frame",
        "expiry",
        "stamped",
        "rejection",
        "admitted",
        "tenant_id",
        "priority",
        "charged",
        "executed",
        "outcome",
        "span",
        "cost_key",
        "array_bytes",
        "prepared",
    )

    def __init__(self, frame: Frame, stamped: float) -> None:
        self.frame = frame
        #: monotonic instant the frame was parsed; queue-wait spans
        #: measure from here.
        self.stamped = stamped
        #: monotonic instant the request's budget runs out (None = no
        #: deadline was propagated).
        self.expiry = (
            None
            if frame.deadline_ms is None
            else stamped + frame.deadline_ms / 1e3
        )
        #: the request's server-side trace span (NULL_SPAN when tracing
        #: is off — call sites never branch).
        self.span = NULL_SPAN
        #: pre-encoded ERROR payload when the request was rejected at
        #: admission (deadline / shed / auth / quota) or discarded
        #: while queued.
        self.rejection: bytes | None = None
        self.admitted = False
        #: resolved tenant identity (None on a tenant-less server).
        self.tenant_id: str | None = None
        self.priority = 0
        #: the tenant's quota window was charged for this payload.
        self.charged = False
        #: the request reached execution (charges stick; see _release).
        self.executed = False
        #: what execution returned: ("ok"|"err", type|code, payload, meta).
        self.outcome: tuple | None = None
        #: cost-table key (``None``: the executor), array bytes, and what
        #: placement parsed or decided for execution; see ``_work``.
        self.cost_key: tuple | None = None
        self.array_bytes = 0
        self.prepared = None


# ----------------------------------------------------------------------
# One connection
# ----------------------------------------------------------------------
class _Connection(asyncio.Protocol):
    """One client connection: dispatch on arrival, coalesce on backlog.

    ``data_received`` parses, stamps and admits whatever a read finished
    and appends it to the ``backlog``; a ``pump`` task, alive only while
    there is a backlog, takes bounded slices off its front, runs each
    through :meth:`CompressionServer._execute_slice` and writes the
    slice's responses in one call.  A request that finds the connection
    idle executes one loop turn after its bytes arrived; requests that
    arrive while a slice runs wait for that slice, then run together.
    The contract (each clause has a test in ``tests/service/``):

    * **Stamped at parse**: backlog waiting counts against a propagated
      deadline; a budget that lapses there gets ``ERR_DEADLINE`` unrun.
    * **Admitted at arrival**, deadline → auth → gate → quota.  Admitted
      work that never executes (peer gone, budget lapsed) releases its
      gate capacity and refunds its quota charge.
    * **Ordered**: responses leave in request order; with a tenant
      registry the backlog is stably sorted by descending priority
      before each slice (clients match responses by request id).
    * **Batched bytes are serial bytes**: each request of a slice is a
      pure function of its payload.
    * **No timer**: a light request (ping, stats, health, topology,
      trace) waits only for requests ahead of it on its connection.
    * **Bounded**: reading pauses while the backlog holds ``_SLICE_MAX``
      requests or ``_SLICE_BYTES``, executing while the write buffer is
      above its high-water mark.
    * **Drain answers what it admitted**: :meth:`shut` stops reading;
      the transport closes, flushed, once the backlog is answered.
    * **Same spans, same stats**: ``server.request`` → parse / deadline
      / (auth) / gate / (quota) / queue_wait / execute, ``queue_wait``
      backdated to the stamp and carrying ``batch_size``; ``stats``
      keeps ``batches.*`` and ``admission.*``.
    """

    def __init__(self, server: "CompressionServer") -> None:
        self.server = server
        self.parser = FrameParser(protocol.DEFAULT_MAX_PAYLOAD)
        self.transport: asyncio.Transport | None = None
        #: resolved by ``connection_lost`` — what :meth:`stop` waits on.
        self.closed = asyncio.get_running_loop().create_future()
        #: admitted (or rejected) at arrival, not yet handed to a slice.
        self.backlog: list[_Pending] = []
        self.backlog_bytes = 0
        #: the task working the backlog off; ``None`` while idle.
        self.pump: asyncio.Task | None = None
        #: no further requests are read (drain, EOF, broken framing).
        self.closing = False
        #: sent after the last response, before closing.
        self.farewell = b""
        self.writable = asyncio.Event()
        self.writable.set()

    # -- transport callbacks -------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.metrics.connection_opened()
        if self.server._draining:
            self.shut()

    def data_received(self, data: bytes) -> None:
        server = self.server
        parse_started = time.perf_counter()
        try:
            frames = self.parser.feed(data)
            if frames:
                self._enqueue(frames, time.perf_counter() - parse_started)
                if self.parser.buffered_bytes:
                    # A violation behind those frames surfaces now.
                    self.parser.feed(b"")
        except ProtocolError as exc:
            # Broken framing cannot be re-synchronized: a typed error
            # after whatever is still owed, then drop the connection.
            server.metrics.record_protocol_error()
            self.shut(
                encode_frame(ERROR, 0, encode_error(ERR_PROTOCOL, str(exc)))
            )

    def _enqueue(self, frames: list[Frame], parse_seconds: float) -> None:
        server = self.server
        # Stamped now: backlog time counts against a propagated deadline.
        now = time.monotonic()
        pending = [_Pending(frame, now) for frame in frames]
        server._open_spans(pending, parse_seconds)
        server._admit(pending)
        self.backlog += pending
        self.backlog_bytes += sum(len(item.frame.payload) for item in pending)
        if self.pump is None:
            self.pump = asyncio.get_running_loop().create_task(self._pump())
        self._throttle()

    def eof_received(self) -> bool:
        # The peer is done sending; keep the transport open only for
        # the responses it is still owed.
        self.shut()
        return self.pump is not None

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()

    def connection_lost(self, exc) -> None:
        server = self.server
        server._connections.discard(self)
        server.metrics.connection_closed()
        # Admitted work that will never run must not strand gate
        # capacity or a quota charge.
        for item in self.backlog:
            server._release(item)
        self.backlog.clear()
        self.backlog_bytes = 0
        self.writable.set()
        self.closed.set_result(None)

    # -- lifecycle -----------------------------------------------------
    def shut(self, farewell: bytes = b"") -> None:
        """Stop reading; close once the backlog is answered (now, if idle)."""
        self.closing = True
        self.farewell = self.farewell or farewell
        self.transport.pause_reading()
        if self.pump is None:
            self._close()

    def abort(self) -> None:
        """Out of grace: drop the connection with whatever it still owes."""
        if self.pump is not None:
            self.pump.cancel()
        self.transport.abort()

    def _close(self) -> None:
        if self.farewell and not self.transport.is_closing():
            self.transport.write(self.farewell)
        self.transport.close()

    # -- the backlog ---------------------------------------------------
    def _throttle(self) -> None:
        """Read only while the backlog has room (the backpressure bound)."""
        if len(self.backlog) >= _SLICE_MAX or self.backlog_bytes >= _SLICE_BYTES:
            self.transport.pause_reading()
        elif not self.closing:
            self.transport.resume_reading()

    def _take_slice(self) -> list[_Pending]:
        """The backlog's front (by priority under tenancy), within bounds."""
        backlog = self.backlog
        if self.server.tenants is not None and len(backlog) > 1:
            backlog.sort(key=lambda item: -item.priority)
        end = 1
        total = len(backlog[0].frame.payload)
        while (
            end < len(backlog)
            and end < _SLICE_MAX
            and total + len(backlog[end].frame.payload) <= _SLICE_BYTES
        ):
            total += len(backlog[end].frame.payload)
            end += 1
        batch = backlog[:end]
        del backlog[:end]
        self.backlog_bytes -= total
        self._throttle()
        return batch

    async def _pump(self) -> None:
        try:
            while self.backlog:
                responses = await self.server._execute_slice(
                    self._take_slice()
                )
                if self.transport.is_closing():
                    break  # the peer is gone; connection_lost releases the rest
                self.transport.writelines(responses)
                await self.writable.wait()
        except Exception:
            # An unanswerable slice breaks response order for good.
            self.server._log.exception("connection handler failed")
            self.transport.abort()
        finally:
            self.pump = None
        if self.closing:
            self._close()


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class CompressionServer:
    """Serve FCS requests over TCP.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port, published as
        :attr:`port` after :meth:`start`.
    max_queued_requests, max_queued_bytes:
        Server-wide admission gate over *all* connections' heavy
        requests that are admitted but not yet finished.  A heavy frame
        that does not fit is shed with a retryable ``ERR_OVERLOADED``
        error instead of being queued.
    shed_retry_after_ms:
        Backoff hint carried by shed responses.
    node_id:
        This server's identity inside a cluster; defaults to
        ``host:port`` once the port is resolved.  Served in ``health``
        answers and the synthesized single-node topology.
    topology:
        The cluster topology document this node serves for
        ``cluster-topology`` requests (validated at construction).
        ``None`` — the standalone default — synthesizes a single-node
        topology pointing at this server, so a cluster-aware client
        can also talk to a plain ``fcbench serve``.
    tenants:
        A :class:`~repro.service.tenants.TenantRegistry`; when set,
        every heavy request must authenticate with a tenant token and
        fit the tenant's quota window; a higher-priority tenant's
        frames run first among those queued on one connection.
        ``None`` (default) serves everyone, untagged.
    trace:
        Enable distributed tracing: every heavy request grows a span
        tree (parse → admission stages → queue wait → execute) in a
        per-process :class:`~repro.obs.spans.SpanRecorder`, joined to
        the client's trace when the frame carried ``FLAG_TRACE``.
        Off by default — a disabled recorder hands out a shared no-op
        span, so the instrumentation costs nothing measurable.
    trace_capacity:
        Ring-buffer size of the span recorder (oldest spans drop).
    slow_request_ms:
        When set, request completions slower than this threshold are
        written to the structured log (trace-correlated); ``None``
        disables slow-request logging.
    handlers, refusal:
        The cluster supervisor's control plane: a ``{request type:
        handler}`` table served in place of the inline types (nothing is
        heavy, so nothing batches, gates or authenticates), and the
        message format refusing every other type.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_queued_requests: int = 256,
        max_queued_bytes: int = 1 << 28,
        shed_retry_after_ms: int = 50,
        node_id: str | None = None,
        topology: dict | None = None,
        tenants: TenantRegistry | None = None,
        trace: bool = False,
        trace_capacity: int = 4096,
        slow_request_ms: float | None = None,
        handlers: dict | None = None,
        refusal: str = _UNKNOWN_TYPE,
    ) -> None:
        self.host = host
        self.port = port
        self.node_id = node_id
        self.topology = validate_topology(topology) if topology else None
        self.started_at = time.time()
        if shed_retry_after_ms < 0:
            raise ValueError("shed_retry_after_ms must be non-negative")
        self.shed_retry_after_ms = int(shed_retry_after_ms)
        self._admission = _AdmissionGate(max_queued_requests, max_queued_bytes)
        self.metrics = ServiceMetrics()
        self.recorder = SpanRecorder(trace_capacity, enabled=bool(trace))
        self._log = get_logger("repro.service")
        self._slow = (
            SlowRequestSampler(self._log, threshold_ms=float(slow_request_ms))
            if slow_request_ms is not None
            else None
        )
        self.tenants = tenants
        self._heavy = _HEAVY_TYPES if handlers is None else ()
        self._inline = self._inline_handlers() if handlers is None else handlers
        self._refusal = refusal
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        #: learned seconds per array byte, keyed as ``_work`` keys; read
        #: and written on the loop thread only.
        self._seconds_per_byte: dict[tuple, float] = {}
        #: slices now on executor threads; while one runs, loop work
        #: contends with it for the GIL and outlasts its learned cost.
        self._offloaded = 0
        self._draining = False
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves the ephemeral port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log.info(
            "server started",
            extra={
                "node": self.effective_node_id,
                "host": self.host,
                "port": self.port,
                "tracing": self.recorder.enabled,
            },
        )

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`stop` completes (starts if needed)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self, grace: float = 5.0) -> None:
        """Graceful drain: stop accepting, answer what was admitted.

        Idle connections are closed directly; busy ones stop reading
        and get ``grace`` seconds to answer their backlog and flush
        before being aborted.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.shut()
        closing = [conn.closed for conn in self._connections]
        if closing:
            await asyncio.wait(closing, timeout=grace)
        stragglers = list(self._connections)
        for conn in stragglers:
            conn.abort()
        await asyncio.gather(*(conn.closed for conn in stragglers))
        if self._server is not None:
            await self._server.wait_closed()
        self._stopped.set()
        self._log.info(
            "server stopped", extra={"node": self.effective_node_id}
        )

    async def __aenter__(self) -> "CompressionServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- cluster identity ----------------------------------------------
    @property
    def effective_node_id(self) -> str:
        return self.node_id or f"{self.host}:{self.port}"

    def topology_document(self) -> dict:
        """The topology this node serves for ``cluster-topology``.

        A standalone server synthesizes a single-node topology pointing
        at itself (replication 1), so cluster-aware clients can
        bootstrap from any ``fcbench serve`` without special-casing.
        """
        if self.topology is not None:
            return self.topology
        return {
            "version": 0,
            "replication": 1,
            "vnodes": protocol.DEFAULT_VNODES,
            "nodes": [
                {
                    "id": self.effective_node_id,
                    "host": self.host,
                    "port": self.port,
                    "state": "up",
                }
            ],
        }

    def stats_document(self) -> dict:
        """The JSON body answering a ``stats`` request.

        The metrics snapshot, extended with the quota registry's
        per-tenant accounting (``tenancy``) when tenancy is configured —
        one document serves the wire, the gateway, and the CLI.  The
        ``admission`` section also carries the gate's live occupancy
        (``queued_requests`` / ``queued_bytes``: admitted, not finished).
        """
        body = self.metrics.snapshot()
        body["admission"].update(self._admission.snapshot())
        if self.tenants is not None:
            body["tenancy"] = self.tenants.snapshot()
        if self.recorder.enabled:
            body["tracing"] = self.recorder.stats()
        return body

    def trace_document(
        self, limit: int | None = None, trace_id: str | None = None
    ) -> dict:
        """The JSON body answering a ``trace`` request.

        Works whether or not tracing is enabled: a disabled recorder
        answers honestly (``stats.enabled: false``, no spans) so
        aggregators need no special-casing.  ``trace_id`` narrows the
        answer to one trace; otherwise the most recent ``limit`` spans
        of the ring are returned.
        """
        return {
            "node": self.effective_node_id,
            "stats": self.recorder.stats(),
            "spans": (
                self.recorder.trace(trace_id)
                if trace_id is not None
                else self.recorder.snapshot(limit)
            ),
        }

    def health_document(self) -> dict:
        """The JSON body answering a ``health`` probe."""
        return {
            "status": "draining" if self._draining else "ok",
            "node_id": self.effective_node_id,
            "uptime_seconds": time.time() - self.started_at,
            "pid": os.getpid(),
        }

    # -- tracing -------------------------------------------------------
    def _open_spans(
        self, pending: list[_Pending], parse_seconds: float
    ) -> None:
        """Open a ``server.request`` span per heavy frame (traced mode).

        The span joins the client's trace when the frame carried
        ``FLAG_TRACE`` (a malformed context falls back to a fresh
        trace rather than rejecting the request — tracing is best-
        effort observability, never admission).  Each span is backdated
        over the parse that just finished, which a completed
        ``server.parse`` child records.
        """
        if not self.recorder.enabled:
            return
        node = self.effective_node_id
        for item in pending:
            frame = item.frame
            if frame.frame_type not in self._heavy:
                continue
            parent = None
            if frame.trace_context is not None:
                try:
                    parent = TraceContext.from_wire(frame.trace_context)
                except ValueError:
                    parent = None
            span = self.recorder.span(
                "server.request",
                parent=parent,
                attributes={
                    "op": _OP_NAMES[frame.frame_type],
                    "request_id": frame.request_id,
                    "node": node,
                },
            )
            span.start -= parse_seconds
            span._t0 -= parse_seconds
            item.span = span
            parse = Span(
                "server.parse",
                trace_id=span.trace_id,
                parent_id=span.span_id,
                attributes={"bytes": len(frame.payload), "node": node},
            )
            parse.start = span.start
            parse.duration = parse_seconds
            self.recorder.record(parse)

    def _stage(self, item: _Pending, name: str):
        """A child span of the request's own (no-op when untraced)."""
        if not item.span:
            return NULL_SPAN
        return self.recorder.span(name, parent=item.span)

    # -- admission -----------------------------------------------------
    def _admit(self, pending: list[_Pending]) -> None:
        """Admission decisions for a batch of heavy frames, at arrival.

        Rejections happen *before* any queueing, in a deliberate
        order: an already-expired deadline gets ``ERR_DEADLINE``, a
        missing/unknown tenant token gets ``ERR_UNAUTHENTICATED``, a
        gate that cannot hold the request gets a retryable
        ``ERR_OVERLOADED`` with a backoff hint, and an over-budget
        tenant gets a typed ``ERR_QUOTA`` — *not* the overload path,
        so a zero-quota tenant's client fails fast instead of
        retry-livelocking against a budget that will never admit it.
        The quota window is charged only after the gate admits, at the
        same point :meth:`ServiceMetrics.record_tenant_admitted` runs,
        so the two ledgers agree byte-exactly.
        """
        now = time.monotonic()
        for item in pending:
            frame = item.frame
            if frame.frame_type not in self._heavy:
                continue
            op = _OP_NAMES[frame.frame_type]
            with self._stage(item, "server.deadline") as stage:
                if item.expiry is not None and item.expiry <= now:
                    self.metrics.record_deadline_rejected()
                    self.metrics.record_request(op, 0.0, ok=False)
                    message = (
                        f"deadline budget ({frame.deadline_ms} ms) already "
                        "expired at admission"
                    )
                    stage.set_error(message)
                    item.rejection = encode_error(ERR_DEADLINE, message)
            if item.rejection is not None:
                continue
            if self.tenants is not None:
                with self._stage(item, "server.auth") as stage:
                    try:
                        tenant = self.tenants.authenticate(frame.tenant_token)
                    except AuthenticationError as exc:
                        self.metrics.record_auth_rejected()
                        self.metrics.record_request(op, 0.0, ok=False)
                        stage.set_error(exc)
                        item.rejection = encode_error(
                            ERR_UNAUTHENTICATED, str(exc)
                        )
                    else:
                        item.tenant_id = tenant.tenant_id
                        item.priority = tenant.priority
                        stage.set_attribute("tenant", tenant.tenant_id)
                        if item.span:
                            item.span.set_attribute(
                                "tenant", tenant.tenant_id
                            )
                if item.rejection is not None:
                    continue
            with self._stage(item, "server.gate") as stage:
                if not self._admission.try_admit(len(frame.payload)):
                    self.metrics.record_shed()
                    self.metrics.record_request(
                        op, 0.0, ok=False, tenant=item.tenant_id
                    )
                    stage.set_error("shed: admission gate full")
                    item.rejection = encode_overload_error(
                        "admission gate full "
                        f"({self._admission.max_requests} requests / "
                        f"{self._admission.max_bytes} bytes queued)",
                        self.shed_retry_after_ms,
                    )
            if item.rejection is not None:
                continue
            item.admitted = True
            if self.tenants is not None and item.tenant_id is not None:
                with self._stage(item, "server.quota") as stage:
                    decision = self.tenants.check_quota(
                        item.tenant_id, len(frame.payload)
                    )
                    if decision.admitted:
                        item.charged = True
                        self.metrics.record_tenant_admitted(
                            item.tenant_id, len(frame.payload)
                        )
                    else:
                        self.metrics.record_quota_rejected(item.tenant_id)
                        self.metrics.record_request(
                            op, 0.0, ok=False, tenant=item.tenant_id
                        )
                        item.admitted = False
                        self._admission.release(len(frame.payload))
                        stage.set_error(
                            f"quota: {decision.reason}"
                        )
                        item.rejection = encode_quota_error(
                            f"tenant {item.tenant_id!r}: {decision.reason}",
                            decision.retry_after_ms,
                        )

    def _release(self, item: _Pending) -> None:
        if item.admitted:
            self._admission.release(len(item.frame.payload))
            if item.charged and not item.executed and self.tenants is not None:
                # The request never ran (dropped connection, deadline
                # lapsed in queue): refund its window charge so the
                # budget meters work performed, not work attempted.
                # Lifetime totals keep the charge — they mirror
                # record_tenant_admitted, which also already counted it.
                self.tenants.release(item.tenant_id, len(item.frame.payload))

    # -- batch execution -----------------------------------------------
    async def _execute_slice(self, pending: list[_Pending]) -> list[bytes]:
        """Run one slice; its encoded responses, in slice order."""
        try:
            now = time.monotonic()
            # Elements the loop may still sample to select this slice's
            # ``auto`` compresses; see ``_select_auto``.
            budget = [0 if self._offloaded else _LOOP_SELECT_ELEMENTS]
            heavy = []
            for item in pending:
                if not item.admitted or item.rejection is not None:
                    continue
                if item.expiry is not None and item.expiry <= now:
                    # The budget lapsed while the request waited in the
                    # backlog: skip the work, answer the error.
                    op = _OP_NAMES[item.frame.frame_type]
                    self.metrics.record_deadline_expired()
                    self.metrics.record_request(
                        op, 0.0, ok=False, tenant=item.tenant_id
                    )
                    item.rejection = encode_error(
                        ERR_DEADLINE,
                        f"deadline budget ({item.frame.deadline_ms} ms) "
                        "expired while queued",
                    )
                    continue
                heavy.append(item)
            for item in heavy:
                item.executed = True
                placing = time.perf_counter()
                item.cost_key, item.array_bytes, item.prepared = _work(
                    item.frame, budget
                )
                if item.span:
                    # Time spent between stamping and execution is
                    # queue wait: record it as a completed child, with
                    # the loop time placement just took (an ``auto``
                    # compress's selection, a decompress's index parse).
                    waited = now - item.stamped
                    wait = self.recorder.span(
                        "server.queue_wait", parent=item.span
                    )
                    wait.start -= waited
                    wait._t0 -= waited
                    wait.set_attribute("batch_size", len(heavy))
                    wait.set_attribute(
                        "loop_place_ms", (time.perf_counter() - placing) * 1e3
                    )
                    wait.finish()
            if heavy:
                inline = (
                    not self._offloaded
                    and self._predicted_seconds(heavy) <= _INLINE_SECONDS
                )
                if inline:
                    # Cheaper than the thread hop: an executor thread
                    # running Python holds the loop off for up to one
                    # switch interval anyway.
                    self._run_slice(heavy)
                    await asyncio.sleep(0)
                else:
                    # Slow, unknown, or beside a slice already off the
                    # loop: on an executor thread, so other connections
                    # stay responsive while this one crunches.
                    self._offloaded += 1
                    try:
                        await asyncio.get_running_loop().run_in_executor(
                            None, self._run_slice, heavy
                        )
                    finally:
                        self._offloaded -= 1
                self.metrics.record_batch(len(heavy), inline)
            out = []
            for item in pending:
                if item.rejection is not None:
                    if item.span:
                        item.span.set_error("rejected")
                        item.span.finish()
                    out.append(
                        encode_frame(
                            ERROR, item.frame.request_id, item.rejection
                        )
                    )
                elif item.outcome is not None:
                    out.append(self._respond(item))
                else:
                    out.append(await self._respond_light(item.frame))
            return out
        finally:
            for item in pending:
                self._release(item)

    def _predicted_seconds(self, heavy: list[_Pending]) -> float:
        """The slice's learned cost; infinite while any request is unknown."""
        total = 0.0
        for item in heavy:
            rate = self._seconds_per_byte.get(item.cost_key)
            if rate is None:
                return float("inf")
            total += rate * item.array_bytes
        return total

    def _learn(self, item: _Pending, seconds: float) -> None:
        """Fold one served request's measured time into the cost table.

        Only answered requests with a key teach: a failure says little
        about the codec's cost, and forged codec names must not grow the
        table.
        """
        key = item.cost_key
        if key is None:
            return
        rate = seconds / max(1, item.array_bytes)
        known = self._seconds_per_byte.get(key)
        if known is not None and rate < known:
            rate = known + _COST_WEIGHT * (rate - known)
        self._seconds_per_byte[key] = rate

    def _respond(self, item: _Pending) -> bytes:
        status, answer, payload, meta = item.outcome
        ok = status == "ok"
        seconds = meta.pop("seconds", 0.0)
        served = {}
        if ok:
            self._learn(item, seconds)
            served = {
                "codec": meta.get("codec"),
                "bytes_in": meta.get("bytes_in", 0),
                "bytes_out": meta.get("bytes_out", 0),
            }
        self.metrics.record_request(
            meta["op"], seconds, ok=ok, tenant=item.tenant_id, **served
        )
        span = item.span
        if span:
            for key, value in served.items():
                span.set_attribute(key, value)
            if not ok:
                span.set_error(payload)
            span.finish()
        if self._slow is not None:
            self._slow.observe(
                meta["op"],
                seconds,
                trace_id=span.trace_id or None,
                tenant=item.tenant_id,
                request_id=item.frame.request_id,
                node=self.effective_node_id,
            )
        if ok:
            return encode_frame(answer, item.frame.request_id, payload)
        return encode_frame(
            ERROR, item.frame.request_id, encode_error(answer, payload)
        )

    def _inline_handlers(self) -> dict:
        """The inline request types: ``{request type: frame -> payload}``."""
        return {
            PING: lambda frame: frame.payload,
            STATS: lambda frame: protocol.encode_json(self.stats_document()),
            CLUSTER_TOPOLOGY: lambda frame: protocol.encode_topology(
                self.topology_document()
            ),
            HEALTH: lambda frame: protocol.encode_json(self.health_document()),
            TRACE: lambda frame: protocol.encode_json(
                self.trace_document(
                    *protocol.decode_trace_request(frame.payload)
                )
            ),
            CLUSTER_CONTROL: self._refuse_control,
        }

    def _refuse_control(self, frame: Frame) -> bytes:
        # A compression node takes orders from its supervisor's process
        # signals, not from the wire: typed error, the connection lives on.
        raise ProtocolError(
            "cluster-control frames are only served by the "
            "cluster supervisor's control endpoint"
        )

    async def _respond_light(self, frame: Frame) -> bytes:
        """Answer the inline request types (ping, stats, ..., unknown).

        A well-formed frame with a type this server does not speak gets
        a typed error; the connection lives on.
        """
        start = time.perf_counter()
        answer_type, payload = await protocol.answer_inline(
            self._inline, frame, self._refusal
        )
        self.metrics.record_request(
            _OP_NAMES.get(frame.frame_type, "unknown"),
            time.perf_counter() - start,
            ok=answer_type != ERROR,
        )
        return encode_frame(answer_type, frame.request_id, payload)

    def _run_slice(self, heavy: list[_Pending]) -> None:
        """Execute one slice's heavy requests (on the loop or an executor thread).

        One pass, request by request: a raise is that one request's
        typed error; the rest of the slice, and the connection, live on.
        """
        for item in heavy:
            started = time.perf_counter()
            try:
                self._execute(item)
            except Exception as exc:
                item.outcome = _error_result(
                    _OP_NAMES[item.frame.frame_type], exc
                )
                item.outcome[3]["seconds"] = time.perf_counter() - started

    def _execute(self, item: _Pending) -> None:
        """Run the request; its outcome, timed, lands on the item."""
        frame = item.frame
        started = time.perf_counter()
        with self._stage(item, "server.execute") as span:
            span.set_attribute("op", _OP_NAMES[frame.frame_type])
            if frame.frame_type == COMPRESS:
                outcome = _execute_compress(frame.payload, item.prepared)
            elif frame.frame_type == DECOMPRESS:
                outcome = _execute_decompress(frame.payload, item.prepared)
            else:
                outcome = _execute_explain(frame.payload)
            meta = outcome[3]
            span.set_attribute("codec", meta.get("codec"))
            span.set_attribute("bytes_out", meta.get("bytes_out", 0))
        meta["seconds"] = time.perf_counter() - started
        item.outcome = outcome


# ----------------------------------------------------------------------
# Background-thread embedding (tests, control endpoint, examples, CLI-less)
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a daemon thread with its own event loop."""

    def __init__(self) -> None:
        self.host = ""
        self.port = 0
        self.server: CompressionServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def metrics(self) -> ServiceMetrics:
        assert self.server is not None
        return self.server.metrics

    def stop(self, grace: float = 5.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self._loop is None or self.server is None:
            return
        if self._thread is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(grace), self._loop
            )
            try:
                # concurrent.futures.TimeoutError only became an alias
                # of the builtin in 3.11; catch both for 3.10.
                future.result(timeout=grace + 5.0)
            except (TimeoutError, futures.TimeoutError, RuntimeError):
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._loop = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_background(
    host: str = "127.0.0.1", port: int = 0, **kwargs
) -> ServerHandle:
    """Start a :class:`CompressionServer` on a daemon thread.

    Blocks until the server is accepting (or failed to bind, in which
    case the bind error is re-raised here).  Returns a
    :class:`ServerHandle` whose ``host``/``port`` a client can dial and
    whose :meth:`~ServerHandle.stop` performs the graceful drain.
    """
    handle = ServerHandle()
    started = threading.Event()

    async def _main() -> None:
        try:
            server = CompressionServer(host, port, **kwargs)
            await server.start()
        except BaseException as exc:
            handle._error = exc
            started.set()
            raise
        handle.server = server
        handle.host, handle.port = host, server.port
        handle._loop = asyncio.get_running_loop()
        started.set()
        await server.serve_until_stopped()

    def _run() -> None:
        try:
            asyncio.run(_main())
        except BaseException:
            started.set()  # never leave the parent waiting

    handle._thread = threading.Thread(
        target=_run, name="fcbench-service", daemon=True
    )
    handle._thread.start()
    if not started.wait(timeout=30.0):
        raise ReproError("service thread failed to start within 30s")
    if handle._error is not None:
        raise handle._error
    return handle


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    on_ready=None,
    grace: float = 5.0,
    **kwargs,
) -> ServiceMetrics:
    """Run a server in the foreground until interrupted (the CLI path).

    Ctrl-C and SIGTERM both trigger the graceful drain (SIGTERM is how
    the cluster supervisor drains a node, and it works even where the
    process inherited an ignored SIGINT, e.g. shell background jobs).
    Returns the final metrics so the caller can persist a snapshot.

    Parameters
    ----------
    host:
        Bind address.
    port:
        TCP port; 0 picks an ephemeral port.
    on_ready:
        ``on_ready(server)`` fires once the socket is bound — the CLI
        prints the address there.
    grace:
        Seconds in-flight requests get to finish on shutdown.
    kwargs:
        Forwarded to :class:`CompressionServer`.
    """
    import signal

    # Foreground serving owns its process: route every repro.* logger
    # through the structured JSON handler.
    configure_logging(logger=get_logger("repro"))
    server = CompressionServer(host, port, **kwargs)

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stopping: list[asyncio.Task] = []

        def _drain() -> None:
            if not stopping:
                stopping.append(loop.create_task(server.stop(grace)))

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        if on_ready is not None:
            on_ready(server)
        try:
            await server.serve_until_stopped()
        finally:
            if not server._stopped.is_set():
                await server.stop(grace)
            for task in stopping:
                if not task.done():
                    await task

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return server.metrics
