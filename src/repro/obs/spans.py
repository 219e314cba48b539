"""Sans-I/O distributed-tracing primitives.

The span model is deliberately tiny and dependency-free: a trace is a
16-byte random id, every span inside it an 8-byte random id with an
optional parent, and a span itself is just ``(name, start, duration,
attributes, status)``.  Nothing in this module does I/O — the service
layer decides where context comes from (the ``FLAG_TRACE`` wire flag),
where spans go (:class:`SpanRecorder`, a lock-protected bounded ring
buffer mirroring :class:`~repro.service.metrics.ServiceMetrics`'
single-lock snapshot discipline), and who reads them (the gateway's
``/trace`` endpoints, ``fcbench trace``, and the cluster supervisor's
per-node aggregation).

Ids are hex strings in memory (JSON- and log-friendly) and fixed-width
bytes on the wire: :meth:`TraceContext.to_wire` packs exactly
``16 + 8 = 24`` bytes, which is what the protocol layer appends after
the tenant field when ``FLAG_TRACE`` is set.

Durations are measured on the monotonic clock; the wall-clock start is
kept alongside so spans recorded by different processes (a client, the
cluster's nodes) order correctly in one tree.

Cost discipline: tracing must stay under a 2% throughput tax, so a
disabled recorder does one attribute load and returns a shared no-op
span — no allocation, no lock, no clock read.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = [
    "NULL_SPAN",
    "SPAN_ID_BYTES",
    "Span",
    "SpanRecorder",
    "TRACE_ID_BYTES",
    "TraceContext",
    "WIRE_CONTEXT_BYTES",
    "build_trace_tree",
    "chrome_trace_events",
    "new_span_id",
    "new_trace_id",
]

#: Wire widths for the FLAG_TRACE header fields (fixed, not varint:
#: random ids do not compress and fixed offsets keep parsing trivial).
TRACE_ID_BYTES = 16
SPAN_ID_BYTES = 8
WIRE_CONTEXT_BYTES = TRACE_ID_BYTES + SPAN_ID_BYTES


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (16 random bytes)."""
    return os.urandom(TRACE_ID_BYTES).hex()


def new_span_id() -> str:
    """A fresh 16-hex-char span id (8 random bytes)."""
    return os.urandom(SPAN_ID_BYTES).hex()


class TraceContext:
    """The propagated part of a trace: which trace, which parent span.

    Immutable value object; this is what crosses process boundaries,
    serialized to 24 fixed bytes for the wire (:meth:`to_wire`).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        if len(trace_id) != TRACE_ID_BYTES * 2:
            raise ValueError(f"bad trace id {trace_id!r}")
        if len(span_id) != SPAN_ID_BYTES * 2:
            raise ValueError(f"bad span id {span_id!r}")
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(new_trace_id(), new_span_id())

    def to_wire(self) -> bytes:
        """Pack to the 24-byte FLAG_TRACE field (trace id ++ span id)."""
        return bytes.fromhex(self.trace_id) + bytes.fromhex(self.span_id)

    @classmethod
    def from_wire(cls, blob: bytes) -> "TraceContext":
        if len(blob) != WIRE_CONTEXT_BYTES:
            raise ValueError(
                f"trace context needs {WIRE_CONTEXT_BYTES} bytes, "
                f"got {len(blob)}"
            )
        return cls(blob[:TRACE_ID_BYTES].hex(), blob[TRACE_ID_BYTES:].hex())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, {self.span_id!r})"


_ATTR_TYPES = (str, int, float, bool)


class Span:
    """One timed operation inside a trace.

    Spans are context managers: ``with recorder.span("parse") as span:``
    measures the block on the monotonic clock and records the span on
    exit (status ``"error"`` with the exception repr if the block
    raised).  Attributes are typed — str/int/float/bool only — so every
    span snapshot is JSON-clean by construction.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "attributes",
        "status",
        "_recorder",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str | None = None,
        parent_id: str | None = None,
        attributes: dict | None = None,
        recorder: "SpanRecorder | None" = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self.duration = 0.0
        self.attributes: dict = {}
        self.status = "ok"
        self._recorder = recorder
        self._t0 = time.monotonic()
        if attributes:
            for key, value in attributes.items():
                self.set_attribute(key, value)

    @property
    def context(self) -> TraceContext:
        """Context a child span (possibly remote) should inherit."""
        return TraceContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value) -> None:
        if value is None:
            return
        if not isinstance(value, _ATTR_TYPES):
            value = str(value)
        self.attributes[key] = value

    def set_error(self, error) -> None:
        self.status = "error"
        self.set_attribute("error", repr(error) if error else "error")

    def finish(self) -> "Span":
        self.duration = time.monotonic() - self._t0
        if self._recorder is not None:
            self._recorder.record(self)
            self._recorder = None
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.set_error(exc)
        self.finish()

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_ms": self.duration * 1e3,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """The no-op span a disabled recorder hands out.

    Absorbs the whole :class:`Span` surface without allocating, so
    instrumented call sites never branch on "is tracing on?" — they
    always get *a* span, just a free one when tracing is off.
    """

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    duration = 0.0
    context = None
    attributes: dict = {}

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_error(self, error) -> None:
        pass

    def finish(self) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Lock-protected bounded ring buffer of finished spans.

    One per process.  Mirrors :class:`ServiceMetrics`' concurrency
    contract: a single lock covers every mutation and every read, so a
    snapshot racing the recording thread is never torn.  The ring
    (``collections.deque(maxlen=capacity)``) drops the oldest span on
    overflow and counts the drop, so a long-lived server exposes its
    most recent window plus an honest ``dropped`` counter rather than
    growing without bound.
    """

    def __init__(self, capacity: int = 2048, *, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)
        self._recorded = 0
        self._dropped = 0

    @classmethod
    def for_option(cls, trace: "bool | SpanRecorder") -> "SpanRecorder":
        """What a client's ``trace=`` names: a recorder to share, or
        whether its own fresh one records at all."""
        return trace if isinstance(trace, cls) else cls(enabled=bool(trace))

    # -- recording -----------------------------------------------------
    def span(
        self,
        name: str,
        *,
        parent: "TraceContext | Span | None" = None,
        attributes: dict | None = None,
    ):
        """Open a span; returns :data:`NULL_SPAN` when disabled.

        ``parent`` may be a :class:`TraceContext` (remote parent, e.g.
        from the wire) or a live :class:`Span` (local parent); with no
        parent a fresh trace id is minted — this span is a root.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            trace_id, parent_id = new_trace_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(
            name,
            trace_id=trace_id,
            parent_id=parent_id,
            attributes=attributes,
            recorder=self,
        )

    def record(self, span: Span) -> None:
        if not self.enabled:
            return
        with self._lock:
            if len(self._spans) == self.capacity:
                self._dropped += 1
            self._spans.append(span)
            self._recorded += 1

    # -- reading -------------------------------------------------------
    def snapshot(self, limit: int | None = None) -> list:
        """JSON-ready span dicts, oldest first (most recent window)."""
        with self._lock:
            spans = list(self._spans)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [span.to_dict() for span in spans]

    def trace_ids(self) -> list:
        """Distinct trace ids in the ring, most recently touched last."""
        seen: dict = {}
        with self._lock:
            spans = list(self._spans)
        for index, span in enumerate(spans):
            seen[span.trace_id] = index
        return [tid for tid, _ in sorted(seen.items(), key=lambda kv: kv[1])]

    def trace(self, trace_id: str) -> list:
        """All recorded spans of one trace, start-ordered, as dicts."""
        with self._lock:
            spans = [s for s in self._spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: s.start)
        return [span.to_dict() for span in spans]

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "buffered": len(self._spans),
                "recorded": self._recorded,
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


def build_trace_tree(spans) -> list:
    """Nest flat span dicts into parent→children trees.

    Returns the list of roots (spans whose parent is absent from the
    set — either true roots or spans whose parent fell out of the
    ring), each with a ``children`` list, recursively start-ordered.
    Cycles cannot occur with random ids, but a defensive visited-set
    keeps malformed input from recursing forever.
    """
    by_id = {span["span_id"]: dict(span, children=[]) for span in spans}
    roots = []
    for span in by_id.values():
        parent = by_id.get(span.get("parent_id"))
        if parent is not None and parent is not span:
            parent["children"].append(span)
        else:
            roots.append(span)

    def _sort(nodes, seen):
        nodes.sort(key=lambda s: s["start"])
        for node in nodes:
            if node["span_id"] in seen:
                node["children"] = []
                continue
            seen.add(node["span_id"])
            _sort(node["children"], seen)

    _sort(roots, set())
    return roots


def chrome_trace_events(spans) -> list:
    """Span dicts → Chrome ``chrome://tracing`` / Perfetto events.

    Complete ("X"-phase) events; the process id slot carries the node
    that recorded the span (attribute ``node``, default 0) so a merged
    cluster trace renders one lane per node.
    """
    events = []
    for span in spans:
        attrs = span.get("attributes") or {}
        events.append(
            {
                "name": span["name"],
                "cat": span.get("status", "ok"),
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": span.get("duration_ms", 0.0) * 1e3,
                "pid": attrs.get("node", attrs.get("node_id", 0)),
                "tid": span["trace_id"][:8],
                "args": dict(
                    attrs,
                    trace_id=span["trace_id"],
                    span_id=span["span_id"],
                    parent_id=span.get("parent_id") or "",
                ),
            }
        )
    return events
