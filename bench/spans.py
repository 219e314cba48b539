"""Benchmark-side spans, and folding any span tree into per-layer self time.

The traced run records a span around each call the benchmark makes into
a layer — name, start, end, the span that caused it, and a request id
shared by every span of one operation — keeps them in memory and writes
them out when the run ends.  The same folding also reads the spans the
program already serves over its ``TRACE`` request, after
:func:`from_program` has put them into this module's shape.

A span is a dict ``{"id", "parent", "request", "name", "start", "end"}``
with times in seconds on one clock.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the block as a child of the span open on this thread."""
        parent = getattr(self._local, "open", None)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "request": request or (parent["request"] if parent else str(span_id)),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self._local.open = span
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._local.open = parent
            with self._lock:
                self.spans.append(span)

    def wrap(self, function, name):
        """``function`` inside a span; ``name`` may be a callable that
        derives the span name from the call's arguments."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return function(*args, **kwargs)

        return traced

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start afresh."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets):
    """Put a span around public functions of the program, from outside.

    ``targets`` is a list of ``(function, span_name)``.  Callers bind
    these functions with ``from module import name``, so every
    ``repro`` module global that *is* the function is rebound to the
    traced wrapper, and rebound back on exit.  Nothing under ``src/``
    changes; an untraced run never comes here.
    """
    wrappers = {id(fn): tracer.wrap(fn, name) for fn, name in targets}
    originals = {id(fn): fn for fn, _ in targets}
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)]:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def from_program(records) -> list[dict]:
    """Spans as ``repro.obs`` serves them -> this module's span dicts."""
    return [
        {
            "id": record["span_id"],
            "parent": record.get("parent_id"),
            "request": record["trace_id"],
            "name": record["name"],
            "start": record["start"],
            "end": record["start"] + record["duration_ms"] / 1e3,
        }
        for record in records
    ]


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[tuple[dict, float]]:
    """``(span, self seconds)`` for every span of a forest.

    Children may overlap each other (a queue wait that starts while the
    parse span is still open) or stick out of the parent by clock
    jitter; the union clipped to the parent is what gets subtracted, so
    self time is never negative and never counted twice.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return [
        (
            span,
            (span["end"] - span["start"])
            - _covered(
                [(c["start"], c["end"]) for c in children.get(span["id"], ())],
                span["start"],
                span["end"],
            ),
        )
        for span in spans
    ]


def fold_self_ms(spans) -> dict[str, list[float]]:
    """Self time in ms of every span, grouped by span name."""
    folded: dict[str, list[float]] = {}
    for span, seconds in self_times(spans):
        folded.setdefault(span["name"], []).append(seconds * 1e3)
    return folded


def write_trace(path, spans) -> None:
    with open(path, "w") as fh:
        json.dump(spans, fh)
