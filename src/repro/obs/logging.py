"""Structured logging: one JSON object per line, trace-correlated.

The service and cluster layers log through stdlib :mod:`logging` with
:class:`JsonFormatter` attached, so every line is a machine-parseable
JSON object carrying the standard envelope (``ts``, ``level``,
``logger``, ``event``) plus whatever correlation fields the call site
passed via ``extra=`` — by convention ``trace_id``, ``tenant``,
``request_id``, and ``node``.  That makes a grep for one trace id
return the log lines *and* (via ``/trace/<id>``) the span tree of the
same request.

Usage:

    >>> import io, logging
    >>> log = get_logger("repro.test.doc")
    >>> stream = io.StringIO()
    >>> configure_logging(stream=stream, logger=log)
    >>> log.info("request done", extra={"trace_id": "ab" * 16})
    >>> '"event": "request done"' in stream.getvalue()
    True
    >>> '"trace_id"' in stream.getvalue()
    True

:class:`SlowRequestSampler` implements the "log only what hurts"
policy: request completions are logged only above a latency threshold
(and then only every Nth to bound log volume under a latency storm),
because logging every request at production rates is itself a p99
regression.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time

__all__ = [
    "JsonFormatter",
    "SlowRequestSampler",
    "configure_logging",
    "get_logger",
]

#: Attributes every LogRecord carries; anything else on the record was
#: passed by the call site via ``extra=`` and belongs in the envelope.
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonFormatter(logging.Formatter):
    """Render each record as one sorted-key JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        entry = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = str(value)
            entry[key] = value
        if record.exc_info and record.exc_info[1] is not None:
            entry["error"] = repr(record.exc_info[1])
        return json.dumps(entry, sort_keys=True)


def get_logger(name: str = "repro") -> logging.Logger:
    """The named logger; call sites never touch handlers themselves."""
    return logging.getLogger(name)


def configure_logging(
    *,
    stream=None,
    level: int = logging.INFO,
    logger: logging.Logger | None = None,
) -> logging.Logger:
    """Attach the JSON formatter to ``logger`` (default: ``repro``).

    Idempotent: an existing JSON handler on the logger is replaced, not
    duplicated, so repeated server starts in one process (tests,
    embedded servers) do not multiply log lines.  The logger
    stops propagating to the root logger — the service owns its stream
    (stderr by default) and pytest's root capture should not duplicate
    it.
    """
    logger = logger if logger is not None else get_logger()
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter())
    handler._repro_json = True  # marker for idempotent reconfiguration
    for existing in list(logger.handlers):
        if getattr(existing, "_repro_json", False):
            logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


class SlowRequestSampler:
    """Log request completions only above a latency threshold.

    ``threshold_ms`` draws the slow line; ``sample_every`` keeps a
    latency storm from turning the log into the bottleneck (only every
    Nth slow request is written, but all of them are counted, and the
    running counters ride on each emitted line).  Thread-safe: the
    executor callback path and the event loop may both observe.
    """

    def __init__(
        self,
        logger: logging.Logger | None = None,
        *,
        threshold_ms: float = 100.0,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._logger = logger if logger is not None else get_logger()
        self.threshold_ms = threshold_ms
        self.sample_every = sample_every
        self._lock = threading.Lock()
        self.observed = 0
        self.slow = 0
        self.emitted = 0

    def observe(self, op: str, seconds: float, **fields) -> bool:
        """Returns True when the observation was written to the log."""
        millis = seconds * 1e3
        with self._lock:
            self.observed += 1
            if millis < self.threshold_ms:
                return False
            self.slow += 1
            if (self.slow - 1) % self.sample_every:
                return False
            self.emitted += 1
            slow, observed = self.slow, self.observed
        extra = {k: v for k, v in fields.items() if v is not None}
        extra.update(
            op=op,
            duration_ms=round(millis, 3),
            threshold_ms=self.threshold_ms,
            slow_count=slow,
            observed_count=observed,
        )
        self._logger.warning("slow request", extra=extra)
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "sample_every": self.sample_every,
                "observed": self.observed,
                "slow": self.slow,
                "emitted": self.emitted,
            }


# Re-exported for call sites that want a timestamp helper consistent
# with the formatter's ``ts`` field.
now = time.time
