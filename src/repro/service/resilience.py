"""Client-side resilience primitives shared by the service and cluster.

Four small, composable pieces:

* :class:`Deadline` — one monotonic budget for a whole *operation*.
  Every retry, failover hop, and topology refresh spends from the same
  budget, so worst-case latency is bounded by what the caller asked
  for instead of multiplying with the attempt count.
* :class:`RetryPolicy` — a picklable description of *when* and *how
  long* to back off: exponential delays with deterministic, seedable
  jitter (the same policy object produces the same delay sequence,
  which keeps soak runs and tests reproducible).
* :class:`RetryBudget` — a token bucket that caps the *fraction* of
  traffic that may be retries.  Under a real outage every client
  retrying at full rate triples the load on whatever survived; the
  budget turns that storm into a trickle.
* :class:`CircuitBreaker` — per-target failure accounting: trip after
  N consecutive transport faults, stop dialing the target, and let a
  single half-open probe discover recovery.

None of these know about sockets or frames; the service client, the
cluster client, and the chaos soak compose them around their own
transports.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

__all__ = [
    "Deadline",
    "RetryPolicy",
    "RetryBudget",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]


class Deadline:
    """A point on the monotonic clock that bounds one operation.

    Constructed once per *operation* (not per attempt); everything the
    operation does — connection attempts, socket waits, backoff sleeps,
    failover hops — clamps its own timeout to :meth:`remaining`.
    """

    __slots__ = ("_expiry",)

    def __init__(self, expiry: float) -> None:
        self._expiry = float(expiry)

    @classmethod
    def after(cls, seconds: "float | Deadline | None") -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` means unbounded.

        A :class:`Deadline` passes through, so a per-call ``deadline=``
        may be either a budget or the caller's own running clock.
        """
        if isinstance(seconds, Deadline):
            return seconds
        if seconds is None:
            return cls(float("inf"))
        return cls(time.monotonic() + float(seconds))

    @property
    def expiry(self) -> float:
        return self._expiry

    def remaining(self) -> float:
        """Seconds left; negative once the deadline has passed."""
        return self._expiry - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def remaining_ms(self) -> int | None:
        """Whole milliseconds left (floored at 0); ``None`` if unbounded.

        This is the value that travels on the wire: a request that
        arrives with 0 ms left is rejected rather than queued.
        """
        remaining = self.remaining()
        if remaining == float("inf"):
            return None
        return max(0, int(remaining * 1000.0))

    def clamp(self, seconds: float) -> float:
        """``seconds`` shortened to the remaining budget (floored at 0)."""
        return max(0.0, min(float(seconds), self.remaining()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def _jitter_fraction(seed: int, attempt: int) -> float:
    """Deterministic uniform-ish fraction in [0, 1) for one attempt."""
    digest = hashlib.blake2b(
        f"{seed}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client spaces its retries.

    Picklable and immutable so one policy object can be shared across
    threads, handed to worker processes, and embedded in soak configs.
    Delays are exponential (``base_delay * multiplier ** attempt``,
    capped at ``max_delay``) and jittered *deterministically* from
    ``seed`` — two clients with different seeds desynchronize, yet any
    single run is reproducible.

    ``max_attempts`` counts total tries including the first one, so
    ``max_attempts=1`` means "never retry".
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        The jitter only ever *shortens* the exponential delay, so the
        capped exponential stays an upper bound.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return raw * (1.0 - self.jitter * _jitter_fraction(self.seed, attempt))


class RetryBudget:
    """A token bucket bounding the retry *fraction* of total traffic.

    Every first attempt deposits ``deposit_per_call`` tokens (capped at
    ``capacity``); every retry withdraws one whole token.  With the
    default deposit of 0.1 the steady-state retry rate cannot exceed
    ~10% of request volume — the gRPC "retry throttling" shape — so a
    hard outage cannot amplify into a synchronized retry storm.
    """

    def __init__(
        self, capacity: float = 10.0, deposit_per_call: float = 0.1
    ) -> None:
        if capacity < 1.0:
            raise ValueError("capacity must be at least 1")
        if deposit_per_call <= 0:
            raise ValueError("deposit_per_call must be positive")
        self.capacity = float(capacity)
        self.deposit_per_call = float(deposit_per_call)
        self._tokens = float(capacity)
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def record_call(self) -> None:
        """Account one first attempt (refills the bucket a little)."""
        with self._lock:
            self._tokens = min(
                self.capacity, self._tokens + self.deposit_per_call
            )

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; ``False`` means don't retry."""
        with self._lock:
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a single half-open probe.

    State machine::

        closed ──(N consecutive transport faults)──> open
        open ──(reset_timeout elapsed, or a forced probe)──> half_open
        half_open ──(probe succeeds)──> closed
        half_open ──(probe fails)──> open   (timer re-armed)

    While open, :meth:`allow` answers ``False`` so callers skip the
    target without eating a connect timeout.  In half-open, exactly one
    in-flight probe is admitted at a time; everyone else keeps getting
    ``False`` until the probe resolves.  ``allow(force_probe=True)``
    bypasses the timer — the cluster client uses it on its last-resort
    second pass, where trying a tripped node is still better than
    failing the operation outright.

    Thread-safe; only transport-level verdicts should be recorded
    (a typed data error is an *answer*, not a node failure).
    """

    def __init__(
        self, failure_threshold: int = 5, reset_timeout: float = 5.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self, force_probe: bool = False) -> bool:
        """May the caller dial the target right now?"""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                elapsed = time.monotonic() - self._opened_at
                if force_probe or elapsed >= self.reset_timeout:
                    self._state = BREAKER_HALF_OPEN
                    self._probe_inflight = True
                    return True
                return False
            # half-open: one probe at a time, unless forced.
            if force_probe or not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_inflight = False
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_OPEN
                self._opened_at = time.monotonic()
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = time.monotonic()
                self._trips += 1

    def snapshot(self) -> dict:
        """Metrics-visible view of the breaker."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
            }
