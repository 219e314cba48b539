"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "AuthenticationError",
    "ClusterError",
    "CorruptStreamError",
    "DatasetError",
    "DeadlineExceededError",
    "ExperimentError",
    "InputTooLargeError",
    "PrecisionError",
    "ProtocolError",
    "QuotaExceededError",
    "ReproError",
    "SelectionError",
    "ServerOverloadedError",
    "ServiceError",
    "StorageError",
    "StreamClosedError",
    "UnknownCodecError",
    "UnsupportedDtypeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CorruptStreamError(ReproError):
    """A compressed stream is truncated, malformed, or fails validation."""


class UnsupportedDtypeError(ReproError):
    """A compressor was given an array dtype it does not support.

    Mirrors Table 1 of the paper: pFPC and GFC are double-precision only,
    and every studied method is restricted to float32/float64.
    """


class UnknownCodecError(ReproError, KeyError):
    """A codec name is not in the compressor registry.

    Also a :class:`KeyError`, which is what the registry lookup raised
    before this class existed, so ``except KeyError`` callers keep
    working.  Crosses the wire as ``ERR_UNKNOWN_CODEC``, so a served or
    clustered call with a misspelled codec raises the same class as the
    local one.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return str(self.args[0]) if self.args else ""


class InputTooLargeError(ReproError):
    """An input exceeds a method's documented size limit.

    GFC (paper section 4.1) rejects inputs larger than 512 MB; the scaled
    reproduction enforces a proportional threshold.
    """


class PrecisionError(ReproError):
    """BUFF was asked for a decimal precision outside its lookup table."""


class StreamClosedError(ReproError):
    """A streaming session was used after :meth:`close`.

    Raised by the :mod:`repro.api` sessions instead of the underlying
    file object's ``ValueError`` so callers can distinguish a lifecycle
    bug from a malformed stream.
    """


class StorageError(ReproError):
    """The container file is malformed or an operation on it is invalid."""


class DatasetError(ReproError):
    """A dataset descriptor is unknown or a generator was misconfigured."""


class SelectionError(ReproError):
    """Per-chunk codec selection was misconfigured or cannot proceed.

    Raised by :mod:`repro.select` for unknown policies, empty candidate
    sets, and policies that choose a codec outside the stream's codec
    table.
    """


class ExperimentError(ReproError):
    """The experiment database rejected an operation.

    Raised by :mod:`repro.expdb` for schema-version mismatches, unknown
    grid keyfields (codecs or datasets that are not registered), and
    result writes whose claim was lost to a heartbeat timeout when the
    caller asked for strict semantics.
    """


class ServiceError(ReproError):
    """The compression service failed to execute a request.

    The network surface (:mod:`repro.service`) reports server-side
    failures as typed error frames; the client raises the matching
    library exception where one exists (:class:`CorruptStreamError`,
    :class:`SelectionError`, :class:`UnsupportedDtypeError`,
    :class:`UnknownCodecError`) and this class for everything else —
    internal faults.
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline budget expired before the server ran it.

    Raised when the server rejects already-expired work at admission
    time or discards a batched item whose budget lapsed while queued.
    Deliberately *not* a :class:`TimeoutError` subclass: a propagated
    deadline is an end-to-end budget, and retrying or failing over
    cannot buy more of it, so retry layers must let it surface.
    """


class ServerOverloadedError(ServiceError):
    """The server shed this request at its admission gate.

    Unlike most service errors this one is *retryable*: the work was
    never queued, so a later attempt (after ``retry_after_ms``) or a
    different replica may succeed.

    Attributes:
        retry_after_ms: server's hint for how long to back off, or
            ``None`` when the server did not provide one.
    """

    def __init__(self, message: str, retry_after_ms: int | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class AuthenticationError(ServiceError):
    """A multi-tenant server rejected the request's tenant credentials.

    Raised when a server running with a tenant registry receives a
    request whose token is missing or unknown.  Never retried by the
    clients: credentials do not get better by asking again.
    """


class QuotaExceededError(ServiceError):
    """The request's tenant is over its byte or request budget.

    Deliberately *not* a :class:`ServerOverloadedError`: an overload is
    a property of the server (retry and it may fit), while a quota
    rejection is a property of the tenant's budget window, so clients
    must not burn retries on it — a zero-quota tenant would livelock.

    Attributes:
        retry_after_ms: milliseconds until the tenant's budget window
            resets, or ``None`` when the budget can never admit the
            request (e.g. a zero-quota tenant).
    """

    def __init__(self, message: str, retry_after_ms: int | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ClusterError(ServiceError):
    """A cluster operation could not complete on any eligible node.

    Raised by :mod:`repro.cluster` when topology bootstrap fails on
    every seed, when a stream's whole replica set is unreachable even
    after a topology refresh, or when the supervisor cannot bring a
    node up.  A :class:`ClusterError` means the *cluster* failed the
    caller — individual node failures are absorbed by failover and
    never surface as long as one replica answers.
    """


class ProtocolError(ServiceError):
    """A wire frame violates the service protocol.

    Truncated or bit-flipped framing, bad magic, implausible lengths,
    checksum mismatches, and responses that do not match the request.
    Unlike :class:`ServiceError`, a protocol error means the byte stream
    itself can no longer be trusted, so the connection is closed.
    """
