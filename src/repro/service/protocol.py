"""FCS — the length-prefixed binary wire protocol of the service.

One protocol frame carries one request or one response::

    +--------------------------------------------------------------+
    | magic b"FCS1" (4 bytes)                                      |
    | frame type (u8)    request id (uvarint)                      |
    | payload length (uvarint, bounded)                            |
    | payload bytes                                                |
    | CRC-32 of the payload (u32 little-endian)                    |
    +--------------------------------------------------------------+

Integers are LEB128 varints (:mod:`repro.encodings.varint`), the same
encoding the FCF frame format uses.  Request types cover the single-node
surface (ping / compress / decompress / select-explain / stats) and the
cluster surface (cluster-topology / health / cluster-control — see
:mod:`repro.cluster`).  Every response frame's type is its
request's type with the high bit set; error responses use the dedicated
:data:`ERROR` type whose payload carries an error *code* mapped to the
library's exception hierarchy — ``CorruptStreamError``,
``SelectionError``, ``UnsupportedDtypeError`` — so a remote failure
raises the same exception a local call would.

Compressed payloads are FCF streams **verbatim**: the bytes a
``compress`` response carries are exactly what
:func:`repro.api.compress_array` returns locally (including v2
mixed-codec streams for ``codec="auto"``), so a served stream can be
written to disk, inspected with ``fcbench inspect``, and decoded by any
FCF reader.

This module is sans-I/O: :func:`encode_frame` builds bytes,
:class:`FrameParser` consumes them incrementally, and the payload
codecs translate requests/responses to and from Python values.  The
server and both clients share it, and the fuzz tests attack it
directly.  Malformed input of any kind raises
:class:`~repro.errors.ProtocolError` — never an ``IndexError`` or a
hang.
"""

from __future__ import annotations

import inspect
import json
import zlib
from dataclasses import dataclass

import numpy as np

from repro.api.frames import check_shape
from repro.encodings.varint import encode_uvarint
from repro.errors import (
    AuthenticationError,
    CorruptStreamError,
    DeadlineExceededError,
    ProtocolError,
    QuotaExceededError,
    SelectionError,
    ServerOverloadedError,
    ServiceError,
    UnknownCodecError,
    UnsupportedDtypeError,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_PAYLOAD",
    "DEFAULT_VNODES",
    "PING",
    "COMPRESS",
    "DECOMPRESS",
    "SELECT_EXPLAIN",
    "STATS",
    "CLUSTER_TOPOLOGY",
    "HEALTH",
    "CLUSTER_CONTROL",
    "TRACE",
    "ERROR",
    "RESPONSE_BIT",
    "FLAG_BIT",
    "FLAG_DEADLINE",
    "FLAG_TENANT",
    "FLAG_TRACE",
    "MAX_TOKEN_BYTES",
    "TRACE_CONTEXT_BYTES",
    "REQUEST_TYPES",
    "REQUEST_NAMES",
    "NODE_STATES",
    "CONTROL_ACTIONS",
    "ERR_PROTOCOL",
    "ERR_CORRUPT_STREAM",
    "ERR_SELECTION",
    "ERR_UNSUPPORTED_DTYPE",
    "ERR_UNKNOWN_CODEC",
    "ERR_TOO_LARGE",
    "ERR_INTERNAL",
    "ERR_DEADLINE",
    "ERR_OVERLOADED",
    "ERR_UNAUTHENTICATED",
    "ERR_QUOTA",
    "Frame",
    "FrameParser",
    "encode_frame",
    "response_type",
    "encode_compress_request",
    "decode_compress_request",
    "encode_array",
    "decode_array",
    "encode_explain_request",
    "decode_explain_request",
    "encode_json",
    "decode_json",
    "validate_topology",
    "encode_topology",
    "decode_topology",
    "encode_control",
    "decode_control",
    "encode_trace_request",
    "decode_trace_request",
    "encode_error",
    "decode_error",
    "encode_overload_error",
    "encode_quota_error",
    "error_code_for",
    "raise_for_error",
    "answer_inline",
]

#: Frame magic: "FCS" + protocol version digit.
MAGIC = b"FCS1"
PROTOCOL_VERSION = 1
#: Default upper bound on one frame's payload (256 MiB) — a hostile
#: length prefix must not drive the peer into a huge allocation.
DEFAULT_MAX_PAYLOAD = 1 << 28
#: Default virtual nodes per physical node.  Part of the topology
#: contract: every client must hash with the *same* vnode count or
#: placement diverges, so the topology document always carries it.
DEFAULT_VNODES = 128

# Request frame types; a response echoes the type with the high bit set.
PING = 0x01
COMPRESS = 0x02
DECOMPRESS = 0x03
SELECT_EXPLAIN = 0x04
STATS = 0x05
#: Cluster bootstrap: any node (and the supervisor's control endpoint)
#: answers with the cluster topology document — node ids, addresses,
#: replication factor, and the virtual-node count that makes hash-ring
#: placement deterministic across every client process.
CLUSTER_TOPOLOGY = 0x06
#: Liveness probe with a JSON answer (node id, uptime, pid) — the
#: supervisor's health checker and ``fcbench cluster status`` use it.
HEALTH = 0x07
#: Supervisor control verb (drain / restart / status); compression
#: nodes do not speak it, only the supervisor's control endpoint does.
CLUSTER_CONTROL = 0x08
#: Span retrieval: a node answers with its recorder's recent spans (or
#: one trace's spans) as JSON; the supervisor's control endpoint
#: answers with every node's spans merged.  ``fcbench trace`` and
#: ``fcbench cluster trace`` ride on it.
TRACE = 0x09
RESPONSE_BIT = 0x80
#: Flagged *request* header: a request type with this bit set carries a
#: flags uvarint (and flag-dependent fields) between the request id and
#: the payload length.  Responses never carry flags, and :data:`ERROR`
#: (0xFF) is unambiguous because its high bit is set.  Plain requests
#: stay byte-identical to protocol version 1, so a client that never
#: sets a flag interoperates with old servers unchanged.
FLAG_BIT = 0x40
#: Flag: the header carries a deadline budget (whole ms, uvarint).
FLAG_DEADLINE = 0x01
#: Flag: the header carries a tenant auth token (uvarint length +
#: UTF-8 bytes), placed after the deadline budget when both ride.
FLAG_TENANT = 0x02
#: Flag: the header carries a trace context — 16 trace-id bytes plus 8
#: parent-span-id bytes, fixed width (random ids do not compress and
#: fixed offsets keep parsing trivial) — placed after the tenant field
#: in flag-bit order.
FLAG_TRACE = 0x04
_KNOWN_FLAGS = FLAG_DEADLINE | FLAG_TENANT | FLAG_TRACE
#: Upper bound on one tenant token's encoded length.
MAX_TOKEN_BYTES = 128
#: Exact width of the FLAG_TRACE field (trace id ++ parent span id).
TRACE_CONTEXT_BYTES = 24
#: Typed failure response (any request may answer with it).
ERROR = 0xFF

REQUEST_TYPES = (
    PING,
    COMPRESS,
    DECOMPRESS,
    SELECT_EXPLAIN,
    STATS,
    CLUSTER_TOPOLOGY,
    HEALTH,
    CLUSTER_CONTROL,
    TRACE,
)

#: Human-readable operation names, shared by the server's metrics, the
#: clients' trace spans, and log lines — one spelling everywhere.
REQUEST_NAMES = {
    PING: "ping",
    COMPRESS: "compress",
    DECOMPRESS: "decompress",
    SELECT_EXPLAIN: "select-explain",
    STATS: "stats",
    CLUSTER_TOPOLOGY: "topology",
    HEALTH: "health",
    CLUSTER_CONTROL: "control",
    TRACE: "trace",
}

# Error codes carried by ERROR payloads, mapped to library exceptions.
ERR_PROTOCOL = 1
ERR_CORRUPT_STREAM = 2
ERR_SELECTION = 3
ERR_UNSUPPORTED_DTYPE = 4
ERR_UNKNOWN_CODEC = 5
ERR_TOO_LARGE = 6
ERR_INTERNAL = 7
#: The request's deadline budget expired before the server ran it.
ERR_DEADLINE = 8
#: The admission gate shed the request; message is a JSON object with a
#: ``retry_after_ms`` hint (old clients degrade to a plain ServiceError
#: whose message happens to be that JSON).
ERR_OVERLOADED = 9
#: A multi-tenant server did not recognize the request's tenant token
#: (or the request carried none).  Never retried.
ERR_UNAUTHENTICATED = 10
#: The tenant is over its byte/request budget for the current window;
#: the message is the same JSON envelope ``ERR_OVERLOADED`` uses, whose
#: ``retry_after_ms`` points at the window reset.
ERR_QUOTA = 11

#: ``(code, exception class)``, declared once.  Decoding looks the code
#: up; encoding (:func:`error_code_for`) answers the first entry the
#: exception is an instance of, so subclasses precede their bases and,
#: of two codes that decode to one class, the first is what it encodes to.
_ERROR_TABLE = (
    (ERR_DEADLINE, DeadlineExceededError),
    (ERR_OVERLOADED, ServerOverloadedError),
    (ERR_UNAUTHENTICATED, AuthenticationError),
    (ERR_QUOTA, QuotaExceededError),
    (ERR_PROTOCOL, ProtocolError),
    (ERR_TOO_LARGE, ProtocolError),
    (ERR_CORRUPT_STREAM, CorruptStreamError),
    (ERR_SELECTION, SelectionError),
    (ERR_UNSUPPORTED_DTYPE, UnsupportedDtypeError),
    (ERR_UNKNOWN_CODEC, UnknownCodecError),
    (ERR_INTERNAL, ServiceError),
)
_ERROR_EXCEPTIONS = dict(_ERROR_TABLE)

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}
_MAX_NAME = 64
_MAX_RANK = 8
#: A uvarint below 2^64 occupies at most 10 bytes.
_MAX_VARINT_BYTES = 10


def response_type(request_type: int) -> int:
    """The frame type answering ``request_type``."""
    return request_type | RESPONSE_BIT


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame.

    ``frame_type`` is always the *base* type — the parser strips
    :data:`FLAG_BIT` after decoding the flagged fields — so dispatch
    code never has to mask.  ``deadline_ms`` is the remaining deadline
    budget the request arrived with, ``tenant_token`` the auth token it
    carried, ``trace_context`` the raw 24-byte trace header (the obs
    layer decodes it — the protocol stays sans-tracing); each is
    ``None`` for frames without the matching flag.
    """

    frame_type: int
    request_id: int
    payload: bytes
    deadline_ms: int | None = None
    tenant_token: str | None = None
    trace_context: bytes | None = None

    @property
    def is_error(self) -> bool:
        return self.frame_type == ERROR


def encode_frame(
    frame_type: int,
    request_id: int,
    payload: bytes,
    deadline_ms: int | None = None,
    tenant_token: str | None = None,
    trace_context: bytes | None = None,
) -> bytes:
    """Serialize one frame (header, payload, payload CRC-32).

    A ``deadline_ms`` budget, a ``tenant_token``, and/or a 24-byte
    ``trace_context`` may only ride on plain request types; any of them
    sets :data:`FLAG_BIT` on the type byte and inserts the flags
    uvarint (then the deadline uvarint, the length-prefixed token, and
    the fixed-width trace context, in flag-bit order) after the request
    id.  Without them the emitted bytes are identical to protocol
    version 1.
    """
    if not 0 <= frame_type <= 0xFF:
        raise ValueError(f"frame type {frame_type} out of range")
    payload = bytes(payload)
    head = [MAGIC]
    if deadline_ms is None and tenant_token is None and trace_context is None:
        head.append(bytes([frame_type]))
        head.append(encode_uvarint(request_id))
    else:
        if frame_type & (RESPONSE_BIT | FLAG_BIT):
            raise ValueError(
                f"header flags need a plain request type, got {frame_type:#x}"
            )
        flags = 0
        if deadline_ms is not None:
            if deadline_ms < 0:
                raise ValueError(f"deadline_ms {deadline_ms} is negative")
            flags |= FLAG_DEADLINE
        token_bytes = b""
        if tenant_token is not None:
            token_bytes = tenant_token.encode()
            if not 1 <= len(token_bytes) <= MAX_TOKEN_BYTES:
                raise ValueError(
                    f"tenant token must encode to 1..{MAX_TOKEN_BYTES} "
                    f"bytes, got {len(token_bytes)}"
                )
            flags |= FLAG_TENANT
        if trace_context is not None:
            trace_context = bytes(trace_context)
            if len(trace_context) != TRACE_CONTEXT_BYTES:
                raise ValueError(
                    f"trace context must be {TRACE_CONTEXT_BYTES} bytes, "
                    f"got {len(trace_context)}"
                )
            flags |= FLAG_TRACE
        head.append(bytes([frame_type | FLAG_BIT]))
        head.append(encode_uvarint(request_id))
        head.append(encode_uvarint(flags))
        if deadline_ms is not None:
            head.append(encode_uvarint(deadline_ms))
        if tenant_token is not None:
            head.append(encode_uvarint(len(token_bytes)))
            head.append(token_bytes)
        if trace_context is not None:
            head.append(trace_context)
    return b"".join(
        head
        + [
            encode_uvarint(len(payload)),
            payload,
            (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"),
        ]
    )


def _take_uvarint(buf, pos: int, what: str) -> tuple[int, int] | None:
    """Incremental uvarint: ``None`` while incomplete, raise when bad."""
    result = 0
    shift = 0
    for index in range(_MAX_VARINT_BYTES):
        if pos + index >= len(buf):
            return None
        byte = buf[pos + index]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos + index + 1
        shift += 7
    raise ProtocolError(f"{what} varint exceeds {_MAX_VARINT_BYTES} bytes")


class FrameParser:
    """Incremental frame decoder over an untrusted byte stream.

    Feed it whatever the transport produced; it returns every complete
    frame and keeps the remainder buffered.  Any framing violation —
    bad magic, implausible payload length, CRC mismatch — raises
    :class:`~repro.errors.ProtocolError`, after which the stream cannot
    be re-synchronized and the connection must be closed.  Frames that
    completed ahead of a violation in the same ``feed`` are returned
    first: the offending bytes stay buffered, so the next ``feed``
    (``feed(b"")`` will do) raises — and every one after it — and what
    a peer is answered does not depend on how TCP segmented its bytes.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        self.max_payload = int(max_payload)
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data) -> list[Frame]:
        """Consume ``data``; return the complete frames it finished."""
        self._buffer.extend(data)
        frames = []
        while True:
            try:
                frame, consumed = self._try_parse()
            except ProtocolError:
                if not frames:
                    raise
                break  # hand these over; the next feed raises it again
            if frame is None:
                break
            del self._buffer[:consumed]
            frames.append(frame)
        return frames

    def _try_parse(self) -> tuple[Frame | None, int]:
        buf = self._buffer
        if len(buf) < len(MAGIC) + 1:
            return None, 0
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise ProtocolError(
                f"bad frame magic {bytes(buf[:4])!r} (expected {MAGIC!r})"
            )
        frame_type = buf[len(MAGIC)]
        head = _take_uvarint(buf, len(MAGIC) + 1, "request id")
        if head is None:
            return None, 0
        request_id, pos = head
        deadline_ms: int | None = None
        tenant_token: str | None = None
        trace_context: bytes | None = None
        # Flags only exist on *known* request types: an unknown type
        # with the 0x40 bit (e.g. a newer protocol's frame) must keep
        # the legacy layout so it still parses and earns the typed
        # "unknown request type" answer instead of a desynced stream.
        if (
            frame_type & FLAG_BIT
            and not frame_type & RESPONSE_BIT
            and frame_type & ~FLAG_BIT in REQUEST_TYPES
        ):
            frame_type &= ~FLAG_BIT
            head = _take_uvarint(buf, pos, "header flags")
            if head is None:
                return None, 0
            flags, pos = head
            if flags & ~_KNOWN_FLAGS:
                raise ProtocolError(
                    f"unknown header flag bits {flags & ~_KNOWN_FLAGS:#x}"
                )
            if flags & FLAG_DEADLINE:
                head = _take_uvarint(buf, pos, "deadline budget")
                if head is None:
                    return None, 0
                deadline_ms, pos = head
            if flags & FLAG_TENANT:
                head = _take_uvarint(buf, pos, "tenant token length")
                if head is None:
                    return None, 0
                token_len, pos = head
                if not 1 <= token_len <= MAX_TOKEN_BYTES:
                    raise ProtocolError(
                        f"implausible tenant token length {token_len}"
                    )
                if pos + token_len > len(buf):
                    return None, 0
                try:
                    tenant_token = bytes(
                        buf[pos : pos + token_len]
                    ).decode()
                except UnicodeDecodeError as exc:
                    raise ProtocolError("undecodable tenant token") from exc
                pos += token_len
            if flags & FLAG_TRACE:
                if pos + TRACE_CONTEXT_BYTES > len(buf):
                    return None, 0
                trace_context = bytes(buf[pos : pos + TRACE_CONTEXT_BYTES])
                pos += TRACE_CONTEXT_BYTES
        head = _take_uvarint(buf, pos, "payload length")
        if head is None:
            return None, 0
        length, pos = head
        if length > self.max_payload:
            raise ProtocolError(
                f"frame declares a {length}-byte payload, "
                f"limit is {self.max_payload}"
            )
        end = pos + length + 4
        if len(buf) < end:
            return None, 0
        payload = bytes(buf[pos : pos + length])
        crc = int.from_bytes(buf[pos + length : end], "little")
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if crc != actual:
            raise ProtocolError(
                f"frame payload checksum mismatch: header says {crc:#010x}, "
                f"payload hashes to {actual:#010x}"
            )
        return (
            Frame(
                frame_type,
                request_id,
                payload,
                deadline_ms,
                tenant_token,
                trace_context,
            ),
            end,
        )


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def _encode_name(name: str, what: str) -> bytes:
    encoded = name.encode()
    if len(encoded) > _MAX_NAME:
        raise ValueError(f"{what} {name!r} exceeds {_MAX_NAME} bytes")
    return encode_uvarint(len(encoded)) + encoded


def _decode_name(payload: bytes, pos: int, what: str) -> tuple[str, int]:
    head = _take_uvarint(payload, pos, f"{what} length")
    if head is None:
        raise ProtocolError(f"truncated {what} in request payload")
    length, pos = head
    if length > _MAX_NAME:
        raise ProtocolError(f"implausible {what} length {length}")
    if pos + length > len(payload):
        raise ProtocolError(f"truncated {what} in request payload")
    try:
        name = payload[pos : pos + length].decode()
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable {what}") from exc
    return name, pos + length


def _decode_varint(payload: bytes, pos: int, what: str) -> tuple[int, int]:
    head = _take_uvarint(payload, pos, what)
    if head is None:
        raise ProtocolError(f"truncated {what} in payload")
    return head


def encode_array(array: np.ndarray) -> bytes:
    """Serialize a float array: dtype code, shape, raw C-order bytes."""
    array = np.asarray(array)
    shape = array.shape  # before ascontiguousarray, which promotes 0-d
    array = np.ascontiguousarray(array)
    if array.dtype not in _DTYPE_CODES:
        raise UnsupportedDtypeError(
            f"the service carries float32/float64 arrays, got {array.dtype}"
        )
    parts = [bytes([_DTYPE_CODES[array.dtype]]), encode_uvarint(len(shape))]
    for extent in shape:
        parts.append(encode_uvarint(extent))
    parts.append(array.tobytes())
    return b"".join(parts)


def decode_array(payload: bytes, pos: int = 0) -> np.ndarray:
    """Invert :func:`encode_array`; validates shape against byte count."""
    return decode_array_view(payload, pos).copy()


def decode_array_view(payload: bytes, pos: int = 0) -> np.ndarray:
    """Like :func:`decode_array`, but a read-only view over ``payload``.

    :func:`decode_array` is this view plus one copy; a caller that only
    reads the array can skip the copy.
    """
    if pos >= len(payload):
        raise ProtocolError("truncated array payload (missing dtype)")
    dtype = _CODE_DTYPES.get(payload[pos])
    if dtype is None:
        raise ProtocolError(f"unknown array dtype code {payload[pos]}")
    ndim, pos = _decode_varint(payload, pos + 1, "array rank")
    if ndim > _MAX_RANK:
        raise ProtocolError(f"implausible array rank {ndim}")
    shape = []
    for _ in range(ndim):
        extent, pos = _decode_varint(payload, pos, "array extent")
        shape.append(extent)
    check_shape(shape, dtype.itemsize, ProtocolError)
    count = 1
    for extent in shape:
        count *= extent
    body = memoryview(payload)[pos:]
    if len(body) != count * dtype.itemsize:
        raise ProtocolError(
            f"array payload holds {len(body)} bytes, shape "
            f"{tuple(shape)} x {dtype} needs {count * dtype.itemsize}"
        )
    return np.frombuffer(body, dtype=dtype).reshape(shape)


def encode_compress_request(
    array: np.ndarray,
    codec: str,
    chunk_elements: int,
    policy: str = "heuristic",
) -> bytes:
    """Build a ``COMPRESS`` payload: codec, policy, chunking, array."""
    if chunk_elements < 1:
        raise ValueError("chunk_elements must be positive")
    return b"".join(
        [
            _encode_name(codec, "codec name"),
            _encode_name(policy, "policy name"),
            encode_uvarint(chunk_elements),
            encode_array(array),
        ]
    )


def decode_compress_request(
    payload: bytes,
) -> tuple[str, str, int, np.ndarray]:
    """Parse a ``COMPRESS`` payload -> (codec, policy, chunking, array)."""
    codec, pos = _decode_name(payload, 0, "codec name")
    policy, pos = _decode_name(payload, pos, "policy name")
    chunk_elements, pos = _decode_varint(payload, pos, "chunk_elements")
    if chunk_elements < 1:
        raise ProtocolError(f"implausible chunk_elements {chunk_elements}")
    return codec, policy, chunk_elements, decode_array(payload, pos)


def encode_explain_request(
    array: np.ndarray, policy: str, chunk_elements: int
) -> bytes:
    """Build a ``SELECT_EXPLAIN`` payload: policy, chunking, array."""
    if chunk_elements < 1:
        raise ValueError("chunk_elements must be positive")
    return b"".join(
        [
            _encode_name(policy, "policy name"),
            encode_uvarint(chunk_elements),
            encode_array(array),
        ]
    )


def decode_explain_request(payload: bytes) -> tuple[str, int, np.ndarray]:
    """Parse a ``SELECT_EXPLAIN`` payload -> (policy, chunking, array)."""
    policy, pos = _decode_name(payload, 0, "policy name")
    chunk_elements, pos = _decode_varint(payload, pos, "chunk_elements")
    if chunk_elements < 1:
        raise ProtocolError(f"implausible chunk_elements {chunk_elements}")
    return policy, chunk_elements, decode_array(payload, pos)


def encode_json(value: dict) -> bytes:
    """Serialize a JSON payload (``STATS`` / ``SELECT_EXPLAIN`` answers)."""
    return json.dumps(value, sort_keys=True).encode()


def decode_json(payload: bytes) -> dict:
    """Parse a JSON payload; malformed bytes are a protocol violation."""
    try:
        value = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON payload: {exc}") from exc
    if not isinstance(value, dict):
        raise ProtocolError("JSON payload is not an object")
    return value


# ----------------------------------------------------------------------
# Cluster payloads: topology documents and supervisor control verbs
# ----------------------------------------------------------------------
#: Node lifecycle states a topology document may report.
NODE_STATES = ("starting", "up", "draining", "down")
#: Verbs the supervisor's control endpoint accepts.
CONTROL_ACTIONS = ("drain", "restart", "status")
_MAX_NODES = 1024
_MAX_VNODES = 4096


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(f"invalid topology: {message}")


def validate_topology(topology: dict) -> dict:
    """Structurally validate a topology document (returns it unchanged).

    A topology is the contract every routing decision hangs off — a
    malformed one must never reach a :class:`~repro.cluster.HashRing`,
    so both the encoder and the decoder funnel through this check.
    """
    if not isinstance(topology, dict):
        raise ProtocolError("invalid topology: not an object")
    version = topology.get("version")
    _require(isinstance(version, int) and not isinstance(version, bool)
             and version >= 0, f"bad version {version!r}")
    replication = topology.get("replication")
    _require(isinstance(replication, int) and not isinstance(replication, bool)
             and replication >= 1, f"bad replication {replication!r}")
    vnodes = topology.get("vnodes")
    _require(isinstance(vnodes, int) and not isinstance(vnodes, bool)
             and 1 <= vnodes <= _MAX_VNODES, f"bad vnodes {vnodes!r}")
    nodes = topology.get("nodes")
    _require(isinstance(nodes, list) and 1 <= len(nodes) <= _MAX_NODES,
             "nodes must be a non-empty list")
    seen: set[str] = set()
    for node in nodes:
        _require(isinstance(node, dict), "node entry is not an object")
        node_id = node.get("id")
        _require(isinstance(node_id, str) and 1 <= len(node_id) <= _MAX_NAME,
                 f"bad node id {node_id!r}")
        _require(node_id not in seen, f"duplicate node id {node_id!r}")
        seen.add(node_id)
        host = node.get("host")
        _require(isinstance(host, str) and 1 <= len(host) <= 255,
                 f"bad host {host!r} for node {node_id}")
        port = node.get("port")
        _require(isinstance(port, int) and not isinstance(port, bool)
                 and 1 <= port <= 65535,
                 f"bad port {port!r} for node {node_id}")
        state = node.get("state")
        _require(state in NODE_STATES,
                 f"bad state {state!r} for node {node_id}")
    return topology


def encode_topology(topology: dict) -> bytes:
    """Serialize a validated topology document (``CLUSTER_TOPOLOGY``)."""
    return encode_json(validate_topology(topology))


def decode_topology(payload: bytes) -> dict:
    """Parse and validate a ``CLUSTER_TOPOLOGY`` response payload."""
    return validate_topology(decode_json(payload))


def encode_control(action: str, node: str | None = None) -> bytes:
    """Build a ``CLUSTER_CONTROL`` payload: a verb plus a target node."""
    if action not in CONTROL_ACTIONS:
        raise ValueError(
            f"unknown control action {action!r} (one of {CONTROL_ACTIONS})"
        )
    body: dict = {"action": action}
    if node is not None:
        body["node"] = node
    return encode_json(body)


def decode_control(payload: bytes) -> tuple[str, str | None]:
    """Parse a ``CLUSTER_CONTROL`` payload -> (action, node-or-None)."""
    body = decode_json(payload)
    action = body.get("action")
    if action not in CONTROL_ACTIONS:
        raise ProtocolError(
            f"unknown control action {action!r} (one of {CONTROL_ACTIONS})"
        )
    node = body.get("node")
    if node is not None and not (
        isinstance(node, str) and 1 <= len(node) <= _MAX_NAME
    ):
        raise ProtocolError(f"bad control target node {node!r}")
    return action, node


#: Upper bound a trace request's span limit may ask for; a recorder
#: ring is bounded anyway, this just keeps the knob honest on the wire.
_MAX_TRACE_LIMIT = 65536


def encode_trace_request(
    limit: int | None = None, trace_id: str | None = None
) -> bytes:
    """Build a ``TRACE`` payload: optional span limit and/or trace id.

    An empty body (both ``None``) asks for the peer's recent-span
    window; ``trace_id`` narrows the answer to one trace.
    """
    body: dict = {}
    if limit is not None:
        if not 1 <= limit <= _MAX_TRACE_LIMIT:
            raise ValueError(
                f"trace limit must be 1..{_MAX_TRACE_LIMIT}, got {limit}"
            )
        body["limit"] = int(limit)
    if trace_id is not None:
        if not trace_id or len(trace_id) > 64:
            raise ValueError(f"bad trace id {trace_id!r}")
        body["trace_id"] = trace_id
    return encode_json(body) if body else b""


def decode_trace_request(payload: bytes) -> tuple[int | None, str | None]:
    """Parse a ``TRACE`` payload -> (limit-or-None, trace-id-or-None)."""
    if not payload:
        return None, None
    body = decode_json(payload)
    limit = body.get("limit")
    if limit is not None and not (
        isinstance(limit, int)
        and not isinstance(limit, bool)
        and 1 <= limit <= _MAX_TRACE_LIMIT
    ):
        raise ProtocolError(f"implausible trace limit {limit!r}")
    trace_id = body.get("trace_id")
    if trace_id is not None and not (
        isinstance(trace_id, str) and 1 <= len(trace_id) <= 64
    ):
        raise ProtocolError(f"bad trace id {trace_id!r}")
    return limit, trace_id


# ----------------------------------------------------------------------
# Typed error frames
# ----------------------------------------------------------------------
def encode_error(code: int, message: str) -> bytes:
    """Build an ``ERROR`` payload: code byte + UTF-8 message."""
    if not 0 < code <= 0xFF:
        raise ValueError(f"error code {code} out of range")
    return bytes([code]) + message.encode()


def decode_error(payload: bytes) -> tuple[int, str]:
    """Parse an ``ERROR`` payload -> (code, message)."""
    if not payload:
        raise ProtocolError("empty error payload")
    return payload[0], payload[1:].decode(errors="replace")


def encode_overload_error(message: str, retry_after_ms: int) -> bytes:
    """Build an ``ERR_OVERLOADED`` payload with a retry-after hint.

    The hint rides inside the message as JSON rather than extending the
    error payload format, so pre-deadline clients still render it as an
    ordinary (if ugly) error string.
    """
    if retry_after_ms < 0:
        raise ValueError(f"retry_after_ms {retry_after_ms} is negative")
    body = json.dumps(
        {"message": message, "retry_after_ms": int(retry_after_ms)},
        sort_keys=True,
    )
    return encode_error(ERR_OVERLOADED, body)


def encode_quota_error(message: str, retry_after_ms: int | None) -> bytes:
    """Build an ``ERR_QUOTA`` payload with an optional window-reset hint.

    Same JSON envelope as :func:`encode_overload_error`; ``None`` means
    the budget can never admit the request (a zero-quota tenant), so
    clients must not wait-and-retry.
    """
    body: dict = {"message": message}
    if retry_after_ms is not None:
        if retry_after_ms < 0:
            raise ValueError(f"retry_after_ms {retry_after_ms} is negative")
        body["retry_after_ms"] = int(retry_after_ms)
    return encode_error(ERR_QUOTA, json.dumps(body, sort_keys=True))


def _parse_overload_message(message: str) -> tuple[str, int | None]:
    """Extract (text, retry-after-hint) from an overload error message."""
    try:
        body = json.loads(message)
    except (ValueError, TypeError):
        return message, None
    if not isinstance(body, dict):
        return message, None
    text = body.get("message")
    hint = body.get("retry_after_ms")
    if not isinstance(text, str):
        text = message
    if not isinstance(hint, int) or isinstance(hint, bool) or hint < 0:
        hint = None
    return text, hint


def error_code_for(exc: BaseException) -> int:
    """Map a server-side exception to the wire error code."""
    for code, exc_type in _ERROR_TABLE:
        if isinstance(exc, exc_type):
            return code
    return ERR_INTERNAL


def raise_for_error(frame: Frame) -> None:
    """Raise the library exception an ``ERROR`` frame encodes.

    Unknown codes degrade to :class:`~repro.errors.ServiceError` so a
    newer server never crashes an older client with a bare ``KeyError``.
    """
    code, message = decode_error(frame.payload)
    exc_type = _ERROR_EXCEPTIONS.get(code, ServiceError)
    if code in (ERR_OVERLOADED, ERR_QUOTA):
        text, retry_after_ms = _parse_overload_message(message)
        raise exc_type(
            f"server error {code}: {text}", retry_after_ms=retry_after_ms
        )
    raise exc_type(f"server error {code}: {message}")


async def answer_inline(handlers: dict, frame: Frame, refusal: str) -> tuple:
    """Answer one inline request from a ``{request type: handler}`` table.

    ``handler(frame)`` returns the reply payload, or an awaitable of
    it.  The result is ``(frame type, payload)`` for the reply: the
    answering type, or :data:`ERROR` with the typed code of whatever the
    handler raised — ``refusal.format(frame type)`` when the endpoint
    has no handler for the type.  It never raises: an inline answer
    must not kill the connection that asked.
    """
    handler = handlers.get(frame.frame_type)
    try:
        if handler is None:
            raise ProtocolError(refusal.format(frame.frame_type))
        payload = handler(frame)
        if inspect.isawaitable(payload):
            payload = await payload
    except ProtocolError as exc:
        return ERROR, encode_error(ERR_PROTOCOL, str(exc))
    except Exception as exc:
        return ERROR, encode_error(
            error_code_for(exc), f"{type(exc).__name__}: {exc}"
        )
    return response_type(frame.frame_type), payload
