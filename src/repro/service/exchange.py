"""The sans-I/O core of one FCS request/response exchange.

Every client — the blocking-socket :class:`~repro.service.client.ServiceClient`,
the asyncio :class:`~repro.service.client.AsyncServiceClient`, and through
them the cluster client — answers "how does one request become one
reply" with this class.  An :class:`Exchange` builds the stamped request
bytes, consumes whatever reply bytes its driver read, and enforces the
contract: exactly one frame, of the answering type, echoing the request
id; an ``ERROR`` frame raises the typed exception it encodes.  Drivers
only move bytes and apply their own timeout policy::

    exchange = Exchange(PING, 7, b"hello")
    transport.send(exchange.request)
    while (reply := exchange.feed(transport.receive())) is None:
        pass

Afterwards :attr:`Exchange.in_sync` says whether the connection may
carry another request.  It is true only once one whole, well-formed
reply has left the stream at a frame boundary: a validated answer or a
typed *data* error (``CorruptStreamError``, ``ServerOverloadedError``,
...).  Any :class:`~repro.errors.ProtocolError`, an EOF, and an exchange
its driver abandoned (timeout, cancellation) leave it false — the
stream's position is unknown and the connection must be closed, never
pooled.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.service.protocol import (
    DEFAULT_MAX_PAYLOAD,
    Frame,
    FrameParser,
    encode_frame,
    raise_for_error,
    response_type,
)

__all__ = ["Exchange"]


class Exchange:
    """One request and the validation of its one reply."""

    def __init__(
        self,
        request_type: int,
        request_id: int,
        payload: bytes,
        *,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        deadline_ms: int | None = None,
        tenant_token: str | None = None,
        trace_context: bytes | None = None,
    ) -> None:
        self.request_type = request_type
        self.request_id = request_id
        #: The bytes to put on the wire, header flags stamped.
        self.request = encode_frame(
            request_type,
            request_id,
            payload,
            deadline_ms,
            tenant_token=tenant_token,
            trace_context=trace_context,
        )
        self.in_sync = False
        self._parser = FrameParser(max_payload)

    def feed(self, data: bytes) -> Frame | None:
        """Consume reply bytes; the validated reply once it is whole.

        ``data`` is one transport read: empty means the peer closed
        (``ConnectionError``).  Returns ``None`` while the reply is
        still incomplete.
        """
        if not data:
            raise ConnectionError("server closed the connection mid-reply")
        frames = self._parser.feed(data)
        if not frames:
            return None
        stray = self._parser.buffered_bytes
        if len(frames) > 1 or stray:
            raise ProtocolError(
                f"server answered one request with {len(frames)} frames"
                + (f" and {stray} stray bytes" if stray else "")
            )
        try:
            reply = self._validated(frames[0])
        except Exception as exc:
            # A typed data error arrived as one whole frame: the stream
            # is fine.  A ProtocolError puts its position in doubt.
            self.in_sync = not isinstance(exc, ProtocolError)
            raise
        self.in_sync = True
        return reply

    def _validated(self, frame: Frame) -> Frame:
        if frame.is_error:
            raise_for_error(frame)
        if frame.frame_type != response_type(self.request_type):
            raise ProtocolError(
                f"response type {frame.frame_type:#04x} does not answer "
                f"request type {self.request_type:#04x}"
            )
        if frame.request_id != self.request_id:
            raise ProtocolError(
                f"response id {frame.request_id} does not match "
                f"request id {self.request_id}"
            )
        return frame
