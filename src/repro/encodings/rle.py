"""Run-length coding for byte streams.

Run-length coding (paper section 2.2, encoding method 1) replaces a string
of adjacent equal values with the value itself and its count.  The format
used here is a sequence of ``(byte, uvarint run-length)`` pairs, which is
the classical scheme and is also reused to pack the Huffman code-length
tables emitted by :mod:`repro.encodings.huffman`.
"""

from __future__ import annotations

from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError

__all__ = ["rle_encode", "rle_decode"]


def rle_encode(data: bytes) -> bytes:
    """Encode ``data`` as ``(value, run-length)`` pairs."""
    out = bytearray()
    n = len(data)
    i = 0
    while i < n:
        value = data[i]
        j = i + 1
        while j < n and data[j] == value:
            j += 1
        out.append(value)
        out += encode_uvarint(j - i)
        i = j
    return bytes(out)


def rle_decode(data: bytes, expected_length: int | None = None) -> bytes:
    """Decode a run-length stream produced by :func:`rle_encode`.

    If ``expected_length`` is given the decoded size is validated against
    it, catching truncation and corruption early: a run longer than the
    bytes still expected is refused before it is expanded, so a forged
    run length cannot allocate more than ``expected_length`` bytes.
    """
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        value = data[pos]
        run, pos = decode_uvarint(data, pos + 1)
        if expected_length is not None and run > expected_length - len(out):
            raise CorruptStreamError(
                f"run of {run} bytes overruns the {expected_length} expected"
            )
        out += bytes([value]) * run
    if expected_length is not None and len(out) != expected_length:
        raise CorruptStreamError(
            f"run-length stream decoded to {len(out)} bytes, "
            f"expected {expected_length}"
        )
    return bytes(out)
