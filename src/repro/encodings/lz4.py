"""LZ4 block format, implemented from scratch.

This is the codec behind bitshuffle::LZ4 (paper section 3.7) and the
nvCOMP::LZ4 stand-in (section 4.3).  The on-wire layout follows the
published LZ4 block specification:

* token byte: high nibble = literal length (15 escapes to extension
  bytes), low nibble = match length - 4 (15 escapes likewise),
* literal bytes,
* 2-byte little-endian match offset,
* length extension bytes are 255-saturated runs.

The final sequence carries literals only.  Decompression expands
overlapping matches with the byte-wise semantics of the reference
implementation (:func:`repro.encodings.lz77.copy_match`).
"""

from __future__ import annotations

from repro.encodings.lz77 import (
    Token,
    _find_tokens_scalar,
    copy_match,
    find_tokens,
)
from repro.errors import CorruptStreamError

__all__ = ["lz4_compress", "lz4_decompress"]

_MIN_MATCH = 4
_MAX_OFFSET = (1 << 16) - 1
_MAX_CHAIN = 16


def _write_length(out: bytearray, value: int) -> None:
    """Append LZ4 length-extension bytes for a nibble that hit 15."""
    value -= 15
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _emit_sequence(out: bytearray, token: Token) -> None:
    literals = token.literals
    lit_len = len(literals)
    match_len = token.match_length
    lit_nibble = min(lit_len, 15)
    if match_len:
        match_nibble = min(match_len - _MIN_MATCH, 15)
    else:
        match_nibble = 0
    out.append((lit_nibble << 4) | match_nibble)
    if lit_nibble == 15:
        _write_length(out, lit_len)
    out += literals
    if match_len:
        out += token.match_distance.to_bytes(2, "little")
        if match_nibble == 15:
            _write_length(out, match_len - _MIN_MATCH)


def lz4_compress(data: bytes, *, max_chain: int = _MAX_CHAIN) -> bytes:
    """Compress ``data`` into an LZ4 block."""
    return _compress_with(find_tokens, data, max_chain)


def _lz4_compress_scalar(data: bytes) -> bytes:
    """:func:`lz4_compress` over the seed matcher — the codecs' oracle."""
    return _compress_with(_find_tokens_scalar, data, _MAX_CHAIN)


def _compress_with(matcher, data: bytes, max_chain: int) -> bytes:
    tokens = matcher(
        bytes(data), window=_MAX_OFFSET, max_chain=max_chain, min_match=_MIN_MATCH
    )
    out = bytearray()
    for token in tokens:
        _emit_sequence(out, token)
    return bytes(out)


def _read_length(data: bytes, pos: int, nibble: int) -> tuple[int, int]:
    length = nibble
    if nibble == 15:
        while True:
            if pos >= len(data):
                raise CorruptStreamError("LZ4 length extension truncated")
            byte = data[pos]
            pos += 1
            length += byte
            if byte != 255:
                break
    return length, pos


def lz4_decompress(data: bytes, expected_length: int | None = None) -> bytes:
    """Decompress an LZ4 block produced by :func:`lz4_compress`."""
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        token = data[pos]
        pos += 1
        lit_len, pos = _read_length(data, pos, token >> 4)
        if pos + lit_len > n:
            raise CorruptStreamError("LZ4 literal run truncated")
        out += data[pos : pos + lit_len]
        pos += lit_len
        if pos >= n:
            break  # Final literals-only sequence.
        if pos + 2 > n:
            raise CorruptStreamError("LZ4 match offset truncated")
        offset = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
        if offset == 0 or offset > len(out):
            raise CorruptStreamError(f"LZ4 match offset {offset} out of range")
        match_len, pos = _read_length(data, pos, token & 0x0F)
        match_len += _MIN_MATCH
        if offset >= match_len:
            start = len(out) - offset
            out += out[start : start + match_len]
        else:
            copy_match(out, offset, match_len)
    if expected_length is not None and len(out) != expected_length:
        raise CorruptStreamError(
            f"LZ4 block decoded to {len(out)} bytes, expected {expected_length}"
        )
    return bytes(out)
