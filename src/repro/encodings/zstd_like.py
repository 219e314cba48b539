"""zstd-style codec: LZ77 factorization plus a Huffman entropy stage.

bitshuffle::zstd (paper section 3.7) pairs the bit-transpose transform
with Facebook's Zstandard.  Zstandard itself is an LZ77 family codec whose
sequences (literals, lengths, offsets) pass through an entropy coder; this
module reproduces that architecture with the in-repo LZ77 matcher and the
canonical Huffman coder.  Relative to the plain LZ4 block format it adds
an entropy stage and a deeper match search, which is exactly the
ratio/throughput positioning the paper measures for zstd versus LZ4.

Layout: ``uvarint(original size) + uvarint(len(control)) +
huffman(control stream) + huffman(literal stream)`` where the control
stream is a varint-packed sequence of (literal length, match length,
distance) triples.
"""

from __future__ import annotations

from repro.encodings.huffman import _encode_scalar as _huffman_encode_scalar
from repro.encodings.huffman import huffman_decode, huffman_encode
from repro.encodings.lz77 import _find_tokens_scalar, copy_match, find_tokens
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError

__all__ = ["zstd_compress", "zstd_decompress"]

_WINDOW = 1 << 17
_MAX_CHAIN = 32


def _entropy_segment(data: bytes, encode) -> bytes:
    """Huffman-code a stream, falling back to raw storage when the coded
    form (table included) is not smaller — zstd's own raw-literals mode."""
    coded = encode(data)
    if len(coded) < len(data) + 1:
        return b"\x00" + coded
    return b"\x01" + data


def _decode_segment(segment: bytes) -> bytes:
    if not segment:
        raise CorruptStreamError("zstd-like segment missing")
    if segment[0] == 0:
        return huffman_decode(segment[1:])
    if segment[0] == 1:
        return segment[1:]
    raise CorruptStreamError(f"unknown zstd-like segment form {segment[0]}")


def zstd_compress(data: bytes, *, max_chain: int = _MAX_CHAIN) -> bytes:
    """Compress ``data`` with LZ77 + Huffman-coded sequence streams."""
    return _compress_with(find_tokens, huffman_encode, data, max_chain)


def _zstd_compress_scalar(data: bytes) -> bytes:
    """:func:`zstd_compress` over the seed matcher and the ``BitWriter``
    Huffman encoder — the codecs' oracle."""
    return _compress_with(
        _find_tokens_scalar, _huffman_encode_scalar, data, _MAX_CHAIN
    )


def _compress_with(matcher, entropy, data: bytes, max_chain: int) -> bytes:
    data = bytes(data)
    tokens = matcher(data, window=_WINDOW, max_chain=max_chain, lazy=True)
    control = bytearray()
    literals = bytearray()
    for token in tokens:
        control += encode_uvarint(len(token.literals))
        control += encode_uvarint(token.match_length)
        if token.match_length:
            control += encode_uvarint(token.match_distance)
        literals += token.literals
    control_blob = _entropy_segment(bytes(control), entropy)
    literal_blob = _entropy_segment(bytes(literals), entropy)
    return (
        encode_uvarint(len(data))
        + encode_uvarint(len(control_blob))
        + control_blob
        + literal_blob
    )


def zstd_decompress(blob: bytes, expected_length: int | None = None) -> bytes:
    """Invert :func:`zstd_compress`.

    A match longer than the bytes still to come is refused before it is
    copied: match lengths are varints, so one forged token could
    otherwise ask for gigabytes.  With ``expected_length`` the stream's
    own declared size must agree with it first.
    """
    original_size, pos = decode_uvarint(blob, 0)
    if expected_length is not None and original_size != expected_length:
        raise CorruptStreamError(
            f"zstd-like stream declares {original_size} bytes, "
            f"expected {expected_length}"
        )
    control_size, pos = decode_uvarint(blob, pos)
    if pos + control_size > len(blob):
        raise CorruptStreamError("zstd-like control stream truncated")
    control = _decode_segment(blob[pos : pos + control_size])
    literals = _decode_segment(blob[pos + control_size :])

    out = bytearray()
    lit_pos = 0
    ctrl_pos = 0
    while ctrl_pos < len(control):
        lit_len, ctrl_pos = decode_uvarint(control, ctrl_pos)
        match_len, ctrl_pos = decode_uvarint(control, ctrl_pos)
        if lit_pos + lit_len > len(literals):
            raise CorruptStreamError("zstd-like literal stream truncated")
        out += literals[lit_pos : lit_pos + lit_len]
        lit_pos += lit_len
        if match_len:
            if match_len > original_size - len(out):
                raise CorruptStreamError("zstd-like match runs past the stream")
            distance, ctrl_pos = decode_uvarint(control, ctrl_pos)
            start = len(out) - distance
            if distance == 0 or start < 0:
                raise CorruptStreamError(
                    f"zstd-like match distance {distance} out of range"
                )
            if distance >= match_len:
                out += out[start : start + match_len]
            else:
                copy_match(out, distance, match_len)
    if len(out) != original_size:
        raise CorruptStreamError(
            f"zstd-like stream decoded to {len(out)} bytes, "
            f"expected {original_size}"
        )
    return bytes(out)
