"""Canonical Huffman coding over the byte alphabet.

Huffman coding (paper section 2.2, encoding method 2) builds optimal
prefix codes from the input distribution.  This implementation emits
*canonical* codes so the header only needs the 256 code lengths, which are
further run-length packed (most inputs use a small subset of byte values).

The coder is the entropy stage of :mod:`repro.encodings.zstd_like` and is
exercised directly by the bitshuffle::zstd compressor.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

from repro.encodings.bitio import BitReader, BitWriter
from repro.encodings.rle import rle_decode, rle_encode
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.encodings.vectorbit import pack_fields
from repro.errors import CorruptStreamError

__all__ = [
    "build_code_lengths",
    "canonical_codes",
    "huffman_encode",
    "huffman_decode",
]

_ALPHABET = 256


def build_code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Compute Huffman code lengths for a symbol -> frequency map.

    Returns a symbol -> code-length map.  A single-symbol alphabet gets
    code length 1 so the payload is still self-delimiting.
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    # Heap entries are (weight, tiebreak, node); leaves are symbols and
    # internal nodes are [left, right] lists.
    heap: list[tuple[int, int, object]] = []
    for order, sym in enumerate(sorted(symbols)):
        heap.append((frequencies[sym], order, sym))
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        counter += 1
        heapq.heappush(heap, (w1 + w2, counter, [n1, n2]))
    lengths: dict[int, int] = {}

    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, list):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = depth
    return lengths


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical codes; returns symbol -> ``(code, length)``.

    Canonical assignment orders symbols by (length, symbol) and hands out
    consecutive code values, which lets the decoder rebuild the exact
    table from lengths alone.
    """
    items = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for sym, length in items:
        code <<= length - prev_len
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


def _serialize_lengths(lengths: dict[int, int]) -> bytes:
    """Serialize the 256 code lengths, choosing the cheaper of two forms.

    Dense alphabets (random byte payloads) would need ~2 RLE bytes per
    distinct symbol; packing lengths as nibbles caps the table at a flat
    128 bytes whenever every code fits 15 bits, which canonical Huffman
    over byte payloads of practical size always satisfies in the sparse
    case too.  A leading flag byte records the chosen form.
    """
    table = bytearray(_ALPHABET)
    for sym, length in lengths.items():
        if not 0 <= sym < _ALPHABET:
            raise ValueError(f"symbol {sym} outside byte alphabet")
        if length > 255:
            raise ValueError(f"code length {length} does not fit in a byte")
        table[sym] = length
    rle_form = rle_encode(bytes(table))
    if max(table) <= 15:
        nibbles = bytes(
            (table[i] << 4) | table[i + 1] for i in range(0, _ALPHABET, 2)
        )
        if len(nibbles) < len(rle_form):
            return b"\x00" + nibbles
    return b"\x01" + encode_uvarint(len(rle_form)) + rle_form


def _deserialize_lengths(data: bytes, offset: int) -> tuple[dict[int, int], int]:
    if offset >= len(data):
        raise CorruptStreamError("huffman length table missing")
    form = data[offset]
    pos = offset + 1
    if form == 0:
        if pos + _ALPHABET // 2 > len(data):
            raise CorruptStreamError("huffman nibble table truncated")
        table = bytearray(_ALPHABET)
        for index in range(_ALPHABET // 2):
            packed = data[pos + index]
            table[2 * index] = packed >> 4
            table[2 * index + 1] = packed & 0x0F
        pos += _ALPHABET // 2
    elif form == 1:
        size, pos = decode_uvarint(data, pos)
        if pos + size > len(data):
            raise CorruptStreamError("huffman length table truncated")
        table = rle_decode(data[pos : pos + size], expected_length=_ALPHABET)
        pos += size
    else:
        raise CorruptStreamError(f"unknown huffman table form {form}")
    lengths = {sym: table[sym] for sym in range(_ALPHABET) if table[sym]}
    return lengths, pos


def _encode_scalar(data: bytes) -> bytes:
    """The seed encoder: one ``BitWriter.write_bits`` call per byte.

    Kept as the oracle for :func:`huffman_encode`, and as its fallback
    for codes too long for a 64-bit field.
    """
    header = encode_uvarint(len(data))
    if not data:
        return header
    lengths = build_code_lengths(Counter(data))
    codes = canonical_codes(lengths)
    writer = BitWriter()
    for byte in data:
        code, nbits = codes[byte]
        writer.write_bits(code, nbits)
    return header + _serialize_lengths(lengths) + writer.getvalue()


def huffman_encode(data: bytes) -> bytes:
    """Compress ``data`` into a self-contained canonical-Huffman stream.

    Table-driven: byte frequencies come from ``np.bincount``, codes and
    lengths become 256-entry tables, and the payload is one
    :func:`~repro.encodings.vectorbit.pack_fields` call over the tables
    gathered by the data.
    """
    if not data:
        return encode_uvarint(0)
    symbols = np.frombuffer(data, dtype=np.uint8)
    counts = np.bincount(symbols, minlength=_ALPHABET)
    lengths = build_code_lengths(dict(enumerate(counts.tolist())))
    if max(lengths.values()) > 64:
        return _encode_scalar(data)
    code_table = np.zeros(_ALPHABET, dtype=np.uint64)
    length_table = np.zeros(_ALPHABET, dtype=np.uint8)
    for sym, (code, nbits) in canonical_codes(lengths).items():
        code_table[sym] = code
        length_table[sym] = nbits
    payload = pack_fields(
        code_table[symbols], length_table[symbols], assume_masked=True
    )
    return encode_uvarint(len(data)) + _serialize_lengths(lengths) + payload


def huffman_decode(blob: bytes) -> bytes:
    """Invert :func:`huffman_encode`."""
    count, pos = decode_uvarint(blob, 0)
    if count == 0:
        return b""
    lengths, pos = _deserialize_lengths(blob, pos)
    if not lengths:
        raise CorruptStreamError("huffman stream has payload but empty table")
    # Canonical decoding tables: for each length, the first code value and
    # the symbols occupying that length in canonical order.
    by_length: dict[int, list[int]] = {}
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        by_length.setdefault(lengths[sym], []).append(sym)
    first_code: dict[int, int] = {}
    code = 0
    prev_len = 0
    for length in sorted(by_length):
        code <<= length - prev_len
        first_code[length] = code
        code += len(by_length[length])
        prev_len = length
    max_len = max(by_length)

    reader = BitReader(blob[pos:])
    out = bytearray()
    for _ in range(count):
        acc = 0
        length = 0
        while True:
            acc = (acc << 1) | reader.read_bits(1)
            length += 1
            if length > max_len:
                raise CorruptStreamError("invalid huffman code in stream")
            syms = by_length.get(length)
            if syms is not None:
                index = acc - first_code[length]
                if 0 <= index < len(syms):
                    out.append(syms[index])
                    break
    return bytes(out)
