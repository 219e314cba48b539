"""Tests for canonical Huffman coding."""

import os
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.encodings import huffman
from repro.encodings.huffman import (
    _encode_scalar,
    build_code_lengths,
    canonical_codes,
    huffman_decode,
    huffman_encode,
)
from repro.encodings.varint import decode_uvarint
from repro.errors import CorruptStreamError


def test_empty():
    assert huffman_decode(huffman_encode(b"")) == b""


def test_single_symbol_alphabet():
    data = b"\x42" * 500
    blob = huffman_encode(data)
    assert huffman_decode(blob) == data
    assert len(blob) < 200


def test_skewed_distribution_compresses():
    data = b"a" * 900 + b"b" * 90 + b"c" * 10
    assert len(huffman_encode(data)) < len(data) // 3


def test_lengths_satisfy_kraft():
    freqs = Counter(b"abracadabra" * 50)
    lengths = build_code_lengths(freqs)
    kraft = sum(2.0 ** -length for length in lengths.values())
    assert kraft <= 1.0 + 1e-12


def test_canonical_codes_are_prefix_free():
    freqs = Counter(os.urandom(4096))
    codes = canonical_codes(build_code_lengths(freqs))
    entries = sorted(
        (format(code, f"0{n}b") for code, n in codes.values())
    )
    for a, b in zip(entries, entries[1:]):
        assert not b.startswith(a)


def test_optimality_against_entropy():
    import math

    data = bytes([0] * 800 + [1] * 150 + [2] * 50)
    freqs = Counter(data)
    lengths = build_code_lengths(freqs)
    avg = sum(freqs[s] * lengths[s] for s in freqs) / len(data)
    entropy = -sum(
        (freqs[s] / len(data)) * math.log2(freqs[s] / len(data)) for s in freqs
    )
    assert entropy <= avg < entropy + 1.0


def test_corrupt_table_detected():
    blob = bytearray(huffman_encode(b"hello world"))
    with pytest.raises(CorruptStreamError):
        huffman_decode(bytes(blob[:2]))


def test_dense_alphabet_table_is_compact():
    # Random payloads use all 256 symbols; the nibble table keeps the
    # header near 128 bytes instead of ~500 (important for 4 KB blocks).
    data = os.urandom(4096)
    blob = huffman_encode(data)
    assert len(blob) < len(data) + 160


@given(st.binary(max_size=3000))
def test_roundtrip_property(data):
    assert huffman_decode(huffman_encode(data)) == data


def _fibonacci_skewed() -> bytes:
    # Fibonacci frequencies give the deepest tree a byte count allows:
    # 24 symbols reach code length 23, past the 15-bit nibble table.
    counts = [1, 1]
    while len(counts) < 24:
        counts.append(counts[-1] + counts[-2])
    return b"".join(bytes([sym]) * count for sym, count in enumerate(counts))


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\x42" * 500,
        b"ab" * 300 + b"a",
        bytes(range(256)) * 7 + os.urandom(3000),
        _fibonacci_skewed(),
    ],
    ids=["empty", "single_symbol", "two_symbols", "all_256", "fibonacci"],
)
def test_table_driven_encoder_equals_the_bitwriter_oracle(data):
    blob = huffman_encode(data)
    assert blob == _encode_scalar(data)
    assert huffman_decode(blob) == data


def test_fibonacci_input_uses_the_rle_table_form():
    data = _fibonacci_skewed()
    assert max(build_code_lengths(Counter(data)).values()) > 15
    _, table_offset = decode_uvarint(huffman_encode(data), 0)
    assert huffman_encode(data)[table_offset] == 1


def test_codes_longer_than_a_word_fall_back_to_the_bitwriter(monkeypatch):
    # No byte string short enough to build has a 65-bit code, so hand
    # the encoder a (valid, Kraft-complete) length table that does.
    deep = {sym: min(sym + 1, 69) for sym in range(70)}
    monkeypatch.setattr(huffman, "build_code_lengths", lambda freqs: dict(deep))
    data = bytes(range(70)) * 3
    blob = huffman_encode(data)
    assert blob == _encode_scalar(data)
    assert huffman_decode(blob) == data
