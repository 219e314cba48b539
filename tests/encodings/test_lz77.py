"""Tests for the hash-chain LZ77 matcher."""

import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.encodings.lz77 import (
    Token,
    _find_tokens_scalar,
    copy_match,
    find_tokens,
    reassemble,
)


def test_empty():
    assert find_tokens(b"") == []


def test_short_input_is_literal():
    tokens = find_tokens(b"ab")
    assert tokens == [Token(b"ab", 0, 0)]


def test_repetition_found():
    tokens = find_tokens(b"abcdabcdabcdabcd")
    assert any(t.match_length >= 4 for t in tokens)
    assert reassemble(tokens) == b"abcdabcdabcdabcd"


def test_overlapping_match():
    data = b"a" * 100
    tokens = find_tokens(data)
    assert reassemble(tokens) == data
    # A single token should cover nearly the whole run.
    assert len(tokens) <= 3


def test_window_limits_distance():
    data = b"0123456789abcdef" + b"x" * 200 + b"0123456789abcdef"
    tokens = find_tokens(data, window=64)
    for t in tokens:
        if t.match_length:
            assert t.match_distance <= 64


def test_max_match_cap():
    data = b"z" * 500
    tokens = find_tokens(data, max_match=32)
    for t in tokens:
        assert t.match_length <= 32
    assert reassemble(tokens) == data


def test_lazy_not_worse_than_greedy():
    data = (b"abcde" * 40 + os.urandom(64)) * 8
    greedy = find_tokens(data)
    lazy = find_tokens(data, lazy=True)
    assert reassemble(greedy) == data
    assert reassemble(lazy) == data

    def cost(tokens):
        return sum(len(t.literals) + 3 for t in tokens)

    assert cost(lazy) <= cost(greedy) + 8


def test_random_data_mostly_literal():
    data = os.urandom(5000)
    tokens = find_tokens(data)
    assert reassemble(tokens) == data


@settings(max_examples=60)
@given(st.binary(max_size=2000), st.booleans())
def test_roundtrip_property(data, lazy):
    assert reassemble(find_tokens(data, lazy=lazy)) == data


def _oracle_inputs() -> dict[str, bytes]:
    noise = random.Random(77).randbytes(6000)
    period = bytes(range(256)) * 20
    return {
        "empty": b"",
        "one_byte": b"a",
        "two_bytes": b"ab",
        "three_bytes": b"abc",
        "constant": b"\x07" * 5000,
        "period_256": period,
        "noise": noise,
        # A literal run past 64 bytes (skip acceleration) and then a
        # match past 32 bytes (sparse re-indexing of the matched span).
        "skip_then_long_match": noise[:200] + period[:300] + noise[200:300]
        + period[:300],
    }


@pytest.mark.parametrize("name", list(_oracle_inputs()))
def test_tokens_equal_the_scalar_oracle(name):
    data = _oracle_inputs()[name]
    for window, max_chain, max_match, lazy in itertools.product(
        (300, 1 << 16, 1 << 17), (2, 16, 32), (None, 20), (False, True)
    ):
        options = dict(
            window=window, max_chain=max_chain, max_match=max_match, lazy=lazy
        )
        tokens = find_tokens(data, **options)
        assert tokens == _find_tokens_scalar(data, **options), options
        assert reassemble(tokens) == data


def test_short_min_match_hashes_the_zero_extended_tail():
    # min_match=3 probes position n-3, whose 4-byte window runs off the
    # end; the oracle hashes the short slice zero-extended.
    data = b"xyzxyzxyz" * 30 + b"xy"
    assert find_tokens(data, min_match=3) == _find_tokens_scalar(
        data, min_match=3
    )


@settings(max_examples=60)
@given(st.binary(max_size=1500), st.booleans(), st.sampled_from([1, 2, 16]))
def test_oracle_equivalence_property(data, lazy, max_chain):
    options = dict(lazy=lazy, max_chain=max_chain)
    assert find_tokens(data, **options) == _find_tokens_scalar(data, **options)


def test_lazy_double_insertion_fills_two_chain_slots():
    # The first match is kept at position 1 after the lazy step, so
    # position 1 is indexed twice and the oracle's chain for b"aaaa"
    # reads [1, 1]: position 0 is evicted.  Position 8 then matches 4
    # bytes at distance 7 and defers to position 9 (5 bytes at distance
    # 1).  Counting position 1 as one slot would keep 0 in reach and
    # emit 5 bytes at distance 8 from position 8 instead.
    data = b"aaaaababaaaaaabaaababa"
    options = dict(lazy=True, max_chain=2)
    expected = [
        Token(b"a", 4, 1),
        Token(b"baba", 5, 1),
        Token(b"b", 7, 13),
        Token(b"", 0, 0),
    ]
    assert _find_tokens_scalar(data, **options) == expected
    assert find_tokens(data, **options) == expected


class TestCopyMatch:
    def test_overlapping_copy_repeats_the_period(self):
        out = bytearray(b"xxabc")
        copy_match(out, 3, 11)
        assert out == b"xxabc" + b"abcabcabcab"

    def test_equals_the_byte_loop(self):
        rnd = random.Random(5)
        for _ in range(200):
            prefix = rnd.randbytes(rnd.randint(1, 40))
            distance = rnd.randint(1, len(prefix))
            length = rnd.randint(0, 100)
            expected = bytearray(prefix)
            for index in range(length):
                expected.append(expected[len(prefix) - distance + index])
            out = bytearray(prefix)
            copy_match(out, distance, length)
            assert out == expected

    @pytest.mark.parametrize("distance", [0, -1, 6])
    def test_distance_outside_the_output_is_rejected(self, distance):
        with pytest.raises(ValueError):
            copy_match(bytearray(b"abcde"), distance, 4)
