"""Tests for the carry-less range coder and adaptive symbol model."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encodings.range_coder import (
    AdaptiveSymbolModel,
    RangeDecoder,
    RangeEncoder,
    decode_symbols,
    encode_symbols,
)
from repro.errors import CorruptStreamError


def _roundtrip(symbols, alphabet):
    enc = RangeEncoder()
    model = AdaptiveSymbolModel(alphabet)
    for s in symbols:
        model.encode_symbol(enc, s)
    blob = enc.finish()
    dec = RangeDecoder(blob)
    model2 = AdaptiveSymbolModel(alphabet)
    return [model2.decode_symbol(dec) for _ in symbols], blob


def test_empty():
    out, blob = _roundtrip([], 4)
    assert out == []
    assert len(blob) == 4  # flush bytes


def test_single_symbol():
    out, _ = _roundtrip([2], 5)
    assert out == [2]


def test_skewed_compresses_toward_entropy():
    rnd = random.Random(3)
    symbols = [rnd.choice([0, 0, 0, 0, 0, 0, 1, 2]) for _ in range(8000)]
    out, blob = _roundtrip(symbols, 3)
    assert out == symbols
    assert len(blob) < 8000 * 0.25  # ~1.2 bits/symbol at this skew


def test_model_total_stays_bounded():
    model = AdaptiveSymbolModel(4, increment=4096)
    for _ in range(1000):
        model.update(1)
    assert model.total <= (1 << 16)


def test_invalid_frequencies_rejected():
    enc = RangeEncoder()
    with pytest.raises(ValueError):
        enc.encode(0, 0, 10)
    with pytest.raises(ValueError):
        enc.encode(5, 10, 10)


def test_model_requires_symbols():
    with pytest.raises(ValueError):
        AdaptiveSymbolModel(0)


def test_large_alphabet():
    rnd = random.Random(9)
    symbols = [rnd.randrange(65) for _ in range(3000)]
    out, _ = _roundtrip(symbols, 65)
    assert out == symbols


@settings(max_examples=40)
@given(st.lists(st.integers(0, 15), max_size=400))
def test_roundtrip_property(symbols):
    out, _ = _roundtrip(symbols, 16)
    assert out == symbols


def _oracle_encode(symbols, alphabet):
    """The model + coder pair, and how many times the model halved."""
    enc = RangeEncoder()
    model = AdaptiveSymbolModel(alphabet)
    halvings = 0
    for s in symbols:
        before = model.total
        model.encode_symbol(enc, s)
        halvings += model.total < before
    return enc.finish(), halvings


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 2, 33, 65, 256]),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 8.0),
    st.integers(4_200, 6_000),
)
def test_planned_coder_equals_the_model_and_coder_pair(alphabet, seed, skew, n):
    # Skewed streams mimic fpzip's bit lengths; every stream is long
    # enough to cross at least three halvings of the model table.
    rng = np.random.default_rng(seed)
    symbols = np.minimum(
        rng.geometric(min(1.0, skew / alphabet), n) - 1, alphabet - 1
    )
    noise = rng.random(n) < 0.1
    symbols[noise] = rng.integers(0, alphabet, int(noise.sum()))
    blob, halvings = _oracle_encode(symbols.tolist(), alphabet)
    assert halvings >= 3
    assert encode_symbols(symbols, alphabet) == blob
    assert decode_symbols(blob, n, alphabet) == symbols.tolist()


def test_planned_coder_empty_stream():
    assert encode_symbols([], 4) == RangeEncoder().finish()
    assert decode_symbols(encode_symbols([], 4), 0, 4) == []


def test_planned_coder_rejects_a_symbol_outside_the_model():
    with pytest.raises(ValueError):
        encode_symbols([0, 4], 4)
    with pytest.raises(ValueError):
        encode_symbols([1], 0)


class TestReadPastTheEnd:
    """A valid stream is read to its last byte and never past it."""

    def _stream(self):
        rnd = random.Random(4)
        symbols = [rnd.randrange(33) for _ in range(2000)]
        return symbols, encode_symbols(symbols, 33)

    def test_a_valid_stream_is_read_exactly(self):
        symbols, blob = self._stream()
        dec = RangeDecoder(blob)
        model = AdaptiveSymbolModel(33)
        assert [model.decode_symbol(dec) for _ in symbols] == symbols
        assert dec._pos == len(blob)

    @pytest.mark.parametrize("cut", [0, 1, 3])
    def test_an_empty_or_short_stream_is_refused(self, cut):
        _, blob = self._stream()
        with pytest.raises(CorruptStreamError, match="past the end"):
            RangeDecoder(blob[:cut])
        with pytest.raises(CorruptStreamError, match="past the end"):
            decode_symbols(blob[:cut], 0, 33)

    def test_a_truncated_stream_is_refused_by_both_decoders(self):
        symbols, blob = self._stream()
        short = blob[:-1]
        with pytest.raises(CorruptStreamError, match="past the end"):
            decode_symbols(short, len(symbols), 33)
        dec = RangeDecoder(short)
        model = AdaptiveSymbolModel(33)
        with pytest.raises(CorruptStreamError, match="past the end"):
            for _ in symbols:
                model.decode_symbol(dec)

    @pytest.mark.parametrize("blob, alphabet", [("dd006f5c", 5), ("ec0052dfd0", 33)])
    def test_a_target_outside_the_total_at_the_last_byte(self, blob, alphabet):
        # Forged streams read to their last byte whose next target lies
        # outside the model total: both decoders name the target.
        data = bytes.fromhex(blob)
        with pytest.raises(CorruptStreamError, match="outside model total"):
            decode_symbols(data, 60, alphabet)
        dec = RangeDecoder(data)
        model = AdaptiveSymbolModel(alphabet)
        with pytest.raises(CorruptStreamError, match="outside model total"):
            for _ in range(60):
                model.decode_symbol(dec)
        assert dec._pos == len(data)
