"""Tests for the adaptive binary arithmetic coder."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encodings.arithmetic import (
    PROBABILITY_ONE,
    AdaptiveBitModel,
    BinaryArithmeticDecoder,
    BinaryArithmeticEncoder,
    adaptive_states,
    encode_bits,
)


def _roundtrip(bits, probabilities=None):
    enc = BinaryArithmeticEncoder()
    if probabilities is None:
        probabilities = [PROBABILITY_ONE // 2] * len(bits)
    for bit, p in zip(bits, probabilities):
        enc.encode(bit, p)
    blob = enc.finish()
    dec = BinaryArithmeticDecoder(blob)
    return [dec.decode(p) for p in probabilities], blob


def test_empty_stream():
    out, _ = _roundtrip([])
    assert out == []


def test_uniform_probability_roundtrip():
    bits = [random.Random(1).random() < 0.5 for _ in range(2000)]
    out, blob = _roundtrip([int(b) for b in bits])
    assert out == [int(b) for b in bits]
    # Near-uniform bits cost about one bit each.
    assert len(blob) <= len(bits) // 8 + 8


def test_skewed_bits_near_entropy():
    rnd = random.Random(7)
    bits = [int(rnd.random() < 0.95) for _ in range(8000)]
    model = AdaptiveBitModel()
    enc = BinaryArithmeticEncoder()
    for b in bits:
        enc.encode(b, model.prob_one)
        model.update(b)
    blob = enc.finish()
    # H(0.95) ~ 0.286 bits; adaptive coding should be well below 0.45.
    assert len(blob) * 8 / len(bits) < 0.45
    dec = BinaryArithmeticDecoder(blob)
    model2 = AdaptiveBitModel()
    out = []
    for _ in bits:
        b = dec.decode(model2.prob_one)
        model2.update(b)
        out.append(b)
    assert out == bits


def test_extreme_probabilities_clamped():
    out, _ = _roundtrip([0, 1, 0, 1], [0, PROBABILITY_ONE, 0, PROBABILITY_ONE])
    assert out == [0, 1, 0, 1]


def test_model_probability_bounds():
    model = AdaptiveBitModel()
    for _ in range(5000):
        model.update(1)
    assert 0 < model.prob_one < PROBABILITY_ONE
    assert model.prob_one > PROBABILITY_ONE * 0.9


def test_encoder_finish_idempotent():
    enc = BinaryArithmeticEncoder()
    enc.encode(1, 30000)
    assert enc.finish() == enc.finish()


@settings(max_examples=50)
@given(st.lists(st.integers(0, 1), max_size=500))
def test_roundtrip_property(bits):
    out, _ = _roundtrip(bits)
    assert out == bits


def _scalar_states(keys, bits):
    models: dict[int, AdaptiveBitModel] = {}
    ones, total = [], []
    for key, bit in zip(keys, bits):
        model = models.setdefault(key, AdaptiveBitModel())
        ones.append(model._ones)
        total.append(model._total)
        model.update(bit)
    return ones, total


@pytest.mark.parametrize(
    "count, n_keys, p_one",
    [
        (0, 1, 0.5),
        (1, 1, 0.5),
        (1022, 1, 0.5),  # one short of the first halving
        (1023, 1, 1.0),  # the bit after it, ones == total
        (1535, 1, 1.0),  # the bit after the second halving
        (5000, 1, 0.0),
        (20000, 3, 0.7),  # several models, several halvings each
        (30000, 500, 0.3),  # many models, most never halved
    ],
)
def test_adaptive_states_equal_per_key_models(count, n_keys, p_one):
    rng = np.random.default_rng(count + n_keys)
    keys = rng.integers(0, n_keys, count) * 70_001  # wider than 16 bits
    bits = (rng.random(count) < p_one).astype(np.uint8)
    ones, total = adaptive_states(keys, bits)
    expected_ones, expected_total = _scalar_states(keys.tolist(), bits.tolist())
    assert ones.tolist() == expected_ones
    assert total.tolist() == expected_total


def test_adaptive_states_accept_keys_too_wide_to_pack():
    keys = np.array([-3, 1 << 62, -3, 1 << 62, -3], dtype=np.int64)
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    ones, total = adaptive_states(keys, bits)
    assert (ones.tolist(), total.tolist()) == _scalar_states(
        keys.tolist(), bits.tolist()
    )


@pytest.mark.parametrize("mode", ["uniform", "any", "extreme", "midpoint"])
def test_encode_bits_equals_the_encoder_class(mode):
    rnd = random.Random(mode)
    choices = {
        "uniform": [PROBABILITY_ONE // 2],
        "extreme": [0, 1, 2, PROBABILITY_ONE - 1, PROBABILITY_ONE],
        # Splits hugging the midpoint pile up pending (underflow) bits.
        "midpoint": [32767, 32768, 32769, 1, 65535],
    }
    for count in (0, 1, 7, 3000):
        if mode == "any":
            probs = [rnd.randint(0, PROBABILITY_ONE) for _ in range(count)]
        else:
            probs = [rnd.choice(choices[mode]) for _ in range(count)]
        bits = [int(rnd.random() < 0.5) for _ in range(count)]
        encoder = BinaryArithmeticEncoder()
        for bit, prob in zip(bits, probs):
            encoder.encode(bit, prob)
        assert encode_bits(bits, probs) == encoder.finish()
