"""Feature extraction: deterministic, cheap, and structurally meaningful."""

import dataclasses

import numpy as np
import pytest

from repro.errors import UnsupportedDtypeError
from repro.select.features import (
    FEATURE_ORDER,
    ChunkFeatures,
    extract_features,
)


def _smooth(n=4096):
    return np.sin(np.linspace(0.0, 25.0, n))


def _noise(n=4096, seed=7):
    return np.random.default_rng(seed).normal(0.0, 1.0, n)


def test_extraction_is_deterministic():
    chunk = _noise()
    assert extract_features(chunk) == extract_features(chunk)
    assert extract_features(chunk) == extract_features(chunk.copy())


def test_feature_order_matches_dataclass_fields():
    names = {f.name for f in dataclasses.fields(ChunkFeatures)}
    assert set(FEATURE_ORDER) <= names
    vector = extract_features(_smooth()).numeric_vector()
    assert len(vector) == len(FEATURE_ORDER)
    assert all(isinstance(value, float) for value in vector)


def test_empty_chunk_yields_neutral_features():
    features = extract_features(np.empty(0, dtype=np.float64))
    assert features.n_elements == 0
    assert features.sampled == 0
    assert features.decimal_digits == -1


def test_single_element_chunk():
    features = extract_features(np.array([3.25]))
    assert features.n_elements == 1
    assert features.xor_significant_fraction == 0.0


def test_constant_chunk_is_repeat_heavy():
    features = extract_features(np.full(2048, 1.5))
    assert features.frac_unique < 0.01
    assert features.delta_byte_entropy == 0.0


def test_smooth_chunk_has_high_autocorrelation():
    features = extract_features(_smooth())
    assert features.lag1_autocorr > 0.95


def test_noise_chunk_has_low_autocorrelation():
    features = extract_features(_noise())
    assert abs(features.lag1_autocorr) < 0.2


def test_decimal_quantization_detected():
    rng = np.random.default_rng(11)
    money = np.round(rng.uniform(800.0, 60000.0, 4096), 2)
    features = extract_features(money)
    assert features.decimal_digits == 2
    assert extract_features(np.round(money)).decimal_digits == 0


def test_unquantized_noise_has_no_decimal_digits():
    assert extract_features(_noise()).decimal_digits == -1


def test_sample_cap_is_respected():
    chunk = _noise(50_000)
    features = extract_features(chunk, sample_elements=1024)
    assert features.sampled == 1024
    assert features.n_elements == 50_000
    # The cap changes which prefix is measured, deterministically.
    assert features == extract_features(chunk, sample_elements=1024)


def test_float32_chunks_supported():
    features = extract_features(_smooth().astype(np.float32))
    assert features.lag1_autocorr > 0.95
    assert features.exponent_count >= 1


def test_nan_and_inf_do_not_poison_features():
    chunk = _noise()
    chunk[3] = np.nan
    chunk[17] = np.inf
    features = extract_features(chunk)
    assert np.isfinite(features.lag1_autocorr)
    assert features.decimal_digits == -1


def test_integer_dtype_rejected():
    with pytest.raises(UnsupportedDtypeError):
        extract_features(np.arange(16))


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_features_and_decision_are_scale_invariant(scale):
    # Squares of centred values overflow float64 above ~1e154 (the
    # product of the two sums well before that), and every float past
    # 2^53 is an integer: neither may change what the chunk looks like.
    import warnings

    from repro.select.policy import HeuristicPolicy

    walk = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 4096))
    policy = HeuristicPolicy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = extract_features(walk)
        scaled = extract_features(walk * scale)
        codecs = [policy.decide(walk).codec, policy.decide(walk * scale).codec]
    assert plain.lag1_autocorr > 0.99
    assert scaled.lag1_autocorr == pytest.approx(plain.lag1_autocorr, abs=1e-12)
    assert scaled.decimal_digits == plain.decimal_digits == -1
    assert codecs == ["fpzip", "fpzip"]
