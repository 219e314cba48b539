"""Feature extraction: deterministic, cheap, and structurally meaningful."""

import hashlib
import random
import warnings

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


def test_feature_order_matches_the_declared_statistics():
    # FEATURE_ORDER + n_elements + sampled are exactly the public fields:
    # every staged statistic is named in the order, and nothing else is.
    from repro.select.features import _staged

    staged = {
        name
        for name, member in vars(ChunkFeatures).items()
        if isinstance(member, _staged) and not name.startswith("_")
    }
    assert staged == set(FEATURE_ORDER)
    features = extract_features(_smooth())
    assert tuple(features.as_dict()) == ("n_elements", "sampled") + FEATURE_ORDER
    assert set(vars(features)) == set(features.as_dict())
    vector = [features.as_dict()[name] for name in FEATURE_ORDER]
    assert all(isinstance(value, (int, float)) for value in vector)


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


@pytest.mark.parametrize(
    "scale", [1e100, 1e200, 1e-82, 1e-84, 1e-150, 1e-200, 1e-300]
)
def test_features_and_decision_are_scale_invariant(scale):
    # Squares of centred values overflow float64 above ~1e154 (the
    # product of the two sums well before that); downwards the product
    # goes subnormal and loses digits from ~1e-80 and is zero by ~1e-85.
    # Every float past 2^53 is an integer, and every one below the
    # probe's tolerance rounds to zero.  None of it may change what the
    # chunk looks like.
    from repro.select.policy import HeuristicPolicy

    walk = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 4096))
    policy = HeuristicPolicy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = extract_features(walk)
        scaled = extract_features(walk * scale)
        codecs = [policy.decide(walk).codec, policy.decide(walk * scale).codec]
    assert plain.lag1_autocorr > 0.99
    assert scaled.lag1_autocorr == pytest.approx(plain.lag1_autocorr, abs=1e-9)
    assert scaled.decimal_digits == plain.decimal_digits == -1
    assert codecs == ["fpzip", "fpzip"]


def test_constant_and_zero_chunks_keep_their_neutral_readings():
    # The out-of-range rescue is for chunks that vary: a constant one
    # still has no autocorrelation, and zeros are still integers.
    for value in (1.5, 1e-200, 0.0):
        features = extract_features(np.full(2048, value))
        assert features.lag1_autocorr == 0.0
    assert extract_features(np.zeros(2048)).decimal_digits == 0


@pytest.mark.parametrize("dtype, giant", [(np.float64, 1.2e308), (np.float32, 3e38)])
def test_one_value_near_the_ceiling_neither_warns_nor_hides_the_rest(dtype, giant):
    # Every float from 2^(mantissa bits + 1) up is an integer: it rounds
    # clean at any precision and must not be scaled by 10^d to find out.
    rng = np.random.default_rng(5)
    for values in (
        rng.uniform(0.1, 1.0, 4096),
        np.round(rng.uniform(800.0, 60000.0, 4096), 2),
    ):
        ordinary = values.astype(dtype)
        mixed = ordinary.copy()
        mixed[7] = giant
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (
                extract_features(mixed).decimal_digits
                == extract_features(ordinary).decimal_digits
            )


# ----------------------------------------------------------------------
# Staged evaluation: the order of reading never shows
# ----------------------------------------------------------------------
EDGE_SIZES = (0, 1, 2, 3, 4095, 4096, 8193)


def _edge_arrays():
    """Seeded inputs around every special value and block boundary."""
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        for size in EDGE_SIZES:
            normal = rng.normal(0.0, 100.0, size).astype(dtype)
            yield f"normal-{dtype.__name__}-{size}", normal
            planted = normal.copy()
            specials = [np.nan, np.inf, -0.0, 0.0, -np.inf, info.tiny / 4]
            planted[: len(specials)] = specials[:size]
            yield f"planted-{dtype.__name__}-{size}", planted
            yield f"constant-{dtype.__name__}-{size}", np.full(size, 1.5, dtype)
            alternating = np.where(np.arange(size) % 2 == 0, 1.25, -3.5)
            yield f"alternating-{dtype.__name__}-{size}", alternating.astype(dtype)
            money = np.round(rng.uniform(1.0, 5000.0, size), 2).astype(dtype)
            yield f"money-{dtype.__name__}-{size}", money
            ramp = np.arange(size) * info.smallest_subnormal
            yield f"denormal-{dtype.__name__}-{size}", ramp.astype(dtype)


def vector_line(features) -> str:
    """One feature vector with its floats spelled bit for bit."""
    return ",".join(
        value.hex() if isinstance(value, float) else str(value)
        for value in features.as_dict().values()
    )


def test_reading_order_and_access_path_never_change_a_bit():
    shuffler = random.Random(0)
    for label, array in _edge_arrays():
        forced = extract_features(array)
        assert forced == extract_features(array.copy()), label
        reference = vector_line(forced)
        assert tuple(forced.as_dict())[2:] == FEATURE_ORDER
        for _ in range(4):
            order = list(FEATURE_ORDER)
            shuffler.shuffle(order)
            staged = ChunkFeatures(array)
            read = {name: getattr(staged, name) for name in order}
            assert staged.computed_fields() == set(FEATURE_ORDER)
            assert vector_line(staged) == reference, (label, order)
            assert read == {name: forced.as_dict()[name] for name in order}
        assert ChunkFeatures(array).as_dict() == forced.as_dict()


EDGE_VECTORS_SHA256 = "20deed770a39026891d83d8264d4d3af4a5bb20d14abe10a7d2115546f31f4b8"


def test_edge_array_vectors_equal_the_eager_implementation():
    # sha256 generated at 8ef3ace (eager extract_features) over the same
    # arrays.  The denormal ramps are left out: they are the
    # tiny-magnitude smooth chunks whose readings this rewrite corrects
    # (see test_features_and_decision_are_scale_invariant).
    lines = [
        f"{label}:{vector_line(extract_features(array))}"
        for label, array in _edge_arrays()
        if not label.startswith("denormal")
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EDGE_VECTORS_SHA256



def test_forced_features_hold_no_reference_to_the_chunk():
    chunk = _noise()
    features = extract_features(chunk)
    assert not any(isinstance(value, np.ndarray) for value in vars(features).values())
    staged = ChunkFeatures(chunk)
    assert staged.computed_fields() == set()
    assert staged.frac_unique == features.frac_unique
    assert staged.computed_fields() == {"frac_unique"}
