"""Selection policies: heuristic rule table, measured tie-breaking, the
typed refusal of the deleted ``learned`` policy, and the picklability
the parallel write path depends on."""

import pickle

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.select.policy import (
    DEFAULT_CANDIDATES,
    POLICY_NAMES,
    HeuristicPolicy,
    MeasuredPolicy,
    SelectionPolicy,
    pick_smallest,
    resolve_policy,
)


def _repeat_chunk(n=4096):
    # A handful of distinct values, heavily repeated (sensor/DB regime).
    return np.tile(np.array([1.5, 2.25, 3.0, 21.125]), n // 4)


def _decimal_chunk(n=4096):
    # Unique-valued but decimal-quantized (money-column regime).
    rng = np.random.default_rng(3)
    return np.round(rng.uniform(800.0, 600_000.0, n), 2)


def _smooth_chunk(n=4096):
    return np.sin(np.linspace(0.0, 30.0, n)) * np.linspace(1.0, 2.0, n)


def _noise_chunk(n=4096):
    return np.random.default_rng(9).normal(0.0, 1.0, n)


# ----------------------------------------------------------------------
# Heuristic
# ----------------------------------------------------------------------
def test_heuristic_routes_each_regime():
    policy = HeuristicPolicy()
    assert policy.select(_repeat_chunk()) == policy.repeat_codec
    assert policy.select(_decimal_chunk()) == policy.decimal_codec
    assert policy.select(_smooth_chunk()) == policy.smooth_codec
    assert policy.select(_noise_chunk()) == policy.default_codec


def test_heuristic_decisions_carry_reasons_and_features():
    decision = HeuristicPolicy().decide(_smooth_chunk())
    assert decision.codec == "fpzip"
    assert "autocorr" in decision.reason
    assert decision.features.lag1_autocorr > 0.8


def test_heuristic_candidates_deduplicate_roles():
    policy = HeuristicPolicy(repeat_codec="gorilla", default_codec="gorilla")
    assert policy.candidates.count("gorilla") == 1
    assert set(policy.candidates) == {"gorilla", "buff", "fpzip"}


def test_heuristic_decimal_with_repeats_prefers_repeat_codec():
    # Decimal-quantized but repeat-heavy (sensor ticks, key columns):
    # the decimal rule's uniqueness split routes to the entropy coder,
    # not BUFF — only near-fully-unique decimal data is BUFF's regime.
    chunk = np.tile(np.array([1.25, 2.5]), 2048)
    policy = HeuristicPolicy()
    assert policy.select(chunk) == policy.repeat_codec


def test_heuristic_large_magnitude_noise_is_not_decimal():
    # Continuous data scaled to ~1e5 must not be misread as quantized
    # (the decimal probe's tolerance is capped below the quantization
    # step, not scaled with magnitude alone).
    chunk = np.random.default_rng(0).normal(0.0, 1.0, 8192) * 1e5
    policy = HeuristicPolicy()
    decision = policy.decide(chunk)
    assert decision.features.decimal_digits == -1
    assert decision.codec == policy.default_codec


# ----------------------------------------------------------------------
# Measured
# ----------------------------------------------------------------------
def test_pick_smallest_prefers_smaller_output():
    assert pick_smallest(("a", "b"), {"a": 100, "b": 50}) == "b"


def test_pick_smallest_breaks_ties_by_candidate_order():
    assert pick_smallest(("a", "b"), {"a": 64, "b": 64}) == "a"
    assert pick_smallest(("b", "a"), {"a": 64, "b": 64}) == "b"


def test_pick_smallest_rejects_missing_sizes():
    with pytest.raises(SelectionError):
        pick_smallest(("a", "b"), {"a": 10})
    with pytest.raises(SelectionError):
        pick_smallest((), {})


def test_measured_policy_is_deterministic():
    policy = MeasuredPolicy(
        candidates=("gorilla", "chimp", "bitshuffle-zstd"), sample_elements=512
    )
    chunk = _smooth_chunk()
    first = policy.select(chunk)
    assert first in policy.candidates
    assert all(policy.select(chunk) == first for _ in range(3))


def test_measured_trial_sizes_cover_every_candidate():
    policy = MeasuredPolicy(
        candidates=("gorilla", "none"), sample_elements=256
    )
    sizes = policy.trial_sizes(_smooth_chunk())
    assert set(sizes) == {"gorilla", "none"}
    assert sizes["none"] == 256 * 8  # identity codec: raw bytes


def test_measured_policy_validates_configuration():
    with pytest.raises(SelectionError):
        MeasuredPolicy(candidates=())
    with pytest.raises(SelectionError):
        MeasuredPolicy(sample_elements=0)


# ----------------------------------------------------------------------
# Learned (deleted: the heuristic serves `auto`, `measured` is its
# stateless reference)
# ----------------------------------------------------------------------
def test_learned_policy_nearest_row_wins():
    # The regimes a learned table was asked to separate are the
    # heuristic's rules; `measured`, trial compression over the same
    # arms, is the reference its misses are found with: its pick is never
    # larger on the trial than the heuristic's.
    heuristic = HeuristicPolicy()
    measured = MeasuredPolicy(candidates=heuristic.candidates)
    for chunk, arm in (
        (_smooth_chunk(), "fpzip"),
        (_repeat_chunk(), "dzip"),
        (_decimal_chunk(), "buff"),
        (_noise_chunk(), "bitshuffle-zstd"),
    ):
        assert heuristic.select(chunk) == arm
        sizes = measured.trial_sizes(chunk)
        assert sizes[measured.select(chunk)] <= sizes[arm]
    assert measured.select(_smooth_chunk()) == "fpzip"


def test_learned_policy_requires_rows_and_valid_width():
    # There is no table to validate: `learned` is an unknown name, a
    # typed refusal whatever options come with it.
    assert POLICY_NAMES == ("heuristic", "measured")
    for options in ({}, {"table_path": "select_table.json"}, {"rows": ()}):
        with pytest.raises(SelectionError, match="known: heuristic, measured$"):
            resolve_policy("learned", **options)


# ----------------------------------------------------------------------
# resolve_policy + picklability
# ----------------------------------------------------------------------
def test_resolve_policy_by_name_and_instance():
    assert isinstance(resolve_policy("heuristic"), HeuristicPolicy)
    measured = resolve_policy("measured", sample_elements=128)
    assert isinstance(measured, MeasuredPolicy)
    assert measured.sample_elements == 128
    assert resolve_policy(measured) is measured


def test_resolve_policy_rejects_unknown_and_bad_options():
    with pytest.raises(SelectionError):
        resolve_policy("alphabetical")
    with pytest.raises(SelectionError):
        resolve_policy(HeuristicPolicy(), sample_elements=1)


def test_policies_are_picklable():
    for policy in (HeuristicPolicy(), MeasuredPolicy(sample_elements=64)):
        clone = pickle.loads(pickle.dumps(policy))
        assert isinstance(clone, SelectionPolicy)
        assert clone.candidates == policy.candidates
        chunk = _smooth_chunk(512)
        assert clone.select(chunk) == policy.select(chunk)
        assert clone.decide(chunk).features.as_dict() == (
            policy.decide(chunk).features.as_dict()
        )


def test_default_candidates_are_registered_methods():
    from repro.compressors import compressor_names

    assert set(DEFAULT_CANDIDATES) <= set(compressor_names())
