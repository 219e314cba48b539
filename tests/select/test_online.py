"""Served selection without a bandit: the heuristic is the one ``auto``.

A server once answered ``policy="online"`` with a per-tenant UCB1
bandit fed by served outcomes. Measured on a four-regime shift it could
not beat the heuristic by the 2 % its keep-rule asked for (a hindsight
oracle over its arms read only ~1 % above), so it was deleted. Each
class below pins what now stands where one of its behaviours stood:

* the three regime axes it bucketed on are the ones the heuristic
  rules on, read once per chunk;
* a served decision is a pure function of the chunk bytes, so no seed,
  request order or tenant moves an arm;
* the server keeps no selector state, and ``online`` is a typed
  :class:`SelectionError` on every path.
"""

import io

import numpy as np
import pytest

from repro.api import compress_array, decompress_array, open_stream
from repro.api.session import CompressSession, DecompressSession
from repro.errors import SelectionError
from repro.select.features import FEATURE_SAMPLE_ELEMENTS
from repro.select.policy import (
    POLICY_NAMES,
    HeuristicPolicy,
    MeasuredPolicy,
    resolve_policy,
)
from repro.service import ServiceClient, serve_background
from repro.service.gateway import render_prometheus
from repro.service.tenants import TenantConfig, TenantRegistry
from tests.compressors.conftest_vector import build_adversarial_cases

#: The axes the bandit bucketed on: decimal / repetition / smoothness.
AXES = {"decimal_digits", "frac_unique", "lag1_autocorr"}


def _chunks(seed=0, count=12):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        if index % 3 == 0:
            base = np.round(rng.normal(20.0, 5.0, 512), 2)  # decimal
        elif index % 3 == 1:
            base = np.cumsum(rng.normal(0.0, 0.01, 512)) + 100.0  # smooth
        else:
            base = rng.random(512)  # rough/unique
        out.append(base.astype(np.float64))
    return out


def _regimes():
    """One chunk per rule of the heuristic's chain, keyed by its role."""
    rng = np.random.default_rng(3)
    return {
        "decimal_codec": np.round(rng.uniform(0, 1e5, 2048), 2),
        "repeat_codec": np.zeros(1024),
        "smooth_codec": np.cumsum(rng.normal(0, 0.01, 4096)),
        "default_codec": rng.random(2048),
    }


def _served(handle, chunks, token=None, policy="heuristic"):
    with ServiceClient(handle.host, handle.port, token=token) as client:
        return [
            client.compress_array(
                chunk, "auto", policy=policy, chunk_elements=512
            )
            for chunk in chunks
        ]


def _local(chunks):
    return [compress_array(c, "auto", chunk_elements=512) for c in chunks]


def _registry():
    registry = TenantRegistry()
    registry.add(TenantConfig("gold", token="tok-gold", priority=5))
    registry.add(TenantConfig("bronze", token="tok-bronze"))
    return registry


class TestFeatureBucket:
    """The bandit's bucket axes are the heuristic's rule axes."""

    def test_labels_three_axes(self):
        # A decision reads nothing beyond the three axes: two for a
        # decimal or repeat-heavy chunk, three for a continuous one.
        policy = HeuristicPolicy()
        for role, chunk in _regimes().items():
            read = policy.decide(chunk).features.computed_fields()
            assert read <= AXES, role
            if role in ("smooth_codec", "default_codec"):
                assert read == AXES, role

    def test_constant_is_repetitive(self):
        decision = HeuristicPolicy().decide(np.zeros(1024))
        assert decision.features.frac_unique < 0.5
        assert decision.codec == HeuristicPolicy().repeat_codec

    def test_random_walk_is_smooth(self):
        walk = np.cumsum(np.random.default_rng(1).normal(0, 0.01, 4096))
        decision = HeuristicPolicy().decide(walk)
        assert decision.reason.startswith("smooth")
        assert decision.codec == HeuristicPolicy().smooth_codec


class TestDeterminism:
    """A served ``auto`` answer is a pure function of the chunk bytes."""

    def test_same_seed_same_arm_sequence(self):
        chunks = _chunks()
        with serve_background() as first:
            one = _served(first, chunks)
        with serve_background() as second:
            two = _served(second, chunks)
        assert one == two == _local(chunks)

    def test_different_seeds_explore_differently(self):
        # Nothing explores any more: serving the chunks in reverse order
        # gives every chunk the bytes it got in forward order.
        chunks = _chunks(seed=4)
        with serve_background() as handle:
            forward = _served(handle, chunks)
            backward = _served(handle, chunks[::-1])
        assert backward[::-1] == forward

    def test_hub_tenant_seeds_stable_and_independent(self):
        # Tenants share one selector: gold's bytes do not depend on
        # whether bronze was served first, and equal bronze's own.
        chunks = _chunks(seed=5, count=6)
        with serve_background(tenants=_registry()) as handle:
            gold_alone = _served(handle, chunks, "tok-gold")
            bronze = _served(handle, chunks[::-1], "tok-bronze")
            gold_after = _served(handle, chunks, "tok-gold")
        assert gold_alone == gold_after == bronze[::-1] == _local(chunks)


class TestBandit:
    """What the heuristic does where the bandit had to learn."""

    def test_first_pass_covers_every_arm(self):
        # Every arm is reachable from a chunk's first decision: one
        # chunk per rule of the chain reaches every candidate.
        policy = HeuristicPolicy()
        for role, chunk in _regimes().items():
            assert policy.decide(chunk).codec == getattr(policy, role), role
        chosen = {policy.decide(c).codec for c in _regimes().values()}
        assert chosen == set(policy.candidates)

    def test_pulls_charged_at_choose_observations_at_observe(self):
        # A served decision is charged once, to the op counters; there
        # are no pulls or observations to keep.
        with serve_background() as handle:
            _served(handle, _chunks(count=5))
            document = handle.server.stats_document()
        assert document["ops"]["compress"]["requests"] == 5
        assert document["codecs"]["auto"]["requests"] == 5
        assert "online" not in document

    def test_converges_to_best_arm(self):
        # On a decimal money column the first decision is already the
        # smallest arm, with no exploration toll to pay first.
        chunk = _regimes()["decimal_codec"]
        policy = HeuristicPolicy()
        sizes = {
            arm: len(compress_array(chunk, arm, chunk_elements=2048))
            for arm in policy.candidates
        }
        assert policy.decide(chunk).codec == min(sizes, key=sizes.get)

    def test_buckets_learn_independently(self):
        # Each chunk of a mixed stream gets the arm it gets alone.
        chunks = _chunks()
        blob = compress_array(
            np.concatenate(chunks), "auto", chunk_elements=512
        )
        with DecompressSession(blob) as session:
            arms = session.frame_codec_names()
        assert arms == [HeuristicPolicy().select(c) for c in chunks]
        assert len(set(arms)) == 3

    def test_observe_unknown_arm_dropped(self):
        # No decision names an arm outside the candidate table, whatever
        # the chunk: empty, NaN payloads, denormals, specials, float32.
        policy = HeuristicPolicy()
        for name, array in build_adversarial_cases().items():
            assert policy.decide(array.ravel()).codec in policy.candidates, name

    def test_default_candidates_are_heuristic_arms(self):
        array = np.concatenate(_chunks(count=3))
        with serve_background() as handle, ServiceClient(
            handle.host, handle.port
        ) as client:
            answer = client.select_explain(array, chunk_elements=512)
        assert answer["policy"] == "heuristic"
        assert tuple(answer["candidates"]) == HeuristicPolicy().candidates

    def test_invalid_configs_typed(self):
        assert "online" not in POLICY_NAMES
        with pytest.raises(SelectionError, match="heuristic, measured"):
            resolve_policy("online")
        with pytest.raises(SelectionError, match="instance"):
            resolve_policy(HeuristicPolicy(), sample_elements=64)


class TestServedOnly:
    """``online`` and ``learned`` are refused on every path, typed (see
    also ``tests/service/test_server.py`` for the served refusals)."""

    def test_local_writers_refuse_online_typed(self, tmp_path):
        # `learned` (a deleted table-driven selector) is refused the same
        # way, before a byte is written: no table is read.
        array = np.concatenate(_chunks())
        for policy in ("online", "learned"):
            for jobs in (None, 2):
                with pytest.raises(SelectionError, match="unknown selection"):
                    compress_array(array, "auto", policy=policy, jobs=jobs)
            with pytest.raises(SelectionError, match="unknown selection"):
                open_stream(tmp_path / "x.fcf", "wb", codec="auto", policy=policy)
            with pytest.raises(SelectionError, match="known: heuristic, measured$"):
                CompressSession(io.BytesIO(), codec="auto", policy=policy)


class TestHub:
    """The server keeps no selector state."""

    def test_snapshot_shape(self):
        with serve_background(tenants=_registry()) as handle:
            _served(handle, _chunks(count=3), "tok-gold")
            document = handle.server.stats_document()
        assert "online" not in document
        assert set(document["tenancy"]["tenants"]) == {"gold", "bronze"}
        assert "fcbench_online" not in render_prometheus(document)

    def test_features_are_read_outside_the_lock(self, monkeypatch):
        # Selection holds no server lock and keeps no state: each served
        # chunk is decided once (on the event loop, which places the
        # request by the pick), with the metrics lock free, and the
        # stream is written from that decision.
        chunks = _chunks(count=3)
        expected = _local(chunks)
        held = []
        decide = HeuristicPolicy.decide

        def recording(self, chunk):
            held.append(handle.server.metrics._lock.locked())
            return decide(self, chunk)

        monkeypatch.setattr(HeuristicPolicy, "decide", recording)
        with serve_background() as handle:
            assert _served(handle, chunks) == expected
        assert held == [False] * len(chunks)

    def test_anonymous_tenant_uses_default_key(self):
        # A tenant-less server serves untagged requests the same bytes
        # a tenant gets, and keeps no tenancy section.
        chunks = _chunks(count=4)
        with serve_background() as handle:
            anonymous = _served(handle, chunks)
            document = handle.server.stats_document()
        assert anonymous == _local(chunks)
        assert "tenancy" not in document


class TestProductionLatencyWeight:
    """The served profile trades ratio for speed in its fixed rules."""

    def test_constant_pinned(self):
        policy = HeuristicPolicy()
        assert (
            policy.repeat_threshold,
            policy.smooth_threshold,
            policy.decimal_unique_threshold,
        ) == (0.95, 0.80, 0.98)
        assert policy.candidates == ("bitshuffle-zstd", "dzip", "buff", "fpzip")
        assert policy.sample_elements == FEATURE_SAMPLE_ELEMENTS

    def test_offline_policy_default_stays_ratio_only(self):
        # `measured` rewards ratio alone: the smallest trial wins,
        # however slow its codec (dzip against gorilla here).
        chunk = np.round(np.random.default_rng(2).normal(20, 5, 2048), 1)
        policy = MeasuredPolicy(candidates=("gorilla", "dzip"))
        sizes = policy.trial_sizes(chunk)
        assert sizes["dzip"] < sizes["gorilla"]
        assert policy.decide(chunk).codec == "dzip"

    def test_hub_observations_pay_the_latency_toll(self):
        # What a served decision costs is bounded: it reads its
        # statistics from at most a sample of the chunk.
        big = np.cumsum(np.random.default_rng(6).normal(0, 1, 65_536))
        features = HeuristicPolicy().decide(big).features
        assert features.sampled <= FEATURE_SAMPLE_ELEMENTS < big.size

    def test_hub_opt_out_restores_ratio_only_reward(self):
        # Opting out of the fixed rules is naming `measured`, served
        # as locally.
        array = np.concatenate(_chunks(count=3))
        with serve_background() as handle, ServiceClient(
            handle.host, handle.port
        ) as client:
            served = client.compress_array(
                array, "auto", policy="measured", chunk_elements=512
            )
        local = compress_array(
            array, "auto", policy="measured", chunk_elements=512
        )
        assert served == local
        np.testing.assert_array_equal(decompress_array(served), array)
