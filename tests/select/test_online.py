"""Online bandit policy: determinism, convergence, and accounting.

The determinism contract is the acceptance bar: same seed + same
(choose, observe) sequence → the exact same arm sequence, replayed run
after run.  Beyond that we pin the bucket labels to the heuristic's
split points, the pull/observation split (pulls charged at choose time,
observations only when outcomes land), and that the bandit converges to
the clearly-best arm once rewards separate.
"""

import numpy as np
import pytest

from repro.api import compress_array, decompress_array, open_stream
from repro.errors import SelectionError
from repro.select.features import extract_features
from repro.select.online import (
    PRODUCTION_LATENCY_WEIGHT,
    OnlinePolicy,
    OnlineSelectorHub,
    feature_bucket,
)
from repro.select.policy import POLICY_NAMES, HeuristicPolicy
from repro.service import ServiceClient, serve_background


ARMS = ("bitshuffle-zstd", "buff", "fpzip", "gorilla")


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


class TestFeatureBucket:
    def test_labels_three_axes(self):
        rough = np.random.default_rng(0).random(2048)
        bucket = feature_bucket(extract_features(rough))
        dec, uniq, smooth = bucket.split(":")
        assert dec in {"dec", "cont"}
        assert uniq in {"rep", "mix", "uniq"}
        assert smooth in {"smooth", "rough"}

    def test_constant_is_repetitive(self):
        features = extract_features(np.zeros(1024))
        assert feature_bucket(features).split(":")[1] == "rep"

    def test_random_walk_is_smooth(self):
        walk = np.cumsum(np.random.default_rng(1).normal(0, 0.01, 4096))
        assert feature_bucket(extract_features(walk)).endswith("smooth")


class TestDeterminism:
    def test_same_seed_same_arm_sequence(self):
        def run():
            policy = OnlinePolicy(candidates=ARMS, seed=7)
            sequence = []
            for chunk in _chunks():
                bucket = feature_bucket(extract_features(chunk))
                codec = policy.choose(bucket)
                sequence.append(codec)
                policy.observe(bucket, codec, chunk.nbytes, chunk.nbytes // 2)
            return sequence, policy.snapshot()

        first_seq, first_snap = run()
        second_seq, second_snap = run()
        assert first_seq == second_seq
        assert first_snap == second_snap

    def test_different_seeds_explore_differently(self):
        # The seeded shuffle must actually shuffle: across a handful of
        # seeds the first-pass arm orders cannot all coincide.
        orders = set()
        for seed in range(8):
            policy = OnlinePolicy(candidates=ARMS, seed=seed)
            orders.add(
                tuple(
                    policy.choose(feature_bucket(extract_features(chunk)))
                    for chunk in _chunks()[:4]
                )
            )
        assert len(orders) > 1

    def test_hub_tenant_seeds_stable_and_independent(self):
        chunk = _chunks()[0]

        def arm_for(hub, tenant):
            return hub.decide(tenant, chunk)

        a1 = arm_for(OnlineSelectorHub(seed=3, candidates=ARMS), "acme")
        a2 = arm_for(OnlineSelectorHub(seed=3, candidates=ARMS), "acme")
        assert a1 == a2
        # Adding another tenant first must not perturb acme's sequence.
        hub = OnlineSelectorHub(seed=3, candidates=ARMS)
        hub.decide("other", chunk)
        assert arm_for(hub, "acme") == a1


class TestBandit:
    def test_first_pass_covers_every_arm(self):
        policy = OnlinePolicy(candidates=ARMS, seed=0)
        chosen = {policy.choose("b") for _ in ARMS}
        assert chosen == set(ARMS)

    def test_pulls_charged_at_choose_observations_at_observe(self):
        policy = OnlinePolicy(candidates=ARMS, seed=0)
        arm = policy.choose("b")
        stats = policy.snapshot()["buckets"]["b"]["arms"][arm]
        assert stats == {"pulls": 1, "observations": 0, "mean_reward": 0.0}
        policy.observe("b", arm, 1000, 250)
        stats = policy.snapshot()["buckets"]["b"]["arms"][arm]
        assert stats["observations"] == 1
        assert stats["pulls"] == 1
        assert stats["mean_reward"] == pytest.approx(0.75)

    def test_converges_to_best_arm(self):
        policy = OnlinePolicy(candidates=ARMS, seed=0, exploration=0.05)
        rewards = {arm: 0.9 if arm == "buff" else 0.2 for arm in ARMS}
        for _ in range(200):
            arm = policy.choose("b")
            out = int(1000 * (1.0 - rewards[arm]))
            policy.observe("b", arm, 1000, out)
        tail = [policy.choose("b") for _ in range(20)]
        for arm in tail:  # choose() charged pulls; settle them
            policy.observe("b", arm, 1000, int(1000 * (1 - rewards[arm])))
        assert tail.count("buff") >= 18

    def test_buckets_learn_independently(self):
        policy = OnlinePolicy(candidates=ARMS, seed=0, exploration=0.05)
        best = {"x": "fpzip", "y": "gorilla"}
        for _ in range(150):
            for bucket, winner in best.items():
                arm = policy.choose(bucket)
                out = 100 if arm == winner else 900
                policy.observe(bucket, arm, 1000, out)
        for bucket, winner in best.items():
            assert policy.choose(bucket) == winner

    def test_reward_clamps_and_latency_toll(self):
        policy = OnlinePolicy(candidates=ARMS, latency_weight=0.0)
        assert policy.reward(1000, 250, 0.0) == pytest.approx(0.75)
        assert policy.reward(1000, 2000, 0.0) == 0.0  # expansion clamps
        assert policy.reward(0, 100, 0.0) == 0.0
        tolled = OnlinePolicy(candidates=ARMS, latency_weight=0.1)
        assert tolled.reward(1 << 20, 1 << 18, 1.0) == pytest.approx(0.65)

    def test_observe_unknown_arm_dropped(self):
        policy = OnlinePolicy(candidates=ARMS, seed=0)
        policy.observe("b", "dzip", 1000, 100)
        assert "dzip" not in policy.snapshot()["buckets"]["b"]["arms"]

    def test_default_candidates_are_heuristic_arms(self):
        assert OnlinePolicy().candidates == HeuristicPolicy().candidates

    def test_invalid_configs_typed(self):
        with pytest.raises(SelectionError):
            OnlinePolicy(decay=0.0)
        # Falsy candidates fall back to the heuristic arms, not an error.
        assert OnlinePolicy(candidates=()).candidates == (
            HeuristicPolicy().candidates
        )


class TestServedOnly:
    """The bandit needs observations only a server makes, so a local
    writer refuses it: a policy there must be a pure function of the
    chunk bytes, or the stream would depend on ``jobs``."""

    def test_local_writers_refuse_online_typed(self, tmp_path):
        array = np.concatenate(_chunks())
        assert "online" not in POLICY_NAMES
        for jobs in (None, 2):
            with pytest.raises(SelectionError, match="served"):
                compress_array(array, "auto", policy="online", jobs=jobs)
        with pytest.raises(SelectionError, match="served"):
            open_stream(tmp_path / "x.fcf", "wb", codec="auto", policy="online")

    def test_server_explain_refuses_online_but_compress_serves_it(self):
        array = np.concatenate(_chunks())
        with serve_background() as handle, ServiceClient(
            handle.host, handle.port
        ) as client:
            with pytest.raises(SelectionError, match="served"):
                client.select_explain(array, policy="online", chunk_elements=512)
            blob = client.compress_array(
                array, "auto", policy="online", chunk_elements=512
            )
        np.testing.assert_array_equal(decompress_array(blob), array)


class TestHub:
    def test_snapshot_shape(self):
        hub = OnlineSelectorHub(seed=11, candidates=ARMS)
        chunk = _chunks()[0]
        codec, bucket = hub.decide("acme", chunk)
        hub.observe("acme", bucket, codec, chunk.nbytes, chunk.nbytes // 4)
        snap = hub.snapshot()
        assert snap["seed"] == 11
        arm_row = snap["tenants"]["acme"]["buckets"][bucket]["arms"][codec]
        assert arm_row["pulls"] == 1
        assert arm_row["observations"] == 1

    def test_features_are_read_outside_the_lock(self, monkeypatch):
        # Statistics are NumPy work on the caller's own chunk; holding the
        # hub mutex across them would queue every tenant behind one.
        from repro.select import online

        hub = OnlineSelectorHub(seed=11, candidates=ARMS, sample_elements=256)
        seen = []

        def bucket_unlocked(features):
            assert not hub._lock.locked()
            assert features.sampled == 256
            bucket = feature_bucket(features)
            seen.append(features.computed_fields())
            return bucket

        monkeypatch.setattr(online, "feature_bucket", bucket_unlocked)
        chunk = _chunks()[0]
        codec, bucket = hub.decide("acme", chunk)
        assert bucket == feature_bucket(extract_features(chunk, 256))
        assert codec in ARMS
        # The bucket's three axes are all that was computed.
        assert seen == [{"decimal_digits", "frac_unique", "lag1_autocorr"}]

    def test_anonymous_tenant_uses_default_key(self):
        hub = OnlineSelectorHub(candidates=ARMS)
        hub.decide(None, _chunks()[0])
        assert OnlineSelectorHub.DEFAULT_TENANT in hub.snapshot()["tenants"]


class TestProductionLatencyWeight:
    """The serving hub's reward is latency-aware by default (pin)."""

    def test_constant_pinned(self):
        assert PRODUCTION_LATENCY_WEIGHT == 2.0

    def test_offline_policy_default_stays_ratio_only(self):
        # Offline/replay use constructs OnlinePolicy directly; its
        # reward must not grow a latency toll behind sweeps' backs.
        assert OnlinePolicy().latency_weight == 0.0

    def test_hub_observations_pay_the_latency_toll(self):
        hub = OnlineSelectorHub(candidates=ARMS)
        # 1 MiB halved in 0.1 s: saving 0.5, toll 2.0 * 0.1 = 0.2.
        hub.observe(None, "b", "gorilla", 1 << 20, 1 << 19, seconds=0.1)
        snap = hub.snapshot()["tenants"][OnlineSelectorHub.DEFAULT_TENANT]
        row = snap["buckets"]["b"]["arms"]["gorilla"]
        assert row["mean_reward"] == pytest.approx(0.3)

    def test_hub_opt_out_restores_ratio_only_reward(self):
        hub = OnlineSelectorHub(candidates=ARMS, latency_weight=0.0)
        hub.observe(None, "b", "gorilla", 1 << 20, 1 << 19, seconds=0.1)
        snap = hub.snapshot()["tenants"][OnlineSelectorHub.DEFAULT_TENANT]
        row = snap["buckets"]["b"]["arms"]["gorilla"]
        assert row["mean_reward"] == pytest.approx(0.5)

    def test_slow_tight_arm_loses_to_fast_near_tight_arm(self):
        # Under the production weight a codec that squeezes 2 points
        # more but runs 10x slower must *lose*: 0.80 @ 0.05 s/MiB
        # nets 0.70, 0.78 @ 0.005 s/MiB nets 0.77.
        policy = OnlinePolicy(
            candidates=ARMS, latency_weight=PRODUCTION_LATENCY_WEIGHT
        )
        mib = 1 << 20
        slow_tight = policy.reward(mib, int(mib * 0.20), 0.05)
        fast_loose = policy.reward(mib, int(mib * 0.22), 0.005)
        assert slow_tight == pytest.approx(0.70)
        assert fast_loose == pytest.approx(0.77)
        assert fast_loose > slow_tight
