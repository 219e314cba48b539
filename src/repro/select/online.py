"""Online (bandit) codec selection fed by served observations.

The offline policies (:mod:`repro.select.policy`) freeze their choices
at build or training time.  In a long-lived multi-tenant server the
input regime *shifts* — one tenant streams smooth HPC fields in the
morning and decimal-quantized DB columns at night — and the best arm
per chunk shape moves with it.  :class:`OnlinePolicy` closes that loop:

* chunks are mapped to a coarse **feature bucket**
  (:func:`feature_bucket`) so observations generalize across chunks of
  the same shape without memorizing individual arrays;
* within each bucket a **UCB1 bandit** plays the
  :class:`~repro.select.policy.HeuristicPolicy` candidate arms, with
  the served outcome (bytes in/out, seconds) folded back through
  :meth:`OnlinePolicy.observe`;
* exploration is **deterministically seeded** — the first pass over the
  arms uses a seed-shuffled order and every tie breaks by candidate
  position, so a replayed observation sequence reproduces the exact arm
  sequence (tested in ``tests/select/test_online.py``).

Rewards are the *savings fraction* ``1 - bytes_out / bytes_in`` (0 for
incompressible, → 1 for highly compressible), optionally charged a
latency toll (``latency_weight`` × seconds per compressed MiB) so a
slow arm must out-compress a fast one to keep its slot — the paper's
throughput-vs-ratio trade-off expressed as a scalar.

:class:`OnlineSelectorHub` is the server-side container: one bandit per
tenant (seeds derived stably from the hub seed and tenant id), a lock
for cross-thread access, and a JSON-ready snapshot for the gateway.
"""

from __future__ import annotations

import math
import random
import threading
import zlib

import numpy as np

from repro.errors import SelectionError
from repro.select.features import ChunkFeatures
from repro.select.policy import HeuristicPolicy

__all__ = [
    "feature_bucket",
    "OnlinePolicy",
    "OnlineSelectorHub",
    "PRODUCTION_LATENCY_WEIGHT",
]


def feature_bucket(features: ChunkFeatures) -> str:
    """Coarse regime label for one chunk's features.

    Three axes — decimal quantization, value repetition, smoothness —
    matching the split points :class:`HeuristicPolicy` rules on, so the
    bandit's buckets line up with regimes where a single fixed arm is
    near-optimal.  Coarseness is deliberate: a handful of buckets means
    each one accumulates observations fast enough to converge within a
    stream, not just within a deployment.
    """
    decimal = "dec" if features.decimal_digits >= 0 else "cont"
    if features.frac_unique < 0.5:
        unique = "rep"
    elif features.frac_unique < 0.95:
        unique = "mix"
    else:
        unique = "uniq"
    smooth = "smooth" if features.lag1_autocorr >= 0.80 else "rough"
    return f"{decimal}:{unique}:{smooth}"


class _ArmStats:
    """Pull/observation counts and (optionally decayed) mean reward.

    ``pulls`` is charged by :meth:`OnlinePolicy.choose` the moment the
    arm is selected (so concurrent in-flight requests spread out);
    ``observations`` counts the outcomes that actually came back and is
    what the running mean averages over.
    """

    __slots__ = ("pulls", "observations", "mean")

    def __init__(self) -> None:
        self.pulls = 0
        self.observations = 0
        self.mean = 0.0

    def update(self, reward: float, decay: float) -> None:
        self.observations += 1
        if decay >= 1.0:
            self.mean += (reward - self.mean) / self.observations
        else:
            # Exponential recency weighting: old regimes fade even when
            # the bucket stays hot.
            step = max(1.0 / self.observations, 1.0 - decay)
            self.mean += (reward - self.mean) * step


class _BucketState:
    """One bucket's bandit: per-arm stats plus a seeded first-pass order."""

    __slots__ = ("arms", "order", "total")

    def __init__(self, candidates: tuple[str, ...], rng: random.Random) -> None:
        self.arms = {name: _ArmStats() for name in candidates}
        order = list(candidates)
        rng.shuffle(order)
        self.order = tuple(order)
        self.total = 0


class OnlinePolicy:
    """UCB1 bandit over the heuristic arms, bucketed by chunk features.

    Unlike the offline policies this one is *stateful*, so it is not a
    :class:`~repro.select.policy.SelectionPolicy`: a chunk-parallel
    writer would fork it per worker, and nothing there observes an
    outcome.  Every :meth:`choose` increments the chosen arm's pull
    count immediately (so concurrent in-flight chunks spread across
    arms instead of dog-piling one), and :meth:`observe` folds the
    measured outcome back in.  Determinism contract: same seed + same
    (bucket, observe) sequence → same arm sequence.

    Not thread-safe on its own — :class:`OnlineSelectorHub` adds the
    lock for server use.
    """

    def __init__(
        self,
        candidates: tuple[str, ...] | None = None,
        seed: int = 0,
        exploration: float = 0.5,
        latency_weight: float = 0.0,
        decay: float = 1.0,
        sample_elements: int | None = None,
    ) -> None:
        base = HeuristicPolicy()
        self.candidates = (
            tuple(candidates) if candidates else base.candidates
        )
        if not self.candidates:
            raise SelectionError("OnlinePolicy requires at least one arm")
        if not 0.0 < decay <= 1.0:
            raise SelectionError(f"decay must be in (0, 1], got {decay}")
        self.seed = int(seed)
        self.exploration = float(exploration)
        self.latency_weight = float(latency_weight)
        self.decay = float(decay)
        self.sample_elements = (
            base.sample_elements if sample_elements is None else sample_elements
        )
        self._rng = random.Random(self.seed)
        self._buckets: dict[str, _BucketState] = {}

    # -- bandit core ---------------------------------------------------
    def _bucket(self, bucket: str) -> _BucketState:
        state = self._buckets.get(bucket)
        if state is None:
            # Each bucket's first-pass order draws from the policy RNG in
            # bucket-creation order; chunk sequence drives creation order,
            # so replays reproduce it.
            state = _BucketState(self.candidates, self._rng)
            self._buckets[bucket] = state
        return state

    def choose(self, bucket: str) -> str:
        """Pick (and charge a pull to) an arm for ``bucket``."""
        state = self._bucket(bucket)
        chosen = None
        for name in state.order:
            if state.arms[name].pulls == 0:
                chosen = name
                break
        if chosen is None:
            total = max(state.total, 1)
            bonus = self.exploration * math.sqrt(math.log(total))

            def score(name: str) -> tuple[float, int]:
                arm = state.arms[name]
                ucb = arm.mean + bonus / math.sqrt(arm.pulls)
                # Ties break toward the earlier candidate, never the
                # dict/hash order.
                return (-ucb, self.candidates.index(name))

            chosen = min(self.candidates, key=score)
        state.arms[chosen].pulls += 1
        state.total += 1
        return chosen

    def reward(self, bytes_in: int, bytes_out: int, seconds: float) -> float:
        """Scalarize one served outcome into ``[0, 1]``-ish reward."""
        if bytes_in <= 0:
            return 0.0
        saving = 1.0 - bytes_out / bytes_in
        if self.latency_weight > 0.0 and bytes_in > 0:
            mib = bytes_in / (1024.0 * 1024.0)
            saving -= self.latency_weight * (seconds / max(mib, 1e-9))
        return max(0.0, min(1.0, saving))

    def observe(
        self,
        bucket: str,
        codec: str,
        bytes_in: int,
        bytes_out: int,
        seconds: float = 0.0,
    ) -> None:
        """Fold one served outcome back into the bucket's arm stats.

        The pull was already charged by :meth:`choose`; this only moves
        the mean, so a decision whose request died mid-flight simply
        never sharpens the estimate.
        """
        state = self._bucket(bucket)
        arm = state.arms.get(codec)
        if arm is None:
            return  # arm retired from the candidate set; drop silently
        if arm.pulls == 0:
            # Observation for an arm this instance never chose (e.g.
            # restored snapshot drift): count it so UCB stays defined.
            arm.pulls = 1
            state.total += 1
        arm.update(self.reward(bytes_in, bytes_out, seconds), self.decay)

    # -- observability / persistence ----------------------------------
    def snapshot(self) -> dict:
        """JSON-ready per-bucket arm statistics."""
        buckets = {}
        for bucket, state in sorted(self._buckets.items()):
            buckets[bucket] = {
                "total": state.total,
                "arms": {
                    name: {
                        "pulls": arm.pulls,
                        "observations": arm.observations,
                        "mean_reward": round(arm.mean, 6),
                    }
                    for name, arm in state.arms.items()
                },
            }
        return {
            "seed": self.seed,
            "candidates": list(self.candidates),
            "buckets": buckets,
        }


#: Latency toll applied by the serving profile's reward
#: (:class:`OnlineSelectorHub` default): reward = byte saving −
#: weight × seconds-per-MiB.  At 2.0, a codec running 100 MiB/s pays
#: 0.02 reward, 10 MiB/s pays 0.2, and 2 MiB/s forfeits the whole
#: saving — a marginally tighter but much slower arm loses to a fast
#: near-tight one, which is the trade a latency-sensitive service
#: wants.  Offline :class:`OnlinePolicy` use keeps the pure
#: compression-ratio reward (weight 0) unless asked.
PRODUCTION_LATENCY_WEIGHT = 2.0


class OnlineSelectorHub:
    """Per-tenant bandits behind one lock, for the serving path.

    The server's batch executor asks :meth:`decide` for an arm before
    shipping work to the pool and calls :meth:`observe` when results
    land; the gateway's ``/tenants`` endpoint snapshots concurrently.
    Tenant seeds derive from ``crc32(tenant_id)`` mixed with the hub
    seed, so a restarted server with the same tenant set replays the
    same exploration — and adding a tenant never perturbs another
    tenant's sequence.

    The hub is the production profile, so its policies default to the
    latency-aware reward (``latency_weight``
    :data:`PRODUCTION_LATENCY_WEIGHT`); pass ``latency_weight=0.0`` to
    reward compression ratio alone.
    """

    #: Tenant key used when the server runs without a tenant registry.
    DEFAULT_TENANT = "_default"

    def __init__(self, seed: int = 0, **policy_options) -> None:
        self.seed = int(seed)
        policy_options.setdefault(
            "latency_weight", PRODUCTION_LATENCY_WEIGHT
        )
        self._policy_options = policy_options
        # The same for every tenant, so read once and not under the lock.
        self._sample_elements = OnlinePolicy(**policy_options).sample_elements
        self._lock = threading.Lock()
        self._policies: dict[str, OnlinePolicy] = {}

    def _policy(self, tenant_id: str) -> OnlinePolicy:
        policy = self._policies.get(tenant_id)
        if policy is None:
            tenant_seed = self.seed ^ zlib.crc32(tenant_id.encode("utf-8"))
            policy = OnlinePolicy(seed=tenant_seed, **self._policy_options)
            self._policies[tenant_id] = policy
        return policy

    def decide(
        self, tenant_id: str | None, chunk: np.ndarray
    ) -> tuple[str, str]:
        """Choose ``(codec, bucket)`` for one chunk of one tenant."""
        tenant = tenant_id or self.DEFAULT_TENANT
        # The statistics are NumPy work on the caller's own chunk: only
        # the bandit's bookkeeping needs the lock.
        bucket = feature_bucket(ChunkFeatures(chunk, self._sample_elements))
        with self._lock:
            return self._policy(tenant).choose(bucket), bucket

    def observe(
        self,
        tenant_id: str | None,
        bucket: str,
        codec: str,
        bytes_in: int,
        bytes_out: int,
        seconds: float = 0.0,
    ) -> None:
        tenant = tenant_id or self.DEFAULT_TENANT
        with self._lock:
            self._policy(tenant).observe(
                bucket, codec, bytes_in, bytes_out, seconds
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "tenants": {
                    tenant: policy.snapshot()
                    for tenant, policy in sorted(self._policies.items())
                },
            }
