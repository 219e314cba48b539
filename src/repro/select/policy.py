"""Pluggable per-chunk codec-selection policies for the ``auto`` codec.

Two policies, in increasing cost per 4,096-element chunk (measured in
``docs/performance.md``):

* :class:`HeuristicPolicy` — feature thresholds derived from the
  paper's section-7.3 recommendation rules, re-fit on the generated
  corpus: repeat-heavy/quantized chunks go to the strongest
  entropy-backed coder, decimal-quantized high-cardinality chunks to
  BUFF's bounded fixed-point representation, smooth fields to fpzip's
  predictor, everything else to bitshuffle+zstd (the paper's
  general-purpose pick).  It holds an unforced
  :class:`~repro.select.features.ChunkFeatures`, so it pays for the two
  or three statistics its rule chain reads: 50–90 us.
* :class:`MeasuredPolicy` — trial-compresses a fixed sample prefix of
  the chunk with every candidate and keeps the smallest output; ties
  break toward the earlier candidate, so selection is deterministic.
  It reads no statistic and costs what its slowest candidate costs
  (~60 ms with the default set, which includes ``dzip``).  It is the
  stateless reference the heuristic's misses are found with.

Policies are plain picklable objects: the chunk-parallel write path
ships them to worker processes, and because every policy is a pure
function of the chunk bytes, the parallel stream stays byte-identical
to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import SelectionError
from repro.select.features import FEATURE_SAMPLE_ELEMENTS, ChunkFeatures

__all__ = [
    "DEFAULT_CANDIDATES",
    "POLICY_NAMES",
    "SelectionDecision",
    "SelectionPolicy",
    "HeuristicPolicy",
    "MeasuredPolicy",
    "resolve_policy",
    "explain",
    "codec_instance",
    "pick_smallest",
]

#: Default candidate set: the storage profile of section 7.3 (the
#: per-domain compression-ratio winners as realized on this
#: reproduction's corpus: fpzip/HPC+OBS, BUFF and the entropy-backed
#: coders/DB, bitshuffle+zstd for noisy TS).
DEFAULT_CANDIDATES = ("bitshuffle-zstd", "buff", "chimp", "dzip", "fpzip")

POLICY_NAMES = ("heuristic", "measured")


@lru_cache(maxsize=None)
def codec_instance(name: str):
    """Shared compressor instance for ``name`` (``None`` for ``"none"``).

    Compressors are stateless, so one instance per process serves every
    frame; raises ``KeyError`` for unknown names (write-path error — the
    read path goes through :func:`repro.api.frames.resolve_codec`).
    """
    from repro.api.frames import RAW_CODEC
    from repro.compressors import get_compressor

    if name == RAW_CODEC:
        return None
    return get_compressor(name)


@dataclass(frozen=True)
class SelectionDecision:
    """One explained choice: codec, features, human-readable reason."""

    codec: str
    reason: str
    features: ChunkFeatures


class SelectionPolicy:
    """Base interface: map one chunk to a candidate codec name.

    Subclasses define :attr:`candidates` (the stream's codec table, in
    a stable order) and :meth:`decide`; :meth:`select` is the hot-path
    wrapper that returns only the codec name.
    """

    name = "base"
    candidates: tuple[str, ...] = ()

    def decide(self, chunk: np.ndarray) -> SelectionDecision:
        raise NotImplementedError

    def select(self, chunk: np.ndarray) -> str:
        return self.decide(chunk).codec


@dataclass(frozen=True)
class HeuristicPolicy(SelectionPolicy):
    """Feature-threshold rules (paper section 7.3, re-fit per domain).

    The rule chain mirrors the paper's per-domain findings in feature
    space rather than by dataset label, so it applies chunk by chunk:

    1. decimal-quantized (``decimal_digits`` found): near-fully-unique
       chunks (``frac_unique`` at least ``decimal_unique_threshold``) →
       ``decimal_codec`` — BUFF's bounded fixed-point sweet spot (DB
       money columns); everything else decimal (sensor ticks,
       trajectories, tables with repeated keys) → ``repeat_codec``,
       whose entropy stage exploits the shrunken value alphabet at any
       chunk granularity;
    2. repeat-heavy (``frac_unique`` below ``repeat_threshold``) →
       ``repeat_codec`` — the OBS/DB low-entropy regime;
    3. smooth (``lag1_autocorr`` above ``smooth_threshold``) →
       ``smooth_codec`` — fpzip's predictor on HPC/OBS fields;
    4. otherwise → ``default_codec`` — bitshuffle+zstd, the paper's
       general-purpose recommendation for noisy data.
    """

    #: Continuous data is effectively all-unique per chunk (measured
    #: >= 0.989 across the corpus at 4 Ki granularity), while partially
    #: quantized fields sit well below (wave <= 0.935): 0.95 splits the
    #: two regimes with margin on both sides.
    repeat_threshold: float = 0.95
    smooth_threshold: float = 0.80
    decimal_unique_threshold: float = 0.98
    repeat_codec: str = "dzip"
    decimal_codec: str = "buff"
    smooth_codec: str = "fpzip"
    default_codec: str = "bitshuffle-zstd"
    sample_elements: int = FEATURE_SAMPLE_ELEMENTS

    name = "heuristic"

    @property
    def candidates(self) -> tuple[str, ...]:  # type: ignore[override]
        roles = (
            self.default_codec,
            self.repeat_codec,
            self.decimal_codec,
            self.smooth_codec,
        )
        return tuple(dict.fromkeys(roles))

    def decide(self, chunk: np.ndarray) -> SelectionDecision:
        features = ChunkFeatures(chunk, self.sample_elements)
        if features.decimal_digits >= 0:
            if features.frac_unique >= self.decimal_unique_threshold:
                return SelectionDecision(
                    self.decimal_codec,
                    f"decimal-quantized to {features.decimal_digits} "
                    f"digit(s), frac_unique {features.frac_unique:.3f} >= "
                    f"{self.decimal_unique_threshold}",
                    features,
                )
            return SelectionDecision(
                self.repeat_codec,
                f"decimal-quantized to {features.decimal_digits} digit(s) "
                f"with repeats (frac_unique {features.frac_unique:.3f})",
                features,
            )
        if features.frac_unique < self.repeat_threshold:
            return SelectionDecision(
                self.repeat_codec,
                f"repeat-heavy: frac_unique {features.frac_unique:.3f} < "
                f"{self.repeat_threshold}",
                features,
            )
        if features.lag1_autocorr >= self.smooth_threshold:
            return SelectionDecision(
                self.smooth_codec,
                f"smooth: lag-1 autocorr {features.lag1_autocorr:.3f} >= "
                f"{self.smooth_threshold}",
                features,
            )
        return SelectionDecision(
            self.default_codec,
            f"no structure detected (autocorr {features.lag1_autocorr:.3f}, "
            f"frac_unique {features.frac_unique:.3f})",
            features,
        )


def pick_smallest(
    candidates: tuple[str, ...], sizes: dict[str, int]
) -> str:
    """Smallest trial output wins; ties break toward the earlier candidate.

    Exposed separately so the tie-breaking contract is directly
    testable: selection must not depend on dict ordering or float
    noise, only on ``(size, candidate position)``.
    """
    if not candidates:
        raise SelectionError("measured selection requires at least one candidate")
    missing = [name for name in candidates if name not in sizes]
    if missing:
        raise SelectionError(f"no trial size for candidate(s): {missing}")
    return min(candidates, key=lambda name: (sizes[name], candidates.index(name)))


@dataclass(frozen=True)
class MeasuredPolicy(SelectionPolicy):
    """Trial-compress a sample prefix with every candidate; keep the best.

    ``sample_elements`` bounds the per-chunk cost: only the leading
    sample is trial-compressed, then the winner compresses the full
    chunk.  Deterministic by construction — same bytes, same trial
    sizes, same tie-break.
    """

    candidates: tuple[str, ...] = DEFAULT_CANDIDATES
    sample_elements: int = 2048

    name = "measured"

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise SelectionError("MeasuredPolicy requires a non-empty candidate set")
        if self.sample_elements < 1:
            raise SelectionError("sample_elements must be positive")

    def trial_sizes(self, chunk: np.ndarray) -> dict[str, int]:
        """Compressed size of the sample prefix under every candidate."""
        from repro.api.frames import encode_payload

        sample = np.ascontiguousarray(chunk).ravel()[: self.sample_elements]
        return {
            name: len(encode_payload(codec_instance(name), sample))
            for name in self.candidates
        }

    def decide(self, chunk: np.ndarray) -> SelectionDecision:
        sizes = self.trial_sizes(chunk)
        winner = pick_smallest(self.candidates, sizes)
        ranked = ", ".join(
            f"{name}={sizes[name]}B" for name in sorted(sizes, key=sizes.get)
        )
        return SelectionDecision(
            winner,
            f"smallest {self.sample_elements}-element trial: {ranked}",
            ChunkFeatures(chunk),
        )


def resolve_policy(policy, **options) -> SelectionPolicy:
    """Turn a policy name or instance into a :class:`SelectionPolicy`.

    ``options`` forward to the named policy's constructor (e.g.
    ``candidates=``/``sample_elements=`` for ``measured``).
    """
    if isinstance(policy, SelectionPolicy):
        if options:
            raise SelectionError(
                "policy options apply only when naming a policy, "
                "not when passing an instance"
            )
        return policy
    if policy == "heuristic":
        return HeuristicPolicy(**options)
    if policy == "measured":
        return MeasuredPolicy(**options)
    raise SelectionError(
        f"unknown selection policy {policy!r}; known: {', '.join(POLICY_NAMES)}"
    )


def explain(array, policy: SelectionPolicy, chunk_elements: int) -> dict:
    """``policy``'s decision for every chunk of ``array``, as one document.

    The JSON-ready answer behind both ``fcbench select explain --json``
    and a served ``select-explain`` request.
    """
    if chunk_elements < 1:
        raise ValueError("chunk_elements must be positive")
    flat = np.ascontiguousarray(array).ravel()
    chunks = []
    for start in range(0, flat.size, chunk_elements):
        decision = policy.decide(flat[start : start + chunk_elements])
        chunks.append(
            {
                "start": start,
                "codec": decision.codec,
                "reason": decision.reason,
                "features": decision.features.as_dict(),
            }
        )
    return {
        "policy": policy.name,
        "candidates": list(policy.candidates),
        "chunks": chunks,
    }
