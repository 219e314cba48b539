"""Per-chunk codec selection: the brain behind the ``auto`` codec.

FCBench's central finding is that no single lossless compressor
dominates across domains — the winner flips with the data's entropy
class, smoothness, and mantissa structure.  This package turns that
offline conclusion into a write-time capability: each chunk of an FCF
v2 stream is routed to the codec a pluggable policy picks from cheap
chunk statistics.  Every policy is a pure function of the chunk bytes,
so a served ``auto`` stream equals the local one and a chunk-parallel
writer equals a serial one; a server runs the same policies, with no
state taken from its traffic or from a training table (any other
policy name, ``online`` and ``learned`` included, is a typed
:class:`~repro.errors.SelectionError`).

* :mod:`repro.select.features` — deterministic per-chunk statistics,
* :mod:`repro.select.policy` — the ``heuristic`` rule chain that
  ``auto`` serves, and ``measured``, its stateless trial-compression
  reference.

Entry points: pass ``codec="auto"`` to any :mod:`repro.api` writer, or
``--codec auto`` to ``fcbench compress``; ``fcbench select explain``
shows per-chunk decisions with their features and reasons.
"""

from repro.select.features import (
    FEATURE_ORDER,
    FEATURE_SAMPLE_ELEMENTS,
    ChunkFeatures,
    extract_features,
)
from repro.select.policy import (
    DEFAULT_CANDIDATES,
    POLICY_NAMES,
    HeuristicPolicy,
    MeasuredPolicy,
    SelectionDecision,
    SelectionPolicy,
    codec_instance,
    explain,
    pick_smallest,
    resolve_policy,
)

__all__ = [
    "FEATURE_ORDER",
    "FEATURE_SAMPLE_ELEMENTS",
    "ChunkFeatures",
    "extract_features",
    "DEFAULT_CANDIDATES",
    "POLICY_NAMES",
    "HeuristicPolicy",
    "MeasuredPolicy",
    "SelectionDecision",
    "SelectionPolicy",
    "codec_instance",
    "explain",
    "pick_smallest",
    "resolve_policy",
]
