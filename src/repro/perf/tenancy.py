"""Regime-shift benchmark for the multi-tenant online selection loop.

The online bandit's pitch is that a long-lived server facing *shifting*
workloads converges to the best codec per regime without anyone
retraining anything.  This module measures that claim end to end, over
the wire:

* a self-hosted multi-tenant server (two tenants: high-priority
  ``gold`` running ``policy="online"``, best-effort ``bronze`` driving
  fixed-codec background traffic so per-tenant accounting is exercised);
* a workload that alternates through four data domains with different
  best arms (regime shift), several passes, fresh stream seeds each
  visit;
* three comparators per regime, computed on the *same* arrays the
  server served: every fixed arm (whose maximum is **best-fixed**, the
  bandit's hindsight target), and the static
  :class:`~repro.select.policy.HeuristicPolicy` (the shipping default).

The headline numbers, recorded under ``service.tenancy`` in the bench
snapshot:

* ``ratio_vs_best_fixed`` — geomean of the online policy's served
  stream-level compression ratios over the geomean of each regime's
  best fixed arm; the acceptance gate is ≥ 0.97 (the bandit pays a
  bounded exploration toll, then rides the best arm);
* ``regimes_beating_heuristic`` — regimes where the online geomean
  beats the heuristic's ratio on the same arrays (the feedback loop
  must win somewhere, or it is pure overhead).

The bandit plays a fast arm set (no ``dzip``: even with its batched
encoder it compresses 4,096-element chunks at 0.29 MB/s, ~10× below
the slowest arm kept (bitshuffle-zstd, 3.1 MB/s) and ~150× below
gorilla and buff, which would turn a selection benchmark into a dzip
benchmark); best-fixed is computed over the same set, so the
comparison is arm-for-arm fair.  The heuristic comparator keeps its
full candidate list — where it picks ``dzip`` it gets ``dzip``'s
ratio, which is exactly the deployment trade-off being measured.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Sequence

import numpy as np

__all__ = ["run_tenancy_bench", "DEFAULT_REGIMES", "FAST_ARMS"]

#: Four domains with three different winning arms — alternating them
#: forces the bandit to keep per-bucket state, not one global favorite.
DEFAULT_REGIMES = (
    "hdr-night",      # image: bitshuffle-zstd wins
    "spitzer-irac",   # astro: fpzip wins
    "tpcxBB-store",   # database: buff wins
    "citytemp",       # time series: the heuristic's home turf
)

#: The bandit's arm set for this bench: every fast candidate.
FAST_ARMS = ("bitshuffle-zstd", "buff", "fpzip", "gorilla")


def _geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def _parts(array: np.ndarray, chunk_elements: int) -> list[np.ndarray]:
    """Split a stream into the chunk-sized parts a writer would send."""
    flat = np.ascontiguousarray(array).reshape(-1)
    return [
        flat[start : start + chunk_elements]
        for start in range(0, flat.size, chunk_elements)
    ]


def run_tenancy_bench(
    *,
    regimes: Sequence[str] = DEFAULT_REGIMES,
    passes: int = 6,
    streams_per_visit: int = 4,
    elements: int = 8192,
    chunk_elements: int = 2048,
    seed: int = 0,
    exploration: float = 0.05,
    bronze_streams: int = 2,
    on_result: Callable[[dict], None] | None = None,
) -> dict:
    """Serve the regime-shift workload; return the ``service.tenancy`` dict.

    ``passes`` full cycles over ``regimes``, ``streams_per_visit``
    streams (distinct seeds) per regime visit, every stream compressed
    through the server by the ``gold`` tenant with
    ``codec="auto", policy="online"``.  Streams are served the way a
    streaming writer produces them: one request per
    ``chunk_elements``-sized part, so the bandit decides (and learns)
    once per part and exploration costs a part, not a whole stream.
    The stream-level ratio sums the part payloads; every comparator is
    computed part-for-part identically.  Deterministic end to end for
    a fixed ``seed``: data generation, the bandit's exploration order,
    and the serving sequence (one client, sequential requests).
    """
    from repro.api import compress_array
    from repro.data.loader import load
    from repro.service.client import ServiceClient
    from repro.service.server import serve_background
    from repro.service.tenants import TenantConfig, TenantRegistry

    registry = TenantRegistry()
    registry.add(TenantConfig("gold", token="bench-gold", priority=5))
    registry.add(
        TenantConfig(
            "bronze",
            token="bench-bronze",
            priority=0,
            max_requests_per_window=10_000,
        )
    )

    handle = serve_background(
        port=0,
        tenants=registry,
        online_seed=seed,
        online_options={
            "candidates": tuple(FAST_ARMS),
            "exploration": exploration,
        },
    )
    served: list[dict] = []  # one row per gold stream, in serving order
    try:
        with ServiceClient(
            handle.host, handle.port, token="bench-gold", deadline=120.0
        ) as gold, ServiceClient(
            handle.host, handle.port, token="bench-bronze", deadline=120.0
        ) as bronze:
            stream_seed = seed
            for pass_index in range(passes):
                for regime in regimes:
                    for _ in range(streams_per_visit):
                        stream_seed += 1
                        array = load(regime, elements, stream_seed)
                        parts = _parts(array, chunk_elements)
                        start = time.perf_counter()
                        served_bytes = 0
                        for part in parts:
                            blob = gold.compress_array(
                                part,
                                "auto",
                                chunk_elements=chunk_elements,
                                policy="online",
                            )
                            served_bytes += len(blob)
                        seconds = time.perf_counter() - start
                        served.append(
                            {
                                "regime": regime,
                                "pass": pass_index,
                                "seed": stream_seed,
                                "array": array,
                                "ratio": array.nbytes / served_bytes,
                                "seconds": seconds,
                            }
                        )
                    # Background best-effort traffic: enough to show up
                    # in the per-tenant ledgers, not enough to matter.
                    for _ in range(bronze_streams):
                        bronze.compress_array(
                            load(regime, chunk_elements, stream_seed),
                            "bitshuffle-zstd",
                            chunk_elements=chunk_elements,
                        )
            stats = gold.stats()
        online_section = stats.get("online", {})
        tenancy_section = stats.get("tenancy", {})
        tenant_metrics = stats.get("tenants", {})
    finally:
        handle.stop()

    # Comparators on the exact served arrays: every fixed arm, and the
    # static heuristic (full candidate list, dzip included).
    regime_rows = []
    beat_count = 0
    online_all: list[float] = []
    best_fixed_all: list[float] = []
    for regime in regimes:
        rows = [row for row in served if row["regime"] == regime]
        fixed: dict[str, list[float]] = {arm: [] for arm in FAST_ARMS}
        heuristic: list[float] = []
        for row in rows:
            array = row["array"]
            parts = _parts(array, chunk_elements)
            for arm in FAST_ARMS:
                total = sum(
                    len(compress_array(p, arm, chunk_elements=chunk_elements))
                    for p in parts
                )
                fixed[arm].append(array.nbytes / total)
            total = sum(
                len(
                    compress_array(
                        p,
                        "auto",
                        chunk_elements=chunk_elements,
                        policy="heuristic",
                    )
                )
                for p in parts
            )
            heuristic.append(array.nbytes / total)
        fixed_geo = {arm: _geomean(vals) for arm, vals in fixed.items()}
        best_arm = max(fixed_geo, key=fixed_geo.get)
        online_geo = _geomean([row["ratio"] for row in rows])
        heuristic_geo = _geomean(heuristic)
        beats = online_geo > heuristic_geo
        beat_count += bool(beats)
        online_all.extend(row["ratio"] for row in rows)
        best_fixed_all.extend([fixed_geo[best_arm]] * len(rows))
        entry = {
            "regime": regime,
            "streams": len(rows),
            "online_ratio": round(online_geo, 4),
            "best_fixed_arm": best_arm,
            "best_fixed_ratio": round(fixed_geo[best_arm], 4),
            "heuristic_ratio": round(heuristic_geo, 4),
            "fixed_ratios": {
                arm: round(geo, 4) for arm, geo in fixed_geo.items()
            },
            "online_vs_best_fixed": round(
                online_geo / fixed_geo[best_arm], 4
            ),
            "beats_heuristic": beats,
            "mean_serve_ms": round(
                1e3 * float(np.mean([row["seconds"] for row in rows])), 2
            ),
        }
        regime_rows.append(entry)
        if on_result is not None:
            on_result(entry)

    score = _geomean(online_all) / _geomean(best_fixed_all)
    return {
        "regimes": regime_rows,
        "workload": {
            "passes": passes,
            "streams_per_visit": streams_per_visit,
            "elements": elements,
            "chunk_elements": chunk_elements,
            "seed": seed,
            "arms": list(FAST_ARMS),
            "exploration": exploration,
        },
        "ratio_vs_best_fixed": round(score, 4),
        "regimes_beating_heuristic": beat_count,
        "acceptance": {
            "target": 0.97,
            "pass": score >= 0.97 and beat_count >= 1,
        },
        "tenants": tenant_metrics,
        "quota": tenancy_section,
        "online": online_section,
    }
