"""Compressor recommendation map (paper section 7.3).

Given a suite :class:`~repro.core.results.ResultSet`, reproduces the
paper's three recommendation profiles:

* **storage** — best harmonic-mean CR per domain (the paper names
  fpzip/HPC, nvCOMP::LZ4/TS, bitshuffle::zstd/OBS, Chimp/DB),
* **speed** — methods with the shortest mean end-to-end wall time,
* **general** — balanced rank across CR, wall time, and query retrieval
  overhead (the paper highlights bitshuffle::zstd and MPC).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import method_mean_cr, method_mean_wall_ms
from repro.core.results import ResultSet
from repro.data.catalog import domains

__all__ = ["Recommendation", "recommend"]


@dataclass(frozen=True)
class Recommendation:
    """The three recommendation profiles of section 7.3."""

    storage_by_domain: dict[str, str]
    fastest: list[str]
    general: list[str]

    def summary(self) -> str:
        lines = ["Recommendations (paper section 7.3 methodology):"]
        lines.append("  storage reduction, per domain:")
        for domain, method in self.storage_by_domain.items():
            lines.append(f"    {domain:4s} -> {method}")
        lines.append(f"  fast end-to-end : {', '.join(self.fastest)}")
        lines.append(f"  general purpose : {', '.join(self.general)}")
        return "\n".join(lines)


def recommend(results: ResultSet, top_k: int = 4) -> Recommendation:
    """Derive the recommendation map from suite results."""
    methods = results.methods()

    storage: dict[str, str] = {}
    for domain in domains():
        best_method = ""
        best_cr = -np.inf
        for method in methods:
            rows = [
                m
                for m in results.for_method(method)
                if m.domain == domain and m.ok
            ]
            if not rows:
                continue
            cr = method_mean_cr(rows)
            if np.isfinite(cr) and cr > best_cr:
                best_cr = cr
                best_method = method
        if best_method:
            storage[domain] = best_method

    wall: list[tuple[str, float]] = []
    for method in methods:
        # Section 7.3 policy: nvCOMP lacks a standalone wall-time API and
        # GFC's input limit disqualifies it despite its fast queries
        # (Observation 9), so neither enters the speed recommendation.
        if method.startswith("nvcomp"):
            continue
        from repro.compressors import get_compressor

        if get_compressor(method).max_input_bytes is not None:
            continue
        rows = results.for_method(method)
        total = method_mean_wall_ms(rows, "compress") + method_mean_wall_ms(
            rows, "decompress"
        )
        if np.isfinite(total):
            wall.append((method, total))
    wall.sort(key=lambda pair: pair[1])
    fastest = [method for method, _ in wall[:top_k]]

    # Balanced: mean of normalized ranks over CR (desc), wall (asc).
    cr_rank = {
        method: rank
        for rank, (method, _) in enumerate(
            sorted(
                ((m, method_mean_cr(results.for_method(m))) for m in methods),
                key=lambda pair: -(pair[1] if np.isfinite(pair[1]) else -np.inf),
            )
        )
    }
    wall_rank = {method: rank for rank, (method, _) in enumerate(wall)}
    combined = sorted(
        methods,
        key=lambda m: cr_rank.get(m, len(methods)) + wall_rank.get(m, len(methods)),
    )
    return Recommendation(
        storage_by_domain=storage,
        fastest=fastest,
        general=combined[: max(top_k // 2, 2)],
    )
