"""Perf floor: vectorized encode must stay well ahead of its scalar oracle.

Opt-in via ``pytest -m perf`` (deselected by default through pytest.ini's
``addopts``), because timing assertions belong in a perf lane, not in
the deterministic tier-1 run.  Per-codec MB/s is measured by
``bench/run.py`` (its ``compressors.*`` per-layer metrics); byte
identity with the oracle is ``tests/compressors/test_vector_equivalence.py``.

The floor is a ratio of two CPU-time measurements taken back to back on
the same input, so machine speed cancels out where absolute MB/s would not.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api.frames import codec_input
from repro.compressors import get_compressor
from repro.data.loader import load

#: The rewrite must encode at least this many times faster than the seed.
FLOOR = 3.0


def _best_cpu_seconds(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.perf
@pytest.mark.parametrize("method", ["gorilla", "chimp"])
def test_vectorized_encode_still_beats_scalar_oracle(method):
    """Machine-independent floor: the rewrite must stay well ahead of seed."""
    compressor = get_compressor(method)
    work = np.ascontiguousarray(
        codec_input(compressor, load("tpcH-order", 100_000, 0))
    )
    assert compressor._compress(work) == compressor._compress_scalar(work)
    vectorized = _best_cpu_seconds(lambda: compressor._compress(work))
    scalar = _best_cpu_seconds(lambda: compressor._compress_scalar(work))
    assert scalar / vectorized > FLOOR, (
        f"{method}: {scalar / vectorized:.1f}x vs scalar, floor {FLOOR}x"
    )
