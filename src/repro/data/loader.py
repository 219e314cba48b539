"""Dataset materialization with scaling and caching.

The benchmark harness loads every Table 3 dataset at a configurable
element budget (the paper's files span 11 MB to 4 GB; pure-Python codecs
need smaller working sets).  Arrays are cached per (name, budget, seed)
so the many per-table benchmarks do not regenerate data.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.data.catalog import DatasetSpec, get_spec
from repro.data.generators import generate
from repro.errors import DatasetError

__all__ = ["load", "load_spec", "check_target_elements", "DEFAULT_TARGET_ELEMENTS"]

#: Default per-dataset element budget for the scaled benchmark suite.
DEFAULT_TARGET_ELEMENTS = 16_384


def check_target_elements(target_elements: int) -> None:
    """Refuse an element budget below one (it would scale to a toy array)."""
    if target_elements < 1:
        raise DatasetError(f"target_elements must be >= 1, got {target_elements}")


@lru_cache(maxsize=64)
def _cached(name: str, target_elements: int, seed: int) -> np.ndarray:
    spec = get_spec(name)
    extent = spec.scaled_extent(target_elements)
    array = generate(spec, extent, seed=seed)
    array.setflags(write=False)
    return array


def load(
    name: str,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
) -> np.ndarray:
    """Materialize dataset ``name`` scaled to about ``target_elements``.

    The returned array is read-only and shared across callers; copy it
    before mutating.

    Parameters
    ----------
    name:
        Catalog dataset name.
    target_elements:
        Element budget the dataset is scaled to.
    seed:
        Data generator seed.
    """
    check_target_elements(target_elements)
    return _cached(name, target_elements, seed)


def load_spec(
    spec: DatasetSpec,
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
    seed: int = 0,
) -> np.ndarray:
    """Materialize from a spec object (convenience wrapper)."""
    return load(spec.name, target_elements, seed)
