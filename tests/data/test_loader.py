"""Tests for dataset materialization and caching."""

import numpy as np
import pytest

from repro.data.loader import load, load_spec
from repro.data.catalog import get_spec


def test_load_returns_readonly_shared_array():
    a = load("citytemp", 2048)
    b = load("citytemp", 2048)
    assert a is b  # cached
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_different_budgets_differ():
    small = load("citytemp", 1024)
    large = load("citytemp", 4096)
    assert small.size < large.size


def test_load_spec_equivalent():
    spec = get_spec("wave")
    np.testing.assert_array_equal(load_spec(spec, 2048), load("wave", 2048))


def test_dtype_matches_catalog():
    assert load("rsim", 1024).dtype == np.float32
    assert load("msg-bt", 1024).dtype == np.float64


@pytest.mark.parametrize("budget", [0, -1])
def test_load_refuses_a_budget_below_one(budget):
    from repro.errors import DatasetError

    with pytest.raises(DatasetError, match="target_elements must be >= 1"):
        load("citytemp", budget)


def test_grid_validation_refuses_a_budget_below_one():
    from repro.errors import DatasetError
    from repro.expdb import GridSpec
    from repro.expdb.sweep import validate_grid

    with pytest.raises(DatasetError, match="target_elements must be >= 1"):
        validate_grid(GridSpec(target_elements=0))
