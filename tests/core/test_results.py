"""Tests for measurement records and result sets."""

import math

import numpy as np

from repro.core.results import Measurement, ResultSet


def _m(method, dataset, cr=1.5, ok=True, domain="HPC"):
    return Measurement(
        method=method, dataset=dataset, domain=domain, precision="D",
        ok=ok, compression_ratio=cr if ok else float("nan"),
        compress_gbs=1.0, decompress_gbs=2.0,
    )


def test_projections():
    rs = ResultSet([_m("a", "x"), _m("b", "x"), _m("a", "y", domain="TS")])
    assert rs.methods() == ["a", "b"]
    assert rs.datasets() == ["x", "y"]
    assert len(rs.for_method("a")) == 2
    assert len(rs.for_domain("TS")) == 1
    assert rs.cell("b", "x") is not None
    assert rs.cell("b", "y") is None


def test_matrix_shape_and_nan_for_failures():
    rs = ResultSet([_m("a", "x", cr=2.0), _m("b", "x", ok=False),
                    _m("a", "y", cr=3.0), _m("b", "y", cr=1.0)])
    matrix = rs.matrix("compression_ratio", ["a", "b"], ["x", "y"])
    assert matrix.shape == (2, 2)
    assert matrix[0, 0] == 2.0
    assert math.isnan(matrix[0, 1])


def test_values_filters_failures():
    rs = ResultSet([_m("a", "x", cr=2.0), _m("b", "x", ok=False)])
    np.testing.assert_array_equal(rs.values("compression_ratio"), [2.0])
