"""Hypothesis property tests: lossless round-trip on adversarial arrays."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors import get_compressor
from tests.conftest import assert_bit_exact

# Any bit pattern is a valid float, including NaN payloads; generate raw
# bits so the search space covers specials and denormals.
_f64_arrays = hnp.arrays(
    dtype=np.uint64,
    shape=st.integers(0, 400),
    elements=st.integers(0, 2**64 - 1),
).map(lambda bits: bits.view(np.float64))

_f32_arrays = hnp.arrays(
    dtype=np.uint32,
    shape=st.integers(0, 400),
    elements=st.integers(0, 2**32 - 1),
).map(lambda bits: bits.view(np.float32))

_FAST_METHODS_F64 = [
    "gorilla", "chimp", "fpzip", "pfpc", "spdp", "buff",
    "bitshuffle-lz4", "bitshuffle-zstd", "ndzip-cpu", "gfc", "mpc",
    "nvcomp-lz4", "nvcomp-bitcomp",
]
_FAST_METHODS_F32 = [
    "chimp", "fpzip", "spdp", "buff", "bitshuffle-lz4",
    "ndzip-cpu", "mpc", "nvcomp-lz4", "nvcomp-bitcomp", "gorilla",
]

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("method", _FAST_METHODS_F64)
@_SETTINGS
@given(array=_f64_arrays)
def test_roundtrip_f64_any_bits(method, array):
    comp = get_compressor(method)
    assert_bit_exact(array, comp.decompress(comp.compress(array)))


@pytest.mark.parametrize("method", _FAST_METHODS_F32)
@_SETTINGS
@given(array=_f32_arrays)
def test_roundtrip_f32_any_bits(method, array):
    comp = get_compressor(method)
    assert_bit_exact(array, comp.decompress(comp.compress(array)))


@_SETTINGS
@given(
    array=hnp.arrays(
        dtype=np.uint64,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
        elements=st.integers(0, 2**64 - 1),
    ).map(lambda bits: bits.view(np.float64))
)
def test_dimensional_methods_on_3d(array):
    for method in ("fpzip", "ndzip-cpu"):
        comp = get_compressor(method)
        assert_bit_exact(array, comp.decompress(comp.compress(array)))


_PLANTS = (np.nan, np.inf, -np.inf, -0.0, 0.0)
_FIXED_PROBES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300)


@_SETTINGS
@given(
    values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 300),
        elements=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=64
        ),
    ),
    decimals=st.integers(0, 4),
    plants=st.lists(
        st.tuples(st.integers(0, 299), st.sampled_from(_PLANTS)), max_size=6
    ),
    picks=st.lists(st.integers(0, 299), min_size=1, max_size=6),
)
def test_buff_scan_agrees_with_numpy(values, decimals, plants, picks):
    arr = np.round(values, decimals)
    for index, plant in plants:
        arr[index % arr.size] = plant
    comp = get_compressor("buff")
    blob = comp.compress(arr)
    finite = arr[np.isfinite(arr)]
    stored = [float(arr[index % arr.size]) for index in picks]
    probes = [float(np.median(finite))] if finite.size else []
    probes += stored + list(_FIXED_PROBES)
    for value in stored:
        if np.isfinite(value):
            probes += [
                float(np.nextafter(value, np.inf)),
                float(np.nextafter(value, -np.inf)),
                (value + stored[0]) / 2,
            ]
    for probe in probes:
        np.testing.assert_array_equal(
            comp.scan_less_equal(blob, probe), arr <= probe, err_msg=repr(probe)
        )
        np.testing.assert_array_equal(
            comp.scan_equal(blob, probe), arr == probe, err_msg=repr(probe)
        )
