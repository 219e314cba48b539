"""Microbenchmarks of the Python compressor kernels themselves.

These time the actual implementations (not the performance model) on a
fixed 64 KB workload, giving a regression guard for the pure-Python
kernel costs that dominate suite runtime.
"""

import numpy as np
import pytest

from repro.api.frames import codec_input
from repro.compressors import get_compressor
from repro.data import load

_FAST = ["bitshuffle-lz4", "ndzip-cpu", "mpc", "nvcomp-bitcomp", "spdp", "buff"]


@pytest.mark.parametrize("method", _FAST)
def test_compress_kernel(benchmark, method):
    comp = get_compressor(method)
    arr = load("gas-price", 8192)
    work = codec_input(comp, arr)
    blob = benchmark(comp.compress, work)
    assert len(blob) > 0


@pytest.mark.parametrize("method", _FAST)
def test_decompress_kernel(benchmark, method):
    comp = get_compressor(method)
    arr = load("gas-price", 8192)
    work = codec_input(comp, arr)
    blob = comp.compress(work)
    out = benchmark(comp.decompress, blob)
    assert out.size == work.size


def test_buff_scan_vs_decode_scan(benchmark):
    """BUFF's pitch: predicate evaluation without decoding."""
    arr = np.round(np.random.default_rng(0).normal(30, 8, 65536), 2)
    comp = get_compressor("buff")
    blob = comp.compress(arr)

    def encoded_scan():
        return comp.scan_less_equal(blob, 30.0)

    mask = benchmark(encoded_scan)
    np.testing.assert_array_equal(mask, arr <= 30.0)
