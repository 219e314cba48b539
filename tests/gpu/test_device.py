"""GPU copies and kernel launches, as the performance model composes them.

GPU time has one model: :meth:`PerformanceModel.breakdown` adds PCIe
copies and a kernel launch to a GPU method's kernel time.  The codecs
themselves record nothing.
"""

import pickle

import numpy as np
import pytest

from repro.compressors import compressor_names, get_compressor
from repro.perf.cost import ParallelismSpec, ScalingSpec
from repro.perf.hardware import QUADRO_RTX_6000
from repro.perf.timing import PerformanceModel

PERF = PerformanceModel()
LINK = QUADRO_RTX_6000.pcie_bandwidth_gbs * 1e9
LATENCY = 2 * QUADRO_RTX_6000.pcie_latency_us * 1e-6


def test_transfer_accounting():
    # A compress copies its input in and its output back; a decompress
    # runs the other way round, so both move the same bytes.
    cost = get_compressor("gfc").cost
    expected = 1400 / (LINK * cost.transfer_efficiency) + LATENCY
    compress = PERF.breakdown(cost, 1000, 400, "compress")
    decompress = PERF.breakdown(cost, 400, 1000, "decompress")
    assert compress.transfer_seconds == pytest.approx(expected)
    assert decompress.transfer_seconds == pytest.approx(expected)


def test_reset_clears_trace():
    # Nothing to reset: a GPU codec keeps no per-call trace, so a compress
    # leaves the instance as it found it and repeats its bytes.
    arr = np.cumsum(np.random.default_rng(8).normal(0, 1, 1024))
    for name in compressor_names("gpu"):
        codec = get_compressor(name)
        before = pickle.dumps(codec)
        first = codec.compress(arr)
        assert pickle.dumps(codec) == before
        assert codec.compress(arr) == first


def test_launch_validation():
    with pytest.raises(ValueError):
        ParallelismSpec(kind="warp")
    scaling = ScalingSpec(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scaling.speedup(0)


def test_negative_transfer_rejected():
    cost = get_compressor("gfc").cost
    with pytest.raises(ValueError):
        PERF.breakdown(cost, -1, 0)
    with pytest.raises(ValueError):
        PERF.breakdown(cost, 0, -1)


def test_transfer_seconds_scale_with_bytes():
    gpu = get_compressor("gfc").cost
    big = PERF.breakdown(gpu, 10**9, 0).transfer_seconds
    assert big > 0.1  # ~1 GB over ~6 GB/s
    assert PERF.breakdown(gpu, 2 * 10**9, 0).transfer_seconds > big
    cpu = get_compressor("fpzip").cost
    assert PERF.breakdown(cpu, 10**9, 0).transfer_seconds == 0.0


def test_launch_seconds():
    gpu = PERF.breakdown(get_compressor("mpc").cost, 10**6, 10**5)
    assert gpu.launch_seconds == pytest.approx(8e-6)
    cpu = PERF.breakdown(get_compressor("fpzip").cost, 10**6, 10**5)
    assert cpu.launch_seconds == 0.0
