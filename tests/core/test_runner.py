"""Tests for the benchmark runner's measurement protocol."""

import numpy as np
import pytest

from repro.api.frames import codec_input
from repro.compressors import get_compressor
from repro.core.runner import BenchmarkRunner, verify_roundtrip
from repro.data.catalog import get_spec
from repro.data.loader import load


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner()


def test_verify_roundtrip_bit_level():
    a = np.array([0.0])
    b = np.array([-0.0])
    assert not verify_roundtrip(a, b)
    assert verify_roundtrip(a, a.copy())


def test_successful_cell(runner):
    spec = get_spec("citytemp")
    m = runner.run_cell("chimp", load("citytemp", 2048), spec)
    assert m.ok
    assert m.compression_ratio > 0.5
    assert m.compress_gbs == pytest.approx(0.034)  # anchored
    assert m.measured_compress_s > 0
    assert m.domain == "TS"


def test_gfc_paper_scale_skip(runner):
    spec = get_spec("miranda3d")  # 4 GB at paper scale
    m = runner.run_cell("gfc", load("miranda3d", 2048), spec)
    assert not m.ok
    assert "limit" in m.error


def test_gfc_runs_at_512mb_exactly(runner):
    spec = get_spec("wave")  # exactly 512 MB
    m = runner.run_cell("gfc", load("wave", 2048), spec)
    assert m.ok


def test_paper_limits_can_be_disabled():
    runner = BenchmarkRunner(paper_limits=False)
    spec = get_spec("miranda3d")
    m = runner.run_cell("gfc", load("miranda3d", 2048), spec)
    assert m.ok


def test_f32_reinterpreted_for_double_only():
    comp = get_compressor("pfpc")
    arr = load("rsim", 2048)
    work = codec_input(comp, arr)
    assert work.dtype == np.float64
    assert work.nbytes >= arr.nbytes  # same bytes (padded if odd)
    np.testing.assert_array_equal(
        work.view(np.float32)[: arr.size], arr.ravel()
    )


def test_supported_dtype_passthrough():
    comp = get_compressor("chimp")
    arr = load("rsim", 2048)
    assert codec_input(comp, arr) is arr


def test_wall_time_includes_gpu_transfers(runner):
    spec = get_spec("tpcH-order")
    gpu = runner.run_cell("mpc", load("tpcH-order", 2048), spec)
    cpu = runner.run_cell("ndzip-cpu", load("tpcH-order", 2048), spec)
    # MPC's kernels are ~15x faster but PCIe narrows the wall-time gap.
    kernel_gap = gpu.compress_gbs / cpu.compress_gbs
    wall_gap = cpu.compress_wall_ms / gpu.compress_wall_ms
    assert wall_gap < kernel_gap
