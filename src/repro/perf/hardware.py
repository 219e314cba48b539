"""Hardware specifications for the paper's evaluation testbed.

The paper benchmarks on a Chameleon Cloud node with two Intel Xeon Gold
6126 CPUs and one Nvidia Quadro RTX 6000 (section 5.5).  The roofline
ceilings in Figure 11 pin down the rates this module encodes:

* Xeon Gold 6126 node: scalar float 157.8 GFLOP/s, scalar int
  191.0 GINTOP/s, DRAM 214.5 GB/s (L1/L2/L3 at 11000 / 5508.8 /
  640.1 GB/s).
* Quadro RTX 6000: double 416.4 GFLOP/s, single 13325.8 GFLOP/s, DRAM
  621.5 GB/s.

PCIe bandwidth is the published x16 Gen3 rate for that card, which drives
the host-to-device overhead the paper calls out in Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CpuSpec", "GpuSpec", "XEON_GOLD_6126", "QUADRO_RTX_6000"]


@dataclass(frozen=True)
class CpuSpec:
    """A multi-core CPU described by its roofline ceilings."""

    name: str
    sockets: int
    cores_per_socket: int
    base_clock_ghz: float
    scalar_int_gops: float
    scalar_float_gflops: float
    simd_width_f32: int
    dram_bandwidth_gbs: float
    l1_bandwidth_gbs: float
    l2_bandwidth_gbs: float
    l3_bandwidth_gbs: float


@dataclass(frozen=True)
class GpuSpec:
    """A GPU described by its roofline ceilings and PCIe link."""

    name: str
    sm_count: int
    threads_per_sm: int
    warp_size: int
    single_gflops: float
    double_gflops: float
    int_gops: float
    dram_bandwidth_gbs: float
    pcie_bandwidth_gbs: float
    pcie_latency_us: float
    vram_bytes: int
    kernel_launch_us: float


XEON_GOLD_6126 = CpuSpec(
    name="2x Intel Xeon Gold 6126",
    sockets=2,
    cores_per_socket=12,
    base_clock_ghz=2.6,
    scalar_int_gops=191.0,
    scalar_float_gflops=157.8,
    simd_width_f32=8,  # AVX2 lanes, matching bitshuffle's SSE2/AVX2 use.
    dram_bandwidth_gbs=214.5,
    l1_bandwidth_gbs=11000.0,
    l2_bandwidth_gbs=5508.8,
    l3_bandwidth_gbs=640.1,
)

QUADRO_RTX_6000 = GpuSpec(
    name="Nvidia Quadro RTX 6000",
    sm_count=72,
    threads_per_sm=1024,
    warp_size=32,
    single_gflops=13325.8,
    double_gflops=416.4,
    int_gops=13325.8 / 2,  # INT32 issue rate is half the FP32 rate on Turing.
    dram_bandwidth_gbs=621.5,
    pcie_bandwidth_gbs=6.0,  # Effective x16 Gen3 rate for pageable copies.
    pcie_latency_us=10.0,
    vram_bytes=24 * 1024**3,
    kernel_launch_us=8.0,
)
