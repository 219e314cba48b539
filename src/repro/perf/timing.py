"""Modeled compression/decompression timing.

Converts a :class:`~repro.perf.cost.CostModel` plus a workload size into
seconds, reproducing the paper's timing methodology (section 5.2):

* **throughput times** exclude I/O and host-to-device transfers, exactly
  as the paper instruments compression calls;
* **end-to-end wall times** (Table 6) add PCIe copies and kernel-launch
  overhead for GPU methods, which is why GFC's 87 GB/s device throughput
  shrinks to wall times comparable with bitshuffle's.

All rates derive from the cost-model anchors modulated by block size,
thread count, and transfer overheads; see :mod:`repro.perf.cost` for the
calibration philosophy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.cost import CostModel
from repro.perf.hardware import QUADRO_RTX_6000, XEON_GOLD_6126, CpuSpec, GpuSpec

__all__ = ["PerformanceModel", "TimingBreakdown"]

_GB = 1.0e9


@dataclass(frozen=True)
class TimingBreakdown:
    """Composition of one modeled operation, all in seconds."""

    kernel_seconds: float
    transfer_seconds: float
    launch_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.kernel_seconds + self.transfer_seconds + self.launch_seconds


class PerformanceModel:
    """Maps (cost model, workload) to modeled seconds on the paper testbed."""

    def __init__(
        self,
        cpu: CpuSpec = XEON_GOLD_6126,
        gpu: GpuSpec = QUADRO_RTX_6000,
    ) -> None:
        self.cpu = cpu
        self.gpu = gpu

    # ------------------------------------------------------------------
    # Rate modifiers
    # ------------------------------------------------------------------
    def _block_factor(self, cost: CostModel, block_bytes: float | None) -> float:
        """Rate multiplier for operating on blocks of ``block_bytes``.

        Small blocks pay per-block setup (hash-table and model warm-up,
        function-call overhead); oversized blocks fall out of cache for
        methods tuned to L1/L2 residency.  Reproduces Table 10's shape.
        """
        if block_bytes is None or block_bytes <= 0:
            return 1.0
        factor = 1.0
        if cost.block_setup_bytes > 0:
            factor *= 1.0 / (1.0 + cost.block_setup_bytes / block_bytes)
        if cost.cache_bytes > 0 and block_bytes > cost.cache_bytes:
            overshoot = block_bytes / cost.cache_bytes
            factor *= 1.0 / (1.0 + cost.cache_rolloff * (overshoot - 1.0))
        return factor

    def _thread_factor(self, cost: CostModel, threads: int | None) -> float:
        """Rate multiplier for running with ``threads`` instead of default."""
        if threads is None or cost.scaling is None:
            return 1.0
        default = cost.parallelism.default_threads
        return cost.scaling.speedup(threads) / cost.scaling.speedup(default)

    def _anchor_rate(self, cost: CostModel, direction: str) -> float:
        if direction == "compress":
            return cost.anchor_compress_gbs * _GB
        if direction == "decompress":
            return cost.anchor_decompress_gbs * _GB
        raise ValueError(f"unknown direction {direction!r}")

    # ------------------------------------------------------------------
    # Primary queries
    # ------------------------------------------------------------------
    def kernel_seconds(
        self,
        cost: CostModel,
        input_bytes: int,
        direction: str = "compress",
        *,
        block_bytes: float | None = None,
        threads: int | None = None,
    ) -> float:
        """Device/CPU time for the (de)compression kernels alone."""
        rate = (
            self._anchor_rate(cost, direction)
            * self._block_factor(cost, block_bytes)
            * self._thread_factor(cost, threads)
        )
        return input_bytes / rate

    def breakdown(
        self,
        cost: CostModel,
        input_bytes: int,
        output_bytes: int,
        direction: str = "compress",
        *,
        block_bytes: float | None = None,
        threads: int | None = None,
    ) -> TimingBreakdown:
        """Full end-to-end composition including transfers and launches."""
        if input_bytes < 0 or output_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        kernel = self.kernel_seconds(
            cost,
            input_bytes,
            direction,
            block_bytes=block_bytes,
            threads=threads,
        )
        transfer = 0.0
        launch = 0.0
        if cost.platform == "gpu":
            if direction == "compress":
                h2d, d2h = input_bytes, output_bytes
            else:
                h2d, d2h = output_bytes, input_bytes
            pcie = (
                self.gpu.pcie_bandwidth_gbs * _GB * cost.transfer_efficiency
            )
            transfer = (h2d + d2h) / pcie + 2 * self.gpu.pcie_latency_us * 1e-6
            launch = self.gpu.kernel_launch_us * 1e-6
        return TimingBreakdown(kernel, transfer, launch)

    def end_to_end_seconds(
        self,
        cost: CostModel,
        input_bytes: int,
        output_bytes: int,
        direction: str = "compress",
        **kwargs: object,
    ) -> float:
        """Wall time including host-to-device overhead (Table 6)."""
        return self.breakdown(
            cost, input_bytes, output_bytes, direction, **kwargs
        ).total_seconds

    def throughput_gbs(
        self,
        cost: CostModel,
        input_bytes: int,
        direction: str = "compress",
        **kwargs: object,
    ) -> float:
        """Original bytes per modeled kernel second, in GB/s (section 5.2)."""
        seconds = self.kernel_seconds(cost, input_bytes, direction, **kwargs)
        return input_bytes / seconds / _GB

    def scaled_throughput_mbs(
        self, cost: CostModel, threads: int, direction: str = "compress"
    ) -> float:
        """Absolute multi-thread throughput in MB/s for Tables 7 and 8."""
        if cost.scaling is None:
            raise ValueError("cost model has no scaling specification")
        if direction == "compress":
            base = cost.scaling.single_thread_compress_mbs
        else:
            base = cost.scaling.single_thread_decompress_mbs
        return base * cost.scaling.speedup(threads)

    def memory_footprint_bytes(self, cost: CostModel, input_bytes: int) -> float:
        """Peak modeled working set during compression (Figure 10)."""
        return cost.memory_footprint(input_bytes)
