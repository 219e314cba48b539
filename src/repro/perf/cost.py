"""Per-compressor cost models for the analytical performance layer.

The paper measures native C/C++/CUDA/Rust/Go binaries on a Xeon 6126 +
Quadro RTX 6000 testbed.  This reproduction replaces that testbed with a
calibrated performance model: every compressor declares

* **structural parameters** — how many integer/float operations and how
  much memory traffic each kernel performs per input byte, and how the
  method parallelizes.  These come from the algorithm descriptions in
  paper sections 3 and 4 and drive the roofline analysis (Figure 11) and
  all *relative* effects (block size, thread count, host-to-device
  copies).
* **calibration anchors** — the average compression/decompression
  throughput the paper reports in Table 5.  Anchors pin the absolute
  scale of modeled time so cross-method comparisons (who is faster, by
  what factor) match the published measurements.

This is the only model of GPU time: :mod:`repro.perf.timing` composes
PCIe copies and kernel launches from it; the GPU codecs record nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelSpec", "ParallelismSpec", "ScalingSpec", "CostModel"]


@dataclass(frozen=True)
class KernelSpec:
    """Work performed by one pass of a compression pipeline.

    Rates are per *input byte* so they compose across datasets of any
    size.  ``bytes_touched`` counts total memory traffic (reads plus
    writes) generated per input byte.
    """

    name: str
    int_ops: float
    flops: float = 0.0
    bytes_touched: float = 2.0

    @property
    def total_ops(self) -> float:
        return self.int_ops + self.flops

    @property
    def arithmetic_intensity(self) -> float:
        """Operations per byte of memory traffic (roofline x-axis)."""
        if self.bytes_touched <= 0:
            return float("inf")
        return self.total_ops / self.bytes_touched


@dataclass(frozen=True)
class ParallelismSpec:
    """How a method exploits hardware parallelism (Table 1 columns)."""

    kind: str  # "serial" | "threads" | "simd+threads" | "simt"
    default_threads: int = 1
    simd_width: int = 1

    def __post_init__(self) -> None:
        valid = {"serial", "threads", "simd+threads", "simt"}
        if self.kind not in valid:
            raise ValueError(f"parallelism kind {self.kind!r} not in {valid}")


@dataclass(frozen=True)
class ScalingSpec:
    """Universal Scalability Law parameters for Tables 7 and 8.

    ``speedup(t) = t / (1 + sigma * (t - 1) + kappa * t * (t - 1))``

    ``sigma`` captures serialization (Amdahl) and ``kappa`` captures
    coherence/contention costs, which produce the throughput roll-off the
    paper observes past 16-24 threads.
    """

    sigma: float
    kappa: float
    single_thread_compress_mbs: float
    single_thread_decompress_mbs: float

    def speedup(self, threads: int) -> float:
        if threads < 1:
            raise ValueError(f"thread count must be >= 1, got {threads}")
        t = float(threads)
        return t / (1.0 + self.sigma * (t - 1.0) + self.kappa * t * (t - 1.0))


@dataclass(frozen=True)
class CostModel:
    """Full analytical cost description of one compressor."""

    platform: str  # "cpu" | "gpu"
    parallelism: ParallelismSpec
    compress_kernels: tuple[KernelSpec, ...]
    decompress_kernels: tuple[KernelSpec, ...]
    # Calibration anchors: Table 5 average throughputs in GB/s.
    anchor_compress_gbs: float
    anchor_decompress_gbs: float
    # Per-block startup cost in equivalent input bytes; drives the Table 10
    # block-size sensitivity (hyperbolic ramp toward the peak rate).
    block_setup_bytes: float = 0.0
    # Cache rolloff for methods tuned to L1/L2-resident blocks (bitshuffle):
    # rates drop once blocks outgrow ``cache_bytes``.
    cache_bytes: float = 0.0
    cache_rolloff: float = 0.0
    # Fraction of the nominal PCIe rate this method's runtime achieves;
    # calibrated against Table 6 (SYCL's pageable staging makes ndzip-GPU
    # far slower end-to-end than its kernel throughput suggests).
    transfer_efficiency: float = 1.0
    # Memory footprint model for Figure 10.
    footprint_factor: float = 2.0
    footprint_fixed_bytes: float = 0.0
    scaling: ScalingSpec | None = None

    def __post_init__(self) -> None:
        if self.platform not in ("cpu", "gpu"):
            raise ValueError(f"platform must be cpu or gpu, got {self.platform!r}")
        if self.anchor_compress_gbs <= 0 or self.anchor_decompress_gbs <= 0:
            raise ValueError("throughput anchors must be positive")

    def dominant_kernel(self, direction: str = "compress") -> KernelSpec:
        """The pass with the most operations: the Figure 11 hot loop."""
        kernels = (
            self.compress_kernels
            if direction == "compress"
            else self.decompress_kernels
        )
        if not kernels:
            raise ValueError("cost model has no kernels")
        return max(kernels, key=lambda k: k.total_ops)

    def memory_footprint(self, input_bytes: int) -> float:
        """Peak working-set bytes while compressing ``input_bytes``."""
        if self.footprint_fixed_bytes:
            return self.footprint_fixed_bytes
        return self.footprint_factor * input_bytes
