"""Benchmark execution: compress, verify, measure, model.

The runner reproduces the paper's measurement protocol (section 5.2):
compression ratio comes from the *actual* compressed stream; timing
figures come from the calibrated performance model evaluated at the
dataset's paper-scale size, with instrumentation placed "before and
after the compression function" — i.e. kernel time for throughput,
kernel + transfers for end-to-end wall time.

Paper-faithful policies implemented here:

* double-only methods (pFPC, GFC, Gorilla) receive float32 datasets
  upcast to float64, and CR is measured against the upcast buffer;
* GFC skips datasets whose *paper-scale* size exceeds its 512 MB input
  limit — these become the "-" cells of Table 4;
* every stream is verified to round-trip bit-exactly before a
  measurement is recorded.

Usage — run one cell and inspect the measurement:

    >>> from repro.core.runner import BenchmarkRunner
    >>> from repro.data.catalog import get_spec
    >>> from repro.data.loader import load
    >>> runner = BenchmarkRunner()
    >>> cell = runner.run_cell("gorilla", load("citytemp", 512), get_spec("citytemp"))
    >>> cell.ok
    True
    >>> cell.compression_ratio > 0.5
    True

A runner is plain picklable state: ``run_suite`` ships it to pool
workers, and streams per-cell progress through its own parent-side
``on_cell`` hook.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.compressors import get_compressor
from repro.compressors.base import Compressor, method_fingerprint, stable_repr
from repro.core.results import Measurement
from repro.data.catalog import DatasetSpec
from repro.errors import ReproError
from repro.perf.timing import PerformanceModel

__all__ = ["CACHE_VERSION", "BenchmarkRunner", "verify_roundtrip"]

#: Bump to invalidate every stored cell at once (format or harness
#: changes that per-method fingerprints cannot see).
CACHE_VERSION = "v13"


def verify_roundtrip(original: np.ndarray, restored: np.ndarray) -> bool:
    """Bit-exact comparison, NaN payloads included."""
    if original.shape != restored.shape or original.dtype != restored.dtype:
        return False
    uint = np.uint32 if original.dtype == np.float32 else np.uint64
    return bool(np.array_equal(original.view(uint), restored.view(uint)))


class BenchmarkRunner:
    """Runs (method, dataset) cells and produces :class:`Measurement` rows."""

    def __init__(
        self,
        perf: PerformanceModel | None = None,
        verify: bool = True,
        paper_limits: bool = True,
    ) -> None:
        self.perf = perf or PerformanceModel()
        self.verify = verify
        self.paper_limits = paper_limits

    def cell_fingerprint(self, method: str) -> str:
        """Digest of everything that can change ``method``'s measurement.

        Covers :data:`CACHE_VERSION`, the method's source fingerprint
        (editing ``chimp.py`` invalidates only the Chimp column) and this
        runner's type, hardware specs (frozen dataclasses, so
        ``stable_repr`` describes them fully) and verify / paper-limit
        policies.  A stored cell whose fingerprint differs is stale.
        """
        payload = "|".join(
            [
                CACHE_VERSION,
                method_fingerprint(method),
                type(self).__qualname__,
                stable_repr(self.perf.cpu),
                stable_repr(self.perf.gpu),
                str(self.verify),
                str(self.paper_limits),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:20]

    def prepare_input(
        self, compressor: Compressor, array: np.ndarray
    ) -> np.ndarray:
        """Feed float32 data to double-only methods by byte reinterpretation.

        The paper's harness hands each compressor the raw byte stream, so
        a double-only method (pFPC, GFC) sees pairs of float32 values as
        one 64-bit word.  This keeps the compression ratio measured
        against the original bytes — upcasting would halve every ratio,
        which is inconsistent with the published Table 4 columns.
        """
        if compressor.info.supports_dtype(array.dtype):
            return array
        flat = np.ascontiguousarray(array).ravel()
        if flat.size % 2:
            flat = np.concatenate([flat, np.zeros(1, dtype=flat.dtype)])
        return flat.view(np.float64)

    def run_cell(
        self,
        method: str,
        array: np.ndarray,
        spec: DatasetSpec,
    ) -> Measurement:
        """Evaluate one method on one dataset."""
        compressor = get_compressor(method)
        skip = self._paper_scale_skip(compressor, spec)
        if skip:
            return Measurement.failed(method, spec.name, spec, skip)

        work = self.prepare_input(compressor, array)
        precision = "D" if work.dtype == np.float64 else "S"
        try:
            t0 = time.perf_counter()
            blob = compressor.compress(work)
            t1 = time.perf_counter()
            restored = compressor.decompress(blob)
            t2 = time.perf_counter()
        except ReproError as exc:
            return Measurement.failed(
                method, spec.name, spec, f"{type(exc).__name__}: {exc}",
                precision=precision,
            )
        if self.verify and not verify_roundtrip(work, restored):
            return Measurement.failed(
                method, spec.name, spec, "roundtrip verification failed",
                precision=precision,
            )

        ratio = work.nbytes / len(blob)
        # Model timing at the dataset's paper-scale size so wall times are
        # comparable with the published tables.
        scale = spec.paper_bytes / max(work.nbytes, 1)
        paper_input = int(work.nbytes * scale)
        paper_output = int(len(blob) * scale)
        cost = compressor.cost
        ct = self.perf.throughput_gbs(cost, paper_input, "compress")
        dt = self.perf.throughput_gbs(cost, paper_input, "decompress")
        wall_c = self.perf.end_to_end_seconds(
            cost, paper_input, paper_output, "compress"
        )
        wall_d = self.perf.end_to_end_seconds(
            cost, paper_input, paper_output, "decompress"
        )
        return Measurement(
            method=method,
            dataset=spec.name,
            domain=spec.domain,
            precision=precision,
            ok=True,
            input_bytes=work.nbytes,
            compressed_bytes=len(blob),
            compression_ratio=ratio,
            compress_gbs=ct,
            decompress_gbs=dt,
            compress_wall_ms=wall_c * 1e3,
            decompress_wall_ms=wall_d * 1e3,
            measured_compress_s=t1 - t0,
            measured_decompress_s=t2 - t1,
            memory_footprint_bytes=self.perf.memory_footprint_bytes(
                cost, paper_input
            ),
        )

    def _paper_scale_skip(
        self, compressor: Compressor, spec: DatasetSpec
    ) -> str:
        """Reason string when the paper-scale dataset breaks a hard limit."""
        if not self.paper_limits:
            return ""
        limit = compressor.max_input_bytes
        if limit is None:
            return ""
        # Table 4's "-" cells follow the on-disk paper size: every dataset
        # above 512 MB is absent from GFC's column, 512 MB exactly is not.
        if spec.paper_bytes > limit:
            return (
                f"paper-scale input of {spec.paper_bytes} bytes exceeds the "
                f"{limit}-byte limit"
            )
        return ""
