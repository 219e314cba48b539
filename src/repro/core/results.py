"""Measurement records and result-set aggregation.

A :class:`Measurement` captures one (method, dataset) cell of the
evaluation: the measured compression ratio plus the modeled throughput
and wall-time figures.  A :class:`ResultSet` holds the full matrix and
provides the projections the tables and figures need.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["Measurement", "ResultSet"]


@dataclass(frozen=True)
class Measurement:
    """One evaluation cell (paper Tables 4-6 are projections of these)."""

    method: str
    dataset: str
    domain: str
    precision: str  # "S" | "D" (of the data as compressed)
    ok: bool
    error: str = ""
    #: True for failures synthesized from unexpected worker exceptions
    #: (crashes, resource exhaustion) — potentially transient, so the
    #: result store never persists them.  Policy failures recorded by the
    #: runner (skips, roundtrip mismatches) stay False and are cacheable.
    transient: bool = False
    input_bytes: int = 0
    compressed_bytes: int = 0
    compression_ratio: float = float("nan")
    compress_gbs: float = float("nan")  # modeled kernel throughput
    decompress_gbs: float = float("nan")
    compress_wall_ms: float = float("nan")  # modeled end-to-end (paper scale)
    decompress_wall_ms: float = float("nan")
    measured_compress_s: float = float("nan")  # actual Python runtime
    measured_decompress_s: float = float("nan")
    memory_footprint_bytes: float = float("nan")

    @classmethod
    def failed(cls, method, dataset, spec, error, precision=None, transient=False):
        """A failed cell of ``dataset``, whose ``spec`` is None when the
        name is unknown; ``precision`` defaults to the spec's."""
        if precision is None:
            precision = ("D" if spec.dtype == "f64" else "S") if spec else "?"
        domain = spec.domain if spec else "?"
        return cls(
            method, dataset, domain, precision,
            ok=False, error=error, transient=transient,
        )


@dataclass
class ResultSet:
    """All measurements of a suite run."""

    measurements: list[Measurement] = field(default_factory=list)

    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)

    def __len__(self) -> int:
        return len(self.measurements)

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def methods(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in self.measurements:
            seen.setdefault(m.method)
        return list(seen)

    def datasets(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in self.measurements:
            seen.setdefault(m.dataset)
        return list(seen)

    def cell(self, method: str, dataset: str) -> Measurement | None:
        for m in self.measurements:
            if m.method == method and m.dataset == dataset:
                return m
        return None

    def for_method(self, method: str) -> list[Measurement]:
        return [m for m in self.measurements if m.method == method]

    def for_dataset(self, dataset: str) -> list[Measurement]:
        return [m for m in self.measurements if m.dataset == dataset]

    def for_domain(self, domain: str) -> list[Measurement]:
        return [m for m in self.measurements if m.domain == domain]

    def matrix(
        self,
        metric: str = "compression_ratio",
        methods: list[str] | None = None,
        datasets: list[str] | None = None,
    ) -> np.ndarray:
        """(datasets x methods) matrix of ``metric``; failures are NaN."""
        methods = methods or self.methods()
        datasets = datasets or self.datasets()
        index = {
            (m.method, m.dataset): m for m in self.measurements
        }
        out = np.full((len(datasets), len(methods)), np.nan)
        for i, dataset in enumerate(datasets):
            for j, method in enumerate(methods):
                m = index.get((method, dataset))
                if m is not None and m.ok:
                    out[i, j] = getattr(m, metric)
        return out

    def values(
        self, metric: str = "compression_ratio", ok_only: bool = True
    ) -> np.ndarray:
        """Flat vector of ``metric`` over all (ok) measurements."""
        vals = [
            getattr(m, metric)
            for m in self.measurements
            if (m.ok or not ok_only)
        ]
        return np.asarray(
            [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
        )

    # ------------------------------------------------------------------
    # Determinism
    # ------------------------------------------------------------------
    #: Wall-clock fields that legitimately differ between two runs of the
    #: same configuration (everything else is deterministic).
    NONDETERMINISTIC_FIELDS = ("measured_compress_s", "measured_decompress_s")

    def canonical(self, include_measured: bool = False) -> list[dict]:
        """Order-independent, comparison-ready view of the measurements.

        Rows are sorted by (dataset, method); unless ``include_measured``
        the wall-clock timing fields are dropped, leaving only values
        that are bit-identical across serial and parallel runs.
        """
        rows = []
        for m in sorted(self.measurements, key=lambda m: (m.dataset, m.method)):
            row = asdict(m)
            if not include_measured:
                for name in self.NONDETERMINISTIC_FIELDS:
                    row.pop(name, None)
            rows.append(row)
        return rows

    def fingerprint(self) -> str:
        """Digest of the deterministic content (serial == parallel)."""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
