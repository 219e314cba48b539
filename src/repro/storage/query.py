"""Query micro-benchmark engine (paper section 6.2.2, Table 11).

Reproduces the three primitive operations of the simulated in-memory
database:

1. **file I/O** — read compressed chunks from the container (disk time
   modeled from compressed size via :class:`~repro.storage.iosim.DiskModel`),
2. **data decoding** — decompress into memory (time modeled from the
   method's decompression-throughput cost model at paper scale),
3. **full table scan** — ``df.loc[df.A <= v]`` for ten histogram-derived
   predicate values (identical across methods, as the paper observes,
   because the decoded frames are the same).

All three are modeled at the dataset's *paper-scale* size from one
measured number, the method's compression ratio (a suite cell's, so the
codec saw the data under the one float32 rule): :meth:`QueryBenchmark.model`
is a pure function of it, which is how Table 11 renders from the result
store's whole-array cells without compressing anything.  Scan cost uses
a per-row constant calibrated to Table 11's query column, so the
reported milliseconds are comparable with the published table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.base import Compressor
from repro.perf.timing import PerformanceModel
from repro.storage.iosim import DEFAULT_DISK, DiskModel

__all__ = ["QueryCost", "QueryBenchmark", "RangeScan"]

#: Per-row full-scan cost calibrated against Table 11 (~13-30 ns/row on
#: the paper's Pandas + Xeon 6126 setup).
ROW_SCAN_SECONDS = 14e-9


@dataclass(frozen=True)
class QueryCost:
    """Modeled milliseconds for the three primitives of Table 11."""

    method: str
    dataset: str
    read_ms: float
    decode_ms: float
    query_ms: float

    @property
    def total_ms(self) -> float:
        return self.read_ms + self.decode_ms + self.query_ms


@dataclass(frozen=True)
class RangeScan:
    """Result of a chunk-granular range read through the stream index."""

    values: np.ndarray
    n_chunks: int  # chunk frames the range overlapped (0 for empty)
    bytes_read: int  # compressed payload bytes actually fetched
    read_ms: float  # modeled I/O time for those bytes/chunks


class QueryBenchmark:
    """Models the read + decode + scan pipeline for one method/dataset."""

    def __init__(
        self,
        perf: PerformanceModel | None = None,
        disk: DiskModel = DEFAULT_DISK,
        row_scan_seconds: float = ROW_SCAN_SECONDS,
    ) -> None:
        self.perf = perf or PerformanceModel()
        self.disk = disk
        self.row_scan_seconds = row_scan_seconds

    def model(
        self,
        compressor: Compressor,
        dataset_name: str,
        ratio: float,
        paper_bytes: int,
        paper_rows: int,
    ) -> QueryCost:
        """Paper-scale read + decode + scan times for a measured ``ratio``."""
        compressed_paper_bytes = int(paper_bytes / ratio)
        # 1. file I/O on the compressed stream
        read_s = self.disk.read_seconds(compressed_paper_bytes, n_chunks=1)
        # 2. decode, at the method's modeled decompression rate
        decode_s = self.perf.end_to_end_seconds(
            compressor.cost,
            paper_bytes,
            compressed_paper_bytes,
            direction="decompress",
        )
        # 3. full-table scans, at paper rows
        query_s = paper_rows * self.row_scan_seconds
        return QueryCost(
            method=compressor.info.name,
            dataset=dataset_name,
            read_ms=read_s * 1e3,
            decode_ms=decode_s * 1e3,
            query_ms=query_s * 1e3,
        )

    def run_range(self, session, start: int, stop: int) -> RangeScan:
        """Range read over an FCF stream: decode only overlapping chunks.

        ``session`` is a :class:`repro.api.DecompressSession`; bounds
        are normalized the way the session itself normalizes them —
        clamped to ``[0, n_elements]``, with an empty or reversed range
        (``stop <= start``) reading nothing at all: zero chunks, zero
        bytes, zero modeled I/O time.  A range reaching into the final
        partial chunk touches exactly that chunk's frame.
        """
        total = session.n_elements
        start = max(0, int(start))
        stop = min(int(stop), total)
        if stop <= start:
            return RangeScan(
                values=np.empty(0, dtype=session.dtype),
                n_chunks=0,
                bytes_read=0,
                read_ms=0.0,
            )
        starts = np.zeros(len(session.frames) + 1, dtype=np.int64)
        np.cumsum([f.n_elements for f in session.frames], out=starts[1:])
        first = int(np.searchsorted(starts, start, side="right")) - 1
        last = int(np.searchsorted(starts, stop, side="left")) - 1
        before = session.bytes_read
        values = session.read(start, stop)
        return RangeScan(
            values=values,
            n_chunks=last - first + 1,
            bytes_read=session.bytes_read - before,
            read_ms=self.disk.read_seconds(
                session.bytes_read - before, n_chunks=last - first + 1
            )
            * 1e3,
        )
