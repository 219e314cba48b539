"""Query cost model (paper section 6.2.2, Table 11).

Models the three primitive operations of the simulated in-memory
database:

1. **file I/O** — read the compressed data from disk (time modeled from
   compressed size via :data:`~repro.storage.iosim.DEFAULT_DISK`),
2. **data decoding** — decompress into memory (time modeled from the
   method's decompression-throughput cost model at paper scale),
3. **full table scan** — ``df.loc[df.A <= v]`` for ten histogram-derived
   predicate values (identical across methods, as the paper observes,
   because the decoded frames are the same).

All three are modeled at the dataset's *paper-scale* size from one
measured number, the method's compression ratio (a suite cell's, so the
codec saw the data under the one float32 rule): :func:`query_cost` is a
pure function of it, which is how Table 11 renders from the result
store's whole-array cells without compressing anything.  Scan cost uses
a per-row constant calibrated to Table 11's query column, so the
reported milliseconds are comparable with the published table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compressors.base import Compressor
from repro.perf.timing import PerformanceModel
from repro.storage.iosim import DEFAULT_DISK

__all__ = ["QueryCost", "query_cost"]

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


def query_cost(
    compressor: Compressor,
    dataset_name: str,
    ratio: float,
    paper_bytes: int,
    paper_rows: int,
) -> QueryCost:
    """Paper-scale read + decode + scan times for a measured ``ratio``."""
    compressed_paper_bytes = int(paper_bytes / ratio)
    # 1. file I/O on the compressed stream
    read_s = DEFAULT_DISK.read_seconds(compressed_paper_bytes, n_chunks=1)
    # 2. decode, at the method's modeled decompression rate
    decode_s = PerformanceModel().end_to_end_seconds(
        compressor.cost,
        paper_bytes,
        compressed_paper_bytes,
        direction="decompress",
    )
    # 3. full-table scans, at paper rows
    query_s = paper_rows * ROW_SCAN_SECONDS
    return QueryCost(
        method=compressor.info.name,
        dataset=dataset_name,
        read_ms=read_s * 1e3,
        decode_ms=decode_s * 1e3,
        query_ms=query_s * 1e3,
    )
