"""Disk I/O model for read-time accounting (Table 11).

The paper measures file-I/O time for retrieving compressed chunks from
HDF5 files on the Chameleon node's local storage.  The reproduction
models the drive with a latency + bandwidth pair calibrated against
Table 11's read column (~1.5 GB/s effective with ~1 ms of per-dataset
overhead), so read time scales with each method's *compressed* size —
the effect the paper's read column demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiskModel", "DEFAULT_DISK"]


@dataclass(frozen=True)
class DiskModel:
    """Sequential read disk model: latency + per-chunk + bandwidth."""

    bandwidth_gbs: float = 1.55
    seek_latency_s: float = 0.0008
    per_chunk_overhead_s: float = 0.00002

    def read_seconds(self, nbytes: int, n_chunks: int = 1) -> float:
        """Modeled wall time to read ``nbytes`` split over ``n_chunks``."""
        if nbytes < 0 or n_chunks < 0:
            raise ValueError("read size and chunk count must be non-negative")
        return (
            self.seek_latency_s
            + n_chunks * self.per_chunk_overhead_s
            + nbytes / (self.bandwidth_gbs * 1e9)
        )


DEFAULT_DISK = DiskModel()
