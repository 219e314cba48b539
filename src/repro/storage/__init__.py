"""Simulated in-memory database substrate (paper section 5.1.2).

The HDF5-like chunked container (:mod:`repro.storage.container`), and
the disk and query cost models Table 11 renders from
(:mod:`repro.storage.iosim`, :mod:`repro.storage.query`).
"""

from repro.storage.container import (
    ChunkInfo,
    ContainerReader,
    ContainerWriter,
    DatasetInfo,
)

__all__ = ["ChunkInfo", "ContainerReader", "ContainerWriter", "DatasetInfo"]
