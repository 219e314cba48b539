"""Block/page-oriented compression (Table 10's block-size study).

Database pages are small (4-8 KB) while compressors prefer larger
blocks (64 KB - 8 MB); section 6.2.1 measures how ratio and throughput
respond when each method compresses page-sized units independently.

Since the streaming redesign this module is a thin projection of the
session API: :func:`paged_compress` writes one FCF stream whose frame
granularity is the page size (optionally chunk-parallel via ``jobs``),
and :class:`PagedResult` exposes the per-page payload slices.  Table 10
itself takes only :data:`PAGE_SIZES` from here: its cells are the same
page-granular streams, measured and stored as experiment-database
stream cells (:func:`repro.core.experiments.table10_blocksize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.session import DecompressSession, compress_array
from repro.compressors.base import Compressor

__all__ = ["PagedResult", "paged_compress", "paged_decompress", "PAGE_SIZES"]

#: The three block sizes of Table 10.
PAGE_SIZES = {"4K": 4 * 1024, "64K": 64 * 1024, "8M": 8 * 1024 * 1024}


@dataclass(frozen=True)
class PagedResult:
    """Outcome of compressing one array in fixed-size pages.

    ``stream`` is the complete FCF stream; ``page_blobs`` are its raw
    per-page frame payloads (no per-page headers — the stream header and
    chunk index carry the metadata once).
    """

    page_bytes: int
    n_pages: int
    raw_bytes: int
    compressed_bytes: int
    page_blobs: tuple[bytes, ...]
    stream: bytes = b""

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes


def paged_compress(
    compressor: Compressor,
    array: np.ndarray,
    page_bytes: int,
    jobs: int | None = None,
) -> PagedResult:
    """Compress ``array`` in independent pages of ``page_bytes``."""
    if page_bytes < array.dtype.itemsize:
        raise ValueError(
            f"page of {page_bytes} bytes cannot hold one "
            f"{array.dtype.itemsize}-byte element"
        )
    flat = np.ascontiguousarray(array).ravel()
    per_page = max(page_bytes // flat.dtype.itemsize, 1)
    stream = compress_array(flat, compressor, chunk_elements=per_page, jobs=jobs)
    with DecompressSession(stream) as session:
        blobs = tuple(
            stream[frame.offset : frame.offset + frame.compressed_bytes]
            for frame in session.frames
        )
    return PagedResult(
        page_bytes=page_bytes,
        n_pages=len(blobs),
        raw_bytes=flat.nbytes,
        compressed_bytes=sum(len(blob) for blob in blobs),
        page_blobs=blobs,
        stream=stream,
    )


def paged_decompress(
    compressor: Compressor, result: PagedResult, dtype: np.dtype
) -> np.ndarray:
    """Reassemble the flat array from a :class:`PagedResult`."""
    if not result.page_blobs:
        return np.empty(0, dtype=dtype)
    with DecompressSession(result.stream) as session:
        return session.read_all().astype(dtype, copy=False)
