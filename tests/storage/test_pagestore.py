"""Tests for page-granular (block) compression, Table 10's unit.

A page store is an FCF stream whose chunks are one page each:
``compress_array(chunk_elements=page_bytes // itemsize)``, the stream
cell :func:`repro.core.experiments.table10_blocksize` measures.
"""

import numpy as np
import pytest

from repro.api.session import DecompressSession, compress_array
from repro.core import experiments as exp
from repro.data import load


def _paged(arr: np.ndarray, codec: str, page_bytes: int) -> bytes:
    return compress_array(
        arr, codec, chunk_elements=page_bytes // arr.dtype.itemsize
    )


def test_page_sizes_match_table10():
    assert exp.PAGE_SIZES == {"4K": 4096, "64K": 65536, "8M": 8 * 1024 * 1024}


def test_roundtrip_all_page_sizes():
    arr = load("gas-price", 4096).copy().ravel()
    for page_bytes in exp.PAGE_SIZES.values():
        with DecompressSession(_paged(arr, "chimp", page_bytes)) as session:
            out = session.read_all()
        np.testing.assert_array_equal(out.view(np.uint64), arr.view(np.uint64))


def test_page_accounting():
    arr = np.ones(4096)
    with DecompressSession(_paged(arr, "gorilla", 4096)) as session:
        assert len(session.frames) == arr.nbytes // 4096
        assert all(f.n_elements == 4096 // 8 for f in session.frames)
        session.read_all()
        assert session.bytes_read == sum(
            f.compressed_bytes for f in session.frames
        )


def test_larger_pages_help_ratio():
    # Table 10's takeaway: compressors prefer larger blocks.
    arr = load("gas-price", 8192).copy().ravel()
    small = _paged(arr, "chimp", 2048)
    large = _paged(arr, "chimp", 64 * 1024)
    with DecompressSession(small) as s, DecompressSession(large) as l:
        small_payload = sum(f.compressed_bytes for f in s.frames)
        large_payload = sum(f.compressed_bytes for f in l.frames)
    assert large_payload <= small_payload
    assert len(large) <= len(small)


def test_tiny_page_rejected():
    with pytest.raises(ValueError):
        _paged(np.ones(10), "chimp", 4)


def test_empty_array():
    stream = _paged(np.array([], dtype=np.float64), "chimp", 4096)
    with DecompressSession(stream) as session:
        assert len(session.frames) == 0
        assert session.read_all().size == 0
