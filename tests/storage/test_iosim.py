"""Tests for the disk model."""

import pytest

from repro.storage.iosim import DEFAULT_DISK, DiskModel


def test_read_time_components():
    disk = DiskModel(bandwidth_gbs=1.0, seek_latency_s=0.001,
                     per_chunk_overhead_s=0.0001)
    t = disk.read_seconds(10**9, n_chunks=10)
    assert t == pytest.approx(0.001 + 0.001 + 1.0)


def test_zero_bytes_is_latency_only():
    assert DEFAULT_DISK.read_seconds(0) == pytest.approx(
        DEFAULT_DISK.seek_latency_s + DEFAULT_DISK.per_chunk_overhead_s
    )


def test_negative_rejected():
    with pytest.raises(ValueError):
        DEFAULT_DISK.read_seconds(-1)


def test_calibration_matches_table11_scale():
    # ~117 MB compressed reads in ~70-85 ms on the paper's node.
    t = DEFAULT_DISK.read_seconds(117_000_000)
    assert 0.05 < t < 0.1


def test_negative_chunk_count_rejected():
    with pytest.raises(ValueError):
        DEFAULT_DISK.read_seconds(100, n_chunks=-1)


def test_zero_chunks_is_seek_plus_bandwidth():
    disk = DiskModel(bandwidth_gbs=1.0, seek_latency_s=0.001,
                     per_chunk_overhead_s=0.5)
    assert disk.read_seconds(10**6, n_chunks=0) == pytest.approx(0.001 + 0.001)
