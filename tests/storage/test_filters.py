"""Tests for the container's chunk filters.

A container dataset is an FCF stream, so its filters are the frame
payload codecs of :mod:`repro.api.frames`: identity plus every method.
"""

import numpy as np
import pytest

from repro.api import frames
from repro.errors import CorruptStreamError, StorageError
from repro.storage.container import ContainerWriter


def test_identity_filter():
    arr = np.arange(8, dtype=np.float64)
    blob = frames.encode_payload(None, arr)
    np.testing.assert_array_equal(
        frames.decode_payload(None, blob, 8, arr.dtype), arr
    )


def test_every_registered_compressor_is_a_filter():
    filters = frames.available_codecs()
    assert "none" in filters
    assert "bitshuffle-zstd" in filters
    assert len(filters) == 16  # identity + 15 methods


def test_unknown_filter(tmp_path):
    writer = ContainerWriter()
    writer.add_dataset("x", np.ones(4), filter_name="gzip")
    with pytest.raises(StorageError, match="gzip"):
        writer.save(tmp_path / "x.fcbc")


def test_f32_reinterpret_roundtrip():
    arr = np.random.default_rng(0).normal(0, 1, 101).astype(np.float32)
    gfc = frames.resolve_codec("gfc")
    blob = frames.encode_payload(gfc, arr)  # double-only: odd f32 count
    out = frames.decode_payload(gfc, blob, 101, np.dtype(np.float32))
    np.testing.assert_array_equal(out.view(np.uint32), arr.view(np.uint32))


def test_element_count_validated():
    blob = frames.encode_payload(None, np.ones(4))
    with pytest.raises(CorruptStreamError):
        frames.decode_payload(None, blob, 5, np.dtype(np.float64))
