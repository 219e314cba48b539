"""Tests for the chunked container file format."""

import numpy as np
import pytest

from repro.data import load
from repro.errors import StorageError
from repro.storage.container import ContainerReader, ContainerWriter


@pytest.fixture
def sample(tmp_path):
    arr = load("gas-price", 4096).copy()
    w = ContainerWriter(chunk_elements=1024)
    w.add_dataset("gas", arr, filter_name="bitshuffle-lz4")
    w.add_dataset("raw", arr, filter_name="none")
    path = tmp_path / "sample.fcbc"
    w.save(path)
    return path, arr


def test_roundtrip_filtered(sample):
    path, arr = sample
    r = ContainerReader(path)
    np.testing.assert_array_equal(
        r.read_dataset("gas").view(np.uint64), arr.view(np.uint64)
    )


def test_roundtrip_raw(sample):
    path, arr = sample
    np.testing.assert_array_equal(ContainerReader(path).read_dataset("raw"), arr)


def test_info_and_compression_ratio(sample):
    path, arr = sample
    info = ContainerReader(path).info("gas")
    assert info.raw_bytes == arr.nbytes
    assert info.compression_ratio > 1.0
    assert info.filter_name == "bitshuffle-lz4"
    assert len(info.chunks) == -(-arr.size // 1024)


def test_bytes_read_accounting(sample):
    path, _ = sample
    r = ContainerReader(path)
    assert r.bytes_read == 0
    r.read_dataset("gas")
    assert r.bytes_read == r.info("gas").compressed_bytes


def test_duplicate_dataset_rejected():
    w = ContainerWriter()
    w.add_dataset("x", np.ones(4))
    with pytest.raises(StorageError, match="already added"):
        w.add_dataset("x", np.ones(4))


def test_integer_data_rejected():
    with pytest.raises(StorageError):
        ContainerWriter().add_dataset("x", np.arange(4))


def test_unknown_dataset(sample):
    path, _ = sample
    with pytest.raises(StorageError, match="no dataset"):
        ContainerReader(path).info("nope")


def test_not_a_container(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a container file")
    with pytest.raises(StorageError):
        ContainerReader(path)


def test_truncated_file_detected(sample, tmp_path):
    path, _ = sample
    data = path.read_bytes()
    short = tmp_path / "short.fcbc"
    short.write_bytes(data[: len(data) - 10])
    with pytest.raises(StorageError, match="trailer"):
        ContainerReader(short)


def test_f32_dataset_with_double_only_filter(tmp_path):
    arr = load("rsim", 2048).copy()
    w = ContainerWriter(chunk_elements=512)
    w.add_dataset("rsim", arr, filter_name="pfpc")
    path = tmp_path / "f32.fcbc"
    w.save(path)
    out = ContainerReader(path).read_dataset("rsim")
    np.testing.assert_array_equal(out.view(np.uint32), arr.view(np.uint32))


def test_empty_dataset(tmp_path):
    w = ContainerWriter()
    w.add_dataset("empty", np.array([], dtype=np.float64), "chimp")
    path = tmp_path / "empty.fcbc"
    w.save(path)
    assert ContainerReader(path).read_dataset("empty").size == 0


def test_multidim_shape_preserved(tmp_path):
    arr = np.random.default_rng(0).normal(0, 1, (13, 5, 7))
    w = ContainerWriter(chunk_elements=64)
    w.add_dataset("cube", arr, "gorilla")
    path = tmp_path / "cube.fcbc"
    w.save(path)
    out = ContainerReader(path).read_dataset("cube")
    assert out.shape == (13, 5, 7)
    np.testing.assert_array_equal(out, arr)


def test_directory_larger_than_a_mebibyte(tmp_path):
    # 600 datasets behind 2 KB names: a 1.2 MB name directory, read from
    # the file itself rather than from a fixed-size head of it.
    names = [f"{i:04d}".ljust(2000, "x") for i in range(600)]
    w = ContainerWriter()
    for i, name in enumerate(names):
        w.add_dataset(name, np.array([float(i)]))
    path = tmp_path / "wide.fcbc"
    w.save(path)
    assert path.stat().st_size > 1 << 20
    r = ContainerReader(path)
    assert r.dataset_names() == names
    assert r.read_dataset(names[-1]).tolist() == [599.0]


def test_forged_dataset_count_is_malformed(sample, tmp_path):
    path, _ = sample
    data = path.read_bytes()
    forged = tmp_path / "forged.fcbc"
    # Claim 2**62 datasets: parsing stops at the end of the file.
    forged.write_bytes(data[:5] + b"\x80" * 8 + b"\x40" + data[6:])
    with pytest.raises(StorageError, match="malformed container directory"):
        ContainerReader(forged)


def test_forged_count_over_zero_payload_is_refused_up_front(tmp_path):
    # Zeros stored raw parse as ('', 0) directory entries of two bytes
    # each, so a forged count is refused before any entry is built.
    w = ContainerWriter()
    w.add_dataset("z", np.zeros(4096), filter_name="none")
    path = tmp_path / "zeros.fcbc"
    w.save(path)
    data = path.read_bytes()
    assert data[5] == 1  # one dataset, a one-byte count
    forged = tmp_path / "forged-zeros.fcbc"
    forged.write_bytes(data[:5] + b"\x80" * 8 + b"\x40" + data[6:])
    with pytest.raises(StorageError, match="datasets cannot fit"):
        ContainerReader(forged)


def test_unsupported_version(sample, tmp_path):
    path, _ = sample
    data = bytearray(path.read_bytes())
    data[4] = 9
    other = tmp_path / "v9.fcbc"
    other.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="unsupported container version 9"):
        ContainerReader(other)


def test_magic_alone_is_truncated(tmp_path):
    path = tmp_path / "magic.fcbc"
    path.write_bytes(b"FCBC")
    with pytest.raises(StorageError, match="truncated"):
        ContainerReader(path)


def test_unicode_dataset_names(tmp_path):
    w = ContainerWriter()
    w.add_dataset("température/ε", np.arange(3.0), "gorilla")
    path = tmp_path / "utf8.fcbc"
    w.save(path)
    r = ContainerReader(path)
    assert r.dataset_names() == ["température/ε"]
    assert r.read_dataset("température/ε").tolist() == [0.0, 1.0, 2.0]
