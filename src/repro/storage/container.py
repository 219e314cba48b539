"""HDF5-like chunked container built on embedded FCF streams.

The paper's simulated in-memory database (section 5.1.2, Figure 4)
stores compressed floating-point data in HDF5 files, reads chunks from
disk, decompresses them through a filter, and queries the decoded
in-memory table.

Since the streaming redesign the container is a thin envelope: a small
directory header maps dataset names to byte regions, and each region is
a complete FCF stream written by a
:class:`~repro.api.session.CompressSession` — the same frame format,
chunk index, hardened reader, and chunk-parallel path as user-facing
streams.  ``examples/insitu_visualization.py`` (the paper's section 1.1
in-situ use case) writes and reads timesteps through it.

Container layout (version 2)::

    magic b"FCBC" | version u8 | n_datasets uvarint
    per dataset: name length + UTF-8 name | stream length uvarint
    dataset 0 FCF stream | dataset 1 FCF stream | ...
"""

from __future__ import annotations

import io
import mmap
import os
from dataclasses import dataclass

import numpy as np

from repro.api.frames import read_layout
from repro.api.session import CompressSession, DecompressSession
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError, StorageError

__all__ = ["ChunkInfo", "DatasetInfo", "ContainerWriter", "ContainerReader"]

_MAGIC = b"FCBC"
_VERSION = 2
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass(frozen=True)
class ChunkInfo:
    """Index entry for one stored chunk."""

    n_elements: int
    compressed_bytes: int
    offset: int  # absolute file offset of the chunk payload


@dataclass(frozen=True)
class DatasetInfo:
    """Metadata for one stored dataset."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    filter_name: str
    chunks: tuple[ChunkInfo, ...]

    @property
    def raw_bytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * self.dtype.itemsize

    @property
    def compressed_bytes(self) -> int:
        return sum(chunk.compressed_bytes for chunk in self.chunks)

    @property
    def compression_ratio(self) -> float:
        stored = self.compressed_bytes
        return self.raw_bytes / stored if stored else float("inf")


class _FileRegion:
    """A seekable read-only view of ``[base, base + length)`` of a file.

    Lets :class:`~repro.api.session.DecompressSession` treat an embedded
    dataset stream exactly like a standalone FCF file.
    """

    def __init__(self, fh, base: int, length: int) -> None:
        self._fh = fh
        self._base = base
        self._length = length
        self._pos = 0

    def seek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = self._length + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return self._pos

    def tell(self) -> int:
        return self._pos

    def read(self, n: int = -1) -> bytes:
        remaining = max(self._length - self._pos, 0)
        if n < 0 or n > remaining:
            n = remaining
        self._fh.seek(self._base + self._pos)
        data = self._fh.read(n)
        self._pos += len(data)
        return data


class ContainerWriter:
    """Builds a container file dataset by dataset."""

    def __init__(self, chunk_elements: int = 8192) -> None:
        if chunk_elements < 1:
            raise ValueError("chunk_elements must be positive")
        self.chunk_elements = chunk_elements
        self._datasets: list[tuple[str, np.ndarray, str]] = []

    def add_dataset(
        self, name: str, array: np.ndarray, filter_name: str = "none"
    ) -> None:
        """Queue ``array`` for storage under ``name`` with a filter."""
        if any(existing == name for existing, *_ in self._datasets):
            raise StorageError(f"dataset {name!r} already added")
        if array.dtype not in _DTYPE_CODES:
            raise StorageError(
                f"container stores float32/float64 only, got {array.dtype}"
            )
        self._datasets.append((name, np.ascontiguousarray(array), filter_name))

    def save(self, path: str | os.PathLike) -> None:
        """Write every queued dataset to ``path``."""
        streams: list[bytes] = []
        for name, array, filter_name in self._datasets:
            buf = io.BytesIO()
            codec = None if filter_name == "none" else filter_name
            try:
                session = CompressSession(
                    buf,
                    codec,
                    array.dtype,
                    chunk_elements=self.chunk_elements,
                    shape=array.shape,
                )
            except KeyError as exc:  # unknown filter name
                raise StorageError(str(exc)) from exc
            session.write(array)
            session.close()
            streams.append(buf.getvalue())

        header = io.BytesIO()
        header.write(_MAGIC)
        header.write(bytes([_VERSION]))
        header.write(encode_uvarint(len(self._datasets)))
        for (name, *_), stream in zip(self._datasets, streams):
            name_bytes = name.encode()
            header.write(encode_uvarint(len(name_bytes)))
            header.write(name_bytes)
            header.write(encode_uvarint(len(stream)))
        with open(path, "wb") as fh:
            fh.write(header.getvalue())
            for stream in streams:
                fh.write(stream)


class ContainerReader:
    """Reads datasets back from a container file.

    :attr:`bytes_read` counts the compressed payload bytes decoded so far.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._datasets: dict[str, DatasetInfo] = {}
        self._regions: dict[str, tuple[int, int]] = {}  # name -> (base, length)
        #: name -> pre-parsed (header, index, data_start), so per-read
        #: sessions skip re-decoding the footer/index from disk.
        self._layouts: dict[str, tuple] = {}
        self.bytes_read = 0
        self._parse_index()

    def _parse_index(self) -> None:
        file_size = os.path.getsize(self.path)
        with open(self.path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise StorageError(f"{self.path} is not a container file")
            if file_size < 5:
                raise StorageError(f"{self.path} is truncated")
            # The directory is parsed from the whole file, however many
            # datasets it names. Each entry takes at least two bytes, so a
            # count the rest of the file cannot hold is refused up front:
            # the entries built grow with the file size, never the count.
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as head:
                if head[4] != _VERSION:
                    raise StorageError(f"unsupported container version {head[4]}")
                try:
                    n_datasets, pos = decode_uvarint(head, 5)
                    if n_datasets > (file_size - pos) // 2:
                        raise StorageError(
                            f"malformed container directory: {n_datasets} "
                            f"datasets cannot fit in {file_size} bytes"
                        )
                    entries: list[tuple[str, int]] = []
                    for _ in range(n_datasets):
                        name_len, pos = decode_uvarint(head, pos)
                        name = head[pos : pos + name_len].decode()
                        pos += name_len
                        stream_len, pos = decode_uvarint(head, pos)
                        entries.append((name, stream_len))
                except (CorruptStreamError, UnicodeDecodeError) as exc:
                    raise StorageError(
                        f"malformed container directory: {exc}"
                    ) from exc

            base = pos
            for name, stream_len in entries:
                if base + stream_len > file_size:
                    raise StorageError(
                        f"container trailer mismatch: dataset {name!r} "
                        f"extends to {base + stream_len} bytes, file has "
                        f"{file_size}"
                    )
                self._regions[name] = (base, stream_len)
                try:
                    header, index, data_start = read_layout(
                        _FileRegion(fh, base, stream_len)
                    )
                except CorruptStreamError as exc:
                    raise StorageError(
                        f"dataset {name!r} holds a corrupt stream: {exc}"
                    ) from exc
                self._layouts[name] = (header, index, data_start)
                chunks = tuple(
                    ChunkInfo(f.n_elements, f.compressed_bytes, base + f.offset)
                    for f in index.frames
                )
                self._datasets[name] = DatasetInfo(
                    name, header.dtype, index.shape, header.codec, chunks
                )
                base += stream_len
            if base != file_size:
                raise StorageError(
                    f"container trailer mismatch: expected {base} bytes, "
                    f"file has {file_size}"
                )

    def dataset_names(self) -> list[str]:
        return list(self._datasets)

    def info(self, name: str) -> DatasetInfo:
        try:
            return self._datasets[name]
        except KeyError:
            raise StorageError(f"no dataset {name!r} in {self.path}") from None

    def _session(self, fh, name: str) -> DecompressSession:
        base, length = self._regions[name]
        return DecompressSession(
            _FileRegion(fh, base, length), layout=self._layouts[name]
        )

    def read_dataset(self, name: str) -> np.ndarray:
        """Read and decode a dataset; updates :attr:`bytes_read`."""
        info = self.info(name)
        with open(self.path, "rb") as fh:
            try:
                with self._session(fh, name) as session:
                    flat = (
                        session.read()
                        if session.frames
                        else np.empty(0, dtype=info.dtype)
                    )
                    self.bytes_read += session.bytes_read
            except CorruptStreamError as exc:
                raise StorageError(
                    f"dataset {name!r} failed to decode: {exc}"
                ) from exc
        return flat.reshape(info.shape)
