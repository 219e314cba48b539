"""Streaming compression sessions over the FCF frame format.

:class:`CompressSession` accepts arrays of any size through
:meth:`~CompressSession.write`, cuts them into fixed-element chunk
frames, compresses each frame independently — optionally fanning frames
out over the :func:`repro.parallel.map_ordered` process pool — and
writes a seekable FCF stream with bounded memory: at most one partial
chunk plus one flush batch is ever buffered, regardless of how much
data passes through.

:class:`DecompressSession` is the reading half: it loads the chunk
index once, then serves whole-stream iteration, bounded-memory chunk
iteration, and O(1)-seek random access via
:meth:`~DecompressSession.read`; only the frames overlapping the
requested element range are read and decoded.

The chunk-parallel path is byte-identical to the serial one *by
construction*: frames are compressed independently and written in frame
order, so the worker count can never change the output stream.

Usage::

    with open_stream("field.fcf", "wb", codec="gorilla") as out:
        for block in simulation:          # any chunking the producer likes
            out.write(block)

    with open_stream("field.fcf") as stream:
        window = stream.read(10_000, 20_000)   # touches 1-2 frames only
"""

from __future__ import annotations

import io
import os
import zlib
from collections import Counter
from functools import lru_cache, partial

import numpy as np

from repro.api import frames as _frames
from repro.api.frames import (
    AUTO_CODEC,
    DEFAULT_CHUNK_ELEMENTS,
    FORMAT_V2,
    FORMAT_VERSION,
    RAW_CODEC,
    FrameInfo,
    StreamHeader,
    decode_mixed_frame,
    decode_payload,
    encode_payload,
    read_layout,
    resolve_codec,
)
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import SelectionError, StreamClosedError, UnsupportedDtypeError
from repro.parallel import map_ordered, resolve_jobs

__all__ = [
    "CompressSession",
    "DecompressSession",
    "open_stream",
    "compress_array",
    "decompress_array",
]


def _resolve_writer_codec(codec) -> tuple[str, object]:
    """Accept a codec name, a Compressor instance, or None (identity)."""
    from repro.compressors import get_compressor
    from repro.compressors.base import Compressor

    if codec is None or codec == RAW_CODEC:
        return RAW_CODEC, None
    if isinstance(codec, Compressor):
        return codec.info.name, codec
    return codec, get_compressor(codec)  # KeyError lists known names


def _is_auto_codec(codec) -> bool:
    """True for the ``auto`` pseudo-codec or a policy instance."""
    if codec is None or isinstance(codec, str):
        # A codec name settles it without loading the selection stack.
        return codec == AUTO_CODEC
    from repro.select.policy import SelectionPolicy

    return isinstance(codec, SelectionPolicy)


def _encode_auto_frame(policy, codec_table: tuple[str, ...], chunk) -> bytes:
    """Select a codec for ``chunk`` and encode one v2 frame.

    Top-level (picklable) so the chunk-parallel path can ship it to
    workers; the policy is a pure function of the chunk bytes, so the
    parallel stream stays byte-identical to the serial one.
    """
    from repro.select.policy import codec_instance

    name = policy.select(chunk)
    try:
        index = codec_table.index(name)
    except ValueError:
        raise SelectionError(
            f"policy {policy.name!r} chose {name!r}, which is not in the "
            f"stream codec table {codec_table}"
        ) from None
    return encode_uvarint(index) + encode_payload(codec_instance(name), chunk)


@lru_cache(maxsize=None)
def _resolved_table(codec_table: tuple[str, ...]) -> tuple:
    """Per-process memo of a v2 codec table's compressor instances."""
    return tuple(resolve_codec(name) for name in codec_table)


class CompressSession:
    """Incrementally compress a float stream into FCF frames.

    Parameters
    ----------
    fileobj:
        Writable binary stream.  The session writes the header
        immediately and the index/footer on :meth:`close`; it never
        closes a file object it did not open (see :func:`open_stream`).
    codec:
        Registered method name, a ``Compressor`` instance,
        ``"none"``/``None`` for raw storage, or ``"auto"`` (equally, a
        :class:`~repro.select.policy.SelectionPolicy` instance) for
        adaptive per-chunk selection — the stream is then written in
        format v2 with a codec table and per-frame codec ids.
    dtype:
        Element dtype of the stream (float32/float64).  Chunks written
        with any other dtype are rejected — resampling silently would
        break bit-exactness.
    chunk_elements:
        Frame granularity.  Every frame except the last holds exactly
        this many elements.
    jobs:
        Worker processes for frame compression (``None`` → serial,
        ``0`` → auto-detect; same resolution as the suite).
    shape:
        Optional logical shape recorded in the index; defaults to the
        flat ``(total_elements,)``.  The element product must match the
        data actually written.
    policy:
        Selection policy for ``codec="auto"``: a policy name
        (``"heuristic"`` or ``"measured"``) or a
        :class:`~repro.select.policy.SelectionPolicy` instance.
        Ignored unless the codec is adaptive.
    """

    def __init__(
        self,
        fileobj,
        codec,
        dtype=np.float64,
        *,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        jobs: int | None = None,
        shape: tuple[int, ...] | None = None,
        policy="heuristic",
    ) -> None:
        if chunk_elements < 1:
            raise ValueError("chunk_elements must be positive")
        self._fh = fileobj
        self._policy = None
        self._codec_table: tuple[str, ...] = ()
        #: Frames written per selected codec (auto streams only).
        self.codec_frames: Counter[str] = Counter()
        if _is_auto_codec(codec):
            from repro.select.policy import codec_instance, resolve_policy

            self._policy = resolve_policy(codec if codec != AUTO_CODEC else policy)
            self._codec_table = tuple(self._policy.candidates)
            for name in self._codec_table:
                codec_instance(name)  # KeyError here lists known names
            self.codec_name, self._compressor = AUTO_CODEC, None
        else:
            self.codec_name, self._compressor = _resolve_writer_codec(codec)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise UnsupportedDtypeError(
                f"FCF streams hold float32/float64, got {self.dtype}"
            )
        self.chunk_elements = int(chunk_elements)
        self.jobs = jobs
        self._shape = tuple(int(e) for e in shape) if shape is not None else None
        self._owns_file = False
        self._closed = False
        self.frames: list[FrameInfo] = []
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self._total_elements = 0
        # Bounded buffering: pieces of the current partial chunk, plus
        # whole chunks awaiting one batched (possibly parallel) flush.
        self._partial: list[np.ndarray] = []
        self._partial_count = 0
        self._queue: list[np.ndarray] = []
        self._flush_batch = 4 * max(1, resolve_jobs(jobs))
        if self._policy is not None:
            self.format_version = FORMAT_V2
            header = StreamHeader(
                self.codec_name,
                self.dtype,
                self.chunk_elements,
                version=FORMAT_V2,
                codec_table=self._codec_table,
            )
        else:
            self.format_version = FORMAT_VERSION
            header = StreamHeader(self.codec_name, self.dtype, self.chunk_elements)
        self._data_start = len(header.encode())
        self._fh.write(header.encode())

    # -- writing -------------------------------------------------------
    def write(self, chunk) -> int:
        """Append ``chunk`` (any shape) to the stream; returns its size.

        The chunk is snapshotted before returning: compression is
        batched (and possibly parallel), so holding zero-copy views
        here would silently corrupt frames whenever the caller reuses
        its buffer between writes — the standard ingest pattern.
        """
        if self._closed:
            raise StreamClosedError("write() on a closed CompressSession")
        array = np.asarray(chunk)
        if array.dtype != self.dtype:
            raise UnsupportedDtypeError(
                f"session holds {self.dtype} data, got a {array.dtype} chunk "
                "(cast explicitly if that is intended)"
            )
        flat = np.array(array, copy=True).ravel()
        self._total_elements += flat.size
        self.raw_bytes += flat.nbytes
        while flat.size:
            need = self.chunk_elements - self._partial_count
            piece, flat = flat[:need], flat[need:]
            self._partial.append(piece)
            self._partial_count += piece.size
            if self._partial_count == self.chunk_elements:
                self._queue.append(self._take_partial())
                if len(self._queue) >= self._flush_batch:
                    self._flush_queue()
        return int(array.size)

    def _take_partial(self) -> np.ndarray:
        chunk = (
            self._partial[0]
            if len(self._partial) == 1
            else np.concatenate(self._partial)
        )
        self._partial = []
        self._partial_count = 0
        return chunk

    def _flush_queue(self) -> None:
        if not self._queue:
            return
        if self._policy is not None:
            encode = partial(_encode_auto_frame, self._policy, self._codec_table)
        else:
            encode = partial(encode_payload, self._compressor)
        payloads = map_ordered(encode, self._queue, jobs=self.jobs)
        for chunk, payload in zip(self._queue, payloads):
            if self._policy is not None:
                index, _ = decode_uvarint(payload, 0)
                self.codec_frames[self._codec_table[index]] += 1
            self._fh.write(payload)
            self.frames.append(
                FrameInfo(
                    n_elements=int(chunk.size),
                    compressed_bytes=len(payload),
                    offset=self._data_start + self.compressed_bytes,
                    crc32=zlib.crc32(payload) & 0xFFFFFFFF,
                )
            )
            self.compressed_bytes += len(payload)
        self._queue = []

    # -- finalization --------------------------------------------------
    def close(self) -> None:
        """Flush pending data and write the chunk index + footer.

        On any failure the session still ends: an owned file is closed
        (and left unterminated, so readers fail loudly) rather than
        leaking its descriptor.
        """
        if self._closed:
            return
        try:
            shape = (
                self._shape if self._shape is not None
                else (self._total_elements,)
            )
            count = 1
            for extent in shape:
                count *= extent
            if count != self._total_elements:
                raise ValueError(
                    f"shape {shape} declares {count} elements, "
                    f"{self._total_elements} were written"
                )
            if self._partial_count:
                self._queue.append(self._take_partial())
            self._flush_queue()
            index = _frames.encode_index(
                [(f.n_elements, f.compressed_bytes, f.crc32)
                 for f in self.frames],
                shape,
            )
            self._fh.write(index)
            self._fh.write(len(index).to_bytes(8, "little"))
            self._fh.write(_frames.END_MAGIC)
        except BaseException:
            self._closed = True
            if self._owns_file:
                self._fh.close()
            raise
        self._closed = True
        if self._owns_file:
            self._fh.close()

    def __enter__(self) -> "CompressSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On error, leave the stream unterminated (no index/footer): a
        # reader then fails loudly instead of seeing a silently short
        # but valid-looking file.
        if exc_type is None:
            self.close()
        elif self._owns_file and not self._closed:
            self._closed = True
            self._fh.close()


class DecompressSession:
    """Random-access reader for FCF streams.

    The chunk index is loaded once at construction; afterwards
    :meth:`read` touches only the frames overlapping the requested range.

    Parameters
    ----------
    source:
        A path, a readable+seekable binary file object, or a bytes-like
        blob (wrapped without copying).
    jobs:
        Worker processes for chunk decoding (``None`` → serial, ``0`` →
        all cores).
    """

    def __init__(self, source, *, jobs: int | None = None, layout=None) -> None:
        self._owns_file = False
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._fh = io.BytesIO(source)
        elif isinstance(source, (str, os.PathLike)):
            self._fh = open(source, "rb")
            self._owns_file = True
        else:
            self._fh = source
        self.jobs = jobs
        self._closed = False
        #: Compressed payload bytes actually read so far (header/index
        #: parsing excluded) — the disk-volume figure Table 11 models.
        self.bytes_read = 0
        if layout is not None:
            # A caller that already parsed the stream (e.g. the
            # container, which opens one session per read) hands the
            # (header, index, data_start) triple in to skip the
            # footer/index re-parse.
            header, index, self._data_start = layout
        else:
            header, index, self._data_start = read_layout(self._fh)
        self.codec_name = header.codec
        self.dtype = header.dtype
        self.chunk_elements = header.chunk_elements
        self.format_version = header.version
        self.codec_table = header.codec_table
        self.frames = index.frames
        self.shape = index.shape
        if header.version == FORMAT_V2:
            # Mixed-codec stream: frames carry their own codec ids; an
            # unknown table entry is unreadable, surfaced here exactly
            # like an unknown v1 header codec.
            self._compressor = None
            self._compressors = _resolved_table(header.codec_table)
        else:
            self._compressor = resolve_codec(header.codec)
            self._compressors = ()
        # Cumulative element offsets: frame i spans [starts[i], starts[i+1]).
        self._starts = np.zeros(len(self.frames) + 1, dtype=np.int64)
        np.cumsum([f.n_elements for f in self.frames], out=self._starts[1:])

    # -- metadata ------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return int(self._starts[-1])

    @property
    def n_chunks(self) -> int:
        return len(self.frames)

    @property
    def compressed_bytes(self) -> int:
        return sum(f.compressed_bytes for f in self.frames)

    # -- reading -------------------------------------------------------
    def _read_payloads(self, first: int, last: int) -> tuple[memoryview, list]:
        """One contiguous read covering frames ``first..last`` inclusive."""
        if self._closed:
            raise StreamClosedError("read on a closed DecompressSession")
        lo = self.frames[first]
        hi = self.frames[last]
        self._fh.seek(lo.offset)
        blob = memoryview(
            self._fh.read(hi.offset + hi.compressed_bytes - lo.offset)
        )
        self.bytes_read += len(blob)
        views = []
        for frame in self.frames[first : last + 1]:
            start = frame.offset - lo.offset
            views.append(
                (
                    blob[start : start + frame.compressed_bytes],
                    frame.n_elements,
                    frame.crc32,
                )
            )
        return blob, views

    def _decode_frames(self, views: list) -> list[np.ndarray]:
        jobs = resolve_jobs(self.jobs)
        mixed = self.format_version == FORMAT_V2
        if jobs > 1 and len(views) > 1:
            # Workers need picklable payloads; the copy is the price of
            # fan-out (the serial path below stays zero-copy).
            items = [(bytes(payload), n, crc) for payload, n, crc in views]
            worker = (
                partial(_decode_item_mixed, self.codec_table, self.dtype)
                if mixed
                else partial(_decode_item, self._compressor, self.dtype)
            )
            return map_ordered(worker, items, jobs=jobs)
        if mixed:
            return [
                decode_mixed_frame(self._compressors, payload, n, self.dtype, crc)
                for payload, n, crc in views
            ]
        return [
            decode_payload(self._compressor, payload, n, self.dtype, crc)
            for payload, n, crc in views
        ]

    def frame_codec_names(self) -> list[str]:
        """The codec that compressed each frame, in frame order.

        Uniformly the header codec for v1 streams; for v2 the leading
        codec id of every frame is read (a few bytes per frame, no
        payload decode).
        """
        if self.format_version != FORMAT_V2:
            return [self.codec_name] * len(self.frames)
        if self._closed:
            raise StreamClosedError("read on a closed DecompressSession")
        names = []
        for frame in self.frames:
            self._fh.seek(frame.offset)
            head = self._fh.read(min(10, frame.compressed_bytes))
            index, _ = decode_uvarint(head, 0)
            if index >= len(self.codec_table):
                from repro.errors import CorruptStreamError

                raise CorruptStreamError(
                    f"frame names codec-table entry {index}, "
                    f"table holds {len(self.codec_table)}"
                )
            names.append(self.codec_table[index])
        return names

    def chunks(self):
        """Iterate decoded chunks in order with bounded memory."""
        for index in range(len(self.frames)):
            _, views = self._read_payloads(index, index)
            yield self._decode_frames(views)[0]

    def __iter__(self):
        return self.chunks()

    def read(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Decode elements ``[start, stop)`` of the flattened array.

        Only the overlapping frames are read from the underlying stream
        and decompressed; everything else is skipped via the index.
        """
        total = self.n_elements
        if stop is None:
            stop = total
        start, stop = max(0, int(start)), min(int(stop), total)
        if stop <= start:
            return np.empty(0, dtype=self.dtype)
        first = int(np.searchsorted(self._starts, start, side="right")) - 1
        last = int(np.searchsorted(self._starts, stop, side="left")) - 1
        _, views = self._read_payloads(first, last)
        pieces = self._decode_frames(views)
        flat = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        base = int(self._starts[first])
        return flat[start - base : stop - base]

    def read_all(self) -> np.ndarray:
        """Decode the whole stream, restored to its logical shape."""
        if not self.frames:
            return np.empty(self.shape or (0,), dtype=self.dtype)
        return self.read().reshape(self.shape)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_file:
            self._fh.close()

    def __enter__(self) -> "DecompressSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _decode_item(compressor, dtype, item) -> np.ndarray:
    """Top-level (picklable) worker for parallel frame decoding."""
    payload, n_elements, crc32 = item
    return decode_payload(compressor, payload, n_elements, dtype, crc32)


def _decode_item_mixed(codec_table, dtype, item) -> np.ndarray:
    """Parallel-decode worker for v2 frames (resolves the table once
    per process via the memo)."""
    payload, n_elements, crc32 = item
    return decode_mixed_frame(
        _resolved_table(tuple(codec_table)), payload, n_elements, dtype, crc32
    )


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def open_stream(
    path,
    mode: str = "rb",
    *,
    codec=None,
    dtype=np.float64,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    jobs: int | None = None,
    shape: tuple[int, ...] | None = None,
    policy="heuristic",
):
    """Open an FCF file for streaming, like :func:`open` for arrays.

    ``mode="rb"`` returns a :class:`DecompressSession`; ``mode="wb"``
    returns a :class:`CompressSession` (``codec`` required; pass
    ``codec="auto"`` with an optional ``policy=`` for adaptive
    per-chunk selection).  Both own the underlying file and close it
    with the session.
    """
    if mode == "rb":
        return DecompressSession(os.fspath(path), jobs=jobs)
    if mode != "wb":
        raise ValueError(f"mode must be 'rb' or 'wb', got {mode!r}")
    if codec is None:
        raise ValueError("open_stream(mode='wb') requires codec=...")
    fh = open(path, "wb")
    try:
        session = CompressSession(
            fh,
            codec,
            dtype,
            chunk_elements=chunk_elements,
            jobs=jobs,
            shape=shape,
            policy=policy,
        )
    except BaseException:
        fh.close()
        raise
    session._owns_file = True
    return session


def compress_array(
    array,
    codec,
    *,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    jobs: int | None = None,
    policy="heuristic",
) -> bytes:
    """Compress a whole array into an in-memory FCF stream."""
    array = np.asarray(array)
    buf = io.BytesIO()
    session = CompressSession(
        buf,
        codec,
        array.dtype,
        chunk_elements=chunk_elements,
        jobs=jobs,
        shape=array.shape,
        policy=policy,
    )
    session.write(array)
    session.close()
    return buf.getvalue()


def decompress_array(blob, *, jobs: int | None = None) -> np.ndarray:
    """Decode an in-memory FCF stream back to the original array."""
    with DecompressSession(blob, jobs=jobs) as session:
        return session.read_all()
