"""FCF — the versioned, seekable frame format behind the streaming API.

One stream holds one logical float array, split into independently
compressed *chunk frames*.  Stream metadata (dtype, codec, chunk size)
is written once in the header; a varint chunk index in the trailer maps
every frame to its element count and byte extent, so a reader can seek
straight to any chunk — O(1) random access once the index is loaded —
instead of re-parsing a header per chunk.

Layout (all integers LEB128 varints unless noted)::

    +--------------------------------------------------------------+
    | header   magic b"FCF1" | version u8 | dtype u8               |
    |          codec-name length + UTF-8 bytes                     |
    |          chunk_elements hint (0 = irregular)                 |
    |          v2 only: codec table (n_codecs | per codec:         |
    |          name length + UTF-8 bytes)                          |
    +--------------------------------------------------------------+
    | frames   chunk 0 payload | chunk 1 payload | ...             |
    |          v1: raw codec output, no per-chunk re-headering     |
    |          v2: codec-table index varint, then raw codec output |
    +--------------------------------------------------------------+
    | index    n_chunks | per chunk: n_elements, compressed_bytes, |
    |          crc32 of the payload                                |
    |          ndim | extents...      (logical array shape)        |
    +--------------------------------------------------------------+
    | footer   index length (u64 little-endian) | magic b"1FCF"    |
    +--------------------------------------------------------------+

The footer is fixed-size, so a reader finds the index by seeking from
the end of the stream; frames are contiguous, so chunk byte offsets are
prefix sums of the index entries.

Format version 2 is the *mixed-codec* extension behind the ``auto``
pseudo-codec (:mod:`repro.select`): the header carries a codec table
and every frame leads with a varint index into it, so each chunk can be
compressed by the codec a selection policy picked for it.  Version 1 is
still written whenever a concrete codec is requested, byte-for-byte
identical to before — v2 only appears when the writer asked for
adaptive selection.

This module also owns the *legacy* single-shot framing (magic ``0xFC``
header + one payload) that :meth:`repro.compressors.base.Compressor.compress`
has always produced; both formats share the same hardened payload
decoder, so every malformed stream — truncated, bit-flipped, or carrying
hostile metadata — surfaces as
:class:`~repro.errors.CorruptStreamError`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError, ReproError

__all__ = [
    "FRAME_MAGIC",
    "END_MAGIC",
    "FORMAT_VERSION",
    "FORMAT_V2",
    "AUTO_CODEC",
    "FOOTER_BYTES",
    "RAW_CODEC",
    "DEFAULT_CHUNK_ELEMENTS",
    "StreamHeader",
    "FrameInfo",
    "StreamIndex",
    "available_codecs",
    "resolve_codec",
    "encode_index",
    "decode_index",
    "read_layout",
    "codec_input",
    "encode_payload",
    "decode_payload",
    "split_frame_codec",
    "decode_mixed_frame",
    "check_declared_count",
    "check_shape",
    "encode_legacy_frame",
    "decode_legacy_header",
    "decode_legacy_frame",
]

FRAME_MAGIC = b"FCF1"
END_MAGIC = b"1FCF"
FORMAT_VERSION = 1
#: The mixed-codec format: header codec table + per-frame codec index.
FORMAT_V2 = 2
#: The adaptive pseudo-codec name carried by v2 stream headers.
AUTO_CODEC = "auto"
#: Fixed-size trailer: u64 index length + end magic.
FOOTER_BYTES = 12
#: The identity codec: frames hold raw little-endian element bytes.
RAW_CODEC = "none"
#: Default frame granularity (64 Ki elements = 512 KiB of float64).
DEFAULT_CHUNK_ELEMENTS = 1 << 16

_LEGACY_MAGIC = 0xFC
_MAX_RANK = 8
_MAX_CODEC_NAME = 64
#: Upper bound on v2 codec-table entries (far above the registry size).
_MAX_CODEC_TABLE = 32
#: Enough bytes to hold any legal header, v1 or v2 with a full table.
_MAX_HEADER_BYTES = (
    16 + _MAX_CODEC_NAME + 2 + _MAX_CODEC_TABLE * (2 + _MAX_CODEC_NAME)
)
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

_INTP_MAX = int(np.iinfo(np.intp).max)

#: Free allowance in the declared-count bound, so trivially small
#: streams (empty arrays, one-element frames) never trip it.
_COUNT_HEADROOM = 4096


def available_codecs() -> list[str]:
    """Every name a frame header may carry: identity + all methods."""
    from repro.compressors import compressor_names

    return [RAW_CODEC, *compressor_names()]


def resolve_codec(name: str):
    """Map a frame codec name to a compressor (``None`` for identity).

    Raises :class:`CorruptStreamError` for unknown names — on the read
    path the name came from stream metadata, so an unknown codec means
    the stream is not decodable, not that the caller misspelled it.
    """
    if name == RAW_CODEC:
        return None
    from repro.compressors import get_compressor

    try:
        return get_compressor(name)
    except KeyError as exc:
        raise CorruptStreamError(f"stream names unknown codec {name!r}") from exc


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def _encode_name(name: str, what: str) -> bytes:
    encoded = name.encode()
    if not encoded or len(encoded) > _MAX_CODEC_NAME:
        raise ValueError(f"bad {what} {name!r}")
    return encode_uvarint(len(encoded)) + encoded


def _decode_name(buf, pos: int, what: str) -> tuple[str, int]:
    name_len, pos = decode_uvarint(buf, pos)
    if not 0 < name_len <= _MAX_CODEC_NAME:
        raise CorruptStreamError(f"implausible {what} length {name_len}")
    if pos + name_len > len(buf):
        raise CorruptStreamError(f"truncated {what} in FCF header")
    try:
        name = bytes(buf[pos : pos + name_len]).decode()
    except UnicodeDecodeError as exc:
        raise CorruptStreamError(f"undecodable {what} in FCF header") from exc
    return name, pos + name_len


@dataclass(frozen=True)
class StreamHeader:
    """Stream-wide metadata, written once at offset 0.

    ``version`` selects the layout: 1 is the single-codec format
    (``codec_table`` must be empty), 2 the mixed-codec format whose
    ``codec_table`` names every codec the per-frame indices may
    reference (``codec`` then records the requested pseudo-codec,
    normally :data:`AUTO_CODEC`).
    """

    codec: str
    dtype: np.dtype
    chunk_elements: int  # 0 = irregular / unknown frame granularity
    version: int = FORMAT_VERSION
    codec_table: tuple[str, ...] = ()

    def encode(self) -> bytes:
        dtype = np.dtype(self.dtype)
        if dtype not in _DTYPE_CODES:
            raise ValueError(f"FCF streams hold float32/float64, got {dtype}")
        if self.version == FORMAT_VERSION:
            if self.codec_table:
                raise ValueError("v1 headers carry no codec table")
        elif self.version == FORMAT_V2:
            if not 0 < len(self.codec_table) <= _MAX_CODEC_TABLE:
                raise ValueError(
                    f"v2 codec table must hold 1..{_MAX_CODEC_TABLE} "
                    f"entries, got {len(self.codec_table)}"
                )
            if len(set(self.codec_table)) != len(self.codec_table):
                raise ValueError("v2 codec table holds duplicate names")
        else:
            raise ValueError(f"unknown FCF format version {self.version}")
        parts = [
            FRAME_MAGIC,
            bytes([self.version, _DTYPE_CODES[dtype]]),
            _encode_name(self.codec, "codec name"),
            encode_uvarint(self.chunk_elements),
        ]
        if self.version == FORMAT_V2:
            parts.append(encode_uvarint(len(self.codec_table)))
            for name in self.codec_table:
                parts.append(_encode_name(name, "codec table entry"))
        return b"".join(parts)

    @staticmethod
    def decode(buf) -> tuple["StreamHeader", int]:
        """Parse a header from the start of ``buf``; returns (header, size)."""
        if len(buf) < 6 or bytes(buf[:4]) != FRAME_MAGIC:
            raise CorruptStreamError("not an FCF stream (bad magic)")
        version = buf[4]
        if version not in (FORMAT_VERSION, FORMAT_V2):
            raise CorruptStreamError(
                f"unsupported FCF format version {version} "
                f"(this reader speaks versions {FORMAT_VERSION}-{FORMAT_V2})"
            )
        dtype = _CODE_DTYPES.get(buf[5])
        if dtype is None:
            raise CorruptStreamError(f"unknown dtype code {buf[5]} in FCF header")
        codec, pos = _decode_name(buf, 6, "codec name")
        chunk_elements, pos = decode_uvarint(buf, pos)
        codec_table: tuple[str, ...] = ()
        if version == FORMAT_V2:
            n_codecs, pos = decode_uvarint(buf, pos)
            if not 0 < n_codecs <= _MAX_CODEC_TABLE:
                raise CorruptStreamError(
                    f"implausible codec table size {n_codecs} in FCF header"
                )
            names = []
            for _ in range(n_codecs):
                name, pos = _decode_name(buf, pos, "codec table entry")
                names.append(name)
            if len(set(names)) != len(names):
                raise CorruptStreamError("duplicate codec table entries")
            codec_table = tuple(names)
        return StreamHeader(codec, dtype, chunk_elements, version, codec_table), pos


# ----------------------------------------------------------------------
# Chunk index
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameInfo:
    """Index entry for one chunk frame."""

    n_elements: int
    compressed_bytes: int
    offset: int  # absolute byte offset of the payload within the stream
    #: CRC-32 of the payload bytes.  Lossless codecs carry no internal
    #: redundancy, so without this a flipped payload bit could decode to
    #: *different data with no error*; the checksum turns silent
    #: corruption into :class:`CorruptStreamError`.
    crc32: int = 0


@dataclass(frozen=True)
class StreamIndex:
    """The decoded chunk index plus the logical array shape."""

    frames: tuple[FrameInfo, ...]
    shape: tuple[int, ...]

    @property
    def n_elements(self) -> int:
        return sum(frame.n_elements for frame in self.frames)

    @property
    def compressed_bytes(self) -> int:
        return sum(frame.compressed_bytes for frame in self.frames)


def encode_index(
    frames: list[tuple[int, int, int]], shape: tuple[int, ...]
) -> bytes:
    """Serialize the chunk index trailer.

    ``frames`` holds ``(n_elements, compressed_bytes, crc32)`` triples
    in frame order; ``shape`` is the logical array shape, whose element
    product must equal the summed frame counts (checked on decode).
    """
    parts = [encode_uvarint(len(frames))]
    for n_elements, compressed_bytes, crc in frames:
        parts.append(encode_uvarint(n_elements))
        parts.append(encode_uvarint(compressed_bytes))
        parts.append(encode_uvarint(crc))
    parts.append(encode_uvarint(len(shape)))
    for extent in shape:
        parts.append(encode_uvarint(extent))
    return b"".join(parts)


def decode_index(buf, data_start: int, data_length: int) -> StreamIndex:
    """Parse and cross-validate the chunk index trailer.

    Every field is checked against the physically present byte counts, so
    a bit flip anywhere in the index is caught here rather than surfacing
    later as a bad allocation or a silent mis-read:

    * the summed ``compressed_bytes`` must equal the frame region size,
    * the shape's element product must equal the summed frame counts,
    * the trailer must be consumed exactly (no trailing garbage).
    """
    n_chunks, pos = decode_uvarint(buf, 0)
    if n_chunks > len(buf):  # each entry needs >= 2 bytes
        raise CorruptStreamError(
            f"index declares {n_chunks} chunks but is only {len(buf)} bytes"
        )
    frames = []
    offset = data_start
    total_elements = 0
    for _ in range(n_chunks):
        n_elements, pos = decode_uvarint(buf, pos)
        compressed_bytes, pos = decode_uvarint(buf, pos)
        crc, pos = decode_uvarint(buf, pos)
        if crc >> 32:
            raise CorruptStreamError(f"frame CRC {crc:#x} exceeds 32 bits")
        frames.append(FrameInfo(n_elements, compressed_bytes, offset, crc))
        offset += compressed_bytes
        total_elements += n_elements
    if offset - data_start != data_length:
        raise CorruptStreamError(
            f"chunk index covers {offset - data_start} payload bytes, "
            f"stream has {data_length}"
        )
    ndim, pos = decode_uvarint(buf, pos)
    if ndim > _MAX_RANK:
        raise CorruptStreamError(f"implausible rank {ndim} in chunk index")
    shape = []
    for _ in range(ndim):
        extent, pos = decode_uvarint(buf, pos)
        shape.append(extent)
    if pos != len(buf):
        raise CorruptStreamError(
            f"chunk index has {len(buf) - pos} trailing byte(s)"
        )
    count = 1
    for extent in shape:
        count *= extent
    if count != total_elements:
        raise CorruptStreamError(
            f"shape {tuple(shape)} declares {count} elements, "
            f"frames hold {total_elements}"
        )
    return StreamIndex(tuple(frames), tuple(shape))


def check_shape(shape, itemsize: int, error=CorruptStreamError) -> None:
    """Refuse a declared shape NumPy cannot hold, raising ``error``.

    One zero extent makes the element count 0, so every byte-count check
    passes; NumPy still multiplies the non-zero extents by the itemsize
    and refuses a product past ``intp`` with an untyped ``ValueError``.
    """
    limit = _INTP_MAX // itemsize
    product = 1
    for extent in shape:
        if extent:
            product *= extent
    if product > limit:
        raise error(
            f"shape {tuple(shape)} declares extents past the {limit}-element "
            f"limit of {itemsize}-byte arrays"
        )


def read_layout(fh) -> tuple[StreamHeader, StreamIndex, int]:
    """Read header + index from a seekable binary stream.

    Returns ``(header, index, data_start)`` where ``data_start`` is the
    byte offset of the first chunk frame.
    """
    fh.seek(0, 2)
    total = fh.tell()
    if total < 6 + FOOTER_BYTES:
        raise CorruptStreamError(f"stream of {total} bytes is too short for FCF")
    fh.seek(total - FOOTER_BYTES)
    footer = fh.read(FOOTER_BYTES)
    if len(footer) != FOOTER_BYTES or footer[8:] != END_MAGIC:
        raise CorruptStreamError("missing FCF end magic (truncated stream?)")
    index_length = int.from_bytes(footer[:8], "little")
    if index_length > total - FOOTER_BYTES:
        raise CorruptStreamError(
            f"index length {index_length} exceeds stream size {total}"
        )
    fh.seek(0)
    head = fh.read(min(total, _MAX_HEADER_BYTES))
    header, data_start = StreamHeader.decode(head)
    index_start = total - FOOTER_BYTES - index_length
    if index_start < data_start:
        raise CorruptStreamError("chunk index overlaps the stream header")
    fh.seek(index_start)
    index_blob = fh.read(index_length)
    index = decode_index(
        index_blob, data_start=data_start, data_length=index_start - data_start
    )
    check_shape(index.shape, header.dtype.itemsize)
    return header, index, data_start


# ----------------------------------------------------------------------
# Payload codec (shared by sessions, storage filters, and legacy shims)
# ----------------------------------------------------------------------
def codec_input(compressor, array: np.ndarray) -> np.ndarray:
    """The one float32 rule: what a codec is handed for ``array``.

    A dtype the codec takes passes through, shape and all.  Double-only
    methods (pFPC, GFC — Table 1) see float32 data as the paper's harness
    hands it over, as raw 64-bit words: pairs of floats become one
    double and an odd tail is zero-padded, so the ratio stays measured
    against the original bytes.  Inverted by :func:`decode_payload`.
    """
    if compressor.info.supports_dtype(array.dtype):
        return array
    flat = np.ascontiguousarray(array).ravel()
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=flat.dtype)])
    return flat.view(np.float64)


def encode_payload(compressor, chunk: np.ndarray) -> bytes:
    """Compress one chunk into a raw frame payload (no per-chunk header)."""
    array = np.ascontiguousarray(chunk).ravel()
    if compressor is None:
        return array.tobytes()
    array = codec_input(compressor, array)
    return compressor._compress(compressor._validate(array))


def check_declared_count(compressor, count: int, payload_bytes: int) -> None:
    """Bound a declared element count against the physical payload size.

    A crafted header can declare astronomically large extents and drive
    decoders into huge upfront allocations before any payload check.
    Every codec has a best-case expansion (decoded elements per payload
    byte) it cannot exceed — one control bit per element for the XOR
    codecs, the LZ token floor for the byte-stream ones — published as
    ``Compressor.max_decode_expansion``.  Counts beyond that bound are
    rejected here, before any allocation happens.  ``None`` marks the
    (payload-driven) decoders whose output size never depends on the
    declared count, where the post-decode count check suffices.
    """
    expansion = getattr(compressor, "max_decode_expansion", 256)
    if expansion is None:
        return
    allowed = _COUNT_HEADROOM + int(expansion) * payload_bytes
    if count > allowed:
        raise CorruptStreamError(
            f"header declares {count} elements but the {payload_bytes}-byte "
            f"payload can hold at most {allowed} "
            f"({compressor.info.name} expands <= {expansion} elements/byte)"
        )


def _run_decoder(compressor, payload, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Invoke ``_decompress`` with the exception guarantee.

    Whatever a decoder raises on malformed input — ``IndexError`` from a
    short buffer, ``ValueError`` from ``frombuffer``, ``MemoryError``
    from a poisoned internal length — callers see
    :class:`CorruptStreamError`; library errors pass through untouched.
    """
    dtype = np.dtype(dtype)
    count = 1
    for extent in shape:
        count *= extent
    try:
        decoded = compressor._decompress(payload, shape, dtype)
    except ReproError:
        raise
    except Exception as exc:
        raise CorruptStreamError(
            f"{compressor.info.name}: malformed payload "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if decoded.dtype != dtype or decoded.size != count:
        raise CorruptStreamError(
            f"{compressor.info.name}: decoder produced {decoded.size} x "
            f"{decoded.dtype}, expected {count} x {dtype}"
        )
    return decoded


def _check_crc(payload, crc32: int | None) -> None:
    if crc32 is None:
        return
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc32:
        raise CorruptStreamError(
            f"frame checksum mismatch: index says {crc32:#010x}, "
            f"payload hashes to {actual:#010x}"
        )


def decode_payload(
    compressor, payload, n_elements: int, dtype, crc32: int | None = None
) -> np.ndarray:
    """Decode one frame payload back to ``n_elements`` of ``dtype`` (flat).

    With ``crc32`` given (the FCF index carries one per frame), the
    payload checksum is verified *before* the codec runs, so bit rot
    inside a frame is reported as corruption instead of being decoded
    into silently different data.
    """
    dtype = np.dtype(dtype)
    _check_crc(payload, crc32)
    if compressor is None:
        if len(payload) != n_elements * dtype.itemsize:
            raise CorruptStreamError(
                f"raw frame holds {len(payload)} bytes, expected "
                f"{n_elements} x {dtype}"
            )
        # Copy rather than alias: frombuffer over the I/O buffer would
        # hand out a read-only view that pins the whole read blob —
        # every other codec returns a fresh writable array.
        return np.frombuffer(payload, dtype=dtype).copy()
    decode_dtype = dtype
    decode_count = n_elements
    if not compressor.info.supports_dtype(dtype):
        decode_dtype = np.dtype(np.float64)
        decode_count = (n_elements + 1) // 2
    check_declared_count(compressor, decode_count, len(payload))
    decoded = _run_decoder(compressor, payload, (decode_count,), decode_dtype)
    decoded = decoded.ravel()
    if decode_dtype != dtype:
        decoded = decoded.view(dtype)[:n_elements]
    return decoded


# ----------------------------------------------------------------------
# Mixed-codec frames (format v2, the `auto` pseudo-codec)
# ----------------------------------------------------------------------
def split_frame_codec(payload, n_codecs: int) -> tuple[int, "memoryview | bytes"]:
    """Strip a v2 frame's leading codec-table index.

    Returns ``(codec_index, codec_payload)``.  The index came from
    stream bytes, so an out-of-table value means corruption, not a
    caller bug.
    """
    index, pos = decode_uvarint(payload, 0)
    if index >= n_codecs:
        raise CorruptStreamError(
            f"frame names codec-table entry {index}, table holds {n_codecs}"
        )
    return index, payload[pos:]


def decode_mixed_frame(
    compressors: tuple, payload, n_elements: int, dtype, crc32: int | None = None
) -> np.ndarray:
    """Decode one v2 frame: CRC over the full frame bytes, then the
    codec-table index, then the payload under the selected codec.

    ``compressors`` is the resolved codec table (``None`` entries for
    the identity codec), index-aligned with the header's names.
    """
    _check_crc(payload, crc32)
    index, codec_payload = split_frame_codec(payload, len(compressors))
    return decode_payload(compressors[index], codec_payload, n_elements, dtype)


# ----------------------------------------------------------------------
# Legacy single-shot framing (Compressor.compress / .decompress shims)
# ----------------------------------------------------------------------
def encode_legacy_frame(compressor, array: np.ndarray) -> bytes:
    """The original one-shot stream: magic, dtype, shape, one payload."""
    parts = [bytes([_LEGACY_MAGIC, _DTYPE_CODES[array.dtype]])]
    parts.append(encode_uvarint(array.ndim))
    for extent in array.shape:
        parts.append(encode_uvarint(extent))
    parts.append(compressor._compress(array))
    return b"".join(parts)


def decode_legacy_header(blob) -> tuple[tuple[int, ...], np.dtype, int]:
    """Parse the legacy header; returns ``(shape, dtype, payload_offset)``."""
    if len(blob) < 2 or blob[0] != _LEGACY_MAGIC:
        raise CorruptStreamError("missing compressor stream magic byte")
    dtype = _CODE_DTYPES.get(blob[1])
    if dtype is None:
        raise CorruptStreamError(f"unknown dtype code {blob[1]}")
    ndim, offset = decode_uvarint(blob, 2)
    if ndim > _MAX_RANK:
        raise CorruptStreamError(f"implausible rank {ndim} in header")
    shape = []
    for _ in range(ndim):
        extent, offset = decode_uvarint(blob, offset)
        shape.append(extent)
    check_shape(shape, dtype.itemsize)
    return tuple(shape), dtype, offset


def decode_legacy_frame(compressor, blob) -> np.ndarray:
    """Decode a legacy one-shot stream with the hardened checks."""
    shape, dtype, offset = decode_legacy_header(blob)
    payload = blob[offset:]
    count = 1
    for extent in shape:
        count *= extent
    check_declared_count(compressor, count, len(payload))
    return _run_decoder(compressor, payload, shape, dtype).reshape(shape)
