"""pFPC: parallel FCM/DFCM hash-table prediction for doubles.

Paper section 3.6.  pFPC partitions the input into per-thread chunks
(default 8 pthreads) and runs the FPC algorithm on each: two hash-table
predictors — FCM (finite context of recent values) and DFCM (context of
recent deltas) — predict every value; the better predictor's XOR residual
is encoded as a 4-bit code (1 bit predictor choice + 3 bits leading-zero
byte count) followed by the residual's non-zero bytes.

The paper notes pFPC prefers aligning thread count with the data's
dimensionality because interleaving dimensions degrades prediction; the
chunked layout here has the same property (chunk boundaries reset the
hash tables).

The encoder sees every value before it emits a byte, so it runs as
array passes (``docs/performance.md``).  Both hashes are functions of a
fixed number of earlier words: with ``table_bits`` = b, the FCM hash
before a value is the XOR of the top 16 bits of the previous ⌈b/6⌉
values, the k-th back shifted left by 6(k-1), and the DFCM hash the XOR
of the top 24 bits of the previous ⌈b/2⌉ deltas shifted by 2(k-1), both
masked to b bits.  A table read is "the latest earlier value of the
chunk with the same hash, else 0", which one stable sort by
``(chunk, hash)`` answers for every element at once.  The decoder cannot
plan the tables (its hashes are the values it decodes), but it can plan
the stream: codes and residual bytes are unpacked in NumPy and only the
table recurrence loops.  ``_compress_scalar`` / ``_decompress_scalar``
are the per-element oracles.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import float_bits, significant_bits
from repro.encodings.arithmetic import _sorted_runs
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import (
    CostModel,
    KernelSpec,
    ParallelismSpec,
    ScalingSpec,
)

__all__ = ["PfpcCompressor"]

_MASK64 = (1 << 64) - 1


def _context_hashes(
    words: np.ndarray, within: np.ndarray, table_bits: int, shift: int
) -> np.ndarray:
    """The hash before every element: ``hash = (hash << shift ^ word)``
    unrolled over the earlier words of its chunk that still reach the
    low ``table_bits`` bits."""
    hashes = np.zeros(words.size, dtype=np.int64)
    term = np.empty_like(hashes)
    for back in range(1, -(-table_bits // shift) + 1):
        term[back:] = words[:-back]
        # Words before the chunk start (and the first ``back`` slots).
        term[within < back] = 0
        term <<= shift * (back - 1)
        hashes ^= term
    hashes &= (1 << table_bits) - 1
    return hashes


def _table_reads(keys: np.ndarray, written: np.ndarray) -> np.ndarray:
    """What a table indexed by ``keys`` holds before each element, when
    element ``i`` writes ``written[i]`` at ``keys[i]``: the value of the
    latest earlier element with the same key, else 0."""
    order, starts = _sorted_runs(keys)
    follows = ~starts[1:]
    reads = np.zeros_like(written)
    reads[order[1:][follows]] = written[order[:-1][follows]]
    return reads


@register
class PfpcCompressor(Compressor):
    """pFPC (Burtscher & Ratanaworabhan, 2009), double-precision only."""

    info = MethodInfo(
        name="pfpc",
        display_name="pFPC",
        year=2009,
        domain="HPC",
        precisions=frozenset({"D"}),
        platform="cpu",
        parallelism="threads",
        language="C",
        trait="prediction",
        predictor_family="prediction",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="threads", default_threads=8),
        compress_kernels=(
            KernelSpec("fcm_dfcm_predict", int_ops=18.0, bytes_touched=3.2),
            KernelSpec("residual_pack", int_ops=6.0, bytes_touched=1.6),
        ),
        decompress_kernels=(
            KernelSpec("residual_unpack", int_ops=6.0, bytes_touched=1.6),
            KernelSpec("fcm_dfcm_rebuild", int_ops=18.0, bytes_touched=3.2),
        ),
        anchor_compress_gbs=0.564,
        anchor_decompress_gbs=0.351,
        block_setup_bytes=145_000.0,
        # Tables 7/8: 133 -> 618 MB/s over 1 -> 24 threads, then roll-off.
        scaling=ScalingSpec(
            sigma=0.22,
            kappa=0.0008,
            single_thread_compress_mbs=133.0,
            single_thread_decompress_mbs=91.0,
        ),
        # Figure 10: pFPC allocates fixed read/write buffers.
        footprint_fixed_bytes=1.6e9,
    )

    def __init__(self, threads: int = 8, table_bits: int = 16) -> None:
        if threads < 1:
            raise ValueError(f"thread count must be >= 1, got {threads}")
        if not 4 <= table_bits <= 24:
            raise ValueError(f"table_bits must be in [4, 24], got {table_bits}")
        self.threads = threads
        self.table_bits = table_bits

    # ------------------------------------------------------------------
    # FPC kernel over one chunk (the scalar oracle's)
    # ------------------------------------------------------------------
    def _encode_chunk(self, values: list[int]) -> bytes:
        size = 1 << self.table_bits
        mask = size - 1
        fcm = [0] * size
        dfcm = [0] * size
        fcm_hash = 0
        dfcm_hash = 0
        last = 0
        codes = bytearray()
        residuals = bytearray()
        pending_code = -1
        for value in values:
            pred_fcm = fcm[fcm_hash]
            pred_dfcm = (last + dfcm[dfcm_hash]) & _MASK64
            xor_fcm = value ^ pred_fcm
            xor_dfcm = value ^ pred_dfcm
            if xor_fcm <= xor_dfcm:
                selector, xor = 0, xor_fcm
            else:
                selector, xor = 1, xor_dfcm
            lzb = min((64 - xor.bit_length()) >> 3, 7)
            code = (selector << 3) | lzb
            if pending_code < 0:
                pending_code = code
            else:
                codes.append((pending_code << 4) | code)
                pending_code = -1
            residuals += xor.to_bytes(8, "little")[: 8 - lzb]
            # Update predictor state.
            fcm[fcm_hash] = value
            fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & mask
            delta = (value - last) & _MASK64
            dfcm[dfcm_hash] = delta
            dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & mask
            last = value
        if pending_code >= 0:
            codes.append(pending_code << 4)
        return (
            encode_uvarint(len(values))
            + encode_uvarint(len(codes))
            + bytes(codes)
            + bytes(residuals)
        )

    def _decode_chunk(self, payload: bytes, offset: int) -> tuple[list[int], int]:
        count, offset = decode_uvarint(payload, offset)
        code_len, offset = decode_uvarint(payload, offset)
        if offset + code_len > len(payload):
            raise CorruptStreamError("pFPC code stream truncated")
        codes = payload[offset : offset + code_len]
        pos = offset + code_len

        size = 1 << self.table_bits
        mask = size - 1
        fcm = [0] * size
        dfcm = [0] * size
        fcm_hash = 0
        dfcm_hash = 0
        last = 0
        values: list[int] = []
        for index in range(count):
            packed = codes[index >> 1]
            code = (packed >> 4) if index % 2 == 0 else (packed & 0x0F)
            selector = code >> 3
            lzb = code & 0x07
            nbytes = 8 - lzb
            if pos + nbytes > len(payload):
                raise CorruptStreamError("pFPC residual stream truncated")
            # bytes() keeps this working for memoryview payloads (the
            # zero-copy framing of the streaming API).
            xor = int.from_bytes(bytes(payload[pos : pos + nbytes]), "little")
            pos += nbytes
            if selector == 0:
                value = xor ^ fcm[fcm_hash]
            else:
                value = xor ^ ((last + dfcm[dfcm_hash]) & _MASK64)
            values.append(value)
            fcm[fcm_hash] = value
            fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & mask
            delta = (value - last) & _MASK64
            dfcm[dfcm_hash] = delta
            dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & mask
            last = value
        return values, pos

    # ------------------------------------------------------------------
    # Compressor interface: array passes
    # ------------------------------------------------------------------
    def _compress(self, array: np.ndarray) -> bytes:
        values = float_bits(array.ravel())
        n = values.size
        if not n:
            return encode_uvarint(0)
        chunk_size = -(-n // self.threads)
        index = np.arange(n, dtype=np.int64)
        within = index % chunk_size
        chunk = index // chunk_size
        del index
        last = np.zeros_like(values)
        last[1:] = values[:-1]
        last[within == 0] = 0
        delta = values - last
        bits = self.table_bits
        chunk <<= bits
        fcm_key = chunk | _context_hashes(
            (values >> np.uint64(48)).astype(np.int64), within, bits, 6
        )
        dfcm_key = chunk | _context_hashes(
            (delta >> np.uint64(40)).astype(np.int64), within, bits, 2
        )
        xor_fcm = values ^ _table_reads(fcm_key, values)
        xor_dfcm = values ^ (last + _table_reads(dfcm_key, delta))
        del fcm_key, dfcm_key, last, delta, within, chunk
        selector = xor_fcm > xor_dfcm
        xor = np.where(selector, xor_dfcm, xor_fcm)
        del xor_fcm, xor_dfcm
        lzb = np.minimum((64 - significant_bits(xor)) >> 3, 7)
        codes = (selector.astype(np.uint8) << np.uint8(3)) | lzb.astype(
            np.uint8
        )
        kept = 8 - lzb
        # Residual bytes: the low ``kept`` bytes of each little-endian xor.
        residuals = xor.astype("<u8").view(np.uint8).reshape(n, 8)[
            np.arange(8) < kept[:, None]
        ]
        ends = np.cumsum(kept)
        out = [encode_uvarint(-(-n // chunk_size))]
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            nibbles = codes[start:stop]
            if nibbles.size % 2:
                nibbles = np.append(nibbles, np.uint8(0))
            packed = (nibbles[0::2] << np.uint8(4)) | nibbles[1::2]
            first = int(ends[start - 1]) if start else 0
            out += (
                encode_uvarint(stop - start),
                encode_uvarint(packed.size),
                packed.tobytes(),
                residuals[first : int(ends[stop - 1])].tobytes(),
            )
        return b"".join(out)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Codes and residual bytes of every chunk are unpacked in NumPy;
        the loop runs only the FCM/DFCM table recurrence, whose hashes
        are the values it decodes."""
        n_chunks, offset = decode_uvarint(payload, 0)
        size = 1 << self.table_bits
        mask = size - 1
        values: list[int] = []
        append = values.append
        for _ in range(n_chunks):
            count, offset = decode_uvarint(payload, offset)
            code_len, offset = decode_uvarint(payload, offset)
            if offset + code_len > len(payload) or 2 * code_len < count:
                raise CorruptStreamError("pFPC code stream truncated")
            packed = np.frombuffer(
                payload, dtype=np.uint8, count=code_len, offset=offset
            )
            offset += code_len
            codes = np.empty(2 * code_len, dtype=np.uint8)
            codes[0::2] = packed >> np.uint8(4)
            codes[1::2] = packed & np.uint8(0x0F)
            codes = codes[:count]
            kept = 8 - (codes & np.uint8(7)).astype(np.int64)
            stored = int(kept.sum())
            if offset + stored > len(payload):
                raise CorruptStreamError("pFPC residual stream truncated")
            grid = np.zeros((count, 8), dtype=np.uint8)
            grid[np.arange(8) < kept[:, None]] = np.frombuffer(
                payload, dtype=np.uint8, count=stored, offset=offset
            )
            offset += stored
            xors = grid.view("<u8").ravel().tolist()
            fcm = [0] * size
            dfcm = [0] * size
            fcm_hash = 0
            dfcm_hash = 0
            last = 0
            for xor, selector in zip(xors, (codes >> np.uint8(3)).tolist()):
                if selector:
                    value = xor ^ ((last + dfcm[dfcm_hash]) & _MASK64)
                else:
                    value = xor ^ fcm[fcm_hash]
                append(value)
                fcm[fcm_hash] = value
                fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & mask
                delta = (value - last) & _MASK64
                dfcm[dfcm_hash] = delta
                dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & mask
                last = value
        return np.array(values, dtype=np.uint64).view(np.float64)

    # ------------------------------------------------------------------
    # Scalar oracle (the original per-element implementation)
    # ------------------------------------------------------------------
    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference encoder; :meth:`_compress` must match it bit-exactly."""
        bits = float_bits(array.ravel())
        values = bits.tolist()
        chunk_size = max(1, -(-len(values) // self.threads))
        chunks = [
            values[start : start + chunk_size]
            for start in range(0, len(values), chunk_size)
        ]
        out = [encode_uvarint(len(chunks))]
        for chunk in chunks:
            out.append(self._encode_chunk(chunk))
        return b"".join(out)

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        n_chunks, offset = decode_uvarint(payload, 0)
        values: list[int] = []
        for _ in range(n_chunks):
            chunk, offset = self._decode_chunk(payload, offset)
            values.extend(chunk)
        return np.array(values, dtype=np.uint64).view(np.float64)
