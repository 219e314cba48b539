"""Gorilla: Facebook's XOR-based time-series value compressor.

Paper section 3.4.  Gorilla XORs each value with its predecessor and
encodes the residual with three control cases:

* ``0``   — the XOR is zero (value repeated),
* ``10``  — the meaningful bits fall inside the previous value's
  leading/trailing-zero window, so only those bits are stored,
* ``11``  — a new window: 5 bits of leading-zero count, 6 bits of
  meaningful-bit length, then the bits themselves.

The method is serial (Table 1) and its ratio degrades when values change
frequently because the control bits dominate — both properties the
benchmark reproduces.

The hot paths run in plan-then-pack form: the whole-array plan computes
XORs, leading/trailing-zero windows, and the sequence of window resets
with NumPy, then emits every record through one
:func:`~repro.encodings.vectorbit.pack_fields` call.  The window-reset
recurrence (case ``11`` fires when the current residual escapes the
*last emitted* window) is resolved without a per-element Python loop:

1. for every record, find the next record that would escape its window
   via a binary-lifting descent over per-class occurrence bitmasks,
2. chase that successor function from record 0 with pointer jumping to
   mark the exact set of case-``11`` records the scalar coder would emit.

``_compress_scalar`` / ``_decompress_scalar`` keep the original
per-element implementation as the oracle the vectorized coder is
verified against (byte-identical payloads).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import (
    float_bits,
    lead_trail_nonzero,
    leading_zeros,
    pack_record_fields,
    trailing_zeros,
)
from repro.encodings.bitio import BitReader, BitWriter
from repro.encodings.vectorbit import pack_fields, unpack_fields
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["GorillaCompressor"]

_U64 = np.uint64


def _next_reset_sparse(
    lz: np.ndarray, tz: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Exact next-escape search for the few records the fast paths miss.

    For each alphabet, group record positions by class once (stable
    argsort keeps them index-ordered), then for every class ``c`` find
    the next occurrence after each query whose threshold exceeds ``c``
    with one ``searchsorted`` — O(classes) vectorized passes over the
    query set instead of a per-record scan.
    """
    m = lz.size
    out = np.full(start.size, m, dtype=np.int64)
    for arr in (lz, tz):
        counts = np.bincount(arr.astype(np.uint8, copy=False))
        order = np.argsort(arr.astype(np.uint8, copy=False), kind="stable")
        bounds = np.cumsum(counts)
        thresholds = arr[start]
        for c in np.flatnonzero(counts).tolist():
            sel = np.flatnonzero(thresholds > c)
            if sel.size == 0:
                continue
            pos_c = order[bounds[c] - counts[c] : bounds[c]]  # index-sorted
            k = np.searchsorted(pos_c, start[sel], side="right")
            hit = k < pos_c.size
            cand = np.full(sel.size, m, dtype=np.int64)
            cand[hit] = pos_c[k[hit]]
            np.minimum.at(out, sel, cand)
    return out


def _anchor_chain(
    x: np.ndarray, width: int, max_lead: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor (case ``11``) positions and their windows for residuals ``x``.

    Chases the window state segment by segment: a record escapes the
    active window ``(pl, pt)`` iff ``x >> (width - pl) != 0`` (capped
    leading zeros below ``pl``) or ``x & ((1 << pt) - 1) != 0`` (a set
    bit under the trailing margin) — two integer passes over each
    blockwise scan, with no per-record bit-count work at all.  Real
    float data mostly settles into long segments, so this touches each
    record about once; if the chain turns out dense (average segment
    under ~32 records) it bails to :func:`_window_anchors`, which
    resolves the remainder with whole-array bit counts.
    """
    m = x.size
    block = 8192
    apos: list[int] = []
    alz: list[int] = []
    atz: list[int] = []
    a = 0
    one = x.dtype.type(1)
    while a < m:
        if len(apos) >= 64 and a < len(apos) * 32:
            # Dense chain: vectorized whole-suffix machinery is cheaper.
            lz, tz = lead_trail_nonzero(x[a:])
            np.minimum(lz, max_lead, out=lz)
            mask = _window_anchors(lz, tz)
            rest = np.flatnonzero(mask)
            tail_pos = rest + a
            return (
                np.concatenate([np.asarray(apos, dtype=np.int64), tail_pos]),
                np.concatenate([np.asarray(alz, dtype=np.int64), lz[rest]]),
                np.concatenate([np.asarray(atz, dtype=np.int64), tz[rest]]),
            )
        value = int(x[a])
        pl = min(width - value.bit_length(), max_lead)
        pt = (value & -value).bit_length() - 1
        apos.append(a)
        alz.append(pl)
        atz.append(pt)
        t_mask = x.dtype.type(((1 << pt) - 1) & ((1 << width) - 1))
        shift = x.dtype.type(width - pl) if pl else None
        pos = a + 1
        a = m
        while pos < m:
            seg = x[pos : pos + block]
            esc = (seg & t_mask) != 0
            if shift is not None:
                esc |= (seg >> shift) != 0
            if esc.any():
                a = pos + int(np.argmax(esc))
                break
            pos += seg.size
    return (
        np.asarray(apos, dtype=np.int64),
        np.asarray(alz, dtype=np.int64),
        np.asarray(atz, dtype=np.int64),
    )


def _window_anchors(lz: np.ndarray, tz: np.ndarray) -> np.ndarray:
    """Boolean mask of records the scalar coder would emit as case ``11``.

    Record 0 always opens a window; afterwards the next anchor is the
    first record escaping the current anchor's window (``lz[i] < pl`` or
    ``tz[i] < pt``).  The escape-successor function ``f`` is built with
    a cascade of vectorized fast paths — immediate escapes, short direct
    probes, and a suffix-OR class filter proving some windows are never
    escaped — before the sparse exact search mops up stragglers.  The
    anchor set is then the orbit of record 0 under ``f``, chased with
    pointer jumping (16x-composed hops expanded vectorized) so the
    Python-level walk touches only every 16th anchor.
    """
    m = lz.size
    f = np.full(m, m, dtype=np.int64)
    if m > 1:
        # Fast path: the common case where the very next record escapes.
        imm = (lz[1:] < lz[:-1]) | (tz[1:] < tz[:-1])
        f[:-1][imm] = np.flatnonzero(imm) + 1
        rest = np.flatnonzero(~imm)
        # Short probes: escapes cluster at small distances, and each
        # round shrinks the unresolved set geometrically.
        for dist in (2, 3, 4):
            if rest.size == 0:
                break
            probe = rest + dist
            np.minimum(probe, m - 1, out=probe)
            hit = (
                ((lz[probe] < lz[rest]) | (tz[probe] < tz[rest]))
                & (rest + dist < m)
            )
            f[rest[hit]] = rest[hit] + dist
            rest = rest[~hit]
        if rest.size:
            # Windows so wide that no later record ever escapes them
            # (common on quantized data) are settled by one suffix OR
            # over the per-class occurrence masks.
            suf_lz = np.bitwise_or.accumulate(
                (np.uint32(1) << lz.astype(np.uint32))[::-1]
            )[::-1]
            suf_tz = np.bitwise_or.accumulate(
                (_U64(1) << tz.view(_U64))[::-1]
            )[::-1]
            never = (
                (suf_lz[rest + 1]
                 & ((np.uint32(1) << lz[rest].astype(np.uint32))
                    - np.uint32(1))) == 0
            ) & (
                (suf_tz[rest + 1]
                 & ((_U64(1) << tz[rest].view(_U64)) - _U64(1))) == 0
            )
            rest = rest[~never]
        for dist in (5, 6, 7, 8):
            if rest.size == 0:
                break
            probe = rest + dist
            np.minimum(probe, m - 1, out=probe)
            hit = (
                ((lz[probe] < lz[rest]) | (tz[probe] < tz[rest]))
                & (rest + dist < m)
            )
            f[rest[hit]] = rest[hit] + dist
            rest = rest[~hit]
        if rest.size:
            f[rest] = _next_reset_sparse(lz, tz, rest)

    hop1 = np.append(f, m)  # sentinel-terminated successor
    hop2 = hop1[hop1]
    hop4 = hop2[hop2]
    hop8 = hop4[hop4]
    hop16 = hop8[hop8]
    supers = []
    a = 0
    while a < m:
        supers.append(a)
        a = int(hop16[a])
    cols = np.asarray(supers, dtype=np.int64)
    visited = [cols]
    for _ in range(15):
        cols = hop1[cols]
        visited.append(cols)
    anchors = np.zeros(m + 1, dtype=bool)
    anchors[np.concatenate(visited)] = True
    return anchors[:m]


@register
class GorillaCompressor(Compressor):
    """Gorilla's floating-point value pipeline (timestamps are out of scope).

    The paper evaluates the InfluxDB integration, which stores float64;
    single-precision inputs run a 32-bit word pipeline (see ``info``).
    """

    info = MethodInfo(
        name="gorilla",
        display_name="Gorilla",
        year=2015,
        domain="Database",
        # Table 1 lists "D", but the paper's Table 4 values on the
        # single-precision datasets are only consistent with a 32-bit
        # word pipeline, so the harness runs float32 natively.
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="go",
        trait="delta",
        predictor_family="delta",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("xor_window_encode", int_ops=28.0, bytes_touched=2.2),
        ),
        decompress_kernels=(
            KernelSpec("xor_window_decode", int_ops=12.0, bytes_touched=2.2),
        ),
        anchor_compress_gbs=0.047,
        anchor_decompress_gbs=0.146,
        block_setup_bytes=24_000.0,
        footprint_factor=2.0,
    )

    #: Control-bit window parameters per element width.
    _LEAD_BITS = 5
    _LEN_BITS = 6

    def _compress(self, array: np.ndarray) -> bytes:
        bits = float_bits(array.ravel())
        width = bits.dtype.itemsize * 8
        n = bits.size
        if n == 0:
            return b""
        first = _U64(bits[0])
        if n == 1:
            return pack_fields([first], [width], assume_masked=True)

        xors = bits[1:] ^ bits[:-1]
        m = int(np.count_nonzero(xors))
        dense = m == n - 1
        # Case 0 defaults: a lone zero control bit per repeated value.
        if dense:
            nzpos = None
            nz_xors = xors
        else:
            nzpos = np.flatnonzero(xors)
            nz_xors = xors[nzpos]
            hdr_v = np.zeros(n - 1, dtype=_U64)
            hdr_w = np.ones(n - 1, dtype=np.int8)
            pay_v = np.zeros(n - 1, dtype=_U64)
            pay_w = np.zeros(n - 1, dtype=np.int8)
        if m:
            max_lead = (1 << self._LEAD_BITS) - 1
            apos, alz, atz = _anchor_chain(nz_xors, width, max_lead)
            # Per-record window state, expanded run-length style: each
            # anchor's window covers itself and the records up to the
            # next anchor (an anchor's own state equals its window).
            runs = np.diff(np.append(apos, m))
            pl = np.repeat(alz, runs)
            pt = np.repeat(atz, runs)
            x = nz_xors.astype(_U64, copy=False)
            pv = x >> pt.view(_U64)
            pw = width - pl - pt
            hv = np.full(m, 0b10, dtype=_U64)
            men = width - alz - atz
            hv[apos] = (
                (_U64(0b11) << _U64(self._LEAD_BITS + self._LEN_BITS))
                | (alz.view(_U64) << _U64(self._LEN_BITS))
                | (men - 1).view(_U64)
            )
            hw = np.full(m, 2, dtype=np.int64)
            hw[apos] = 2 + self._LEAD_BITS + self._LEN_BITS
            if dense:
                hdr_v, hdr_w, pay_v, pay_w = hv, hw, pv, pw
            else:
                hdr_v[nzpos] = hv
                hdr_w[nzpos] = hw
                pay_v[nzpos] = pv
                pay_w[nzpos] = pw

        return pack_record_fields(first, width, hdr_v, hdr_w, pay_v, pay_w)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8
        if count == 0:
            return np.empty(0, dtype=uint_dtype).view(dtype)
        data = bytes(payload)
        nbits = len(data) * 8
        if width > nbits:
            raise CorruptStreamError("gorilla stream shorter than one value")
        first = int.from_bytes(data[: width >> 3], "big")

        # Plan scan: walk only the control bits and window metadata,
        # recording (offset, width, shift) per payload field; the fields
        # themselves are batch-extracted afterwards.
        offs: list[int] = []
        widths: list[int] = []
        shifts: list[int] = []
        add_o = offs.append
        add_w = widths.append
        add_s = shifts.append
        frm = int.from_bytes
        side_bits = self._LEAD_BITS + self._LEN_BITS
        len_mask = (1 << self._LEN_BITS) - 1
        pos = width
        pl = pt = -1
        try:
            for _ in range(count - 1):
                if (data[pos >> 3] >> (7 - (pos & 7))) & 1 == 0:
                    pos += 1
                    add_o(0)
                    add_w(0)
                    add_s(0)
                    continue
                pos += 1
                fresh = (data[pos >> 3] >> (7 - (pos & 7))) & 1
                pos += 1
                if fresh:
                    end = pos + side_bits
                    if end > nbits:
                        raise CorruptStreamError("gorilla header truncated")
                    stop = (end + 7) >> 3
                    side = (frm(data[pos >> 3 : stop], "big")
                            >> (stop * 8 - end)) & ((1 << side_bits) - 1)
                    pos = end
                    pl = side >> self._LEN_BITS
                    men = (side & len_mask) + 1
                    pt = width - pl - men
                    if pt < 0:
                        raise CorruptStreamError(
                            "gorilla window wider than the word"
                        )
                    add_o(pos)
                    add_w(men)
                    add_s(pt)
                    pos += men
                else:
                    if pl < 0:
                        raise CorruptStreamError(
                            "gorilla stream reuses a window before one exists"
                        )
                    men = width - pl - pt
                    add_o(pos)
                    add_w(men)
                    add_s(pt)
                    pos += men
        except IndexError:
            raise CorruptStreamError("gorilla control stream exhausted")
        if pos > nbits:
            raise CorruptStreamError("gorilla payload truncated")

        vals = unpack_fields(
            data, np.asarray(widths, dtype=np.int64),
            np.asarray(offs, dtype=np.int64),
        )
        stream = np.empty(count, dtype=_U64)
        stream[0] = first
        stream[1:] = vals << np.asarray(shifts, dtype=_U64)
        return (
            np.bitwise_xor.accumulate(stream).astype(uint_dtype).view(dtype)
        )

    # ------------------------------------------------------------------
    # Scalar oracle (the original per-element implementation)
    # ------------------------------------------------------------------
    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference coder; the vectorized path must match it bit-exactly."""
        bits = float_bits(array.ravel())
        width = bits.dtype.itemsize * 8
        writer = BitWriter()
        if bits.size == 0:
            return writer.getvalue()
        values = bits.tolist()
        xors = (bits[1:] ^ bits[:-1]) if bits.size > 1 else bits[:0]
        lead = leading_zeros(xors).tolist()
        trail = trailing_zeros(xors).tolist()
        xor_list = xors.tolist()

        writer.write_bits(values[0], width)
        prev_lead = -1
        prev_trail = -1
        max_lead = (1 << self._LEAD_BITS) - 1
        for index, xor in enumerate(xor_list):
            if xor == 0:
                writer.write_bits(0, 1)
                continue
            lz = min(lead[index], max_lead)
            tz = trail[index]
            if (
                prev_lead >= 0
                and lz >= prev_lead
                and tz >= prev_trail
                and prev_lead + prev_trail < width
            ):
                # Case 10: reuse the previous window.
                writer.write_bits(0b10, 2)
                window = width - prev_lead - prev_trail
                writer.write_bits(xor >> prev_trail, window)
            else:
                # Case 11: emit a fresh window.
                writer.write_bits(0b11, 2)
                meaningful = width - lz - tz
                writer.write_bits(lz, self._LEAD_BITS)
                writer.write_bits(meaningful - 1, self._LEN_BITS)
                writer.write_bits(xor >> tz, meaningful)
                prev_lead = lz
                prev_trail = tz
        return writer.getvalue()

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8
        out = np.empty(count, dtype=uint_dtype)
        if count == 0:
            return out.view(dtype)
        reader = BitReader(payload)
        previous = reader.read_bits(width)
        out[0] = previous
        prev_lead = -1
        prev_trail = -1
        for index in range(1, count):
            if reader.read_bits(1) == 0:
                out[index] = previous
                continue
            if reader.read_bits(1) == 0:
                # Case 10: previous window.
                if prev_lead < 0:
                    raise CorruptStreamError(
                        "gorilla stream reuses a window before one exists"
                    )
                window = width - prev_lead - prev_trail
                xor = reader.read_bits(window) << prev_trail
            else:
                # Case 11: fresh window.
                lz = reader.read_bits(self._LEAD_BITS)
                meaningful = reader.read_bits(self._LEN_BITS) + 1
                tz = width - lz - meaningful
                if tz < 0:
                    raise CorruptStreamError(
                        "gorilla window wider than the word"
                    )
                xor = reader.read_bits(meaningful) << tz
                prev_lead = lz
                prev_trail = tz
            previous ^= xor
            out[index] = previous
        return out.view(dtype)
