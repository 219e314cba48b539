"""Chimp128: XOR compression with a 128-value reference window.

Paper section 3.5.  Chimp extends Gorilla in two ways: redesigned control
bits that stop wasting space when residuals have fewer than 6 trailing
zeros, and a 128-slot window of previous values (grouped by their least
significant bits) from which the reference producing the most trailing
zeros is chosen.  The paper characterizes this as prediction with a
sliding window; the lookup cost is why Chimp compresses slower than
Gorilla while reaching better ratios on irregular data.

Control cases (2 bits):

* ``00`` — the XOR against a windowed reference is zero; store the
  7-bit window index.
* ``01`` — the windowed XOR has more than ``threshold`` trailing zeros;
  store the index, a 3-bit leading-zero bucket, a 6-bit center length,
  and the center bits.
* ``10`` — XOR against the previous value, reusing the previous
  leading-zero count; store ``width - lead`` bits.
* ``11`` — XOR against the previous value with a fresh 3-bit
  leading-zero bucket; store ``width - lead`` bits.

The hot paths run in plan-then-pack form.  The window search
vectorizes exactly because Chimp's low-bits map is last-writer-wins:
the candidate reference for position ``p`` is simply the previous
occurrence of ``p``'s key, which one stable argsort yields for every
position at once.  The only serial-looking state — the leading-zero
bucket reused by case ``10`` — collapses because after *any*
previous-value record the live bucket equals that record's own (forced)
bucket, so the recurrence is a shifted comparison, not a scan.

The decoder keeps a Python loop for the one thing that is serial, where
each record starts: a record's length depends on its control bits, on
the lead code of the last ``11`` record and on a ``01`` record's centre
length, all of which sit in the 18 bits after its start, so the walk is
one 32-bit read and one ``append`` per record.  Everything else is
derived from the starts in array passes: one ``unpack_fields`` of those
18-bit heads gives control, window index, lead code and centre for
every record; a ``10`` record's width is a forward fill of the last
``11`` code; the window-index and trailing-count checks are one
predicate; a second ``unpack_fields`` reads the payloads.  The values
then form a forest — ``out[p] = out[parent[p]] ^ xor[p]`` with the
parent a window reference or ``p - 1``, rooted at value 0 — which
pointer doubling resolves in ``log2(depth)`` rounds at any density of
window references.
``_compress_scalar`` / ``_decompress_scalar`` keep the original
per-element implementation as the byte-identity oracle.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.compressors.util import (
    float_bits,
    lead_nonzero,
    pack_record_fields,
    significant_bits,
    trail_nonzero,
)
from repro.encodings.bitio import BitReader, BitWriter
from repro.encodings.vectorbit import pack_fields, unpack_fields
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["ChimpCompressor"]

_WINDOW = 128
_INDEX_BITS = 7
_U64 = np.uint64
_WORD = struct.Struct(">I")

# Leading-zero bucket tables (round down to the nearest representable
# count), mirroring Chimp's 8-entry lookup.
_LEAD_TABLE = {
    64: (0, 8, 12, 16, 18, 20, 22, 24),
    32: (0, 4, 6, 8, 10, 12, 14, 16),
}
# Trailing-zero threshold for preferring the windowed reference.
_THRESHOLD = {64: 6, 32: 4}
# Bits of the value used to key the low-bits lookup map.
_KEY_BITS = {64: 13, 32: 11}


def _bucket(table: tuple[int, ...], lead: int) -> int:
    """Largest table index whose representative does not exceed ``lead``."""
    code = 0
    for index, representative in enumerate(table):
        if representative <= lead:
            code = index
    return code


def _derive_plan(
    data: bytes, starts: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every record's XOR and reference, from the record starts alone.

    Returns ``(xors, refs)``: the residual of each record and the
    absolute index of the window value it is taken against, ``-1`` for
    the previous value.  ``data`` must be addressable 18 bits past the
    last start (the decoder's zero padding).
    """
    len_bits = 6 if width == 64 else 5
    table = np.asarray(_LEAD_TABLE[width], dtype=np.int64)
    head = unpack_fields(data, np.full(starts.size, 18), starts).view(np.int64)
    control = head >> 16
    position = np.arange(starts.size)
    # Case 10 reuses the lead code of the last case-11 record: a
    # forward fill of those records' positions (code 0 before the first).
    fresh = control == 0b11
    last_fresh = np.maximum.accumulate(np.where(fresh, position, 0))
    live = np.where(fresh[last_fresh], (head[last_fresh] >> 13) & 0b111, 0)

    windowed = control < 0b10
    centred = control == 0b01
    rel = (head >> 9) & 0x7F
    centre = ((head >> (6 - len_bits)) & ((1 << len_bits) - 1)) + 1
    trailing = np.where(centred, width - table[(head >> 6) & 0b111] - centre, 0)
    retained = np.minimum(position + 1, _WINDOW)
    if (windowed & (rel >= retained)).any() or (trailing < 0).any():
        raise CorruptStreamError(
            "chimp stream carries an invalid window reference"
        )

    header = np.asarray((2 + _INDEX_BITS, 2 + _INDEX_BITS + 3 + len_bits, 2, 5))
    widths = np.where(windowed, np.where(centred, centre, 0), width - table[live])
    vals = unpack_fields(data, widths, starts + header[control])
    refs = np.where(windowed, position + 1 - retained + rel, -1)
    return vals << trailing.view(_U64), refs


def _reconstruct(first: int, xors: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Values of the forest ``out[p] = out[parent[p]] ^ xors[p - 1]``.

    ``parent[p]`` is ``refs[p - 1]``, or ``p - 1`` where that is ``-1``;
    every chain ends at value 0 (``first``).  Pointer doubling folds
    each value's path into it in ``log2(depth)`` whole-array rounds,
    whatever the mix of window and previous-value records.
    """
    count = xors.size + 1
    acc = np.zeros(count, dtype=_U64)
    acc[1:] = xors
    parent = np.zeros(count, dtype=np.int64)
    parent[1:] = np.where(refs >= 0, refs, np.arange(count - 1))
    while parent.any():
        acc ^= acc[parent]
        parent = parent[parent]
    return acc ^ _U64(first)


@register
class ChimpCompressor(Compressor):
    """Chimp128 as integrated in InfluxDB (values pipeline)."""

    info = MethodInfo(
        name="chimp",
        display_name="Chimp",
        year=2022,
        domain="Database",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="go",
        trait="delta",
        predictor_family="dictionary",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("window_search_encode", int_ops=46.0, bytes_touched=2.6),
        ),
        decompress_kernels=(
            KernelSpec("xor_reconstruct", int_ops=12.0, bytes_touched=2.4),
        ),
        anchor_compress_gbs=0.034,
        anchor_decompress_gbs=0.175,
        block_setup_bytes=30_000.0,
        footprint_factor=2.0,
    )

    def _compress(self, array: np.ndarray) -> bytes:
        bits = float_bits(array.ravel())
        width = bits.dtype.itemsize * 8
        n = bits.size
        if n == 0:
            return b""
        first = _U64(bits[0])
        if n == 1:
            return pack_fields([first], [width], assume_masked=True)
        lead_table = _LEAD_TABLE[width]
        table_arr = np.asarray(lead_table, dtype=np.int64)
        threshold = _THRESHOLD[width]
        key_mask = (1 << _KEY_BITS[width]) - 1
        len_bits = 6 if width == 64 else 5

        # The low-bits map is last-writer-wins, so the lookup candidate
        # at position p is the previous occurrence of p's key.
        keys = (bits & bits.dtype.type(key_mask)).astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        same = sorted_keys[1:] == sorted_keys[:-1]
        prev_occ = np.full(n, -1, dtype=np.int64)
        prev_occ[order[1:][same]] = order[:-1][same]

        # Records are positions 1..n-1 (all arrays stay at native width
        # so the bit-count fast paths see the true word size).
        cand = prev_occ[1:]
        first_abs = np.arange(1 - _WINDOW, n - _WINDOW, dtype=np.int64)
        np.maximum(first_abs, 0, out=first_abs)
        use_win = cand >= first_abs
        xr = bits[1:] ^ bits[np.maximum(cand, 0)]
        case00 = use_win & (xr == 0)
        win_nz = use_win & ~case00
        wpos = np.flatnonzero(win_nz)
        case01 = np.zeros(n - 1, dtype=bool)
        lead01 = trail01 = None
        # Bucket lookup as a dense table over all possible lead counts.
        bucket_of = np.searchsorted(
            table_arr, np.arange(width + 1), side="right"
        ) - 1
        if wpos.size:
            # Trailing zeros gate case 01; leading zeros are only needed
            # for the (usually few) residuals that pass the gate.
            wt = trail_nonzero(xr[wpos])
            prefer = wt > threshold
            wpos = wpos[prefer]
            case01[wpos] = True
            trail01 = wt[prefer]
            lead01 = lead_nonzero(xr[wpos]) if wpos.size else wt[:0]

        # Previous-value records are whatever the window did not claim;
        # their XORs and lead buckets are computed on that subset only.
        prev_mask = ~(case00 | case01)
        ppos = np.flatnonzero(prev_mask)
        xp_s = bits[ppos + 1] ^ bits[ppos]
        zero_s = xp_s == 0
        lead_s = width - significant_bits(xp_s).astype(np.int64)
        lp_s = bucket_of[lead_s]
        forced = np.where(zero_s, len(lead_table) - 1, lp_s)
        live = np.empty(forced.size, dtype=np.int64)
        if forced.size:
            live[0] = 0  # initial prev_lead_code
            live[1:] = forced[:-1]
        case10_s = ~zero_s & (lp_s == live)

        # Assembly: previous-value records are the default, window
        # records are scattered over them.
        hv = np.where(
            case10_s,
            _U64(0b10),
            (_U64(0b11) << _U64(3)) | forced.view(_U64),
        )
        hw_s = np.where(case10_s, 2, 5)
        pw_s = width - table_arr[np.where(case10_s, lp_s, forced)]
        hdr_v = np.empty(n - 1, dtype=_U64)
        hdr_w = np.empty(n - 1, dtype=np.int64)
        pay_v = np.empty(n - 1, dtype=_U64)
        pay_w = np.empty(n - 1, dtype=np.int64)
        hdr_v[ppos] = hv
        hdr_w[ppos] = hw_s
        pay_v[ppos] = xp_s
        pay_w[ppos] = pw_s
        zpos = np.flatnonzero(case00)
        if zpos.size:
            rel = cand[zpos] - first_abs[zpos]
            hdr_v[zpos] = rel.view(_U64)  # control 00 + 7-bit index
            hdr_w[zpos] = 2 + _INDEX_BITS
            pay_v[zpos] = 0
            pay_w[zpos] = 0
        if wpos.size:
            rel = cand[wpos] - first_abs[wpos]
            code01 = bucket_of[lead01]
            lead_round = table_arr[code01]
            center = width - lead_round - trail01
            hdr_v[wpos] = (
                ((((_U64(0b01) << _U64(_INDEX_BITS)) | rel.view(_U64))
                  << _U64(3) | code01.view(_U64)) << _U64(len_bits))
                | (center - 1).view(_U64)
            )
            hdr_w[wpos] = 2 + _INDEX_BITS + 3 + len_bits
            pay_v[wpos] = xr[wpos].astype(_U64) >> trail01.view(_U64)
            pay_w[wpos] = center

        return pack_record_fields(first, width, hdr_v, hdr_w, pay_v, pay_w)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8
        if count == 0:
            return np.empty(0, dtype=uint_dtype).view(dtype)
        len_bits = 6 if width == 64 else 5
        nbits = len(payload) * 8
        if width > nbits:
            raise CorruptStreamError("chimp stream shorter than one value")
        # Zero padding makes every 32-bit read below addressable; a
        # record that leans on it ends past nbits and is refused there.
        data = bytes(payload) + b"\x00\x00\x00\x00"
        first = int.from_bytes(data[: width >> 3], "big")

        # The walk keeps only what is serial: where each record starts.
        # Control, the 11 lead code and the 01 centre length all sit in
        # the 18 bits after a start, so one bounded read finds the next
        # (head is those 18 bits right-aligned under up to 7 stale ones:
        # control at bit 16, the 11 lead code at bit 13).
        starts: list[int] = []
        add = starts.append
        read = _WORD.unpack_from
        step11 = [5 + width - lead for lead in _LEAD_TABLE[width]]
        step01 = 2 + _INDEX_BITS + 3 + len_bits + 1
        centre_shift = 6 - len_bits
        centre_mask = (1 << len_bits) - 1
        step10 = 2 + width
        pos = width
        try:
            for _ in range(count - 1):
                add(pos)
                head = read(data, pos >> 3)[0] >> (14 - (pos & 7))
                control = (head >> 16) & 0b11
                if control == 0b10:
                    pos += step10
                elif control == 0b11:
                    step = step11[(head >> 13) & 0b111]
                    pos += step
                    step10 = step - 3
                elif control == 0b00:
                    pos += 2 + _INDEX_BITS
                else:
                    pos += step01 + ((head >> centre_shift) & centre_mask)
        except struct.error:  # a start past the padding
            raise CorruptStreamError("chimp control stream exhausted") from None
        if pos > nbits:
            raise CorruptStreamError("chimp payload truncated")
        xors, refs = _derive_plan(data, np.asarray(starts, dtype=np.int64), width)
        out = _reconstruct(first, xors, refs)
        return out.astype(uint_dtype, copy=False).view(dtype)

    # ------------------------------------------------------------------
    # Scalar oracle (the original per-element implementation)
    # ------------------------------------------------------------------
    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """Reference coder; the vectorized path must match it bit-exactly."""
        bits = float_bits(array.ravel())
        width = bits.dtype.itemsize * 8
        lead_table = _LEAD_TABLE[width]
        threshold = _THRESHOLD[width]
        key_mask = (1 << _KEY_BITS[width]) - 1
        len_bits = 6 if width == 64 else 5

        writer = BitWriter()
        values = bits.tolist()
        if not values:
            return writer.getvalue()
        writer.write_bits(values[0], width)

        window: list[int] = [values[0]]
        index_of_key: dict[int, int] = {values[0] & key_mask: 0}
        prev_lead_code = 0
        for position in range(1, len(values)):
            value = values[position]
            # Absolute index of the oldest value still inside the window.
            first_abs = position - len(window)
            candidate_abs = index_of_key.get(value & key_mask, -1)
            use_window = candidate_abs >= first_abs
            if use_window:
                rel_index = candidate_abs - first_abs
                reference = window[rel_index]
                xor_ref = value ^ reference
                if xor_ref == 0:
                    writer.write_bits(0b00, 2)
                    writer.write_bits(rel_index, _INDEX_BITS)
                    self._push(window, index_of_key, value, key_mask, position)
                    continue
                trailing = (xor_ref & -xor_ref).bit_length() - 1
                if trailing > threshold:
                    lead_code = _bucket(lead_table, width - xor_ref.bit_length())
                    lead = lead_table[lead_code]
                    center = width - lead - trailing
                    writer.write_bits(0b01, 2)
                    writer.write_bits(rel_index, _INDEX_BITS)
                    writer.write_bits(lead_code, 3)
                    writer.write_bits(center - 1, len_bits)
                    writer.write_bits(xor_ref >> trailing, center)
                    self._push(window, index_of_key, value, key_mask, position)
                    continue
            xor_prev = value ^ window[-1]
            lead_actual = width - xor_prev.bit_length() if xor_prev else width
            lead_code = _bucket(lead_table, lead_actual)
            if xor_prev and lead_code == prev_lead_code:
                writer.write_bits(0b10, 2)
                writer.write_bits(xor_prev, width - lead_table[lead_code])
            else:
                if not xor_prev:
                    lead_code = len(lead_table) - 1  # densest bucket for zero
                writer.write_bits(0b11, 2)
                writer.write_bits(lead_code, 3)
                writer.write_bits(xor_prev, width - lead_table[lead_code])
                prev_lead_code = lead_code
            self._push(window, index_of_key, value, key_mask, position)
        return writer.getvalue()

    @staticmethod
    def _push(
        window: list[int],
        index_of_key: dict[int, int],
        value: int,
        key_mask: int,
        position: int,
    ) -> None:
        window.append(value)
        if len(window) > _WINDOW:
            del window[0]
        index_of_key[value & key_mask] = position

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        uint_dtype = np.uint64 if dtype == np.float64 else np.uint32
        width = np.dtype(uint_dtype).itemsize * 8
        lead_table = _LEAD_TABLE[width]
        len_bits = 6 if width == 64 else 5
        out = np.empty(count, dtype=uint_dtype)
        if count == 0:
            return out.view(dtype)

        reader = BitReader(payload)
        value = reader.read_bits(width)
        out[0] = value
        window = [value]
        prev_lead_code = 0
        for position in range(1, count):
            control = reader.read_bits(2)
            if control == 0b00:
                rel_index = reader.read_bits(_INDEX_BITS)
                if rel_index >= len(window):
                    raise CorruptStreamError(
                        "chimp window reference outside retained values"
                    )
                value = window[rel_index]
            elif control == 0b01:
                rel_index = reader.read_bits(_INDEX_BITS)
                lead_code = reader.read_bits(3)
                center = reader.read_bits(len_bits) + 1
                lead = lead_table[lead_code]
                trailing = width - lead - center
                if rel_index >= len(window) or trailing < 0:
                    raise CorruptStreamError(
                        "chimp stream carries an invalid window reference"
                    )
                xor_ref = reader.read_bits(center) << trailing
                value = window[rel_index] ^ xor_ref
            elif control == 0b10:
                lead = lead_table[prev_lead_code]
                value = window[-1] ^ reader.read_bits(width - lead)
            else:
                lead_code = reader.read_bits(3)
                xor_prev = reader.read_bits(width - lead_table[lead_code])
                value = window[-1] ^ xor_prev
                prev_lead_code = lead_code
            out[position] = value
            window.append(value)
            if len(window) > _WINDOW:
                del window[0]
        return out.view(dtype)
