"""Shared bit-level utilities for the floating-point compressors.

These helpers implement the operations that recur across the surveyed
methods: reinterpreting IEEE 754 values as integers, the monotonic
sign-magnitude mapping used by prediction-based coders, vectorized
leading/trailing-zero counts, and the bit transposes of bitshuffle
(whole blocks) and of MPC and ndzip (word-width tiles) (paper sections
3.7, 3.8, 4.2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedDtypeError

__all__ = [
    "UINT_FOR_FLOAT",
    "float_bits",
    "bits_to_float",
    "sign_magnitude_map",
    "sign_magnitude_unmap",
    "significant_bits",
    "lead_nonzero",
    "lead_trail_nonzero",
    "trail_nonzero",
    "leading_zeros",
    "trailing_zeros",
    "pack_record_fields",
    "bit_transpose",
    "bit_untranspose",
    "transpose_bit_tiles",
]

UINT_FOR_FLOAT = {
    np.dtype(np.float32): np.dtype(np.uint32),
    np.dtype(np.float64): np.dtype(np.uint64),
}


def float_bits(array: np.ndarray) -> np.ndarray:
    """Reinterpret a float array as its IEEE 754 bit pattern (uint view)."""
    dtype = UINT_FOR_FLOAT.get(array.dtype)
    if dtype is None:
        raise UnsupportedDtypeError(
            f"expected float32/float64 array, got dtype {array.dtype}"
        )
    return array.view(dtype)


def bits_to_float(bits: np.ndarray) -> np.ndarray:
    """Reinterpret uint32/uint64 bit patterns back as floats."""
    if bits.dtype == np.uint32:
        return bits.view(np.float32)
    if bits.dtype == np.uint64:
        return bits.view(np.float64)
    raise UnsupportedDtypeError(
        f"expected uint32/uint64 bit patterns, got dtype {bits.dtype}"
    )


def sign_magnitude_map(bits: np.ndarray) -> np.ndarray:
    """Map IEEE bit patterns to integers ordered like the float values.

    Positive floats map to ``bits | sign``, negative floats to ``~bits``;
    the result is monotone in the float value, so numerically close values
    give small integer differences — the property fpzip and ndzip exploit
    before their Lorenzo transforms (paper sections 3.1, 3.8).
    """
    width = bits.dtype.itemsize * 8
    sign = bits >> np.uint64(width - 1) if width == 64 else bits >> np.uint32(31)
    top = (np.uint64(1) << np.uint64(63)) if width == 64 else np.uint32(1 << 31)
    return np.where(sign.astype(bool), ~bits, bits | top)


def sign_magnitude_unmap(mapped: np.ndarray) -> np.ndarray:
    """Invert :func:`sign_magnitude_map`."""
    width = mapped.dtype.itemsize * 8
    top = (np.uint64(1) << np.uint64(63)) if width == 64 else np.uint32(1 << 31)
    has_top = (mapped & top).astype(bool)
    return np.where(has_top, mapped & ~top, ~mapped)


def significant_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized bit length: position of the highest set bit plus one.

    Zero maps to zero.  Exact beyond the 2**53 float precision limit:
    the 32/64-bit fast path reads the IEEE 754 exponent of the value
    converted to float64 and then corrects the one case where rounding
    crossed a power of two, so no precision is lost.
    """
    values = np.asarray(values)
    width = values.dtype.itemsize * 8
    if width not in (32, 64):
        return _significant_bits_generic(values)
    as_float = values.astype(np.float64)
    estimate = (
        (as_float.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    ).view(np.int64) - 1022
    if width == 64:
        # A uint64 with more than 53 significant bits can round *up* to
        # the next power of two, overshooting the true bit length by
        # one; detect that by checking the claimed top bit is really set.
        np.minimum(estimate, 64, out=estimate)
        shift = np.maximum(estimate - 1, 0).view(np.uint64)
        estimate -= ((values >> shift) == 0).view(np.int8)
    estimate[values == 0] = 0
    return estimate.astype(np.uint8)


def _significant_bits_generic(values: np.ndarray) -> np.ndarray:
    """Shift-halving bit length for unsigned dtypes without a fast path."""
    width = values.dtype.itemsize * 8
    result = np.zeros(values.shape, dtype=np.uint8)
    work = values.copy()
    shift = width // 2
    while shift:
        one = np.asarray(1, dtype=values.dtype)
        mask = work >= (one << np.asarray(shift, dtype=values.dtype))
        result[mask] += np.uint8(shift)
        work = np.where(mask, work >> np.asarray(shift, dtype=values.dtype), work)
        shift //= 2
    result[values != 0] += np.uint8(1)
    return result


def lead_nonzero(values: np.ndarray) -> np.ndarray:
    """Leading-zero counts for an array without zeros, as ``int64``.

    Float-exponent fast path with the power-of-two rounding fixup;
    behaviour on zero elements is undefined — callers filter zero
    residuals into their own control case first.
    """
    width = values.dtype.itemsize * 8
    as_float = values.astype(np.float64)
    bitlen = (
        (as_float.view(np.int64) >> np.int64(52)) & np.int64(0x7FF)
    ) - 1022
    if width == 64:
        # Values over 53 significant bits may round up past a power of
        # two; verify the claimed top bit (bitlen >= 1 for nonzero input).
        np.minimum(bitlen, 64, out=bitlen)
        bitlen -= ((values >> (bitlen - 1).view(np.uint64)) == 0).view(np.int8)
    return width - bitlen


def trail_nonzero(values: np.ndarray) -> np.ndarray:
    """Trailing-zero counts for an array without zeros, as ``int64``.

    The isolated lowest set bit is a power of two, so its float64
    exponent is exact at any width — no fixup pass needed.
    """
    lowest = values & (~values + np.asarray(1, dtype=values.dtype))
    low_float = lowest.astype(np.float64)
    return (
        (low_float.view(np.int64) >> np.int64(52)) & np.int64(0x7FF)
    ) - 1023


def lead_trail_nonzero(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(leading_zeros, trailing_zeros)`` for arrays without zeros.

    The XOR-window coders need both counts for every nonzero residual;
    the float-exponent fast paths cost roughly half of two generic
    calls.  Returns ``int64`` arrays ready for index arithmetic.
    """
    return lead_nonzero(values), trail_nonzero(values)


def leading_zeros(values: np.ndarray) -> np.ndarray:
    """Vectorized count of leading zero bits at the values' native width."""
    values = np.asarray(values)
    width = values.dtype.itemsize * 8
    return (np.uint8(width) - significant_bits(values)).astype(np.uint8)


def trailing_zeros(values: np.ndarray) -> np.ndarray:
    """Vectorized count of trailing zero bits; zero maps to full width."""
    values = np.asarray(values)
    width = values.dtype.itemsize * 8
    lowest = values & (~values + np.asarray(1, dtype=values.dtype))
    result = (significant_bits(lowest) - np.uint8(1)).astype(np.int16)
    result[values == 0] = width
    return result.astype(np.uint8)


def pack_record_fields(
    first: int,
    width: int,
    hdr_v: np.ndarray,
    hdr_w: np.ndarray,
    pay_v: np.ndarray,
    pay_w: np.ndarray,
) -> bytes:
    """Pack per-record (header, payload) field pairs after a first value.

    Shared tail of the XOR-window coders: records whose header and
    payload fit one 64-bit word are fused into a single field, and the
    field list is built compact (no zero-width slots) because
    :func:`repro.encodings.vectorbit.pack_fields` cost scales with
    field count.  ``hdr_v``/``pay_v`` must already be masked to their
    widths.
    """
    from repro.encodings.vectorbit import pack_fields

    u64 = np.uint64
    n_records = hdr_v.size
    total_w = (hdr_w + pay_w).astype(np.int64, copy=False)
    fused = total_w <= 64
    slot0_v = np.where(fused, (hdr_v << pay_w.astype(u64)) | pay_v, hdr_v)
    extra = np.flatnonzero(~fused)  # records needing a second field
    n_fields = n_records + extra.size + 1
    fields_v = np.empty(n_fields, dtype=u64)
    fields_w = np.empty(n_fields, dtype=np.int64)
    fields_v[0] = first
    fields_w[0] = width
    if extra.size:
        slot0_pos = np.arange(1, n_records + 1, dtype=np.int64)
        bump = np.zeros(n_records, dtype=np.int64)
        bump[extra] = 1
        slot0_pos += np.cumsum(bump) - bump
        fields_v[slot0_pos] = slot0_v
        fields_w[slot0_pos] = np.where(fused, total_w, hdr_w)
        fields_v[slot0_pos[extra] + 1] = pay_v[extra]
        fields_w[slot0_pos[extra] + 1] = pay_w[extra]
    else:  # every record fused into one field: plain slice assignment
        fields_v[1:] = slot0_v
        fields_w[1:] = total_w
    return pack_fields(fields_v, fields_w, assume_masked=True)


def bit_transpose(block: np.ndarray) -> np.ndarray:
    """Bit-level transpose of a (n_values, word_bits) block.

    Input is a flat unsigned-int array; output is a uint8 array holding
    the transposed bit matrix: all values' bit 0 first (packed into
    bytes), then all bit 1, and so on.  This is the core of bitshuffle
    (section 3.7); MPC and ndzip transpose word-width tiles instead
    (:func:`transpose_bit_tiles`).
    """
    words = np.asarray(block)
    width = words.dtype.itemsize * 8
    # unpackbits works on uint8; view big-endian so bit order is MSB first.
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8)).reshape(len(words), width)
    return np.packbits(bits.T)


def bit_untranspose(packed: np.ndarray, n_values: int, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`bit_transpose` for ``n_values`` words of ``dtype``."""
    dtype = np.dtype(dtype)
    width = dtype.itemsize * 8
    bits = np.unpackbits(np.asarray(packed, dtype=np.uint8), count=width * n_values)
    matrix = bits.reshape(width, n_values).T
    be_bytes = np.packbits(matrix.reshape(-1))
    return be_bytes.view(dtype.newbyteorder(">")).astype(dtype)


#: Hacker's Delight delta swaps that transpose an 8x8 bit matrix held in
#: one ``uint64`` (row ``i`` in byte ``7 - i``, MSB first): each swaps
#: the off-diagonal 1x1, 2x2 and then 4x4 sub-blocks.
_DELTA_SWAPS = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def transpose_bit_tiles(words: np.ndarray) -> np.ndarray:
    """Transpose every ``width x width`` bit tile of a uint32/uint64 array.

    Tile ``k`` is words ``k * width`` to ``(k + 1) * width - 1``; its
    row ``r`` is word ``r`` and its column ``c`` is bit ``c`` counted
    from the MSB, so output word ``c`` holds bit ``c`` of every input
    word, MSB first.  The operation is its own inverse.  This is MPC's
    and ndzip's BIT stage (paper sections 3.8, 4.2).

    It works on words and never expands to one byte per bit: each 8x8
    bit block's eight bytes are gathered into one ``uint64``, three
    delta swaps transpose the blocks in place, and block ``(R, C)`` of
    a tile is scattered back as block ``(C, R)``.  Temporaries are
    about three times the input.  A length that does not fill whole
    tiles raises ``ValueError``.
    """
    width = words.dtype.itemsize * 8
    if words.size % width:
        raise ValueError(f"{words.size} words do not fill {width}-word tiles")
    side = width // 8  # 8x8 blocks per tile side
    le = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder("<"))
    # (tile, R, row in block, byte from the LSB); rows reversed so that
    # row 0 lands in a block's top byte.
    rows = le.view(np.uint8).reshape(-1, side, 8, side)[:, :, ::-1]
    blocks = np.ascontiguousarray(rows.transpose(0, 1, 3, 2)).view("<u8")
    swap = np.empty_like(blocks)
    for shift, mask in _DELTA_SWAPS:
        np.right_shift(blocks, shift, out=swap)
        swap ^= blocks
        swap &= mask
        blocks ^= swap
        swap <<= shift
        blocks ^= swap
    # Block (R, byte m) goes to block row side-1-m at byte side-1-R.
    mirrored = blocks.view(np.uint8).reshape(-1, side, side, 8)[:, ::-1, ::-1, ::-1]
    out = np.ascontiguousarray(mirrored.transpose(0, 2, 3, 1)).view(le.dtype)
    return out.astype(words.dtype, copy=False).reshape(words.shape)
