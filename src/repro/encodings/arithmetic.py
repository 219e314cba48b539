"""Adaptive binary arithmetic coding.

Arithmetic coding (paper section 2.2, encoding method 3) encodes a symbol
sequence against a cumulative distribution and approaches entropy more
closely than Huffman coding as sequences grow.  The binary coder here is
the entropy back-end of the Dzip reproduction: a predictive model supplies
``P(bit = 1)`` for every bit and the coder turns those probabilities into
a near-entropy bit stream.

The implementation is the classic 32-bit low/high coder with pending-bit
(bit-plus-follow) carry resolution.

:class:`BinaryArithmeticEncoder`, :class:`BinaryArithmeticDecoder` and
:class:`AdaptiveBitModel` code one bit per call and are the oracles.
An encoder knows every context before it starts, so the batched pair
:func:`adaptive_states` (all model states in NumPy passes) and
:func:`encode_bits` (one loop over precomputed probabilities) produces
the same bytes without a Python object or method call per bit.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.bitio import BitReader, BitWriter
from repro.errors import CorruptStreamError

__all__ = [
    "PROBABILITY_BITS",
    "PROBABILITY_ONE",
    "BinaryArithmeticEncoder",
    "BinaryArithmeticDecoder",
    "AdaptiveBitModel",
    "adaptive_states",
    "encode_bits",
]

PROBABILITY_BITS = 16
PROBABILITY_ONE = 1 << PROBABILITY_BITS

_FULL = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTERS = 3 << 30

#: ``AdaptiveBitModel`` halves its counts when ``total`` reaches this.
_HALVING_TOTAL = 1024


class BinaryArithmeticEncoder:
    """Encodes a bit sequence given per-bit probabilities of a one."""

    def __init__(self) -> None:
        self._low = 0
        self._high = _FULL
        self._pending = 0
        self._writer = BitWriter()
        self._finished = False

    def _emit(self, bit: int) -> None:
        self._writer.write_bits(bit, 1)
        if self._pending:
            inverse = 0 if bit else 1
            for _ in range(self._pending):
                self._writer.write_bits(inverse, 1)
            self._pending = 0

    def encode(self, bit: int, prob_one: int) -> None:
        """Encode one bit; ``prob_one`` is P(bit=1) in 16-bit fixed point.

        ``prob_one`` is clamped to [1, PROBABILITY_ONE - 1] so both
        branches always keep non-zero coding space.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        p1 = min(max(prob_one, 1), PROBABILITY_ONE - 1)
        span = self._high - self._low
        # Upper part of the interval encodes the one branch.
        split = self._low + ((span * (PROBABILITY_ONE - p1)) >> PROBABILITY_BITS)
        if bit:
            self._low = split + 1
        else:
            self._high = split
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def finish(self) -> bytes:
        """Flush the final interval and return the encoded stream."""
        if not self._finished:
            self._finished = True
            self._pending += 1
            if self._low < _QUARTER:
                self._emit(0)
            else:
                self._emit(1)
        return self._writer.getvalue()


class BinaryArithmeticDecoder:
    """Decodes a stream produced by :class:`BinaryArithmeticEncoder`.

    The caller must replay the *same* probability sequence used during
    encoding; this is guaranteed by using the same adaptive model updated
    with the decoded bits.
    """

    #: The decoder's 32-bit value register legitimately looks a little
    #: past the last encoded bit (the initial fill plus the final
    #: flush), so a bounded number of phantom zero bits is part of the
    #: format.  Needing more than this means the stream was truncated —
    #: without the bound a cut payload would decode to plausible but
    #: wrong data with no error at all.
    MAX_PHANTOM_BITS = 64

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self._low = 0
        self._high = _FULL
        self._value = 0
        self._phantom = 0
        for _ in range(32):
            self._value = (self._value << 1) | self._next_bit()

    def _next_bit(self) -> int:
        if self._reader.remaining:
            return self._reader.read_bits(1)
        self._phantom += 1
        if self._phantom > self.MAX_PHANTOM_BITS:
            raise CorruptStreamError(
                "arithmetic stream exhausted: decoder needs more than "
                f"{self.MAX_PHANTOM_BITS} bits past the end (truncated?)"
            )
        return 0

    def decode(self, prob_one: int) -> int:
        """Decode one bit given the model's P(bit=1)."""
        p1 = min(max(prob_one, 1), PROBABILITY_ONE - 1)
        span = self._high - self._low
        split = self._low + ((span * (PROBABILITY_ONE - p1)) >> PROBABILITY_BITS)
        if self._value > split:
            bit = 1
            self._low = split + 1
        else:
            bit = 0
            self._high = split
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._next_bit()
        return bit


class AdaptiveBitModel:
    """Counts-based adaptive estimate of P(bit=1).

    Uses Krichevsky-Trofimov style counts with periodic halving so the
    model tracks non-stationary statistics, which floating-point byte
    streams exhibit heavily.
    """

    __slots__ = ("_ones", "_total")

    def __init__(self) -> None:
        self._ones = 1
        self._total = 2

    @property
    def prob_one(self) -> int:
        """Current P(bit=1) in 16-bit fixed point, clamped to (0, 1).

        Halving can leave ``ones == total``; the clamp keeps both
        branches of the coder alive regardless.
        """
        raw = (self._ones * PROBABILITY_ONE) // self._total
        return min(max(raw, 1), PROBABILITY_ONE - 1)

    def update(self, bit: int) -> None:
        """Fold an observed bit into the estimate."""
        self._total += 1
        if bit:
            self._ones += 1
        if self._total >= _HALVING_TOTAL:
            self._ones = (self._ones + 1) >> 1
            self._total = (self._total + 1) >> 1


#: Updates a fresh model (``total == 2``) absorbs before its first
#: halving, and between halvings afterwards (``total`` restarts at 512).
_FIRST_SEGMENT = _HALVING_TOTAL - 2
_LATER_SEGMENT = _HALVING_TOTAL // 2


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort by key: ``(order, starts)`` where ``starts[i]`` is
    true when ``keys[order[i]]`` opens a run of equal keys.

    Non-negative keys are sorted as ``key << index_bits | index`` in one
    unstable ``int64`` sort — the index in the low bits is the tie-break
    a stable sort applies — several times faster than a stable
    ``argsort`` of 32-bit keys.
    """
    n = keys.size
    index_bits = n.bit_length()
    wide = keys.astype(np.int64)
    if int(wide.min()) < 0 or int(wide.max()).bit_length() + index_bits > 63:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    else:
        wide <<= index_bits
        wide |= np.arange(n, dtype=np.int64)
        wide.sort()
        sorted_keys = wide >> index_bits
        order = wide
        order &= (1 << index_bits) - 1
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return order, starts


def adaptive_states(
    keys: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """State of every keyed :class:`AdaptiveBitModel` before each bit.

    ``keys[i]`` names the model that codes ``bits[i]``; models start
    fresh and see their bits in index order.  Returns ``(ones, total)``
    as ``uint16`` arrays: the ``_ones`` / ``_total`` a per-key
    ``AdaptiveBitModel`` holds just before ``update(bits[i])``.

    A stable sort by key makes each model's history one contiguous
    run.  ``total`` depends only on how many updates the model has
    seen, so the halvings fall at fixed ranks: after the first 1,022
    updates and every 512 after that.  Those ranks cut a run into
    segments; inside one, ``ones`` is the segment's starting value plus
    an exclusive running sum of its bits, and the starting value of a
    later segment is ``(previous start + previous segment's bits + 1)
    >> 1`` — the only serial step, at most one per 512 bits.

    Work arrays (the ``int64`` sort keys and order, ``int32`` counts,
    per-segment arrays) peak at 23 bytes per bit when keys repeat
    often and 54 when every key is distinct; all are released on return.
    """
    keys = np.asarray(keys).ravel()
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n = keys.size
    if bits.size != n:
        raise ValueError(f"keys and bits disagree: {n} vs {bits.size}")
    if n == 0:
        return np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.uint16)
    order, boundary = _sorted_runs(keys)
    sorted_bits = bits[order]
    opens_run = boundary.copy()
    run_start = np.flatnonzero(boundary)
    run_end = np.append(run_start[1:], n)
    # Segment boundaries: run starts plus the ranks that follow a
    # halving, which only runs longer than 1,022 have.
    long_runs = np.flatnonzero(run_end - run_start > _FIRST_SEGMENT)
    for start, end in zip(
        run_start[long_runs].tolist(), run_end[long_runs].tolist()
    ):
        boundary[start + _FIRST_SEGMENT : end : _LATER_SEGMENT] = True
    segment_start = np.flatnonzero(boundary)
    halved = ~opens_run[segment_start]
    del boundary, opens_run, run_start, run_end
    lengths = np.diff(segment_start, append=n)
    total = np.arange(n, dtype=np.int32)
    total -= np.repeat(segment_start.astype(np.int32), lengths)
    total += np.repeat(
        np.where(halved, _LATER_SEGMENT, 2).astype(np.int32), lengths
    )
    # Exclusive running count of one-bits, restarted at every segment.
    ones = np.cumsum(sorted_bits, dtype=np.int32)
    ones -= sorted_bits
    segment_ones = np.add.reduceat(sorted_bits, segment_start, dtype=np.int32)
    del sorted_bits
    starts = np.ones(segment_start.size, dtype=np.int32)
    # In sorted order the segment before a halved one is the same
    # model's previous segment, already final when the loop reaches it.
    for index in np.flatnonzero(halved).tolist():
        before = index - 1
        starts[index] = (int(starts[before]) + int(segment_ones[before]) + 1) >> 1
    starts -= ones[segment_start]
    ones += np.repeat(starts, lengths)
    ones_out = np.empty(n, dtype=np.uint16)
    ones_out[order] = ones
    del ones
    total_out = np.empty(n, dtype=np.uint16)
    total_out[order] = total
    return ones_out, total_out


def encode_bits(bits, prob_one) -> bytes:
    """Arithmetic-code ``bits[i]`` with ``P(bit=1) = prob_one[i]``.

    Equals a :class:`BinaryArithmeticEncoder` fed the same
    ``encode(bit, prob_one)`` calls and then ``finish()``.  The
    low/high/pending recurrence stays a serial loop (every step needs
    the interval the previous one left), but with no method call per
    bit, and the emitted bits are packed in one ``np.packbits`` pass.
    """
    zero_share = np.array(prob_one, dtype=np.int64)
    np.clip(zero_share, 1, PROBABILITY_ONE - 1, out=zero_share)
    np.subtract(PROBABILITY_ONE, zero_share, out=zero_share)
    zero_share = zero_share.astype(np.uint32)
    low = 0
    high = _FULL
    pending = 0
    out = bytearray()  # one emitted bit per byte
    emit = out.append
    # Iterating the buffers boxes one value at a time; ``tolist()``
    # would hold 40 bytes of int objects and pointers per coded bit.
    for bit, share in zip(
        np.asarray(bits, dtype=np.uint8).tobytes(), memoryview(zero_share)
    ):
        split = low + (((high - low) * share) >> PROBABILITY_BITS)
        if bit:
            low = split + 1
        else:
            high = split
        while True:
            if high < _HALF:
                emit(0)
                if pending:
                    out += b"\x01" * pending
                    pending = 0
            elif low >= _HALF:
                emit(1)
                if pending:
                    out += bytes(pending)
                    pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
    pending += 1
    if low < _QUARTER:
        emit(0)
        out += b"\x01" * pending
    else:
        emit(1)
        out += bytes(pending)
    return np.packbits(np.frombuffer(out, dtype=np.uint8)).tobytes()
