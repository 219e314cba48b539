"""Byte-oriented carry-less range coder with adaptive symbol models.

fpzip (paper section 3.1) encodes residual sign and leading-zero symbols
with "a fast range coding method" (Martin, 1979).  This module implements
the Subbotin carry-less variant: the coder renormalizes a byte at a time,
and underflow is resolved by clamping the range rather than propagating
carries into already-emitted bytes.

:class:`AdaptiveSymbolModel` provides the frequency tables; encoder and
decoder must drive identical model instances.

Encoder and decoder, model and coder, are also fused into two functions
over flat state, which is what fpzip runs.  :func:`encode_symbols` sees
every symbol before it codes one, so the model's ``(cum_freq, freq,
total)`` triple before each symbol comes from NumPy passes over one
halving segment at a time and only the low/range recurrence loops.
:func:`decode_symbols` cannot plan (the model's next state is the symbol
being decoded) and runs model lookup, coder step and byte fetch in one
loop.  The classes stay as the oracles both functions equal.

A valid stream is read to its last byte and never past it: the
decoder's 4 priming reads plus its renormalization reads equal the
encoder's renormalization bytes plus its 4 flush bytes, so a read past
the end is a truncated or forged stream and raises
:class:`~repro.errors.CorruptStreamError`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.errors import CorruptStreamError

__all__ = [
    "RangeEncoder",
    "RangeDecoder",
    "AdaptiveSymbolModel",
    "encode_symbols",
    "decode_symbols",
]

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = (1 << 32) - 1
#: A model whose total passes this halves its frequency table.
_HALVING_TOTAL = _BOTTOM - 256
#: What one observation adds to a symbol's count.
_INCREMENT = 32
_PAST_END = "range coder read past the end of its stream"


class RangeEncoder:
    """Encodes symbols as (cumulative frequency, frequency, total) triples."""

    def __init__(self) -> None:
        self._low = 0
        self._range = _MASK
        self._out = bytearray()
        self._finished = False

    def encode(self, cum_freq: int, freq: int, total: int) -> None:
        """Narrow the interval to ``[cum_freq, cum_freq + freq) / total``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        if freq <= 0 or cum_freq + freq > total or total > _BOTTOM:
            raise ValueError(
                f"invalid frequency triple ({cum_freq}, {freq}, {total})"
            )
        unit = self._range // total
        self._low = (self._low + unit * cum_freq) & _MASK
        self._range = unit * freq
        self._normalize()

    def _normalize(self) -> None:
        while True:
            if (self._low ^ (self._low + self._range)) & _MASK < _TOP:
                pass  # Top byte settled; emit it.
            elif self._range < _BOTTOM:
                # Underflow: clamp range so the top byte settles without a
                # carry ever reaching emitted bytes.
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                return
            self._out.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & _MASK
            self._range = (self._range << 8) & _MASK

    def finish(self) -> bytes:
        """Flush the remaining interval bytes and return the stream."""
        if not self._finished:
            self._finished = True
            for _ in range(4):
                self._out.append((self._low >> 24) & 0xFF)
                self._low = (self._low << 8) & _MASK
        return bytes(self._out)


class RangeDecoder:
    """Decodes streams produced by :class:`RangeEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _MASK
        self._code = 0
        for _ in range(4):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK

    def _next_byte(self) -> int:
        if self._pos < len(self._data):
            byte = self._data[self._pos]
            self._pos += 1
            return byte
        raise CorruptStreamError(_PAST_END)

    def decode_target(self, total: int) -> int:
        """Return a value in ``[0, total)`` locating the next symbol."""
        if total > _BOTTOM:
            raise ValueError(f"total frequency {total} exceeds coder capacity")
        unit = self._range // total
        target = ((self._code - self._low) & _MASK) // unit
        if target >= total:
            raise CorruptStreamError("range coder target outside model total")
        return target

    def consume(self, cum_freq: int, freq: int, total: int) -> None:
        """Consume the symbol identified from :meth:`decode_target`."""
        unit = self._range // total
        self._low = (self._low + unit * cum_freq) & _MASK
        self._range = unit * freq
        while True:
            if (self._low ^ (self._low + self._range)) & _MASK < _TOP:
                pass
            elif self._range < _BOTTOM:
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                return
            self._code = ((self._code << 8) | self._next_byte()) & _MASK
            self._low = (self._low << 8) & _MASK
            self._range = (self._range << 8) & _MASK


class AdaptiveSymbolModel:
    """Adaptive frequency table over a small symbol alphabet.

    Frequencies start uniform and increase with each observation; the
    table is halved when the total approaches the coder's 16-bit capacity,
    giving the model an exponential-forgetting window.
    """

    def __init__(self, num_symbols: int, increment: int = _INCREMENT) -> None:
        if num_symbols < 1:
            raise ValueError("model needs at least one symbol")
        self._freq = [1] * num_symbols
        self._total = num_symbols
        self._increment = increment

    @property
    def num_symbols(self) -> int:
        return len(self._freq)

    @property
    def total(self) -> int:
        return self._total

    def interval(self, symbol: int) -> tuple[int, int, int]:
        """Return ``(cum_freq, freq, total)`` for ``symbol``."""
        cum = 0
        freq = self._freq
        for index in range(symbol):
            cum += freq[index]
        return cum, freq[symbol], self._total

    def locate(self, target: int) -> tuple[int, int, int, int]:
        """Map a decoder target to ``(symbol, cum_freq, freq, total)``."""
        cum = 0
        for symbol, freq in enumerate(self._freq):
            if target < cum + freq:
                return symbol, cum, freq, self._total
            cum += freq
        raise CorruptStreamError("decoder target beyond cumulative total")

    def update(self, symbol: int) -> None:
        """Increase the count of ``symbol``, halving the table on overflow."""
        self._freq[symbol] += self._increment
        self._total += self._increment
        if self._total > _HALVING_TOTAL:
            total = 0
            freq = self._freq
            for index, value in enumerate(freq):
                value = (value + 1) >> 1
                freq[index] = value
                total += value
            self._total = total

    def encode_symbol(self, encoder: RangeEncoder, symbol: int) -> None:
        """Encode ``symbol`` and update the model."""
        cum, freq, total = self.interval(symbol)
        encoder.encode(cum, freq, total)
        self.update(symbol)

    def decode_symbol(self, decoder: RangeDecoder) -> int:
        """Decode the next symbol and update the model."""
        target = decoder.decode_target(self._total)
        symbol, cum, freq, total = self.locate(target)
        decoder.consume(cum, freq, total)
        self.update(symbol)
        return symbol


def _segment_length(total: int) -> int:
    """Updates a model at ``total`` takes until one halves its table:
    the update that pushes the total past the threshold."""
    if total > _BOTTOM:
        raise ValueError(f"total frequency {total} exceeds coder capacity")
    return max(1, (_HALVING_TOTAL - total) // _INCREMENT + 1)


def _segment_intervals(
    symbols: np.ndarray, freq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(cum_freq, freq)`` before each of ``symbols``, none of which
    halves the table before the last, starting from table ``freq``.

    Row ``j`` of the running one-hot count is the table's growth before
    symbol ``j``; its cumulative sum along the alphabet gives the
    cumulative frequencies.  ``freq`` is advanced in place to the table
    after the last symbol (before any halving).
    """
    rows = np.arange(symbols.size)
    onehot = np.zeros((symbols.size, freq.size), dtype=np.int32)
    onehot[rows, symbols] = _INCREMENT
    np.cumsum(onehot, axis=0, out=onehot)
    # Inclusive counts -> each row's counts before its own symbol.
    onehot[rows, symbols] -= _INCREMENT
    onehot += freq
    freq += _INCREMENT * np.bincount(symbols, minlength=freq.size)
    sym_freq = onehot[rows, symbols]
    np.cumsum(onehot, axis=1, out=onehot)
    return onehot[rows, symbols] - sym_freq, sym_freq


def encode_symbols(symbols, num_symbols: int) -> bytes:
    """Range-code ``symbols`` under an adaptive model over
    ``num_symbols`` symbols.

    Equals an :class:`AdaptiveSymbolModel` ``(num_symbols)`` driving a
    :class:`RangeEncoder` through ``encode_symbol`` and then
    ``finish()``.  The model's state depends on the symbols alone, so
    it is planned one halving segment at a time: a segment's length
    follows from its starting total (every update adds ``_INCREMENT``),
    and its triples come from a running ``int32`` one-hot count of
    shape (segment x ``num_symbols``), so the plan never holds more than
    one segment.  The halving between two segments is the one serial
    model step.  The low/range recurrence then loops over the triples
    with renormalization inline.
    """
    if num_symbols < 1:
        raise ValueError("model needs at least one symbol")
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size and (
        int(symbols.min()) < 0 or int(symbols.max()) >= num_symbols
    ):
        raise ValueError(f"symbol outside the {num_symbols}-symbol model")
    freq = np.ones(num_symbols, dtype=np.int32)
    total = num_symbols
    low = 0
    span = _MASK
    out = bytearray()
    emit = out.append
    start = 0
    while start < symbols.size:
        length = _segment_length(total)
        segment = symbols[start : start + length]
        cum_freq, sym_freq = _segment_intervals(segment, freq)
        totals = range(total, total + segment.size * _INCREMENT, _INCREMENT)
        for cum, width, total in zip(cum_freq.tolist(), sym_freq.tolist(), totals):
            unit = span // total
            low = (low + unit * cum) & _MASK
            span = unit * width
            # Emit while the top byte is settled or the range underflows.
            while (low ^ (low + span)) & _MASK < _TOP or span < _BOTTOM:
                if (low ^ (low + span)) & _MASK >= _TOP:
                    span = -low & (_BOTTOM - 1)
                emit(low >> 24)
                low = (low << 8) & _MASK
                span = (span << 8) & _MASK
        start += length
        freq += 1
        freq >>= 1
        total = int(freq.sum())
    for _ in range(4):
        emit(low >> 24)
        low = (low << 8) & _MASK
    return bytes(out)


def decode_symbols(data, count: int, num_symbols: int) -> list[int]:
    """Decode ``count`` symbols that :func:`encode_symbols` (or the
    model + :class:`RangeEncoder` pair) coded with the same model.

    One loop over flat ``low`` / ``range`` / ``code`` state, run one
    halving segment at a time so the model total is the loop variable.
    The symbol is found with ``bisect_right`` on the cumulative
    frequencies (``bounds[s]`` is the total below symbol ``s``), and
    after each update ``itertools.accumulate`` rebuilds the bounds from
    the updated symbol up.  Reading past the end of ``data`` raises
    :class:`~repro.errors.CorruptStreamError`, as does a target outside
    the model total.
    """
    if num_symbols < 1:
        raise ValueError("model needs at least one symbol")
    data = bytes(data)
    freq = [1] * num_symbols
    total = num_symbols
    bounds = list(range(num_symbols + 1))
    symbols: list[int] = []
    append = symbols.append
    low = 0
    span = _MASK
    pos = 4
    symbol = 0
    try:
        code = (data[0] << 24) | (data[1] << 16) | (data[2] << 8) | data[3]
        while len(symbols) < count:
            length = min(_segment_length(total), count - len(symbols))
            for total in range(total, total + length * _INCREMENT, _INCREMENT):
                unit = span // total
                # A target past the total bisects to the sentinel bound
                # ``num_symbols``, whose ``freq`` lookup raises; every
                # other IndexError is a byte fetched past the end.
                symbol = bisect_right(bounds, ((code - low) & _MASK) // unit) - 1
                cum = bounds[symbol]
                width = freq[symbol]
                low = (low + unit * cum) & _MASK
                span = unit * width
                while (low ^ (low + span)) & _MASK < _TOP or span < _BOTTOM:
                    if (low ^ (low + span)) & _MASK >= _TOP:
                        span = -low & (_BOTTOM - 1)
                    code = ((code << 8) | data[pos]) & _MASK
                    pos += 1
                    low = (low << 8) & _MASK
                    span = (span << 8) & _MASK
                append(symbol)
                freq[symbol] = width + _INCREMENT
                bounds[symbol + 1 :] = accumulate(
                    freq[symbol + 1 :], initial=cum + width + _INCREMENT
                )
            freq = [(value + 1) >> 1 for value in freq]
            total = sum(freq)
            bounds = list(accumulate(freq, initial=0))
    except IndexError:
        if symbol == num_symbols:
            raise CorruptStreamError("range coder target outside model total") from None
        raise CorruptStreamError(_PAST_END) from None
    return symbols
