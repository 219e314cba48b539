"""Greedy LZ77 matching with a hash-chain matcher.

LZ77 (Ziv & Lempel, 1977) underlies three of the surveyed methods: the
LZ4 back-ends of bitshuffle and nvCOMP, the zstd-style entropy-coded LZ,
and SPDP's LZa6 reducer (paper section 3.2), which the authors describe
as "a fast variant of the LZ77".  All of them share this matcher and
differ in token serialization and search parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Token", "find_tokens", "copy_match", "MIN_MATCH"]

MIN_MATCH = 4
_HASH_SHIFT = 20


@dataclass(frozen=True)
class Token:
    """One LZ77 sequence: a literal run followed by an optional match.

    ``match_length == 0`` marks the stream-final literals-only token.
    """

    literals: bytes
    match_length: int
    match_distance: int


def _hash4(data: bytes, pos: int) -> int:
    """Multiplicative hash of the 4 bytes at ``pos`` (Fibonacci hashing)."""
    word = int.from_bytes(data[pos : pos + 4], "little")
    return (word * 2654435761) >> _HASH_SHIFT & 0xFFF


def _match_length(data: bytes, a: int, b: int, limit: int) -> int:
    """Longest common prefix of data[a:] and data[b:], capped at ``limit``."""
    n = 0
    while n + 8 <= limit and data[a + n : a + n + 8] == data[b + n : b + n + 8]:
        n += 8
    while n < limit and data[a + n] == data[b + n]:
        n += 1
    return n


def _hash_all(data: bytes) -> memoryview:
    """``_hash4`` of every position in one NumPy pass.

    Bits 20..31 of the product depend only on its low 32 bits, so the
    wrapping ``uint32`` multiply yields the hash of the unbounded Python
    product.  Three zero bytes of padding reproduce the short trailing
    slices ``_hash4`` zero-extends.  The 12-bit hashes come back as a
    ``uint16`` buffer (2 bytes per input byte) indexed on demand, so
    skip acceleration over incompressible input never pays for boxing
    the hashes it jumps over.
    """
    padded = np.frombuffer(data + b"\0\0\0", dtype=np.uint8)
    n = len(data)
    word = padded[:n].astype(np.uint32)
    for offset in (1, 2, 3):
        word |= padded[offset : offset + n].astype(np.uint32) << np.uint32(
            8 * offset
        )
    word *= np.uint32(2654435761)
    word >>= np.uint32(_HASH_SHIFT)
    return memoryview(word.astype(np.uint16))


def _common_prefix(data: bytes, a: int, b: int, limit: int) -> int:
    """``_match_length`` by galloping slice compares.

    The step doubles while whole slices agree, then halves down to one
    byte, so a run of thousands of equal bytes costs a few ``memcmp``
    calls, not one Python iteration per 8 bytes.
    """
    n = 0
    step = 8
    while n + step <= limit and data[a + n : a + n + step] == data[
        b + n : b + n + step
    ]:
        n += step
        step <<= 1
    # The prefix ends less than ``step`` bytes past ``n``.
    while step > 1:
        step >>= 1
        if n + step <= limit and data[a + n : a + n + step] == data[
            b + n : b + n + step
        ]:
            n += step
    return n


def find_tokens(
    data: bytes,
    *,
    window: int = 1 << 16,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    max_match: int | None = None,
    lazy: bool = False,
) -> list[Token]:
    """Factor ``data`` into LZ77 tokens with greedy longest-match search.

    ``window`` bounds match distances, ``max_chain`` bounds how many
    earlier candidate positions are probed per step (the ratio/throughput
    trade-off the paper highlights for SPDP), and ``max_match`` optionally
    caps match lengths for formats with small length fields.  ``lazy``
    enables one-step lazy parsing (probe the next position before
    committing a match), the ratio-over-speed choice Zstandard makes.

    Plan-then-parse: the hash of every position comes from one NumPy
    pass (:func:`_hash_all`); the parse itself stays serial because each
    step's chain contents depend on where the previous match ended.
    Tokens equal :func:`_find_tokens_scalar`'s for every argument.
    """
    data = bytes(data)
    n = len(data)
    tokens: list[Token] = []
    if n < min_match:
        if n:
            tokens.append(Token(data, 0, 0))
        return tokens

    hashes = _hash_all(data)
    # hash -> the most recent ``max_chain`` positions, oldest first.
    head: dict[int, list[int]] = {}
    get_chain = head.get

    def probe(position: int) -> tuple[int, int]:
        best_len = 0
        best_dist = 0
        chain = get_chain(hashes[position])
        if chain:
            limit = n - position
            if max_match is not None and max_match < limit:
                limit = max_match
            oldest = position - window
            # Only a candidate that also agrees at offset best_len can
            # be longer than the best so far.
            wanted = data[position]
            for candidate in reversed(chain):
                if candidate < oldest:
                    break
                if data[candidate + best_len] != wanted:
                    continue
                length = _common_prefix(data, candidate, position, limit)
                if length > best_len:
                    best_len = length
                    best_dist = position - candidate
                    if length >= limit:
                        break
                    wanted = data[position + length]
        return best_len, best_dist

    def index_position(position: int) -> None:
        key = hashes[position]
        chain = get_chain(key)
        if chain is None:
            head[key] = [position]
        else:
            chain.append(position)
            if len(chain) > max_chain:
                del chain[0]  # appended one at a time, so at most one over

    literal_start = 0
    pos = 0
    last_match_start = n - min_match
    while pos <= last_match_start:
        best_len, best_dist = probe(pos)
        if lazy and min_match <= best_len and pos + 1 <= last_match_start:
            index_position(pos)
            next_len, next_dist = probe(pos + 1)
            if next_len > best_len:
                pos += 1  # defer: the next position matches longer
                best_len, best_dist = next_len, next_dist
        if best_len >= min_match:
            tokens.append(Token(data[literal_start:pos], best_len, best_dist))
            end = pos + best_len
            # Index the skipped positions sparsely to keep insertion cheap
            # while still letting future matches reach into this span.
            step = 1 if best_len <= 32 else 3
            for insert in range(pos, min(end, last_match_start + 1), step):
                index_position(insert)
            pos = end
            literal_start = end
        else:
            index_position(pos)
            # LZ4-style skip acceleration: the longer the current literal
            # run, the larger the stride through incompressible regions.
            pos += 1 + ((pos - literal_start) >> 6)
    tokens.append(Token(data[literal_start:], 0, 0))
    return tokens


def _find_tokens_scalar(
    data: bytes,
    *,
    window: int = 1 << 16,
    max_chain: int = 16,
    min_match: int = MIN_MATCH,
    max_match: int | None = None,
    lazy: bool = False,
) -> list[Token]:
    """The seed matcher: one ``_hash4`` call per probe and per insertion.

    Kept as the oracle :func:`find_tokens` must match token for token.
    """
    n = len(data)
    tokens: list[Token] = []
    if n < min_match:
        if n:
            tokens.append(Token(bytes(data), 0, 0))
        return tokens

    head: dict[int, list[int]] = {}

    def probe(position: int) -> tuple[int, int]:
        candidates = head.get(_hash4(data, position))
        best_len = 0
        best_dist = 0
        if candidates:
            limit = n - position
            if max_match is not None and max_match < limit:
                limit = max_match
            for candidate in reversed(candidates):
                distance = position - candidate
                if distance > window:
                    break
                length = _match_length(data, candidate, position, limit)
                if length > best_len:
                    best_len = length
                    best_dist = distance
                    if length >= limit:
                        break
        return best_len, best_dist

    def index_position(position: int) -> None:
        chain = head.setdefault(_hash4(data, position), [])
        chain.append(position)
        if len(chain) > max_chain:
            del chain[0 : len(chain) - max_chain]

    literal_start = 0
    pos = 0
    last_match_start = n - min_match
    while pos <= last_match_start:
        key = _hash4(data, pos)
        best_len, best_dist = probe(pos)
        if lazy and min_match <= best_len and pos + 1 <= last_match_start:
            index_position(pos)
            next_len, next_dist = probe(pos + 1)
            if next_len > best_len:
                pos += 1  # defer: the next position matches longer
                best_len, best_dist = next_len, next_dist
        if best_len >= min_match:
            tokens.append(
                Token(bytes(data[literal_start:pos]), best_len, best_dist)
            )
            end = pos + best_len
            # Index the skipped positions sparsely to keep insertion cheap
            # while still letting future matches reach into this span.
            step = 1 if best_len <= 32 else 3
            insert = pos
            while insert < end and insert <= last_match_start:
                chain = head.setdefault(_hash4(data, insert), [])
                chain.append(insert)
                if len(chain) > max_chain:
                    del chain[0 : len(chain) - max_chain]
                insert += step
            pos = end
            literal_start = end
        else:
            chain = head.setdefault(key, [])
            chain.append(pos)
            if len(chain) > max_chain:
                del chain[0 : len(chain) - max_chain]
            # LZ4-style skip acceleration: the longer the current literal
            # run, the larger the stride through incompressible regions.
            pos += 1 + ((pos - literal_start) >> 6)
    tokens.append(Token(bytes(data[literal_start:]), 0, 0))
    return tokens


def copy_match(out: bytearray, distance: int, length: int) -> None:
    """Append ``length`` bytes copied from ``distance`` bytes back in ``out``.

    A match may overlap its own output (``distance < length``): the
    copy then repeats the trailing ``distance``-byte period, which is
    written as whole repeats plus a remainder, not byte by byte.
    Raises :class:`ValueError` when ``distance`` is not within ``out``;
    decoders check first to raise their own typed error.  They also
    keep the non-overlapping slice inline — a call per match costs 5 %
    of an LZ4 decode — and call this for the overlapping case.
    """
    start = len(out) - distance
    if distance <= 0 or start < 0:
        raise ValueError("match distance reaches before stream start")
    if distance >= length:
        out += out[start : start + length]
    else:
        period = bytes(out[start:])
        repeats, remainder = divmod(length, distance)
        out += period * repeats
        out += period[:remainder]


def reassemble(tokens: list[Token]) -> bytes:
    """Expand tokens back into the original byte stream (reference decoder)."""
    out = bytearray()
    for token in tokens:
        out += token.literals
        if token.match_length:
            copy_match(out, token.match_distance, token.match_length)
    return bytes(out)
