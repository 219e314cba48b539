"""SPDP: synthesized byte-transform pipeline with an LZ77 reducer.

Paper section 3.2.  SPDP was synthesized by searching 9.4 million
component combinations; the winning pipeline is

1. ``LNVs2`` — subtract the byte two positions back (stride-2 byte delta),
2. ``DIM8``  — group every 8th byte together (byte-plane regrouping that
   puts exponent bytes into consecutive runs),
3. ``LNVs1`` — delta between consecutive bytes of the regrouped stream,
4. ``LZa6``  — a fast LZ77 variant over the residual stream.

Stages 1-3 are pure byte transforms implemented vectorized; the reducer
reuses the repository's hash-chain LZ77 with a bounded chain, which is
the ratio/throughput trade-off the paper highlights (larger windows
compress better but search longer).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.encodings.lz77 import Token, copy_match, find_tokens
from repro.encodings.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["SpdpCompressor"]

_GROUP = 8


def _lnvs(data: np.ndarray, stride: int) -> np.ndarray:
    """Byte delta against the value ``stride`` positions back (mod 256)."""
    out = data.copy()
    out[stride:] = data[stride:] - data[:-stride]
    return out


def _unlnvs(data: np.ndarray, stride: int) -> np.ndarray:
    """Invert :func:`_lnvs` with per-phase cumulative sums."""
    out = data.copy()
    for phase in range(min(stride, len(out))):
        lane = out[phase::stride]
        np.cumsum(lane, dtype=np.uint8, out=lane)
    return out


def _dim8(data: np.ndarray) -> tuple[np.ndarray, int]:
    """Group every 8th byte: byte-plane transpose with zero padding."""
    pad = (-len(data)) % _GROUP
    if pad:
        data = np.concatenate([data, np.zeros(pad, dtype=np.uint8)])
    return data.reshape(-1, _GROUP).T.reshape(-1).copy(), pad


def _undim8(data: np.ndarray, pad: int) -> np.ndarray:
    """Invert :func:`_dim8`."""
    grouped = data.reshape(_GROUP, -1).T.reshape(-1)
    return grouped[: len(grouped) - pad] if pad else grouped


def _serialize_tokens(tokens: list[Token]) -> bytes:
    out = bytearray()
    for token in tokens:
        out += encode_uvarint(len(token.literals))
        out += token.literals
        out += encode_uvarint(token.match_length)
        if token.match_length:
            out += encode_uvarint(token.match_distance)
    return bytes(out)


def _deserialize_tokens(payload: bytes, offset: int, expected_length: int) -> bytes:
    """Expand the token stream, refusing a match that would run past
    ``expected_length`` bytes before it is copied (its length is a
    varint, so one forged token could otherwise ask for gigabytes)."""
    out = bytearray()
    n = len(payload)
    while offset < n:
        lit_len, offset = decode_uvarint(payload, offset)
        if offset + lit_len > n:
            raise CorruptStreamError("SPDP literal run truncated")
        out += payload[offset : offset + lit_len]
        offset += lit_len
        match_len, offset = decode_uvarint(payload, offset)
        if match_len:
            if match_len > expected_length - len(out):
                raise CorruptStreamError("SPDP match runs past the frame")
            distance, offset = decode_uvarint(payload, offset)
            start = len(out) - distance
            if distance == 0 or start < 0:
                raise CorruptStreamError("SPDP match distance out of range")
            if distance >= match_len:
                out += out[start : start + match_len]
            else:
                copy_match(out, distance, match_len)
    return bytes(out)


@register
class SpdpCompressor(Compressor):
    """SPDP (Claggett, Azimi & Burtscher, 2018)."""

    #: LZ run copying gives SPDP unbounded best-case expansion, but its
    #: decoder is purely payload-driven — output size comes from the
    #: token stream, never from the declared count — so the declared
    #: extents cannot steer an allocation and no header bound applies.
    max_decode_expansion = None

    info = MethodInfo(
        name="spdp",
        display_name="SPDP",
        year=2018,
        domain="HPC",
        precisions=frozenset({"S", "D"}),
        platform="cpu",
        parallelism="serial",
        language="C",
        trait="dictionary",
        predictor_family="dictionary",
    )
    cost = CostModel(
        platform="cpu",
        parallelism=ParallelismSpec(kind="serial"),
        compress_kernels=(
            KernelSpec("byte_transforms", int_ops=6.0, bytes_touched=6.0),
            KernelSpec("lza6_match", int_ops=30.0, bytes_touched=3.5),
        ),
        decompress_kernels=(
            KernelSpec("lza6_expand", int_ops=8.0, bytes_touched=3.0),
            KernelSpec("byte_untransforms", int_ops=6.0, bytes_touched=6.0),
        ),
        anchor_compress_gbs=0.181,
        anchor_decompress_gbs=0.178,
        block_setup_bytes=18_000.0,
        # Figure 10: SPDP streams through fixed buffers.
        footprint_fixed_bytes=1.1e9,
    )

    def __init__(self, window: int = 1 << 17, max_chain: int = 16) -> None:
        if window < 1 << 8:
            raise ValueError(f"window must be at least 256 bytes, got {window}")
        self.window = window
        self.max_chain = max_chain

    def _compress(self, array: np.ndarray) -> bytes:
        raw = np.frombuffer(array.tobytes(), dtype=np.uint8)
        # LNVs2 subtracts the value two words back; with DIM8's 8-byte
        # word grouping that is a 16-byte stride, so each byte is delta'd
        # against the same byte position of the second-previous word.
        stage1 = _lnvs(raw, 2 * _GROUP)
        stage2, pad = _dim8(stage1)
        stage3 = _lnvs(stage2, 1)
        tokens = find_tokens(
            stage3.tobytes(),
            window=self.window,
            max_chain=self.max_chain,
            min_match=4,
        )
        return encode_uvarint(pad) + _serialize_tokens(tokens)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        pad, offset = decode_uvarint(payload, 0)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        stage3 = np.frombuffer(
            _deserialize_tokens(payload, offset, nbytes + (-nbytes) % _GROUP),
            dtype=np.uint8,
        )
        stage2 = _unlnvs(stage3, 1)
        stage1 = _undim8(stage2, pad)
        raw = _unlnvs(stage1, 2 * _GROUP)
        return np.frombuffer(raw.tobytes(), dtype=dtype)
