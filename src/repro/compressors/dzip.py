"""Dzip stand-in: learned context models driving an arithmetic coder.

Paper section 4.5.  Dzip trains an RNN "bootstrap" model plus a larger
"supporter" model to predict the conditional distribution of each input
symbol, then arithmetic-codes the symbols; the supporter is retrained
during decoding, so only the bootstrap is stored.  The paper's takeaway
is that neural compression reaches competitive ratios at throughputs of
a few KB/s — impractical for the surveyed applications — and Dzip is
therefore excluded from the headline tables.

This reproduction keeps the architecture (two predictive models of
different context depth whose estimates are mixed, feeding an arithmetic
coder; nothing but model state is needed to decode) while replacing the
RNNs with online-adaptive context tables:

* bootstrap model: P(bit | previous byte, bit prefix),
* supporter model: P(bit | previous two bytes, bit prefix).

Both adapt symmetrically during encode and decode, exactly like Dzip's
decoder-side retraining, and the mixed estimate approaches the better
model on any given stream.  Throughput (KB/s in this pure-Python form)
is documented rather than anchored since the paper reports none.

The encoder is plan-then-code (``docs/performance.md``): every context
is known from the data, so :func:`~repro.encodings.arithmetic.adaptive_states`
yields both models' state before every bit in NumPy passes and only
the coder recurrence loops.  The plan's work arrays peak at 32-55 bytes
per coded bit, i.e. 255-440 bytes per input byte, growing with the
number of distinct contexts: 4-14.5 MB for a default 4,096-element
chunk, where the scalar encoder's per-context objects take 1.5-34 MB.
They are released before the coder loop, which holds 12 bytes per bit.
The decoder cannot plan (its contexts are the bits it is decoding) and
fuses model lookup, coder step and bit fetch into one loop instead.
``_compress_scalar`` / ``_decompress_scalar`` are the per-bit oracles.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, MethodInfo, register
from repro.encodings.arithmetic import (
    _FULL,
    _HALF,
    _HALVING_TOTAL,
    _QUARTER,
    _THREE_QUARTERS,
    PROBABILITY_BITS,
    PROBABILITY_ONE,
    AdaptiveBitModel,
    BinaryArithmeticDecoder,
    BinaryArithmeticEncoder,
    adaptive_states,
    encode_bits,
)
from repro.errors import CorruptStreamError
from repro.perf.cost import CostModel, KernelSpec, ParallelismSpec

__all__ = ["DzipCompressor"]


#: Mixing weights: the bootstrap's is fixed, the supporter's grows with
#: the evidence its context has seen, up to the cap.
_BOOTSTRAP_WEIGHT = 32
_SUPPORTER_CAP = 64


class _ContextMixer:
    """Two context models with confidence-weighted probability mixing."""

    def __init__(self) -> None:
        self._bootstrap: dict[int, AdaptiveBitModel] = {}
        self._supporter: dict[int, AdaptiveBitModel] = {}

    def _models(self, prev1: int, prev2: int, prefix: int) -> tuple[
        AdaptiveBitModel, AdaptiveBitModel
    ]:
        boot_key = (prev1 << 9) | prefix
        supp_key = (prev2 << 17) | (prev1 << 9) | prefix
        boot = self._bootstrap.get(boot_key)
        if boot is None:
            boot = self._bootstrap[boot_key] = AdaptiveBitModel()
        supp = self._supporter.get(supp_key)
        if supp is None:
            supp = self._supporter[supp_key] = AdaptiveBitModel()
        return boot, supp

    def predict(self, prev1: int, prev2: int, prefix: int) -> tuple[
        int, AdaptiveBitModel, AdaptiveBitModel
    ]:
        """Mixed P(bit=1) plus the models to update with the outcome."""
        boot, supp = self._models(prev1, prev2, prefix)
        # The deeper model gets more weight once it has seen evidence;
        # fresh contexts lean on the bootstrap, mirroring Dzip's design.
        supp_weight = min(supp._total, _SUPPORTER_CAP)
        mixed = (
            boot.prob_one * _BOOTSTRAP_WEIGHT + supp.prob_one * supp_weight
        ) // (_BOOTSTRAP_WEIGHT + supp_weight)
        return mixed, boot, supp


def _prob_one(ones: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``AdaptiveBitModel.prob_one`` of every ``(ones, total)`` state."""
    prob = ones.astype(np.uint32)
    prob <<= np.uint32(PROBABILITY_BITS)
    prob //= total
    # ones >= 1 and total < 1024 keep the quotient above the lower
    # clamp; ones == total reaches the upper one.
    np.minimum(prob, PROBABILITY_ONE - 1, out=prob)
    return prob


@register
class DzipCompressor(Compressor):
    """Dzip (Goyal, Tatwawadi, Chandak & Ochoa, 2021) — NN-compression proxy."""

    info = MethodInfo(
        name="dzip",
        display_name="Dzip",
        year=2021,
        domain="general",
        precisions=frozenset({"S", "D"}),
        platform="gpu",
        parallelism="SIMT",
        language="Pytorch",
        trait="prediction",
        predictor_family="nn",
    )
    cost = CostModel(
        platform="gpu",
        parallelism=ParallelismSpec(kind="simt", default_threads=256),
        compress_kernels=(
            KernelSpec(
                "rnn_predict_encode",
                int_ops=4000.0,
                flops=8000.0,
                bytes_touched=64.0,
            ),
        ),
        decompress_kernels=(
            KernelSpec(
                "rnn_retrain_decode",
                int_ops=4000.0,
                flops=8000.0,
                bytes_touched=64.0,
            ),
        ),
        # The paper reports "several KB/s"; no Table 5 anchor exists.
        anchor_compress_gbs=5e-6,
        anchor_decompress_gbs=3e-6,
        footprint_factor=3.0,
    )

    def _compress(self, array: np.ndarray) -> bytes:
        """Plan-then-code: every context key is known from the data, so
        both models' states and the mixed probability of every bit are
        computed in NumPy passes; only the coder recurrence loops."""
        data = np.frombuffer(array.tobytes(), dtype=np.uint8)
        bits = np.unpackbits(data)
        # Prefix before bit k of a byte: a sentinel 1, then its top k bits.
        prefix = (data.astype(np.uint16)[:, None] | np.uint16(0x100)) >> (
            np.arange(8, 0, -1, dtype=np.uint16)
        )
        prev1 = np.zeros(data.size, dtype=np.int32)
        prev1[1:] = data[:-1]
        prev2 = np.zeros(data.size, dtype=np.int32)
        prev2[2:] = data[:-2]
        # Any injective key groups the same contexts as the oracle's.
        boot_key = ((prev1 << 8)[:, None] | prefix).ravel()
        boot_prob = _prob_one(*adaptive_states(boot_key, bits))
        supp_key = (prev2 << 16).repeat(8)
        supp_key |= boot_key
        del boot_key, prefix, prev1, prev2
        supp_ones, supp_total = adaptive_states(supp_key, bits)
        del supp_key
        supp_weight = np.minimum(supp_total, _SUPPORTER_CAP).astype(np.uint32)
        mixed = _prob_one(supp_ones, supp_total)
        del supp_ones, supp_total
        mixed *= supp_weight
        boot_prob *= np.uint32(_BOOTSTRAP_WEIGHT)
        mixed += boot_prob
        supp_weight += np.uint32(_BOOTSTRAP_WEIGHT)
        mixed //= supp_weight
        del boot_prob, supp_weight
        return encode_bits(bits, mixed)

    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Model lookup, coder step and bit fetch fused into one loop
        over flat state: contexts depend on decoded bits, so nothing
        can be planned ahead, but nothing needs an object per bit."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * np.dtype(dtype).itemsize
        # One stream bit per byte, then the phantom zeros the format
        # allows; reading past them is the truncation signal.
        stream = (
            np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).tobytes()
            + bytes(BinaryArithmeticDecoder.MAX_PHANTOM_BITS)
        )
        # [ones, total] per context, as AdaptiveBitModel holds them.
        bootstrap: dict[int, list[int]] = {}
        supporter: dict[int, list[int]] = {}
        out = bytearray(nbytes)
        low = 0
        high = _FULL
        value = int.from_bytes(bytes(payload[:4]).ljust(4, b"\0"), "big")
        pos = 32
        try:
            prev1 = 0
            prev2 = 0
            for index in range(nbytes):
                boot_base = prev1 << 9
                supp_base = (prev2 << 17) | boot_base
                prefix = 1
                for _ in range(8):
                    boot = bootstrap.get(boot_base | prefix)
                    if boot is None:
                        boot = bootstrap[boot_base | prefix] = [1, 2]
                    supp = supporter.get(supp_base | prefix)
                    if supp is None:
                        supp = supporter[supp_base | prefix] = [1, 2]
                    boot_ones, boot_total = boot
                    supp_ones, supp_total = supp
                    # ones <= total < 1024, so only ones == total needs
                    # AdaptiveBitModel.prob_one's clamp.
                    boot_prob = (
                        (boot_ones << PROBABILITY_BITS) // boot_total
                        if boot_ones < boot_total
                        else PROBABILITY_ONE - 1
                    )
                    supp_prob = (
                        (supp_ones << PROBABILITY_BITS) // supp_total
                        if supp_ones < supp_total
                        else PROBABILITY_ONE - 1
                    )
                    weight = (
                        supp_total
                        if supp_total < _SUPPORTER_CAP
                        else _SUPPORTER_CAP
                    )
                    mixed = (
                        boot_prob * _BOOTSTRAP_WEIGHT + supp_prob * weight
                    ) // (_BOOTSTRAP_WEIGHT + weight)
                    split = low + (
                        ((high - low) * (PROBABILITY_ONE - mixed))
                        >> PROBABILITY_BITS
                    )
                    if value > split:
                        bit = 1
                        low = split + 1
                    else:
                        bit = 0
                        high = split
                    while True:
                        if high < _HALF:
                            pass
                        elif low >= _HALF:
                            low -= _HALF
                            high -= _HALF
                            value -= _HALF
                        elif low >= _QUARTER and high < _THREE_QUARTERS:
                            low -= _QUARTER
                            high -= _QUARTER
                            value -= _QUARTER
                        else:
                            break
                        low <<= 1
                        high = (high << 1) | 1
                        value = (value << 1) | stream[pos]
                        pos += 1
                    boot_total += 1
                    boot_ones += bit
                    if boot_total >= _HALVING_TOTAL:
                        boot_ones = (boot_ones + 1) >> 1
                        boot_total = (boot_total + 1) >> 1
                    boot[0] = boot_ones
                    boot[1] = boot_total
                    supp_total += 1
                    supp_ones += bit
                    if supp_total >= _HALVING_TOTAL:
                        supp_ones = (supp_ones + 1) >> 1
                        supp_total = (supp_total + 1) >> 1
                    supp[0] = supp_ones
                    supp[1] = supp_total
                    prefix = (prefix << 1) | bit
                byte = prefix & 0xFF
                out[index] = byte
                prev2 = prev1
                prev1 = byte
        except IndexError:
            raise CorruptStreamError(
                "arithmetic stream exhausted: decoder needs more than "
                f"{BinaryArithmeticDecoder.MAX_PHANTOM_BITS} bits past "
                "the end (truncated?)"
            ) from None
        return np.frombuffer(bytes(out), dtype=dtype)

    def _compress_scalar(self, array: np.ndarray) -> bytes:
        """The seed encoder, one model object and coder call per bit;
        the oracle :meth:`_compress` must match byte for byte."""
        data = array.tobytes()
        encoder = BinaryArithmeticEncoder()
        mixer = _ContextMixer()
        prev1 = 0
        prev2 = 0
        for byte in data:
            prefix = 1  # sentinel bit marking the prefix depth
            for position in range(7, -1, -1):
                bit = (byte >> position) & 1
                prob, boot, supp = mixer.predict(prev1, prev2, prefix)
                encoder.encode(bit, prob)
                boot.update(bit)
                supp.update(bit)
                prefix = (prefix << 1) | bit
            prev2 = prev1
            prev1 = byte
        return encoder.finish()

    def _decompress_scalar(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Reference decoder matching :meth:`_compress_scalar`."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * np.dtype(dtype).itemsize
        decoder = BinaryArithmeticDecoder(payload)
        mixer = _ContextMixer()
        out = bytearray(nbytes)
        prev1 = 0
        prev2 = 0
        for index in range(nbytes):
            prefix = 1
            for _ in range(8):
                prob, boot, supp = mixer.predict(prev1, prev2, prefix)
                bit = decoder.decode(prob)
                boot.update(bit)
                supp.update(bit)
                prefix = (prefix << 1) | bit
            byte = prefix & 0xFF
            out[index] = byte
            prev2 = prev1
            prev1 = byte
        return np.frombuffer(bytes(out), dtype=dtype)
