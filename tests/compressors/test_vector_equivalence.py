"""Vectorized codec paths vs. the retained scalar (seed) oracles.

Every rewritten hot path must produce *byte-identical* payloads to the
original per-element implementation, and the vectorized decoders must
invert both.  Cases cover adversarial floats (NaN payloads, signed
zeros, infinities, denormals) and structural extremes (constant runs,
alternating repeats, pure noise, quantized decimals).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import frames
from repro.compressors import get_compressor
from repro.compressors.mpc import MpcCompressor
from repro.compressors.ndzip import NdzipCpuCompressor
from repro.errors import CorruptStreamError

from .conftest_vector import adversarial_cases  # noqa: F401  (fixture file)


def _uint_view(array: np.ndarray) -> np.ndarray:
    return array.view(
        np.uint32 if array.dtype == np.float32 else np.uint64
    )


def _bitexact(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(_uint_view(a.ravel()), _uint_view(b.ravel()))
    )


def _native(compressor, array: np.ndarray) -> np.ndarray:
    """Double-only codecs (GFC) see float32 the way the frame layer
    feeds it: reinterpreted as 64-bit words."""
    array = np.ascontiguousarray(array)
    if not compressor.info.supports_dtype(array.dtype):
        array = frames._reinterpret_for(compressor, array.ravel())
    return array


ORACLE_METHODS = [
    "gorilla", "chimp", "fpzip", "ndzip-cpu",
    "dzip", "bitshuffle-lz4", "bitshuffle-zstd", "gfc",
]  # fmt: skip


@pytest.mark.parametrize("method", ORACLE_METHODS)
class TestByteIdentity:
    def test_payloads_byte_identical(self, method, adversarial_cases):
        compressor = get_compressor(method)
        for name, array in adversarial_cases.items():
            array = _native(compressor, array)
            expected = compressor._compress_scalar(array)
            actual = compressor._compress(array)
            assert actual == expected, (
                f"{method} diverges from the seed payload on {name!r}"
            )

    def test_vector_decoder_inverts_scalar_payload(
        self, method, adversarial_cases
    ):
        compressor = get_compressor(method)
        for name, array in adversarial_cases.items():
            array = _native(compressor, array)
            payload = compressor._compress_scalar(array)
            restored = compressor._decompress(
                payload, array.shape, array.dtype
            )
            assert _bitexact(
                np.asarray(restored).reshape(array.shape), array
            ), f"{method} failed to decode the seed payload of {name!r}"


@pytest.mark.parametrize("method", ["gorilla", "chimp", "fpzip", "dzip", "gfc"])
def test_scalar_decoder_inverts_vector_payload(method, adversarial_cases):
    compressor = get_compressor(method)
    for name, array in adversarial_cases.items():
        array = _native(compressor, array)
        payload = compressor._compress(array)
        restored = compressor._decompress_scalar(
            payload, array.shape, array.dtype
        )
        assert _bitexact(np.asarray(restored).reshape(array.shape), array), (
            f"{method} vector payload not decodable by the seed on {name!r}"
        )


class TestDzipPlanThenCode:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_contexts_seen_past_several_halvings(self, dtype):
        # The all-zero contexts are updated far more than 1,022 + 2 x 512
        # times, so the batched planner crosses the first halving and
        # several of the 512-update ones.
        array = np.zeros(6000, dtype=dtype)
        array[::7] = 1.5
        compressor = get_compressor("dzip")
        payload = compressor._compress(array)
        assert payload == compressor._compress_scalar(array)
        for decode in (compressor._decompress, compressor._decompress_scalar):
            assert _bitexact(decode(payload, array.shape, array.dtype), array)

    def test_truncated_payload_raises_from_the_fused_decoder(self):
        array = np.random.default_rng(21).normal(0, 1, 300)
        compressor = get_compressor("dzip")
        payload = compressor._compress(array)
        with pytest.raises(CorruptStreamError, match="truncated"):
            compressor._decompress(payload[:-16], array.shape, array.dtype)

    def test_fused_decoder_allows_exactly_the_oracles_phantom_bits(self):
        # The format lets the decoder read MAX_PHANTOM_BITS zeros past
        # the end, so a cut of a few bytes decodes (to wrong data) and a
        # longer one raises; both decoders must draw the line in the
        # same place and agree on the bytes before it.
        array = np.random.default_rng(22).normal(0, 1, 200)
        compressor = get_compressor("dzip")
        payload = compressor._compress(array)

        def outcome(decode, cut):
            try:
                return decode(payload[:-cut], array.shape, array.dtype).tobytes()
            except CorruptStreamError:
                return None

        outcomes = [outcome(compressor._decompress, cut) for cut in range(1, 14)]
        assert outcomes == [
            outcome(compressor._decompress_scalar, cut) for cut in range(1, 14)
        ]
        assert outcomes[0] is not None and outcomes[-1] is None


class TestNdzipBatching:
    @pytest.mark.parametrize(
        "shape",
        [
            (4096 * 3 + 17,),  # full 1-D blocks plus a border
            (130, 70),  # 2-D: full and partial hypercubes
            (17, 17, 17),  # 3-D border-heavy grid
            (4096,),  # exactly one block (scalar path)
        ],
    )
    def test_batched_blocks_match_scalar_blocks(self, shape):
        rng = np.random.default_rng(5)
        array = np.cumsum(rng.normal(0, 1, shape), axis=-1)
        compressor = NdzipCpuCompressor()
        assert compressor._compress(array) == compressor._compress_scalar(
            array
        )
        restored = compressor.decompress(compressor.compress(array))
        assert _bitexact(restored, array)


class TestMpcLaneReconstruction:
    def test_vectorized_lag6_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        array = rng.normal(0, 1, 5000)
        compressor = MpcCompressor()
        payload = compressor.compress(array)
        restored = compressor.decompress(payload)
        assert _bitexact(restored, array)

    def test_lag6_prefix_identity(self):
        # The strided cumsums must equal the scalar recurrence exactly,
        # including uint64 wraparound.
        rng = np.random.default_rng(12)
        stage1 = rng.integers(0, 2**64, (3, 1024), dtype=np.uint64)
        naive = stage1.copy()
        for lane in range(6, 1024):
            naive[:, lane] = stage1[:, lane] + naive[:, lane - 6]
        fast = stage1.copy()
        for residue in range(6):
            lanes = fast[:, residue::6]
            np.cumsum(lanes, axis=1, dtype=np.uint64, out=lanes)
        assert np.array_equal(naive, fast)
