"""MPC's and ndzip's BIT stage: one word-level bit-tile transpose.

``transpose_bit_tiles`` must equal the unpackbits formulation both codecs
used before, byte for byte, and undo itself.  The digests pin every
``mpc`` / ``ndzip`` FCF stream over the catalog; they were recorded from
a clone of commit 4acf4cb (the unpackbits transposes), so a failure here
means the stream changed.  Memory is pinned as a traced *peak*, a count
of bytes, never as a time: the unpackbits form held eight bytes per bit
of input, twice, which is what a served decompress paid for in fresh
pages on every request.
"""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api.frames import read_layout
from repro.compressors.util import transpose_bit_tiles
from repro.data import CATALOG
from repro.data.loader import load
from repro.service.server import _execute_decompress

UINTS = {32: np.uint32, 64: np.uint64}

PINNED = {
    "mpc": "f84ce144ee44dc495b2dfcfd84da1c1af5a65578699cae65956933039511956c",
    "ndzip-cpu": "03c84c584e192c940a2537ab7bbec0e9b576275c8439fd2ee8eca92244dda65c",
    "ndzip-gpu": "d3526a00a3cb561a74623c05c1ae90b7886cac2952dbff5b9fe9ade4e8cdf2fc",
}


def unpackbits_tiles(words: np.ndarray) -> np.ndarray:
    """The oracle: expand every bit to a byte, transpose, pack back."""
    width = words.dtype.itemsize * 8
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8)).reshape(-1, width, width)
    packed = np.packbits(bits.transpose(0, 2, 1).reshape(-1, width * width), axis=1)
    return (
        packed.reshape(-1)
        .view(words.dtype.newbyteorder(">"))
        .astype(words.dtype)
        .reshape(words.shape)
    )


def unpackbits_planes(chunks: np.ndarray) -> np.ndarray:
    """MPC's own oracle: each chunk's bit planes, interleaved per group."""
    n_chunks, chunk_len = chunks.shape
    width = chunks.dtype.itemsize * 8
    be = chunks.astype(chunks.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8).reshape(n_chunks, -1), axis=1)
    planes = bits.reshape(n_chunks, chunk_len, width).transpose(0, 2, 1)
    interleaved = planes.reshape(n_chunks, width, -1, width).transpose(0, 2, 1, 3)
    packed = np.packbits(interleaved.reshape(n_chunks, -1), axis=1)
    return (
        packed.reshape(-1)
        .view(chunks.dtype.newbyteorder(">"))
        .astype(chunks.dtype)
        .reshape(chunks.shape)
    )


def _words(width: int, tiles: int, seed: int, fill: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = UINTS[width]
    n = tiles * width
    if fill == "ones":
        return np.full(n, np.iinfo(dtype).max, dtype=dtype)
    words = rng.integers(0, np.iinfo(dtype).max, n, dtype=dtype, endpoint=True)
    if fill == "sparse":  # a few set bits, as small residuals leave
        words >>= rng.integers(width - 4, width, n).astype(dtype)
    return words


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from(sorted(UINTS)),
    tiles=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from(["random", "sparse", "ones"]),
)
def test_equals_the_unpackbits_oracle_and_undoes_itself(width, tiles, seed, fill):
    words = _words(width, tiles, seed, fill)
    out = transpose_bit_tiles(words)
    assert out.dtype == words.dtype
    np.testing.assert_array_equal(out, unpackbits_tiles(words))
    np.testing.assert_array_equal(transpose_bit_tiles(out), words)


@pytest.mark.parametrize("width", sorted(UINTS))
@pytest.mark.parametrize("n_chunks", [1, 4])
def test_mpc_plane_interleave_is_a_tile_transpose(width, n_chunks):
    chunks = _words(width, n_chunks * 1024 // width, 7, "random").reshape(
        n_chunks, 1024
    )
    out = transpose_bit_tiles(chunks)
    assert out.shape == chunks.shape
    np.testing.assert_array_equal(out, unpackbits_planes(chunks))


@pytest.mark.parametrize("size", [1, 31, 33, 65])
def test_a_ragged_length_is_refused(size):
    with pytest.raises(ValueError):
        transpose_bit_tiles(np.zeros(size, dtype=np.uint32))


@pytest.mark.parametrize("codec", sorted(PINNED))
def test_fcf_bytes_are_pinned(codec):
    sha = hashlib.sha256()
    for spec in CATALOG:
        for n in (4096, 5000):  # whole chunks, then padded ones
            sha.update(repro.compress_array(load(spec.name, n, 0), codec))
    assert sha.hexdigest() == PINNED[codec]


def _traced_peak(call) -> int:
    call()  # warm: imports and lazy state are not the call's cost
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("width", sorted(UINTS))
@pytest.mark.parametrize("n_words", [4 * 1024, 64 * 1024])
def test_transpose_peak_stays_within_six_inputs(width, n_words):
    words = _words(width, n_words // width, 3, "random")
    peak = _traced_peak(lambda: transpose_bit_tiles(words))
    assert peak <= 6 * words.nbytes, peak / words.nbytes


def test_served_mpc_decompress_peak_stays_within_twelve_arrays():
    array = load("tpcH-order", 4096, 0).ravel()  # a 32 KiB request
    blob = repro.compress_array(array, "mpc", chunk_elements=4096)
    layout = read_layout(io.BytesIO(blob))
    peak = _traced_peak(lambda: _execute_decompress(blob, layout))
    assert peak <= 12 * array.nbytes, peak / array.nbytes
