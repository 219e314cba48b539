"""Corrupt-stream fuzz tests (satellite of the streaming redesign).

For every registered codec, truncate valid streams at each
header/payload boundary and flip bytes across the FCF chunk index.
Whatever the damage, the public decode surface must either reproduce
the original bits exactly (possible only when the damaged bytes were
redundant) or raise :class:`~repro.errors.CorruptStreamError` — never
``IndexError``/``ValueError``/``MemoryError`` or any other leak from a
decoder's internals.
"""

import io

import numpy as np
import pytest

from repro.api import FOOTER_BYTES, compress_array, decompress_array
from repro.api.frames import END_MAGIC, decode_legacy_header, encode_index, read_layout
from repro.compressors import compressor_names, get_compressor
from repro.errors import CorruptStreamError

ALL_METHODS = compressor_names()

#: Empty shapes whose non-zero extents NumPy cannot multiply out: the
#: element count is 0, so every byte-count check passes.
FORGED_SHAPES = ((0, 2**63), (0, 2**62))


def _sample(comp, n=257):
    rng = np.random.default_rng(42)
    dtype = np.float64 if "D" in comp.info.precisions else np.float32
    arr = np.cumsum(rng.normal(0, 1, n)).astype(dtype)
    arr[7] = np.nan
    arr[11] = np.inf
    return arr


def _expect_corrupt_or_exact(decode, original):
    """The only acceptable outcomes: CorruptStreamError or bit-exactness."""
    try:
        out = decode()
    except CorruptStreamError:
        return
    except BaseException as exc:  # noqa: BLE001 - the point of the test
        pytest.fail(
            f"leaked {type(exc).__name__} instead of CorruptStreamError: {exc}"
        )
    uint = np.uint64 if original.dtype.itemsize == 8 else np.uint32
    assert out.size == original.size and np.array_equal(
        np.asarray(out).ravel().view(uint), original.view(uint)
    ), "damaged stream decoded to different data without an error"


@pytest.mark.parametrize("name", ALL_METHODS)
def test_legacy_stream_truncation(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = comp.compress(arr)
    _, _, header_end = decode_legacy_header(blob)
    payload_len = len(blob) - header_end
    # Every header boundary, plus a spread of payload cut points.  The
    # legacy format carries no checksum, so cuts inside the last few
    # payload bytes of an arithmetic-coded tail are indistinguishable
    # from final-flush padding — that detection gap is exactly what the
    # FCF per-frame CRC closes (see test_fcf_stream_truncation, which
    # covers every region including the very last byte).
    tail_limit = max(header_end, len(blob) - 16)
    cuts = set(range(header_end + 1))  # every header boundary
    cuts.update(
        min(header_end + (payload_len * f) // 8, tail_limit) for f in range(9)
    )
    for cut in sorted(cuts):
        _expect_corrupt_or_exact(
            lambda cut=cut: comp.decompress(blob[:cut]), arr
        )


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_stream_truncation(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    # Any strict prefix loses the footer, so every truncation must fail
    # loudly; sample boundaries across header, frames, index, footer.
    cuts = {0, 1, 4, 5, 6, len(blob) - FOOTER_BYTES, len(blob) - 1}
    cuts.update((len(blob) * f) // 16 for f in range(16))
    for cut in sorted(cuts):
        with pytest.raises(CorruptStreamError):
            decompress_array(blob[:cut])


def _with_shape(blob, shape):
    """``blob`` with its chunk index re-declaring the array ``shape``."""
    _, index, _ = read_layout(io.BytesIO(blob))
    trailer = encode_index(
        [(f.n_elements, f.compressed_bytes, f.crc32) for f in index.frames], shape
    )
    index_len = int.from_bytes(blob[-FOOTER_BYTES:][:8], "little")
    head = blob[: len(blob) - FOOTER_BYTES - index_len]
    return head + trailer + len(trailer).to_bytes(8, "little") + END_MAGIC


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_index_byte_flips(name):
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    index_len = int.from_bytes(blob[-FOOTER_BYTES:][:8], "little")
    index_start = len(blob) - FOOTER_BYTES - index_len
    for pos in range(index_start, len(blob)):
        damaged = bytearray(blob)
        damaged[pos] ^= 0xFF
        _expect_corrupt_or_exact(
            lambda d=bytes(damaged): decompress_array(d).ravel(), arr
        )
    empty = compress_array(arr[:0].reshape(0, 1), comp, chunk_elements=64)
    for shape in FORGED_SHAPES:
        with pytest.raises(CorruptStreamError):
            decompress_array(_with_shape(empty, shape))


@pytest.mark.parametrize("name", ALL_METHODS)
def test_fcf_payload_byte_flips(name):
    """Bit rot inside compressed frames must also obey the error contract.

    The per-frame CRC makes this cheap and airtight: a flipped payload
    byte fails the checksum before the codec ever runs.
    """
    comp = get_compressor(name)
    arr = _sample(comp)
    blob = compress_array(arr, comp, chunk_elements=64)
    index_len = int.from_bytes(blob[-FOOTER_BYTES:][:8], "little")
    index_start = len(blob) - FOOTER_BYTES - index_len
    span = max(1, (index_start - 16) // 24)
    for pos in range(16, index_start, span):
        damaged = bytearray(blob)
        damaged[pos] ^= 0x55
        _expect_corrupt_or_exact(
            lambda d=bytes(damaged): decompress_array(d).ravel(), arr
        )
