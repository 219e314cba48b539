"""Work as a count, never a clock: interpreter lines per element.

A ``sys.settrace`` hook counts ``line`` events in frames whose code
lives in the codec's own module.  An array pass costs the same number of
lines whatever ``n``; a per-element loop costs lines in proportion to
it.  GFC must be flat in both directions, and Chimp's decoder — whose
walk over record starts is the one serial step left — must stay under a
per-record bound and scale as the record count, with nothing
super-linear hiding behind it.  pFPC's encoder is flat; fpzip's range
coder keeps one serial loop per direction and must stay under a
per-symbol bound.
"""

import sys

import numpy as np
import pytest

from repro.compressors import chimp, fpzip, get_compressor, gfc, pfpc
from repro.data.loader import load
from repro.encodings import range_coder


def lines_run(module, func, *args) -> int:
    """``line`` events executed inside ``module``'s frames by ``func``;
    ``module`` may be a tuple of modules."""
    modules = module if isinstance(module, tuple) else (module,)
    filenames = {m.__file__ for m in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in filenames else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return count


def _chunk(dataset: str, n: int) -> np.ndarray:
    return np.ascontiguousarray(load(dataset, 65_536, 0).ravel()[:n])


def test_gfc_runs_the_same_lines_for_any_n():
    comp = get_compressor("gfc")
    f64 = np.dtype(np.float64)
    counts = set()
    for n in (1024, 65_536):
        array = _chunk("msg-bt", n)
        payload = comp._compress(array)
        counts.add(
            (
                lines_run(gfc, comp._compress, array),
                lines_run(gfc, comp._decompress, payload, (n,), f64),
            )
        )
    assert len(counts) == 1, counts
    encode, decode = counts.pop()
    assert 0 < encode < 60 and 0 < decode < 60


def test_the_counter_sees_a_per_element_loop():
    comp = get_compressor("gfc")
    array = _chunk("msg-bt", 1024)
    assert lines_run(gfc, comp._compress_scalar, array) > 6 * array.size


@pytest.mark.parametrize("dataset", ["citytemp", "tpcH-order", "msg-bt"])
def test_chimp_decoder_walks_starts_only(dataset):
    comp = get_compressor("chimp")
    lines = {}
    for n in (4096, 65_536):
        # Tiling keeps the record mix of the small chunk at 16x its size.
        array = np.tile(_chunk(dataset, 4096), n // 4096)
        payload = comp._compress(array)
        lines[n] = lines_run(chimp, comp._decompress, payload, (n,), array.dtype)
        assert lines[n] <= 12 * n, f"{lines[n] / n:.1f} lines per record"
    assert abs(lines[65_536] / (16 * lines[4096]) - 1) <= 0.02, lines


def test_pfpc_encoder_runs_the_same_lines_for_any_n():
    comp = get_compressor("pfpc")
    counts = {
        n: lines_run(pfpc, comp._compress, _chunk("msg-bt", n))
        for n in (1024, 65_536)
    }
    assert counts[1024] == counts[65_536], counts
    array = _chunk("msg-bt", 1024)
    assert lines_run(pfpc, comp._compress_scalar, array) > 10 * array.size


@pytest.mark.parametrize(
    "dataset", ["msg-bt", "citytemp", "hst-wfc3-ir", "tpcH-order"]
)
def test_fpzip_range_coder_lines_per_symbol(dataset):
    comp = get_compressor("fpzip")
    array = _chunk(dataset, 8192)
    payload = comp._compress(array)
    modules = (fpzip, range_coder)
    encode = lines_run(modules, comp._compress, array) / array.size
    decode = lines_run(
        modules, comp._decompress, payload, array.shape, array.dtype
    ) / array.size
    assert encode <= 16, f"{encode:.1f} lines per symbol to encode"
    assert decode <= 32, f"{decode:.1f} lines per symbol to decode"
