"""Work as a count, never a clock: interpreter lines per element.

A ``sys.settrace`` hook counts ``line`` events in frames whose code
lives in the codec's own module.  An array pass costs the same number of
lines whatever ``n``; a per-element loop costs lines in proportion to
it.  GFC must be flat in both directions, and Chimp's decoder — whose
walk over record starts is the one serial step left — must stay under a
per-record bound and scale as the record count, with nothing
super-linear hiding behind it.
"""

import sys

import numpy as np
import pytest

from repro.compressors import chimp, get_compressor, gfc
from repro.data.loader import load


def lines_run(module, func, *args) -> int:
    """``line`` events executed inside ``module``'s frames by ``func``."""
    filename = module.__file__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

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
