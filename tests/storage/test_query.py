"""Tests for the query cost model (Table 11) and stream range reads."""

import numpy as np
import pytest

from repro.api.session import DecompressSession, compress_array
from repro.compressors import get_compressor
from repro.core.runner import BenchmarkRunner
from repro.data import get_spec, load
from repro.storage.query import query_cost


def _cost(method: str, name: str):
    """Table 11's model at the ratio a suite cell measures (4096 elements)."""
    spec = get_spec(name)
    cell = BenchmarkRunner().run_cell(method, load(name, 4096), spec)
    return query_cost(
        get_compressor(method), name, cell.compression_ratio,
        spec.paper_bytes, spec.paper_extent[0],
    )


def test_cost_components_positive():
    cost = _cost("chimp", "tpcH-order")
    assert cost.read_ms > 0
    assert cost.decode_ms > 0
    assert cost.query_ms > 0


def test_read_time_scales_with_compressed_size():
    # Better CR -> fewer bytes read -> shorter read time.
    chimp = _cost("chimp", "tpcH-order")
    gorilla = _cost("gorilla", "tpcH-order")
    assert chimp.read_ms < gorilla.read_ms


def test_query_time_is_method_independent():
    # The decoded frames are identical, so scans cost the same.
    a = _cost("chimp", "tpcDS-web")
    b = _cost("mpc", "tpcDS-web")
    assert a.query_ms == pytest.approx(b.query_ms)


def test_serial_decoders_dominate_total():
    # Observation 9: fpzip's slow decode dwarfs its read time.
    fpzip = _cost("fpzip", "tpcH-order")
    assert fpzip.decode_ms > 10 * fpzip.read_ms


def test_cost_is_a_function_of_the_ratio():
    spec = get_spec("tpcH-order")
    chimp = get_compressor("chimp")

    def cost(ratio):
        return query_cost(
            chimp, spec.name, ratio, spec.paper_bytes, spec.paper_extent[0]
        )

    assert cost(2.0) == cost(2.0)
    better = cost(4.0)
    assert better.read_ms < cost(2.0).read_ms
    assert better.query_ms == cost(2.0).query_ms
    assert better.query_ms == pytest.approx(spec.paper_extent[0] * 14e-9 * 1e3)


# -- range reads through the stream index (DecompressSession.read) -----
@pytest.fixture(scope="module")
def range_stream():
    # 5 full chunks of 100 elements plus a final partial chunk of 37.
    arr = np.cumsum(np.ones(537)) * 0.5
    blob = compress_array(arr, "gorilla", chunk_elements=100)
    with DecompressSession(blob) as session:
        yield arr, session


def _range(session, start: int, stop: int) -> tuple[np.ndarray, int]:
    """The values of ``[start, stop)`` and the payload bytes fetched."""
    before = session.bytes_read
    values = session.read(start, stop)
    return values, session.bytes_read - before


def _frame_bytes(session, *frames: int) -> int:
    return sum(session.frames[i].compressed_bytes for i in frames)


def test_range_empty(range_stream):
    arr, session = range_stream
    values, fetched = _range(session, 200, 200)
    assert values.size == 0
    assert fetched == 0


def test_range_reversed_bounds(range_stream):
    arr, session = range_stream
    values, fetched = _range(session, 400, 100)
    assert values.size == 0
    assert fetched == 0


def test_range_spanning_final_partial_chunk(range_stream):
    arr, session = range_stream
    assert [f.n_elements for f in session.frames] == [100] * 5 + [37]
    values, fetched = _range(session, 480, 537)
    assert np.array_equal(values, arr[480:537])
    # The last full chunk + the 37-element tail.
    assert fetched == _frame_bytes(session, 4, 5) > 0


def test_range_clamps_past_the_end(range_stream):
    arr, session = range_stream
    values, fetched = _range(session, 530, 10_000)
    assert np.array_equal(values, arr[530:])
    assert fetched == _frame_bytes(session, 5)  # only the final partial chunk


def test_range_read_cost_counts_only_touched_chunks(range_stream):
    arr, session = range_stream
    _, one = _range(session, 0, 50)
    _, many = _range(session, 0, 537)
    assert one == _frame_bytes(session, 0)
    assert many == _frame_bytes(session, *range(6))
    assert one < many
