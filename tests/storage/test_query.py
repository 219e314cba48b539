"""Tests for the query cost model (Table 11) and stream range reads."""

import numpy as np
import pytest

from repro.api.session import DecompressSession, compress_array
from repro.compressors import get_compressor
from repro.core.runner import BenchmarkRunner
from repro.data import get_spec, load
from repro.storage.query import QueryBenchmark


@pytest.fixture(scope="module")
def bench():
    return QueryBenchmark()


def _cost(bench, method: str, name: str):
    """Table 11's model at the ratio a suite cell measures (4096 elements)."""
    spec = get_spec(name)
    cell = BenchmarkRunner().run_cell(method, load(name, 4096), spec)
    return bench.model(
        get_compressor(method), name, cell.compression_ratio,
        spec.paper_bytes, spec.paper_extent[0],
    )


def test_cost_components_positive(bench):
    cost = _cost(bench, "chimp", "tpcH-order")
    assert cost.read_ms > 0
    assert cost.decode_ms > 0
    assert cost.query_ms > 0
    assert cost.total_ms == pytest.approx(
        cost.read_ms + cost.decode_ms + cost.query_ms
    )


def test_read_time_scales_with_compressed_size(bench):
    # Better CR -> fewer bytes read -> shorter read time.
    chimp = _cost(bench, "chimp", "tpcH-order")
    gorilla = _cost(bench, "gorilla", "tpcH-order")
    assert chimp.read_ms < gorilla.read_ms


def test_query_time_is_method_independent(bench):
    # The decoded frames are identical, so scans cost the same.
    a = _cost(bench, "chimp", "tpcDS-web")
    b = _cost(bench, "mpc", "tpcDS-web")
    assert a.query_ms == pytest.approx(b.query_ms)


def test_serial_decoders_dominate_total(bench):
    # Observation 9: fpzip's slow decode dwarfs its read time.
    fpzip = _cost(bench, "fpzip", "tpcH-order")
    assert fpzip.decode_ms > 10 * fpzip.read_ms


# -- range reads through the stream index (run_range edge cases) -------
@pytest.fixture(scope="module")
def range_stream():
    # 5 full chunks of 100 elements plus a final partial chunk of 37.
    arr = np.cumsum(np.ones(537)) * 0.5
    blob = compress_array(arr, "gorilla", chunk_elements=100)
    with DecompressSession(blob) as session:
        yield arr, session


def test_range_empty(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 200, 200)
    assert scan.values.size == 0
    assert scan.n_chunks == 0
    assert scan.bytes_read == 0
    assert scan.read_ms == 0.0


def test_range_reversed_bounds(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 400, 100)
    assert scan.values.size == 0
    assert scan.n_chunks == 0
    assert scan.read_ms == 0.0


def test_range_spanning_final_partial_chunk(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 480, 537)
    assert np.array_equal(scan.values, arr[480:537])
    assert scan.n_chunks == 2  # last full chunk + the 37-element tail
    assert scan.bytes_read > 0
    assert scan.read_ms > 0


def test_range_clamps_past_the_end(bench, range_stream):
    arr, session = range_stream
    scan = bench.run_range(session, 530, 10_000)
    assert np.array_equal(scan.values, arr[530:])
    assert scan.n_chunks == 1  # only the final partial chunk


def test_range_read_cost_counts_only_touched_chunks(bench, range_stream):
    arr, session = range_stream
    one = bench.run_range(session, 0, 50)
    many = bench.run_range(session, 0, 537)
    assert one.n_chunks == 1 and many.n_chunks == 6
    assert one.bytes_read < many.bytes_read
    assert one.read_ms < many.read_ms
