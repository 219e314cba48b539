"""Tables 10 and 11 read the result store instead of compressing privately.

Table 10's cells are page-sized stream cells of the one experiment
function (``repro.expdb.sweep.execute_cell``), served by the suite's
``serve_cells``; Table 11 is a pure function of the suite's rows.
"""

from __future__ import annotations

import pytest

from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.core import experiments as exp
from repro.core.suite import open_store, run_suite
from repro.data.catalog import get_spec
from repro.expdb import sweep
from repro.expdb.store import CellKey
from repro.storage.query import QueryBenchmark

PAGES = len(exp.PAGE_SIZES)
METHODS = len(exp._BLOCK_METHODS)


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("FCBENCH_JOBS", raising=False)
    return tmp_path


def _count_cells(monkeypatch) -> list[CellKey]:
    calls: list[CellKey] = []
    real = sweep.execute_cell

    def counted(key, *args, **kwargs):
        calls.append(key)
        return real(key, *args, **kwargs)

    monkeypatch.setattr(sweep, "execute_cell", counted)
    return calls


def test_a_warm_store_serves_table10_without_compressing(monkeypatch):
    calls = _count_cells(monkeypatch)
    cold = exp.table10_blocksize(datasets=("citytemp",), target_elements=1024)
    assert len(calls) == METHODS * PAGES
    calls.clear()
    warm = exp.table10_blocksize(datasets=("citytemp",), target_elements=1024)
    assert calls == []
    assert warm.data == cold.data


def test_a_swept_page_cell_is_a_table10_hit(cache_root, monkeypatch):
    # citytemp is float32, so the 4 KiB page holds 1024 elements.
    page = CellKey("chimp", "citytemp", 1024, 1, "fixed", 0, 1024)
    with open_store() as store:
        sweep.init_grid(
            store,
            sweep.GridSpec(
                codecs=("chimp",), datasets=("citytemp",),
                chunk_elements=(1024,), target_elements=1024,
            ),
        )
    assert sweep.worker_loop(cache_root / "results.sqlite")["done"] == 1
    with open_store() as store:
        swept = store.find_cell(page)
    calls = _count_cells(monkeypatch)
    out = exp.table10_blocksize(datasets=("citytemp",), target_elements=1024)
    assert page not in calls and len(calls) == METHODS * PAGES - 1
    assert out.data["chimp"]["4K"]["cr"] == pytest.approx(swept.ratio, rel=1e-12)


def test_table11_is_a_function_of_the_suite_rows(monkeypatch):
    results = run_suite(
        methods=["pfpc", "chimp", "gfc"],
        datasets=["tpcDS-web", "tpcxBB-web"],
        target_elements=1024,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("Table 11 compressed something")

    monkeypatch.setattr(Compressor, "compress", refuse)
    monkeypatch.setattr(sweep, "execute_cell", refuse)
    out = exp.table11_query(results)
    # pFPC is double-only and tpcDS-web float32: the model reads the
    # ratio the suite measured under the one float32 rule.
    [pfpc] = [m for m in results.measurements
              if (m.method, m.dataset) == ("pfpc", "tpcDS-web")]
    spec = get_spec("tpcDS-web")
    expected = QueryBenchmark().model(
        get_compressor("pfpc"), spec.name, pfpc.compression_ratio,
        spec.paper_bytes, spec.paper_extent[0],
    )
    assert out.data["cells"]["tpcDS-web"]["pfpc"] == (
        expected.read_ms, expected.decode_ms,
    )
    # GFC's paper-scale limit (a failed suite cell) renders as '-'.
    assert "gfc" not in out.data["cells"]["tpcxBB-web"]
    assert "-" in out.text
