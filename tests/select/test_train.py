"""What stands where the learned policy's training table stood.

``auto`` once had a ``learned`` policy: a nearest-neighbour lookup in a
feature → winner table fit from the result store.  Measured leave-one-out
over the 33 catalog datasets it read 0.991 × the heuristic's geomean
compression ratio (the keep-rule asked for 1.02 ×), so the policy, its
table and ``fcbench select train`` were deleted.  Each test below keeps
its name and checks what now carries the behaviour it pinned:

* store freshness and stream-cell separation are properties of
  :func:`repro.core.suite.stored_cells` and ``fcbench cache``;
* a per-domain winner over suite results is
  :func:`repro.core.recommend.recommend`;
* candidate restriction and deterministic tie-breaks are
  :class:`MeasuredPolicy` / :func:`pick_smallest`;
* a missing or malformed table became the typed refusal of the name
  ``learned`` on every surface;
* the persisted selection record is ``fcbench select explain --json``.
"""

import json

import numpy as np
import pytest

from repro.api import compress_array, open_stream
from repro.cli import main
from repro.core.recommend import recommend
from repro.core.results import Measurement, ResultSet
from repro.core.suite import cell_fields, open_store, stored_cells
from repro.errors import SelectionError
from repro.expdb.store import CellKey
from repro.select import (
    DEFAULT_CANDIDATES,
    MeasuredPolicy,
    explain,
    pick_smallest,
    resolve_policy,
)
from repro.select.features import FEATURE_ORDER

SEEDED = {
    ("gorilla", "citytemp"): 2.0,
    ("chimp", "citytemp"): 3.5,
    ("gorilla", "tpcH-order"): 1.9,
    ("chimp", "tpcH-order"): 1.2,
}


def _measurement(method, dataset, ratio, ok=True):
    return Measurement(
        method=method,
        dataset=dataset,
        domain="TS",
        precision="D",
        ok=ok,
        compression_ratio=ratio,
    )


def _seed_cache(tmp_path, cells=None, fingerprint=None):
    cells = cells or [(m, d, r) for (m, d), r in SEEDED.items()]
    with open_store(tmp_path) as store:
        store.upsert_cells(
            [
                {
                    "codec": method,
                    "dataset": dataset,
                    "chunk_elements": 0,
                    "jobs": 1,
                    "policy": "fixed",
                    "seed": 0,
                    "target_elements": 512,
                    "status": "done",
                    **cell_fields(_measurement(method, dataset, ratio)),
                    **({"fingerprint": fingerprint} if fingerprint else {}),
                }
                for method, dataset, ratio in cells
            ]
        )


def _stored(tmp_path):
    """``{(codec, dataset, chunk_elements): fields}`` over the store."""
    with open_store(tmp_path) as store:
        return {
            (row.key.codec, row.key.dataset, row.key.chunk_elements): fields
            for row, fields in stored_cells(store)
        }


def _cache_lines(monkeypatch, capsys, tmp_path, *args):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    assert main(["cache", *args]) == 0
    return capsys.readouterr().out.splitlines()


def _smooth(n=4096):
    return np.sin(np.linspace(0.0, 30.0, n)) * np.linspace(1.0, 2.0, n)


def test_build_table_picks_best_cr_per_dataset(tmp_path):
    # The store answers per-dataset ratios directly: every whole-array
    # cell comes back fresh with the ratio it was stored with.
    _seed_cache(tmp_path)
    stored = _stored(tmp_path)
    assert {key[:2]: fields["ratio"] for key, fields in stored.items()} == SEEDED
    assert {key[2] for key in stored} == {0}


def test_build_table_respects_candidate_restriction():
    # A restricted candidate set is `measured`'s: it picks only from it,
    # and explain reports exactly that set.
    policy = MeasuredPolicy(candidates=("gorilla",), sample_elements=256)
    document = explain(_smooth(), policy, 1024)
    assert document["candidates"] == ["gorilla"]
    assert {chunk["codec"] for chunk in document["chunks"]} == {"gorilla"}
    with pytest.raises(SelectionError):
        MeasuredPolicy(candidates=())


def test_build_table_on_empty_cache_raises(tmp_path, monkeypatch, capsys):
    # An empty store holds no cells, and nothing in selection reads it:
    # `learned` is refused by name, typed, with or without a store.
    assert _stored(tmp_path) == {}
    assert "cells: 0 (0 stale, " in "\n".join(
        _cache_lines(monkeypatch, capsys, tmp_path)
    )
    with pytest.raises(SelectionError, match="known: heuristic, measured$"):
        resolve_policy("learned")


def test_build_table_ignores_stale_rows(tmp_path, monkeypatch, capsys):
    """A stale row's ratio was measured by code that has since changed."""
    _seed_cache(tmp_path)
    _seed_cache(tmp_path, [("fpzip", "citytemp", 99.0)], fingerprint="0" * 20)
    assert _stored(tmp_path)[("fpzip", "citytemp", 0)] is None
    assert "cells: 5 (1 stale, " in "\n".join(
        _cache_lines(monkeypatch, capsys, tmp_path)
    )
    # Once re-measured under the current fingerprint it counts again.
    _seed_cache(tmp_path, [("fpzip", "citytemp", 99.0)])
    assert _stored(tmp_path)[("fpzip", "citytemp", 0)]["ratio"] == 99.0
    _seed_cache(tmp_path, [("fpzip", "citytemp", 99.0)], fingerprint="0" * 20)
    lines = _cache_lines(monkeypatch, capsys, tmp_path, "clear", "--stale")
    assert lines == ["cleared (stale): 1 cell(s), 4 kept"]
    assert ("fpzip", "citytemp", 0) not in _stored(tmp_path)


def test_build_table_ignores_fresh_stream_cells(tmp_path, monkeypatch, capsys):
    """A stream cell's ratio measures a chunking, not the codec: it is its
    own fresh row, and no whole-array key finds it."""
    from repro.core.runner import BenchmarkRunner

    _seed_cache(tmp_path)
    stream = {
        "codec": "fpzip", "dataset": "citytemp",
        "chunk_elements": 1024, "jobs": 1, "policy": "fixed",
        "seed": 0, "target_elements": 512,
    }
    with open_store(tmp_path) as store:
        store.upsert_cells(
            [
                {
                    **stream, "status": "done", "ratio": 99.0,
                    "fingerprint": BenchmarkRunner().cell_fingerprint("fpzip"),
                }
            ]
        )
        assert store.find_cell(CellKey(**{**stream, "chunk_elements": 0})) is None
        assert store.find_cell(CellKey(**stream)).key.chunk_elements == 1024
    stored = _stored(tmp_path)
    assert stored[("fpzip", "citytemp", 1024)]["ratio"] == 99.0
    assert ("fpzip", "citytemp", 0) not in stored
    assert "cells: 5 (0 stale, " in "\n".join(
        _cache_lines(monkeypatch, capsys, tmp_path)
    )


def test_build_table_ties_go_to_the_alphabetically_first_method():
    # Ties break by candidate position, never by name or dict order.
    sizes = {"gorilla": 10, "chimp": 10, "fpzip": 11}
    assert pick_smallest(("chimp", "gorilla", "fpzip"), sizes) == "chimp"
    assert pick_smallest(("gorilla", "chimp", "fpzip"), sizes) == "gorilla"


def test_table_round_trips_through_json(tmp_path, capsys):
    # `select explain --json` is the persisted selection record: it
    # parses, and its per-chunk codecs are the ones `auto` writes.
    array = np.concatenate([_smooth(2048), np.round(_smooth(2048) * 100, 2)])
    source = tmp_path / "mixed.npy"
    np.save(source, array)
    assert main(
        ["select", "explain", str(source), "--json", "--chunk-elements", "1024"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    assert document == json.loads(json.dumps(document))
    blob = compress_array(array, "auto", chunk_elements=1024)
    with open_stream(blob) as stream:
        codecs = stream.frame_codec_names()
    assert [chunk["codec"] for chunk in document["chunks"]] == codecs
    assert len(set(codecs)) > 1


def test_load_table_rejects_missing_and_malformed(capsys):
    # No table is read on any surface: the CLI refuses the command, the
    # flags and the choice as usage errors, and the library refuses the
    # name as a typed SelectionError.
    for argv in (
        ["select", "train"],
        ["compress", "in.npy", "out.fcf", "--codec", "auto", "--policy", "learned"],
        ["compress", "in.npy", "out.fcf", "--select-table", "table.json"],
        ["select", "explain", "citytemp", "--select-table", "table.json"],
        ["client", "compress", "in.npy", "out.fcf", "--policy", "learned"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "usage: fcbench" in capsys.readouterr().err
    for options in ({}, {"table_path": "table.json"}):
        with pytest.raises(SelectionError, match="unknown selection policy"):
            resolve_policy("learned", **options)


def test_load_table_rejects_feature_order_drift(capsys):
    # The feature vector a reader can drift from is explain's: every
    # chunk lists n_elements, sampled, then FEATURE_ORDER, and the CLI's
    # sorted JSON carries exactly those names.
    array = _smooth(2048)
    for chunk in explain(array, resolve_policy("heuristic"), 1024)["chunks"]:
        assert tuple(chunk["features"]) == ("n_elements", "sampled", *FEATURE_ORDER)
    assert main(
        ["select", "explain", "citytemp", "--json", "--target-elements", "2048",
         "--chunk-elements", "1024"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    assert len(document["chunks"]) == 2
    for chunk in document["chunks"]:
        assert set(chunk["features"]) == {"n_elements", "sampled", *FEATURE_ORDER}


def test_table_from_results():
    # A per-domain winner over suite results is the storage
    # recommendation; a failed cell never wins.
    results = ResultSet()
    results.add(_measurement("gorilla", "citytemp", 2.0))
    results.add(_measurement("chimp", "citytemp", 3.0))
    results.add(_measurement("fpzip", "citytemp", 9.0, ok=False))
    assert recommend(results).storage_by_domain == {"TS": "chimp"}


def test_table_from_results_with_nothing_usable():
    # With no usable cell there is no per-domain winner, and `auto`
    # keeps its own default candidate set, which no result reshapes.
    results = ResultSet()
    results.add(_measurement("gorilla", "citytemp", 2.0, ok=False))
    assert recommend(results).storage_by_domain == {}
    assert MeasuredPolicy().candidates == DEFAULT_CANDIDATES
