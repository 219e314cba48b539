"""The one pool loop (repro.parallel): order, callbacks, broken pools."""

from __future__ import annotations

import os

import pytest

import repro.parallel
from repro.parallel import map_ordered

_PARENT = os.getpid()


def _square(x: int) -> int:
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x


def _die_in_worker(x: int) -> int:
    """Kills whichever pool worker runs item 2; harmless in the parent."""
    if x == 2 and os.getpid() != _PARENT:
        os._exit(1)
    return x * x


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_fires_once_per_item_in_the_parent(jobs):
    seen: list[tuple[int, int, int]] = []

    def on_result(index, value):
        seen.append((index, value, os.getpid()))

    results = map_ordered(_square, range(6), jobs=jobs, on_result=on_result)
    assert results == [0, 1, 4, 9, 16, 25]  # item order, whatever finished first
    assert sorted(seen) == [(i, i * i, _PARENT) for i in range(6)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_from_fn_propagates(jobs):
    with pytest.raises(ValueError, match="three"):
        map_ordered(_raise_on_three, range(6), jobs=jobs)


def test_unpicklable_fn_finishes_in_the_parent():
    assert map_ordered(lambda x: x + 1, range(4), jobs=2) == [1, 2, 3, 4]


def test_leaf_imports_nothing_from_the_package():
    import ast

    with open(repro.parallel.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [m for m in imported if m.startswith("repro")]


def test_broken_pool_loses_no_item_and_the_pool_object_recovers():
    seen: list[int] = []
    results = map_ordered(
        _die_in_worker, range(6), jobs=2, on_result=lambda i, v: seen.append(i)
    )
    assert results == [0, 1, 4, 9, 16, 25]
    assert sorted(seen) == list(range(6))
    # Nothing of the broken pool outlives the call: the next map starts
    # fresh workers and runs in them again.
    pids: list[int] = []
    assert map_ordered(_square, range(4), jobs=2) == [0, 1, 4, 9]
    map_ordered(_pid, range(4), jobs=2, on_result=lambda i, v: pids.append(v))
    assert _PARENT not in pids


def _pid(_: int) -> int:
    return os.getpid()


def test_serial_pool_never_starts_a_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", no_pool)
    assert map_ordered(_square, range(5), jobs=1) == [0, 1, 4, 9, 16]
    # A single item never crosses a process boundary either.
    assert map_ordered(_pid, [0], jobs=2) == [_PARENT]
    assert map_ordered(_square, [], jobs=2) == []
