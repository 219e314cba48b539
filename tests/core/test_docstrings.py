"""The usage examples in the orchestration docstrings must actually run.

Executes the doctest snippets embedded in repro.core.suite,
repro.core.runner, and repro.cli.  The suite/cli examples point
FCBENCH_CACHE_DIR at their own temp directories; monkeypatch restores
the variable afterwards so other tests see their original cache.
"""

from __future__ import annotations

import doctest

import pytest

import repro.cli
import repro.core.runner
import repro.core.suite
import repro.encodings.vectorbit


@pytest.mark.parametrize(
    "module",
    [
        repro.core.suite,
        repro.core.runner,
        repro.cli,
        repro.encodings.vectorbit,
    ],
    ids=lambda m: m.__name__,
)
def test_docstring_examples_run(module, tmp_path, monkeypatch):
    monkeypatch.setenv("FCBENCH_CACHE_DIR", str(tmp_path))
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its examples"
    assert result.failed == 0
