"""The repository benchmark: four closed-loop workloads timed from outside.

``BENCHMARK.json`` at the repository root is the contract (command,
workloads, end-to-end metrics with their regression bounds, per-layer
metrics); ``bench/README.md`` says what each name means and which
end-to-end metric each layer metric should move.  Nothing here is
imported by ``src/``: the program under test sees only arrays and its
own public entry points.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes: result files, span files, children's logs.
OUT_DIR = ROOT / "bench" / "out"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
