"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in fresh child processes and prints, as the last line
of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``.  Without
``--workload`` it runs all four workloads and then the traced run, and
prints every metric by name and unit.  Each run is also appended, with
what the numbers mean on this host, to the ``--out`` file that
``bench/compare.py`` reads.  The exit status is non-zero when any
output failed verification.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # started as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT_DIR, ROOT, children, load_contract  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run must end well inside the 180 s the contract allows.
RUN_BUDGET_S = 170.0


def _git_sha() -> str:
    """``<sha>`` or ``<sha>-dirty``; ``unknown`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def spawn_worker(workload: str, seed: int, seconds: float, mode: str,
                 quick: bool, deadline: float) -> dict:  # fmt: skip
    """Run ``bench.worker`` in a fresh process (its own process group, so
    that nothing it started can outlive it) and return its result."""
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=children.program_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise SystemExit(
            f"bench: {mode} worker for {workload} exited with {process.returncode}"
        )
    return json.loads(output.splitlines()[-1])


def run_once(contract: dict, workload: str, seed: int, seconds: float,
             trace: bool, quick: bool) -> dict:  # fmt: skip
    """One run of one workload: the record that goes to the ``--out`` file."""
    deadline = time.monotonic() + RUN_BUDGET_S
    load_start = os.getloadavg()[0]
    began = time.monotonic()
    if trace:
        result = spawn_worker(workload, seed, seconds, "layers", quick, deadline)
        values = result["metrics"]
        wanted = contract["per_layer"]
    else:
        setups = [
            spawn_worker(workload, seed, seconds, "setup", quick, deadline)
            for _ in range(0 if quick else SETUPS - 1)
        ]
        result = spawn_worker(workload, seed, seconds, "measure", quick, deadline)
        setups.append(result)
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        for setup in setups[:-1]:
            result["attempted"] += setup["attempted"]
            result["failed"] += setup["failed"]
        result["setup_s_each"] = [s["setup_s"] for s in setups]
        wanted = contract["end_to_end"]

    names = [metric["name"] for metric in wanted]
    if sorted(values) != sorted(names):
        raise SystemExit(
            "bench: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "quick": quick,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
        # What the numbers mean on this host.
        "host": {
            "git": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "loadavg_1min_start": load_start,
            "loadavg_1min_end": os.getloadavg()[0],
            "run_wall_s": time.monotonic() - began,
        },
        "detail": {
            key: result[key]
            for key in ("phases", "raw", "setup_s_each", "detail")
            if key in result
        },
    }


def append_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def final_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)  # fmt: skip
        return 2
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload only (default: all, then a traced run)")  # fmt: skip
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one set-up: a smoke test, not a measurement")  # fmt: skip
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json",
                        help="result file the run is appended to (default %(default)s)")  # fmt: skip
    args = parser.parse_args(argv)

    if args.workload:
        record = run_once(contract, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)  # fmt: skip
        append_record(args.out, record)
        print(final_line(record))
        return 0 if record["correct"] else 1

    records = [
        run_once(contract, name, args.seed, args.seconds, False, args.quick)
        for name in names
    ]
    records.append(
        run_once(contract, names[0], args.seed, args.seconds, True, args.quick)
    )
    for record in records:
        append_record(args.out, record)
        title = "per-layer (traced run)" if record["trace"] else record["workload"]
        print(f"== {title}: {record['attempted']} ops, {record['failed']} failed")
        for name, metric in record["metrics"].items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
