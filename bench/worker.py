"""The child process that runs one workload: set-up, then the timed phases.

``bench.run`` starts this module in a fresh process per set-up, so
``setup_s`` really is process start -> first timed operation: the
interpreter, the imports, ``repro.data.load``, spawning and dialling the
servers, and one untimed warm-up pass.  The last line of standard
output is one JSON object for ``bench.run`` to fold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from bench import measure, workloads


def timed_phase(client_ops, seconds: float, host: measure.HostSpeed, pids):
    """One phase in blocks of about a second, each with a host-speed
    sample right before and after it, reported at reference host speed.

    Only the part of a request that some process spent on a CPU follows
    CPU speed; waiting on a timer or a socket does not.  ``cpu_share``
    is the CPU seconds the processes in ``pids`` used over the seconds
    the clients spent inside requests, and every duration of a block is
    multiplied by ``1 - cpu_share + cpu_share * speed`` with that
    block's host speed: all of it for an in-process codec call, about a
    third of it for a request that mostly waits out a batch window.

    Returns the pooled phase at reference speed, the pooled phase as
    measured, and a record of the block speeds, the CPU share and the
    CPU seconds each block used.
    """
    blocks, speeds, cpu_s = [], [], []
    before = host.sample()
    deadline = time.perf_counter() + seconds
    while True:
        remaining = deadline - time.perf_counter()
        if blocks and remaining <= 0:
            break
        cpu_before = measure.tree_cpu_seconds(pids)
        blocks.append(workloads.run_phase(client_ops, min(1.0, remaining)))
        cpu_s.append(measure.cpu_delta(cpu_before, measure.tree_cpu_seconds(pids)))
        after = host.sample()
        speeds.append(host.speed(since=before))
        before = after
    raw = workloads.pool(blocks)
    cpu_share = min(1.0, sum(cpu_s) / sum(raw.latencies_s))
    scaled = workloads.pool(
        [
            block.scaled(1 - cpu_share + cpu_share * speed)
            for block, speed in zip(blocks, speeds)
        ]
    )
    return scaled, raw, {
        "host_speed_by_block": speeds,
        "cpu_share": cpu_share,
        "cpu_s_by_block": cpu_s,
    }


def latency_percentiles_ms(workload, phase: workloads.Phase) -> dict:
    """p50 and p95 of one phase; see ``Workload.percentiles_over_cells``.

    p95 is the highest percentile a 200-request block — short enough
    to fall between two bursts of interference — has ten samples beyond.
    """
    if workload.percentiles_over_cells:
        cells_ms = [
            measure.percentile(samples, 25) * 1e3 for samples in phase.by_op_s
        ]
        return {
            "p50_ms": statistics.median(cells_ms),
            "p95_ms": measure.percentile(cells_ms, 95),
        }
    latencies_ms = [value * 1e3 for value in phase.latencies_s]
    return {
        "p50_ms": measure.block_percentile(latencies_ms, 50),
        "p95_ms": measure.block_percentile(latencies_ms, 95),
    }


def measure_workload(workload, seconds: float, spawned_at: float, setup_only: bool):
    """Set up ``workload``; unless ``setup_only``, run both timed phases."""
    try:
        workload.set_up()
        setup_s = time.time() - spawned_at
        host = measure.HostSpeed()
        measure.freeze_heap()
        host.sample(9)
        result = {
            "setup_s": measure.normalise(setup_s, "s", host.speed()),
            "attempted": workload.warmup_attempted,
            "failed": workload.warmup_failed,
            "raw": {"setup_s": setup_s, "host_speed_at_setup": host.speed()},
        }
        if setup_only:
            return result
        pids = measure.process_tree(os.getpid())
        phases = {
            "compress": timed_phase(
                workload.compress_ops(), seconds * workload.compress_share, host, pids
            ),
            "decompress": timed_phase(
                workload.decompress_ops(),
                seconds * (1 - workload.compress_share),
                host,
                pids,
            ),
        }
        peak_rss_mb = measure.tree_peak_rss_mb(pids)
    finally:
        workload.tear_down()

    metrics = {
        "compression_ratio": workload.raw_bytes / workload.stored_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
    # Kept in the record, not a metric: see "CPU cost" in bench/README.md.
    result["raw"]["cpu_s_per_gb"] = sum(
        sum(record["cpu_s_by_block"]) for *_, record in phases.values()
    ) / sum(raw.raw_bytes / 1e9 for _, raw, _ in phases.values())
    result["phases"] = {}
    for label, (phase, raw, record) in phases.items():
        metrics[f"{label}_mbs"] = phase.mb_per_s
        result["raw"][f"{label}_mbs"] = raw.mb_per_s
        for name, value in latency_percentiles_ms(workload, phase).items():
            metrics[f"{label}_{name}"] = value
        for name, value in latency_percentiles_ms(workload, raw).items():
            result["raw"][f"{label}_{name}"] = value
        result["attempted"] += phase.attempted
        result["failed"] += phase.failed
        result["phases"][label] = {
            "ops": phase.attempted,
            "failed": phase.failed,
            "passes": len(phase.pass_s),
            "clients": phase.clients,
            "raw_mb": phase.raw_bytes / 1e6,
            "fast_quartile_pass_s": measure.percentile(raw.pass_s, 25),
            **record,
        }
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "layers"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    scale = workloads.QUICK if args.quick else workloads.FULL
    if args.mode == "layers":
        from bench import layers

        result = layers.run(args.workload, scale, args.seed, args.seconds)
    else:
        workload = workloads.WORKLOADS[args.workload](
            scale, args.seed, workloads.TimedLoader()
        )
        result = measure_workload(
            workload, args.seconds, args.spawned_at, args.mode == "setup"
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
