"""Percentiles, the ``/proc`` readers behind the CPU and memory metrics,
and the host-speed reference that timings are normalised by.

Everything here reads the operating system or plain lists; nothing
imports the program under test, so ``bench.run`` and ``bench.compare``
stay importable without ``src/`` on the path.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds one reference kernel takes on the two-core sandbox this
#: benchmark was defined on, when that host is quiet.  Only a scale: it
#: keeps normalised values in the units a user would measure.
REFERENCE_S = 0.0105
_TIME_UNITS = {"s", "ms", "us", "s/GB"}
_RATE_UNITS = {"MB/s", "Msym/s", "Mbit/s"}


class HostSpeed:
    """How fast this host runs right now, from a fixed reference kernel.

    A shared sandbox slows down and speeds up by 10-20 % over minutes as
    its neighbours come and go, which is more than the bound on any
    timing metric.  The kernel — an interpreter-bound hash loop plus
    memory-bound NumPy passes, the two kinds of work the codecs do — is
    sampled between the slices of every timed phase.  ``speed`` is
    ``REFERENCE_S`` over the median sample: 1.0 on the reference host
    when quiet, below 1 when the host runs slow.  Timings are reported
    at reference speed (:func:`normalise`), the raw ones are kept in the
    result record.  The kernel calls nothing of the program under test,
    so no change to the program can move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._bytes = bytes(range(256)) * 128
        self._words = np.arange(1 << 19, dtype=np.uint64)
        self.samples: list[float] = []

    def _kernel(self) -> int:
        np = self._np
        table, rolling = {}, 0
        for index, byte in enumerate(self._bytes):
            rolling = ((rolling << 5) ^ byte) & 0xFFFF
            table[rolling] = index
        mixed = self._words ^ (self._words >> np.uint64(7))
        np.cumsum(mixed, out=mixed)
        order = np.argsort(mixed[: 1 << 15] & np.uint64(0xFFFF), kind="stable")
        packed = (mixed & np.uint64(0xFF)).astype(np.uint8).tobytes()
        return len(table) + len(packed) + int(order[0])

    def sample(self, repeats: int = 3) -> int:
        """Time the kernel ``repeats`` times; returns the index of the
        first new sample, for ``speed(since=...)``."""
        first = len(self.samples)
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
        return first

    def speed(self, since: int = 0) -> float:
        """Host speed over the samples taken from index ``since`` on."""
        return REFERENCE_S / statistics.median(self.samples[since:])


def normalise(value: float, unit: str, speed: float) -> float:
    """``value`` as it would read on the reference host: durations scale
    with host speed, rates against it, counts and ratios not at all."""
    if unit in _TIME_UNITS:
        return value * speed
    if unit in _RATE_UNITS:
        return value / speed
    return value


def freeze_heap() -> None:
    """Exempt everything allocated so far from garbage collection.

    A full collection walks every tracked object of the process — 20 ms
    once the program and its inputs are loaded — and fires after a fixed
    number of allocations, so in a loop of identical passes it lands in
    the same call every time: one cell of a codec workload read 110 or
    135 ms from one process to the next.  Collection stays on; after
    this it only walks what the timed calls themselves allocate.
    """
    gc.collect()
    gc.freeze()


def percentile(samples, q: float) -> float:
    """Exact nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.  No interpolation, so
    the value is always one that was observed."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered) / 100.0) - 1)]


def block_percentile(samples, q: float, block: int = 200) -> float:
    """The ``q``-th percentile of the fast quartile of consecutive
    ``block``-sample blocks.

    A tail percentile of a whole phase rests on its few slowest
    requests, which on a shared two-core host are mostly the
    neighbours' doing: over ten runs the pooled p99 of a served phase
    spread by 45-135 %.  A block of 200 requests is well under a second
    and still has ten samples beyond its own p95; the level a quarter
    of the blocks stay under is the program's own tail as long as a
    quarter of the phase ran undisturbed.  A phase shorter than two
    blocks falls back to the pooled percentile.
    """
    blocks = [
        samples[start : start + block]
        for start in range(0, len(samples) - block + 1, block)
    ]
    if len(blocks) < 2:
        return percentile(samples, q)
    return percentile([percentile(chunk, q) for chunk in blocks], 25)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the repeatability figure the benchmark contract uses."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:  # the process ended between listing and reading
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  Index 0 is then the state, 1 the parent pid.
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float | None:
    """User + system CPU seconds of ``pid`` including children it has
    already waited for, or ``None`` once the process is gone."""
    fields = _stat_fields(pid)
    if fields is None:
        return None
    return sum(int(fields[index]) for index in (11, 12, 13, 14)) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float | None:
    """``VmHWM`` of ``pid`` in MB (1e6 bytes), or ``None`` if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return None


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (servers, nodes, pool workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(pids) -> dict[int, float]:
    """CPU seconds per live pid — subtract two of these with :func:`cpu_delta`."""
    readings = {pid: cpu_seconds(pid) for pid in pids}
    return {pid: value for pid, value in readings.items() if value is not None}


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two :func:`tree_cpu_seconds` readings.

    A pid that first appears in ``after`` (a pool worker forked inside
    the interval) contributes everything it has used.
    """
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def tree_peak_rss_mb(pids) -> float:
    readings = [peak_rss_mb(pid) for pid in pids]
    return max(value for value in readings if value is not None)
