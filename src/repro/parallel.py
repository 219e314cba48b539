"""Ordered process-pool fan-out: the package's one pool loop.

Everything that spreads independent, picklable work over processes —
the chunk-parallel compression sessions (:mod:`repro.api`) and the
misses of a suite run (:mod:`repro.core.suite`) — goes through
:func:`map_ordered`.  A leaf module: it imports nothing else from the
package, so a serving process gets a fan-out without loading the
benchmark harness.

Three guarantees:

* **Determinism** — results come back in item order regardless of
  completion order, so a parallel map is indistinguishable from a
  serial one.
* **Nothing lost** — items abandoned by a pool that breaks mid-flight
  (a worker died), or that cannot cross the process boundary, are
  finished serially in the parent.
* **Graceful degradation** — ``jobs=1`` (the default) never starts a
  process, and environments where pools cannot start stay serial.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

__all__ = ["map_ordered", "resolve_jobs"]

_MISSING = object()


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count: argument, then FCBENCH_JOBS, then 1.

    ``0`` (from either source) auto-detects ``os.cpu_count()`` so "use
    the whole machine" needs no hardware knowledge in scripts.
    """
    if jobs is None:
        env = os.environ.get("FCBENCH_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 1
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def map_ordered(fn, items, jobs: int | None = None, on_result=None) -> list:
    """Apply ``fn`` to every item; results in item order.

    The pool lives for this one call and holds at most one worker per
    item.  ``on_result(index, value)`` fires in the calling thread as
    each item completes (completion order, exactly once per item).
    ``fn`` and every item must be picklable to run in a worker.  An
    exception raised by ``fn`` itself is *not* converted into a result
    — it propagates.
    """
    items = list(items)
    slots: list = [_MISSING] * len(items)
    workers = min(resolve_jobs(jobs), len(items))
    if workers > 1:
        _fan_out(fn, items, slots, workers, on_result)
    # Serial path, and whatever the pool stranded: re-running in the
    # caller is safe, a genuine error from fn reproduces here.
    for index, value in enumerate(slots):
        if value is _MISSING:
            slots[index] = value = fn(items[index])
            if on_result is not None:
                on_result(index, value)
    return slots


def _fan_out(fn, items, slots, workers, on_result) -> None:
    """Fill ``slots`` from worker processes; a stranded slot stays missing."""
    try:
        executor = ProcessPoolExecutor(max_workers=workers)
    except OSError:  # sandboxed / fork-less environments
        return
    future_index: dict = {}
    stranded = False
    try:
        try:
            for index, item in enumerate(items):
                future_index[executor.submit(fn, item)] = index
        except BrokenProcessPool:
            stranded = True
        pending = set(future_index)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    value = future.result()
                except (BrokenProcessPool, pickle.PicklingError,
                        AttributeError, TypeError):
                    # The pool broke under the item, or fn/item/result
                    # cannot cross the process boundary — pickling
                    # happens in the feeder thread, so that error
                    # surfaces here, not at submit().
                    stranded = True
                    continue
                index = future_index[future]
                slots[index] = value
                if on_result is not None:
                    on_result(index, value)
    finally:
        # Also the exit for an exception from fn or on_result: whatever
        # has not started is cancelled; a broken pool is not waited for.
        executor.shutdown(wait=not stranded, cancel_futures=True)
