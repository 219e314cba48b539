"""Ordered process-pool fan-out: the package's one pool loop.

Everything that spreads independent, picklable work over processes —
the chunk-parallel compression sessions (:mod:`repro.api`), a served
batch (:mod:`repro.service.server`) and the misses of a suite run
(:mod:`repro.core.suite`) — goes through :class:`WorkerPool`, directly
or through its per-call form :func:`map_ordered`.  A leaf module: it
imports nothing else from the package, so a serving process gets a
fan-out without loading the benchmark harness.

Three guarantees:

* **Determinism** — results come back in item order regardless of
  completion order, so a parallel map is indistinguishable from a
  serial one.
* **Nothing lost** — items abandoned by a pool that breaks mid-flight
  (a worker died), or that cannot cross the process boundary, are
  finished serially in the parent; the broken pool is dropped and
  rebuilt on next use.
* **Graceful degradation** — ``jobs=1`` (the default) never starts a
  process, and environments where pools cannot start stay serial.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

__all__ = ["WorkerPool", "map_ordered", "resolve_jobs"]

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


class WorkerPool:
    """A process pool that maps in order and outlives a broken executor.

    The executor starts lazily on the first multi-item :meth:`map` and
    is reused until :meth:`shutdown`.  :meth:`map` may be called from
    several threads at once (the server runs one batch per connection
    thread).
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _start(self) -> ProcessPoolExecutor | None:
        with self._lock:
            if self._executor is None and self.jobs > 1:
                try:
                    self._executor = ProcessPoolExecutor(max_workers=self.jobs)
                except OSError:  # sandboxed / fork-less environments
                    pass
            return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; a later :meth:`map` would start new ones."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def map(self, fn, items, on_result=None) -> list:
        """Apply ``fn`` to every item; results in item order.

        ``on_result(index, value)`` fires in the calling thread as each
        item completes (completion order, exactly once per item).  ``fn``
        and every item must be picklable.  An exception raised by ``fn``
        itself is *not* converted into a result — it propagates.
        """
        items = list(items)
        slots: list = [_MISSING] * len(items)
        executor = self._start() if len(items) > 1 else None
        if executor is not None:
            self._fan_out(executor, fn, items, slots, on_result)
        # Serial path, and whatever the pool stranded: re-running in the
        # caller is safe, a genuine error from fn reproduces here.
        for index, value in enumerate(slots):
            if value is _MISSING:
                slots[index] = value = fn(items[index])
                if on_result is not None:
                    on_result(index, value)
        return slots

    def _fan_out(self, executor, fn, items, slots, on_result) -> None:
        future_index: dict = {}
        stranded = False
        try:
            try:
                for index, item in enumerate(items):
                    future_index[executor.submit(fn, item)] = index
            except (BrokenProcessPool, RuntimeError):
                stranded = True  # broke, or another thread shut it down
            pending = set(future_index)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        value = future.result()
                    except (BrokenProcessPool, CancelledError, pickle.PicklingError,
                            AttributeError, TypeError):
                        # The pool broke or was shut down under the item,
                        # or fn/item/result cannot cross the process
                        # boundary — pickling happens in the feeder thread,
                        # so that error surfaces here, not at submit().
                        stranded = True
                        continue
                    index = future_index[future]
                    slots[index] = value
                    if on_result is not None:
                        on_result(index, value)
        except BaseException:
            for future in future_index:
                future.cancel()
            raise
        finally:
            if stranded:  # drop this executor; the next map starts afresh
                with self._lock:
                    if self._executor is executor:
                        self._executor = None
                executor.shutdown(wait=False, cancel_futures=True)


def map_ordered(fn, items, jobs: int | None = None, on_result=None) -> list:
    """:meth:`WorkerPool.map` over a pool that lives for this one call."""
    items = list(items)
    pool = WorkerPool(min(resolve_jobs(jobs), max(1, len(items))))
    try:
        return pool.map(fn, items, on_result)
    finally:
        pool.shutdown()
