"""The persistent (warm) worker pool.

The scheduler (:func:`repro.simulation.scheduler.run_units`) runs every
multi-worker study and per-trial engine fan-out on this module's
executor.
Forking a fresh ``ProcessPoolExecutor`` per sweep would make every
experiment invocation pay interpreter startup and module import for
each worker, so this module keeps one executor alive and hands it back
on the next call, amortizing that cost across every study, experiment,
and benchmark in the process.  The pool is sized to the largest worker
count requested so far (growing recreates it); calls requesting fewer
workers reuse the big pool but cap their in-flight submissions at
their own worker count, so concurrency never exceeds the request and
the process never accumulates one resident pool per distinct worker
count.  The pool is shut down at interpreter exit.

Callers with work in flight hold a *lease* on their executor
(:func:`acquire_lease`/:func:`release_lease` or the
:func:`executor_lease` context manager).  Growing the pool while
leases are outstanding retires the old executor gracefully — it stops
accepting new work but finishes what leaseholders already submitted —
instead of cancelling their futures out from under them.

Determinism is unaffected: work units carry their own seeds, so *which*
pool (or how warm it is) never changes results.
"""

from __future__ import annotations

import atexit
import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, Optional

from repro.exceptions import SimulationError

__all__ = [
    "get_executor",
    "discard_executor",
    "shutdown_pools",
    "default_workers",
    "acquire_lease",
    "release_lease",
    "executor_lease",
    "active_leases",
]

_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
_LEASES: Dict[int, int] = {}  # id(executor) -> outstanding lease count


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else ``min(cpu, 8)``.

    Eight processes saturate the Figure 1 workload on typical hosts
    while keeping fork/IPC overhead negligible for smaller runs.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise SimulationError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise SimulationError(f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    return max(1, min(os.cpu_count() or 1, 8))


def acquire_lease(executor: ProcessPoolExecutor) -> None:
    """Mark *executor* as having caller work in flight.

    While any lease is outstanding, :func:`get_executor` growth retires
    the executor without cancelling its futures.
    """
    _LEASES[id(executor)] = _LEASES.get(id(executor), 0) + 1


def release_lease(executor: ProcessPoolExecutor) -> None:
    """Release one lease taken by :func:`acquire_lease`."""
    key = id(executor)
    count = _LEASES.get(key, 0)
    if count <= 1:
        _LEASES.pop(key, None)
    else:
        _LEASES[key] = count - 1


def active_leases(executor: ProcessPoolExecutor) -> int:
    """Outstanding lease count for *executor* (0 when unleased)."""
    return _LEASES.get(id(executor), 0)


@contextlib.contextmanager
def executor_lease(executor: ProcessPoolExecutor) -> Iterator[ProcessPoolExecutor]:
    """Hold a lease on *executor* for the duration of the block."""
    acquire_lease(executor)
    try:
        yield executor
    finally:
        release_lease(executor)


def get_executor(workers: int) -> ProcessPoolExecutor:
    """Return the warm executor, growing it if *workers* exceeds its size.

    Growth normally cancels the old executor's queue outright, but when
    a caller holds a lease (work legitimately in flight) the old
    executor is *retired* instead: no new submissions land on it, its
    running and queued futures complete normally, and its processes
    exit once the last one drains.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    if _EXECUTOR is None or _EXECUTOR_SIZE < workers:
        if _EXECUTOR is not None:
            if active_leases(_EXECUTOR):
                _EXECUTOR.shutdown(wait=False)
            else:
                _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _EXECUTOR = ProcessPoolExecutor(max_workers=workers)
        _EXECUTOR_SIZE = workers
    return _EXECUTOR


def discard_executor() -> None:
    """Drop the warm executor (e.g. after ``BrokenProcessPool``).

    The next :func:`get_executor` call builds a fresh one.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    if _EXECUTOR is not None:
        _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _LEASES.pop(id(_EXECUTOR), None)
        _EXECUTOR = None
        _EXECUTOR_SIZE = 0


def shutdown_pools() -> None:
    """Shut down the warm pool (registered via ``atexit``)."""
    discard_executor()


atexit.register(shutdown_pools)
