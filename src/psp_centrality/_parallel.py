"""Deterministic process-pool helper.

Results are returned in task-submission order regardless of worker count or
scheduling, so floating-point reductions done by the caller are bitwise
reproducible. Callers bind their state (graph, settings) into ``fn`` with
``functools.partial``; the pool hands ``fn`` to each worker once, when the
worker starts. Workers are forked, so ``fn`` and the state it holds are
inherited rather than pickled; only the tasks and results travel per task.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

_worker_fn = None  # fn of the pool this worker process belongs to


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(task):
    return _worker_fn(task)


def require_workers(workers: int) -> None:
    """Raise ValueError unless the worker count is >= 1."""
    if workers < 1:
        raise ValueError("workers must be >= 1")


def run_ordered(fn, tasks, workers):
    """Map fn over tasks, returning the results in task order.

    ``workers`` must be >= 1, even when there is nothing to run. With one
    worker (or at most one task) everything runs in-process; otherwise the
    pool forks at most one worker per task.
    """
    require_workers(workers)
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=ctx,
        initializer=_set_worker_fn,
        initargs=(fn,),
    ) as pool:
        futures = [pool.submit(_call_worker_fn, t) for t in tasks]
        return [f.result() for f in futures]
