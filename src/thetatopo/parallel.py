"""Deterministic fan-out over a fixed task list.

Results always come back in task order, so worker count changes wall
time but never output.  Task functions must be picklable module-level
callables and tasks must be picklable values.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pool_size(workers: int, tasks: int) -> int:
    """Processes to start: no more than asked for, tasks or CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T], workers: int = 1) -> list[R]:
    procs = pool_size(workers, len(tasks))
    if procs <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(tasks) // (procs * 4))
    with ctx.Pool(procs) as pool:
        return pool.map(fn, tasks, chunksize=chunk)
