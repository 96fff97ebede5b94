"""An ordered map over spawn worker processes, for the independent units of a run.

A run splits into units whose results depend neither on each other nor on
the order they run in: the load and sleep stage of each input file, the
change points of each awake span (its permutations are seeded by
``derive_seed(seed, recording, segment)``), and each fold of
cross-validation.  The pipeline takes the ``map`` it runs those units with
as an argument.  The default, the built-in ``map``, runs them in this
process; :class:`Workers` runs them in worker processes and returns the
results in the order of the units, so the outputs are the same either way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import WorkerLost

# Epoch CSV bytes from which a run starts worker processes.  A spawn worker
# pays about 0.35 s of imports before its first task, which a small run does
# not win back.  Measured with `rahar run` on the first n days of the
# criterion-10 fortnight, on 2 CPUs: the pool lost at 1-6 days (64-387 KB;
# 0.39 -> 0.52 s at one day), broke even at 8 (516 KB) and won from 10
# (645 KB; 2.2 -> 1.9 s).  The whole fortnight (907 KB) runs on workers.
POOL_MIN_BYTES = 512 * 1024


class Workers:
    """Ordered map over ``processes`` spawn worker processes.

    Call it as the built-in ``map``: ``workers(fn, items)`` returns
    ``[fn(item) for item in items]``, with ``fn`` and each item pickled to a
    worker and each result or exception pickled back.  When several items
    fail, the first in item order is raised, as in-process.  A worker starts
    on the first call that has work for it, so no more workers start than a
    call has items; fewer than two items run in this process.
    """

    def __init__(self, processes: int):
        if processes < 2:
            raise ValueError(f"a worker pool needs at least 2 processes, got {processes}")
        # imported here, not with the module: multiprocessing adds about
        # 25 ms and 2 MB to a command that runs in process
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        self._executor = ProcessPoolExecutor(processes, mp_context=get_context("spawn"))

    def __call__(self, fn, items) -> list:
        from concurrent.futures.process import BrokenProcessPool

        items = list(items)
        if len(items) < 2:
            return list(map(fn, items))
        try:
            return list(self._executor.map(fn, items))
        except BrokenProcessPool:
            raise WorkerLost(
                "a worker process ended without returning its result "
                "(killed, out of memory or exited); run again with fewer CPUs, "
                "e.g. under taskset -c 0"
            ) from None

    def close(self) -> None:
        """Cancel the tasks not yet started, then wait for every worker to exit."""
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pool_processes(paths: list[Path]) -> int:
    """How many workers a run over the epoch CSVs ``paths`` may use: one per CPU
    this process may run on (``taskset`` and cpusets set that), or 0 (run in
    process) when that is one CPU or the files total under ``POOL_MIN_BYTES``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on macOS or Windows
        cpus = os.cpu_count() or 1
    if cpus < 2 or sum(p.stat().st_size for p in paths) < POOL_MIN_BYTES:
        return 0
    return cpus


@contextmanager
def worker_map(paths: list[Path]):
    """The ``map`` for a run over the epoch CSVs ``paths``: :class:`Workers`
    when :func:`pool_processes` allows two or more, else the built-in ``map``."""
    processes = pool_processes(paths)
    if processes < 2:
        yield map
        return
    with Workers(processes) as workers:
        yield workers
