"""An ordered map over forked worker processes, for the independent units of a run.

A run splits into units whose results depend neither on each other nor on
the order they run in: the load and sleep stage of each input file, the
change points of each awake span (its permutations are seeded by
``derive_seed(seed, recording, segment)``), and each fold of
cross-validation.  The pipeline takes the ``map`` it runs those units with
as an argument.  The default, the built-in ``map``, runs them in this
process; :class:`Workers` runs them in worker processes and returns the
results in the order of the units, so the outputs are the same either way.

Workers are started with the ``fork`` method, so each begins with the
modules this process has already imported and runs its first task about
10 ms after the call that starts it.  Forking is unsafe on macOS and
missing on Windows, so a run uses a pool only where ``os.sched_getaffinity``
exists (Linux); on macOS and Windows it stays in one process.  numpy's
OpenBLAS starts a thread of its own at import and registers
``pthread_atfork`` handlers for the fork.  Python 3.12 and later emit a
``DeprecationWarning`` from ``os.fork`` in any process with more than one OS
thread, so a pooled run there may show it once per worker; it is not
filtered, since a thread that holds a lock at the fork is what it warns of.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import WorkerLost

# Epoch CSV bytes from which a run starts worker processes.  A forked worker
# starts in milliseconds, but starting the pool, pickling tasks and results
# and sharing the CPUs still cost a small run more than it saves.  Measured
# with `rahar run` on the first n days of the criterion-10 fortnight, on 2
# CPUs, the pool forced against `taskset -c 0` (medians of 14 alternating
# pairs at 2-5 days, of 6 elsewhere): the pool lost at 1-2 days (64-129 KB;
# 0.31 -> 0.38 s at one day), broke even at 3 (194 KB; 0.67 -> 0.61 s, won
# 9 of 14) and won from 4 (258 KB; 0.78 -> 0.68 s, won 13 of 14; 5 days,
# 322 KB, 1.18 -> 0.91 s).  The gate sits between 4 and 5 days, a little
# above the break-even, because perfbench's per-layer trace sees only this
# process (ROADMAP item 1) and its tests trace a 261 KiB two-recording
# study, which must run here; a 3-4 day input pays about 0.1 s for it.
POOL_MIN_BYTES = 288 * 1024


class Workers:
    """Ordered map over ``processes`` forked worker processes.

    Call it as the built-in ``map``: ``workers(fn, items)`` returns
    ``[fn(item) for item in items]``, with ``fn`` and each item pickled to a
    worker and each result or exception pickled back.  When several items
    fail, the first in item order is raised, as in-process.  Every worker is
    forked at the first call with two or more items, however many items it
    has (an idle worker costs one fork); fewer than two items run in this
    process.
    """

    def __init__(self, processes: int):
        if processes < 2:
            raise ValueError(f"a worker pool needs at least 2 processes, got {processes}")
        # imported here, not with the module: multiprocessing adds about
        # 25 ms and 2 MB to a command that runs in process
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        self._executor = ProcessPoolExecutor(processes, mp_context=get_context("fork"))

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
    process) when that is one CPU, when the files total under
    ``POOL_MIN_BYTES``, or where there is no ``os.sched_getaffinity`` (macOS
    and Windows, where forking a worker is not safe or not possible)."""
    if not hasattr(os, "sched_getaffinity"):
        return 0
    cpus = len(os.sched_getaffinity(0))
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
