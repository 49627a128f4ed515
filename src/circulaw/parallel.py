"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-task functions; results are gathered in item
order and reduced sequentially, so outputs are identical for any worker
count. CIRCULAW_THREADS caps the pool size. Every campaign hands the pool all
of its (z, n, trial) tasks at once (MinSv through one
`invertibility.min_sv_tail` call), so it waits for its slowest worker once,
not once per shift or dimension.

`parallel_map` runs the items on min(k, len(items)) plain threads, which take
the next item index from one locked counter and store each result at its
index; the caller only starts and joins them, so it is not woken per item.
The first failure, or an exception in the caller such as an interrupt, stops
the hand-out: no item starts after it, the items in flight finish, and the
exception of the lowest failing index (or the caller's) is raised. With k = 1
the items run inline.

Every linalg kernel holds numpy's bundled OpenBLAS at one thread
(`linalg.single_threaded_blas`) for its own call, so reports do not depend
on OPENBLAS_NUM_THREADS, and the pool's workers do not oversubscribe the
cores (CIRCULAW_THREADS=1 means one core). `parallel_map` also holds it for
the whole pass, for two reasons. The thread count changes once per pass
instead of twice per kernel call, with the caller's count restored when the
outermost `parallel_map` returns or raises. And each worker keeps one LU
scratch buffer (`linalg`) for all of its tasks, as the buffers live until
the outermost hold ends. If no OpenBLAS library is found, BLAS threading is
left alone.
"""

from __future__ import annotations

import os
import threading

from .errors import ConfigError
from .linalg import single_threaded_blas


def thread_count() -> int:
    env = os.environ.get("CIRCULAW_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError as exc:
            raise ConfigError(f"CIRCULAW_THREADS must be an integer, got {env!r}") from exc
        if k < 1:
            raise ConfigError(f"CIRCULAW_THREADS must be >= 1, got {k}")
        return k
    return os.cpu_count() or 1


def parallel_map(fn, items):
    """[fn(item) for item in items], on min(CIRCULAW_THREADS, len(items)) workers."""
    items = list(items)
    k = min(thread_count(), max(len(items), 1))
    with single_threaded_blas():
        if k == 1:
            return [fn(item) for item in items]
        results, failures = [None] * len(items), {}  # failing index -> its exception
        lock, handed, stopped = threading.Lock(), 0, False

        def work():
            nonlocal handed, stopped
            while True:
                with lock:
                    if stopped or handed == len(items):
                        return
                    i, handed = handed, handed + 1
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # an interrupt in a task, too
                    with lock:
                        failures[i], stopped = exc, True

        workers = [threading.Thread(target=work) for _ in range(k)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:  # after an interrupt in the caller, too: the items in flight finish
            with lock:
                stopped = True
            for worker in workers:
                if worker.is_alive():
                    worker.join()
        if failures:
            raise failures[min(failures)]
        return results
