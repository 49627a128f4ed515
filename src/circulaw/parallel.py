"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-task functions; results are gathered in item
order and reduced sequentially, so outputs are identical for any worker
count. CIRCULAW_THREADS caps the pool size. Every campaign hands the pool all
of its (z, n, trial) tasks at once (MinSv through one
`invertibility.min_sv_tail` call), so it waits for its slowest worker once,
not once per shift or dimension.

`parallel_map` runs the items on a ThreadPoolExecutor of min(k, len(items))
threads and gathers them with its `map`, in item order. The first failure
stops the hand-out: an item that starts after it returns at once without
running. The items already running finish, and the exception of the lowest
failing index is raised. An exception in the caller, such as an interrupt,
stops the hand-out in the same way before the pool shuts down.

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
from concurrent.futures import ThreadPoolExecutor

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
        failed = threading.Event()

        def guarded(item):
            if failed.is_set():  # a lower item or the caller raised, and that is what propagates
                return None
            try:
                return fn(item)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=k) as pool:
            try:
                return list(pool.map(guarded, items))
            except BaseException:  # an interrupt, even while the items are handed in
                failed.set()
                raise
