"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-trial functions; results are gathered in
trial order and reduced sequentially, so outputs are identical for any
worker count. CIRCULAW_THREADS caps the pool size.

While `parallel_map` runs, numpy's bundled OpenBLAS is held at one thread
(`linalg.single_threaded_blas`), whatever the pool size (so
CIRCULAW_THREADS=1 means one core). Otherwise each worker's BLAS call would
start threads of its own and oversubscribe the cores; and OpenBLAS's threaded
kernels round differently from its serial ones, so reports would depend on
OPENBLAS_NUM_THREADS. The caller's BLAS thread count is restored when the
outermost `parallel_map` returns or raises. If no OpenBLAS library is found,
BLAS threading is left alone. Because the hold spans the pool, each worker
keeps one LU scratch buffer (`linalg`) for all of its trials, and the buffers
go when the pool's hold ends.
"""

from __future__ import annotations

import os
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
    items = list(items)
    k = min(thread_count(), max(len(items), 1))
    with single_threaded_blas():
        if k == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=k) as pool:
            return list(pool.map(fn, items))
