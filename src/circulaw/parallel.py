"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-trial functions; results are gathered in
trial order and reduced sequentially, so outputs are identical for any
worker count. CIRCULAW_THREADS caps the pool size.

Every linalg kernel holds numpy's bundled OpenBLAS at one thread
(`linalg.single_threaded_blas`) for its own call, so reports do not depend
on OPENBLAS_NUM_THREADS, and the pool's workers do not oversubscribe the
cores (CIRCULAW_THREADS=1 means one core). `parallel_map` also holds it for
the whole pool, for two reasons. The thread count changes once per pool
instead of twice per kernel call, with the caller's count restored when the
outermost `parallel_map` returns or raises. And each worker keeps one LU
scratch buffer (`linalg`) for all of its trials, as the buffers live until
the outermost hold ends. If no OpenBLAS library is found, BLAS threading is
left alone.
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
