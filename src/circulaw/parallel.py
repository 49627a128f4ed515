"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-trial functions; results are gathered in
trial order and reduced sequentially, so outputs are identical for any
worker count. CIRCULAW_THREADS caps the pool size.

While `parallel_map` runs, numpy's bundled OpenBLAS is held at one thread,
whatever the pool size (so CIRCULAW_THREADS=1 means one core). Otherwise each
worker's BLAS call would start threads of its own and oversubscribe the
cores; and OpenBLAS's threaded kernels round differently from its serial
ones, so reports would depend on OPENBLAS_NUM_THREADS. The caller's BLAS
thread count is restored when the outermost `parallel_map` returns or raises.
If no OpenBLAS library is found, BLAS threading is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError

# (get, set) symbol pairs, newest naming first
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

# OpenBLAS's thread count is process-wide, so the hold on it is too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


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


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get_fn = getattr(lib, get_name, None)
            set_fn = getattr(lib, set_name, None)
            if get_fn is not None and set_fn is not None:
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                return get_fn, set_fn
    return None


@contextmanager
def single_threaded_blas():
    """Hold OpenBLAS at one thread; the last of nested or concurrent holders restores it."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        api = _openblas_threads()
        if api is not None:
            if _blas_depth == 0:
                _blas_saved = api[0]()
                api[1](1)
            _blas_depth += 1
    try:
        yield
    finally:
        if api is not None:
            with _blas_lock:
                _blas_depth -= 1
                if _blas_depth == 0:
                    api[1](_blas_saved)


def parallel_map(fn, items):
    items = list(items)
    k = min(thread_count(), max(len(items), 1))
    with single_threaded_blas():
        if k == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=k) as pool:
            return list(pool.map(fn, items))
