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

`openblas()` is the one binding of that library: the thread count here, the
LU factorization and solve (`?getrf`, `?getrs`) behind
`linalg.certified_log_det`, and the Hermitian eigensolve (`?syevd`,
`?heevd`) behind `linalg.singular_values`. A ctypes call drops the GIL for
its whole length, where numpy's linalg keeps it for a single matrix of
n <= 500; so only through this binding do pool workers factor small
matrices at the same time.
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

_INT = ctypes.POINTER(ctypes.c_int64)  # LAPACK's 64-bit integers, passed by reference
_PTR = ctypes.c_void_p
_GETRF = ([_INT, _INT, _PTR, _INT, _PTR, _INT], None)  # m n a lda ipiv info
# trans n nrhs a lda ipiv b ldb info
_GETRS = ([ctypes.c_char_p, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT], None)
# jobz uplo n a lda w, then (work, lwork) [(rwork, lrwork)] (iwork, liwork), info
_SYEVD = ([ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _INT, _PTR] + [_PTR, _INT] * 2 + [_INT], None)
_HEEVD = ([ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _INT, _PTR] + [_PTR, _INT] * 3 + [_INT], None)

# role -> ((argtypes, restype) of each function, then one symbol tuple per naming,
# newest first); a role is bound from the first naming the library exports whole
_BLAS_SYMBOLS = {
    "threads": (
        (([], ctypes.c_int), ([ctypes.c_int], None)),
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ),
    "real_lu": (
        (_GETRF, _GETRS), ("scipy_dgetrf_64_", "scipy_dgetrs_64_"), ("dgetrf_64_", "dgetrs_64_")
    ),
    "complex_lu": (
        (_GETRF, _GETRS), ("scipy_zgetrf_64_", "scipy_zgetrs_64_"), ("zgetrf_64_", "zgetrs_64_")
    ),
    "real_evd": ((_SYEVD,), ("scipy_dsyevd_64_",), ("dsyevd_64_",)),
    "complex_evd": ((_HEEVD,), ("scipy_zheevd_64_",), ("zheevd_64_",)),
}

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
def openblas() -> dict:
    """{role: functions} bound from numpy's bundled OpenBLAS for each role of
    `_BLAS_SYMBOLS` it exports; empty when no such library loads. The library
    is opened once per process, on first use."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        bound = {}
        for role, (signatures, *namings) in _BLAS_SYMBOLS.items():
            for names in namings:
                functions = tuple(getattr(lib, name, None) for name in names)
                if None not in functions:
                    for fn, (argtypes, restype) in zip(functions, signatures):
                        fn.argtypes, fn.restype = argtypes, restype
                    bound[role] = functions
                    break
        return bound
    return {}


@contextmanager
def single_threaded_blas():
    """Hold OpenBLAS at one thread; the last of nested or concurrent holders restores it."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        api = openblas().get("threads")
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
