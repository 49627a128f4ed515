"""Run metadata: thread counts, library versions and the source commit."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _openblas():
    """numpy's bundled scipy-openblas library, or None if numpy links another BLAS."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(glob.glob(str(libs / "libscipy_openblas64_*")))
    return ctypes.CDLL(found[0]) if found else None


def blas_info():
    """(BLAS thread count, OpenBLAS config string); (0, "unknown") if unavailable."""
    lib = _openblas()
    if lib is None:
        return 0, "unknown"
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return int(get_threads()), get_config().decode("ascii", "replace").strip()


def process_info():
    """Metadata read inside a campaign process, after circulaw is imported."""
    import numpy
    from circulaw import parallel

    blas_threads, openblas = blas_info()
    return {
        "nproc": os.cpu_count(),
        "workers": parallel.thread_count(),
        "blas_threads": blas_threads,
        "numpy": numpy.__version__,
        "openblas": openblas,
        "python": platform.python_version(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
