"""Dense numerical kernels: diagonal shifts, Hermitization, spectra, s_n threshold tests.

Eigenvalues and singular values both come back as a `Spectrum`: the values
and their count n. Singular values come from a Hermitian eigensolve of the
n x n Gram matrix; the 2n x 2n Hermitization is exposed for cross-checks but
is not the production path. That eigensolve is LAPACK syevd/heevd from numpy's
bundled OpenBLAS (`openblas`), the routine `eigvalsh` calls, with its
bits on one BLAS thread; unlike `eigvalsh`, which keeps the GIL for a single
matrix of n <= 500, the call drops the GIL, so small trials run in parallel.
Squaring loses half the digits at the bottom of the spectrum: the Gram path
gets each s_j^2 to about eps * s_1^2, so s_j to a relative error of about
eps * (s_1 / s_j)^2 (2e-4 at s_j = 1e-6 s_1). Whenever s_n falls below
1e-6 times s_1, the whole spectrum is taken from an SVD of the matrix itself
instead, which gets every s_j to a few eps * s_1.

Where s_n is only compared with a few thresholds, no spectrum is needed: s_n > t
exactly when the Gram matrix less t^2 I is positive definite (Sylvester's law
of inertia). `thresholds_below_sn` forms the Gram product once, as
`singular_values` does, and binary-searches the thresholds with one LAPACK
potrf of the same library per tested t, `cholesky` only without it. Its
decision is the one the Gram spectrum would give: exact whenever |s_n/t - 1|
exceeds about eps * (s_1 / t)^2. It does not decide at t < 1e-6 ||A||_F,
where the Gram path would not either, nor when that norm, widened, cannot
certify s_1 below the caller's ceiling; the caller takes `singular_values`.

The log-potential needs only sum_j log s_j = log|det A| and the knowledge
that s_n and s_1 lie in a truncation window. `certified_log_det` takes the
sample S and the diagonal shifts, forms A = S - z_1 I - ... in a buffer of
its own, factors it there once (LAPACK getrf from numpy's bundled OpenBLAS,
`openblas`) and takes both from that LU: the first as sum_i log|u_ii|, and
the second without the spectrum: s_1 <= ||A||_F, and s_n from k = 10 keyed
Gaussian probes solved on the same factors (getrs; Dixon's bound), which is
wrong with probability at most 10^-10. The probes' residual W - A X is
evaluated from S and A's diagonal, as W - S X + diag(S - A) X, and its
rounding bound is widened by that diagonal term. The bits of A, of its LU
and of the value are those of `shift`, `slogdet` and `solve` on one BLAS
thread; those two, at one LU each, are only the fallback when no library
is found.
LU is backward stable: the value is log|det(A + dA)| with ||dA|| about
n eps ||A||, so by Weyl it is off by about n^2 eps s_1 / s_n at most, which
the certified bounds make explicit. When any check does not clear, the
caller takes the exact path through `singular_values`.

This module is circulaw's one binding of numpy's bundled OpenBLAS, and the
only module that forms a BLAS product or calls `np.linalg`. `openblas` opens
the library once, on first use; a symbol is `scipy_<name>` (numpy >= 2) or
`<name>` (numpy 1.26). `single_threaded_blas` holds its thread count at one:
each public kernel that reaches BLAS or LAPACK enters it once, as its
decorator, so it has the serial kernels' bits however it is called, and the
private helpers run inside their caller's hold. `_lapack_call` is the one
way a LAPACK routine is called: an illegal argument (info < 0) raises
NumericError, and info > 0 goes back to the caller. `_lapack_solve` is the
one way a routine that takes a workspace (syevd/heevd, geev) is called: it
asks LAPACK for the workspace size, allocates it, makes the call and raises
NumericError on info > 0.
Eigenvalues come from LAPACK geev of the same library, with the bits of
`eigvals` on one BLAS thread and the GIL released at every n, as for the
Gram eigensolve. Where numpy ships no OpenBLAS of its own (wheels on
Accelerate, conda and distro builds), numpy's `eigvalsh`, `eigvals`,
`slogdet` and `solve` run instead.

Who owns which buffer. Every `MatrixSample` is column-major, the layout
LAPACK reads, and `shift` keeps it so. The caller's sample is only read, by
every kernel, with one exception the caller asks for:
`eigenvalues(sample, overwrite=True)` on a writeable sample runs geev in the
sample's own buffer, so an eigenvalue trial holds one n x n matrix, not the
sample and its copy; the sample is then spent.
Every other buffer belongs to the call that makes it and goes when the call
returns; no kernel keeps one between calls. `certified_log_det` forms the
shifted matrix in one column-major n x n buffer, and its LU overwrites it
there, so a certificate's trial holds one sample and that buffer.
`thresholds_below_sn` holds its Gram product and, while it tests a
threshold, one buffer in which the shifted Gram matrix is factored.
`singular_values` owns its Gram product, and `_eigvalsh` solves a real one
in place.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import rng
from .ensemble import EntryDistribution, MatrixSample, draw_rows, draw_unit_disc
from .errors import DomainError, NumericError

_REFINE_RATIO = 1e-6
_PROBES = 10  # Gaussian probes per certificate: it fails with probability <= 10^-_PROBES
_DIXON = 10.0 * math.sqrt(2.0 / math.pi)
_EPS = float(np.finfo(np.float64).eps)
_PROBE_LAW = {False: EntryDistribution("RealGaussian"), True: EntryDistribution("ComplexGaussian")}

_CHAR, _INT, _PTR = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
# argument types of each LAPACK routine called, without the trailing info
_ARGTYPES = {
    "getrf": [_INT, _INT, _PTR, _INT, _PTR],  # m n a lda ipiv
    "getrs": [_CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT],  # trans n nrhs a lda ipiv b ldb
    "potrf": [_CHAR, _INT, _PTR, _INT],  # uplo n a lda
    # jobz uplo n a lda w, then (work, lwork) [(rwork, lrwork)] (iwork, liwork)
    "syevd": [_CHAR, _CHAR, _INT, _PTR, _INT, _PTR] + [_PTR, _INT] * 2,
    "heevd": [_CHAR, _CHAR, _INT, _PTR, _INT, _PTR] + [_PTR, _INT] * 3,
    # jobvl jobvr n a lda, then wr wi (d) or w (z), vl ldvl vr ldvr work lwork [rwork (z)]
    "dgeev": [_CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _PTR] + [_PTR, _INT] * 3,
    "zgeev": [_CHAR, _CHAR, _INT, _PTR, _INT, _PTR] + [_PTR, _INT] * 3 + [_PTR],
}

# OpenBLAS's thread count is process-wide, so the hold on it is too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_restore = None  # restores the count of the outermost hold, if it set one


@functools.lru_cache(maxsize=None)
def openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, opened once per process on first use; None if numpy ships none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _symbol(name: str):
    """OpenBLAS's `scipy_<name>`, else its `<name>`; None if neither or no library is found."""
    lib = openblas()
    return getattr(lib, "scipy_" + name, None) or getattr(lib, name, None)


def _lapack(routine: str):
    """LAPACK `routine` ('dgetrf', 'zheevd', ...) of 64-bit integers, typed; None if not found."""
    fn = _symbol(routine + "_64_")
    if fn is not None and fn.argtypes is None:  # typed on first use
        fn.argtypes = _ARGTYPES.get(routine, _ARGTYPES.get(routine[1:])) + [_INT]
        fn.restype = None
    return fn


def _lapack_call(fn, *args) -> int:
    """fn(*args, info), each int passed as LAPACK's 64-bit integer and each array by
    address. info < 0 (an illegal argument) raises NumericError; any other info is returned."""
    info = ctypes.c_int64()
    as_c = (a.ctypes.data if isinstance(a, np.ndarray) else ctypes.c_int64(a) if isinstance(a, int)
            else a for a in args)
    fn(*as_c, info)
    if info.value < 0:
        raise NumericError(f"LAPACK {fn.__name__} rejected argument {-info.value}")
    return info.value


def _lapack_solve(fn, what: str, head, kinds, tail=()) -> None:
    """fn(*head, (work, lwork) for each dtype in `kinds`, *tail) at the workspace sizes
    LAPACK's lwork = -1 query asks for, as numpy calls these routines; info > 0 raises
    NumericError("<what> did not converge (LAPACK info <info>)")."""

    def call(buffers, sizes):
        pairs = (arg for b, k in zip(buffers, sizes) for arg in (b, k))
        return _lapack_call(fn, *head, *pairs, *tail)

    query = [np.zeros(1, kind) for kind in kinds]
    call(query, [-1] * len(kinds))
    work = [np.empty(int(q[0].real), kind) for q, kind in zip(query, kinds)]
    info = call(work, map(len, work))
    if info > 0:
        raise NumericError(f"{what} did not converge (LAPACK info {info})")


@contextmanager
def single_threaded_blas():
    """Hold OpenBLAS at one thread; the last of nested or concurrent holders restores
    it. Only the outermost hold looks the library's thread count up."""
    global _blas_depth, _blas_restore
    with _blas_lock:
        if _blas_depth == 0:
            get, put = (_symbol(f"openblas_{op}_num_threads64_") for op in ("get", "set"))
            _blas_restore = None if None in (get, put) else functools.partial(put, get())
            if _blas_restore is not None:
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and _blas_restore is not None:
                _blas_restore()


@dataclass
class Spectrum:
    """Eigenvalues sorted by (Re, Im), or singular values sorted descending."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class LogDeterminant:
    """log|det A| of an n x n matrix, with certified bounds lower <= s_n and s_1 <= upper."""

    value: float
    lower: float
    upper: float
    n: int


def truncation_window(n: int, p_n: float, b_exponent: float = 3.0, c_cut: float = 1.0):
    """(floor, ceiling) = (c_cut / n^b_exponent, n sqrt(p_n)): a trial enters the
    log-potential average only if floor <= s_n and s_1 <= ceiling. DomainError unless
    n >= 1, 0 < p_n <= 1, b_exponent is finite and the floor a positive finite float."""
    try:  # n^b_exponent may overflow or underflow to 0, and a huge n leave the floats
        floor = c_cut / float(n) ** b_exponent if n >= 1 and 0 < p_n <= 1 else math.nan
    except (OverflowError, ZeroDivisionError):
        floor = math.nan
    if not (math.isfinite(b_exponent) and 0 < floor < math.inf):  # NaN fails too
        raise DomainError(f"the truncation window needs n >= 1, 0 < p_n <= 1, a finite "
                          f"b_exponent, 0 < c_cut < inf and a positive finite floor c_cut / "
                          f"n^b_exponent, got n={n}, p_n={p_n}, b_exponent={b_exponent}, "
                          f"c_cut={c_cut}")
    return floor, n * math.sqrt(p_n)


def _rounded_norm(a: np.ndarray) -> float:
    """||A||_F as rounded; non-finite entries or an overflowing norm raise NumericError."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        raise NumericError("matrix has non-finite entries or an overflowing norm")
    return fro


def _s1_bound(fro: float, n: int) -> float:
    """s_1 <= ||A||_F <= `fro` (1 + (n^2 + 1) eps) for the rounded norm `fro` of an
    n x n A: 2n^2 squares and a root round it down by at most (n^2 + 1) eps / 2."""
    return fro * (1.0 + (n * n + 1) * _EPS)


@single_threaded_blas()
def frobenius_norm(sample: MatrixSample) -> float:
    """An upper bound on s_1: ||A||_F widened by its rounding (`_s1_bound`).
    Non-finite entries, or finite ones whose norm overflows, raise NumericError."""
    return _s1_bound(_rounded_norm(sample.entries), sample.n)


@single_threaded_blas()
def certified_log_det(
    sample: MatrixSample, floor: float, ceiling: float, seed: int, trial_index: int,
    shifts: Sequence[complex] = (),
) -> Optional[LogDeterminant]:
    """log|det A| of A = S - z_1 I - z_2 I - ..., the sample S shifted by `shifts`
    as `shift` does it, from one LU of A, if floor <= s_n and s_1 <= ceiling are
    certified for A; else None.

    A is formed once, in a column-major buffer that the call allocates and drops
    (`_shifted`): S is cast into it and each shift subtracted from its diagonal
    in `shift`'s order, so A, its LU and every result below have the bits of the
    call on `shift(sample, *shifts)`; S itself is only read.
    Ceiling: s_1 <= ||A||_F, taken from that buffer before the LU and widened by
    its own rounding (`_s1_bound`). Floor: with k = 10
    Gaussian probes w_i keyed by (seed, ROLE_PROBE, trial_index) and X = A^-1 W,
    solved on the same LU, ||A^-1|| <= 10 sqrt(2/pi) max_i ||A^-1 w_i|| except
    with probability 10^-k (Dixon 1983; Halko, Martinsson & Tropp 2011,
    Lemma 4.1). The probes are N(0, 1) for real A. For complex A they are
    complex of unit variance, i.e. a standard Gaussian of the real 2n-embedding
    divided by sqrt(2), so the bound carries that sqrt(2). The LU has
    overwritten A by then, so the solve residual is taken from S and A's
    diagonal, R = W - S X + diag(S - A) X; for a real S and complex X, S X is
    one real product on X's interleaved real and imaginary columns. R, widened
    by its own rounding, which the diagonal term enlarges, enters as
    ||A^-1 w_i|| <= ||x_i|| + ||A^-1|| ||r_i||; a residual that costs more
    than half the bound returns None, as do an exactly singular U and a bound
    that does not clear the window. Non-finite entries raise NumericError. The
    value is accurate to about n^2 eps upper / lower (module docstring).
    """
    s = sample.entries
    n = sample.n
    a = _shifted(s, *_shift_plan(s, shifts))
    upper = _s1_bound(_rounded_norm(a), n)
    if not upper <= ceiling:
        return None
    is_complex = np.iscomplexobj(a)
    probes = draw_rows(_PROBE_LAW[is_complex], seed, rng.ROLE_PROBE, trial_index, range(n),
                       _PROBES)
    d = np.diagonal(s) - a.diagonal()  # A = S - diag(d), kept before the LU overwrites A
    factored = _log_det_and_solve(a, probes)
    if factored is None:
        return None
    value, x = factored
    dixon = _DIXON * (math.sqrt(2.0) if is_complex else 1.0)
    with np.errstate(all="ignore"):  # a non-finite x or residual fails the tests below
        if is_complex and not np.iscomplexobj(s):
            sx = (s @ x.view(np.float64)).view(np.complex128)
        else:
            sx = s @ x
        residual = probes - sx
        residual += d[:, None] * x
        # S X rounds with |S| <= |A| + |diag(d)|, and d X and its sum add a few
        # roundings of |d| |X|: the 2 max|d| term covers both
        x_norm = np.linalg.norm(x, axis=0)
        scale = upper + 2.0 * float(np.max(np.abs(d)))
        slack = (n + 1) * _EPS * (np.linalg.norm(probes, axis=0) + scale * x_norm)
        rho = dixon * float(np.max(np.linalg.norm(residual, axis=0) + slack))
        lower = (1.0 - rho) / (dixon * float(np.max(x_norm)))
    if not (rho <= 0.5 and lower >= floor):
        return None
    return LogDeterminant(value, lower, upper, n)


def _log_det_and_solve(a: np.ndarray, b: np.ndarray):
    """(log|det A|, A^-1 B) from one LU of the column-major A, or None if A is
    exactly singular. The LU overwrites A (in `certified_log_det`, its own buffer).

    getrf and getrs run on OpenBLAS's serial kernels over A, in the layout
    numpy hands LAPACK, and the log sums log|u_ii| in diagonal order as
    `slogdet` does; so both results have the bits of `slogdet` and `solve` on
    one BLAS thread. Without the library, those two run instead, at two LUs,
    and leave A as it was. A^-1 B comes back C-contiguous.
    """
    assert a.flags.f_contiguous, "LAPACK factors a column-major A"
    is_complex = np.iscomplexobj(a)
    kind = "z" if is_complex else "d"
    getrf, getrs = _lapack(kind + "getrf"), _lapack(kind + "getrs")
    if getrf is None or getrs is None:
        sign, value = np.linalg.slogdet(a)
        if sign == 0:
            return None
        with np.errstate(all="ignore"):
            return float(value), np.ascontiguousarray(np.linalg.solve(a, b))
    n = len(a)
    x = np.array(b, dtype=a.dtype, order="F")
    pivots = np.empty(n, dtype=np.int64)
    if _lapack_call(getrf, n, n, a, n, pivots) > 0:
        return None
    _lapack_call(getrs, b"N", n, x.shape[1], a, n, pivots, x, n)
    value = 0.0
    for u in a.diagonal().tolist():
        value += math.log(abs(u))
    return value, np.ascontiguousarray(x)


def _shift_plan(entries: np.ndarray, shifts):
    """The nonzero shifts, as complex, and the dtype of `entries` shifted by them:
    complex128 if either is complex, else float64."""
    shifts = [z for z in map(complex, shifts) if z != 0]
    is_complex = np.iscomplexobj(entries) or any(z.imag != 0 for z in shifts)
    return shifts, np.complex128 if is_complex else np.float64


def _shifted(entries: np.ndarray, shifts, dtype) -> np.ndarray:
    """entries - z_1 I - z_2 I - ..., in a new column-major buffer of `dtype`:
    `entries` cast into it, then each z_i subtracted from its diagonal, a strided
    view, in turn (its real part if `dtype` is real)."""
    out = np.empty(entries.shape, dtype, order="F")
    np.copyto(out, entries)
    diagonal = out.ravel(order="K")[:: len(out) + 1]
    is_complex = np.iscomplexobj(out)
    for z in shifts:
        diagonal -= z if is_complex else z.real
    return out


def shift(sample: MatrixSample, *shifts: complex) -> MatrixSample:
    """A - z_1 I - z_2 I - ..., the one diagonal shift: each nonzero z_i is
    subtracted from the diagonal in turn, on one copy, with the bits of one
    shift after another; if every z_i is 0, `sample` itself comes back."""
    shifts, dtype = _shift_plan(sample.entries, shifts)
    if not shifts:
        return sample
    return MatrixSample(_shifted(sample.entries, shifts, dtype))


def smoothing_shift(
    sample: MatrixSample, r: float, stream: rng.Stream, z: complex = 0
) -> MatrixSample:
    """A - r xi I - z I, with one disc-uniform xi drawn from `stream` for the whole diagonal."""
    if not 0.0 <= r < math.inf:
        raise DomainError(f"smoothing radius must be finite and >= 0, got {r}")
    return shift(sample, r * draw_unit_disc(stream), z)


def hermitize(sample: MatrixSample) -> np.ndarray:
    """2n x 2n Hermitian embedding [[0, A], [A*, 0]] of the (shifted) matrix."""
    a = sample.entries
    n = sample.n
    w = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    w[:n, n:] = a
    w[n:, :n] = a.conj().T
    return w


@single_threaded_blas()
def singular_values(sample: MatrixSample) -> Spectrum:
    """All singular values, sorted descending, from the Gram eigensolve (relative
    error ~eps (s_1/s_j)^2) or, when s_n < 1e-6 s_1, an SVD (error ~eps s_1).
    Non-finite entries, or finite ones whose norm overflows, raise NumericError,
    as do an eigensolve or SVD that does not converge and a spectrum whose
    squares do not sum to ||A||_F^2."""
    a = sample.entries
    fro = _rounded_norm(a)  # unwidened: at n = 1e4 the widening alone is 2.2e-8 of fro_sq
    fro_sq = fro * fro  # inf, not OverflowError, if ||A||_F^2 rounds past the float range
    s = np.sqrt(np.clip(_eigvalsh(a @ a.conj().T)[::-1], 0.0, None))
    if s[-1] < _REFINE_RATIO * s[0]:
        try:
            s = np.linalg.svd(a, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed: {exc}") from exc
    if fro_sq > 0 and abs(float(np.sum(s**2)) - fro_sq) > 1e-8 * fro_sq:
        raise NumericError("singular value computation inconsistent with Frobenius norm")
    return Spectrum(s)


@single_threaded_blas()
def thresholds_below_sn(sample: MatrixSample, thresholds: np.ndarray,
                        ceiling: float) -> Optional[int]:
    """How many of the ascending `thresholds` lie below s_n, decided without a
    spectrum; None, for the caller to take `singular_values`, if the bound on s_1
    of `frobenius_norm` exceeds `ceiling` or the search must test a t below
    1e-6 ||A||_F, where the Gram path cannot decide: one rounded norm serves
    both. A NaN threshold, or one below its predecessor, raises DomainError;
    equal neighbours are legal.

    By Sylvester's law of inertia, s_n > t exactly when G - t^2 I is positive
    definite, with G = A A^* formed once, as `singular_values` forms it. A binary
    search tests at most ceil(log2(k + 1)) of the k thresholds: each test casts G
    into a new column-major buffer, subtracts t^2 from its diagonal and factors
    the lower triangle there by potrf, whose info = 0 means definite; the buffer
    goes with the test, so the call holds G and one factor at a time.
    Without the library, `cholesky` raising LinAlgError means not definite. The
    decision is that of G's rounded spectrum, as the Gram eigensolve sees it: it
    is exact whenever |s_n / t - 1| exceeds about eps (s_1 / t)^2. Non-finite
    entries, or finite ones whose norm overflows, raise NumericError.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if np.isnan(thresholds).any() or np.any(thresholds[1:] < thresholds[:-1]):
        raise DomainError("thresholds must be ascending and not NaN")
    a = sample.entries
    fro = _rounded_norm(a)
    if not _s1_bound(fro, sample.n) <= ceiling:
        return None
    g = a @ a.conj().T
    lo, hi = 0, len(thresholds)
    while lo < hi:
        mid = (lo + hi) // 2
        t = float(thresholds[mid])
        if t < _REFINE_RATIO * fro:
            return None
        if _definite(g, t * t):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _definite(g: np.ndarray, offset: float) -> bool:
    """Whether the Hermitian g - offset I, read from its lower triangle, is positive
    definite: potrf of it in a buffer of this call's own (`_shifted`), which it
    overwrites; a real g, exactly symmetric (`_eigvalsh`), is copied as its
    column-major g.T."""
    w = _shifted(g if np.iscomplexobj(g) else g.T, [offset], g.dtype)
    potrf = _lapack("zpotrf" if np.iscomplexobj(w) else "dpotrf")
    if potrf is None:
        try:
            np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            return False
        return True
    return _lapack_call(potrf, b"L", len(w), w, len(w)) == 0


def _eigvalsh(g: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian g, which the call may overwrite.

    syevd/heevd (jobz 'N') run on OpenBLAS's serial kernels at the workspace
    size LAPACK asks for, as numpy's `eigvalsh` calls them; so the result has
    `eigvalsh`'s bits on one BLAS thread, and the GIL is free while it runs. A
    real g must be exactly symmetric, as numpy's `a @ a.T` is (syrk, then the
    triangle mirrored): its C buffer is then its column-major layout too, and
    syevd runs in place on it. A complex g, which gemm makes Hermitian only to
    rounding, is copied column-major first and read from its lower triangle,
    as `eigvalsh` reads it. Without the library, `eigvalsh` runs instead. An
    eigensolve that does not converge raises NumericError.
    """
    is_complex = np.iscomplexobj(g)
    evd = _lapack("zheevd" if is_complex else "dsyevd")
    if evd is None:
        try:
            return np.linalg.eigvalsh(g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Gram eigensolve failed: {exc}") from exc
    if is_complex:
        a = np.array(g, dtype=np.complex128, order="F")
    else:
        a = np.asfortranarray(g.T, dtype=np.float64)  # g's own buffer if C-contiguous
    w = np.empty(len(a))
    kinds = (a.dtype, np.float64, np.int64) if is_complex else (a.dtype, np.int64)
    _lapack_solve(evd, "Gram eigensolve", (b"N", b"L", len(a), a, len(a), w), kinds)
    return w


@single_threaded_blas()
def eigenvalues(sample: MatrixSample, overwrite: bool = False) -> Spectrum:
    """All eigenvalues, sorted by (Re, Im) for reproducible reports, with the bits
    of `eigvals` on one BLAS thread, so they do not depend on OPENBLAS_NUM_THREADS.

    The sample is only read, unless `overwrite` is set and its entries are
    writeable: then geev works in that column-major buffer, which holds no
    eigenvalue data afterwards, and the trial holds no second n x n matrix.
    Otherwise the sample is copied first, as `eigvals` copies it. The trace for
    the check below is taken before the solve.
    Non-finite entries, an iteration that does not converge and a spectrum
    whose sum is not the trace raise NumericError."""
    a = sample.entries
    trace = complex(np.trace(a))
    vals = _eigvals(a, overwrite)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if abs(complex(vals.sum()) - trace) > 1e-6 * sample.n * max(1.0, abs(trace)):
        raise NumericError("eigenvalue sum inconsistent with trace")
    return Spectrum(vals)


def _eigvals(a: np.ndarray, overwrite: bool) -> np.ndarray:
    """Eigenvalues of a sample's entries `a`, as complex128 in LAPACK's order; with
    `overwrite`, a writeable `a` is the solve's buffer.

    `a` is a `MatrixSample`'s: nonempty, square, column-major, float64 or complex128.
    dgeev/zgeev (jobvl = jobvr = 'N') run on OpenBLAS's serial kernels over the
    column-major layout numpy hands LAPACK, at the workspace size LAPACK asks
    for, as numpy's `eigvals` calls them; so the result has `eigvals`'s bits on
    one BLAS thread, and the GIL is free while it runs (`eigvals` keeps it for
    one matrix of n <= 500). As there, a real spectrum with no imaginary part
    other than 0 comes back with +0.0 imaginary parts. Without the library,
    `eigvals` runs instead, and `a` is only read.
    """
    is_complex = np.iscomplexobj(a)
    geev = _lapack("zgeev" if is_complex else "dgeev")
    if geev is None:
        try:
            return np.linalg.eigvals(a).astype(np.complex128)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    if not np.isfinite(a).all():
        raise NumericError("eigenvalue iteration failed: matrix has non-finite entries")
    n = len(a)
    f = a if overwrite and a.flags.writeable else np.array(a, order="F")
    vals = np.zeros(n, np.complex128)
    wr, wi = np.empty(n), np.empty(n)
    no_vectors = np.empty(1, a.dtype)
    # jobvl jobvr n a lda, the eigenvalues, vl ldvl vr ldvr (not referenced); rwork (z) last
    head = (b"N", b"N", n, f, n, *((vals,) if is_complex else (wr, wi)),
            no_vectors, 1, no_vectors, 1)
    tail = (np.empty(2 * n),) if is_complex else ()
    _lapack_solve(geev, "eigenvalue iteration", head, (a.dtype,), tail)
    if not is_complex:
        vals.real = wr
        if wi.any():  # else +0.0, as `eigvals` drops an all-zero imaginary part
            vals.imag = wi
    return vals
