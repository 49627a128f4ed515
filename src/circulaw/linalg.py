"""Dense numerical kernels: diagonal shifts, Hermitization, spectra, subspace distances.

Singular values come from a Hermitian eigensolve of the n x n Gram matrix;
the 2n x 2n Hermitization is exposed for cross-checks but is not the
production path. Squaring loses half the digits at the bottom of the
spectrum: the Gram path gets each s_j^2 to about eps * s_1^2, so s_j to a
relative error of about eps * (s_1 / s_j)^2 (2e-4 at s_j = 1e-6 s_1).
Whenever s_n falls below 1e-6 times s_1, the whole spectrum is taken from an
SVD of the matrix itself instead, which gets every s_j to a few eps * s_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .ensemble import MatrixSample, draw_unit_disc
from .errors import DomainError, NumericError

_REFINE_RATIO = 1e-6


@dataclass
class ComplexSpectrum:
    """Eigenvalues sorted by (Re, Im)."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class SingularSpectrum:
    """Singular values sorted descending."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


def shift(sample: MatrixSample, z: complex) -> MatrixSample:
    """A - z I, the one diagonal shift; z = 0 returns `sample` itself."""
    z = complex(z)
    if z == 0:
        return sample
    dtype = np.complex128 if (z.imag != 0 or np.iscomplexobj(sample.entries)) else np.float64
    entries = sample.entries.astype(dtype, copy=True)
    idx = np.arange(sample.n)
    entries[idx, idx] -= z.real if dtype == np.float64 else z
    return MatrixSample(entries)


def smoothing_shift(sample: MatrixSample, r: float, stream: rng.Stream) -> MatrixSample:
    """A - r xi I, with one disc-uniform xi drawn from `stream` for the whole diagonal."""
    if r < 0:
        raise DomainError(f"smoothing radius must be >= 0, got {r}")
    return shift(sample, r * draw_unit_disc(stream))


def hermitize(sample: MatrixSample) -> np.ndarray:
    """2n x 2n Hermitian embedding [[0, A], [A*, 0]] of the (shifted) matrix."""
    a = sample.entries
    n = sample.n
    w = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    w[:n, n:] = a
    w[n:, :n] = a.conj().T
    return w


def singular_values(sample: MatrixSample) -> SingularSpectrum:
    """All singular values, sorted descending, from the Gram eigensolve (relative
    error ~eps (s_1/s_j)^2) or, when s_n < 1e-6 s_1, an SVD (error ~eps s_1)."""
    a = sample.entries
    if not np.all(np.isfinite(a.real)) or (np.iscomplexobj(a) and not np.all(np.isfinite(a.imag))):
        raise NumericError("matrix has non-finite entries")
    s = np.sqrt(np.clip(np.linalg.eigvalsh(a @ a.conj().T)[::-1], 0.0, None))
    if s[-1] < _REFINE_RATIO * s[0]:
        s = np.linalg.svd(a, compute_uv=False)
    fro_sq = float(np.sum(np.abs(a) ** 2))
    if fro_sq > 0 and abs(float(np.sum(s**2)) - fro_sq) > 1e-8 * fro_sq:
        raise NumericError("singular value computation inconsistent with Frobenius norm")
    return SingularSpectrum(s)


def eigenvalues(sample: MatrixSample) -> ComplexSpectrum:
    """All eigenvalues, sorted by (Re, Im) for reproducible reports."""
    a = sample.entries
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    vals = vals.astype(np.complex128)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    trace = complex(np.trace(a))
    if abs(complex(vals.sum()) - trace) > 1e-6 * sample.n * max(1.0, abs(trace)):
        raise NumericError("eigenvalue sum inconsistent with trace")
    return ComplexSpectrum(vals)


def smallest_singular_value(sample: MatrixSample) -> float:
    """s_n, as accurate as `singular_values`; exactly singular input gives <~ eps s_1."""
    return float(singular_values(sample).values[-1])


def operator_norm(sample: MatrixSample) -> float:
    """s_1."""
    return float(singular_values(sample).values[0])


def distance_to_span(columns, k: int) -> float:
    """Euclidean distance from column k to the span of the remaining columns.

    Accepts a 2D array whose columns are the vectors, or a sequence of 1D
    vectors. Rank deficiency among the other columns is handled by an SVD
    basis with the usual numerical rank cut.
    """
    if isinstance(columns, np.ndarray) and columns.ndim == 2:
        mat = columns
    else:
        mat = np.column_stack([np.asarray(c) for c in columns])
    n = mat.shape[1]
    if n < 2:
        raise DomainError("need at least two columns")
    if not 0 <= k < n:
        raise DomainError(f"column index {k} out of range")
    x = mat[:, k]
    others = np.delete(mat, k, axis=1)
    u, s, _ = np.linalg.svd(others, full_matrices=False)
    if s.size and s[0] > 0:
        rank = int(np.sum(s > s[0] * max(others.shape) * np.finfo(float).eps))
    else:
        rank = 0
    basis = u[:, :rank]
    residual = x - basis @ (basis.conj().T @ x)
    return float(np.linalg.norm(residual))
