"""Empirical distribution objects and distances.

EmpiricalCDF is a finite atomic measure on the line, with finite atoms; the
squared-singular-value law of a spectrum s is `EmpiricalCDF.from_values(s**2)`.
The operations build the empirical Stieltjes transform of the symmetrized
singular-value law (atoms at +-s_j), the radial and angular marginals of
eigenvalues, and truncated log-determinant averages; the Kolmogorov distance
compares an empirical law with a limit law's CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, EstimationError
from .linalg import LogDeterminant, Spectrum, truncation_window
from .textio import csv_text, write_text

_MASS_TOL = 1e-12  # how far rounding may take a total mass off 1, or a CDF value outside [0, 1]


@dataclass(frozen=True)
class EmpiricalCDF:
    """Atoms (sorted ascending, duplicates merged) with weights summing to 1; frozen, so
    no later binding of `xs` or `ws` leaves `_cum`, P[X < xs[i]] at i, stale."""

    xs: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=np.float64))
        object.__setattr__(self, "ws", np.asarray(self.ws, dtype=np.float64))
        if self.xs.ndim != 1 or self.xs.shape != self.ws.shape or len(self.xs) == 0:
            raise DomainError("need matching nonempty atom and weight vectors")
        if not np.all(np.isfinite(self.xs)):
            raise DomainError("atoms must be finite")
        if np.any(np.diff(self.xs) <= 0):
            raise DomainError("atoms must be strictly increasing")
        if not np.all(self.ws > 0):
            raise DomainError("weights must be positive")
        if abs(float(self.ws.sum()) - 1.0) > _MASS_TOL:
            raise DomainError("weights must sum to 1")
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(self.ws))))

    @classmethod
    def from_values(cls, values) -> "EmpiricalCDF":
        """The law of `values`, each of weight 1/len(values)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) == 0:
            raise DomainError("need at least one value")
        uniq, inverse = np.unique(values, return_inverse=True)
        weights = np.full(len(values), 1.0 / len(values))
        return cls(uniq, np.bincount(inverse, weights, minlength=len(uniq)))

    def evaluate(self, x):
        """Right-continuous CDF value(s) P[X <= x]; a NaN x raises DomainError."""
        return self._at(x, "right")

    def evaluate_left(self, x):
        """Left limit(s) P[X < x]; a NaN x raises DomainError."""
        return self._at(x, "left")

    def _at(self, x, side: str):
        if np.isnan(x).any():
            raise DomainError("a CDF is not defined at NaN")
        return self._cum[np.searchsorted(self.xs, x, side=side)]

    def to_csv(self, path) -> None:
        write_text(path, csv_text(["x", "weight"], zip(self.xs, self.ws)))


@dataclass
class PotentialEstimate:
    """Truncated mean of -(1/n) sum log s_j across trials."""

    value: float
    stderr: float
    trials: int
    truncation_count: int

    def __post_init__(self):
        if self.trials < 1 or self.stderr < 0 or self.truncation_count > self.trials:
            raise DomainError("inconsistent potential estimate fields")


def stieltjes_empirical(spectrum: Spectrum, alpha: complex) -> complex:
    """(1/2n) sum_j [ 1/(s_j - a) + 1/(-s_j - a) ] for Im a > 0."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and 0 < alpha.imag < math.inf):
        raise DomainError(f"alpha must be finite and lie in the upper half-plane, got {alpha}")
    s = np.asarray(spectrum.values)
    if s.size == 0:
        raise DomainError("the spectrum is empty")
    total = np.sum(1.0 / (s - alpha) + 1.0 / (-s - alpha))
    return complex(total / (2.0 * len(s)))


def ks_distance(f: EmpiricalCDF, g: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x |F - G| of the empirical F against the continuous CDF G: the sup is
    reached at F's atoms, on one side of a jump, so G is read there only and F on
    both sides of each (`_cum`, the values `evaluate` and `evaluate_left` give). A
    G value that is not finite, or lies outside [0, 1] by more than rounding,
    raises DomainError."""
    g_at = np.asarray(g(f.xs), dtype=np.float64)
    if not np.all((g_at >= -_MASS_TOL) & (g_at <= 1.0 + _MASS_TOL)):
        raise DomainError("a CDF evaluator must give finite values in [0, 1]")
    return float(max(np.abs(f._cum[1:] - g_at).max(), np.abs(f._cum[:-1] - g_at).max()))


def log_potential_empirical(
    spectra: Sequence[Union[Spectrum, LogDeterminant]],
    p_n: float,
    b_exponent: float = 3.0,
    c_cut: float = 1.0,
) -> PotentialEstimate:
    """Mean of -(1/n) sum_j log s_j over the trials passing the truncation filter.

    The trials are those of one shifted ensemble, all of dimension n, and
    p_n is that ensemble's sparsity. A trial enters only if
    s_n >= c_cut / n^b_exponent and s_1 <= n*sqrt(p_n) (`truncation_window`);
    the count of excluded trials is reported, and an estimate with every
    trial excluded is an error rather than a silent NaN. The standard error is
    the leave-one-out jackknife. A trial is a spectrum, filtered exactly, or a
    `LogDeterminant` whose certified bounds must lie inside the window: such
    bounds cannot exclude a trial, so one that misses the window is an error.
    """
    spectra = list(spectra)
    if not spectra:
        raise DomainError("need at least one spectrum")
    n = spectra[0].n
    if any(sp.n != n for sp in spectra):
        raise DomainError("all spectra must share one dimension")
    floor, ceiling = truncation_window(n, p_n, b_exponent, c_cut)
    values = []
    excluded = 0
    for sp in spectra:
        if isinstance(sp, LogDeterminant):
            if not (sp.lower >= floor and sp.upper <= ceiling):
                raise DomainError("a certified log-determinant must clear the truncation window")
            values.append(-sp.value / n)
            continue
        s = np.asarray(sp.values)
        if s[-1] >= floor and s[0] <= ceiling:
            values.append(-float(np.sum(np.log(s))) / n)
        else:
            excluded += 1
    if not values:
        raise EstimationError(f"all {len(spectra)} trials excluded by the truncation filter")
    values = np.array(values)
    mean = float(values.mean())
    m = len(values)
    if m > 1:
        loo = (values.sum() - values) / (m - 1)
        stderr = float(math.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))
    else:
        stderr = 0.0
    return PotentialEstimate(mean, stderr, len(spectra), excluded)


def radial_angular_cdfs(spectrum: Spectrum):
    """(CDF of |lambda|^2, CDF of arg(lambda)/2pi with arg in [0, 2pi))."""
    vals = np.asarray(spectrum.values)
    radial = EmpiricalCDF.from_values(np.abs(vals) ** 2)
    angles = np.angle(vals)
    angles = np.where(angles < 0, angles + 2.0 * np.pi, angles)
    angular = EmpiricalCDF.from_values(angles / (2.0 * np.pi))
    return radial, angular
