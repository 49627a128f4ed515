"""Empirical distribution objects and distances.

EmpiricalCDF is a finite atomic measure on the line; the operations build
the squared-singular-value law, its symmetrization on +-sqrt(x), the
empirical Stieltjes transform of the symmetrized law, Kolmogorov distances
against arbitrary CDF evaluators, and truncated log-determinant averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, EstimationError
from .linalg import ComplexSpectrum, SingularSpectrum
from .textio import csv_text, write_text


@dataclass
class EmpiricalCDF:
    """Atoms (sorted ascending, duplicates merged) with weights summing to 1."""

    xs: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ws = np.asarray(self.ws, dtype=np.float64)
        if self.xs.ndim != 1 or self.xs.shape != self.ws.shape or len(self.xs) == 0:
            raise DomainError("need matching nonempty atom and weight vectors")
        if np.any(np.diff(self.xs) <= 0):
            raise DomainError("atoms must be strictly increasing")
        if np.any(self.ws <= 0):
            raise DomainError("weights must be positive")
        if abs(float(self.ws.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")
        self._cum = np.concatenate(([0.0], np.cumsum(self.ws)))  # P[X < xs[i]] at i

    @classmethod
    def from_values(cls, values, weights=None) -> "EmpiricalCDF":
        values = np.asarray(values, dtype=np.float64).ravel()
        if weights is None:
            weights = np.full(len(values), 1.0 / len(values))
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
        uniq, inverse = np.unique(values, return_inverse=True)
        return cls(uniq, np.bincount(inverse, weights, minlength=len(uniq)))

    def evaluate(self, x):
        """Right-continuous CDF value(s) P[X <= x]."""
        return self._cum[np.searchsorted(self.xs, x, side="right")]

    def evaluate_left(self, x):
        """Left limit(s) P[X < x]."""
        return self._cum[np.searchsorted(self.xs, x, side="left")]

    def mean(self) -> float:
        return float(np.dot(self.xs, self.ws))

    def to_csv(self, path) -> None:
        write_text(path, csv_text(["x", "weight"], zip(self.xs, self.ws)))

    @classmethod
    def from_csv(cls, path) -> "EmpiricalCDF":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != "x,weight":
            raise DomainError(f"{path}: expected header 'x,weight'")
        xs, ws = [], []
        for ln in lines[1:]:
            sx, sw = ln.split(",")
            xs.append(float(sx))
            ws.append(float(sw))
        return cls(np.array(xs), np.array(ws))


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


def sv_squared_cdf(spectrum: SingularSpectrum) -> EmpiricalCDF:
    """Law of the squared singular values, one atom of weight 1/n each."""
    return EmpiricalCDF.from_values(np.asarray(spectrum.values) ** 2)


def symmetrize(f: EmpiricalCDF) -> EmpiricalCDF:
    """Push forward to +-sqrt(x) with half weight on each sign (atom at 0 stays)."""
    if f.xs[0] < 0:
        raise DomainError("symmetrize requires support on [0, inf)")
    roots = np.sqrt(f.xs)
    pos = roots > 0
    half = 0.5 * f.ws
    xs = np.concatenate([-roots[pos][::-1], np.where(pos, roots, 0.0)])
    ws = np.concatenate([half[pos][::-1], np.where(pos, half, f.ws)])
    return EmpiricalCDF(xs, ws)


def stieltjes_empirical(spectrum: SingularSpectrum, alpha: complex) -> complex:
    """(1/2n) sum_j [ 1/(s_j - a) + 1/(-s_j - a) ] for Im a > 0."""
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise DomainError("alpha must lie in the upper half-plane")
    s = np.asarray(spectrum.values)
    total = np.sum(1.0 / (s - alpha) + 1.0 / (-s - alpha))
    return complex(total / (2.0 * len(s)))


CdfEvaluator = Union[EmpiricalCDF, Callable[[np.ndarray], np.ndarray]]


def ks_distance(f: EmpiricalCDF, g: CdfEvaluator) -> float:
    """sup_x |F - G| over the jump points, with G taken on both sides of each atom."""
    if isinstance(g, EmpiricalCDF):
        points = np.union1d(f.xs, g.xs)
        g_right = g.evaluate(points)
        g_left = g.evaluate_left(points)
    else:
        points = f.xs
        vals = g(points)
        g_right = g_left = np.asarray(vals, dtype=np.float64)
    f_right = f.evaluate(points)
    f_left = f.evaluate_left(points)
    return float(
        max(np.abs(f_right - g_right).max(), np.abs(f_left - g_left).max())
    )


def log_potential_empirical(
    spectra: Sequence[SingularSpectrum],
    p_n: float,
    b_exponent: float = 3.0,
    c_cut: float = 1.0,
) -> PotentialEstimate:
    """Mean of -(1/n) sum_j log s_j over the trials passing the truncation filter.

    The spectra are those of one shifted ensemble, all of dimension n, and
    p_n is that ensemble's sparsity. A trial enters only if
    s_n >= c_cut / n^b_exponent and s_1 <= n*sqrt(p_n); the count of excluded
    trials is reported, and an estimate with every trial excluded is an error
    rather than a silent NaN. The standard error is the leave-one-out
    jackknife.
    """
    if not c_cut > 0:
        raise DomainError(f"c_cut must be > 0, got {c_cut}")
    spectra = list(spectra)
    if not spectra:
        raise DomainError("need at least one spectrum")
    n = spectra[0].n
    if any(sp.n != n for sp in spectra):
        raise DomainError("all spectra must share one dimension")
    floor = c_cut / float(n) ** b_exponent
    ceiling = n * math.sqrt(p_n)
    values = []
    excluded = 0
    for sp in spectra:
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


def radial_angular_cdfs(spectrum: ComplexSpectrum):
    """(CDF of |lambda|^2, CDF of arg(lambda)/2pi with arg in [0, 2pi))."""
    vals = np.asarray(spectrum.values)
    radial = EmpiricalCDF.from_values(np.abs(vals) ** 2)
    angles = np.angle(vals)
    angles = np.where(angles < 0, angles + 2.0 * np.pi, angles)
    angular = EmpiricalCDF.from_values(angles / (2.0 * np.pi))
    return radial, angular
