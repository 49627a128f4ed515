"""Vector geometry and small-ball machinery behind smallest-singular-value tails.

Unit vectors split into sparse / compressible / incompressible by their exact
Euclidean distance to the set of delta*n-sparse vectors (the minimizing
support is the top coordinates by magnitude, so the distance is just the tail
norm). `small_ball` takes the largest fraction of sampled sums in one closed
ball: an exact sliding window on the line, and centers on a hexagonal lattice
of pitch eta/4 in the plane.

`min_sv_tail` counts the s_n tail of every (n, z) case it is given in one
pool pass; the MinSv campaign calls it once, with its whole grid. A trial
takes no spectrum unless it must: `linalg.thresholds_below_sn` certifies
s_1 <= n sqrt(p_n) by the Frobenius bound and places s_n among the
thresholds by Cholesky factorizations of the shifted Gram matrix. The s_1
tail of MaxSv is counted in the MaxSv campaign body in `experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .ensemble import EntryDistribution, draw_rows, mask_rows, sample_matrix
from .ensemble import _whole
from .errors import DomainError
from .linalg import shift, singular_values, thresholds_below_sn, truncation_window
from .parallel import parallel_map
from .textio import csv_text, write_text

MIN_TAIL_TRIALS = 50  # fewest trials a MinSv or MaxSv tail frequency is taken over
_SUM_DRAWS = 1 << 17  # draws per block of small_ball's sums
_BAND_SAMPLES = 1 << 12  # samples per band of rows in the plane lattice


@dataclass(frozen=True)
class VectorClass:
    tag: str  # Sparse | Compressible | Incompressible
    delta: float
    rho: float
    residual: float


@dataclass
class TailTable:
    """Empirical tail frequencies of the smallest singular value."""

    thresholds: np.ndarray
    frequencies: np.ndarray
    trials: int
    n: int
    p_n: float
    z: complex
    s1_violation_frequency: float

    def to_csv(self, path) -> None:
        header = ["threshold", "frequency", "trials", "n", "p_n", "z_re", "z_im"]
        rest = (self.trials, self.n, self.p_n, self.z.real, self.z.imag)
        rows = ((t, f, *rest) for t, f in zip(self.thresholds, self.frequencies))
        write_text(path, csv_text(header, rows))


def _tail_norm(x: np.ndarray, keep: int) -> float:
    """Exact distance to the set of keep-sparse vectors: norm of the smallest coords."""
    sq = np.sort(np.abs(x) ** 2)
    drop = len(x) - keep
    return math.sqrt(float(np.sum(sq[:drop]))) if drop > 0 else 0.0


def classify_vector(x, delta: float, rho: float) -> VectorClass:
    """Sparse / compressible / incompressible split of a unit vector."""
    x = np.asarray(x)
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    norm = _tail_norm(x, 0)  # the distance to the 0-sparse vector
    if not abs(norm - 1.0) <= 1e-10:
        raise DomainError(f"expected a unit vector, got norm {norm!r}")
    keep = int(math.floor(delta * len(x)))
    residual = _tail_norm(x, keep)
    if residual == 0.0:
        tag = "Sparse"
    elif residual <= rho:
        tag = "Compressible"
    else:
        tag = "Incompressible"
    return VectorClass(tag, delta, rho, residual)


def _max_ball_fraction(samples: np.ndarray, eta: float) -> float:
    """Largest fraction of the samples in one closed eta-ball.

    Exact on the line: an optimal interval [x, x + 2 eta] slides right until it
    starts at a sample. In the plane the centers are the hexagonal lattice of
    pitch eta/4: each lattice point within eta of a sample is within 5 rows and
    5 columns of its nearest one, and hits are counted per lattice point. The
    lattice is counted in bands of rows holding about `_BAND_SAMPLES` samples'
    nearest rows, so only one band's hits are held at a time.
    """
    if not samples.imag.any():
        x = np.sort(samples.real)
        hi = np.searchsorted(x, x + 2.0 * eta, side="right")
        return float((hi - np.arange(len(x))).max()) / len(x)
    if eta == 0.0:  # a closed 0-ball holds the copies of one sample
        return float(np.unique(samples, return_counts=True)[1].max()) / len(samples)
    pitch = eta / 4.0
    dy = pitch * math.sqrt(3.0) / 2.0
    re, im = samples.real, samples.imag
    reach = 5
    with np.errstate(all="ignore"):  # an index past the float range is inf or nan, rejected below
        nearest_row = np.round(im / dy)
        extent = (2 * np.abs(nearest_row).max() + 2 * reach + 1) * (
            2 * np.abs(re).max() / pitch + 2 * reach + 5)
    if not extent < 2.0**62:  # bounds rows x columns, in floats, before any index is cast to int64
        raise DomainError(f"eta = {eta} is too small for samples spread this far")
    nearest_row = nearest_row.astype(np.int64)
    row_lo = int(nearest_row.min()) - reach
    row_hi = int(nearest_row.max()) + reach + 1
    col_lo = math.floor(re.min() / pitch) - reach - 1
    width = math.ceil(re.max() / pitch) + reach + 2 - col_lo
    order = np.argsort(nearest_row, kind="stable")
    sorted_rows = nearest_row[order]
    starts = sorted_rows[_BAND_SAMPLES::_BAND_SAMPLES]
    edges = np.unique(np.concatenate(([row_lo], starts, [row_hi])))
    best = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        found = []
        for drow in range(-reach, reach + 1):
            # the samples whose row nearest_row + drow lies in [lo, hi)
            start, stop = np.searchsorted(sorted_rows, (lo - drow, hi - drow))
            take = order[start:stop]
            row = sorted_rows[start:stop] + drow
            odd = np.abs(row) % 2
            d_im = im[take] - row * dy
            x = re[take]
            nearest_col = np.round(x / pitch - 0.5 * odd).astype(np.int64)
            for dcol in range(-reach, reach + 1):
                col = nearest_col + dcol
                d_re = x - (col + 0.5 * odd) * pitch
                inside = d_re * d_re + d_im * d_im <= eta * eta + 1e-300
                found.append((row[inside] - row_lo) * width + (col[inside] - col_lo))
        best = max(best, int(np.unique(np.concatenate(found), return_counts=True)[1].max()))
    return float(best) / len(samples)


def small_ball(
    x,
    dist: EntryDistribution,
    p_n: float,
    eta: float,
    trials: int,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of sup_u P(|sum_k x_k eps_k X_k - u| <= eta)."""
    x = np.asarray(x)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise DomainError("x must be a nonempty vector of finite numbers")
    trials = _whole("trials", trials)
    if trials < 10_000:
        raise DomainError(f"need at least 10^4 trials, got {trials}")
    if not (0.0 < p_n <= 1.0):
        raise DomainError(f"p_n must lie in (0, 1], got {p_n}")
    if not 0.0 <= eta < math.inf:
        raise DomainError(f"eta must be finite and >= 0, got {eta}")
    return _max_ball_fraction(_ball_sums(x, dist, p_n, trials, seed), eta)


def _ball_sums(x: np.ndarray, dist: EntryDistribution, p_n: float, trials: int, seed: int):
    """sum_k x_k eps_k X_k per trial, built in blocks of about `_SUM_DRAWS` draws.

    Each row is reduced on its own by numpy's sum, not by a BLAS product, so
    a sum has the same bits whatever block holds its row.
    """
    n = len(x)
    height = max(1, _SUM_DRAWS // n)
    sums = []
    for start in range(0, trials, height):
        rows = range(start, min(start + height, trials))
        draws = draw_rows(dist, seed, rng.ROLE_SMALL_BALL, 0, rows, n)
        if p_n < 1.0:
            draws = np.where(mask_rows(seed, rng.ROLE_SMALL_BALL, 1, rows, n, p_n), draws, 0.0)
        sums.append(np.sum(draws * x, axis=1))
    return np.concatenate(sums)


def min_sv_tail(cases: Sequence[tuple], trials: int, thresholds: Sequence[float]) -> list:
    """One `TailTable` per (config, z) case, in order: the empirical frequencies
    of {s_n(z) <= t and s_1(z) <= n sqrt(p_n)} per threshold. Every trial of
    every case runs in one pool pass.

    A trial reads no spectrum when it can: `thresholds_below_sn` certifies the
    ceiling from one rounded ||A||_F and counts the thresholds below s_n from one
    Cholesky factorization per tested threshold. It takes `singular_values`
    instead when that norm cannot certify the ceiling, or when the search reaches
    a threshold below the Gram path's cutoff; the counts are those of s_n from
    that spectrum, within the Gram eigensolve's contract.
    """
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
    if len(thresholds) == 0 or not (thresholds[0] > 0 and np.isfinite(thresholds[-1])):
        raise DomainError("thresholds must be positive and finite")
    trials = _whole("trials", trials)
    if trials < MIN_TAIL_TRIALS:
        raise DomainError(f"need at least {MIN_TAIL_TRIALS} trials, got {trials}")
    cases = [(config, complex(z), truncation_window(config.n, config.p_n)[1])
             for config, z in cases]

    def one_trial(task):
        (config, z, ceiling), t = task
        a = shift(sample_matrix(config, t), z)
        below = thresholds_below_sn(a, thresholds, ceiling)
        if below is not None:
            return below, True
        s = singular_values(a).values
        return int(np.searchsorted(thresholds, s[-1])), bool(s[0] <= ceiling)

    results = parallel_map(one_trial, [(case, t) for case in cases for t in range(trials)])
    tables = []
    for j, (config, z, _) in enumerate(cases):
        below, ok = map(np.array, zip(*results[j * trials:(j + 1) * trials]))
        # s_n <= thresholds[i] exactly when fewer than i + 1 thresholds lie below s_n
        freqs = np.array([float(np.mean((below <= i) & ok)) for i in range(len(thresholds))])
        tables.append(TailTable(thresholds, freqs, trials, config.n, config.p_n, z,
                                float(np.mean(~ok))))
    return tables
