"""Exact limiting objects for shifted i.i.d. matrices.

For a shift z, the limiting symmetrized singular-value law has Stieltjes
transform S(a, z) solving

    S = -(S + a) / ((S + a)^2 - |z|^2),

equivalently, with y = S + x on the real line, the cubic

    L(y) = y^3 - x*y^2 + (1 - |z|^2)*y + x*|z|^2 = 0.

Where the cubic has one real root the complex pair contributes the density
(1/pi) * Im y_+; where it has three real roots the density vanishes. The
support edges are

    x1^2 = (5 + 2|z|^2)/2 + ((1 + 8|z|^2)^{3/2} - 1) / (8|z|^2),
    x2^2 = (5 + 2|z|^2)/2 - ((1 + 8|z|^2)^{3/2} + 1) / (8|z|^2),

with an inner edge only for |z| > 1. The logarithmic potential of the
uniform unit-disc law, (1-|z|^2)/2 inside and -ln|z| outside, must equal
-Int ln|x| d(symmetrized law); `potential_from_law` evaluates the right side
by quadrature so the identity can be checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError
from .textio import csv_text, write_text

_SQRT3 = math.sqrt(3.0)
_T_SERIES = 1e-8  # below this |z|^2 the edge ratio uses its series value
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_EDGE_U = 0.5 ** np.arange(48, -1, -1.0)  # the potential's u-breakpoints, graded to 0
_GRID_HALF = 2048
_LAW_CACHE_MAX = 64
_T_MAX = 1e10  # largest |z|^2 (|z| = 1e5); beyond it the edges lose the law's mass


def _shift(z: complex) -> float:
    """|z|^2 of the shift z; DomainError unless |z| <= 1e5 (NaN and inf included)."""
    z = complex(z)
    t = z.real * z.real + z.imag * z.imag
    if not t <= _T_MAX:
        raise DomainError(f"shift z={z} is outside |z| <= 1e5")
    return t


def _edge_squares(t: float):
    """(x1^2, x2^2) of the squared coordinate; x2^2 is None for t below series cut."""
    base = (5.0 + 2.0 * t) / 2.0
    if t < _T_SERIES:
        return base + 1.5 + 3.0 * t, None
    s = math.sqrt(1.0 + 8.0 * t)
    cube = s * s * s
    return base + (cube - 1.0) / (8.0 * t), base - (cube + 1.0) / (8.0 * t)


def support_endpoints(z: complex):
    """(x1, x2): outer edge always, inner edge for |z| > 1 (0.0 exactly at |z| = 1)."""
    x1_sq, x2_sq = _edge_squares(_shift(z))
    x1 = math.sqrt(x1_sq)
    if x2_sq is None or x2_sq < 0.0:
        return x1, None
    return x1, math.sqrt(x2_sq)


def _l_roots(x, t: float):
    """(coefficients, roots) of L(y) for real or complex x: companion-matrix
    eigenvalues plus three Newton steps."""
    coeffs = np.array([1.0, -x, 1.0 - t, x * t])
    deriv = np.polyder(coeffs)
    roots = np.roots(coeffs).astype(np.complex128)
    for _ in range(3):
        fval = np.polyval(coeffs, roots)
        dval = np.polyval(deriv, roots)
        safe = np.abs(dval) > 0
        roots = np.where(safe, roots - fval / np.where(safe, dval, 1.0), roots)
    return coeffs, roots


def cubic_roots(x: float, z: complex) -> np.ndarray:
    """The three roots of L(y), via companion-matrix eigenvalues plus Newton polish.

    Real coefficients get exact conjugate pairing enforced after polishing.
    """
    coeffs, roots = _l_roots(x, _shift(z))
    scale = max(1.0, abs(x)) ** 3
    imag_tol = 1e-9 * max(1.0, abs(x))
    complex_mask = np.abs(roots.imag) > imag_tol
    if complex_mask.sum() == 2:
        pair = roots[complex_mask]
        w = 0.5 * (pair[0] + np.conj(pair[1]))
        if w.imag < 0:
            w = np.conj(w)
        roots[complex_mask] = [w, np.conj(w)]
        real_idx = np.flatnonzero(~complex_mask)
        roots[real_idx] = roots[real_idx].real
    else:
        roots = roots.real.astype(np.complex128)
    residual = np.abs(np.polyval(coeffs, roots)).max()
    if residual > 1e-10 * scale:
        raise NumericError(f"cubic root residual {residual:.3g} exceeds tolerance")
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def limit_stieltjes(alpha: complex, z: complex) -> complex:
    """The unique upper-half-plane solution S(alpha, z) of the self-consistent equation.

    S = y - alpha, where y is a root of L with x = alpha.
    """
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise DomainError("alpha must lie in the upper half-plane")
    t = _shift(z)
    roots = _l_roots(alpha, t)[1] - alpha
    candidates = roots[roots.imag > 1e-12]
    if len(candidates) != 1:
        raise NumericError(
            f"expected one upper-half-plane root at alpha={alpha}, z={z}, "
            f"found {len(candidates)}"
        )
    s = complex(candidates[0])
    p = s + alpha
    q = p * p - t
    if abs(q) < 1e-14:
        raise NumericError("degenerate denominator in the self-consistent equation")
    residual = abs(s + p / q)
    if residual > 1e-10:
        raise NumericError(f"self-consistent equation residual {residual:.3g}")
    return s


def _sym_density_array(x: np.ndarray, t: float) -> np.ndarray:
    """Density of the symmetrized law at real x (vectorized Cardano solve).

    One real root (positive cubic discriminant in the depressed form) means a
    conjugate pair with imaginary part (sqrt(3)/2)(u - v); three real roots
    mean zero density.
    """
    x = np.asarray(x, dtype=np.float64)
    p = -x
    q = 1.0 - t
    r = x * t
    big_p = q - p * p / 3.0
    big_q = (2.0 / 27.0) * p * p * p - p * (q / 3.0) + r
    half_q = 0.5 * big_q
    p_third = big_p * (1.0 / 3.0)
    disc = half_q * half_q + p_third * p_third * p_third
    pos = disc > 0
    root = np.sqrt(np.where(pos, disc, 0.0))
    u = np.cbrt(-half_q + root)
    v = np.cbrt(-half_q - root)
    vals = (_SQRT3 / (2.0 * math.pi)) * (u - v)
    return np.where(pos, np.maximum(vals, 0.0), 0.0)


def limit_density(x: float, z: complex) -> float:
    """Density of the symmetrized law at x (even in x, zero off the support)."""
    return float(_sym_density_array(np.array([x]), _shift(z))[0])


def _gauss_panels(t: float, edge: float, sign: float, u: np.ndarray, rule=_GL16,
                  log_weight: bool = False) -> np.ndarray:
    """Integral of the density (times ln x with `log_weight`) between neighbouring
    x = edge + sign*u^2: one Gauss-Legendre panel, of the node set `rule`, per step of u."""
    half = 0.5 * np.diff(u)
    nodes = (u[:-1] + half)[:, None] + half[:, None] * rule[0][None, :]
    x = edge + sign * nodes * nodes
    g = 2.0 * nodes * _sym_density_array(x, t)
    if log_weight:
        g = g * np.log(x)
    return sign * half * (g @ rule[1])


def _half_widths(lo: float, hi: float):
    """u-extents of the lower and upper halves of [lo, hi], split at the midpoint,
    under the substitutions x = lo + u^2 and x = hi - u^2."""
    mid = 0.5 * (lo + hi)
    return math.sqrt(mid - lo), math.sqrt(hi - mid)


@dataclass(frozen=True)
class LimitLaw:
    """Limiting law of every shift with one |z|^2: support edges plus the CDF
    grid for fast queries.

    `for_shift` builds the whole law, grid included; the object is immutable.
    """

    x1: float
    x2: Optional[float]
    _t: float = field(repr=False)
    _grid_x: np.ndarray = field(repr=False, compare=False)
    _grid_f: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def for_shift(cls, z: complex) -> "LimitLaw":
        """The law of shift z, with the cumulative mass at 2 * _GRID_HALF + 1 points
        of [lo, x1]: the u-steps of each half are equal, so the points crowd
        towards the edges."""
        t = _shift(z)
        x1, x2 = support_endpoints(z)
        lo = 0.0 if x2 is None else x2
        u_lo, u_hi = _half_widths(lo, x1)
        u_lower = np.linspace(0.0, u_lo, _GRID_HALF + 1)
        u_upper = np.linspace(u_hi, 0.0, _GRID_HALF + 1)
        panels = np.concatenate([_gauss_panels(t, lo, 1.0, u_lower),
                                 _gauss_panels(t, x1, -1.0, u_upper)])
        grid_f = np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(panels)]))
        grid_x = np.concatenate([lo + u_lower * u_lower, x1 - u_upper[1:] * u_upper[1:]])
        grid_x.flags.writeable = grid_f.flags.writeable = False
        return cls(x1, x2, t, grid_x, grid_f)

    def density(self, x):
        return _sym_density_array(np.asarray(x, dtype=np.float64), self._t)

    def cdf_positive(self, x):
        """Mass of the symmetrized law on [lo, x] (vectorized)."""
        return np.interp(np.asarray(x, dtype=np.float64), self._grid_x, self._grid_f,
                         left=0.0, right=self._grid_f[-1])

    def cdf_squared(self, x):
        """CDF of the squared-coordinate law at x (vectorized)."""
        x = np.asarray(x, dtype=np.float64)
        positive = x > 0
        roots = np.sqrt(np.where(positive, x, 1.0))
        out = np.where(positive, np.clip(2.0 * self.cdf_positive(roots), 0.0, 1.0), 0.0)
        return np.where(x >= self.x1 * self.x1, 1.0, out)

    def total_mass(self) -> float:
        """Full-line mass of the symmetrized density (should be 1)."""
        return 2.0 * float(self._grid_f[-1])


_LAW_CACHE: dict = {}


def law_for_shift(z: complex) -> LimitLaw:
    """Cached LimitLaw; keyed on |z|^2, so phases of z share one law.

    The cache is emptied when it holds _LAW_CACHE_MAX laws. It takes no lock:
    concurrent misses on one shift may each build the law, and every build is
    identical. A shift beyond |z| = 1e5 raises DomainError and is never cached."""
    t = _shift(z)
    law = _LAW_CACHE.get(t)
    if law is None:
        law = LimitLaw.for_shift(z)
        if len(_LAW_CACHE) >= _LAW_CACHE_MAX:
            _LAW_CACHE.clear()
        _LAW_CACHE[t] = law
    return law


def limit_cdf(x, z: complex):
    """CDF of the limiting squared-singular-value law at x (scalar or array)."""
    law = law_for_shift(z)
    result = law.cdf_squared(x)
    return float(result) if np.isscalar(x) else result


def disc_potential(z: complex) -> float:
    """Logarithmic potential of the uniform unit-disc law."""
    t = _shift(z)
    if t <= 1.0:
        return 0.5 * (1.0 - t)
    return -0.5 * math.log(t)


def g_field(s: float, t: float) -> float:
    """Radial derivative field of the disc potential: 2s/(s^2+t^2) outside, 2s inside."""
    rsq = s * s + t * t
    if rsq > 1.0:
        return 2.0 * s / rsq
    return 2.0 * s


def potential_from_law(z: complex) -> float:
    """-Int ln|x| d(symmetrized law); agrees with disc_potential.

    Gauss panels graded geometrically towards both support edges, with the
    8-point rule's difference as the error estimate. No CDF grid is built."""
    t = _shift(z)
    x1, x2 = support_endpoints(z)
    lo = 0.0 if x2 is None else x2
    u_lo, u_hi = _half_widths(lo, x1)

    def integral(rule):
        lower = _gauss_panels(t, lo, 1.0, u_lo * _EDGE_U, rule, log_weight=True)
        upper = _gauss_panels(t, x1, -1.0, u_hi * _EDGE_U[::-1], rule, log_weight=True)
        return float(lower.sum() + upper.sum())

    val16 = integral(_GL16)
    err = 2.0 * abs(val16 - integral(_GL8))
    if err > 1e-4:
        raise NumericError(f"potential quadrature error estimate {err:.3g} > 1e-4")
    return -2.0 * val16


def export_tabulation(z: complex, xs, path) -> None:
    """CSV tabulation 'x,density,cdf' of the symmetrized density and CDF.

    The symmetrized CDF is (1 + sgn(x) F(x^2)) / 2, F the law of s^2.
    """
    xs = np.asarray(xs, dtype=np.float64)
    law = law_for_shift(z)
    cdf = 0.5 * (1.0 + np.sign(xs) * law.cdf_squared(xs * xs))
    write_text(path, csv_text(["x", "density", "cdf"], zip(xs, law.density(xs), cdf)))
