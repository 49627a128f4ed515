"""Exact limiting objects for shifted i.i.d. matrices.

For a shift z, the limiting symmetrized singular-value law has Stieltjes
transform S(a, z) solving

    S = -(S + a) / ((S + a)^2 - |z|^2),

equivalently, with y = S + x on the real line, the cubic

    L(y) = y^3 - x*y^2 + (1 - |z|^2)*y + x*|z|^2 = 0.

Where the cubic has one real root the complex pair contributes the density
(1/pi) * Im y_+; where it has three real roots the density vanishes. Cardano's
reduction solves L for the density, the roots and S alike, with the smaller roots
taken from the largest by Vieta's formulas. The support edges are

    x1^2 = (5 + 2|z|^2)/2 + ((1 + 8|z|^2)^{3/2} - 1) / (8|z|^2),
    x2^2 = (5 + 2|z|^2)/2 - ((1 + 8|z|^2)^{3/2} + 1) / (8|z|^2),

with an inner edge only for |z| > 1. The logarithmic potential of the
uniform unit-disc law, (1-|z|^2)/2 inside and -ln|z| outside, must equal
-Int ln|x| d(symmetrized law); `potential_from_law` evaluates the right side
by quadrature so the identity can be checked numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError
from .textio import csv_text, write_text

_SQRT3 = math.sqrt(3.0)
_OMEGA = np.array([1.0, complex(-0.5, 0.5 * _SQRT3), complex(-0.5, -0.5 * _SQRT3)])  # w^k
_T_SERIES = 1e-8  # below this |z|^2 the edge ratio uses its series value
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_EDGE_U = 0.5 ** np.arange(48, -1, -1.0)  # the potential's u-breakpoints, graded to 0
_GRID_HALF = 2048
_PANEL_BLOCK = 256  # panels per block; each panel sums on its own, so no size moves a bit
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


def _depressed(x, t: float):
    """(half_q, p_third, disc) of L(y) = w^3 + 3 p_third w + 2 half_q, w = y - x/3, for
    real or complex x, scalar or array; disc > 0 where a real x has one real root."""
    p = -x
    q = 1.0 - t
    r = x * t
    big_p = q - p * p / 3.0
    big_q = (2.0 / 27.0) * p * p * p - p * (q / 3.0) + r
    half_q = 0.5 * big_q
    p_third = big_p * (1.0 / 3.0)
    return half_q, p_third, half_q * half_q + p_third * p_third * p_third


def _l_roots(x, t: float):
    """(coefficients, roots) of L(y), x real or complex: the largest of Cardano's roots
    x/3 + w^k u + w^-k v (w = e^(2 pi i/3), u^3 the larger of -half_q +- sqrt(disc),
    v = -p_third/u), the other two from it by Vieta's formulas, then three Newton steps.
    Cardano's smaller roots cancel to an error of ~eps |x|, which Newton no longer
    recovers once |x| passes ~1e12; Vieta's keep the largest root's relative error.
    disc is -1/108 of L's discriminant, a quadratic in x^2, as half_q^2 + p_third^3
    cancels at a support edge: 1.5e-11 off at x = 2 + 1e-12i, z = 0.
    u^3 and 4|x|^3 (L's terms at its roots come to ~2|x|^3) must be finite, so a NaN
    or infinite x raises DomainError, and so does an x whose |z|^2 x^4 / 27 (in disc)
    or 4|x|^3 overflows: from |x| ~ 1e77 at |z| = 0.5, and ~ 3.5e102 at z = 0."""
    half_q, p_third, _ = _depressed(x, t)
    s = x * x
    disc = (4.0 * (1.0 - t) ** 3 - (4.0 * t * s + 1.0 - 20.0 * t - 8.0 * t * t) * s) / 108.0
    root = cmath.sqrt(disc)
    cube = max(-half_q + root, -half_q - root, key=abs)
    size = abs(x)
    if not (cmath.isfinite(cube) and math.isfinite(4.0 * size * size * size)):
        raise DomainError(f"x={x} is out of range: Cardano's u^3 and 4|x|^3 must be finite, "
                          f"got u^3 = {cube}")
    u = cube ** (1.0 / 3.0)
    v = -p_third / u if u else 0.0  # u = 0 only at the triple root x = 0, |z| = 1
    roots = x / 3.0 + _OMEGA * u + _OMEGA.conj() * v
    big = complex(roots[np.argmax(np.abs(roots))])
    if big:  # the other two solve w^2 - total w + product = 0
        product = -x * t / big
        total = (1.0 - t - product) / big
        d = cmath.sqrt(total * total - 4.0 * product)
        w = 0.5 * (total + d if (total.conjugate() * d).real >= 0 else total - d)
        roots = np.array([big, w, product / w if w else 0.0])
    coeffs = np.array([1.0, -x, 1.0 - t, x * t])
    deriv = np.polyder(coeffs)
    fval = np.polyval(coeffs, roots)
    for _ in range(3):
        with np.errstate(all="ignore"):  # a non-finite step is never taken
            step = roots - fval / np.polyval(deriv, roots)
            fstep = np.polyval(coeffs, step)
        # a step must lower |L|: at a double root L / L' is noise over noise
        better = np.abs(fstep) < np.abs(fval)
        roots = np.where(better, step, roots)
        fval = np.where(better, fstep, fval)
    return coeffs, roots


def limit_stieltjes(alpha: complex, z: complex) -> complex:
    """The unique upper-half-plane solution S(alpha, z) of the self-consistent equation.

    S + alpha is the root y of L (x = alpha) of largest imaginary part, however
    small, and S = -y/(y^2 - |z|^2), as y - alpha cancels where |S| << |alpha|.
    An alpha too large for `_l_roots` raises DomainError, as there.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and 0 < alpha.imag < math.inf):
        raise DomainError(f"alpha must be finite and lie in the upper half-plane, got {alpha}")
    t = _shift(z)
    roots = _l_roots(alpha, t)[1]
    y = complex(roots[np.argmax(roots.imag)])
    q = y * y - t
    if abs(q) < 1e-14:
        raise NumericError("degenerate denominator in the self-consistent equation")
    s = -y / q
    if not s.imag > 0:
        raise NumericError(f"no upper-half-plane root at alpha={alpha}, z={z}")
    p = s + alpha
    residual = abs(s + p / (p * p - t)) / abs(s)  # relative: S is tiny where |alpha| is large
    if not residual <= 1e-10:
        raise NumericError(f"self-consistent equation relative residual {residual:.3g}")
    return s


def _sym_density_array(x: np.ndarray, t: float) -> np.ndarray:
    """Density of the symmetrized law at real x (vectorized Cardano solve).

    One real root (positive cubic discriminant in the depressed form) means a
    conjugate pair with imaginary part (sqrt(3)/2)(u - v); three real roots
    mean zero density.
    """
    half_q, _, disc = _depressed(np.asarray(x, dtype=np.float64), t)
    pos = disc > 0
    root = np.sqrt(np.where(pos, disc, 0.0))
    u = np.cbrt(-half_q + root)
    v = np.cbrt(-half_q - root)
    vals = (_SQRT3 / (2.0 * math.pi)) * (u - v)
    return np.where(pos, np.maximum(vals, 0.0), 0.0)


def _points(x) -> np.ndarray:
    """Real query points as float64; a NaN raises DomainError, +-inf is a limit."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise DomainError("the limit law is not defined at NaN")
    return x


def _gauss_panels(t: float, edge: float, sign: float, u: np.ndarray, rule=_GL16,
                  log_weight: bool = False) -> np.ndarray:
    """Integral of the density (times ln x with `log_weight`) between neighbouring
    x = edge + sign*u^2: one Gauss-Legendre panel, of the node set `rule`, per step of u.

    The panels are built _PANEL_BLOCK at a time, so a law build's temporaries
    stay under 1 MB; numpy sums each panel, not a BLAS gemv, so the values are
    those of one build over all panels for any block size or OpenBLAS kernel."""
    out = np.empty(len(u) - 1)
    for start in range(0, len(out), _PANEL_BLOCK):
        stop = min(start + _PANEL_BLOCK, len(out))
        half = 0.5 * np.diff(u[start : stop + 1])
        nodes = (u[start:stop] + half)[:, None] + half[:, None] * rule[0][None, :]
        x = edge + sign * nodes * nodes
        g = 2.0 * nodes * _sym_density_array(x, t)
        if log_weight:
            g = g * np.log(x)
        out[start:stop] = sign * half * np.sum(g * rule[1], axis=1)
    return out


def _halves(z: complex):
    """(t, x2, lo, x1, u_lo, u_hi) of shift z: t = |z|^2, the support edges, the
    support's lower end lo (x2, or 0 without an inner edge), and the u-extents of
    the lower and upper halves of [lo, x1], split at the midpoint, under the
    substitutions x = lo + u^2 and x = x1 - u^2."""
    t = _shift(z)
    x1, x2 = support_endpoints(z)
    lo = 0.0 if x2 is None else x2
    mid = 0.5 * (lo + x1)
    return t, x2, lo, x1, math.sqrt(mid - lo), math.sqrt(x1 - mid)


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
        t, x2, lo, x1, u_lo, u_hi = _halves(z)
        u_lower = np.linspace(0.0, u_lo, _GRID_HALF + 1)
        u_upper = np.linspace(u_hi, 0.0, _GRID_HALF + 1)
        panels = np.concatenate([_gauss_panels(t, lo, 1.0, u_lower),
                                 _gauss_panels(t, x1, -1.0, u_upper)])
        grid_f = np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(panels)]))
        grid_x = np.concatenate([lo + u_lower * u_lower, x1 - u_upper[1:] * u_upper[1:]])
        grid_x.flags.writeable = grid_f.flags.writeable = False
        return cls(x1, x2, t, grid_x, grid_f)

    def density(self, x):
        """Density of the symmetrized law at x (vectorized), 0 at +-inf (off the
        support); a NaN x raises DomainError."""
        x = _points(x)
        finite = np.isfinite(x)
        return np.where(finite, _sym_density_array(np.where(finite, x, 0.0), self._t), 0.0)

    def cdf_positive(self, x):
        """Mass of the symmetrized law on [lo, x] (vectorized); a NaN x raises DomainError."""
        return np.interp(_points(x), self._grid_x, self._grid_f, left=0.0,
                         right=self._grid_f[-1])

    def cdf_squared(self, x):
        """CDF of the squared-coordinate law at x (vectorized); a NaN x raises DomainError."""
        x = _points(x)
        positive = x > 0
        roots = np.sqrt(np.where(positive, x, 1.0))
        out = np.where(positive, np.clip(2.0 * self.cdf_positive(roots), 0.0, 1.0), 0.0)
        return np.where(x >= self.x1 * self.x1, 1.0, out)


def law_for_shift(z: complex) -> LimitLaw:
    """The LimitLaw of shift z, built on each call (no campaign asks for one |z|
    twice); a shift beyond |z| = 1e5 raises DomainError."""
    return LimitLaw.for_shift(z)


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
    t, _, lo, x1, u_lo, u_hi = _halves(z)

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
