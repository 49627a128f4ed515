import cmath
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize

from circulaw import (
    CirculawError,
    DomainError,
    EnsembleConfig,
    EntryDistribution,
    disc_potential,
    limit_stieltjes,
    potential_from_law,
    sample_matrix,
    singular_values,
    support_endpoints,
)
from circulaw import limit_theory
from circulaw.limit_theory import LimitLaw, export_tabulation, g_field, law_for_shift
from circulaw.spectral_measures import EmpiricalCDF


# The shifts of the solver oracle: 0, both sides of |z| = 1, and up to the domain's edge
ORACLE_SHIFTS = [0.0, 1e-6, 0.3, 1 - 1e-6, 1.0, 1 + 1e-6, 1.5, 3.0, 10.0, 100.0, 1e3, 1e5]


def companion_roots(x, t):
    """Reference roots of L(y): companion-matrix eigenvalues plus three Newton steps."""
    coeffs = np.array([1.0, -x, 1.0 - t, x * t])
    deriv = np.polyder(coeffs)
    roots = np.roots(coeffs).astype(np.complex128)
    for _ in range(3):
        fval = np.polyval(coeffs, roots)
        dval = np.polyval(deriv, roots)
        safe = np.abs(dval) > 0
        roots = np.where(safe, roots - fval / np.where(safe, dval, 1.0), roots)
    return roots


def l_roots(x, z):
    """The three roots of L(y) at x and shift z, from the solver `limit_stieltjes` uses."""
    return limit_theory._l_roots(x, limit_theory._shift(z))[1]


def law_density(x, z):
    """The symmetrized law's density at x."""
    return float(law_for_shift(z).density(x))


def law_cdf(x, z):
    """The limiting squared-singular-value CDF at x."""
    return law_for_shift(z).cdf_squared(x)


def semicircle_stieltjes(alpha):
    """Closed form at z = 0, S = (-alpha + sqrt(alpha - 2) sqrt(alpha + 2)) / 2, written
    as 2 / (-alpha - sqrt(alpha - 2) sqrt(alpha + 2)) so that no two terms cancel."""
    return 2.0 / (-alpha - cmath.sqrt(alpha - 2.0) * cmath.sqrt(alpha + 2.0))


def semicircle_density(x):
    """Closed-form oracle for the z = 0 symmetrized law (radius-2 semicircle)."""
    return np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)


def squared_law_density(x):
    """Closed-form oracle for the z = 0 squared-singular-value law."""
    return np.where((x > 0) & (x < 4), np.sqrt(np.maximum((4.0 - x) / np.maximum(x, 1e-300), 0.0)) / (2.0 * math.pi), 0.0)


def squared_law_cdf_oracle(x):
    # F(x) = 2 * Int_0^sqrt(x) semicircle: smooth integrand, unlike the
    # 1/sqrt(x)-singular squared-law density
    if x <= 0:
        return 0.0
    if x >= 4:
        return 1.0
    val, err = integrate.quad(semicircle_density, 0.0, math.sqrt(x), limit=200)
    assert err < 1e-9
    return 2.0 * val


class TestSupportEndpoints:
    def test_unit_circle_exact(self):
        x1, x2 = support_endpoints(1 + 0j)
        assert x2 == 0.0
        assert abs(x1 - math.sqrt(6.75)) <= 1e-12

    def test_zero_shift_limit(self):
        x1, x2 = support_endpoints(0j)
        assert abs(x1 - 2.0) <= 1e-9
        assert x2 is None

    def test_series_matches_formula_across_cut(self):
        lo = support_endpoints(complex(9.99e-5, 0.0))[0]
        hi = support_endpoints(complex(1.01e-4, 0.0))[0]
        assert abs(lo - hi) < 1e-7

    def test_inner_edge_only_outside_disc(self):
        assert support_endpoints(0.5)[1] is None
        assert support_endpoints(1.5)[1] > 0
        assert support_endpoints(1.5)[1] < support_endpoints(1.5)[0]

    def test_lower_bound_inside_disc(self):
        for az in (0.0, 0.3, 0.6, 0.9, 1.0):
            x1, _ = support_endpoints(complex(az, 0))
            assert x1 >= math.sqrt(3.0 * (1.0 - az * az)) - 1e-12

    def test_phase_invariance(self):
        a = support_endpoints(0.3 + 0.4j)
        b = support_endpoints(0.5 + 0j)
        assert a[0] == pytest.approx(b[0], abs=1e-14)

    def test_monte_carlo_outer_edge(self):
        # largest singular value of a dense Gaussian sample sits near x1(0) = 2
        cfg = EnsembleConfig(1024, 1.0, EntryDistribution("RealGaussian"), 6)
        s1 = float(singular_values(sample_matrix(cfg, 0)).values[0])
        assert abs(s1 - 2.0) < 0.1


class TestLRoots:
    def test_triple_root_at_unit_circle(self):
        roots = l_roots(0.0, 1 + 0j)
        assert np.abs(roots).max() < 1e-8

    def test_pure_imaginary_pair_at_zero_shift(self):
        roots = np.array(sorted(l_roots(0.0, 0j), key=lambda v: v.imag))
        assert np.abs(roots - np.array([-1j, 0.0, 1j])).max() < 1e-12

    def test_vieta(self, oracle_rng):
        for _ in range(200):
            x = float(oracle_rng.uniform(-4, 4))
            z = complex(oracle_rng.normal(), oracle_rng.normal())
            roots = l_roots(x, z)
            t = abs(z) ** 2
            assert complex(roots.sum()) == pytest.approx(x, abs=1e-9)
            assert complex(roots.prod()) == pytest.approx(-x * t, abs=1e-9)

    @pytest.mark.parametrize("az", ORACLE_SHIFTS)
    def test_against_the_companion_oracle(self, az):
        # every root's residual is within 1e-15 of L's term sizes (taken at |y| >= 1),
        # and it sits on a companion root
        t = az * az
        for x in np.linspace(-60.0, 60.0, 241):
            roots = l_roots(x, az)
            size = np.maximum(np.abs(roots), 1.0)
            terms = ((size + abs(x)) * size + abs(1.0 - t)) * size + abs(x) * t
            assert np.all(np.abs(np.polyval([1.0, -x, 1.0 - t, x * t], roots)) <= 1e-15 * terms)
            for ref in companion_roots(x, t):
                assert np.min(np.abs(roots - ref)) <= 1e-9 * max(1.0, abs(ref))

    def test_residual_scales_with_the_shift(self):
        # the bound was 1e-10 max(1, |x|)^3, blind to |z|^2: here it rejected exact roots
        roots = l_roots(5.0, 1e3 + 0j)
        for ref in companion_roots(5.0, 1e6):
            assert np.min(np.abs(roots - ref)) <= 1e-14 * abs(ref)


class TestLimitStieltjes:
    def test_semicircle_closed_form(self):
        got = limit_stieltjes(1j, 0j)
        assert got == pytest.approx(1j * (math.sqrt(5) - 1) / 2, abs=1e-12)
        # z = 0 reduces the equation to S^2 + alpha S + 1 = 0
        for alpha in (0.5 + 0.2j, -1.0 + 1.5j, 2.0 + 0.05j):
            s = limit_stieltjes(alpha, 0j)
            assert abs(s * s + alpha * s + 1.0) < 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            limit_stieltjes(1.0 - 0.1j, 0j)

    @pytest.mark.parametrize("alpha", [math.nan * 1j, complex(math.nan, 1), complex(0, math.inf)])
    def test_nonfinite_alpha_rejected(self, alpha):
        # no such alpha lies in the upper half-plane; it must not reach Cardano's formula
        with pytest.raises(DomainError):
            limit_stieltjes(alpha, 0j)

    @pytest.mark.parametrize("eta", [1e-10, 1e-12])
    def test_near_the_real_axis(self, eta):
        # an absolute cut Im S > 1e-12 rejected alpha = -10 + 1e-12i: the Herglotz
        # root is the one with the largest imaginary part, however small
        for x in (-10.0, -2.0, 0.5, 2.0, 10.0):
            alpha = complex(x, eta)
            s = limit_stieltjes(alpha, 0j)
            exact = semicircle_stieltjes(alpha)
            assert s.imag > 0 and abs(s - exact) <= 1e-12 * abs(exact)
            for az in (0.5, 1.0, 1.5):
                assert limit_stieltjes(alpha, az).imag > 0

    @pytest.mark.parametrize("az", ORACLE_SHIFTS)
    def test_against_the_companion_oracle(self, az):
        t = az * az
        for x in np.linspace(-60.0, 60.0, 61):
            for eta in np.geomspace(1e-12, 100.0, 8):
                alpha = complex(x, eta)
                s = limit_stieltjes(alpha, az)
                p = s + alpha
                assert s.imag > 0 and abs(s + p / (p * p - t)) <= 1e-10 * abs(s)
                if az == 0.0:
                    exact = semicircle_stieltjes(alpha)
                    assert abs(s - exact) <= 1e-12 * abs(exact)
                # the oracle's S = y - alpha cancels when |S| << |alpha|, hence the scale
                ref = companion_roots(alpha, t)
                ref_s = complex(ref[np.argmax(ref.imag)]) - alpha
                assert abs(s - ref_s) <= 1e-9 * max(1.0, abs(alpha))

    def test_bounds_on_grid(self):
        for az in (0.0, 0.5, 1.0, 1.5):
            z = complex(az, 0.0)
            for u in np.linspace(-4, 4, 9):
                for v in np.geomspace(1e-2, 2.0, 7):
                    alpha = complex(u, v)
                    s = limit_stieltjes(alpha, z)
                    assert abs(s) <= 1.0 + 1e-10
                    p = s + alpha
                    lhs = 1.0 - abs(s) ** 2 - az**2 * abs(s) ** 2 / abs(p) ** 2
                    assert lhs >= v / (v + 1.0) - 1e-9


class TestLimitDensity:
    def test_semicircle_values(self):
        assert law_density(0.0, 0j) == pytest.approx(1.0 / math.pi, abs=1e-12)
        for x in (0.3, 1.0, 1.9, -1.2):
            assert law_density(x, 0j) == pytest.approx(float(semicircle_density(np.array([x]))[0]), abs=1e-10)

    def test_zero_outside_support(self):
        x1, _ = support_endpoints(0.5)
        assert law_density(x1 + 1e-6, 0.5) == 0.0
        assert law_density(-x1 - 1e-6, 0.5) == 0.0

    def test_zero_in_inner_gap(self):
        z = 1.5 + 0j
        x1, x2 = support_endpoints(z)
        assert x2 is not None
        assert law_density(0.5 * x2, z) == 0.0
        assert law_density(0.0, z) == 0.0

    def test_even(self, oracle_rng):
        for _ in range(50):
            x = float(oracle_rng.uniform(0, 3))
            z = complex(oracle_rng.normal(), oracle_rng.normal())
            assert law_density(x, z) == pytest.approx(law_density(-x, z), abs=1e-14)

    def test_bounded_by_one(self, oracle_rng):
        for _ in range(400):
            x = float(oracle_rng.uniform(-4, 4))
            az = float(oracle_rng.uniform(0, 3))
            assert law_density(x, complex(az, 0)) <= 1.0

    def test_stieltjes_inversion_richardson(self):
        for az in (0.0, 0.5, 1.5):
            z = complex(az, 0)
            x1, x2 = support_endpoints(z)
            lo = x2 if x2 else 0.0
            for frac in (0.3, 0.6, 0.85):
                x = lo + frac * (x1 - lo)
                v1, v2 = 1e-3, 1e-4
                p1 = limit_stieltjes(complex(x, v1), z).imag / math.pi
                p2 = limit_stieltjes(complex(x, v2), z).imag / math.pi
                extrapolated = (v1 * p2 - v2 * p1) / (v1 - v2)
                assert extrapolated == pytest.approx(law_density(x, z), abs=1e-3)

    def test_root_count_regions(self):
        # one complex pair exactly where the density lives, three real roots outside
        for az in np.linspace(0.0, 2.0, 10):
            z = complex(az, 0)
            x1, x2 = support_endpoints(z)
            for x in np.linspace(0.01, 4.0, 10):
                if abs(x - x1) < 1e-3 or (x2 is not None and abs(x - x2) < 1e-3):
                    continue
                roots = l_roots(x, z)
                n_real = int(np.sum(np.abs(roots.imag) <= 1e-9 * max(1.0, x)))
                inside = x < x1 if az <= 1 else (x2 < x < x1)
                assert n_real == (1 if inside else 3)


class TestLimitCdf:
    def test_one_beyond_edge(self):
        x1, _ = support_endpoints(0.7)
        assert law_cdf(x1 * x1, 0.7) == pytest.approx(1.0, abs=1e-6)
        assert law_cdf(x1 * x1 + 1.0, 0.7) == 1.0

    def test_zero_at_origin(self):
        assert law_cdf(0.0, 0.3) == 0.0
        assert law_cdf(-1.0, 0.3) == 0.0

    def test_monotone(self, oracle_rng):
        xs = np.sort(oracle_rng.uniform(0, 5, size=60))
        vals = law_cdf(xs, 0.5)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_against_quadrature_oracle_z0(self):
        for x in (1e-4, 0.5, 1.0, 2.0, 3.5):
            assert law_cdf(x, 0j) == pytest.approx(squared_law_cdf_oracle(x), abs=1e-6)

    def test_small_x_asymptote(self):
        x = 1e-4
        assert law_cdf(x, 0j) == pytest.approx(2.0 / math.pi * math.sqrt(x), abs=1e-4)

    def test_median_against_oracle(self):
        ours = optimize.brentq(lambda x: law_cdf(x, 0j) - 0.5, 0.1, 3.9, xtol=1e-12)
        oracle = optimize.brentq(lambda x: squared_law_cdf_oracle(x) - 0.5, 0.1, 3.9, xtol=1e-12)
        assert abs(ours - oracle) <= 1e-4
        assert oracle == pytest.approx(0.65278, abs=2e-3)

    def test_z0_grid_matches_closed_form_semicircle_cdf(self):
        # mass of the radius-2 semicircle on [0, x]
        law = LimitLaw.for_shift(0j)
        x = law._grid_x
        exact = (0.5 * x * np.sqrt(np.maximum(4.0 - x * x, 0.0))
                 + 2.0 * np.arcsin(np.minimum(0.5 * x, 1.0))) / (2.0 * math.pi)
        assert np.abs(law._grid_f - exact).max() <= 1e-11

    def test_normalization_across_shifts(self):
        for az in (0.0, 0.5, 1.0, 1.5, 3.0):
            law = law_for_shift(complex(az, 0))
            assert abs(2.0 * law.cdf_positive(law.x1) - 1.0) <= 1e-6


class TestMoments:
    # the squared-singular-value law of A = X/sqrt(n) - z tends to that of |c - z|^2 for a
    # circular element c, whose first two moments are 1 + |z|^2 and 2 + 4|z|^2 + |z|^4
    # (Bai & Silverstein, "Spectral Analysis of Large Dimensional Random Matrices"); the
    # symmetrized density puts half of it on [x2 or 0, x1]. Tolerance 1e-10, fixed in advance
    @staticmethod
    def _moment(law, k):
        value, _ = integrate.quad(lambda x: x ** (2 * k) * float(law.density(x)),
                                  law.x2 or 0.0, law.x1, epsabs=1e-13, epsrel=1e-13, limit=200)
        return 2.0 * value

    @pytest.mark.parametrize("z", [0j, 0.5, 1.0, 1.5 + 0.5j, 0.99, 1.01])
    def test_first_two_moments_by_quadrature(self, z):
        law = LimitLaw.for_shift(z)
        t = abs(z) ** 2
        assert abs(self._moment(law, 1) - (1.0 + t)) <= 1e-10
        assert abs(self._moment(law, 2) - (2.0 + 4.0 * t + t * t)) <= 1e-10

    @pytest.mark.parametrize("z", [0j, 0.5, 1.0, 1.5 + 0.5j, 0.99, 1.01, 0.7j, 2.0, 3.0])
    def test_third_moment_by_quadrature(self, z):
        # E|c - z|^6 = 5 + 15|z|^2 + 9|z|^4 + |z|^6. Expanding ((c - z)(c - z)^*)^3, a term
        # keeps 3 - j of the c's and as many c^*'s, and the scalars give |z|^(2j); the
        # circular element's moment counts the non-crossing pairings of each kept c with a
        # kept c^*. All six letters kept is the alternating word, paired in 5 ways (the
        # Catalan number C_3, the moment at z = 0); j = 2 keeps one c and one c^*, 9 ways
        law = LimitLaw.for_shift(z)
        t = abs(z) ** 2
        exact = 5.0 + 15.0 * t + 9.0 * t * t + t ** 3
        m3 = self._moment(law, 3)
        assert abs(m3 - exact) <= 1e-10
        assert abs(1.001 * m3 - exact) > 1e-10  # a density scaled by 1.001 fails the gate


class TestDiscPotential:
    def test_values(self):
        assert disc_potential(0j) == 0.5
        assert disc_potential(1 + 0j) == 0.0
        assert disc_potential(2 + 0j) == pytest.approx(-math.log(2), abs=1e-15)

    def test_continuity_at_circle(self):
        eps = 1e-9
        assert abs(disc_potential(1 - eps) - disc_potential(1 + eps)) < 1e-8


class TestGField:
    def test_values(self):
        assert g_field(0.0, 5.0) == 0.0
        assert g_field(0.3, 0.0) == pytest.approx(0.6)
        assert g_field(2.0, 0.0) == pytest.approx(1.0)

    def test_continuity_at_circle(self):
        s = 1.0 / math.sqrt(2.0)
        assert g_field(s - 1e-10, s) == pytest.approx(g_field(s + 1e-10, s), abs=1e-8)


class TestPotentialFromLaw:
    def test_zero_shift_against_quadrature_oracle(self):
        oracle, err = integrate.quad(
            lambda x: -math.log(abs(x)) * semicircle_density(x),
            -2.0,
            2.0,
            points=[0.0],
            limit=300,
        )
        assert err < 1e-6
        assert oracle == pytest.approx(0.5, abs=1e-7)
        assert potential_from_law(0j) == pytest.approx(oracle, abs=1e-4)

    def test_outside_disc(self):
        assert potential_from_law(2 + 0j) == pytest.approx(-math.log(2.0), abs=1e-4)

    def test_phase_symmetry(self):
        a = potential_from_law(0.3 + 0.4j)
        b = potential_from_law(0.5 + 0j)
        assert a == pytest.approx(b, abs=1e-8)

    def test_matches_disc_potential_on_grid(self):
        for az in (0.0, 0.3, 0.7, 1.2, 2.0, 3.0):
            assert potential_from_law(complex(az, 0)) == pytest.approx(
                disc_potential(complex(az, 0)), abs=2e-4
            )

    @pytest.mark.parametrize("z", [0j, 0.3 + 0j, 0.5 + 0.5j, 0.99 + 0j, 0.999 + 0j, 1 + 0j,
                                   1.001 + 0j, 1.01 + 0j, 1.5 + 0j, 2 + 0j, 3 + 0j, 100 + 0j])
    def test_log_moment_accuracy_contract(self, z):
        # the Hermitization identity, to the quadrature's accuracy, across the unit circle
        assert abs(potential_from_law(z) - disc_potential(z)) <= 1e-9

    def test_builds_no_grid(self, monkeypatch):
        def build(z):
            raise AssertionError("potential_from_law built a CDF grid")

        monkeypatch.setattr(LimitLaw, "for_shift", build)
        potential_from_law(0.5 + 0.5j)

    def test_radial_derivative_matches_g_field(self):
        h = 1e-3
        for s, t in [(0.2, 0.1), (0.5, 0.3), (-0.6, 0.2), (1.4, 0.5), (2.0, 0.0), (-1.8, 0.7)]:
            if 0.95 <= math.hypot(s, t) <= 1.05:
                continue
            derivative = (
                potential_from_law(complex(s + h, t)) - potential_from_law(complex(s - h, t))
            ) / (2 * h)
            assert derivative == pytest.approx(-0.5 * g_field(s, t), abs=1e-3)


class TestPanelBlocks:
    """The Gauss panels are built in blocks of _PANEL_BLOCK; each panel is summed by
    numpy on its own, so any block size, 7 included, keeps the bits of one build."""

    @staticmethod
    def _builds(z):
        t, _, lo, x1, u_lo, u_hi = limit_theory._halves(z)
        half = limit_theory._GRID_HALF
        lower = limit_theory._gauss_panels(t, lo, 1.0, np.linspace(0.0, u_lo, half + 1))
        upper = limit_theory._gauss_panels(t, x1, -1.0, np.linspace(u_hi, 0.0, half + 1))
        return lower, upper, LimitLaw.for_shift(z)._grid_f, potential_from_law(z)

    @pytest.mark.parametrize("z", [0j, 0.5 + 0j, 1.5 + 0j, 0.3 + 0.4j, 2 + 0j])
    def test_blocks_equal_the_whole_build_bit_for_bit(self, monkeypatch, z):
        assert limit_theory._GRID_HALF > limit_theory._PANEL_BLOCK  # more than one block
        blocks = 7, limit_theory._PANEL_BLOCK
        monkeypatch.setattr(limit_theory, "_PANEL_BLOCK", 1 << 30)
        whole = self._builds(z)
        for block in blocks:
            monkeypatch.setattr(limit_theory, "_PANEL_BLOCK", block)
            blocked = self._builds(z)
            for got, want in zip(blocked[:3], whole[:3]):
                assert got.tobytes() == want.tobytes()
            assert blocked[3] == whole[3]

    def test_law_build_allocates_under_1_mb_at_its_peak(self):
        # the whole half-grid at once held ~15 temporaries of 2048 x 16 nodes: a
        # 4.1 MB peak, and 4.4 MB more peak RSS in a fresh process
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            LimitLaw.for_shift(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2**20


class TestExport:
    def test_tabulation_csv(self, tmp_path):
        path = tmp_path / "law.csv"
        xs = np.linspace(-3, 3, 7)
        export_tabulation(0.5, xs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,density,cdf"
        assert len(lines) == 8
        cdf_vals = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert cdf_vals == sorted(cdf_vals)


class TestNonFiniteShift:
    CALLS = {
        "support_endpoints": support_endpoints,
        "potential_from_law": potential_from_law,
        "LimitLaw.cdf_squared": lambda z: law_for_shift(z).cdf_squared(1.0),
        "LimitLaw.density": lambda z: law_for_shift(z).density(0.5),
        "disc_potential": disc_potential,
        "export_tabulation": lambda z: export_tabulation(z, [1.0], os.devnull),
        "limit_stieltjes": lambda z: limit_stieltjes(1j, z),
        "law_for_shift": law_for_shift,
    }

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1.0, math.nan), 1e200,
                                   1e8, 1e17, 1e104],
                             ids=["nan", "inf", "1+nanj", "1e200", "1e8", "1e17", "1e104"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises_domain_error(self, name, z):
        with pytest.raises(DomainError):
            self.CALLS[name](z)

    def test_largest_shift_accepted(self):
        # the bound: the mass is off by 6.7e-7 here, by 4.5e-5 at |z| = 1e6 and 0.64 at 1e8
        z = 1e5 + 0j
        law = law_for_shift(z)
        assert abs(2.0 * law.cdf_positive(law.x1) - 1.0) <= 1e-6
        assert abs(potential_from_law(z) - disc_potential(z)) <= 1e-5


class TestHugeArguments:
    # x^4 in the roots' discriminant overflowed from |x| ~ 1e77, and the cube root of
    # the infinite result raised a bare OverflowError ("complex exponentiation"); at
    # z = 0 the terms of L at x ~ 5.6e102 overflowed in numpy, a RuntimeWarning
    CALLS = {
        **{f"l_roots-{x}": (lambda x=x: l_roots(x, 0.5))
           for x in (1e70, 1e78, 1e100, -1e100, math.inf, -math.inf, math.nan)},
        **{f"l_roots-{x}-z0": (lambda x=x: l_roots(x, 0.0))
           for x in (1e100, 5.6e102, -1e103, 1e104)},
        "limit_stieltjes-1e100+1j": lambda: limit_stieltjes(1e100 + 1j, 0.5),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_every_failure_is_a_circulaw_error(self, name):
        try:
            self.CALLS[name]()
        except Exception as exc:
            assert isinstance(exc, CirculawError), repr(exc)

    @pytest.mark.parametrize("x", [1e78, -1e100, math.inf, math.nan])
    def test_beyond_the_bound_raises_domain_error_naming_it(self, x):
        with pytest.raises(DomainError, match=r"u\^3 and 4\|x\|\^3 must be finite"):
            l_roots(x, 0.5)

    @pytest.mark.parametrize("z", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_real_x_below_the_bound_is_solved(self, z, sign):
        # Cardano's small roots cancelled to ~eps |x|, so the residual check raised
        # NumericError from |x| ~ 7.5e11 (z = 0), 5.6e13 (0.5) and 2.4e14 (2) on
        t = z * z
        for k in range(8 * 110):
            x = sign * 10.0 ** (k / 8)
            try:
                roots = l_roots(x, z)
            except DomainError:
                break
            a, b, c = sorted(roots, key=abs)
            if t:  # Vieta's product, which the small roots' rounding would spoil
                assert abs(a * b * c + x * t) <= 1e-12 * abs(x) * t
            else:  # 0 and the roots of y^2 - x y + 1
                assert a == 0 and abs(b * c - 1.0) <= 1e-12
        assert abs(x) > 1e76  # the ladder ran up to the overflow bound

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_a_huge_alpha_within_the_float_range_is_still_solved(self, z):
        # far out, S ~ -1/alpha; the bound follows the overflow, not a fixed |alpha|
        for alpha in (1e60j, 1e70j):
            s = limit_stieltjes(alpha, z)
            assert abs(s + 1 / alpha) <= 1e-12 * abs(1 / alpha)


class TestNonFiniteQuery:
    """A NaN query raised nothing and read as a value (1.0, 0.0); +-inf is a limit."""

    CDF = EmpiricalCDF.from_values([0.1, 0.5, 0.9])
    LAW = law_for_shift(0.5)
    CALLS = {  # name: (call, value at -inf, value at +inf)
        "EmpiricalCDF.evaluate": (CDF.evaluate, 0.0, 1.0),
        "EmpiricalCDF.evaluate_left": (CDF.evaluate_left, 0.0, 1.0),
        "LimitLaw.density": (LAW.density, 0.0, 0.0),
        "LimitLaw.cdf_positive": (LAW.cdf_positive, 0.0, LAW.cdf_positive(LAW.x1)),
        "LimitLaw.cdf_squared": (LAW.cdf_squared, 0.0, 1.0),
    }

    @pytest.mark.parametrize("name", [*CALLS, "export_tabulation"])
    def test_nan_raises_and_infinities_are_limits(self, name, tmp_path):
        if name == "export_tabulation":
            path = tmp_path / "law.csv"
            with pytest.raises(DomainError):
                export_tabulation(0.5, [0.0, math.nan], path)
            export_tabulation(0.5, [-math.inf, math.inf], path)
            assert path.read_text().splitlines()[1:] == ["-inf,0,0", "inf,0,1"]
            return
        call, low, high = self.CALLS[name]
        with pytest.raises(DomainError):
            call(math.nan)
        with pytest.raises(DomainError):
            call(np.array([0.5, math.nan]))
        assert (call(-math.inf), call(math.inf)) == (low, high)  # a warning fails the suite


class TestLawForShift:
    def test_concurrent_builds_return_complete_laws(self):
        # the module keeps no state, so threads building one law must get equal laws
        fresh = LimitLaw.for_shift(0.5 + 0.5j)
        laws = []
        readers = [threading.Thread(target=lambda: laws.append(law_for_shift(0.5 + 0.5j)))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert len(laws) == 8
        for law in laws:
            assert np.array_equal(law._grid_x, fresh._grid_x)
            assert np.array_equal(law._grid_f, fresh._grid_f)

    def test_law_is_frozen(self):
        law = LimitLaw.for_shift(0.5)
        with pytest.raises(AttributeError):
            law.x1 = 3.0
        with pytest.raises(ValueError):
            law._grid_f[0] = 1.0
