import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, optimize

from circulaw import (
    DomainError,
    EnsembleConfig,
    EntryDistribution,
    cubic_roots,
    disc_potential,
    g_field,
    limit_cdf,
    limit_density,
    limit_stieltjes,
    potential_from_law,
    sample_matrix,
    singular_values,
    support_endpoints,
)
from circulaw import limit_theory
from circulaw.limit_theory import LimitLaw, export_tabulation, law_for_shift


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


class TestCubicRoots:
    def test_triple_root_at_unit_circle(self):
        roots = cubic_roots(0.0, 1 + 0j)
        assert np.abs(roots).max() < 1e-8

    def test_pure_imaginary_pair_at_zero_shift(self):
        roots = cubic_roots(0.0, 0j)
        expected = np.array(sorted([0.0, 1j, -1j], key=lambda v: (v.real, v.imag)), dtype=complex)
        assert np.abs(roots - expected).max() < 1e-12

    def test_vieta(self, oracle_rng):
        for _ in range(200):
            x = float(oracle_rng.uniform(-4, 4))
            z = complex(oracle_rng.normal(), oracle_rng.normal())
            roots = cubic_roots(x, z)
            t = abs(z) ** 2
            assert complex(roots.sum()) == pytest.approx(x, abs=1e-9)
            assert complex(roots.prod()) == pytest.approx(-x * t, abs=1e-9)

    def test_conjugate_pairing(self, oracle_rng):
        for _ in range(50):
            roots = cubic_roots(float(oracle_rng.uniform(-2, 2)), 0.4 + 0.1j)
            complex_roots = roots[np.abs(roots.imag) > 1e-9]
            if len(complex_roots):
                assert complex_roots[0] == np.conj(complex_roots[1])


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
        assert limit_density(0.0, 0j) == pytest.approx(1.0 / math.pi, abs=1e-12)
        for x in (0.3, 1.0, 1.9, -1.2):
            assert limit_density(x, 0j) == pytest.approx(float(semicircle_density(np.array([x]))[0]), abs=1e-10)

    def test_zero_outside_support(self):
        x1, _ = support_endpoints(0.5)
        assert limit_density(x1 + 1e-6, 0.5) == 0.0
        assert limit_density(-x1 - 1e-6, 0.5) == 0.0

    def test_zero_in_inner_gap(self):
        z = 1.5 + 0j
        x1, x2 = support_endpoints(z)
        assert x2 is not None
        assert limit_density(0.5 * x2, z) == 0.0
        assert limit_density(0.0, z) == 0.0

    def test_even(self, oracle_rng):
        for _ in range(50):
            x = float(oracle_rng.uniform(0, 3))
            z = complex(oracle_rng.normal(), oracle_rng.normal())
            assert limit_density(x, z) == pytest.approx(limit_density(-x, z), abs=1e-14)

    def test_bounded_by_one(self, oracle_rng):
        for _ in range(400):
            x = float(oracle_rng.uniform(-4, 4))
            az = float(oracle_rng.uniform(0, 3))
            assert limit_density(x, complex(az, 0)) <= 1.0

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
                assert extrapolated == pytest.approx(limit_density(x, z), abs=1e-3)

    def test_root_count_regions(self):
        # one complex pair exactly where the density lives, three real roots outside
        for az in np.linspace(0.0, 2.0, 10):
            z = complex(az, 0)
            x1, x2 = support_endpoints(z)
            for x in np.linspace(0.01, 4.0, 10):
                if abs(x - x1) < 1e-3 or (x2 is not None and abs(x - x2) < 1e-3):
                    continue
                roots = cubic_roots(x, z)
                n_real = int(np.sum(np.abs(roots.imag) <= 1e-9 * max(1.0, x)))
                inside = x < x1 if az <= 1 else (x2 < x < x1)
                assert n_real == (1 if inside else 3)


class TestLimitCdf:
    def test_one_beyond_edge(self):
        x1, _ = support_endpoints(0.7)
        assert limit_cdf(x1 * x1, 0.7) == pytest.approx(1.0, abs=1e-6)
        assert limit_cdf(x1 * x1 + 1.0, 0.7) == 1.0

    def test_zero_at_origin(self):
        assert limit_cdf(0.0, 0.3) == 0.0
        assert limit_cdf(-1.0, 0.3) == 0.0

    def test_monotone(self, oracle_rng):
        xs = np.sort(oracle_rng.uniform(0, 5, size=60))
        vals = limit_cdf(xs, 0.5)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_against_quadrature_oracle_z0(self):
        for x in (1e-4, 0.5, 1.0, 2.0, 3.5):
            assert limit_cdf(x, 0j) == pytest.approx(squared_law_cdf_oracle(x), abs=1e-6)

    def test_small_x_asymptote(self):
        x = 1e-4
        assert limit_cdf(x, 0j) == pytest.approx(2.0 / math.pi * math.sqrt(x), abs=1e-4)

    def test_median_against_oracle(self):
        ours = optimize.brentq(lambda x: limit_cdf(x, 0j) - 0.5, 0.1, 3.9, xtol=1e-12)
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
            assert abs(law.total_mass() - 1.0) <= 1e-6


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
        monkeypatch.setattr(limit_theory, "_LAW_CACHE", {})
        potential_from_law(0.5 + 0.5j)
        assert limit_theory._LAW_CACHE == {}

    def test_radial_derivative_matches_g_field(self):
        h = 1e-3
        for s, t in [(0.2, 0.1), (0.5, 0.3), (-0.6, 0.2), (1.4, 0.5), (2.0, 0.0), (-1.8, 0.7)]:
            if 0.95 <= math.hypot(s, t) <= 1.05:
                continue
            derivative = (
                potential_from_law(complex(s + h, t)) - potential_from_law(complex(s - h, t))
            ) / (2 * h)
            assert derivative == pytest.approx(-0.5 * g_field(s, t), abs=1e-3)


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
        "limit_cdf": lambda z: limit_cdf(1.0, z),
        "limit_density": lambda z: limit_density(0.5, z),
        "disc_potential": disc_potential,
        "cubic_roots": lambda z: cubic_roots(1.0, z),
        "limit_stieltjes": lambda z: limit_stieltjes(1j, z),
        "law_for_shift": law_for_shift,
    }

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1.0, math.nan), 1e200,
                                   1e8, 1e17, 1e104],
                             ids=["nan", "inf", "1+nanj", "1e200", "1e8", "1e17", "1e104"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises_domain_error_and_caches_nothing(self, name, z, monkeypatch):
        monkeypatch.setattr(limit_theory, "_LAW_CACHE", {})
        with pytest.raises(DomainError):
            self.CALLS[name](z)
        assert limit_theory._LAW_CACHE == {}

    def test_largest_shift_accepted(self, monkeypatch):
        # the bound: the mass is off by 6.7e-7 here, by 4.5e-5 at |z| = 1e6 and 0.64 at 1e8
        monkeypatch.setattr(limit_theory, "_LAW_CACHE", {})
        z = 1e5 + 0j
        assert abs(law_for_shift(z).total_mass() - 1.0) <= 1e-6
        assert abs(potential_from_law(z) - disc_potential(z)) <= 1e-5


class TestLawCache:
    def test_bounded_and_rebuilt_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(limit_theory, "_LAW_CACHE", {})
        cap = limit_theory._LAW_CACHE_MAX
        first = law_for_shift(0.0)
        for k in range(3 * cap):
            law_for_shift(complex(0.01 * k, 0.0))
            assert len(limit_theory._LAW_CACHE) <= cap
        assert len(limit_theory._LAW_CACHE) == cap
        again = law_for_shift(0.0)
        assert again is not first
        assert np.array_equal(again._grid_x, first._grid_x)
        assert np.array_equal(again._grid_f, first._grid_f)

    def test_concurrent_misses_return_complete_laws(self, monkeypatch):
        monkeypatch.setattr(limit_theory, "_LAW_CACHE", {})
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
