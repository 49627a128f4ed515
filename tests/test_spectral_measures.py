import math

import numpy as np
import pytest

from circulaw import (
    DomainError,
    EmpiricalCDF,
    EnsembleConfig,
    EntryDistribution,
    EstimationError,
    MatrixSample,
    hermitize,
    ks_distance,
    log_potential_empirical,
    radial_angular_cdfs,
    sample_matrix,
    singular_values,
    stieltjes_empirical,
    sv_squared_cdf,
    symmetrize,
)
from circulaw.linalg import ComplexSpectrum, SingularSpectrum

from conftest import ks_one_sample_critical


def spectrum_of(values):
    return SingularSpectrum(np.asarray(values, dtype=np.float64))


class TestEmpiricalCDF:
    def test_merges_duplicates(self):
        f = EmpiricalCDF.from_values([1.0, 1.0, 1.0])
        assert list(f.xs) == [1.0] and list(f.ws) == [1.0]

    def test_right_continuity(self):
        f = EmpiricalCDF.from_values([2.0, 1.0])
        assert f.evaluate(2.0) == 1.0
        assert f.evaluate_left(2.0) == 0.5
        assert f.evaluate(0.5) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            EmpiricalCDF(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            EmpiricalCDF(np.array([1.0, 2.0]), np.array([0.5, 0.6]))

    def test_csv_roundtrip(self, tmp_path):
        f = EmpiricalCDF.from_values([0.25, 1.0, math.pi])
        path = tmp_path / "cdf.csv"
        f.to_csv(path)
        g = EmpiricalCDF.from_csv(path)
        assert np.array_equal(f.xs, g.xs) and np.array_equal(f.ws, g.ws)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.5\n2.0,0.5\n")
        with pytest.raises(DomainError):
            EmpiricalCDF.from_csv(path)


class TestSvSquaredCdf:
    def test_triple_one(self):
        f = sv_squared_cdf(spectrum_of([1.0, 1.0, 1.0]))
        assert list(f.xs) == [1.0] and list(f.ws) == [1.0]

    def test_two_point(self):
        f = sv_squared_cdf(spectrum_of([2.0, 1.0]))
        assert f.evaluate(2.0) == 0.5
        assert f.evaluate(4.01) == 1.0

    def test_mean_matches_frobenius(self, oracle_rng):
        a = oracle_rng.normal(size=(7, 7))
        sv = singular_values(MatrixSample.from_array(a))
        f = sv_squared_cdf(sv)
        assert f.mean() == pytest.approx(np.sum(a * a) / 7, rel=1e-8)


class TestSymmetrize:
    def test_hand_example(self):
        f = EmpiricalCDF.from_values([1.0, 4.0])
        g = symmetrize(f)
        assert list(g.xs) == [-2.0, -1.0, 1.0, 2.0]
        assert np.allclose(g.ws, 0.25)
        assert g.evaluate(-1.5) == 0.25
        # direct identity (1 + sgn(x) F(x^2)) / 2 at continuity points of g
        for x in (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5):
            expected = 0.5 * (1.0 + np.sign(x) * f.evaluate(x * x))
            assert g.evaluate(x) == pytest.approx(expected, abs=1e-15)

    def test_atom_at_zero(self):
        g = symmetrize(EmpiricalCDF.from_values([0.0]))
        assert list(g.xs) == [0.0] and list(g.ws) == [1.0]

    def test_atom_at_zero_mixed(self):
        g = symmetrize(EmpiricalCDF.from_values([0.0, 4.0]))
        assert list(g.xs) == [-2.0, 0.0, 2.0]
        assert list(g.ws) == [0.25, 0.5, 0.25]

    def test_reflection_identity(self):
        g = symmetrize(EmpiricalCDF.from_values([1.0, 2.0, 5.0]))
        for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
            assert g.evaluate(x) + g.evaluate_left(-x) == pytest.approx(1.0, abs=1e-15)

    def test_negative_support_rejected(self):
        with pytest.raises(DomainError):
            symmetrize(EmpiricalCDF.from_values([-1.0, 1.0]))

    def test_sup_distance_halves(self, oracle_rng):
        for _ in range(20):
            a = oracle_rng.uniform(0.1, 4.0, size=8)
            b = oracle_rng.uniform(0.1, 4.0, size=11)
            fa, fb = EmpiricalCDF.from_values(a), EmpiricalCDF.from_values(b)
            d = ks_distance(fa, fb)
            d_sym = ks_distance(symmetrize(fa), symmetrize(fb))
            assert d_sym == pytest.approx(0.5 * d, abs=1e-12)

    def test_involution_reconstructs(self, oracle_rng):
        atoms = np.sort(oracle_rng.uniform(0.01, 9.0, size=12))
        f = EmpiricalCDF.from_values(atoms)
        g = symmetrize(f)
        positive = g.xs[g.xs > 0]
        back = positive**2
        assert np.allclose(back, f.xs, rtol=4e-16, atol=0.0)
        assert np.allclose(g.ws[g.xs > 0] * 2, f.ws, rtol=0, atol=1e-15)


class TestStieltjesEmpirical:
    def test_single_atom_hand_value(self):
        got = stieltjes_empirical(spectrum_of([1.0]), 1j)
        assert got == pytest.approx(0.5j, abs=1e-15)

    def test_laurent_tail_bound(self, oracle_rng):
        s = np.sort(oracle_rng.uniform(0.0, 3.0, size=9))[::-1]
        spec = spectrum_of(s)
        for v in (10.0, 50.0, 200.0):
            got = stieltjes_empirical(spec, v * 1j)
            bound = float(np.mean(s**2)) / v**3
            assert abs(got - (-1.0 / (v * 1j))) <= bound

    def test_dense_resolvent_oracle(self, oracle_rng):
        for n in (3, 8, 16):
            a = oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n))
            m = MatrixSample.from_array(a)
            spec = singular_values(m)
            alpha = 0.7 + 0.4j
            w = hermitize(m)
            resolvent = np.linalg.inv(w - alpha * np.eye(2 * n))
            oracle = np.trace(resolvent) / (2 * n)
            assert stieltjes_empirical(spec, alpha) == pytest.approx(oracle, abs=1e-8)

    def test_herglotz(self, oracle_rng):
        spec = spectrum_of(np.sort(oracle_rng.uniform(0, 5, size=12))[::-1])
        for _ in range(25):
            alpha = complex(oracle_rng.normal(0, 2), oracle_rng.uniform(0.01, 3))
            assert stieltjes_empirical(spec, alpha).imag > 0

    def test_relation_to_squared_law_transform(self, oracle_rng):
        s = np.sort(oracle_rng.uniform(0.1, 2.0, size=10))[::-1]
        spec = spectrum_of(s)
        alpha = 0.3 + 0.8j
        squared_transform = np.mean(1.0 / (s**2 - alpha**2))
        assert stieltjes_empirical(spec, alpha) == pytest.approx(
            alpha * squared_transform, abs=1e-10
        )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            stieltjes_empirical(spectrum_of([1.0]), 1.0 - 0.5j)


class TestKsDistance:
    def test_self_distance_zero(self, oracle_rng):
        f = EmpiricalCDF.from_values(oracle_rng.normal(size=20))
        assert ks_distance(f, f) == 0.0
        # a bare callable is treated as continuous, so the self-distance
        # through that interface is the largest jump
        assert ks_distance(f, f.evaluate) == pytest.approx(f.ws.max(), abs=1e-15)

    def test_atom_vs_uniform(self):
        f = EmpiricalCDF.from_values([0.0])
        assert ks_distance(f, lambda x: np.clip(x, 0.0, 1.0)) == 1.0

    def test_midpoint_grid_against_uniform(self):
        atoms = (np.arange(1, 11) - 0.5) / 10.0
        f = EmpiricalCDF.from_values(atoms)
        assert ks_distance(f, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(0.05, abs=1e-15)

    def test_metric_properties(self, oracle_rng):
        cdfs = [EmpiricalCDF.from_values(oracle_rng.normal(size=m)) for m in (5, 9, 13)]
        for f in cdfs:
            for g in cdfs:
                assert ks_distance(f, g) == pytest.approx(ks_distance(g, f), abs=1e-15)
        d01 = ks_distance(cdfs[0], cdfs[1])
        d12 = ks_distance(cdfs[1], cdfs[2])
        d02 = ks_distance(cdfs[0], cdfs[2])
        assert d02 <= d01 + d12 + 1e-15


class TestLogPotentialEmpirical:
    def test_identity_trials(self):
        spectra = [spectrum_of(np.ones(4)) for _ in range(3)]
        est = log_potential_empirical(spectra, 1.0)
        assert est.value == 0.0 and est.stderr == 0.0 and est.truncation_count == 0

    def test_log_cancellation(self):
        # n=2 with s_1 = e would trip the s_1 <= n sqrt(p_n) filter (e > 2),
        # so the cancellation is exercised at n=3 and with a shrunken pair
        est = log_potential_empirical([spectrum_of([math.e, 1.0, 1.0 / math.e])], 1.0)
        assert abs(est.value) < 1e-15
        est2 = log_potential_empirical(
            [spectrum_of([math.sqrt(math.e), 1.0 / math.sqrt(math.e)])], 1.0
        )
        assert abs(est2.value) < 1e-15

    def test_all_excluded_raises(self):
        tiny = spectrum_of([1.0, 1e-30])
        with pytest.raises(EstimationError):
            log_potential_empirical([tiny, tiny], 1.0)

    def test_exclusion_counted(self):
        good = spectrum_of([1.0, 0.5])
        bad = spectrum_of([1.0, 1e-30])
        est = log_potential_empirical([good, bad], 1.0)
        assert est.trials == 2 and est.truncation_count == 1

    def test_ceiling_follows_p_n(self):
        # n = 2: the ceiling n sqrt(p_n) is 1 at p_n = 1/4, so s_1 = 2 is cut, and 2 at p_n = 1
        spectra = [spectrum_of([2.0, 0.5]), spectrum_of([1.0, 1.0])]
        assert log_potential_empirical(spectra, 0.25).truncation_count == 1
        assert log_potential_empirical(spectra, 1.0).truncation_count == 0

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(DomainError):
            log_potential_empirical([spectrum_of([1.0]), spectrum_of([1.0, 1.0])], 1.0)

    @pytest.mark.parametrize("c_cut", [0.0, -1.0, math.nan])
    def test_nonpositive_c_cut_rejected(self, c_cut):
        # a floor of c_cut / n^B <= 0 would admit s_n = 0 and average in log 0
        with pytest.raises(DomainError):
            log_potential_empirical([spectrum_of([1.0, 0.0])], 1.0, c_cut=c_cut)

    def test_log_determinant_constant_at_desk_scale(self):
        cfg = EnsembleConfig(512, 1.0, EntryDistribution("RealGaussian"), 404)
        spectra = [singular_values(sample_matrix(cfg, t)) for t in range(20)]
        est = log_potential_empirical(spectra, 1.0)
        assert abs(est.value - 0.5) <= 0.05
        assert est.truncation_count == 0


class TestRadialAngular:
    def test_fourth_roots(self):
        spec = ComplexSpectrum(np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j]))
        radial, angular = radial_angular_cdfs(spec)
        assert list(radial.xs) == [1.0] and list(radial.ws) == [1.0]
        assert np.allclose(angular.xs, [0.0, 0.25, 0.5, 0.75])

    def test_single_point(self):
        radial, angular = radial_angular_cdfs(ComplexSpectrum(np.array([0.5 + 0.5j])))
        assert len(radial.xs) == 1 and len(angular.xs) == 1

    def test_uniform_disc_sample_ks(self, oracle_rng):
        n = 1024
        u = oracle_rng.uniform(size=n)
        theta = oracle_rng.uniform(0.0, 2 * math.pi, size=n)
        points = np.sqrt(u) * np.exp(1j * theta)
        radial, angular = radial_angular_cdfs(ComplexSpectrum(points))
        critical = ks_one_sample_critical(1e-3, n)
        assert critical == pytest.approx(1.95 / math.sqrt(n), abs=2e-3)
        uniform = lambda x: np.clip(x, 0.0, 1.0)
        assert ks_distance(radial, uniform) < critical
        assert ks_distance(angular, uniform) < critical
