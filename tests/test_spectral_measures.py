import math
import re

import numpy as np
import pytest

from circulaw import (
    DomainError,
    EmpiricalCDF,
    EnsembleConfig,
    EntryDistribution,
    EstimationError,
    MatrixSample,
    ks_distance,
    log_potential_empirical,
    radial_angular_cdfs,
    sample_matrix,
    singular_values,
)
from circulaw.linalg import LogDeterminant, Spectrum, hermitize, truncation_window
from circulaw.textio import read_float_csv
from circulaw.spectral_measures import stieltjes_empirical

from conftest import ks_one_sample_critical


def spectrum_of(values):
    return Spectrum(np.asarray(values, dtype=np.float64))


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
        with pytest.raises(DomainError):
            EmpiricalCDF(np.array([1.0, 2.0]), np.array([math.nan, 1.0]))
        for values in ([0.1, math.nan], [math.inf], []):
            with pytest.raises(DomainError):
                EmpiricalCDF.from_values(values)

    def test_reflection_identity_of_a_symmetric_law(self):
        f = EmpiricalCDF.from_values([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
        for x in (-3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5):
            assert f.evaluate(x) + f.evaluate_left(-x) == pytest.approx(1.0, abs=1e-15)

    def test_csv_roundtrip(self, tmp_path):
        f = EmpiricalCDF.from_values([0.25, 1.0, math.pi])
        path = tmp_path / "cdf.csv"
        f.to_csv(path)
        xs, ws = map(np.array, zip(*read_float_csv(path, "x,weight")))
        assert np.array_equal(f.xs, xs) and np.array_equal(f.ws, ws)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.5\n2.0,0.5\n")
        with pytest.raises(OSError, match=re.escape(f"{path}: line 1")):
            read_float_csv(path, "x,weight")

    @pytest.mark.parametrize("row", ["0.5,0.25,0.25", "0.5,abc", "nan,0.5", "0.5,inf"])
    def test_malformed_row_names_the_path_and_line(self, tmp_path, row):
        # a bare ValueError ("too many values to unpack", "could not convert") named neither,
        # and a non-finite field reached the caller, whose error names no line
        path = tmp_path / "bad.csv"
        path.write_text(f"x,weight\n0.5,0.5\n\n  \n{row}\n")
        with pytest.raises(OSError, match=re.escape(f"{path}: line 5")):
            read_float_csv(path, "x,weight")

    @pytest.mark.parametrize("field", ["xs", "ws"])
    def test_fields_cannot_be_rebound(self, field):
        # rebinding ws left the cumulative weights stale: evaluate(1.0) read 0.5
        # after ws became [0.25, 0.75]
        f = EmpiricalCDF(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        with pytest.raises(AttributeError):
            setattr(f, field, np.array([0.25, 0.75]))
        assert f.evaluate(1.0) == 0.5 and list(f.ws) == [0.5, 0.5]


class TestSvSquaredCdf:
    def test_triple_one(self):
        f = EmpiricalCDF.from_values(np.array([1.0, 1.0, 1.0]) ** 2)
        assert list(f.xs) == [1.0] and list(f.ws) == [1.0]

    def test_two_point(self):
        f = EmpiricalCDF.from_values(np.array([2.0, 1.0]) ** 2)
        assert f.evaluate(2.0) == 0.5
        assert f.evaluate(4.01) == 1.0

    def test_mean_matches_frobenius(self, oracle_rng):
        a = oracle_rng.normal(size=(7, 7))
        sv = singular_values(MatrixSample(a))
        f = EmpiricalCDF.from_values(sv.values**2)
        assert np.sum(f.xs * f.ws) == pytest.approx(np.sum(a * a) / 7, rel=1e-8)

    @pytest.mark.parametrize("dist", ["RealGaussian", "ComplexGaussian"])
    def test_hermitized_law_is_the_symmetrized_squared_law(self, dist):
        # the eigenvalues of [[0, A], [A*, 0]] are +-s_i, so their law G has
        # G(x) = (1 + sgn(x) F(x^2)) / 2 with F the law of the s_i^2
        m = sample_matrix(EnsembleConfig(6, 1.0, EntryDistribution(dist), 3), 0)
        f = EmpiricalCDF.from_values(singular_values(m).values ** 2)
        g = EmpiricalCDF.from_values(np.linalg.eigvalsh(hermitize(m)))
        for x in np.linspace(-3.0, 3.0, 61):
            assert g.evaluate(x) == pytest.approx(0.5 * (1.0 + np.sign(x) * f.evaluate(x * x)),
                                                  abs=1e-15)


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
            m = MatrixSample(a)
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

    @pytest.mark.parametrize("alpha", [math.nan * 1j, complex(math.nan, 1), complex(0, math.inf)])
    def test_nonfinite_alpha_rejected(self, alpha):  # NaN would come back as nan+nanj
        with pytest.raises(DomainError):
            stieltjes_empirical(spectrum_of([1.0]), alpha)

    def test_empty_spectrum(self):
        with pytest.raises(DomainError):
            stieltjes_empirical(spectrum_of([]), 1j)


class TestKsDistance:
    def test_self_distance_zero(self, oracle_rng):
        f = EmpiricalCDF.from_values(oracle_rng.normal(size=20))
        # G is read as continuous, so F against its own CDF is the largest jump;
        # its 20 weights of 1/20 sum to 1 + 2.2e-16, a CDF value that rounds past 1
        assert ks_distance(f, f.evaluate) == pytest.approx(f.ws.max(), abs=1e-15)

    def test_atom_vs_uniform(self):
        f = EmpiricalCDF.from_values([0.0])
        assert ks_distance(f, lambda x: np.clip(x, 0.0, 1.0)) == 1.0

    def test_midpoint_grid_against_uniform(self):
        atoms = (np.arange(1, 11) - 0.5) / 10.0
        f = EmpiricalCDF.from_values(atoms)
        assert ks_distance(f, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 7.0, -0.5])
    def test_an_impossible_cdf_value_raises(self, value):
        # NaN read back as a distance of nan, and 7.0 as a distance of 7.0
        f = EmpiricalCDF.from_values([0.5, 1.0, 2.0])
        with pytest.raises(DomainError, match=r"in \[0, 1\]"):
            ks_distance(f, lambda x: np.where(x > 0.75, value, 0.5))


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

    def test_no_spectra_rejected(self):
        with pytest.raises(DomainError, match="at least one spectrum"):
            log_potential_empirical([], 1.0)

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


class TestCertifiedTrials:
    def test_certified_log_det_enters_the_average(self):
        # n = 2, p_n = 1: the window is [1/8, 2]
        det = LogDeterminant(value=-math.log(4.0), lower=0.5, upper=1.5, n=2)
        est = log_potential_empirical([det, spectrum_of([1.0, 1.0])], 1.0)
        assert est.truncation_count == 0
        assert est.value == pytest.approx(0.5 * math.log(4.0) / 2.0)

    @pytest.mark.parametrize("lower, upper", [(0.1, 1.5), (0.5, 2.5)])
    def test_certificate_outside_the_window_is_an_error(self, lower, upper):
        det = LogDeterminant(value=0.0, lower=lower, upper=upper, n=2)
        with pytest.raises(DomainError):
            log_potential_empirical([det], 1.0)

    def test_window_is_the_filter_window(self):
        assert truncation_window(4, 0.25, 2.0, 3.0) == (3.0 / 16.0, 2.0)

    @pytest.mark.parametrize("p_n", [4.0, 1.0 + 1e-12, 0.0, -1.0, math.nan, math.inf])
    def test_a_sparsity_outside_zero_one_raises(self, p_n):
        # p_n = 4 widened the ceiling (0 of 2 trials excluded, against 1 at p_n = 1),
        # nan excluded every trial, and -1 raised a bare ValueError from math.sqrt
        spectra = [spectrum_of([5.0, 1.0, 0.5]), spectrum_of([1.5, 1.0, 0.5])]
        with pytest.raises(DomainError, match="0 < p_n <= 1"):
            log_potential_empirical(spectra, p_n)
        with pytest.raises(DomainError, match="0 < p_n <= 1"):
            truncation_window(3, p_n)

    @pytest.mark.parametrize("n", [0, -3, math.nan])
    def test_a_dimension_below_one_raises(self, n):
        with pytest.raises(DomainError, match="n >= 1"):
            truncation_window(n, 1.0)

    @pytest.mark.parametrize("b_exponent", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_b_exponent_raises(self, b_exponent):
        # inf made the floor 0 and averaged in log 0 (value inf, stderr nan), -inf
        # raised a bare ZeroDivisionError, and nan excluded every trial
        spectra = [spectrum_of([1.5, 1.0, 0.0]), spectrum_of([1.5, 1.0, 0.5])]
        with pytest.raises(DomainError, match="finite b_exponent"):
            log_potential_empirical(spectra, 1.0, b_exponent=b_exponent)
        with pytest.raises(DomainError, match="finite b_exponent"):
            truncation_window(3, 1.0, b_exponent)

    @pytest.mark.parametrize("c_cut", [math.inf, 0.0, -1.0, math.nan])
    def test_a_c_cut_outside_zero_inf_raises(self, c_cut):
        with pytest.raises(DomainError, match="0 < c_cut < inf"):
            truncation_window(3, 1.0, 3.0, c_cut)

    @pytest.mark.parametrize("n, b_exponent, c_cut", [(16, 300.0, 1.0), (16, -300.0, 1.0),
                                                      (3, 3.0, 5e-324)],
                             ids=["power_overflows", "power_underflows", "floor_underflows"])
    def test_a_floor_outside_the_positive_floats_raises(self, n, b_exponent, c_cut):
        # 16^300 raised a bare OverflowError, 16^-300 is 0 and the division raised a bare
        # ZeroDivisionError, and 5e-324 / 27 gave the floor 0, which admits s_n = 0
        with pytest.raises(DomainError, match="positive finite floor"):
            truncation_window(n, 1.0, b_exponent, c_cut)
        with pytest.raises(DomainError, match="positive finite floor"):
            log_potential_empirical([spectrum_of([1.5] * (n - 1) + [0.0])], 1.0, b_exponent, c_cut)


class TestRadialAngular:
    def test_fourth_roots(self):
        spec = Spectrum(np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j]))
        radial, angular = radial_angular_cdfs(spec)
        assert list(radial.xs) == [1.0] and list(radial.ws) == [1.0]
        assert np.allclose(angular.xs, [0.0, 0.25, 0.5, 0.75])

    def test_single_point(self):
        radial, angular = radial_angular_cdfs(Spectrum(np.array([0.5 + 0.5j])))
        assert len(radial.xs) == 1 and len(angular.xs) == 1

    def test_uniform_disc_sample_ks(self, oracle_rng):
        n = 1024
        u = oracle_rng.uniform(size=n)
        theta = oracle_rng.uniform(0.0, 2 * math.pi, size=n)
        points = np.sqrt(u) * np.exp(1j * theta)
        radial, angular = radial_angular_cdfs(Spectrum(points))
        critical = ks_one_sample_critical(1e-3, n)
        assert critical == pytest.approx(1.95 / math.sqrt(n), abs=2e-3)
        uniform = lambda x: np.clip(x, 0.0, 1.0)
        assert ks_distance(radial, uniform) < critical
        assert ks_distance(angular, uniform) < critical
