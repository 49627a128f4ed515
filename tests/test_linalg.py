import importlib.util
import math
import pathlib

import numpy as np
import pytest
from scipy import stats

from circulaw import (
    EnsembleConfig,
    EntryDistribution,
    MatrixSample,
    NumericError,
    distance_to_span,
    eigenvalues,
    hermitize,
    operator_norm,
    sample_matrix,
    shift,
    singular_values,
    smallest_singular_value,
)
from circulaw import linalg
from circulaw.errors import DomainError

from conftest import ks_one_sample_critical

GAUSS = EntryDistribution("RealGaussian")
CGAUSS = EntryDistribution("ComplexGaussian")


def from_array(a):
    return MatrixSample.from_array(np.asarray(a))


class TestShift:
    def test_zero_shift_is_identity(self):
        m = from_array(np.arange(9.0).reshape(3, 3))
        out = shift(m, 0.0)
        assert np.array_equal(out.entries, m.entries)

    def test_one_by_one(self):
        out = shift(from_array([[5.0]]), 2.0 + 1.0j)
        assert out.entries[0, 0] == 3.0 - 1.0j

    def test_trace_identity_exact(self):
        # dyadic entries and shift keep the identity exact in floating point
        m = from_array(np.full((4, 4), 0.5))
        out = shift(m, 0.25)
        assert np.trace(out.entries) == np.trace(m.entries) - 4 * 0.25


class TestHermitize:
    def test_one_by_one(self):
        w = hermitize(from_array(np.array([[2.0 + 1.0j]])))
        assert w.shape == (2, 2)
        assert w[0, 0] == 0 and w[1, 1] == 0
        assert w[0, 1] == 2.0 + 1.0j and w[1, 0] == 2.0 - 1.0j
        eigs = np.linalg.eigvalsh(w)
        assert eigs == pytest.approx([-abs(2 + 1j), abs(2 + 1j)])

    def test_frobenius_doubles(self):
        m = from_array(np.arange(16.0).reshape(4, 4))
        w = hermitize(m)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(2 * np.sum(np.abs(m.entries) ** 2), rel=1e-14)

    def test_zero_blocks(self):
        m = from_array(np.ones((3, 3)))
        w = hermitize(m)
        assert not w[:3, :3].any() and not w[3:, 3:].any()

    def test_eigenvalues_pair_with_singular_values(self, oracle_rng):
        for n in (2, 5, 17, 32):
            a = oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n))
            m = from_array(a)
            s = singular_values(m).values
            paired = np.sort(np.concatenate([-s, s[::-1]]))
            w_eigs = np.sort(np.linalg.eigvalsh(hermitize(m)))
            assert np.abs(w_eigs - paired).max() < 1e-8


class TestSingularValues:
    def test_identity(self):
        s = singular_values(from_array(np.eye(5))).values
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_diag(self):
        s = singular_values(from_array(np.diag([3.0, -4.0]))).values
        assert s == pytest.approx([4.0, 3.0])

    def test_sorted_descending_nonnegative(self, oracle_rng):
        a = oracle_rng.normal(size=(12, 12))
        s = singular_values(from_array(a)).values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_product_matches_determinant_oracle(self, oracle_rng):
        a = oracle_rng.normal(size=(8, 8))
        s = singular_values(from_array(a)).values
        det = abs(np.linalg.det(a))  # LU-based oracle
        assert np.prod(s) == pytest.approx(det, rel=1e-6)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(NumericError):
            singular_values(from_array(a))

    def test_constructed_bottom_within_eps_of_s1(self, oracle_rng):
        # Gram squaring clips s^2 below eps s_1^2 to 0; the SVD fallback must not
        n = 200
        bottom = np.array([1e-8, 1e-10, 1e-12])
        truth = np.concatenate([np.sort(oracle_rng.uniform(0.1, 2.0, n - 3))[::-1], bottom])
        u, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        s = singular_values(from_array((u * truth) @ v.T)).values
        eps = np.finfo(float).eps
        assert np.all(np.abs(s[-3:] - bottom) <= 10 * eps * truth[0])
        assert abs(np.sum(np.log(s)) - np.sum(np.log(truth))) <= 1e-3

    def test_fallback_ratio_matches_bench_mirror(self):
        # the benchmark's `refined` counter re-derives the fallback from this ratio
        path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans._REFINE_RATIO == linalg._REFINE_RATIO

    def test_spectrum_has_one_value_per_row(self):
        cfg = EnsembleConfig(8, 1.0, GAUSS, 3)
        sv = singular_values(shift(sample_matrix(cfg, 0), 0.5 + 0.25j))
        assert sv.n == 8


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(from_array(np.diag([1.0 + 0j, 1j, -2.0 + 0j])))
        assert np.allclose(spec.values, sorted([-2.0 + 0j, 1j, 1.0 + 0j], key=lambda v: (v.real, v.imag)))

    def test_upper_triangular(self, oracle_rng):
        a = np.triu(oracle_rng.normal(size=(6, 6)))
        got = np.sort(eigenvalues(from_array(a)).values.real)
        assert np.abs(got - np.sort(np.diag(a))).max() < 1e-10

    def test_companion_cube_roots_of_unity(self):
        companion = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        got = eigenvalues(from_array(companion)).values
        expected = np.array(sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                                   key=lambda v: (v.real, v.imag)))
        assert np.abs(got - expected).max() < 1e-9

    def test_residual_via_smallest_singular_value(self, oracle_rng):
        # independent residual check: each returned eigenvalue must make
        # X - lambda I nearly singular
        a = oracle_rng.normal(size=(24, 24))
        norm = operator_norm(from_array(a))
        for lam in eigenvalues(from_array(a)).values[:6]:
            resid = smallest_singular_value(from_array(a - lam * np.eye(24)))
            assert resid <= 1e-6 * norm

    def test_sorted_by_re_im(self, oracle_rng):
        vals = eigenvalues(from_array(oracle_rng.normal(size=(16, 16)))).values
        keys = [(v.real, v.imag) for v in vals]
        assert keys == sorted(keys)


class TestSmallestSingularValue:
    def test_exactly_singular(self, oracle_rng):
        a = oracle_rng.normal(size=(6, 6))
        a[:, 3] = a[:, 1]
        assert smallest_singular_value(from_array(a)) <= 1e-10

    def test_tiny_diagonal(self):
        got = smallest_singular_value(from_array(np.diag([1.0, 1e-12])))
        assert abs(got - 1e-12) <= 1e-14

    def test_inverse_norm_oracle(self, oracle_rng):
        a = oracle_rng.normal(size=(16, 16))
        got = smallest_singular_value(from_array(a))
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(a), 2)
        assert got == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize(
        "dist,cdf",
        [
            # Edelman (1988): n s_n(X)^2 is exactly Exp(1) for complex Gaussian X
            (CGAUSS, lambda x: 1.0 - np.exp(-x)),
            # and tends to this law for real Gaussian X
            (GAUSS, lambda x: 1.0 - np.exp(-x / 2.0 - np.sqrt(x))),
        ],
        ids=["ComplexGaussian", "RealGaussian"],
    )
    def test_edelman_law(self, dist, cdf):
        n, trials = 32, 400
        cfg = EnsembleConfig(n, 1.0, dist, 1)
        # sample_matrix scales X by 1/sqrt(n), so n s_n(X)^2 = n^2 s_n(A)^2
        x = [n * n * smallest_singular_value(sample_matrix(cfg, t)) ** 2 for t in range(trials)]
        assert stats.kstest(x, cdf).statistic <= ks_one_sample_critical(1e-3, trials)

    def test_agrees_with_full_spectrum(self, oracle_rng):
        a = oracle_rng.normal(size=(10, 10))
        sv = singular_values(from_array(a))
        assert smallest_singular_value(from_array(a)) == pytest.approx(sv.values[-1], rel=1e-10)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(from_array(np.eye(4))) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one(self, oracle_rng):
        u = oracle_rng.normal(size=7)
        v = oracle_rng.normal(size=7)
        got = operator_norm(from_array(np.outer(u, v)))
        assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)

    def test_consistency_with_max_singular_value(self, oracle_rng):
        a = oracle_rng.normal(size=(9, 9))
        assert operator_norm(from_array(a)) == pytest.approx(
            singular_values(from_array(a)).values[0], rel=1e-10
        )


class TestDistanceToSpan:
    def test_orthonormal_columns(self):
        for k in range(4):
            assert distance_to_span(np.eye(4), k) == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_column(self, oracle_rng):
        a = oracle_rng.normal(size=(5, 5))
        a[:, 2] = a[:, 4]
        assert distance_to_span(a, 2) <= 1e-10

    def test_least_squares_oracle(self, oracle_rng):
        a = oracle_rng.normal(size=(6, 6))
        for k in (0, 3, 5):
            others = np.delete(a, k, axis=1)
            _, residual_sq, *_ = np.linalg.lstsq(others, a[:, k], rcond=None)
            oracle = math.sqrt(float(residual_sq[0]))
            assert distance_to_span(a, k) == pytest.approx(oracle, abs=1e-8)

    def test_needs_two_columns(self):
        with pytest.raises(DomainError):
            distance_to_span(np.ones((3, 1)), 0)


class TestInvariants:
    def test_weyl_shift_bound(self, oracle_rng):
        cfg = EnsembleConfig(32, 1.0, CGAUSS, 9)
        m = sample_matrix(cfg, 0)
        for _ in range(5):
            z1 = complex(oracle_rng.normal(), oracle_rng.normal())
            z2 = complex(oracle_rng.normal(), oracle_rng.normal())
            s1 = singular_values(shift(m, z1)).values
            s2 = singular_values(shift(m, z2)).values
            assert np.abs(s1 - s2).max() <= abs(z1 - z2) + 1e-10

    def test_weyl_bound_for_smoothing(self):
        # a smoothing shift of radius r moves every singular value by at most r
        from circulaw import smoothing_shift
        from circulaw.ensemble import smoothing_stream

        cfg = EnsembleConfig(32, 1.0, GAUSS, 18)
        m = sample_matrix(cfg, 0)
        z = 0.4 + 0.3j
        base = singular_values(shift(m, z)).values
        r = 0.25
        smoothed = singular_values(shift(smoothing_shift(m, r, smoothing_stream(cfg, 0)), z)).values
        assert np.abs(base - smoothed).max() <= r + 1e-10

    def test_unitary_invariance(self, oracle_rng):
        n = 20
        a = oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n))
        u, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n)))
        s = singular_values(from_array(a)).values
        s_rot = singular_values(from_array(u @ a @ v)).values
        assert np.abs(s - s_rot).max() < 1e-8

    def test_log_determinant_consistency(self, oracle_rng):
        n = 24
        a = oracle_rng.normal(size=(n, n))
        s = singular_values(from_array(a)).values
        sign, logdet = np.linalg.slogdet(a)
        assert float(np.sum(np.log(s))) == pytest.approx(logdet, abs=1e-6 * n)

    def test_eigenvalue_sum_matches_trace(self, oracle_rng):
        a = oracle_rng.normal(size=(30, 30))
        spec = eigenvalues(from_array(a))
        assert abs(spec.values.sum() - np.trace(a)) < 1e-6 * 30
