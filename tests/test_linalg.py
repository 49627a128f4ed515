import ctypes
import importlib.util
import math
import pathlib
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

from circulaw import (
    EnsembleConfig,
    EntryDistribution,
    MatrixSample,
    NumericError,
    eigenvalues,
    sample_matrix,
    shift,
    singular_values,
)
from circulaw import linalg
from circulaw.ensemble import draw_unit_disc, smoothing_stream
from circulaw.errors import DomainError
from circulaw.linalg import certified_log_det, hermitize, truncation_window
from circulaw.parallel import parallel_map

from conftest import ks_one_sample_critical

GAUSS = EntryDistribution("RealGaussian")
CGAUSS = EntryDistribution("ComplexGaussian")


def draw_matrix(oracle_rng, shape, complex_):
    a = oracle_rng.normal(size=shape)
    return a + 1j * oracle_rng.normal(size=shape) if complex_ else a


def distance_to_other_columns(a, k):
    """Least-squares residual of column k against the span of the other columns."""
    others = np.delete(a, k, axis=1)
    return np.linalg.norm(a[:, k] - others @ np.linalg.lstsq(others, a[:, k], rcond=None)[0])


def bundled_openblas():
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not any(libs.glob("lib*openblas*")):
        pytest.skip("numpy does not bundle an OpenBLAS library")
    return linalg.openblas()


def inject_info(monkeypatch, routine, value):
    """Make LAPACK `routine` report `value` in info after it has run."""
    bundled_openblas()
    lapack = linalg._lapack

    def injecting(name):
        fn = lapack(name)
        if name != routine:
            return fn

        def failing(*args):
            fn(*args)
            args[-1].value = value

        return failing

    monkeypatch.setattr(linalg, "_lapack", injecting)


class TestShift:
    def test_zero_shift_is_identity(self):
        m = MatrixSample(np.arange(9.0).reshape(3, 3))
        out = shift(m, 0.0)
        assert np.array_equal(out.entries, m.entries)

    def test_one_by_one(self):
        out = shift(MatrixSample([[5.0]]), 2.0 + 1.0j)
        assert out.entries[0, 0] == 3.0 - 1.0j

    def test_trace_identity_exact(self):
        # dyadic entries and shift keep the identity exact in floating point
        m = MatrixSample(np.full((4, 4), 0.5))
        out = shift(m, 0.25)
        assert np.trace(out.entries) == np.trace(m.entries) - 4 * 0.25

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("x", [0, 0.3, -0.7 + 0.1j], ids=["x0", "x_real", "x_complex"])
    @pytest.mark.parametrize("z", [0, 1.1, 0.5 - 0.3j], ids=["z0", "z_real", "z_complex"])
    def test_shifts_in_turn_equal_shift_after_shift(self, oracle_rng, complex_, x, z):
        m = MatrixSample(draw_matrix(oracle_rng, (7, 7), complex_))
        once, twice = shift(m, x, z).entries, shift(shift(m, x), z).entries
        assert once.dtype == twice.dtype and once.tobytes() == twice.tobytes()

    def test_all_zero_shifts_return_the_sample(self):
        m = MatrixSample(np.arange(9.0).reshape(3, 3))
        assert shift(m) is m and shift(m, 0, 0j, -0.0) is m

    @pytest.mark.parametrize("r", [0.0, 0.25])
    def test_smoothing_then_shift_in_one_copy(self, r):
        from circulaw import smoothing_shift
        from circulaw.ensemble import smoothing_stream

        cfg = EnsembleConfig(16, 0.25, GAUSS, 4, theta=0.5)
        m = sample_matrix(cfg, 2)
        z = 0.5 + 0.5j
        two_step = shift(smoothing_shift(m, r, smoothing_stream(cfg, 2)), z).entries
        one_step = smoothing_shift(m, r, smoothing_stream(cfg, 2), z).entries
        assert one_step.dtype == two_step.dtype and one_step.tobytes() == two_step.tobytes()


class TestHermitize:
    def test_one_by_one(self):
        w = hermitize(MatrixSample(np.array([[2.0 + 1.0j]])))
        assert w.shape == (2, 2)
        assert w[0, 0] == 0 and w[1, 1] == 0
        assert w[0, 1] == 2.0 + 1.0j and w[1, 0] == 2.0 - 1.0j
        eigs = np.linalg.eigvalsh(w)
        assert eigs == pytest.approx([-abs(2 + 1j), abs(2 + 1j)])

    def test_frobenius_doubles(self):
        m = MatrixSample(np.arange(16.0).reshape(4, 4))
        w = hermitize(m)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(2 * np.sum(np.abs(m.entries) ** 2), rel=1e-14)

    def test_zero_blocks(self):
        m = MatrixSample(np.ones((3, 3)))
        w = hermitize(m)
        assert not w[:3, :3].any() and not w[3:, 3:].any()

    def test_eigenvalues_pair_with_singular_values(self, oracle_rng):
        for n in (2, 5, 17, 32):
            a = oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n))
            m = MatrixSample(a)
            s = singular_values(m).values
            paired = np.sort(np.concatenate([-s, s[::-1]]))
            w_eigs = np.sort(np.linalg.eigvalsh(hermitize(m)))
            assert np.abs(w_eigs - paired).max() < 1e-8


class TestSingularValues:
    def test_identity(self):
        s = singular_values(MatrixSample(np.eye(5))).values
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_diag(self):
        s = singular_values(MatrixSample(np.diag([3.0, -4.0]))).values
        assert s == pytest.approx([4.0, 3.0])

    def test_sorted_descending_nonnegative(self, oracle_rng):
        a = oracle_rng.normal(size=(12, 12))
        s = singular_values(MatrixSample(a)).values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_product_matches_determinant_oracle(self, oracle_rng):
        a = oracle_rng.normal(size=(8, 8))
        s = singular_values(MatrixSample(a)).values
        det = abs(np.linalg.det(a))  # LU-based oracle
        assert np.prod(s) == pytest.approx(det, rel=1e-6)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(NumericError):
            singular_values(MatrixSample(a))

    @pytest.mark.parametrize("kernel", [singular_values, linalg.frobenius_norm])
    @pytest.mark.parametrize("entry", [1e160, 1e160 + 1e160j])
    def test_overflowing_norm_rejected(self, kernel, entry):
        a = np.full((4, 4), entry)  # finite entries whose squares overflow
        with pytest.raises(NumericError):
            kernel(MatrixSample(a))

    def test_frobenius_norm_bounds_s1_to_the_last_bit(self, oracle_rng):
        # at n = 1, complex, s_1 = |a| = ||A||_F, and the rounded norm can sit an ulp
        # below the SVD's s_1; the bound is widened by its rounding, so it cannot
        a = oracle_rng.normal(size=(500, 1, 1)) + 1j * oracle_rng.normal(size=(500, 1, 1))
        s1 = np.linalg.svd(a, compute_uv=False)[:, 0]
        low = np.linalg.norm(a, axis=(1, 2)) < s1
        assert low.any()
        for m, top in zip(a[low], s1[low]):
            assert linalg.frobenius_norm(MatrixSample(m)) >= top

    def test_constructed_bottom_within_eps_of_s1(self, oracle_rng):
        # Gram squaring clips s^2 below eps s_1^2 to 0; the SVD fallback must not
        n = 200
        bottom = np.array([1e-8, 1e-10, 1e-12])
        truth = np.concatenate([np.sort(oracle_rng.uniform(0.1, 2.0, n - 3))[::-1], bottom])
        u, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        s = singular_values(MatrixSample((u * truth) @ v.T)).values
        eps = np.finfo(float).eps
        assert np.all(np.abs(s[-3:] - bottom) <= 10 * eps * truth[0])
        assert abs(np.sum(np.log(s)) - np.sum(np.log(truth))) <= 1e-3

    @staticmethod
    def spread_with_bottom(oracle_rng, ratio, n=200):
        """U diag(s) V^T with s_1..s_{n-1} on linspace(2, 1) and s_n = ratio * s_1."""
        truth = np.append(np.linspace(2.0, 1.0, n - 1), 2.0 * ratio)
        u, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(oracle_rng.normal(size=(n, n)))
        return MatrixSample((u * truth) @ v.T), truth

    def test_bottom_just_above_the_cutoff_keeps_the_gram_contract(self, oracle_rng):
        # the Gram path gets s_n to a relative error of about eps (s_1/s_n)^2 (5.5x at most
        # over 20 draws), 1.8e-3 at s_n = 2e-6 s_1 with the factor 32
        eps = np.finfo(float).eps
        for _ in range(5):
            sample, truth = self.spread_with_bottom(oracle_rng, 2e-6)
            s = singular_values(sample).values
            assert s[-1] >= linalg._REFINE_RATIO * s[0]  # no SVD fallback
            assert abs(s[-1] - truth[-1]) <= 32 * eps * (truth[0] / truth[-1]) ** 2 * truth[-1]

    def test_bottom_below_the_cutoff_takes_the_svd_bits(self, oracle_rng):
        sample, _ = self.spread_with_bottom(oracle_rng, 5e-7)
        s = singular_values(sample).values
        assert s.tobytes() == np.linalg.svd(sample.entries, compute_uv=False).tobytes()

    def test_lapack_failure_raises_numeric_error(self, monkeypatch, oracle_rng):
        inject_info(monkeypatch, "dsyevd", 1)  # info > 0: the tridiagonal QR did not converge
        with pytest.raises(NumericError, match="did not converge"):
            singular_values(MatrixSample(oracle_rng.normal(size=(8, 8))))

    @pytest.mark.parametrize("kernel", ["svd", "eigvalsh"])
    def test_numpy_failure_raises_numeric_error(self, monkeypatch, kernel):
        # numpy's LinAlgError is a ValueError, which the CLI reports as a usage error
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{kernel} did not converge")

        monkeypatch.setattr(np.linalg, kernel, unconverged)
        monkeypatch.setattr(linalg, "openblas", lambda: None)
        a = np.diag([1.0, 0.0]) if kernel == "svd" else np.eye(3)  # s_n = 0 takes the SVD
        with pytest.raises(NumericError):
            singular_values(MatrixSample(a))

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


def constructed(oracle_rng, n, bottom, complex_=False):
    """U diag(s) V^* with s_j uniform in [0.1, 2] above the given bottom values."""
    truth = np.concatenate([np.sort(oracle_rng.uniform(0.1, 2.0, n - len(bottom)))[::-1], bottom])
    draw = (lambda: oracle_rng.normal(size=(n, n)) + 1j * oracle_rng.normal(size=(n, n))) \
        if complex_ else (lambda: oracle_rng.normal(size=(n, n)))
    u, _ = np.linalg.qr(draw())
    v, _ = np.linalg.qr(draw())
    return MatrixSample((u * truth) @ v.conj().T), truth


class TestThresholdsBelowSn:
    """Counts of thresholds below s_n from potrf of A A^* - t^2 I, against the SVD."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_counts_equal_the_svd_at_one_part_in_a_million(self, oracle_rng, n, complex_):
        # s_1..s_{n-1} on linspace(2, 1) and s_n = t (1 -+ 1e-6): the decision at t is
        # exact while |s_n / t - 1| exceeds about eps (s_1 / t)^2, 9e-8 at t = 1e-4.
        # t / 2 stays above the cutoff 1e-6 ||A||_F (3.5e-5 at n = 512)
        u, v = (np.linalg.qr(draw_matrix(oracle_rng, (n, n), complex_))[0] for _ in range(2))
        for t in (1e-4, 1e-3, 1e-2):
            thresholds = np.array([t / 2, t, 2 * t])
            for side, count in ((-1.0, 1), (1.0, 2)):
                truth = np.append(np.linspace(2.0, 1.0, n - 1), t * (1.0 + side * 1e-6))
                a = (u * truth) @ v.conj().T
                s_n = np.linalg.svd(a, compute_uv=False)[-1]
                assert np.searchsorted(thresholds, s_n) == count
                assert linalg.thresholds_below_sn(MatrixSample(a), thresholds, math.inf) == count

    def test_a_threshold_below_the_cutoff_goes_back_to_the_caller(self, oracle_rng):
        a = MatrixSample(draw_matrix(oracle_rng, (16, 16), False))
        cutoff = linalg._REFINE_RATIO * np.linalg.norm(a.entries)
        s_n = np.linalg.svd(a.entries, compute_uv=False)[-1]
        assert linalg.thresholds_below_sn(a, np.array([cutoff / 2]), math.inf) is None
        # cutoff / 2 is not reached
        assert linalg.thresholds_below_sn(a, np.array([cutoff / 2, s_n / 2]), math.inf) == 2

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_a_ceiling_below_the_frobenius_bound_goes_back_to_the_caller(self, oracle_rng,
                                                                         complex_):
        # the ceiling is screened with frobenius_norm's bound to the last bit: at the
        # bound the search runs, an ulp below it the caller takes singular_values
        a = MatrixSample(draw_matrix(oracle_rng, (16, 16), complex_))
        bound = linalg.frobenius_norm(a)
        thresholds = np.array([1e-3, 1e-2, 1e-1, 1.0])
        count = linalg.thresholds_below_sn(a, thresholds, math.inf)
        assert count is not None
        assert linalg.thresholds_below_sn(a, thresholds, bound) == count
        assert linalg.thresholds_below_sn(a, thresholds, math.nextafter(bound, 0.0)) is None

    @pytest.mark.parametrize("thresholds", [[1.0, 1e-2, 1e-3], [1e-3, math.nan, 1.0],
                                            [math.nan], [1e-3, 1.0, 1.0, 0.5]],
                             ids=["descending", "nan_inside", "nan_alone", "drop_after_tie"])
    def test_unsorted_or_nan_thresholds_raise(self, thresholds):
        # s_n = 0.01046 here: [1, 1e-2, 1e-3] counted 3 below s_n, and [1e-3, nan, 1] 2;
        # equal neighbours stay legal
        a = sample_matrix(EnsembleConfig(64, 1.0, GAUSS, 3), 0)
        assert linalg.thresholds_below_sn(a, np.array([1e-3, 1e-2, 1e-2, 1.0, 1.0]), math.inf) == 3
        with pytest.raises(DomainError, match="ascending and not NaN"):
            linalg.thresholds_below_sn(a, np.array(thresholds), math.inf)

    def test_zero_matrix_has_every_threshold_at_or_above_s_n(self):
        zero = MatrixSample(np.zeros((3, 3)))
        assert linalg.thresholds_below_sn(zero, np.array([1e-300]), math.inf) == 0

    def test_non_finite_entries_raise(self):
        with pytest.raises(NumericError):
            linalg.thresholds_below_sn(MatrixSample(np.full((3, 3), np.nan)), np.array([0.1]),
                                       math.inf)

    def test_without_the_library_cholesky_decides_the_same(self, monkeypatch):
        thresholds = np.geomspace(1e-4, 1.0, 9)
        samples = [sample_matrix(EnsembleConfig(n, 1.0, dist, 9), t)
                   for n in (1, 2, 16, 64) for dist in (GAUSS, CGAUSS) for t in range(3)]
        binding = [linalg.thresholds_below_sn(a, thresholds, math.inf) for a in samples]
        monkeypatch.setattr(linalg, "openblas", lambda: None)
        assert [linalg.thresholds_below_sn(a, thresholds, math.inf) for a in samples] == binding

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
    def test_a_single_precision_or_integer_sample_counts_as_its_double_copy(self, dtype):
        # unit-variance entries, so the int64 copy is not the zero matrix; without the
        # constructor's cast potrf read a float32 or complex64 buffer as doubles and
        # counted 0 of the 6, and an int64 sample raised numpy's casting error
        a = (8.0 * sample_matrix(EnsembleConfig(64, 1.0, GAUSS, 3), 0).entries).astype(dtype)
        thresholds = np.geomspace(1e-4, 1.0, 9)
        double = MatrixSample(a.astype(np.result_type(dtype, np.float64)))
        count = linalg.thresholds_below_sn(double, thresholds, math.inf)
        assert 0 < count < len(thresholds)
        assert linalg.thresholds_below_sn(MatrixSample(a), thresholds, math.inf) == count


class TestCertifiedLogDet:
    def test_ill_conditioned_matrix_takes_the_exact_path(self, oracle_rng):
        # s_n = 1e-12 lies below the floor 1/200^3, so the certificate cannot clear it;
        # the exact path then gives log|det| to 1e-8 n of an SVD
        n = 200
        a, _ = constructed(oracle_rng, n, np.array([1e-8, 1e-10, 1e-12]))
        floor, ceiling = truncation_window(n, 1.0)
        assert certified_log_det(a, floor, ceiling, 1, 0) is None
        exact = np.sum(np.log(singular_values(a).values))
        oracle = np.sum(np.log(np.linalg.svd(a.entries, compute_uv=False)))
        assert abs(exact - oracle) <= 1e-8 * n

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_certificate_clears_and_bounds_hold(self, oracle_rng, complex_):
        n = 200
        a, truth = constructed(oracle_rng, n, np.array([1e-3, 1e-4]), complex_)
        floor, ceiling = truncation_window(n, 1.0)
        det = certified_log_det(a, floor, ceiling, 7, 3)
        assert det is not None and det.n == n
        s = np.linalg.svd(a.entries, compute_uv=False)
        assert floor <= det.lower <= s[-1] and s[0] <= det.upper <= ceiling
        assert abs(det.value - np.sum(np.log(s))) <= 1e-8 * n
        again = certified_log_det(a, floor, ceiling, 7, 3)
        assert (again.value, again.lower, again.upper) == (det.value, det.lower, det.upper)

    def test_dixon_bound_holds_on_sampled_matrices(self):
        for dist in (GAUSS, CGAUSS):
            cfg = EnsembleConfig(64, 1.0, dist, 5)
            for t in range(20):
                a = sample_matrix(cfg, t)
                det = certified_log_det(a, 0.0, math.inf, cfg.master_seed, t)
                s = np.linalg.svd(a.entries, compute_uv=False)
                assert det.lower <= s[-1] and s[0] <= det.upper
        # the Potential's case: a real sample under the complex shift r xi + z
        cfg = EnsembleConfig(64, 1.0, GAUSS, 5)
        for t in range(20):
            a = sample_matrix(cfg, t)
            shifts = (0.125 * draw_unit_disc(smoothing_stream(cfg, t)), 0.5 + 0.5j)
            det = certified_log_det(a, 0.0, math.inf, cfg.master_seed, t, shifts)
            s = np.linalg.svd(shift(a, *shifts).entries, compute_uv=False)
            assert det.lower <= s[-1] and s[0] <= det.upper

    def test_ceiling_not_cleared(self, oracle_rng):
        a = MatrixSample(oracle_rng.normal(size=(8, 8)))
        fro = np.linalg.norm(a.entries)
        assert certified_log_det(a, 0.0, 0.99 * fro, 1, 0) is None
        upper = certified_log_det(a, 0.0, math.inf, 1, 0).upper  # fro, widened by its rounding
        assert fro < upper <= fro * (1.0 + 1e-13)
        assert certified_log_det(a, 0.0, upper, 1, 0) is not None

    def test_floor_not_cleared(self, oracle_rng):
        a = MatrixSample(oracle_rng.normal(size=(8, 8)))
        s_n = np.linalg.svd(a.entries, compute_uv=False)[-1]
        assert certified_log_det(a, s_n, math.inf, 1, 0) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        a = np.eye(4, dtype=complex)
        a[2, 1] = bad
        with pytest.raises(NumericError):
            certified_log_det(MatrixSample(a), 0.0, math.inf, 1, 0)

    def test_exactly_singular_is_not_certified(self):
        a = np.arange(16.0).reshape(4, 4)  # rank 2
        a[:, 0] = 0.0
        assert certified_log_det(MatrixSample(a), 0.0, math.inf, 1, 0) is None


SHIFT_PAIRS = {"zero": (0, 0), "real": (0.3, 1.1), "complex": (0.02 - 0.05j, 0.5 + 0.5j)}


class TestShiftedCertificate:
    """certified_log_det(sample, ..., shifts) forms shift(sample, *shifts) in a buffer of its own."""

    @pytest.mark.parametrize("pair", SHIFT_PAIRS)
    @pytest.mark.parametrize("theta", [None, 0.5], ids=["dense", "sparse"])
    @pytest.mark.parametrize("dist", [GAUSS, CGAUSS], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 128, 512])
    def test_equals_the_certificate_of_the_explicit_shift(self, monkeypatch, n, dist, theta, pair):
        p_n = 1.0 if theta is None else float(n) ** (theta - 1.0)
        cfg = EnsembleConfig(n, p_n, dist, 11, **({} if theta is None else {"theta": theta}))
        shifts = SHIFT_PAIRS[pair]
        for t in range(2):
            a = sample_matrix(cfg, t)
            before = a.entries.tobytes()
            explicit = shift(a, *shifts)
            with linalg.single_threaded_blas():
                _, oracle = np.linalg.slogdet(explicit.entries)
            s = np.linalg.svd(explicit.entries, compute_uv=False)
            for window in ((0.0, math.inf), truncation_window(n, p_n)):
                det = certified_log_det(a, *window, 11, t, shifts)
                assert a.entries.tobytes() == before
                reference = certified_log_det(explicit, *window, 11, t)
                assert (det is None) == (reference is None)
                if window[1] == math.inf:  # only an exactly singular A fails the open window
                    assert (det is None) == (pair == "zero" and s[-1] == 0.0)
                if det is None:
                    continue
                assert det.value == reference.value == oracle
                assert det.lower <= s[-1] and s[0] <= det.upper
                with monkeypatch.context() as patched:  # no LAPACK: slogdet and solve
                    patched.setattr(linalg, "_lapack", lambda routine: None)
                    assert certified_log_det(a, *window, 11, t, shifts) == det


class TestAllocations:
    """Inside a warm hold, a kernel allocates only the n x n buffers its docstring names."""

    n = 256

    @staticmethod
    def _peak_bytes(kernel, sample):
        with linalg.single_threaded_blas():
            kernel(sample)  # opens the library and types its LAPACK routines
            tracemalloc.start()
            try:
                kernel(sample)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_a_shifted_sample_is_one_column_major_matrix(self):
        # shift allocates its result column-major, so the sample's constructor keeps it
        a = sample_matrix(EnsembleConfig(self.n, 1.0, GAUSS, 3), 0)
        peak = self._peak_bytes(lambda m: shift(m, 0.5j), a)
        assert shift(a, 0.5j).entries.flags.f_contiguous
        assert self.n * self.n * 16 <= peak < self.n * self.n * 16 * 3 // 2

    def test_shifted_certificate_allocates_one_complex_matrix(self):
        # the shifted matrix is formed and factored in one buffer of the call's own
        bundled_openblas()
        a = sample_matrix(EnsembleConfig(self.n, 1.0, GAUSS, 3), 0)
        before = a.entries.tobytes()
        peak = self._peak_bytes(
            lambda m: certified_log_det(m, 0.0, math.inf, 3, 0, SHIFT_PAIRS["complex"]), a)
        assert self.n * self.n * 16 <= peak < self.n * self.n * 16 * 3 // 2
        assert a.entries.tobytes() == before

    def test_eigenvalues_in_the_sample_allocate_less_than_one_complex_matrix(self):
        bundled_openblas()
        a = sample_matrix(EnsembleConfig(self.n, 1.0, CGAUSS, 3), 0)
        peak = self._peak_bytes(lambda m: eigenvalues(m, overwrite=True), a)
        assert peak < self.n * self.n * 16 // 2

    def test_threshold_count_holds_the_gram_product_and_one_factor(self):
        # each tested threshold is factored in a buffer that goes before the next test
        bundled_openblas()
        a = sample_matrix(EnsembleConfig(self.n, 1.0, GAUSS, 3), 0)
        thresholds = np.array([1e-4, 1e-3, 1e-2])
        peak = self._peak_bytes(lambda m: linalg.thresholds_below_sn(m, thresholds, math.inf), a)
        assert peak <= 2 * self.n * self.n * 8 + 64 * self.n * 8

    def test_singular_values_allocate_the_gram_product_and_o_n(self):
        bundled_openblas()
        a = sample_matrix(EnsembleConfig(self.n, 1.0, GAUSS, 3), 0)
        before = a.entries.tobytes()
        peak = self._peak_bytes(singular_values, a)
        assert peak <= self.n * self.n * 8 + 64 * self.n * 8
        assert a.entries.tobytes() == before


class TestOneLU:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 128, 512])
    def test_bits_equal_slogdet_and_solve(self, oracle_rng, n, complex_):
        a = draw_matrix(oracle_rng, (n, n), complex_)
        probes = draw_matrix(oracle_rng, (n, 10), complex_)
        with linalg.single_threaded_blas():
            value, x = linalg._log_det_and_solve(a.copy(order="F"), probes)  # LU overwrites it
            _, oracle = np.linalg.slogdet(a)
            solved = np.linalg.solve(a, probes)
        assert value == oracle
        assert np.array_equal(x, solved) and x.flags.c_contiguous

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_exactly_singular_returns_none(self, oracle_rng, complex_):
        # a zero column stays exactly zero under elimination, so U has u_33 = 0
        a = draw_matrix(oracle_rng, (6, 6), complex_)
        a[:, 2] = 0.0
        with linalg.single_threaded_blas():  # the hold that certified_log_det opens
            probes = draw_matrix(oracle_rng, (6, 10), complex_)
            assert linalg._log_det_and_solve(a.copy(order="F"), probes) is None

    def test_fallback_without_the_library_returns_the_same_certificate(self, monkeypatch):
        # n * n < 10^4 keeps OpenBLAS on its serial kernels even without the thread hold
        samples = [(sample_matrix(EnsembleConfig(n, 1.0, dist, 9), t), t)
                   for n in (1, 2, 3, 37, 64) for dist in (GAUSS, CGAUSS) for t in range(3)]
        one_lu = [certified_log_det(a, 0.0, math.inf, 9, t) for a, t in samples]
        monkeypatch.setattr(linalg, "openblas", lambda: None)
        fallback = [certified_log_det(a, 0.0, math.inf, 9, t) for a, t in samples]
        assert fallback == one_lu and None not in one_lu

    def test_binding_resolves_when_numpy_bundles_openblas(self):
        bundled_openblas()
        for routine in ("dgetrf", "zgetrf", "dgetrs", "zgetrs", "dsyevd", "zheevd", "dgeev",
                        "zgeev"):
            assert linalg._lapack(routine) is not None, routine
        for name in ("openblas_get_num_threads64_", "openblas_set_num_threads64_"):
            assert linalg._symbol(name) is not None, name


class TestPooledKernels:
    """A kernel called in the pool gives the bits of the same call made serially, and
    factors in a buffer that belongs to the call."""

    @staticmethod
    def _samples(count):
        return [sample_matrix(EnsembleConfig(128, 1.0, CGAUSS, 5), t) for t in range(count)]

    @staticmethod
    def _watch(monkeypatch):
        """Weak references to every factor buffer made from now on."""
        refs, shifted = [], linalg._shifted

        def watched(entries, shifts, dtype):
            buf = shifted(entries, shifts, dtype)
            refs.append(weakref.ref(buf))
            return buf

        monkeypatch.setattr(linalg, "_shifted", watched)
        return refs

    def test_each_call_factors_in_a_buffer_of_its_own(self, monkeypatch):
        bundled_openblas()
        a, b = self._samples(2)
        buffers = self._watch(monkeypatch)
        with linalg.single_threaded_blas():
            certified_log_det(a, 0.0, math.inf, 5, 0)
            assert len(buffers) == 1 and buffers[0]() is None  # gone inside the hold
            certified_log_det(b, 0.0, math.inf, 5, 1)
            worker = threading.Thread(target=certified_log_det, args=(b, 0.0, math.inf, 5, 1))
            worker.start()
            worker.join(timeout=60)
            assert len(buffers) == 3 and all(ref() is None for ref in buffers)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_no_buffer_outlives_the_pool(self, monkeypatch, workers):
        bundled_openblas()
        monkeypatch.setenv("CIRCULAW_THREADS", workers)
        buffers = self._watch(monkeypatch)
        parallel_map(lambda a: certified_log_det(a, 0.0, math.inf, 5, 0), self._samples(4))
        assert len(buffers) == 4 and all(ref() is None for ref in buffers)

    def test_no_buffer_outlives_a_direct_call(self, monkeypatch):
        bundled_openblas()
        buffers = self._watch(monkeypatch)
        certified_log_det(self._samples(1)[0], 0.0, math.inf, 5, 0)
        assert len(buffers) == 1 and buffers[0]() is None

    @pytest.mark.parametrize("workers", ["2", "4"])
    def test_pool_results_equal_serial_calls_bit_for_bit(self, monkeypatch, oracle_rng, workers):
        bundled_openblas()
        monkeypatch.setenv("CIRCULAW_THREADS", workers)
        jobs = [(a, t, draw_matrix(oracle_rng, (a.n, 10), True))
                for t, a in enumerate(self._samples(16))]

        def solve(job):
            a, t, b = job
            det = certified_log_det(a, 0.0, math.inf, 5, t)
            return det, linalg._log_det_and_solve(a.entries.copy(order="F"), b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = parallel_map(solve, jobs)
        finally:
            sys.setswitchinterval(interval)
        with linalg.single_threaded_blas():  # ||A||_F rounds with the BLAS thread count
            serial = [solve(job) for job in jobs]
        assert len({det.value for det, _ in serial}) == len(jobs)  # distinct matrices
        for (det, (value, x)), (serial_det, (serial_value, serial_x)) in zip(pooled, serial):
            assert det == serial_det
            assert value == serial_value and x.tobytes() == serial_x.tobytes()


class TestLapackCall:
    def test_ints_go_as_64_bit_integers_and_arrays_by_address(self):
        seen = []

        def routine(*args):
            seen.extend(args)
            args[-1].value = 2

        a = np.zeros(3)
        assert linalg._lapack_call(routine, b"N", 7, a) == 2
        trans, n, address, info = seen
        assert trans == b"N" and address == a.ctypes.data
        assert isinstance(n, ctypes.c_int64) and n.value == 7 and isinstance(info, ctypes.c_int64)

    # LAPACK flags an illegal i-th argument with info = -i and computes nothing, so
    # without the check the caller would go on with its buffers as they were
    def test_illegal_argument_in_the_eigensolve_raises(self, monkeypatch, oracle_rng):
        inject_info(monkeypatch, "dsyevd", -8)
        a = oracle_rng.normal(size=(8, 8))
        with pytest.raises(NumericError, match="argument 8"):
            linalg._eigvalsh(a @ a.T)

    def test_illegal_argument_in_the_solve_raises(self, monkeypatch, oracle_rng):
        inject_info(monkeypatch, "zgetrs", -3)
        a = MatrixSample(draw_matrix(oracle_rng, (8, 8), True))
        with pytest.raises(NumericError, match="argument 3"):
            certified_log_det(a, 0.0, math.inf, 1, 0)


class TestGramEigensolve:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 128, 512])
    def test_bits_equal_eigvalsh(self, oracle_rng, n, complex_):
        a = draw_matrix(oracle_rng, (n, n), complex_)
        g = a @ a.conj().T
        with linalg.single_threaded_blas():
            got = linalg._eigvalsh(g.copy())  # a real g is solved in place
            oracle = np.linalg.eigvalsh(g)
        assert got.tobytes() == oracle.tobytes()

    def test_fallback_without_the_library_returns_the_same_values(self, monkeypatch):
        # n * n < 10^4 keeps OpenBLAS on its serial kernels even without the thread hold
        samples = [sample_matrix(EnsembleConfig(n, 1.0, dist, 9), t)
                   for n in (1, 2, 3, 37, 64) for dist in (GAUSS, CGAUSS) for t in range(3)]
        binding = [singular_values(a).values.tobytes() for a in samples]
        monkeypatch.setattr(linalg, "openblas", lambda: None)
        assert [singular_values(a).values.tobytes() for a in samples] == binding

    # numpy's eigvalsh and eigvals keep the GIL for one matrix of n <= 500: under
    # eigvalsh the counter makes no step between `before` and `after`, and under
    # eigvals a few turns of 64 steps (at most 384 at n = 400, against ~65k for geev)
    @pytest.mark.parametrize("solve, bound", [
        (lambda a: linalg._eigvalsh(a @ a.T), 100),
        (lambda a: eigenvalues(MatrixSample(a)), 1024),
    ], ids=["gram", "geev"])
    def test_eigensolve_releases_the_gil(self, oracle_rng, solve, bound):
        bundled_openblas()
        a = oracle_rng.normal(size=(400, 400))
        steps, ready, stop = [0], threading.Event(), threading.Event()

        def count():
            ready.set()
            while not stop.is_set():
                steps[0] += 1
                if steps[0] % 64 == 0:
                    time.sleep(0)  # hand the GIL back to a waiting thread

        interval = sys.getswitchinterval()
        sys.setswitchinterval(10.0)  # no forced switch: only a released GIL lets the counter run
        counter = threading.Thread(target=count)
        try:
            counter.start()
            assert ready.wait(timeout=60)
            with linalg.single_threaded_blas():
                before = steps[0]
                solve(a)
                after = steps[0]
        finally:
            stop.set()
            counter.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not counter.is_alive()
        assert after - before > bound


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(MatrixSample(np.diag([1.0 + 0j, 1j, -2.0 + 0j])))
        assert np.allclose(spec.values, sorted([-2.0 + 0j, 1j, 1.0 + 0j], key=lambda v: (v.real, v.imag)))

    def test_upper_triangular(self, oracle_rng):
        a = np.triu(oracle_rng.normal(size=(6, 6)))
        got = np.sort(eigenvalues(MatrixSample(a)).values.real)
        assert np.abs(got - np.sort(np.diag(a))).max() < 1e-10

    def test_companion_cube_roots_of_unity(self):
        companion = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        got = eigenvalues(MatrixSample(companion)).values
        expected = np.array(sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                                   key=lambda v: (v.real, v.imag)))
        assert np.abs(got - expected).max() < 1e-9

    def test_residual_via_smallest_singular_value(self, oracle_rng):
        # independent residual check: each returned eigenvalue must make
        # X - lambda I nearly singular
        a = oracle_rng.normal(size=(24, 24))
        norm = singular_values(MatrixSample(a)).values[0]
        for lam in eigenvalues(MatrixSample(a)).values[:6]:
            resid = singular_values(MatrixSample(a - lam * np.eye(24))).values[-1]
            assert resid <= 1e-6 * norm

    def test_sorted_by_re_im(self, oracle_rng):
        vals = eigenvalues(MatrixSample(oracle_rng.normal(size=(16, 16)))).values
        keys = [(v.real, v.imag) for v in vals]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 128, 512])
    def test_bits_equal_sorted_eigvals(self, oracle_rng, n, complex_):
        bundled_openblas()
        a = draw_matrix(oracle_rng, (n, n), complex_)
        with linalg.single_threaded_blas():
            oracle = np.linalg.eigvals(a).astype(np.complex128)
        oracle = oracle[np.lexsort((oracle.imag, oracle.real))].tobytes()
        for order in ("C", "F"):
            for overwrite in (False, True):
                got = eigenvalues(MatrixSample(np.array(a, order=order)), overwrite=overwrite)
                assert got.values.tobytes() == oracle, (order, overwrite)

    def test_a_real_spectrum_has_positive_zero_imaginary_parts_as_in_eigvals(self, oracle_rng):
        a = oracle_rng.normal(size=(40, 40))
        a += a.T
        with linalg.single_threaded_blas():
            got = linalg._eigvals(a, False)
            oracle = np.linalg.eigvals(a).astype(np.complex128)
        assert not np.signbit(got.imag).any() and got.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_fallback_without_the_library_returns_the_same_values(self, monkeypatch, overwrite):
        samples = [(EnsembleConfig(n, 1.0, dist, 9), t)
                   for n in (1, 2, 3, 37, 64) for dist in (GAUSS, CGAUSS) for t in range(3)]

        def spectra():
            return [eigenvalues(sample_matrix(cfg, t), overwrite=overwrite)
                    .values.tobytes() for cfg, t in samples]

        binding = spectra()
        monkeypatch.setattr(linalg, "openblas", lambda: None)
        assert spectra() == binding

    @pytest.mark.parametrize("order, overwrite", [("C", False), ("F", False), ("C", True)])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_the_callers_sample_is_only_read(self, oracle_rng, complex_, order, overwrite):
        # without overwrite the sample is only read; with it, a row-major array is
        # copied by the sample's constructor, so the caller's array is only read
        array = np.array(draw_matrix(oracle_rng, (64, 64), complex_), order=order)
        before = array.tobytes()
        a = MatrixSample(array)
        eigenvalues(a, overwrite=overwrite)
        assert array.tobytes() == before
        if not overwrite:
            assert a.entries.tobytes() == before

    def test_a_read_only_sample_is_only_read_with_overwrite(self, oracle_rng):
        a = MatrixSample(draw_matrix(oracle_rng, (64, 64), True))
        a.entries.flags.writeable = False
        before = a.entries.tobytes()
        eigenvalues(a, overwrite=True)
        assert a.entries.tobytes() == before

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_solves_in_the_sample(self, oracle_rng, order):
        bundled_openblas()
        a = MatrixSample(np.array(draw_matrix(oracle_rng, (64, 64), True), order=order))
        before = a.entries.tobytes()
        expected = eigenvalues(a).values
        assert eigenvalues(a, overwrite=True).values.tobytes() == expected.tobytes()
        assert a.entries.tobytes() != before

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rejected(self, bad):
        a = np.eye(4)
        a[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            eigenvalues(MatrixSample(a))

    @pytest.mark.parametrize("library", [True, False], ids=["geev", "eigvals"])
    def test_a_non_square_sample_is_rejected_before_lapack(self, monkeypatch, library):
        # geev would read n x n entries from a buffer of n x m; the sample's own
        # constructor refuses the shape, so no kernel sees it
        if not library:
            monkeypatch.setattr(linalg, "openblas", lambda: None)
        with pytest.raises(DomainError, match="square"):
            eigenvalues(MatrixSample(np.ones((4, 3), order="F")), overwrite=True)

    def test_no_convergence_raises_numeric_error(self, monkeypatch, oracle_rng):
        inject_info(monkeypatch, "zgeev", 2)
        with pytest.raises(NumericError, match="did not converge"):
            eigenvalues(MatrixSample(draw_matrix(oracle_rng, (8, 8), True)))

    def test_illegal_argument_raises(self, monkeypatch, oracle_rng):
        inject_info(monkeypatch, "dgeev", -13)
        with pytest.raises(NumericError, match="argument 13"):
            eigenvalues(MatrixSample(oracle_rng.normal(size=(8, 8))))


class TestSmallestSingularValue:
    def test_exactly_singular(self, oracle_rng):
        a = oracle_rng.normal(size=(6, 6))
        a[:, 3] = a[:, 1]
        assert singular_values(MatrixSample(a)).values[-1] <= 1e-10

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_column_distances_bracket_s_n(self, oracle_rng, complex_):
        # Rudelson-Vershynin: min_k dist(A_k, H_k) / sqrt(n) <= s_n(A) <= min_k dist(A_k, H_k),
        # H_k the span of the other columns; the oracle distance is a least-squares residual
        n = 6
        for near in (None, 1e-6):  # a generic matrix, then one with two columns 1e-6 apart
            a = draw_matrix(oracle_rng, (n, n), complex_)
            if near is not None:
                a[:, 2] = a[:, 4] + near * draw_matrix(oracle_rng, n, complex_)
            dist = min(distance_to_other_columns(a, k) for k in range(n))
            s_n = singular_values(MatrixSample(a)).values[-1]
            assert dist / math.sqrt(n) <= s_n * (1 + 1e-8) and s_n <= dist * (1 + 1e-8)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_orthonormal_columns_have_unit_spectrum(self, oracle_rng, complex_):
        q, _ = np.linalg.qr(draw_matrix(oracle_rng, (8, 8), complex_))
        assert np.abs(singular_values(MatrixSample(q)).values - 1.0).max() <= 1e-12

    def test_tiny_diagonal(self):
        got = singular_values(MatrixSample(np.diag([1.0, 1e-12]))).values[-1]
        assert abs(got - 1e-12) <= 1e-14

    def test_inverse_norm_oracle(self, oracle_rng):
        a = oracle_rng.normal(size=(16, 16))
        got = singular_values(MatrixSample(a)).values[-1]
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
        x = [n * n * singular_values(sample_matrix(cfg, t)).values[-1] ** 2 for t in range(trials)]
        assert stats.kstest(x, cdf).statistic <= ks_one_sample_critical(1e-3, trials)


class TestOperatorNorm:
    def test_identity(self):
        assert singular_values(MatrixSample(np.eye(4))).values[0] == pytest.approx(1.0, abs=1e-12)

    def test_rank_one(self, oracle_rng):
        u = oracle_rng.normal(size=7)
        v = oracle_rng.normal(size=7)
        got = singular_values(MatrixSample(np.outer(u, v))).values[0]
        assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)


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
        s = singular_values(MatrixSample(a)).values
        s_rot = singular_values(MatrixSample(u @ a @ v)).values
        assert np.abs(s - s_rot).max() < 1e-8

    def test_log_determinant_consistency(self, oracle_rng):
        n = 24
        a = oracle_rng.normal(size=(n, n))
        s = singular_values(MatrixSample(a)).values
        sign, logdet = np.linalg.slogdet(a)
        assert float(np.sum(np.log(s))) == pytest.approx(logdet, abs=1e-6 * n)

    def test_eigenvalue_sum_matches_trace(self, oracle_rng):
        a = oracle_rng.normal(size=(30, 30))
        spec = eigenvalues(MatrixSample(a))
        assert abs(spec.values.sum() - np.trace(a)) < 1e-6 * 30
