import json
import math
import statistics
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from circulaw import (
    ConfigError,
    DomainError,
    EnsembleConfig,
    EntryDistribution,
    MatrixSample,
    sample_matrix,
    shift,
    smoothing_shift,
)
from circulaw import rng
from circulaw.ensemble import (
    draw_entry,
    draw_rows,
    draw_unit_disc,
    log_moment_estimate,
    mask_rows,
    smoothing_stream,
)
from circulaw.linalg import eigenvalues, singular_values
from circulaw.textio import stable_dumps

from conftest import ks_two_sample_critical, two_sample_ks

GAUSS = EntryDistribution("RealGaussian")
CGAUSS = EntryDistribution("ComplexGaussian")
RADEMACHER = EntryDistribution("Rademacher")
ALL_DISTS = [
    GAUSS,
    CGAUSS,
    RADEMACHER,
    EntryDistribution("ComplexRademacher"),
    EntryDistribution("UniformSymmetric"),
    EntryDistribution("TwoPoint", a=3.0, p=0.1),
]


def _bulk_draws(dist, m, seed=0):
    keys = rng.grid_keys(seed, rng.ROLE_VALUE, 0, m, 1)
    words = np.stack([rng.word_grid(keys, i) for i in range(dist.words_per_draw)], axis=0)
    from circulaw.ensemble import _values_from_words

    return _values_from_words(dist, words)[:, 0]


class TestEntryDistribution:
    def test_rademacher_values(self):
        stream = rng.Stream(rng.derive_key(1, 2, 3))
        draws = {draw_entry(RADEMACHER, stream) for _ in range(64)}
        assert draws == {-1.0, 1.0}

    @pytest.mark.parametrize("tag", ["Rademacher", "ComplexRademacher"])
    def test_signs_are_the_top_bits_of_the_word(self, oracle_rng, tag):
        # bit 63 signs the real part and bit 62 the imaginary part, as a
        # where(bit == 0, 1, -1) on each, scaled by 1/sqrt(2) in the plane
        from circulaw.ensemble import _values_from_words

        words = oracle_rng.integers(0, 2**64, size=(500, 1), dtype=np.uint64)
        words[:4, 0] = [0, 1 << 63, 1 << 62, (1 << 63) | (1 << 62)]
        re = np.where(words[:, 0] >> np.uint64(63) == 0, 1.0, -1.0)
        im = np.where((words[:, 0] >> np.uint64(62)) & np.uint64(1) == 0, 1.0, -1.0)
        expected = re if tag == "Rademacher" else (re + 1j * im) * (1.0 / math.sqrt(2.0))
        got = _values_from_words(EntryDistribution(tag), words.T)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_twopoint_constructor_contract(self):
        with pytest.raises(ConfigError):
            EntryDistribution("TwoPoint", a=3.0, p=1.0 / 9.0)  # variance 9/8, not 1
        with pytest.raises(ConfigError, match="a > 0"):
            EntryDistribution("TwoPoint", a=-3.0, p=0.9)  # variance 1, but a < 0
        d = EntryDistribution("TwoPoint", a=3.0, p=0.1)
        vals, weights = d.atoms()
        assert abs(np.dot(vals, weights)) < 1e-15
        assert abs(np.dot(np.abs(vals) ** 2, weights) - 1.0) < 1e-15

    def test_parameters_rejected_on_parameter_free_laws(self):
        with pytest.raises(ConfigError):
            EntryDistribution("Rademacher", a=1.0)

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            EntryDistribution("Cauchy")

    def test_complex_gaussian_second_moment_5sigma(self):
        m = 1_000_000
        draws = _bulk_draws(CGAUSS, m)
        # |X|^2 ~ Exp(1): sd of the mean is 1/sqrt(m)
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) <= 5.0 / math.sqrt(m)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.tag)
    def test_mean_and_second_moment_5sigma(self, dist):
        m = 1_000_000
        draws = _bulk_draws(dist, m)
        # E|mean|^2 = E|X|^2/m = 1/m, so |mean| beyond 5/sqrt(m) is a 5-sigma event
        assert abs(np.mean(draws)) <= 5.0 / math.sqrt(m)
        sq = np.abs(draws) ** 2
        sd = np.std(sq, ddof=1)
        if sd == 0:  # Rademacher-type laws have |X| constant
            assert abs(np.mean(sq) - 1.0) < 1e-12
        else:
            assert abs(np.mean(sq) - 1.0) <= 5.0 * sd / math.sqrt(m)

    def test_complex_parts_independent_variance(self):
        draws = _bulk_draws(CGAUSS, 200_000)
        assert abs(np.var(draws.real) - 0.5) < 0.01
        assert abs(np.var(draws.imag) - 0.5) < 0.01
        assert abs(np.mean(draws.real * draws.imag)) < 0.01


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(0, 1.0, GAUSS, 1)
        with pytest.raises(ConfigError):
            EnsembleConfig(8, 0.0, GAUSS, 1)
        with pytest.raises(ConfigError):
            EnsembleConfig(8, 1.5, GAUSS, 1)
        with pytest.raises(ConfigError, match="master_seed"):
            EnsembleConfig(8, 1.0, GAUSS, 2**64)
        with pytest.raises(ConfigError, match="theta must lie"):
            EnsembleConfig(8, 0.5, GAUSS, 1, theta=1.5)

    def test_theta_consistency(self):
        cfg = EnsembleConfig.from_theta(1024, 0.5, GAUSS, 1)
        assert cfg.p_n == pytest.approx(1.0 / 32.0, rel=1e-15)
        with pytest.raises(ConfigError):
            EnsembleConfig(1024, 0.04, GAUSS, 1, theta=0.5)

    def test_json_roundtrip(self):
        cfg = EnsembleConfig(64, 0.25, EntryDistribution("TwoPoint", a=3.0, p=0.1), 99)
        back = EnsembleConfig.from_json_dict(json.loads(stable_dumps(cfg.to_json_dict())))
        assert back == cfg

    def test_unknown_fields_rejected(self):
        cfg = EnsembleConfig(8, 1.0, GAUSS, 1)
        d = cfg.to_json_dict()
        d["extra"] = 1
        with pytest.raises(ConfigError):
            EnsembleConfig.from_json_dict(d)
        d2 = cfg.to_json_dict()
        d2["dist"]["junk"] = True
        with pytest.raises(ConfigError):
            EnsembleConfig.from_json_dict(d2)


def _row_major_reference(cfg, trial):
    """A trial's sample drawn another way: the value grid by rows, scaled, then
    masked for p_n < 1."""
    n, seed = cfg.n, cfg.master_seed
    rows = draw_rows(cfg.dist, seed, rng.ROLE_VALUE, trial, range(n), n) / math.sqrt(n * cfg.p_n)
    if cfg.p_n == 1.0:
        return rows
    return np.where(mask_rows(seed, rng.ROLE_MASK, trial, range(n), n, cfg.p_n), rows, 0.0)


class TestSampleMatrix:
    def test_dense_rademacher_deterministic(self):
        cfg = EnsembleConfig(4, 1.0, RADEMACHER, 7)
        m = sample_matrix(cfg, 0)
        assert set(np.unique(m.entries)) <= {-0.5, 0.5}
        again = sample_matrix(cfg, 0)
        assert np.array_equal(m.entries, again.entries)

    def test_trials_differ(self):
        cfg = EnsembleConfig(16, 1.0, GAUSS, 7)
        assert not np.array_equal(sample_matrix(cfg, 0).entries, sample_matrix(cfg, 1).entries)

    # keys keep 64 bits of each label: trial -1 was the matrix of trial 2^64 - 1
    @pytest.mark.parametrize("trial", [-1, 2**64])
    @pytest.mark.parametrize("p_n", [1.0, 0.5], ids=["dense", "sparse"])
    def test_trial_index_outside_64_bits_is_rejected(self, trial, p_n):
        with pytest.raises(ConfigError, match="trial index"):
            sample_matrix(EnsembleConfig(2, p_n, GAUSS, 1), trial)

    @pytest.mark.parametrize("theta", [None, 0.5], ids=["dense", "theta=0.5"])
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.tag)
    def test_column_major_sample_has_the_row_major_values(self, dist, theta):
        n = 300  # three row blocks
        cfg = (EnsembleConfig(n, 1.0, dist, 4) if theta is None
               else EnsembleConfig.from_theta(n, theta, dist, 4))
        rows = _row_major_reference(cfg, 2)
        cols = sample_matrix(cfg, 2).entries
        assert rows.flags.c_contiguous and cols.flags.f_contiguous
        assert cols.dtype == rows.dtype and np.ascontiguousarray(cols).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("theta", [None, 0.5], ids=["dense", "theta=0.5"])
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.tag)
    def test_column_major_sample_fills_by_column_blocks(self, dist, theta, monkeypatch):
        # n = 256 is two blocks of 2^15 keys: 128 columns each for the sample, 128 rows
        # for the reference
        n, walks = 256, []
        key_blocks = rng.key_blocks

        def watched(*args, by_columns=False):
            walks.append(by_columns)
            return key_blocks(*args, by_columns)

        monkeypatch.setattr(rng, "key_blocks", watched)
        cfg = (EnsembleConfig(n, 1.0, dist, 6) if theta is None
               else EnsembleConfig.from_theta(n, theta, dist, 6))
        cols = sample_matrix(cfg, 1).entries
        rows = _row_major_reference(cfg, 1)
        assert cols.flags.f_contiguous and np.ascontiguousarray(cols).tobytes() == rows.tobytes()
        # the dense value grid is walked by columns, the sparse mask by rows (the
        # sparse values are keyed at their positions), then the reference by rows
        assert walks == ([True, False] if theta is None else [False, False, False])

    def test_a_non_config_is_rejected(self):
        with pytest.raises(ConfigError, match="expects an EnsembleConfig"):
            sample_matrix({"n": 2, "p_n": 1.0}, 0)

    def test_largest_trial_index_is_its_own_trial(self):
        cfg = EnsembleConfig(2, 1.0, GAUSS, 1)
        last = sample_matrix(cfg, 2**64 - 1).entries
        assert np.isfinite(last).all() and not np.array_equal(last, sample_matrix(cfg, 0).entries)

    def test_sparse_zero_fraction_in_binomial_interval(self):
        n, p = 1024, 0.1
        cfg = EnsembleConfig(n, p, GAUSS, 123)
        frac_zero = float(np.mean(sample_matrix(cfg, 0).entries == 0.0))
        # 99.9% two-sided binomial interval around 1-p over n^2 draws
        z = statistics.NormalDist().inv_cdf(1.0 - 0.001 / 2.0)
        half_width = z * math.sqrt(p * (1 - p) / n**2)
        assert abs(frac_zero - (1 - p)) <= half_width

    def test_dense_gaussian_entry_second_moment(self):
        n = 512
        cfg = EnsembleConfig(n, 1.0, GAUSS, 5)
        sq = np.abs(sample_matrix(cfg, 0).entries) ** 2
        # entries are N(0,1/n): var(|e|^2) = 2/n^2, averaged over n^2 entries
        sigma = math.sqrt(2.0 / n**2) / n
        assert abs(float(sq.mean()) - 1.0 / n) <= 5.0 * sigma

    def test_entry_reproducible_from_labels(self):
        cfg = EnsembleConfig(16, 0.5, CGAUSS, 31337)
        m = sample_matrix(cfg, 3)
        for j, k in [(0, 0), (5, 11), (15, 15), (7, 2)]:
            val_stream = rng.Stream(rng.derive_key(cfg.master_seed, rng.ROLE_VALUE, 3, j, k))
            value = draw_entry(CGAUSS, val_stream)
            mask_stream = rng.Stream(rng.derive_key(cfg.master_seed, rng.ROLE_MASK, 3, j, k))
            kept = mask_stream.uniform() < cfg.p_n
            expected = value / math.sqrt(16 * 0.5) if kept else 0.0
            assert m.entries[j, k] == expected

    def test_dense_entries_are_raw_draws_over_sqrt_n(self):
        # p_n = 1 must consume no mask randomness: every entry is X_jk/sqrt(n)
        cfg = EnsembleConfig(8, 1.0, GAUSS, 2222)
        m = sample_matrix(cfg, 1)
        assert not np.any(m.entries == 0.0)
        for j, k in [(0, 0), (3, 7), (7, 7)]:
            stream = rng.Stream(rng.derive_key(cfg.master_seed, rng.ROLE_VALUE, 1, j, k))
            assert m.entries[j, k] == draw_entry(GAUSS, stream) / math.sqrt(8)

    def test_sparsity_observed_fraction(self):
        n, p = 256, 0.3
        cfg = EnsembleConfig(n, p, RADEMACHER, 8)
        observed = float(np.mean(sample_matrix(cfg, 0).entries != 0.0))
        assert abs(observed - p) <= 5.0 * math.sqrt(p * (1 - p) / n**2)

    def test_entry_scaling_over_trials(self):
        n = 128
        cfg = EnsembleConfig(n, 1.0, EntryDistribution("UniformSymmetric"), 77)
        sq = np.concatenate([np.abs(sample_matrix(cfg, t).entries) ** 2 for t in range(8)])
        pooled = sq.ravel()
        sd = pooled.std(ddof=1) / math.sqrt(pooled.size)
        assert abs(pooled.mean() - 1.0 / n) <= 5.0 * sd

    def test_real_dists_give_real_dtype(self):
        cfg = EnsembleConfig(8, 1.0, GAUSS, 7)
        assert sample_matrix(cfg, 0).entries.dtype == np.float64
        cfgc = EnsembleConfig(8, 1.0, CGAUSS, 7)
        assert sample_matrix(cfgc, 0).entries.dtype == np.complex128

    # p_n = 1e-9 leaves the 16 x 16 mask empty, theta = 0.5 at n = 100 keeps ~10 %,
    # and p_n = 1 - 1e-9 keeps every entry but takes the mask path
    @pytest.mark.parametrize("n, p_n", [(16, 1e-9), (100, 100 ** -0.5), (37, 0.3), (33, 1 - 1e-9)])
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.tag)
    def test_sparse_sampler_is_the_masked_value_grid_bit_for_bit(self, dist, n, p_n):
        cfg = EnsembleConfig(n, p_n, dist, 4242)
        for t in (0, 5):
            mask = mask_rows(cfg.master_seed, rng.ROLE_MASK, t, range(n), n, p_n)
            values = draw_rows(dist, cfg.master_seed, rng.ROLE_VALUE, t, range(n), n)
            expected = np.where(mask, values, 0.0) / math.sqrt(n * p_n)
            got = sample_matrix(cfg, t).entries
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


# the workloads' p_n, the extremes, and p_n = 0.5 + 2^-40, whose threshold lies
# where m + 0.5 rounds (m >= 2^52)
THRESHOLD_P = [512 ** -0.5, 32 ** -0.5, 1e-9, 0.3, 0.5 + 2.0 ** -40, 1 - 1e-9]


class TestMaskThreshold:
    @pytest.mark.parametrize("p_n", THRESHOLD_P)
    def test_boundary_words_match_the_float_compare(self, p_n):
        count = rng._uniform_count(p_n)
        words = np.array(
            [(count - 1) << 11, (count << 11) - 1, count << 11], dtype=np.uint64
        )
        expected = rng.uniform_from_words(words) < p_n
        assert expected.tolist() == [True, True, False]
        assert rng.uniform_below(words, p_n).tolist() == expected.tolist()

    @pytest.mark.parametrize("p_n", THRESHOLD_P)
    def test_keyed_words_match_the_float_compare(self, p_n):
        keys = rng.grid_keys(5, rng.ROLE_MASK, 0, 100_000, 1)
        expected = rng.uniform_from_words(rng.word_grid(keys, 0)) < p_n
        assert np.array_equal(mask_rows(5, rng.ROLE_MASK, 0, range(100_000), 1, p_n), expected)

    def test_extreme_p(self):
        words = np.array([0, 1 << 63, rng.MASK64], dtype=np.uint64)
        assert rng.uniform_below(words, 2.0).all()
        assert not rng.uniform_below(words, 0.0).any()
        assert not rng.uniform_below(words, math.nan).any()


class TestSamplerKernel:
    @pytest.mark.parametrize("dist, theta", [
        pytest.param(GAUSS, None, id="dense"),
        pytest.param(GAUSS, 0.5, id="theta=0.5"),
        # a complex block wrote three complex temporaries: 3.1 MiB over the output
        pytest.param(CGAUSS, None, id="complex-dense"),
    ])
    def test_scratch_memory_is_bounded(self, dist, theta):
        # row blocks keep the sampler's scratch near 2^15 keys' worth of buffers
        n = 512
        cfg = (EnsembleConfig(n, 1.0, dist, 3) if theta is None
               else EnsembleConfig.from_theta(n, theta, dist, 3))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            entries = sample_matrix(cfg, 0).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= entries.nbytes + 2 * 2**20

    def test_threads_sample_independently(self):
        cfgs = [EnsembleConfig(300, 1.0, CGAUSS, 8), EnsembleConfig.from_theta(300, 0.5, GAUSS, 8)]
        jobs = [(cfg, t) for cfg in cfgs for t in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda job: sample_matrix(*job).entries, jobs))
        for job, got in zip(jobs, threaded):
            assert got.tobytes() == sample_matrix(*job).entries.tobytes()


class TestSmoothing:
    def test_r_zero_inert(self):
        cfg = EnsembleConfig(8, 1.0, GAUSS, 7)
        m = sample_matrix(cfg, 0)
        out = smoothing_shift(m, 0.0, smoothing_stream(cfg, 0))
        assert np.array_equal(out.entries, m.entries)

    def test_negative_radius_rejected(self):
        cfg = EnsembleConfig(4, 1.0, GAUSS, 7)
        with pytest.raises(DomainError):
            smoothing_shift(sample_matrix(cfg, 0), -0.1, smoothing_stream(cfg, 0))

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, r):
        # a NaN or infinite radius would write a non-finite diagonal
        cfg = EnsembleConfig(4, 1.0, GAUSS, 7)
        with pytest.raises(DomainError):
            smoothing_shift(sample_matrix(cfg, 0), r, smoothing_stream(cfg, 0))

    @pytest.mark.parametrize("dist", [GAUSS, CGAUSS], ids=["real", "complex"])
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_is_the_diagonal_shift_by_r_xi(self, dist, r):
        cfg = EnsembleConfig(6, 1.0, dist, 11)
        for t in range(3):
            m = sample_matrix(cfg, t)
            got = smoothing_shift(m, r, smoothing_stream(cfg, t)).entries
            want = shift(m, r * draw_unit_disc(smoothing_stream(cfg, t))).entries
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_eigenvalues_shift_by_r_xi(self):
        cfg = EnsembleConfig(48, 1.0, GAUSS, 21)
        m = sample_matrix(cfg, 0)
        r = 0.5
        out = smoothing_shift(m, r, smoothing_stream(cfg, 0))
        xi = draw_unit_disc(smoothing_stream(cfg, 0))
        expected = eigenvalues(m).values - r * xi
        shifted = eigenvalues(out).values
        gaps = np.abs(expected[:, None] - shifted[None, :])
        assert gaps.min(axis=1).max() < 1e-8
        assert gaps.min(axis=0).max() < 1e-8

    def test_unit_disc_draw_law(self, oracle_rng):
        stream = rng.Stream(rng.derive_key(5, rng.ROLE_XI, 0))
        draws = np.array([draw_unit_disc(stream) for _ in range(20_000)])
        assert np.abs(draws).max() <= 1.0
        # |xi|^2 should be U[0,1]; angles U[0, 2pi)
        stat = two_sample_ks(np.abs(draws) ** 2, oracle_rng.uniform(size=20_000))
        assert stat < ks_two_sample_critical(1e-3, 20_000, 20_000)

    def test_pooled_spectrum_matches_convolution_oracle(self, oracle_rng):
        # Pooled eigenvalues of smoothed samples vs pooled inputs plus an
        # independently sampled uniform-disc perturbation of radius r.
        # Eigenvalues within one trial share one smoothing draw, so the
        # level-1e-3 KS test is calibrated by permuting trial blocks rather
        # than by the iid critical value.
        cfg = EnsembleConfig(64, 1.0, GAUSS, 303)
        r, trials = 0.5, 200
        smoothed, convolved = [], []
        for t in range(trials):
            m = sample_matrix(cfg, t)
            base = eigenvalues(m).values
            out = smoothing_shift(m, r, smoothing_stream(cfg, t))
            smoothed.append(eigenvalues(out).values)
            u, theta = oracle_rng.uniform(), oracle_rng.uniform(0.0, 2.0 * math.pi)
            xi = math.sqrt(u) * complex(math.cos(theta), math.sin(theta))
            convolved.append(base - r * xi)

        def block_permutation_pvalue(part, permutations=1000):
            blocks = np.array([part(b) for b in smoothed] + [part(b) for b in convolved])
            observed = two_sample_ks(blocks[:trials].ravel(), blocks[trials:].ravel())
            exceed = 0
            for _ in range(permutations):
                perm = oracle_rng.permutation(2 * trials)
                d = two_sample_ks(blocks[perm[:trials]].ravel(), blocks[perm[trials:]].ravel())
                exceed += d >= observed
            return (exceed + 1) / (permutations + 1)

        assert block_permutation_pvalue(np.real) > 1e-3
        assert block_permutation_pvalue(np.imag) > 1e-3


class TestLogMoment:
    def test_rademacher_exact_atom_value(self):
        est = log_moment_estimate(RADEMACHER, 10_000, eta=1.0)
        assert est.stderr == 0.0
        assert est.value == pytest.approx(math.log(2.0) ** 20, rel=1e-15)
        assert est.value == pytest.approx(6.5e-4, rel=0.01)

    def test_gaussian_stderr_under_five_percent(self):
        est = log_moment_estimate(GAUSS, 1_000_000, eta=1.0)
        assert est.value > 0
        assert est.stderr < 0.05 * est.value

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(DomainError):
            log_moment_estimate(GAUSS, 100, eta=1.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
    def test_eta_must_be_positive(self, eta):  # NaN fails `eta <= 0` as well as `eta > 0`
        with pytest.raises(DomainError):
            log_moment_estimate(GAUSS, 10_000, eta=eta)

    @pytest.mark.parametrize("dist", [RADEMACHER, GAUSS], ids=lambda d: d.tag)
    def test_eta_must_be_finite(self, dist):
        # Rademacher read 0.0 with stderr 0, RealGaussian inf with a nan stderr
        with pytest.raises(DomainError, match="finite"):
            log_moment_estimate(dist, 10_000, eta=math.inf)

    def test_a_fractional_seed_raises(self):
        # the seed 3.7 drew seed 3's stream and returned seed 3's estimate
        with pytest.raises(DomainError, match="not an integer"):
            log_moment_estimate(GAUSS, 10_000, eta=1.0, seed=3.7)


class TestMatrixSample:
    @pytest.mark.parametrize("dtype, expected", [
        (np.complex64, np.complex128), (np.float32, np.float64), (np.int64, np.float64),
        (np.complex128, np.complex128)])
    def test_entries_are_double_precision(self, dtype, expected):
        a = (np.arange(9).reshape(3, 3) + (1j if np.dtype(dtype).kind == "c" else 0)).astype(dtype)
        entries = MatrixSample(a).entries
        assert entries.dtype == expected and np.array_equal(entries, a)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_double_precision_entries_are_kept_without_a_copy(self, dtype, order):
        # column-major double entries are the sample's own; a row-major array is
        # copied once, column-major, and left as it was
        a = np.array(np.arange(9).reshape(3, 3), dtype, order=order)
        before = a.tobytes(order="A")
        entries = MatrixSample(a).entries
        assert entries.flags.f_contiguous and np.array_equal(entries, a)
        assert (entries is a) == (order == "F") and a.tobytes(order="A") == before

    def test_single_precision_input_gets_double_precision_spectra(self):
        rng_ = np.random.default_rng(4)
        a = (rng_.normal(size=(64, 64)) + 1j * rng_.normal(size=(64, 64))).astype(np.complex64)
        got = singular_values(MatrixSample(a)).values
        oracle = np.linalg.svd(a.astype(np.complex128), compute_uv=False)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * oracle[0]

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,), (2, 2, 2)])
    def test_empty_or_non_square_is_rejected(self, shape):
        with pytest.raises(DomainError, match="nonempty square"):
            MatrixSample(np.zeros(shape))

    @pytest.mark.parametrize("a", [np.array([[1 + 1j]], dtype=object), np.array([["1.5"]])],
                             ids=["object", "str"])
    def test_non_numeric_entries_are_rejected(self, a):
        # an object array of complex numbers raised float()'s TypeError, and a string
        # array was parsed as numbers
        with pytest.raises(DomainError, match="numeric"):
            MatrixSample(a)
