import json
import math
import statistics

import numpy as np
import pytest

from circulaw import (
    ConfigError,
    DomainError,
    EnsembleConfig,
    EntryDistribution,
    draw_entry,
    log_moment_estimate,
    sample_matrix,
    shift,
    smoothing_shift,
)
from circulaw import rng
from circulaw.ensemble import draw_unit_disc, smoothing_stream
from circulaw.linalg import eigenvalues
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
    words = np.stack([rng.word_grid(keys, i) for i in range(dist.words_per_draw)], axis=-1)
    from circulaw.ensemble import _values_from_words

    return _values_from_words(dist, words)[:, 0]


class TestEntryDistribution:
    def test_rademacher_values(self):
        stream = rng.Stream.from_labels(1, 2, 3)
        draws = {draw_entry(RADEMACHER, stream) for _ in range(64)}
        assert draws == {-1.0, 1.0}

    def test_twopoint_constructor_contract(self):
        with pytest.raises(ConfigError):
            EntryDistribution("TwoPoint", a=3.0, p=1.0 / 9.0)  # variance 9/8, not 1
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
            val_stream = rng.Stream.from_labels(cfg.master_seed, rng.ROLE_VALUE, 3, j, k)
            value = draw_entry(CGAUSS, val_stream)
            mask_stream = rng.Stream.from_labels(cfg.master_seed, rng.ROLE_MASK, 3, j, k)
            kept = mask_stream.uniform() < cfg.p_n
            expected = value / math.sqrt(16 * 0.5) if kept else 0.0
            assert m.entries[j, k] == expected

    def test_dense_entries_are_raw_draws_over_sqrt_n(self):
        # p_n = 1 must consume no mask randomness: every entry is X_jk/sqrt(n)
        cfg = EnsembleConfig(8, 1.0, GAUSS, 2222)
        m = sample_matrix(cfg, 1)
        assert not np.any(m.entries == 0.0)
        for j, k in [(0, 0), (3, 7), (7, 7)]:
            stream = rng.Stream.from_labels(cfg.master_seed, rng.ROLE_VALUE, 1, j, k)
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
        stream = rng.Stream.from_labels(5, rng.ROLE_XI, 0)
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
