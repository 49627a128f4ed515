import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from circulaw import ConfigError, DomainError, EnsembleConfig, EntryDistribution, rng
from circulaw import invertibility, sample_matrix, shift, singular_values
from circulaw.ensemble import draw_rows, log_moment_estimate, mask_rows
from circulaw.invertibility import (
    _ball_sums,
    _max_ball_fraction,
    classify_vector,
    min_sv_tail,
    small_ball,
)

GAUSS = EntryDistribution("RealGaussian")
RADEMACHER = EntryDistribution("Rademacher")
SHIPPED = [
    EntryDistribution("RealGaussian"),
    EntryDistribution("ComplexGaussian"),
    EntryDistribution("Rademacher"),
    EntryDistribution("ComplexRademacher"),
    EntryDistribution("UniformSymmetric"),
]


def brute_force_sparse_distance(x, delta):
    """Minimum over all supports of size floor(delta*n) of the off-support norm."""
    n = len(x)
    keep = int(math.floor(delta * n))
    sq = np.abs(x) ** 2
    best = None
    for support in itertools.combinations(range(n), keep):
        excluded = [i for i in range(n) if i not in support]
        value = math.sqrt(float(np.sum(np.sort(sq[excluded]))))
        if best is None or value < best:
            best = value
    return best


class TestClassifyVector:
    def test_basis_vector_sparse(self):
        e1 = np.zeros(10)
        e1[0] = 1.0
        cls = classify_vector(e1, delta=0.2, rho=0.1)
        assert cls.tag == "Sparse" and cls.residual == 0.0

    def test_uniform_vector_incompressible(self):
        n = 100
        x = np.full(n, 1.0 / math.sqrt(n))
        cls = classify_vector(x, delta=0.5, rho=0.1)
        assert cls.residual == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert cls.tag == "Incompressible"

    def test_delta_one_always_sparse(self, oracle_rng):
        x = oracle_rng.normal(size=13)
        x /= np.linalg.norm(x)
        assert classify_vector(x, delta=1.0, rho=0.5).tag == "Sparse"

    def test_compressible_band(self):
        # keep = 2 coordinates; the third carries mass 0.1 <= rho
        x = np.zeros(10)
        x[0] = x[1] = math.sqrt((1 - 0.01) / 2)
        x[5] = 0.1
        cls = classify_vector(x, delta=0.2, rho=0.5)
        assert cls.tag == "Compressible"
        assert cls.residual == pytest.approx(0.1, abs=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            classify_vector(np.ones(4), delta=0.5, rho=0.1)

    @pytest.mark.parametrize("x", [[math.nan, 0.0, 0.0], [1.0, math.nan]])
    def test_nan_entry_rejected(self, x):
        # NaN fails every comparison, so a tolerance test written as `> tol` lets it through
        with pytest.raises(DomainError):
            classify_vector(x, delta=0.5, rho=0.5)

    def test_bad_parameters_rejected(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        with pytest.raises(DomainError):
            classify_vector(e1, delta=0.0, rho=0.1)
        with pytest.raises(DomainError):
            classify_vector(e1, delta=0.5, rho=1.0)

    @pytest.mark.parametrize("n,delta", [(6, 0.5), (9, 1.0 / 3.0), (12, 0.25), (11, 0.6)])
    def test_residual_matches_brute_force_exactly(self, oracle_rng, n, delta):
        for _ in range(5):
            x = oracle_rng.normal(size=n)
            x /= np.linalg.norm(x)
            got = classify_vector(x, delta=delta, rho=0.2).residual
            assert got == brute_force_sparse_distance(x, delta)


class TestOneCoordinate:
    """`small_ball` on a basis vector is the concentration function of the entry law."""

    E1 = np.array([1.0])

    def test_rademacher_exact(self):
        half = small_ball(self.E1, RADEMACHER, 1.0, 0.5, trials=20_000)
        assert 0.5 <= half <= 0.52  # one atom of the two: the larger share of the signs
        assert small_ball(self.E1, RADEMACHER, 1.0, 0.0, trials=20_000) == half
        assert small_ball(self.E1, RADEMACHER, 1.0, 1.0, trials=20_000) == 1.0  # [-1, 1]

    def test_zero_window_continuous(self):
        assert small_ball(self.E1, GAUSS, 1.0, 0.0, trials=10_000) == 1.0 / 10_000

    def test_uniform_against_cdf_oracle(self):
        # UniformSymmetric is uniform on [-sqrt(3), sqrt(3)]: a window inside holds eta / sqrt(3)
        got = small_ball(self.E1, EntryDistribution("UniformSymmetric"), 1.0, 0.5, trials=100_000)
        assert abs(got - 0.5 / math.sqrt(3.0)) <= 0.01

    def test_monotone_in_eta(self):
        etas = (0.1, 0.3, 0.6, 1.2)
        values = [small_ball(self.E1, GAUSS, 1.0, eta, trials=50_000) for eta in etas]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dist", SHIPPED, ids=lambda d: d.tag)
    def test_witness_eta_half_r0_point_six(self, dist):
        # every shipped law concentrates at most 0.6 in any ball of radius 0.5
        assert small_ball(self.E1, dist, 1.0, 0.5, trials=100_000) <= 0.6

    def test_two_point_has_its_own_witness(self):
        d = EntryDistribution("TwoPoint", a=3.0, p=0.1)
        for eta in (0.5, 0.01):  # the atoms are 10/3 apart: a ball holds the -1/3 atom's 0.9
            assert abs(small_ball(self.E1, d, 1.0, eta, trials=20_000) - 0.9) <= 0.01

    def test_complex_rademacher_small_window(self):
        d = EntryDistribution("ComplexRademacher")
        quarter = small_ball(self.E1, d, 1.0, 0.5, trials=20_000)  # the atoms are sqrt(2) apart
        assert abs(quarter - 0.25) <= 0.01
        assert small_ball(self.E1, d, 1.0, 1.0, trials=20_000) == 1.0  # the origin covers all four

    def test_trials_start_at_ten_thousand(self):
        with pytest.raises(DomainError, match="at least 10"):
            small_ball(self.E1, GAUSS, 1.0, 0.5, trials=9_999)
        assert 0.0 < small_ball(self.E1, GAUSS, 1.0, 0.5, trials=10_000) < 1.0


class TestSmallBall:
    def test_binomial_oracle(self):
        n = 10
        x = np.full(n, 1.0 / math.sqrt(n))
        # exact enumeration oracle: best window of width 2*eta around an atom
        eta = 0.01 / math.sqrt(n)
        sums = np.array([np.sum(signs) for signs in itertools.product([-1, 1], repeat=n)])
        atoms, counts = np.unique(sums, return_counts=True)
        oracle = counts.max() / 2.0**n
        assert oracle == pytest.approx(252.0 / 1024.0)
        got = small_ball(x, RADEMACHER, 1.0, eta, trials=100_000)
        assert abs(got - oracle) <= 0.02

    def test_window_larger_than_range(self):
        x = np.full(4, 0.5)
        assert small_ball(x, RADEMACHER, 1.0, eta=10.0, trials=10_000) == 1.0

    def test_basis_vector_reduces_to_concentration(self):
        x = np.zeros(8)
        x[0] = 1.0
        got = small_ball(x, GAUSS, 1.0, eta=0.5, trials=50_000)
        assert abs(got - math.erf(0.5 / math.sqrt(2.0))) <= 0.02  # P(|N(0,1)| <= 0.5)

    def test_monotone_in_eta(self):
        x = np.full(16, 0.25)
        vals = [small_ball(x, GAUSS, 1.0, eta, trials=20_000) for eta in (0.05, 0.2, 0.8)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_sign_flip_invariance(self, oracle_rng):
        x = oracle_rng.normal(size=12)
        x /= np.linalg.norm(x)
        flipped = x * np.where(oracle_rng.uniform(size=12) < 0.5, -1.0, 1.0)
        a = small_ball(x, RADEMACHER, 1.0, 0.1, trials=50_000)
        b = small_ball(flipped, RADEMACHER, 1.0, 0.1, trials=50_000, seed=17)
        assert abs(a - b) <= 0.02

    def test_minimum_trials_enforced(self):
        with pytest.raises(DomainError):
            small_ball(np.ones(4) / 2.0, GAUSS, 1.0, 0.1, trials=100)

    def test_plane_at_eta_zero_is_the_tie_share(self):
        # the lattice has no pitch at eta = 0; a 0-ball holds the copies of one sum
        x = np.full(4, 0.5)
        dist = EntryDistribution("ComplexRademacher")
        sums = _ball_sums(x, dist, 1.0, 10_000, 0)
        ties = np.unique(sums, return_counts=True)[1].max() / 10_000
        assert small_ball(x, dist, 1.0, 0.0, trials=10_000) == ties > 0

    def test_plane_lattice_too_fine_is_a_domain_error_before_any_cast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too small"):
                small_ball(np.full(4, 0.5), EntryDistribution("ComplexRademacher"), 1.0, 1e-30,
                           trials=10_000)

    @pytest.mark.parametrize("x, eta", [
        ([0.5] * 4, -0.1), ([0.5] * 4, math.nan), ([0.5] * 4, math.inf),
        ([math.nan, 1.0], 0.1), ([1.0, math.inf], 0.1), ([0.5, complex(0, math.nan)], 0.1),
        ([], 0.1),
    ])
    def test_invalid_input_rejected(self, x, eta):
        with pytest.raises(DomainError):
            small_ball(x, GAUSS, 1.0, eta, trials=10_000)

    # n = 100 takes blocks of 1310 trials: 3925, 3926 and 20 000 end on blocks of
    # 1305, 1306 and 350 rows, and 3931 on a one-row block
    @pytest.mark.parametrize("trials", [3925, 3926, 3931, 20_000])
    @pytest.mark.parametrize("dist", [GAUSS, EntryDistribution("ComplexGaussian")],
                             ids=lambda d: d.tag)
    @pytest.mark.parametrize("complex_x", [False, True])
    @pytest.mark.parametrize("p_n", [1.0, 0.5])
    def test_block_sums_are_the_whole_product_bit_for_bit(
        self, oracle_rng, dist, trials, complex_x, p_n
    ):
        n = 100
        x = oracle_rng.normal(size=n) + (1j * oracle_rng.normal(size=n) if complex_x else 0.0)
        draws = draw_rows(dist, 3, rng.ROLE_SMALL_BALL, 0, range(trials), n)
        if p_n < 1.0:
            mask = mask_rows(3, rng.ROLE_SMALL_BALL, 1, range(trials), n, p_n)
            draws = np.where(mask, draws, 0.0)
        whole = np.sum(draws * x, axis=1)
        assert _ball_sums(x, dist, p_n, trials, 3).tobytes() == whole.tobytes()

    def test_twenty_thousand_trial_value(self):
        # 20 000 trials at n = 100 once peaked at 205 MB for 0.3 MB of sums;
        # blocking the sums must not move the estimate
        x = np.full(100, 0.1)
        got = small_ball(x, EntryDistribution("ComplexGaussian"), 0.5, 0.1, trials=20_000)
        assert got == 0.0207

    @pytest.mark.parametrize("dist", SHIPPED, ids=lambda d: d.tag)
    def test_incompressible_vectors_spread_mass(self, oracle_rng, dist):
        # weighted sums over incompressible directions cannot concentrate:
        # estimate stays clearly below 1
        n, delta, rho, eta0 = 100, 0.5, 0.2, 0.5
        x = oracle_rng.normal(size=n)
        x /= np.linalg.norm(x)
        assert classify_vector(x, delta, rho).tag == "Incompressible"
        eta = eta0 * rho / math.sqrt(2 * n)
        assert small_ball(x, dist, 0.5, eta, trials=20_000) <= 0.95


def lattice_oracle(samples, eta):
    """Best closed eta-ball over every point of the pitch eta/4 hexagonal
    lattice in the samples' bounding box, by broadcasting all distances."""
    pitch = eta / 4.0
    dy = pitch * math.sqrt(3.0) / 2.0
    re, im = samples.real, samples.imag
    rows = np.arange(math.floor((im.min() - eta) / dy) - 1, math.ceil((im.max() + eta) / dy) + 2)
    cols = np.arange(math.floor((re.min() - eta) / pitch) - 2, math.ceil((re.max() + eta) / pitch) + 2)
    row, col = np.meshgrid(rows, cols, indexing="ij")
    cx = ((col + 0.5 * (np.abs(row) % 2)) * pitch).ravel()
    cy = (row * dy).ravel()
    d_re = re[None, :] - cx[:, None]
    d_im = im[None, :] - cy[:, None]
    inside = d_re * d_re + d_im * d_im <= eta * eta + 1e-300
    return inside.sum(axis=1).max() / len(samples)


def window_oracle(samples, eta):
    """Best interval [x_i, x_i + 2 eta] anchored at a sample, O(N^2)."""
    x = np.asarray(samples, dtype=np.float64)
    inside = (x[None, :] >= x[:, None]) & (x[None, :] <= x[:, None] + 2.0 * eta)
    return inside.sum(axis=1).max() / len(x)


class TestMaxBallFraction:
    def test_plane_matches_lattice_oracle(self, oracle_rng):
        for trial in range(150):
            m = int(oracle_rng.integers(1, 30))
            eta = float(oracle_rng.choice([0.1, 0.3, 1.0]))
            if trial % 3 == 0:
                samples = 2.0 * eta * (oracle_rng.normal(size=m) + 1j * oracle_rng.normal(size=m))
            elif trial % 3 == 1:
                # samples on lattice points and exactly eta away from them: ties
                pitch = eta / 4.0
                r = oracle_rng.integers(-8, 8, m)
                c = oracle_rng.integers(-8, 8, m)
                samples = (c + 0.5 * (np.abs(r) % 2)) * pitch + 1j * r * pitch * math.sqrt(3.0) / 2.0
                turn = oracle_rng.choice([0.0, 0.5 * math.pi, math.pi], m)
                samples = samples + eta * np.exp(1j * turn) * oracle_rng.integers(0, 2, m)
            else:
                # heavy duplicates on a coarse grid
                samples = (oracle_rng.integers(-3, 3, m) + 1j * oracle_rng.integers(-3, 3, m)) * eta
                samples = samples + 0.5j * eta
            samples = np.asarray(samples, dtype=complex)
            assert _max_ball_fraction(samples, eta) == lattice_oracle(samples, eta)

    @pytest.mark.parametrize("band", [1, 2, 7])
    def test_plane_bands_match_lattice_oracle(self, oracle_rng, monkeypatch, band):
        # bands of a few samples' rows: most samples reach two or more bands
        monkeypatch.setattr(invertibility, "_BAND_SAMPLES", band)
        for _ in range(40):
            m = int(oracle_rng.integers(1, 40))
            eta = float(oracle_rng.choice([0.1, 0.3, 1.0]))
            samples = eta * (oracle_rng.normal(size=m) + 1j * oracle_rng.normal(size=m))
            if m > 3:
                samples[: m // 3] = samples[0]  # one lattice row heavier than a band
            assert _max_ball_fraction(samples, eta) == lattice_oracle(samples, eta)

    def test_plane_holds_one_band_of_hits(self):
        # 10^5 samples at eta = 0.05 hit ~5.8 million lattice points; holding them
        # all peaked at 42 MB, one band of ~4096 samples' hits takes a few MB
        # role 6 is reserved in `rng`: these samples keep the stream they were first drawn from
        draws = draw_rows(EntryDistribution("ComplexGaussian"), 0, 6, 0, range(100_000), 1)[:, 0]
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            got = _max_ball_fraction(draws, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert got == 0.00303
        assert peak <= 16 * 2**20

    def test_line_matches_window_oracle(self, oracle_rng):
        for trial in range(300):
            m = int(oracle_rng.integers(1, 60))
            eta = float(oracle_rng.choice([0.01, 0.1, 0.5, 2.0]))
            if trial % 2:
                samples = oracle_rng.integers(-10, 10, m) * eta  # endpoints land on samples
            else:
                samples = oracle_rng.normal(size=m)
            assert _max_ball_fraction(samples, eta) == window_oracle(samples, eta)
            # complex input with a zero imaginary part takes the same path
            assert _max_ball_fraction(samples + 0j, eta) == window_oracle(samples, eta)

    def test_lattice_too_fine_for_the_spread_is_rejected(self):
        # 4e13 columns by 5e13 rows: lattice keys would not fit in int64
        with pytest.raises(DomainError):
            _max_ball_fraction(np.array([0.0, 1e6 + 1e6j]), 1e-7)

    def test_line_never_below_a_center_grid(self, oracle_rng):
        x = np.sort(oracle_rng.normal(size=2_000))
        for eta in (0.05, 0.2, 0.5):
            centers = np.arange(x[0], x[-1] + eta / 4.0, eta / 4.0)
            hi = np.searchsorted(x, centers + eta, side="right")
            lo = np.searchsorted(x, centers - eta, side="left")
            assert _max_ball_fraction(x, eta) >= (hi - lo).max() / len(x)


class TestMinSvTail:
    def test_bracketing_thresholds(self):
        cfg = EnsembleConfig(48, 1.0, GAUSS, 3110)
        table = min_sv_tail([(cfg, 0.2 + 0.1j)], trials=60, thresholds=[1e-12, 1e3])[0]
        assert table.frequencies[0] == 0.0
        assert table.frequencies[1] == 1.0
        assert table.s1_violation_frequency == 0.0

    def test_monotone_in_threshold(self):
        cfg = EnsembleConfig(32, 1.0, GAUSS, 88)
        table = min_sv_tail([(cfg, 0j)], trials=60, thresholds=[1e-4, 1e-2, 1e-1, 1.0])[0]
        assert np.all(np.diff(table.frequencies) >= 0)

    def test_rare_event_never_fires_at_desk_scale(self):
        cfg = EnsembleConfig(200, 1.0, GAUSS, 2717)
        table = min_sv_tail([(cfg, 0j)], trials=200, thresholds=[1e-9])[0]
        assert table.frequencies[0] == 0.0

    def test_csv_serialization(self, tmp_path):
        cfg = EnsembleConfig(16, 1.0, GAUSS, 5)
        table = min_sv_tail([(cfg, 0j)], trials=50, thresholds=[1e-6, 1e-3])[0]
        path = tmp_path / "tail.csv"
        table.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "threshold,frequency,trials,n,p_n,z_re,z_im"
        assert len(lines) == 3

    @pytest.mark.parametrize("thresholds", [[math.nan], [1e-3, math.inf], [-math.inf, 1e-3]])
    def test_rejects_non_finite_thresholds(self, thresholds):
        cfg = EnsembleConfig(8, 1.0, GAUSS, 5)
        with pytest.raises(DomainError):
            min_sv_tail([(cfg, 0j)], trials=50, thresholds=thresholds)


    @pytest.mark.parametrize("dist, z", [(RADEMACHER, 0j), (RADEMACHER, 0.5 + 0j),
                                         (EntryDistribution("ComplexRademacher"), 0.5j)])
    def test_frequencies_are_those_of_the_spectrum(self, dist, z):
        # at n = 8 many Rademacher samples are singular, so the search reaches 1e-9,
        # below the Gram path's cutoff, and those trials take the SVD
        cfg = EnsembleConfig(8, 1.0, dist, 14)
        thresholds = [1e-9, 1e-3, 1e-2, 0.1, 1.0]
        s = np.array([singular_values(shift(sample_matrix(cfg, t), z)).values
                      for t in range(50)])
        ok = s[:, 0] <= 8.0
        expected = [float(np.mean((s[:, -1] <= t) & ok)) for t in thresholds]
        table = min_sv_tail([(cfg, z)], trials=50, thresholds=thresholds)[0]
        assert table.frequencies.tolist() == expected
        assert table.s1_violation_frequency == float(np.mean(~ok))

    def test_a_trial_takes_a_spectrum_only_where_the_gram_test_cannot_decide(self, monkeypatch):
        calls = []
        spectrum = invertibility.singular_values
        monkeypatch.setattr(invertibility, "singular_values",
                            lambda a: calls.append(a.n) or spectrum(a))
        cfg = EnsembleConfig(16, 1.0, GAUSS, 5)
        min_sv_tail([(cfg, 0j)], trials=50, thresholds=[1e-3, 1e-2])
        assert calls == []
        # 1e-9 lies below 1e-6 ||A||_F (about 4e-6) in every trial
        min_sv_tail([(cfg, 0j)], trials=50, thresholds=[1e-9])
        assert len(calls) == 50
        # ||A - 100 I||_F is about 400, above the ceiling n = 16, so the screen cannot clear it
        table = min_sv_tail([(cfg, 100 + 0j)], trials=50, thresholds=[1e-3])[0]
        assert len(calls) == 100
        assert table.s1_violation_frequency == 1.0 and table.frequencies[0] == 0.0

    def test_a_campaign_takes_one_norm_per_trial(self, monkeypatch):
        # the ceiling screen and the Gram path's cutoff share one rounded ||A||_F; a
        # separate frobenius_norm screen took a second
        from circulaw import linalg
        from circulaw.experiments import ExperimentSpec, run_experiment

        norms, rounded = [], linalg._rounded_norm
        monkeypatch.setattr(linalg, "_rounded_norm", lambda a: norms.append(a.shape) or rounded(a))
        spec = ExperimentSpec(kind="MinSv", ensemble=EnsembleConfig(16, 1.0, GAUSS, 5), trials=50,
                              z_points=(0j,), thresholds=(1e-3, 1e-2))
        run_experiment(spec)
        assert norms == [(16, 16)] * 50

    def test_a_grid_is_one_pass_of_the_tables_of_its_cases(self, monkeypatch):
        cases = [(EnsembleConfig(8, 1.0, RADEMACHER, 14), 0j),
                 (EnsembleConfig(8, 1.0, RADEMACHER, 14), 0.5 + 0j),
                 (EnsembleConfig(12, 0.5, GAUSS, 14), 0.25j)]
        thresholds = [1e-9, 1e-3, 0.1, 1.0]
        alone = [min_sv_tail([case], 50, thresholds)[0] for case in cases]
        passes, pool = [], invertibility.parallel_map
        monkeypatch.setattr(invertibility, "parallel_map",
                            lambda fn, items: passes.append(len(items)) or pool(fn, items))
        tables = min_sv_tail(cases, 50, thresholds)
        assert passes == [3 * 50]
        for table, single, (cfg, z) in zip(tables, alone, cases, strict=True):
            assert (table.n, table.p_n, table.z) == (cfg.n, cfg.p_n, z)
            assert table.frequencies.tolist() == single.frequencies.tolist()
            assert table.s1_violation_frequency == single.s1_violation_frequency
        assert min_sv_tail([], 50, thresholds) == []


def test_min_sv_tail_needs_fifty_trials():
    with pytest.raises(DomainError, match="at least 50 trials"):
        min_sv_tail([(EnsembleConfig(8, 1.0, GAUSS, 5), 0j)], trials=49, thresholds=[1e-3])


@pytest.mark.parametrize("call, count", [
    (lambda m: log_moment_estimate(GAUSS, m, eta=0.5), 20_000),
    (lambda t: small_ball(np.full(4, 0.5), GAUSS, 1.0, 0.1, trials=t), 20_000),
    (lambda t: min_sv_tail([(EnsembleConfig(8, 1.0, GAUSS, 5), 0j)], t, [0.1])[0].frequencies[0],
     60),
], ids=["log_moment_estimate", "small_ball", "min_sv_tail"])
def test_a_count_reads_whole_floats(call, count):
    # a whole float count failed in `range` with a bare TypeError
    assert call(float(count)) == call(count)
    for bad in (count + 0.5, True):
        with pytest.raises(ConfigError, match="whole number"):
            call(bad)
