"""Exact finite-n laws of random matrices against the lab's own sampler and kernels.

Each test has a fixed seed and a gate fixed before the run; a 2 % scale bias in
the entries (or A + 0.1 A^T for the real-eigenvalue count and the angles, which no
scale moves) fails each of them, except the smallest-singular-value law, which a
20 % bias fails: at 2000 trials a 2 % bias moves its real law at x = 1 by 0.009,
under one standard error. Kostlan's potential sees the 2 % bias at its shifts inside
the unit disc (z-scores of -8 to -23), not at z = 1.3, where log|det| is n log|z| to
leading order.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from circulaw import EnsembleConfig, EntryDistribution, eigenvalues, sample_matrix, shift
from circulaw.experiments import ExperimentSpec, run_experiment
from circulaw.invertibility import min_sv_tail
from circulaw.linalg import Spectrum, certified_log_det
from circulaw.spectral_measures import EmpiricalCDF, ks_distance, radial_angular_cdfs


def _samples(tag, n, trials, seed=1):
    cfg = EnsembleConfig(n, 1.0, EntryDistribution(tag), seed)
    return (sample_matrix(cfg, t) for t in range(trials))


def test_kostlan_moduli_of_complex_ginibre():
    # n |lambda|^2 of a complex Ginibre matrix are, as a set, independent Gamma(k, 1),
    # k = 1..n (Kostlan 1992), so |lambda|^2 has F_n(t) = (1/n) sum_k P(Gamma(k, 1) <= n t)
    n, trials = 64, 200
    moduli = [np.abs(eigenvalues(s).values) ** 2 for s in _samples("ComplexGaussian", n, trials)]
    k = np.arange(1, n + 1)

    def exact(t):
        return special.gammainc(k, n * np.asarray(t)[:, None]).mean(axis=1)

    ks = ks_distance(EmpiricalCDF.from_values(np.concatenate(moduli)), exact)
    assert ks <= 2.0 / math.sqrt(n * trials), ks


def test_goodman_log_determinant_of_complex_ginibre():
    # |det G|^2 = prod_k Gamma(k, 1) for unit-variance complex G (Goodman 1963), so
    # log|det(G / sqrt(n))| has mean sum_k psi(k) / 2 - (n/2) log n, variance sum_k psi'(k) / 4
    n, trials = 128, 300
    values = np.array([certified_log_det(s, 0.0, math.inf, 1, t).value
                       for t, s in enumerate(_samples("ComplexGaussian", n, trials))])
    k = np.arange(1, n + 1)
    mean = 0.5 * special.digamma(k).sum() - 0.5 * n * math.log(n)
    sd = math.sqrt(0.25 * special.polygamma(1, k).sum())
    z = (values.mean() - mean) / (sd / math.sqrt(trials))
    assert abs(z) <= 4.0, z
    assert abs(values.std(ddof=1) / sd - 1.0) <= 0.2


def kostlan_potential(z: complex, n: int) -> float:
    """U_n(z) = -(1/n) sum_k E log max(|z|, sqrt(G_k / n)), G_k ~ Gamma(k, 1): the mass of
    G_k below n|z|^2 by `gammainc`, the tail's expected log by quadrature."""
    r2 = abs(z) ** 2
    total = 0.0
    for k in range(1, n + 1):
        def tail(t, k=k):
            return 0.5 * math.log(t / n) * math.exp((k - 1) * math.log(t) - t - special.gammaln(k))

        total += 0.5 * math.log(r2) * special.gammainc(k, n * r2)
        total += integrate.quad(tail, n * r2, math.inf)[0]
    return -total / n


@pytest.mark.parametrize("n, trials, seed", [(32, 2000, 1), (16, 4000, 2)])
def test_kostlan_potential_of_complex_ginibre(n, trials, seed):
    # the moduli of complex Ginibre are Kostlan's set, and log|w - z| averages to
    # log max(|w|, |z|) over the circle of w, so E (1/n) log|det(X / sqrt(n) - z)| is
    # -kostlan_potential(z, n) at every n. The n -> infinity value u_disc is off by about
    # 1/(4n) inside the disc, which these trial counts resolve
    zs = (0.3, 0.8j, 1.3)
    cfg = EnsembleConfig(n, 1.0, EntryDistribution("ComplexGaussian"), seed)
    spec = ExperimentSpec(kind="Potential", ensemble=cfg, trials=trials, z_points=zs)
    for z, row in zip(zs, run_experiment(spec).rows):
        assert row["included"] == trials
        score = (row["u_empirical"] - kostlan_potential(z, n)) / row["u_stderr"]
        assert abs(score) <= 4.0, (z, score)
        if abs(z) < 1:
            assert abs(row["u_empirical"] - row["u_disc"]) > 4.0 * row["u_stderr"], z


def expected_real_count(n: int) -> float:
    """E_n = 1/2 + sqrt(2) 2F1(1, -1/2; n; 1/2) / B(n, 1/2), the mean number of real
    eigenvalues of an n x n real Ginibre matrix (Edelman, Kostlan & Shub 1994)."""
    return 0.5 + math.sqrt(2.0) * special.hyp2f1(1.0, -0.5, n, 0.5) / special.beta(n, 0.5)


def test_edelman_kostlan_shub_real_eigenvalue_count():
    # LAPACK returns the real eigenvalues with an imaginary part of exactly 0
    n, trials = 64, 200
    counts = np.array([np.count_nonzero(eigenvalues(s).values.imag == 0)
                       for s in _samples("RealGaussian", n, trials)])
    z = (counts.mean() - expected_real_count(n)) / (counts.std(ddof=1) / math.sqrt(trials))
    assert abs(z) <= 4.0, z


def real_ginibre_angle_law(n: int, points: int = 2001):
    """The finite-n law of arg(lambda) / 2pi in [0, 1), as `radial_angular_cdfs` has
    it, of an eigenvalue of an n x n real Ginibre matrix: cdf(x, side) is its value
    at x ("right") or its left limit ("left").

    A non-real eigenvalue x + iy, y > 0, of unscaled N(0, 1) entries has the density
    rho_n = sqrt(2/pi) y erfcx(sqrt(2) y) gammaincc(n - 1, x^2 + y^2) (Edelman 1997,
    "The probability that a random real Gaussian matrix has k real eigenvalues,
    related distributions, and the circular law"); angles do not depend on the scale.
    The real ones put atoms of E_n / 2n at 0 and 1/2, and the angle theta in (0, pi)
    has the density (1/n) int_0^inf rho_n(r cos theta, r sin theta) r dr, mirrored on
    (pi, 2 pi): trapezoids in r and then, cumulated, in theta on a `points` grid.
    """
    atom = expected_real_count(n) / (2 * n)
    theta = np.linspace(0.0, math.pi, points)
    r = np.linspace(0.0, math.sqrt(n) + 12.0, 4001)  # gammaincc is below 1e-40 beyond
    y = r * np.sin(theta)[:, None]
    rho = (math.sqrt(2.0 / math.pi) * y * special.erfcx(math.sqrt(2.0) * y)
           * special.gammaincc(n - 1, r * r))
    density = integrate.trapezoid(rho * r, r, axis=1) / n
    upper = integrate.cumulative_trapezoid(density, theta, initial=0.0)
    half, u = upper[-1], theta / (2.0 * math.pi)
    # the discretized law misses its total mass by 2e-6 at n = 64
    assert abs(2.0 * (atom + half) - 1.0) <= 1e-5

    def cdf(x, side):
        x = np.asarray(x, dtype=np.float64)
        past = np.greater_equal if side == "right" else np.greater
        smooth = np.where(x <= 0.5, np.interp(x, u, upper), 2.0 * half - np.interp(1.0 - x, u, upper))
        return atom * (past(x, 0.0).astype(np.float64) + past(x, 0.5)) + smooth

    return cdf


def _ks_with_atoms(f: EmpiricalCDF, cdf) -> float:
    """sup |F - G| for a G with atoms at 0 and 1/2: between the atoms of both, F is
    flat and G continuous, so both are compared at those points and their left limits
    (`ks_distance` assumes a continuous G)."""
    at = np.union1d(f.xs, [0.0, 0.5])
    return float(max(np.abs(f.evaluate(at) - cdf(at, "right")).max(),
                     np.abs(f.evaluate_left(at) - cdf(at, "left")).max()))


def test_edelman_angles_of_real_ginibre():
    # at n = 64 and 200 trials the angles read 0.0036 against the finite-n law and 0.0535
    # against the uniform law; complex Ginibre's angles, uniform with no atom on the real
    # axis, read 0.0535 against the finite-n law, and A + 0.1 A^T 0.038
    n, trials = 64, 200
    law = real_ginibre_angle_law(n)
    gate = 1.0 / math.sqrt(n * trials)

    def angles(tag):
        spectra = [eigenvalues(s).values for s in _samples(tag, n, trials, seed=3)]
        return radial_angular_cdfs(Spectrum(np.concatenate(spectra)))[1]

    real = angles("RealGaussian")
    assert _ks_with_atoms(real, law) <= 2.0 * gate
    assert _ks_with_atoms(real, lambda x, side: x) >= 4.0 * gate
    assert _ks_with_atoms(angles("ComplexGaussian"), law) > 2.0 * gate


@pytest.mark.parametrize(
    "tag,complex_",
    [("RealGaussian", False), ("Rademacher", False), ("UniformSymmetric", False),
     ("ComplexGaussian", True), ("ComplexRademacher", True)],
)
def test_edelman_smallest_singular_value_at_zero_shift(tag, complex_):
    # for X / sqrt(n) at z = 0, P(n s_n <= x) = 1 - exp(-x^2) for complex Ginibre at every n,
    # and tends to 1 - exp(-x^2/2 - x) for real Ginibre (Edelman 1988); Tao and Vu ("Random
    # matrices: the distribution of the smallest singular values", 2010) carry both limits
    # to i.i.d. entries. At z = 0, s_1 ~ 2 never reaches min_sv_tail's ceiling n.
    n, trials = 64, 2000
    x = np.array([0.1, 0.3, 1.0, 2.0])
    cfg = EnsembleConfig(n, 1.0, EntryDistribution(tag), 5)
    table = min_sv_tail([(cfg, 0j)], trials, thresholds=x / n)[0]
    law = 1.0 - np.exp(-x * x if complex_ else -x * x / 2.0 - x)
    z = (table.frequencies - law) / np.sqrt(law * (1.0 - law) / trials)
    assert np.all(np.abs(z) <= 4.0), z


_ALL_LAWS = [EntryDistribution(tag) for tag in ("RealGaussian", "ComplexGaussian", "Rademacher",
                                                "ComplexRademacher", "UniformSymmetric")]
_ALL_LAWS.append(EntryDistribution("TwoPoint", 3.0, 0.1))


@pytest.mark.parametrize("n, theta, trials", [(32, None, 300), (64, 0.5, 600)],
                         ids=["dense", "theta=0.5"])
@pytest.mark.parametrize("dist", _ALL_LAWS, ids=lambda d: d.tag)
def test_mean_squared_singular_value_is_one_plus_the_shift(dist, n, theta, trials):
    # (1/n) sum_j s_j^2 = ||A - zI||_F^2 / n has mean exactly 1 + |z|^2 at every n, law and
    # sparsity: E|a_jk|^2 = p_n / (n p_n) = 1/n and E tr A = 0 (the k = 1 moment of Bai &
    # Silverstein's method). singular_values fences sum s^2 against ||A||_F^2 to 1e-8, so
    # the Frobenius form stands for the spectrum
    cfg = (EnsembleConfig(n, 1.0, dist, 3) if theta is None
           else EnsembleConfig.from_theta(n, theta, dist, 3))
    shifts = [0.5 + 0.5j, 1.0, 1.5]
    samples = (sample_matrix(cfg, t) for t in range(trials))
    m1 = np.array([[np.sum(np.abs(shift(sample, z).entries) ** 2) / n for z in shifts]
                   for sample in samples])
    exact = 1.0 + np.abs(shifts) ** 2
    z = (m1.mean(axis=0) - exact) / (m1.std(axis=0, ddof=1) / math.sqrt(trials))
    assert np.all(np.abs(z) <= 4.0), z


# E x^3 and E|x|^4 of each base law. TwoPoint(3, 0.1) is 3 with probability 0.1 and
# -1/3 otherwise. A complex law's third-moment term is E x|x|^2, 0 for both complex laws.
_THIRD_FOURTH = {"RealGaussian": (0.0, 3.0), "ComplexGaussian": (0.0, 2.0),
                 "Rademacher": (0.0, 1.0), "ComplexRademacher": (0.0, 1.0),
                 "UniformSymmetric": (0.0, 1.8),
                 "TwoPoint": (0.1 * 3.0**3 + 0.9 * (-1 / 3) ** 3, 0.1 * 3.0**4 + 0.9 * (1 / 3) ** 4)}


@pytest.mark.parametrize("n, theta, trials", [(32, None, 1000), (64, 0.5, 600)],
                         ids=["dense", "theta=0.5"])
@pytest.mark.parametrize("dist", _ALL_LAWS, ids=lambda d: d.tag)
def test_mean_fourth_power_singular_value_has_its_finite_n_terms(dist, n, theta, trials):
    # (1/n) sum_j s_j^4 = ||G||_F^2 / n, G = (A - z)(A - z)^*, has mean
    # 2 + 4|z|^2 + |z|^4 + (m4 - 2 + 2 Re z^2) / n - 4 Re(z) m3 / n^(3/2) (the k = 2 moment
    # of Bai & Silverstein's method), with m3 = E x^3 / sqrt(p_n) and m4 = E|x|^4 / p_n the
    # moments of the sparse entry eps x / sqrt(p_n). The Re z^2 term is E tr (X/sqrt(n))^2 = 1
    # times z^2 and its conjugate, so complex laws, with E x^2 = 0, drop it; dense
    # ComplexGaussian is left with no 1/n term. Shifts inside, on and outside the unit
    # circle, with Re z^2 and Re z of both signs
    cfg = (EnsembleConfig(n, 1.0, dist, 3) if theta is None
           else EnsembleConfig.from_theta(n, theta, dist, 3))
    shifts = np.array([0.3 + 0.6j, 1.0, -1.5])
    m3, m4 = _THIRD_FOURTH[dist.tag]
    m3, m4 = m3 / math.sqrt(cfg.p_n), m4 / cfg.p_n
    re_z2 = 0.0 if dist.is_complex else (shifts**2).real
    exact = (2.0 + 4.0 * np.abs(shifts) ** 2 + np.abs(shifts) ** 4
             + (m4 - 2.0 + 2.0 * re_z2) / n - 4.0 * shifts.real * m3 / n**1.5)
    m2 = []
    for t in range(trials):
        sample = sample_matrix(cfg, t)
        m2.append([np.sum(np.abs(a @ a.conj().T) ** 2) / n
                   for a in (shift(sample, z).entries for z in shifts)])
    m2 = np.array(m2)
    z = (m2.mean(axis=0) - exact) / (m2.std(axis=0, ddof=1) / math.sqrt(trials))
    assert np.all(np.abs(z) <= 4.0), z
