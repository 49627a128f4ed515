"""Exact finite-n laws of Gaussian matrices against the lab's own sampler and kernels.

Each test has a fixed seed and a gate fixed before the run; a 2 % scale bias in
the entries (or A + 0.1 A^T for the real-eigenvalue count) fails each of them.
"""

import math

import numpy as np
from scipy import special

from circulaw import EnsembleConfig, EntryDistribution, eigenvalues, sample_matrix
from circulaw.linalg import certified_log_det
from circulaw.spectral_measures import EmpiricalCDF, ks_distance


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


def test_edelman_kostlan_shub_real_eigenvalue_count():
    # a real Ginibre matrix has E_n = 1/2 + sqrt(2) 2F1(1, -1/2; n; 1/2) / B(n, 1/2)
    # real eigenvalues on average (Edelman, Kostlan & Shub 1994); LAPACK returns
    # them with an imaginary part of exactly 0
    n, trials = 64, 200
    counts = np.array([np.count_nonzero(eigenvalues(s).values.imag == 0)
                       for s in _samples("RealGaussian", n, trials)])
    expected = 0.5 + math.sqrt(2.0) * special.hyp2f1(1.0, -0.5, n, 0.5) / special.beta(n, 0.5)
    z = (counts.mean() - expected) / (counts.std(ddof=1) / math.sqrt(trials))
    assert abs(z) <= 4.0, z
