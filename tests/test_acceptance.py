"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from circulaw import (
    EnsembleConfig,
    EntryDistribution,
    MatrixSample,
    disc_potential,
    g_field,
    hermitize,
    limit_stieltjes,
    potential_from_law,
    sample_matrix,
    singular_values,
    stieltjes_empirical,
    support_endpoints,
)
from circulaw.experiments import ExperimentSpec, run_circular_law, run_sv_law, write_report
from circulaw.invertibility import classify_vector, min_sv_tail, small_ball
from circulaw.spectral_measures import log_potential_empirical

GAUSS = EntryDistribution("RealGaussian")


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    state = {"ok": False}
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if state["ok"] and elapsed < budget_s else "FAIL"
        print(f"[ACCEPTANCE] {number:>2} {name}: {verdict} ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_limit_law_exactness():
    with criterion(1, "limit-law exactness", 1.0):
        x1, x2 = support_endpoints(1 + 0j)
        assert x2 == 0.0  # x2^2 = 0 exactly at |z| = 1
        assert abs(x1 - math.sqrt(6.75)) <= 1e-12
        x1_zero, x2_zero = support_endpoints(0j)
        assert abs(x1_zero - 2.0) <= 1e-9
        assert x2_zero is None


def test_criterion_02_self_consistent_transform():
    with criterion(2, "self-consistent Stieltjes transform", 5.0):
        us = np.linspace(-4.0, 4.0, 20)
        vs = np.geomspace(1e-2, 2.0, 20)
        for az in (0.0, 0.5, 1.0, 1.5):
            z = complex(az, 0.0)
            for u, v in itertools.product(us, vs):
                alpha = complex(u, v)
                s = limit_stieltjes(alpha, z)
                p = s + alpha
                residual = abs(s + p / (p * p - az * az))
                assert residual <= 1e-10
                assert abs(s) <= 1.0 + 1e-10
                herglotz_gap = 1.0 - abs(s) ** 2 - az**2 * abs(s) ** 2 / abs(p) ** 2
                assert herglotz_gap >= v / (v + 1.0) - 1e-9


def test_criterion_03_potential_identity():
    with criterion(3, "potential identity", 10.0):
        for az in (0.0, 0.3, 0.7, 1.2, 2.0, 3.0):
            z = complex(az, 0.0)
            assert abs(potential_from_law(z) - disc_potential(z)) <= 2e-4


def test_criterion_04_sv_law_convergence():
    with criterion(4, "singular-value law convergence", 120.0) as state:
        spec = ExperimentSpec(
            kind="SvLaw",
            ensemble=EnsembleConfig(512, 1.0, GAUSS, 1860),
            trials=20,
            z_points=(0.5 + 0j,),
            n_values=(128, 512, 1024),
        )
        report = run_sv_law(spec)
        deltas = {r["n"]: r["delta"] for r in report.rows if r["row"] == "stat"}
        state["deltas"] = deltas
        assert deltas[512] <= 0.05
        assert deltas[1024] < deltas[128]


def test_criterion_05_circular_law_dense():
    with criterion(5, "circular law (dense)", 180.0):
        spec = ExperimentSpec(
            kind="CircularLaw",
            ensemble=EnsembleConfig(1024, 1.0, GAUSS, 20250808),
            trials=5,
        )
        report = run_circular_law(spec)
        mean = next(r for r in report.rows if r["row"] == "mean")
        assert mean["ks_radial"] <= 0.06
        assert mean["ks_angular"] <= 0.06
        assert mean["frac_beyond_1p15"] < 0.01


def test_criterion_06_circular_law_sparse():
    with criterion(6, "circular law (sparse, theta=1/2)", 180.0):
        spec = ExperimentSpec(
            kind="CircularLaw",
            ensemble=EnsembleConfig.from_theta(1024, 0.5, GAUSS, 99),
            trials=5,
        )
        report = run_circular_law(spec)
        mean = next(r for r in report.rows if r["row"] == "mean")
        assert mean["ks_radial"] <= 0.10


def test_criterion_07_log_determinant_anchor():
    with criterion(7, "log-determinant anchor", 60.0):
        cfg = EnsembleConfig(512, 1.0, GAUSS, 404)
        spectra = [singular_values(sample_matrix(cfg, t)) for t in range(20)]
        est = log_potential_empirical(spectra, 1.0)
        # est.value is -(1/n) sum log s_j averaged over trials
        assert abs(-est.value + 0.5) <= 0.05
        assert abs(est.value - disc_potential(0j)) <= 0.05


def test_criterion_08_extreme_singular_values():
    with criterion(8, "extreme singular value events", 120.0):
        cfg = EnsembleConfig(256, 1.0, GAUSS, 777)
        table = min_sv_tail(cfg, 0j, trials=200, thresholds=[1e-9])
        assert table.s1_violation_frequency == 0.0
        assert table.frequencies[0] == 0.0


def test_criterion_09_small_ball_and_classification_oracles():
    with criterion(9, "small-ball and classification oracles", 30.0):
        n = 10
        x = np.full(n, 1.0 / math.sqrt(n))
        got = small_ball(x, EntryDistribution("Rademacher"), 1.0, 0.01 / math.sqrt(n),
                         trials=100_000)
        assert abs(got - 252.0 / 1024.0) <= 0.02

        rng = np.random.default_rng(5150)
        for n_small, delta in ((8, 0.5), (11, 0.3), (12, 0.25)):
            v = rng.normal(size=n_small)
            v /= np.linalg.norm(v)
            got_res = classify_vector(v, delta, 0.2).residual
            keep = int(math.floor(delta * n_small))
            sq = np.abs(v) ** 2
            best = min(
                math.sqrt(float(np.sum(np.sort(sq[[i for i in range(n_small) if i not in sup]]))))
                for sup in itertools.combinations(range(n_small), keep)
            )
            assert got_res == best


def test_criterion_10_structural_oracles():
    with criterion(10, "structural oracles", 30.0):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = MatrixSample.from_array(a / math.sqrt(n))
            s = singular_values(m).values
            paired = np.sort(np.concatenate([-s, s[::-1]]))
            assert np.abs(np.sort(np.linalg.eigvalsh(hermitize(m))) - paired).max() <= 1e-8

        for _ in range(20):
            n = int(rng.integers(2, 17))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = MatrixSample.from_array(a / math.sqrt(n))
            alpha = complex(rng.normal(), rng.uniform(0.1, 1.5))
            resolvent = np.linalg.inv(hermitize(m) - alpha * np.eye(2 * n))
            oracle = complex(np.trace(resolvent)) / (2 * n)
            assert abs(stieltjes_empirical(singular_values(m), alpha) - oracle) <= 1e-8

        h = 1e-3
        for s_coord, t_coord in ((0.3, 0.2), (-0.5, 0.4), (1.3, 0.6), (2.0, 0.0), (-1.6, 1.0)):
            if 0.95 <= math.hypot(s_coord, t_coord) <= 1.05:
                continue
            fd = (
                potential_from_law(complex(s_coord + h, t_coord))
                - potential_from_law(complex(s_coord - h, t_coord))
            ) / (2 * h)
            assert abs(fd - (-0.5) * g_field(s_coord, t_coord)) <= 1e-3


def test_criterion_11_reproducibility_across_threads(tmp_path):
    with criterion(11, "byte-identical reports across 1/2/8 threads", 120.0):
        spec = ExperimentSpec(
            kind="SvLaw",
            ensemble=EnsembleConfig(64, 1.0, GAUSS, 616),
            trials=8,
            z_points=(0.5 + 0j,),
            n_values=(32, 64),
        )
        blobs = []
        original = os.environ.get("CIRCULAW_THREADS")
        try:
            for threads in ("1", "2", "8"):
                os.environ["CIRCULAW_THREADS"] = threads
                path = tmp_path / f"report-{threads}.json"
                write_report(run_sv_law(spec), path, "json")
                blobs.append(path.read_bytes())
        finally:
            if original is None:
                os.environ.pop("CIRCULAW_THREADS", None)
            else:
                os.environ["CIRCULAW_THREADS"] = original
        assert blobs[0] == blobs[1] == blobs[2]
