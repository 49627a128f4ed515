"""The four campaign workloads: their specs and their correctness checks.

Each workload is one `ExperimentSpec` JSON object, as `circulaw report --spec`
reads it; the master seed is the benchmark's seed. Checks read the report
file back and hold it to the acceptance gate's tolerances (tests/
test_acceptance.py, criterion numbers below). Smoke mode shrinks every spec
to a tiny n so that the whole pipeline runs in seconds; its tolerances are
loose, because at that size it tests the plumbing, not the limit laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    kind: str
    dist: str
    n: int
    trials: int
    smoke_n: int
    smoke_trials: int
    theta: float = None
    spec_extra: dict = field(default_factory=dict)


# Why each workload (BENCHMARK.json repeats this in one line each):
WORKLOADS = {
    # Sampler, real Gram eigensolve and three cold limit-law CDF grids;
    # z = 1.5 takes the inner-edge branch.
    "svlaw_dense": Workload(
        kind="SvLaw", dist="RealGaussian", n=512, trials=8, smoke_n=32, smoke_trials=2,
        spec_extra={"z_points": ["0+0i", "0.5+0i", "1.5+0i"]},
    ),
    # Bernoulli mask, complex smoothed Gram solves, one re-sample per z, and a
    # full CDF grid built where only log_moment is used. It needs 32 trials:
    # smoothing by r = 1/sqrt(n p_n) spreads u by about 0.08 per trial at
    # z = 0.5+0.5i, and the mean must stay inside the 0.05 gate for any seed.
    "potential_sparse": Workload(
        kind="Potential", dist="RealGaussian", n=512, theta=0.5, trials=32,
        smoke_n=32, smoke_trials=4,
        spec_extra={"z_points": ["0+0i", "0.5+0.5i", "2+0i"], "r": "auto"},
    ),
    # Over 90% eigvals: the bypass for sampler, Gram and limit-theory changes,
    # and the workload most sensitive to pool x BLAS oversubscription.
    "circlaw_eig": Workload(
        kind="CircularLaw", dist="ComplexGaussian", n=512, trials=4, smoke_n=32, smoke_trials=2,
    ),
    # Many small matrices through invertibility: per-call overhead and pool
    # dispatch dominate instead of BLAS.
    "minsv_small": Workload(
        kind="MinSv", dist="Rademacher", n=128, trials=400, smoke_n=16, smoke_trials=50,
        spec_extra={"z_points": ["0+0i"], "thresholds": [1e-4, 1e-3, 1e-2]},
    ),
}

GATE = {
    "sv_ks": 0.05,         # criterion 4: KS delta of the squared-sv law
    "gap": 0.05,           # criterion 7: |u_empirical - u| for both potentials
    "identity": 2e-4,      # criterion 3: |u_disc - u_law|
    "circ_ks": 0.06,       # criterion 5: mean radial and angular KS
    "circ_beyond": 0.01,   # criterion 5: mean share of |lambda| > 1.15
}
SMOKE = dict(GATE, sv_ks=0.3, gap=0.5, circ_ks=0.5, circ_beyond=1.0)


def build_spec(name: str, seed: int, smoke: bool = False) -> dict:
    w = WORKLOADS[name]
    n = w.smoke_n if smoke else w.n
    ensemble = {
        "n": n,
        "p_n": 1.0 if w.theta is None else float(n) ** (-(1.0 - w.theta)),
        "dist": {"tag": w.dist, "params": {}},
        "master_seed": seed,
    }
    if w.theta is not None:
        ensemble["theta"] = w.theta
    spec = {"kind": w.kind, "ensemble": ensemble,
            "trials": w.smoke_trials if smoke else w.trials}
    spec.update(w.spec_extra)
    return spec


def trials_attempted(spec: dict) -> int:
    """Trial evaluations of one campaign: every kind here samples each trial once per z."""
    return spec["trials"] * max(1, len(spec.get("z_points", [])))


def _stat_rows(report):
    return [row for row in report["rows"] if row["row"] == "stat"]


def _check_svlaw(spec, report, tol, errors):
    rows = _stat_rows(report)
    if len(rows) != len(spec["z_points"]):
        errors.append(f"expected {len(spec['z_points'])} stat rows, got {len(rows)}")
    for row in rows:
        if not row["delta"] <= tol["sv_ks"]:
            errors.append(f"z={row['z_re']}: KS delta {row['delta']} > {tol['sv_ks']}")
    return 0


def _check_potential(spec, report, tol, errors):
    rows = _stat_rows(report)
    if len(rows) != len(spec["z_points"]):
        errors.append(f"expected {len(spec['z_points'])} stat rows, got {len(rows)}")
    bad = 0
    for row in rows:
        z = f"{row['z_re']}{row['z_im']:+}i"
        if row["flagged"]:
            errors.append(f"z={z}: flagged, every trial excluded")
            bad += row["trials"]
            continue
        bad += row["excluded"]
        for key in ("gap_disc", "gap_law"):
            if not row[key] <= tol["gap"]:
                errors.append(f"z={z}: {key} {row[key]} > {tol['gap']}")
        if not abs(row["u_disc"] - row["u_law"]) <= tol["identity"]:
            errors.append(f"z={z}: |u_disc - u_law| > {tol['identity']}")
    return bad


def _check_circlaw(spec, report, tol, errors):
    failed = sum(1 for row in report["rows"] if row["row"] == "trial" and row["failed"])
    mean = [row for row in report["rows"] if row["row"] == "mean"]
    if not mean:
        errors.append("no mean row")
        return failed
    for key in ("ks_radial", "ks_angular"):
        if not mean[0][key] <= tol["circ_ks"]:
            errors.append(f"mean {key} {mean[0][key]} > {tol['circ_ks']}")
    if not mean[0]["frac_beyond_1p15"] < tol["circ_beyond"]:
        errors.append(f"mean frac_beyond_1p15 {mean[0]['frac_beyond_1p15']} >= {tol['circ_beyond']}")
    return failed


def _check_minsv(spec, report, tol, errors):
    rows = sorted(_stat_rows(report), key=lambda row: row["threshold"])
    if len(rows) != len(spec["thresholds"]):
        errors.append(f"expected {len(spec['thresholds'])} stat rows, got {len(rows)}")
    freqs = [row["frequency"] for row in rows]
    if any(not 0.0 <= f <= 1.0 for f in freqs):
        errors.append(f"frequency outside [0, 1]: {freqs}")
    if any(a > b for a, b in zip(freqs, freqs[1:])):
        errors.append(f"frequencies decrease with the threshold: {freqs}")
    if any(row["s1_violation_freq"] != 0.0 for row in rows):
        errors.append("s1_violation_freq is not 0")
    return 0


CHECKS = {
    "SvLaw": _check_svlaw,
    "Potential": _check_potential,
    "CircularLaw": _check_circlaw,
    "MinSv": _check_minsv,
}


def check_report(spec: dict, report: dict, smoke: bool = False):
    """(errors, bad_trials): check failures, and failed, excluded or flagged trials."""
    errors = []
    bad = CHECKS[spec["kind"]](spec, report, SMOKE if smoke else GATE, errors)
    return errors, bad
