"""Config-driven experiment campaigns tying samples to their limit laws.

An ExperimentSpec (JSON-serializable) fully determines a run, including the
master seed; reports therefore reproduce bit-identically, independent of the
worker-thread count. Report files carry a hash of the canonical spec JSON in
every row.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import List, Sequence

import numpy as np

from . import __version__
from .ensemble import EnsembleConfig, draw_unit_disc, sample_matrix, smoothing_stream
from .ensemble import _dimension, _json_object, _real, _whole
from .errors import ConfigError, EstimationError, NumericError
from .invertibility import MIN_TAIL_TRIALS, min_sv_tail
from .limit_theory import disc_potential, law_for_shift, potential_from_law
from .linalg import certified_log_det, eigenvalues, frobenius_norm, shift, singular_values
from .linalg import smoothing_shift, truncation_window
from .parallel import parallel_map
from .spectral_measures import (
    EmpiricalCDF,
    ks_distance,
    log_potential_empirical,
    radial_angular_cdfs,
)
from .textio import csv_text, format_value, stable_dumps, write_text

def format_complex(z: complex) -> str:
    """Shell-safe a+bi form with no spaces."""
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_value(z.real)}{sign}{format_value(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' / 'bi' (no spaces) or a plain real number: `complex()` reads
    the literal once a trailing i or I after anything but a sign becomes its j."""
    s = text.strip()
    if s[-1:] in ("i", "I") and s[-2:-1] not in ("", "+", "-"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex literal {text!r}") from exc


def _point(name: str, z) -> complex:
    """One z point: an 'a+bi' literal or a JSON number, finite."""
    z = parse_complex(z) if isinstance(z, str) else z
    if isinstance(z, bool) or not isinstance(z, numbers.Complex) or not cmath.isfinite(z):
        raise ConfigError(f"{name} must be finite numbers or 'a+bi' literals, got {z!r}")
    return complex(z)


def _each(name: str, values, convert) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return tuple(convert(name, v) for v in values)


_RUNNERS = {}  # kind -> (report columns, optional fields read, body), filled by @_runner


def _runner(kind: str, columns: Sequence[str], reads: Sequence[str]):
    """Register `body(spec, report)` as the campaign of `kind`; it appends the rows.
    `reads` names the optional spec fields the body reads besides `out`: a spec of
    `kind` must leave every other one at its default."""

    def register(body):
        _RUNNERS[kind] = (list(columns) + ["spec_hash"], tuple(reads), body)
        return body

    return register


_JSON_KEY = {"big_r": "R"}  # JSON key of a field, where it differs from the name


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment campaign: kind, ensemble, trial count, and kind-specific knobs."""

    kind: str
    ensemble: EnsembleConfig
    trials: int
    z_points: tuple = ()
    r: object = 0.0  # float or "auto" (1/sqrt(n p_n))
    thresholds: tuple = ()
    n_values: tuple = ()
    b_exponent: float = 3.0
    c_cut: float = 1.0
    q: float = 18.0
    big_r: float = 3.0
    out: str = ""

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name, value in (
            ("trials", _whole("trials", self.trials)),
            ("z_points", _each("z_points", self.z_points, _point)),
            ("thresholds", _each("thresholds", self.thresholds, _real)),
            ("n_values", _each("n_values", self.n_values, _dimension)),
            ("r", self.r if self.r == "auto" else _real("r", self.r)),
            ("b_exponent", _real("b_exponent", self.b_exponent)),
            ("c_cut", _real("c_cut", self.c_cut)),
            ("q", _real("q", self.q)),
            ("big_r", _real("R", self.big_r)),
        ):
            object.__setattr__(self, name, value)
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        reads = _RUNNERS[self.kind][1] + ("out",)
        for f in fields(self):
            unread = f.default is not MISSING and f.name not in reads
            if unread and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.kind} does not read {_JSON_KEY.get(f.name, f.name)}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError(f"n_values must be distinct, got {list(self.n_values)}")
        if "z_points" in reads and not self.z_points:
            raise ConfigError(f"{self.kind} requires at least one z point")
        if self.kind in ("MinSv", "MaxSv") and self.trials < MIN_TAIL_TRIALS:
            raise ConfigError(f"{self.kind} needs trials >= {MIN_TAIL_TRIALS}, got {self.trials}")
        if self.kind == "MinSv" and not (self.thresholds and min(self.thresholds) > 0):
            raise ConfigError(f"MinSv requires thresholds, all > 0, got {list(self.thresholds)}")
        if self.r != "auto" and self.r < 0:
            raise ConfigError(f"r must be a nonnegative number or 'auto', got {self.r!r}")
        if self.c_cut <= 0:
            raise ConfigError(f"Potential requires c_cut > 0, got {self.c_cut}")
        if self.q <= 6:
            raise ConfigError(f"TailIndex requires q > 6, got {self.q}")
        if self.big_r <= 0:
            raise ConfigError(f"TailIndex requires R > 0, got {self.big_r}")

    def resolve_r(self, config: EnsembleConfig) -> float:
        if self.r == "auto":
            return 1.0 / math.sqrt(config.n * config.p_n)
        return self.r

    def to_json_dict(self) -> dict:
        d = {_JSON_KEY.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        d.update(ensemble=self.ensemble.to_json_dict(), thresholds=list(self.thresholds),
                 z_points=[format_complex(z) for z in self.z_points], n_values=list(self.n_values))
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        names = {_JSON_KEY.get(f.name, f.name): f.name for f in fields(cls)}
        _json_object("experiment spec", d, ("kind", "ensemble", "trials"), names)
        args = {names[key]: value for key, value in d.items()}
        return cls(**dict(args, ensemble=EnsembleConfig.from_json_dict(d["ensemble"])))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_json_dict(json.loads(text))

    def hash(self) -> str:
        canon = stable_dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentReport:
    """Tabular statistics plus provenance metadata."""

    columns: List[str]
    rows: List[dict]
    meta: dict = field(default_factory=dict)

    def append(self, **kwargs):
        row = {c: kwargs.get(c, "") for c in self.columns}
        row["spec_hash"] = self.meta.get("spec_hash", "")
        self.rows.append(row)


def render_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Bit-stable text of a report; wall time is deliberately not written."""
    if fmt == "csv":
        return csv_text(report.columns, ([row[c] for c in report.columns] for row in report.rows))
    if fmt == "json":
        payload = {
            "meta": {k: v for k, v in report.meta.items() if k != "wall_time_s"},
            "columns": list(report.columns),
            "rows": [{c: row[c] for c in report.columns} for row in report.rows],
        }
        return stable_dumps(payload) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def write_report(report: ExperimentReport, path, fmt: str = "csv") -> None:
    write_text(path, render_report(report, fmt))


def _trial_pass(one_trial, groups: Sequence, trials: int) -> list:
    """[[one_trial(g, t) for t in range(trials)] for g in groups], with every (group, trial)
    task in one `parallel_map` pass, so a campaign waits once for its slowest worker."""
    results = parallel_map(lambda task: one_trial(*task),
                           [(g, t) for g in groups for t in range(trials)])
    return [results[i * trials:(i + 1) * trials] for i in range(len(groups))]


def _uniform01_cdf(x):
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)


_CIRCLAW_STATS = ("ks_radial", "ks_angular", "frac_beyond_soft", "frac_beyond_1p15")


@_runner("CircularLaw", ["row", "trial", *_CIRCLAW_STATS, "failed"], ())
def _circular_law(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """Per-trial eigenvalue statistics against the uniform-disc law."""
    cfg = spec.ensemble
    soft_edge = 1.0 + 3.0 * cfg.n ** -0.25

    def one_trial(cfg, t):
        try:
            spectrum = eigenvalues(sample_matrix(cfg, t), overwrite=True)
        except NumericError:
            return None
        radial, angular = radial_angular_cdfs(spectrum)
        mods = np.abs(spectrum.values)
        return (
            ks_distance(radial, _uniform01_cdf),
            ks_distance(angular, _uniform01_cdf),
            float(np.mean(mods > soft_edge)),
            float(np.mean(mods > 1.15)),
        )

    (results,) = _trial_pass(one_trial, [cfg], spec.trials)
    ok = [r for r in results if r is not None]
    for t, res in enumerate(results):
        stats = dict(zip(_CIRCLAW_STATS, res or ()))
        report.append(row="trial", trial=t, failed=res is None, **stats)
    if ok:
        arr = np.array(ok)
        means = arr.mean(axis=0)
        errs = arr.std(axis=0, ddof=1) / math.sqrt(len(ok)) if len(ok) > 1 else np.zeros_like(means)
        for name, vals in (("mean", means), ("stderr", errs)):
            stats = dict(zip(_CIRCLAW_STATS, vals.tolist()))
            report.append(row=name, trial=-1, failed=False, **stats)
    report.meta["failed_trials"] = len(results) - len(ok)


@_runner("SvLaw", ["row", "n", "z_re", "z_im", "trials", "delta", "slope"],
         ("z_points", "n_values"))
def _sv_law(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """Trial-averaged squared-singular-value law against the limit CDF.

    Every shift's limit law is built first, so a bad z fails before any
    trial; then one pool pass runs every (z, n, trial) task, each sampling its
    trial once, and the atoms are pooled per (z, n) in row order.
    With an n ladder, also reports the fitted slope of ln Delta_n over ln n
    as a decay diagnostic (the theoretical rate is only an upper bound, so the
    slope is informational).
    """
    laws = [law_for_shift(z) for z in spec.z_points]
    cfgs = _ladder(spec)

    def one_trial(case, t):
        z, cfg = case
        return np.asarray(singular_values(shift(sample_matrix(cfg, t), z)).values) ** 2

    cases = [(z, cfg) for z in spec.z_points for cfg in cfgs]
    atoms = iter(_trial_pass(one_trial, cases, spec.trials))
    for z, law in zip(spec.z_points, laws):
        deltas = []
        for cfg, trials in zip(cfgs, atoms):  # zip takes cfgs first: no case is skipped
            pooled = EmpiricalCDF.from_values(np.concatenate(trials))
            delta = ks_distance(pooled, law.cdf_squared)
            deltas.append(delta)
            report.append(
                row="stat", n=cfg.n, z_re=z.real, z_im=z.imag,
                trials=spec.trials, delta=delta, slope="",
            )
        if len(cfgs) >= 2:
            x = np.log([cfg.n for cfg in cfgs])
            x -= np.mean(x)  # least squares without LAPACK's kernels
            slope = float(np.sum(x * np.log(deltas)) / np.sum(x * x))
            report.append(
                row="slope", n=-1, z_re=z.real, z_im=z.imag,
                trials=spec.trials, delta="", slope=slope,
            )


@_runner("Potential", ["row", "z_re", "z_im", "r", "trials", "included", "excluded",
                       "u_empirical", "u_stderr", "u_disc", "u_law", "gap_disc", "gap_law",
                       "flagged"], ("z_points", "r", "b_exponent", "c_cut"))
def _potential(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """Empirical truncated log-determinant average vs the two exact potentials.

    Both potentials of every shift are taken first, so a bad z fails before
    any trial; then one pool pass runs every (z, trial) task, and each shift's
    row is reduced from its trials in z order.
    Each trial's log|det| comes from `certified_log_det`, which forms the
    smoothed shift of the sample in a buffer of its own; a trial whose
    certificate does not clear the truncation window takes the whole spectrum
    of `smoothing_shift`'s copy instead, so the filter decides it exactly.
    """
    cfg = spec.ensemble
    r = spec.resolve_r(cfg)
    floor, ceiling = truncation_window(cfg.n, cfg.p_n, spec.b_exponent, spec.c_cut)
    exact = [(disc_potential(z), potential_from_law(z)) for z in spec.z_points]

    def one_trial(z, t):
        sample = sample_matrix(cfg, t)
        shifts = (r * draw_unit_disc(smoothing_stream(cfg, t)), z)  # as smoothing_shift's
        det = certified_log_det(sample, floor, ceiling, cfg.master_seed, t, shifts)
        if det is None:
            return singular_values(smoothing_shift(sample, r, smoothing_stream(cfg, t), z))
        return det

    spectra = _trial_pass(one_trial, spec.z_points, spec.trials)
    for z, (u_disc, u_law), trials in zip(spec.z_points, exact, spectra):
        try:
            est = log_potential_empirical(trials, cfg.p_n, spec.b_exponent, spec.c_cut)
        except EstimationError:  # every trial excluded: the row is flagged
            stats = dict(included=0, excluded=spec.trials, flagged=True)
        else:
            stats = dict(
                included=est.trials - est.truncation_count, excluded=est.truncation_count,
                u_empirical=est.value, u_stderr=est.stderr, gap_disc=abs(est.value - u_disc),
                gap_law=abs(est.value - u_law), flagged=False,
            )
        report.append(row="stat", z_re=z.real, z_im=z.imag, r=r, trials=spec.trials,
                      u_disc=u_disc, u_law=u_law, **stats)


@_runner("MinSv", ["row", "n", "p_n", "z_re", "z_im", "threshold", "frequency", "trials",
                   "s1_violation_freq"], ("z_points", "thresholds", "n_values"))
def _minsv(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """min_sv_tail over the whole (n, z) grid, in one pool pass."""
    cases = [(cfg, z) for cfg in _ladder(spec) for z in spec.z_points]
    for table in min_sv_tail(cases, spec.trials, spec.thresholds):
        for t, f in zip(table.thresholds, table.frequencies):
            report.append(
                row="stat", n=table.n, p_n=table.p_n, z_re=table.z.real, z_im=table.z.imag,
                threshold=float(t), frequency=float(f), trials=spec.trials,
                s1_violation_freq=table.s1_violation_frequency,
            )


@_runner("MaxSv", ["row", "n", "p_n", "frequency", "trials"], ("n_values",))
def _maxsv(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """Frequency of s_1 >= n sqrt(p_n) (no shift) at each n of the ladder.

    s_1 <= `frobenius_norm`, so a trial whose bound is below n sqrt(p_n) misses
    without a spectrum; only the others take `singular_values`. One pool pass
    runs every (n, trial) task, and each n's frequency is reduced in row order.
    """
    cfgs = _ladder(spec)

    def one_trial(cfg, t):
        ceiling = truncation_window(cfg.n, cfg.p_n)[1]
        sample = sample_matrix(cfg, t)
        return frobenius_norm(sample) >= ceiling and singular_values(sample).values[0] >= ceiling

    for cfg, hits in zip(cfgs, _trial_pass(one_trial, cfgs, spec.trials)):
        freq = float(np.mean(hits))
        report.append(row="stat", n=cfg.n, p_n=cfg.p_n, frequency=freq, trials=spec.trials)


def _ladder(spec: ExperimentSpec) -> list:
    """The ensemble at each n of `n_values` (else at its own n), every one built
    before any trial runs, so a bad n fails first; theta (if any) re-derives p_n."""
    cfg = spec.ensemble
    ns = list(spec.n_values) or [cfg.n]
    if cfg.theta is None:
        return [replace(cfg, n=n) for n in ns]
    return [EnsembleConfig.from_theta(n, cfg.theta, cfg.dist, cfg.master_seed) for n in ns]


def tail_eigenvalue_index(delta: float, n: int, q: float):
    """(k1, effective index, clamped flag): k1 = floor(delta^((q+6)/(2q)) n ln n),
    clamped into [1, n-1] when the formula leaves the valid range."""
    k1 = int(math.floor(delta ** ((q + 6.0) / (2.0 * q)) * n * math.log(n)))
    clamped = k1 >= n or k1 < 1
    k1_eff = min(max(k1, 1), n - 1) if n > 1 else 1
    return k1, k1_eff, clamped


@_runner("TailIndex", ["row", "n", "delta", "k1", "k1_effective", "clamped", "R", "q",
                       "frequency", "trials"], ("q", "big_r"))
def _tail_index(spec: ExperimentSpec, report: ExperimentReport) -> None:
    """Frequency of the k1-th largest eigenvalue modulus exceeding R, where
    k1 comes from tail_eigenvalue_index at the sv-law distance Delta_n
    measured at the reference shift z = 0."""
    cfg = spec.ensemble

    def one_trial(cfg, t):
        sample = sample_matrix(cfg, t)
        sv2 = np.asarray(singular_values(sample).values) ** 2
        return sv2, np.sort(np.abs(eigenvalues(sample).values))[::-1]

    (results,) = _trial_pass(one_trial, [cfg], spec.trials)
    pooled = EmpiricalCDF.from_values(np.concatenate([sv2 for sv2, _ in results]))
    delta = ks_distance(pooled, law_for_shift(0j).cdf_squared)
    k1, k1_eff, clamped = tail_eigenvalue_index(delta, cfg.n, spec.q)
    hits = [float(mods[k1_eff - 1]) > spec.big_r for _, mods in results]
    report.append(
        row="stat", n=cfg.n, delta=delta, k1=k1, k1_effective=k1_eff, clamped=clamped,
        R=spec.big_r, q=spec.q, frequency=float(np.mean(hits)), trials=spec.trials,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the campaign of `spec.kind`: open its report, let its body fill it, time it."""
    start = time.perf_counter()
    columns, _, body = _RUNNERS[spec.kind]
    report = ExperimentReport(list(columns), [], {
        "kind": spec.kind,
        "spec_hash": spec.hash(),
        "master_seed": spec.ensemble.master_seed,
        "version": __version__,
        "wall_time_s": 0.0,  # filled at end of run, excluded from serialization
    })
    body(spec, report)
    report.meta["wall_time_s"] = time.perf_counter() - start
    return report
