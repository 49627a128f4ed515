import dataclasses
import json
import math
import os
import pathlib

import numpy as np
import pytest

from circulaw import ConfigError, DomainError, EnsembleConfig, EntryDistribution, experiments
from circulaw import MatrixSample, invertibility, singular_values
from circulaw.ensemble import sample_matrix, smoothing_stream
from circulaw.experiments import (
    _JSON_KEY,
    _RUNNERS,
    ExperimentReport,
    ExperimentSpec,
    format_complex,
    parse_complex,
    render_report,
    run_experiment,
    write_report,
)

from test_golden import SPECS as GOLDEN_SPECS, golden_spec

GAUSS = EntryDistribution("RealGaussian")
RADEMACHER = EntryDistribution("Rademacher")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def small_ensemble(n=32, seed=7):
    return EnsembleConfig(n, 1.0, GAUSS, seed)


def _readme_schema() -> str:
    """The README's "Experiment spec schema" section."""
    text = README.read_text(encoding="utf-8")
    return text.split("## Experiment spec schema (JSON)\n", 1)[1].split("\n## ", 1)[0]


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5+0i", 0.5), ("1-2i", 1 - 2j), ("-0.25+0.75i", -0.25 + 0.75j),
            ("3", 3.0), ("1e-3+2e-4i", 1e-3 + 2e-4j), ("-2.5", -2.5),
            ("2i", 2j), ("-0.5I", -0.5j), ("1+2j", 1 + 2j),
        ],
    )
    def test_roundtrip(self, text, value):
        assert parse_complex(text) == value

    def test_format_parse_identity(self):
        for z in (0.5 + 0.25j, -1j, 2.0 + 0j, -0.125 - 8j):
            assert parse_complex(format_complex(z)) == z

    def test_rejects_garbage(self):
        for bad in ("", "1+2", "i", "1 + 2i", "1 +2i", "1+i", "abc"):
            with pytest.raises(ConfigError):
                parse_complex(bad)


class TestSpec:
    def test_json_roundtrip(self):
        specs = [golden_spec(name) for name in GOLDEN_SPECS]
        specs.append(ExperimentSpec(
            kind="SvLaw", ensemble=EnsembleConfig.from_theta(64, 0.5, GAUSS, 3), trials=3,
            z_points=(0.5 + 0j, 1j), n_values=(16, 32),
        ))
        for spec in specs:
            back = ExperimentSpec.from_json(json.dumps(spec.to_json_dict()))
            assert back == spec == ExperimentSpec.from_json_dict(spec.to_json_dict())
            assert back.hash() == spec.hash()

    def test_readme_example_parses(self):
        example = _readme_schema().split("```json\n", 1)[1].split("```", 1)[0]
        spec = ExperimentSpec.from_json_dict(json.loads(example))
        assert spec.kind == "Potential" and spec.r == "auto"

    def test_readme_field_table_matches_spec(self):
        fields = dataclasses.fields(ExperimentSpec)[3:]
        optional = {_JSON_KEY.get(f.name, f.name): f for f in fields}
        rows = [[cell.strip(" `") for cell in line.split("|")[1:4]]
                for line in _readme_schema().splitlines() if line.startswith("| `")]
        assert sorted(key for key, _, _ in rows) == sorted(optional)
        for key, default, kinds in rows:
            f = optional[key]
            assert json.loads(default) == json.loads(json.dumps(f.default)), key
            readers = ", ".join(k for k, (_, reads, _) in _RUNNERS.items() if f.name in reads)
            assert kinds == ("every kind" if key == "out" else readers), key

    def test_unknown_fields_rejected(self):
        d = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(), trials=50).to_json_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_dict(d)

    def test_z_required_for_z_kinds(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="SvLaw", ensemble=small_ensemble(), trials=2)

    def test_auto_radius(self):
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=64),
                              trials=2, z_points=(0j,), r="auto")
        assert spec.resolve_r(spec.ensemble) == pytest.approx(1.0 / math.sqrt(64))

    def test_hash_depends_on_seed(self):
        a = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(seed=1), trials=50)
        b = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(seed=2), trials=50)
        assert a.hash() != b.hash()


class TestCircularLaw:
    def test_smoke_tiny(self):
        spec = ExperimentSpec(kind="CircularLaw", ensemble=small_ensemble(n=4), trials=2)
        report = run_experiment(spec)
        trial_rows = [r for r in report.rows if r["row"] == "trial"]
        assert len(trial_rows) == 2
        assert all(r["spec_hash"] == spec.hash() for r in report.rows)
        assert report.meta["failed_trials"] == 0

    def test_moderate_accuracy(self):
        spec = ExperimentSpec(kind="CircularLaw", ensemble=small_ensemble(n=128, seed=3), trials=3)
        report = run_experiment(spec)
        mean = next(r for r in report.rows if r["row"] == "mean")
        assert mean["ks_radial"] < 0.2
        assert mean["ks_angular"] < 0.2


class TestSvLaw:
    def test_single_n(self):
        spec = ExperimentSpec(kind="SvLaw", ensemble=small_ensemble(n=64), trials=4,
                              z_points=(0.5 + 0j,))
        report = run_experiment(spec)
        stat = next(r for r in report.rows if r["row"] == "stat")
        assert 0.0 <= stat["delta"] < 0.5

    def test_ladder_emits_slope(self):
        spec = ExperimentSpec(kind="SvLaw", ensemble=small_ensemble(), trials=3,
                              z_points=(0j,), n_values=(16, 32, 64))
        report = run_experiment(spec)
        assert [r["n"] for r in report.rows if r["row"] == "stat"] == [16, 32, 64]
        slope_rows = [r for r in report.rows if r["row"] == "slope"]
        assert len(slope_rows) == 1 and isinstance(slope_rows[0]["slope"], float)
        deltas = [r["delta"] for r in report.rows if r["row"] == "stat"]
        fit = np.polyfit(np.log([16, 32, 64]), np.log(deltas), 1)[0]
        assert slope_rows[0]["slope"] == pytest.approx(fit, rel=1e-12)

    def test_ladder_rederives_sparse_probability(self):
        # theta-parameterized ensembles must re-derive p_n at every rung
        cfg = EnsembleConfig.from_theta(64, 0.5, GAUSS, 30)
        spec = ExperimentSpec(kind="SvLaw", ensemble=cfg, trials=2,
                              z_points=(0j,), n_values=(16, 64))
        report = run_experiment(spec)
        assert [r["n"] for r in report.rows if r["row"] == "stat"] == [16, 64]

    def test_ladder_distance_decays(self):
        spec = ExperimentSpec(
            kind="SvLaw", ensemble=EnsembleConfig(128, 1.0, GAUSS, 1860), trials=20,
            z_points=(0.5 + 0j,), n_values=(128, 256, 512, 1024),
        )
        report = run_experiment(spec)
        deltas = [r["delta"] for r in report.rows if r["row"] == "stat"]
        decreasing_steps = sum(b < a for a, b in zip(deltas, deltas[1:]))
        assert decreasing_steps >= 2
        assert deltas[-1] < deltas[0]
        slope = next(r["slope"] for r in report.rows if r["row"] == "slope")
        assert slope < 0


class TestPotential:
    def test_rows_and_truncation_accounting(self):
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=64, seed=12),
                              trials=6, z_points=(0j, 3 + 0j), r="auto")
        report = run_experiment(spec)
        for row in report.rows:
            assert row["included"] + row["excluded"] == spec.trials
            assert not row["flagged"]
        z0 = report.rows[0]
        assert abs(z0["u_empirical"] - 0.5) < 0.2

    def test_limit_consistency_gap_small(self):
        # pure-limit consistency rides along in every row
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=16, seed=2),
                              trials=2, z_points=(0.7 + 0j,), r=0.0)
        report = run_experiment(spec)
        row = report.rows[0]
        assert abs(row["u_disc"] - row["u_law"]) <= 2e-4

    def test_all_trials_truncated_flags_z(self):
        # c_cut far above every singular value forces full exclusion
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=16, seed=4),
                              trials=3, z_points=(0j,), r=0.0, c_cut=1e12)
        report = run_experiment(spec)
        assert report.rows[0]["flagged"]
        assert report.rows[0]["excluded"] == 3

    def test_smoothed_pipeline_hits_exact_potentials(self):
        # full-size check of the smoothed pipeline against both exact values
        spec = ExperimentSpec(
            kind="Potential", ensemble=EnsembleConfig(512, 1.0, GAUSS, 71),
            trials=20, z_points=(0j, 3 + 0j), r="auto",
        )
        report = run_experiment(spec)
        by_z = {row["z_re"]: row for row in report.rows}
        assert abs(by_z[0.0]["u_empirical"] - 0.5) <= 0.05
        assert abs(by_z[3.0]["u_empirical"] - (-math.log(3.0))) <= 0.05
        assert not any(row["flagged"] for row in report.rows)


def spectrum_path(spec, z, monkeypatch):
    """(Potential row at z, spectrum-only estimate, singular_values calls of the run)."""
    from circulaw.linalg import shift, singular_values, smoothing_shift
    from circulaw.spectral_measures import log_potential_empirical

    cfg, r = spec.ensemble, spec.resolve_r(spec.ensemble)
    spectra = [
        singular_values(shift(smoothing_shift(sample_matrix(cfg, t), r, smoothing_stream(cfg, t)), z))
        for t in range(spec.trials)
    ]
    reference = log_potential_empirical(spectra, cfg.p_n, spec.b_exponent, spec.c_cut)
    calls = []
    monkeypatch.setattr(experiments, "singular_values",
                        lambda a: calls.append(1) or singular_values(a))
    row = run_experiment(spec).rows[0]
    return row, reference, len(calls)


class TestPotentialCertificate:
    def test_ceiling_fallback_matches_the_spectrum_path(self, monkeypatch):
        # at z = 5, ||A - z||_F ~ 4 sqrt(26) > n = 16 while s_1 ~ 7: every trial takes
        # the spectrum, and every trial is included
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=16, seed=9),
                              trials=4, z_points=(5 + 0j,), r="auto")
        row, reference, calls = spectrum_path(spec, 5 + 0j, monkeypatch)
        assert calls == spec.trials
        assert (row["included"], row["excluded"]) == (spec.trials, 0) == (
            reference.trials - reference.truncation_count, reference.truncation_count)
        assert row["u_empirical"] == reference.value

    def test_floor_fallback_matches_the_spectrum_path(self, monkeypatch):
        # a floor between the trials' smallest singular values: the certificate can
        # clear none of them, and the spectrum includes some and excludes others
        base = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=16, seed=10),
                              trials=6, z_points=(0j,), r=0.0)
        from circulaw.linalg import singular_values

        s_n = sorted(singular_values(sample_matrix(base.ensemble, t)).values[-1]
                     for t in range(base.trials))
        c_cut = math.sqrt(s_n[2] * s_n[3]) * 16**3
        spec = dataclasses.replace(base, c_cut=c_cut)
        row, reference, calls = spectrum_path(spec, 0j, monkeypatch)
        assert calls == spec.trials
        assert (row["included"], row["excluded"]) == (3, 3) == (
            reference.trials - reference.truncation_count, reference.truncation_count)
        assert row["u_empirical"] == reference.value

    def test_certified_trials_agree_with_the_spectrum_path(self, monkeypatch):
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=64, seed=11),
                              trials=5, z_points=(0.5 + 0.5j,), r="auto")
        row, reference, calls = spectrum_path(spec, 0.5 + 0.5j, monkeypatch)
        assert calls == 0
        assert row["included"] == spec.trials and reference.truncation_count == 0
        assert abs(row["u_empirical"] - reference.value) <= 1e-12

    def test_exactly_singular_trial_is_excluded(self, monkeypatch):
        def singular_first(cfg, t):
            sample = sample_matrix(cfg, t)
            if t == 0:
                sample.entries[:, 3] = 0.0
            return sample

        monkeypatch.setattr(experiments, "sample_matrix", singular_first)
        spec = ExperimentSpec(kind="Potential", ensemble=small_ensemble(n=16, seed=12),
                              trials=3, z_points=(0j,), r=0.0)
        row = run_experiment(spec).rows[0]
        assert (row["included"], row["excluded"]) == (2, 1)
        assert math.isfinite(row["u_empirical"]) and not row["flagged"]


class TestMinMaxSv:
    def test_minsv_delegation(self):
        spec = ExperimentSpec(kind="MinSv", ensemble=small_ensemble(n=24, seed=6), trials=50,
                              z_points=(0j,), thresholds=(1e-9, 1e-1, 10.0))
        report = run_experiment(spec)
        freqs = [r["frequency"] for r in report.rows]
        assert freqs == sorted(freqs)
        assert freqs[0] == 0.0 and freqs[-1] == 1.0

    def test_maxsv_delegation(self):
        spec = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(n=24, seed=6), trials=50,
                              n_values=(16, 24))
        report = run_experiment(spec)
        assert [r["n"] for r in report.rows] == [16, 24]
        assert all(r["frequency"] == 0.0 for r in report.rows)

    def test_minsv_requires_thresholds(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec(kind="MinSv", ensemble=small_ensemble(), trials=50,
                                          z_points=(0j,)))


class TestMaxSvTail:
    """MaxSv's s_1 tail: the Frobenius screen, then the spectrum only where it is needed."""

    @staticmethod
    def _frequency(cfg, trials):
        (row,) = run_experiment(ExperimentSpec(kind="MaxSv", ensemble=cfg, trials=trials)).rows
        return row["frequency"]

    def test_dense_gaussian_never_reaches_bound(self):
        assert self._frequency(EnsembleConfig(256, 1.0, GAUSS, 42), trials=200) == 0.0

    def test_one_by_one_rademacher_always_hits(self):
        # s1 = |X| = 1 >= 1 * sqrt(1) for every trial
        assert self._frequency(EnsembleConfig(1, 1.0, RADEMACHER, 9), trials=50) == 1.0

    def test_frobenius_shortcut_matches_the_spectrum_count(self, monkeypatch):
        # p_n = 1/n puts ||A||_F near the ceiling sqrt(n): some trials need the spectrum
        cfg = EnsembleConfig(16, 1.0 / 16, GAUSS, 21)
        s1 = [singular_values(sample_matrix(cfg, t)).values[0] for t in range(60)]
        calls = []
        monkeypatch.setattr(experiments, "singular_values",
                            lambda a: calls.append(1) or singular_values(a))
        got = self._frequency(cfg, trials=60)
        assert got == float(np.mean(np.array(s1) >= cfg.n * math.sqrt(cfg.p_n)))
        assert 0.0 < got and 0 < len(calls) < 60

    def test_screen_keeps_a_trial_whose_s1_is_the_ceiling(self, monkeypatch):
        # a rank-one A has s_1 = ||A||_F, and its rounded norm can sit an ulp below
        # the s_1 that `singular_values` returns; put the ceiling exactly on that s_1
        gen = np.random.default_rng(7)
        for _ in range(100):
            a = np.outer(gen.uniform(0.1, 1.0, 2), gen.uniform(0.1, 1.0, 2))
            s1 = float(singular_values(MatrixSample(a)).values[0])
            if np.linalg.norm(a) < s1:
                break
        else:
            pytest.fail("no rank-one matrix whose rounded norm falls below s_1")
        cfg = EnsembleConfig(2, (s1 / 2.0) ** 2, GAUSS, 1)
        assert cfg.n * math.sqrt(cfg.p_n) == s1
        monkeypatch.setattr(experiments, "sample_matrix", lambda config, t: MatrixSample(a))
        assert self._frequency(cfg, trials=50) == 1.0


class TestTailIndex:
    def test_moderate_size(self):
        spec = ExperimentSpec(kind="TailIndex", ensemble=small_ensemble(n=128, seed=15),
                              trials=30, q=18.0, big_r=3.0)
        report = run_experiment(spec)
        row = report.rows[0]
        assert row["frequency"] == 0.0
        assert 1 <= row["k1_effective"] < 128

    def test_degenerate_clamp(self):
        from circulaw.experiments import tail_eigenvalue_index

        # delta = 1 forces k1 = floor(n ln n) >= n: clamped and flagged
        k1, k1_eff, clamped = tail_eigenvalue_index(1.0, 16, q=18.0)
        assert k1 == int(16 * math.log(16)) and k1 > 16
        assert clamped and k1_eff == 15
        # tiny delta at small n can underflow to k1 = 0: clamps up to 1
        k1, k1_eff, clamped = tail_eigenvalue_index(1e-12, 8, q=18.0)
        assert k1 == 0 and clamped and k1_eff == 1

    def test_ordering_invariant(self):
        from circulaw import eigenvalues, sample_matrix

        cfg = small_ensemble(n=16, seed=44)
        mods = np.sort(np.abs(eigenvalues(sample_matrix(cfg, 0)).values))[::-1]
        assert mods[5] <= mods[0]


class TestReports:
    def test_json_roundtrip_bitstable(self, tmp_path):
        spec = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(n=16), trials=50)
        report = run_experiment(spec)
        path = tmp_path / "r.json"
        write_report(report, path, "json")
        data = json.loads(path.read_text())
        assert data["meta"]["spec_hash"] == spec.hash()
        assert "wall_time_s" not in data["meta"]
        assert data["rows"][0]["frequency"] == report.rows[0]["frequency"]
        write_report(report, tmp_path / "r2.json", "json")
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        report = ExperimentReport(["value", "spec_hash"], [], {"spec_hash": "x"})
        report.append(value=0.1)
        path = tmp_path / "fmt.csv"
        write_report(report, path, "csv")
        assert "0.10000000000000001" in path.read_text()

    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(["a", "b", "spec_hash"], [], {"spec_hash": "y"})
        path = tmp_path / "empty.csv"
        write_report(report, path, "csv")
        assert path.read_text() == "a,b,spec_hash\n"

    def test_golden_schema(self, tmp_path):
        spec = ExperimentSpec(kind="SvLaw", ensemble=small_ensemble(n=16, seed=9), trials=2,
                              z_points=(0.5 + 0j,))
        report = run_experiment(spec)
        path = tmp_path / "golden.json"
        write_report(report, path, "json")
        data = json.loads(path.read_text())
        assert set(data) == {"meta", "columns", "rows"}
        assert set(data["meta"]) == {"kind", "spec_hash", "master_seed", "version"}
        assert data["columns"] == ["row", "n", "z_re", "z_im", "trials", "delta", "slope", "spec_hash"]
        for row in data["rows"]:
            assert list(row) == data["columns"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown report format 'xml'"):
            render_report(ExperimentReport(["a"], []), "xml")

    def test_unwritable_path_raises_oserror(self):
        spec = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(n=8), trials=50)
        report = run_experiment(spec)
        with pytest.raises(OSError):
            write_report(report, "/nonexistent-dir/report.csv", "csv")


class TestReproducibility:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        spec = ExperimentSpec(kind="SvLaw", ensemble=small_ensemble(n=48, seed=21), trials=6,
                              z_points=(0.5 + 0j,), n_values=(24, 48))
        blobs = []
        original = os.environ.get("CIRCULAW_THREADS")
        try:
            for threads in ("1", "2", "8"):
                os.environ["CIRCULAW_THREADS"] = threads
                path = tmp_path / f"rep{threads}.json"
                write_report(run_experiment(spec), path, "json")
                blobs.append(path.read_bytes())
        finally:
            if original is None:
                os.environ.pop("CIRCULAW_THREADS", None)
            else:
                os.environ["CIRCULAW_THREADS"] = original
        assert blobs[0] == blobs[1] == blobs[2]

    def test_rerun_identical(self):
        spec = ExperimentSpec(kind="CircularLaw", ensemble=small_ensemble(n=24, seed=5), trials=3)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.rows == b.rows

    def test_run_experiment_dispatch(self):
        spec = ExperimentSpec(kind="MaxSv", ensemble=small_ensemble(n=8), trials=50)
        report = run_experiment(spec)
        assert report.meta["kind"] == "MaxSv"


class TestOnePass:
    """Every kind runs every (z, n, trial) task of its campaign in one pool pass."""

    SPECS = {
        "CircularLaw": dict(kind="CircularLaw", ensemble=small_ensemble(n=12, seed=3), trials=3),
        "SvLaw": dict(kind="SvLaw", ensemble=small_ensemble(n=16, seed=3), trials=3,
                      z_points=(0.5 + 0j, 1.5 + 0j), n_values=(12, 16)),
        "Potential": dict(kind="Potential", ensemble=small_ensemble(n=16, seed=3), trials=3,
                          z_points=(0j, 0.5 + 0.5j, 2 + 0j), r=0.1),
        # thresholds straddle the Gram path's cutoff, where some trials take the SVD
        "MinSv": dict(GOLDEN_SPECS["MinSv_cutoff"], kind="MinSv", n_values=(6, 8)),
        "MaxSv": dict(kind="MaxSv", ensemble=small_ensemble(n=16, seed=3), trials=50,
                      n_values=(12, 16)),
        "TailIndex": dict(kind="TailIndex", ensemble=small_ensemble(n=12, seed=3), trials=3),
    }
    # an n = 32 trial uses far less CPU than parallel._PAYING_TASK_S and an n = 256 one
    # more, so on two workers the helper parks in the first half and works in the second
    LADDER = dict(kind="MinSv", ensemble=small_ensemble(n=32, seed=5), trials=50,
                  z_points=(0j,), thresholds=(1e-3, 1e-2, 0.1), n_values=(32, 256))

    @staticmethod
    def _count_calls(monkeypatch, kind):
        """(pool passes, (n, trial) of every sample) of the runs from now on, counted
        where the campaign of `kind` looks the pool and the sampler up."""
        module = invertibility if kind == "MinSv" else experiments
        passes, samples = [], []
        pool, sampler = module.parallel_map, module.sample_matrix

        def counted_pool(fn, items):
            passes.append(len(items))
            return pool(fn, items)

        def counted_sampler(cfg, t, **kwargs):
            samples.append((cfg.n, t))
            return sampler(cfg, t, **kwargs)

        monkeypatch.setattr(module, "parallel_map", counted_pool)
        monkeypatch.setattr(module, "sample_matrix", counted_sampler)
        return passes, samples

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_one_pool_pass_and_one_sample_per_trial_z_and_n(self, monkeypatch, kind):
        spec = ExperimentSpec(**self.SPECS[kind])
        passes, samples = self._count_calls(monkeypatch, kind)
        run_experiment(spec)
        ns = spec.n_values or (spec.ensemble.n,)
        zs = max(1, len(spec.z_points))
        assert passes == [zs * len(ns) * spec.trials]
        expected = [(n, t) for n in ns for t in range(spec.trials)] * zs
        assert sorted(samples) == sorted(expected)

    @pytest.mark.parametrize("kind", ["Potential", "SvLaw"])  # the kinds that build a law per z
    def test_a_shift_beyond_the_bound_fails_before_any_sample(self, monkeypatch, kind):
        spec = ExperimentSpec(**dict(self.SPECS[kind], z_points=(0.5 + 0j, 2e5 + 0j)))
        passes, samples = self._count_calls(monkeypatch, kind)
        with pytest.raises(DomainError, match="1e5"):
            run_experiment(spec)
        assert passes == [] and samples == []

    @pytest.mark.parametrize("kind", sorted(SPECS) + ["MinSv_ladder"])
    def test_reports_are_equal_bit_for_bit_at_1_2_and_8_workers(self, monkeypatch, kind):
        spec = ExperimentSpec(**dict(self.SPECS, MinSv_ladder=self.LADDER)[kind])
        blobs = set()
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("CIRCULAW_THREADS", workers)
            report = run_experiment(spec)
            blobs.add(experiments.render_report(report, "json"))
        assert len(blobs) == 1


def _spec_dict(kind, **fields):
    d = {"kind": kind, "ensemble": small_ensemble(n=8).to_json_dict(), "trials": 50}
    d.update(fields)
    return d


def _with_ensemble(kind, **fields):
    return _spec_dict(kind, ensemble=dict(small_ensemble(n=8).to_json_dict(), **fields))


# One valid spec per kind, for the unread-field and newly rejected inputs below.
VALID = {
    "CircularLaw": _spec_dict("CircularLaw"),
    "SvLaw": _spec_dict("SvLaw", z_points=["0.5+0i"], n_values=[8, 12]),
    "Potential": _spec_dict("Potential", z_points=["0.5+0i"], r="auto", b_exponent=2.5),
    "MinSv": _spec_dict("MinSv", z_points=["0+0i"], thresholds=[1e-3], n_values=[8]),
    "MaxSv": _spec_dict("MaxSv", n_values=[8, 12]),
    "TailIndex": _spec_dict("TailIndex", q=12.0, R=2.0),
}

# A field each kind never reads, set to a value it would silently ignore.
UNREAD = [
    ("CircularLaw", "n_values", [8, 16]),
    ("SvLaw", "r", "auto"),
    ("Potential", "n_values", [8, 16]),
    ("MinSv", "R", 2.0),
    ("MaxSv", "z_points", ["0.5+0i"]),
    ("TailIndex", "z_points", ["0.5+0i"]),
    ("TailIndex", "n_values", [8, 16]),
]

THETA_ENSEMBLE = EnsembleConfig.from_theta(16, 0.5, GAUSS, 7).to_json_dict()

# Inputs that crashed, failed only once trials ran, or ran as something other than they say.
BAD_VALUES = {
    "z_points-number": dict(VALID["SvLaw"], z_points=5),
    "b_exponent-null": dict(VALID["Potential"], b_exponent=None),
    "p_n-null": _with_ensemble("MaxSv", p_n=None),
    "n-fraction": _with_ensemble("MaxSv", n=8.7),
    "master_seed-fraction": _with_ensemble("MaxSv", master_seed=1.9),
    "n-bool": _with_ensemble("MaxSv", n=True),
    "b_exponent-bool": dict(VALID["Potential"], b_exponent=True),
    "out-int": dict(VALID["MaxSv"], out=7),
    "c_cut-zero": dict(VALID["Potential"], c_cut=0),
    "c_cut-negative": dict(VALID["Potential"], c_cut=-1),
    "MinSv-trials-49": dict(VALID["MinSv"], trials=49),
    "MaxSv-trials-49": dict(VALID["MaxSv"], trials=49),
    "thresholds-zero": dict(VALID["MinSv"], thresholds=[0.0, 1e-3]),
    "thresholds-negative": dict(VALID["MinSv"], thresholds=[-1.0]),
    "kind-unknown": dict(VALID["MaxSv"], kind="Histogram"),
    "trials-zero": dict(VALID["CircularLaw"], trials=0),
    "r-negative": dict(VALID["Potential"], r=-0.5),
    "q-six": dict(VALID["TailIndex"], q=6.0),
    "R-zero": dict(VALID["TailIndex"], R=0.0),
    "n_values-zero": dict(VALID["MinSv"], n_values=[16, 0]),
    "n_values-zero-theta": dict(VALID["MinSv"], n_values=[16, 0], ensemble=THETA_ENSEMBLE),
}
NEWLY_REJECTED = dict(
    BAD_VALUES,
    **{f"{kind}-unread-{key}": dict(VALID[kind], **{key: value}) for kind, key, value in UNREAD},
)


class TestSpecValidation:
    """Inputs that used to run and write a silently wrong number are ConfigErrors."""

    @pytest.mark.parametrize(
        "d",
        [
            _spec_dict("TailIndex", R=math.nan),
            _spec_dict("TailIndex", q=math.inf),
            _spec_dict("MinSv", z_points=["0+0i"], thresholds=[math.nan]),
            _spec_dict("MinSv", z_points=["0+0i"], thresholds=[1e-3, math.inf]),
            _spec_dict("MinSv", z_points=["0+0i"]),
            _spec_dict("Potential", z_points=["0.5+0i"], c_cut=math.nan),
            _spec_dict("Potential", z_points=["0.5+0i"], b_exponent=math.nan),
            _spec_dict("Potential", z_points=["0.5+0i"], r=math.inf),
            _spec_dict("SvLaw", z_points=[math.nan]),
            _spec_dict("SvLaw", z_points=["0.5+infi"]),
            _spec_dict("SvLaw", z_points=["0.5+0i"], n_values=[8, 12.5]),
            _spec_dict("SvLaw", z_points=["0.5+0i"], n_values=[8, 8]),
            _spec_dict("MaxSv", trials=2.7),
            _spec_dict("MaxSv", trials=math.nan),
            _spec_dict("MaxSv", trials="50"),
            *BAD_VALUES.values(),
        ],
        ids=[
            "R-nan", "q-inf", "thresholds-nan", "thresholds-inf", "thresholds-missing",
            "c_cut-nan", "b_exponent-nan", "r-inf", "z-nan", "z-inf", "n_values-fraction",
            "n_values-repeated",
            "trials-fraction", "trials-nan", "trials-string",
            *BAD_VALUES,
        ],
    )
    def test_rejected(self, d):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json_dict(d)

    @pytest.mark.parametrize("kind,key,value", UNREAD, ids=[f"{k}-{f}" for k, f, _ in UNREAD])
    def test_unread_field_rejected(self, kind, key, value):
        d = VALID[kind]
        ExperimentSpec.from_json_dict(d)
        with pytest.raises(ConfigError, match=f"{kind} does not read {key}"):
            ExperimentSpec.from_json_dict(dict(d, **{key: value}))

    @pytest.mark.parametrize("name", sorted(NEWLY_REJECTED))
    def test_cli_report_rejects_before_any_trial(self, name, tmp_path, monkeypatch, capsys):
        from circulaw import cli

        def no_run(spec):
            raise AssertionError("a rejected spec reached the runner")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(NEWLY_REJECTED[name]))
        assert cli.main(["report", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_whole_float_trials_accepted(self):
        spec = ExperimentSpec.from_json_dict(_spec_dict("MaxSv", trials=50.0))
        assert spec.trials == 50 and isinstance(spec.trials, int)
        assert spec.hash() == ExperimentSpec.from_json_dict(_spec_dict("MaxSv")).hash()

    def test_cli_report_exits_2(self, tmp_path, capsys):
        from circulaw.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec_dict("TailIndex", R=math.nan)))
        assert main(["report", "--spec", str(spec_path)]) == 2
        assert "R must be finite" in capsys.readouterr().err
