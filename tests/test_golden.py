"""Byte fence: the sha256 of every text output the package writes, for tiny inputs.

Covers the CSV and JSON report of each experiment kind, the CLI's stdout
against its `--out` file, the `sample` and `esd` subcommands, the three
table writers and the limit laws' CDF and density arrays. A refactor of the
text format or the runners must leave every digest unchanged; a change that
moves output on purpose re-records the digests here and names the moved
outputs in CHANGES.md.

Digests were recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH) on x86-64. Another numpy or OpenBLAS build may
round eigen- and singular values differently and then moves these digests.
"""

import hashlib

import numpy as np
import pytest

from circulaw import EmpiricalCDF, EnsembleConfig, EntryDistribution, MatrixSample, experiments
from circulaw.cli import main
from circulaw.experiments import ExperimentSpec, run_experiment, write_report
from circulaw.invertibility import min_sv_tail
from circulaw.limit_theory import export_tabulation, law_for_shift

GAUSS = EntryDistribution("RealGaussian")
RADEMACHER = EntryDistribution("Rademacher")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SPECS = {
    "CircularLaw": dict(ensemble=EnsembleConfig(12, 1.0, GAUSS, 1), trials=3),
    "SvLaw": dict(ensemble=EnsembleConfig(12, 1.0, GAUSS, 2), trials=2,
                  z_points=(0.5 + 0j, 1.5 + 0j), n_values=(8, 12)),
    "Potential": dict(ensemble=EnsembleConfig(12, 0.5, GAUSS, 3), trials=3,
                      z_points=(0.5 + 0.5j, 1.5 + 0j), r=0.1),
    "MinSv": dict(ensemble=EnsembleConfig(12, 1.0, RADEMACHER, 4), trials=50,
                  z_points=(0j, 0.5 + 0j), thresholds=(1e-3, 0.1, 1.0)),
    "MaxSv": dict(ensemble=EnsembleConfig(12, 1.0, GAUSS, 5), trials=50, n_values=(8, 12)),
    "TailIndex": dict(ensemble=EnsembleConfig(16, 1.0, GAUSS, 6), trials=5),
}

REPORT_DIGESTS = {
    ("CircularLaw", "csv"): "58c86b17e533b110f79521b38ab7b2e91717bc93e99ea66144216a93dfa56694",
    ("CircularLaw", "json"): "b72275ee0adff133703785a51820ca55488f3f1fe5d95bfe373ca5e4c044ef19",
    ("SvLaw", "csv"): "7e19cc7914ac0676d1390acad1f9da660e1655967f72bab4b50a7c4a4f2b876d",
    ("SvLaw", "json"): "bd73fc941a6b9eff5f6a39475882c65a285895a6c18197578cdff8015404f6c2",
    ("Potential", "csv"): "5f004c0b5af6e222b66f12793d36f3ec62d94cd69047e6610c2d89ed0896aaf4",
    ("Potential", "json"): "4650448102ed8a6a19be549d88851eab9f381ca93de9bb19198defb128f57187",
    ("MinSv", "csv"): "78176a080488a5c95f49dc51610fc700fb8cef711fa634b150938ef2369d736c",
    ("MinSv", "json"): "f91f81468fcca0d5a872d20f3ec5566de27d5d341c9f35e8656bc96fb6da1507",
    ("MaxSv", "csv"): "488a86f038eb62268da27902abb646de8e662aaf929c9b4bc0e75ea0489b6acd",
    ("MaxSv", "json"): "f6c85063c7b38623131dfcfa7d984a57fe071aa30da00c69eccd500097ed338b",
    ("TailIndex", "csv"): "e6f7562b80eec4c1456ff8b5fac0abeb49a8a674caca51fe142d46dc19dd46a2",
    ("TailIndex", "json"): "57d3826e83592f1c966d05762ef15908555e17a44c48fd40eaa8c18647443683",
}

CLI_ARGS = {
    "svlaw": ["--n", "12", "--seed", "7", "--z", "0.5+0i", "--trials", "2"],
    "potential": ["--n", "12", "--seed", "8", "--z", "0+0i,2+0i", "--trials", "3", "--r", "auto"],
    "minsv": ["--n", "12", "--seed", "9", "--z", "0.25-0.5i", "--trials", "50",
              "--thresholds", "1e-3,0.5", "--dist", "rademacher"],
}

CLI_DIGESTS = {
    ("svlaw", "csv"): "00147bd664abc6e8fa1035cd82878cfb67375de36ddebff07f51401a9041f595",
    ("svlaw", "json"): "111bc364529555a3b40bfa0360d51a54ed820fe249198c9ec309ea1f3e115ed9",
    ("potential", "csv"): "94e96f4ee99e65ead9da7941305cf7f682120a57ed56b4e5a85246a1ba7ddb66",
    ("potential", "json"): "e1b392e00286e66e69859ab91a35632076793b7042c7ca2374132ab36f249fb8",
    ("minsv", "csv"): "fd6b986d7050908be49bfe1895484ddabf307cfdd9c7ce30d6dbe7192812daa2",
    ("minsv", "json"): "7bff36057f5888c4be1462c66545959be5ebff58cc8e43e51d0ce84fead43fc0",
}

TABLE_DIGESTS = {
    "sample": "6e836dee3fb90d35a5864a3dfb7c37ad8cba0a3bcf82754f59a1f733bffbf40a",
    "esd": "39256914567ce388d448a6774f2f89f8bb04015555ccce80e18fbdcf3c2a10da",
    "empirical_cdf": "aaeb32b5bce8de8a962a62c482e78986c809985641332270c3a5ec4ac73c25f9",
    "tail_table": "30d3feeb94af7c62ed9cbe7866425caa8e2eb651ad47a58c31ed5e76f9ec798f",
    "tabulation": "361a113176272d0285f01d665b6eaaeaac973e9126d800177a63be157c359b20",
}


@pytest.mark.parametrize("kind,fmt", sorted(REPORT_DIGESTS))
def test_report_bytes(kind, fmt, tmp_path):
    spec = ExperimentSpec(kind=kind, **SPECS[kind])
    path = tmp_path / f"report.{fmt}"
    write_report(run_experiment(spec), path, fmt)
    assert _sha(path.read_bytes()) == REPORT_DIGESTS[kind, fmt]


# rows no digest above reaches: failed CircularLaw trials (NaN samples, on which
# `eigenvalues` raises NumericError) and a Potential z with every trial excluded
FAILURE_CASES = {
    "CircularLaw_one_failed": ("CircularLaw", {}, {1}),
    "CircularLaw_all_failed": ("CircularLaw", {}, {0, 1, 2}),
    "Potential_flagged": ("Potential", {"c_cut": 1e12}, set()),
}

FAILURE_DIGESTS = {
    ("CircularLaw_all_failed", "csv"): "130977066a3c7ff24031449047386050432b0de6656c6bfaa65037eaf4ba3369",
    ("CircularLaw_all_failed", "json"): "e478c67aeeb9baba91d5f0cc97a3afa6d32a3fa55fbb8f01bef6b468ead4e2ac",
    ("CircularLaw_one_failed", "csv"): "b77d6ddd41d57445c0f36835c65272883c01a04f6e03905ff2066c2432d4feca",
    ("CircularLaw_one_failed", "json"): "04db7523edced01b205b5ccc6e38a9c761122dede1ad58deb89c4b129b928ed2",
    ("Potential_flagged", "csv"): "ea18a86b237260c0956428f081eef0acd5c52f55d9f3468b7b1cb0bcfa167336",
    ("Potential_flagged", "json"): "7c85dc239c4a4fe6d60152595a255c1a152676472cdb765f97cfde4225da1c0a",
}


@pytest.mark.parametrize("case,fmt", sorted(FAILURE_DIGESTS))
def test_failure_row_bytes(case, fmt, tmp_path, monkeypatch):
    kind, extra, nan_trials = FAILURE_CASES[case]
    draw = experiments.sample_matrix

    def sample_matrix(cfg, t):
        sample = draw(cfg, t)
        return MatrixSample(np.full_like(sample.entries, np.nan)) if t in nan_trials else sample

    monkeypatch.setattr(experiments, "sample_matrix", sample_matrix)
    spec = ExperimentSpec(kind=kind, **dict(SPECS[kind], **extra))
    report = run_experiment(spec)
    if kind == "CircularLaw":
        assert report.meta["failed_trials"] == len(nan_trials)
        rows = [row["row"] for row in report.rows]
        assert rows.count("mean") == rows.count("stderr") == (len(nan_trials) < spec.trials)
    else:
        assert all(row["flagged"] is True for row in report.rows)
    path = tmp_path / f"report.{fmt}"
    write_report(report, path, fmt)
    assert _sha(path.read_bytes()) == FAILURE_DIGESTS[case, fmt]


@pytest.mark.parametrize("command,fmt", sorted(CLI_DIGESTS))
def test_cli_stdout_equals_out_file(command, fmt, tmp_path, capsys):
    argv = [command, *CLI_ARGS[command], "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == stdout
    assert _sha(stdout) == CLI_DIGESTS[command, fmt]


def _table_bytes(name, tmp_path, capsys) -> bytes:
    path = tmp_path / f"{name}.csv"
    if name == "sample":
        argv = ["sample", "--n", "5", "--seed", "10", "--dist", "cgaussian", "--p", "0.6"]
        assert main(argv) == 0
        return capsys.readouterr().out.encode("utf-8")
    if name == "esd":
        assert main(["esd", "--n", "16", "--seed", "11", "--trial", "2"]) == 0
        return capsys.readouterr().out.encode("utf-8")
    if name == "empirical_cdf":
        EmpiricalCDF.from_values([0.1, 2.5, -1.0 / 3.0, 0.1, 7e-12]).to_csv(path)
    elif name == "tail_table":
        cfg = EnsembleConfig(10, 1.0, RADEMACHER, 12)
        min_sv_tail(cfg, 0.5 - 0.25j, 50, [1e-2, 0.3]).to_csv(path)
    else:
        export_tabulation(0.5 + 0.5j, np.linspace(-1.5, 1.5, 13), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_bytes(name, tmp_path, capsys):
    assert _sha(_table_bytes(name, tmp_path, capsys)) == TABLE_DIGESTS[name]


LIMIT_LAW_DIGEST = "49ad94d15d5d14a230c0b726f8778519811d37d66dfde1499d73880cf666ab93"


def test_limit_law_bytes():
    # the CDF grid and the density directly, not only through KS distances
    digest = hashlib.sha256()
    x = np.linspace(0.0, 12.0, 1201)
    for z in (0j, 0.5 + 0.5j, 1 + 0j, 1.5 + 0j, 2 + 0j):
        law = law_for_shift(z)
        digest.update(law.cdf_squared(x).tobytes())
        digest.update(law.density(x).tobytes())
    assert digest.hexdigest() == LIMIT_LAW_DIGEST
