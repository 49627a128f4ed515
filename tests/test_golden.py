"""Byte fence: the sha256 of every text output the package writes, for tiny inputs.

Covers the CSV and JSON report of each experiment kind, the CLI's stdout
against its `--out` file, the `sample` and `esd` subcommands, the three
table writers, the limit laws' CDF and density arrays, and the sampler's
matrices and draw grids at sizes that span several key blocks. A refactor of the
text format or the runners must leave every digest unchanged; a change that
moves output on purpose re-records the digests here and names the moved
outputs in CHANGES.md.

Digests were recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH) on x86-64, on the SkylakeX core. Another numpy
or OpenBLAS build, or another OpenBLAS core, may round eigen- and singular
values differently and then moves the sampled-side digests. The limit-law
digest holds on every core: the exact side forms no BLAS product, and
tests/test_parallel.py checks its bytes under OPENBLAS_CORETYPE Haswell,
Sandybridge and Prescott.
"""

import hashlib

import numpy as np
import pytest

from circulaw import EmpiricalCDF, EnsembleConfig, EntryDistribution, MatrixSample, experiments
from circulaw import rng, sample_matrix
from circulaw.cli import main
from circulaw.ensemble import draw_rows
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
    # thresholds on both sides of the Gram path's s_n cutoff (1e-6 s_1): at n = 8 about
    # half the Rademacher samples are singular, so their s_n comes from the SVD
    "MinSv_cutoff": dict(ensemble=EnsembleConfig(8, 1.0, RADEMACHER, 14), trials=50,
                         z_points=(0j, 0.5 + 0j), thresholds=(1e-9, 1e-3, 1e-2, 0.1)),
}


def golden_spec(name: str, **extra) -> ExperimentSpec:
    """The spec of SPECS[name], whose kind is the name up to its first underscore."""
    return ExperimentSpec(kind=name.partition("_")[0], **dict(SPECS[name], **extra))


REPORT_DIGESTS = {
    ("CircularLaw", "csv"): "58c86b17e533b110f79521b38ab7b2e91717bc93e99ea66144216a93dfa56694",
    ("CircularLaw", "json"): "b72275ee0adff133703785a51820ca55488f3f1fe5d95bfe373ca5e4c044ef19",
    ("SvLaw", "csv"): "7861332813ae09bdb54fa9c85a2a1aac44e3a0cc2371848eb1c88a136a189bba",
    ("SvLaw", "json"): "b720e44cf0fcf8da02422767f37309cb58fe7ca7a92eb533a8754cc5b1722fc1",
    ("Potential", "csv"): "5f004c0b5af6e222b66f12793d36f3ec62d94cd69047e6610c2d89ed0896aaf4",
    ("Potential", "json"): "4650448102ed8a6a19be549d88851eab9f381ca93de9bb19198defb128f57187",
    ("MinSv", "csv"): "78176a080488a5c95f49dc51610fc700fb8cef711fa634b150938ef2369d736c",
    ("MinSv", "json"): "f91f81468fcca0d5a872d20f3ec5566de27d5d341c9f35e8656bc96fb6da1507",
    ("MinSv_cutoff", "csv"): "b70f27fccc932b15b6130688c61309cbba54957997c11e0deda2af52687436b9",
    ("MinSv_cutoff", "json"): "cdef98043e516e914840dde151016de6ed21acf3dbce342a4a627f46302edb09",
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
    ("potential", "csv"): "3ec055bccc7c77ab283e5def4c3d748b50bd1a5f35d0c52d949b2b72ca936ef6",
    ("potential", "json"): "8798613a30682d7c70fc332896f023014d96c6bc22fe5fe978c5c0a18015657d",
    ("minsv", "csv"): "fd6b986d7050908be49bfe1895484ddabf307cfdd9c7ce30d6dbe7192812daa2",
    ("minsv", "json"): "7bff36057f5888c4be1462c66545959be5ebff58cc8e43e51d0ce84fead43fc0",
}

TABLE_DIGESTS = {
    "sample": "6e836dee3fb90d35a5864a3dfb7c37ad8cba0a3bcf82754f59a1f733bffbf40a",
    "esd": "39256914567ce388d448a6774f2f89f8bb04015555ccce80e18fbdcf3c2a10da",
    "empirical_cdf": "aaeb32b5bce8de8a962a62c482e78986c809985641332270c3a5ec4ac73c25f9",
    "tail_table": "30d3feeb94af7c62ed9cbe7866425caa8e2eb651ad47a58c31ed5e76f9ec798f",
    "tabulation": "4153119f1d5a7677ee7a00cd75119d9651a14397a1bc3660adc0cf0c37153c4b",
}


@pytest.mark.parametrize("name,fmt", sorted(REPORT_DIGESTS))
def test_report_bytes(name, fmt, tmp_path):
    spec = golden_spec(name)
    path = tmp_path / f"report.{fmt}"
    write_report(run_experiment(spec), path, fmt)
    assert _sha(path.read_bytes()) == REPORT_DIGESTS[name, fmt]


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

    def sample_matrix(cfg, t, **layout):
        sample = draw(cfg, t, **layout)
        return MatrixSample(np.full_like(sample.entries, np.nan)) if t in nan_trials else sample

    monkeypatch.setattr(experiments, "sample_matrix", sample_matrix)
    spec = golden_spec(kind, **extra)
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
        min_sv_tail([(cfg, 0.5 - 0.25j)], 50, [1e-2, 0.3])[0].to_csv(path)
    else:
        export_tabulation(0.5 + 0.5j, np.linspace(-1.5, 1.5, 13), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_bytes(name, tmp_path, capsys):
    assert _sha(_table_bytes(name, tmp_path, capsys)) == TABLE_DIGESTS[name]


LIMIT_LAW_DIGEST = "efdf0a2f0e7074add6ad0bf99f2623268102e4b1387b0bd792af8282ebe0f669"


def test_limit_law_bytes():
    # the CDF grid and the density directly, not only through KS distances
    digest = hashlib.sha256()
    x = np.linspace(0.0, 12.0, 1201)
    for z in (0j, 0.5 + 0.5j, 1 + 0j, 1.5 + 0j, 2 + 0j):
        law = law_for_shift(z)
        digest.update(law.cdf_squared(x).tobytes())
        digest.update(law.density(x).tobytes())
    assert digest.hexdigest() == LIMIT_LAW_DIGEST


# The sampler's own bytes at sizes the specs above never reach: n = 512 spans
# several row blocks of the key grid, and the (100 001, 1) grid ends in a
# partial block.
SAMPLER_LAWS = {
    "RealGaussian": GAUSS,
    "ComplexGaussian": EntryDistribution("ComplexGaussian"),
    "Rademacher": RADEMACHER,
    "ComplexRademacher": EntryDistribution("ComplexRademacher"),
    "UniformSymmetric": EntryDistribution("UniformSymmetric"),
    "TwoPoint": EntryDistribution("TwoPoint", a=3.0, p=0.1),
}

SAMPLER_DIGESTS = {
    ("sample_matrix", "RealGaussian", "dense"): "fa3292f10fe8167c09f3d5938ae1f3d5b739d9cb997b159a52423bcb1f9d767e",
    ("sample_matrix", "RealGaussian", "theta=0.5"): "0c7a0d41c570280378c9d091a85f206508dc7e542fc83dc52f85c29a67d3e106",
    ("sample_matrix", "ComplexGaussian", "dense"): "f7809114486e2f64f89753f5bc01939376fe5ff910e7870a54104a501f847459",
    ("sample_matrix", "ComplexGaussian", "theta=0.5"): "a1be0e6e867b592350b487267e35f8200713ccde55e9108b095f4082129920aa",
    ("sample_matrix", "Rademacher", "dense"): "6f7a1f8e86cd28315ed643e9b2207ac7422a5ad4450bb5b30634e299ffc7ce63",
    ("sample_matrix", "Rademacher", "theta=0.5"): "08b02b0ebc26575c4f9548eafcf6b1e19524e60b5f93b679700fa87276196320",
    ("sample_matrix", "ComplexRademacher", "dense"): "57318d76f33e8f7de89d44f68ed6d710ae520029fe50dfedf12871605881c3cc",
    ("sample_matrix", "ComplexRademacher", "theta=0.5"): "9664591387c0d1d23ca51cd385e4766898dc05c7d0e4c3f74ddb62629f72edc8",
    ("sample_matrix", "UniformSymmetric", "dense"): "0ecfb9ec1783ca784d40c5041a9fe9d8e3ad149e1dec0c7e8482bd04a34ab80e",
    ("sample_matrix", "UniformSymmetric", "theta=0.5"): "d09cf84a315307c925a374fcce462a057ec9071e9f7f17430efeefbbc7dc73f8",
    ("sample_matrix", "TwoPoint", "dense"): "72c0b861de6a9849d6faad2d1b50eabdca73744816aae492926e346735782106",
    ("sample_matrix", "TwoPoint", "theta=0.5"): "13396af5445ec9cf7c7965efb5e2d4dc2cde0199e09d13b18de0029a58adb578",
    ("draw_rows", "RealGaussian", "100001x1"): "ece657360dbd9fd9e3bdd24926b4fefa65316021f79822e809a364c4793e1c37",
    ("draw_rows", "RealGaussian", "512x10"): "4226075a46d6ffd7f929520757e898ae13ab2dba35a42ac68dc07b9bdf15056f",
    ("draw_rows", "ComplexGaussian", "100001x1"): "71409c75ab648b85ed76935f987b765baae7dfd826e570ad0a17235391879522",
    ("draw_rows", "ComplexGaussian", "512x10"): "04e7700d69494aa42ef2a034c65fffb6870e73e6e7ca9b8dccceefe9428db575",
    ("draw_rows", "Rademacher", "100001x1"): "fde261e9e10d47accb984747cdc2fcf589fd773178b20df58a934ee89b4ddb5d",
    ("draw_rows", "Rademacher", "512x10"): "57db7533ef0c3fe78e665ce221a0b7239734c6f6a2f9ae74d0654efa129ae87d",
    ("draw_rows", "ComplexRademacher", "100001x1"): "65c98258b398db07584f718eeddd9c05941d6edf584a20475fb674dd6fd2c482",
    ("draw_rows", "ComplexRademacher", "512x10"): "5dbc8c73186af90efc991ef70eea6e7212519db8e768fa469b7652925b9affc3",
    ("draw_rows", "UniformSymmetric", "100001x1"): "8cd5cf32ddc5f8b58349affd912a24feefc64622252783ddd3c31c3ae481ade2",
    ("draw_rows", "UniformSymmetric", "512x10"): "949d229d7412a64077d5a358c4f83649630e19b5d4a89437cdfe4bbf45181a7e",
    ("draw_rows", "TwoPoint", "100001x1"): "177af1665f93943f4f3214c5ba5a41d08b2ecf1a6926dd46561ebc5c69ee93ab",
    ("draw_rows", "TwoPoint", "512x10"): "bf569ee860e11da57530cb7e6876a8c287d58dc0fb337426bac2e89e8d3b3294",
}


def _sampler_bytes(what, tag, case) -> bytes:
    law = SAMPLER_LAWS[tag]
    if what == "sample_matrix":
        cfg = (EnsembleConfig(512, 1.0, law, 13) if case == "dense"
               else EnsembleConfig.from_theta(512, 0.5, law, 13))
        return sample_matrix(cfg, 0).entries.tobytes()
    nrows, ncols = map(int, case.split("x"))
    return draw_rows(law, 13, rng.ROLE_PROBE, 2, range(nrows), ncols).tobytes()


@pytest.mark.parametrize("what,tag,case", sorted(SAMPLER_DIGESTS))
def test_sampler_bytes(what, tag, case):
    assert _sha(_sampler_bytes(what, tag, case)) == SAMPLER_DIGESTS[what, tag, case]
