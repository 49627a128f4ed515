import argparse
import json
import pathlib
import shlex

import pytest

from circulaw.cli import _build_parser, main, plot_spectrum

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestUsage:
    def test_missing_seed_exits_2(self, capsys):
        code, captured = run_cli("esd", "--n", "8", "--dist", "gaussian", capsys=capsys)
        assert code == 2
        assert "--seed" in captured.err

    def test_unknown_flag_exits_2(self, capsys):
        code, _ = run_cli("esd", "--n", "8", "--seed", "1", "--frobnicate", capsys=capsys)
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _ = run_cli("dance", capsys=capsys)
        assert code == 2

    def test_p_and_theta_conflict(self, capsys):
        code, captured = run_cli(
            "esd", "--n", "8", "--seed", "1", "--p", "0.5", "--theta", "0.5", capsys=capsys
        )
        assert code == 2
        assert "error" in captured.err

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_a_dimension_below_one_exits_2(self, capsys, n):
        code, captured = run_cli("esd", "--n", n, "--theta", "0.5", "--seed", "1", capsys=capsys)
        assert code == 2
        assert f"n must be >= 1, got {n}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("theta,message", [("1.5", "theta must lie in (0, 1], got 1.5"),
                                               ("nan", "theta must be finite, got nan"),
                                               ("inf", "theta must be finite, got inf")])
    def test_a_bad_theta_exits_2_naming_theta(self, capsys, theta, message):
        # p_n = n^(theta - 1) was checked first, and the message named a p_n never given
        code, captured = run_cli("esd", "--n", "8", "--theta", theta, "--seed", "1",
                                 capsys=capsys)
        assert code == 2
        assert message in captured.err and "p_n" not in captured.err and captured.out == ""

    def test_bad_complex_literal(self, capsys):
        code, _ = run_cli(
            "svlaw", "--n", "8", "--seed", "1", "--z", "nope", "--trials", "2", capsys=capsys
        )
        assert code == 2


class TestSample:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sample", "--n", "4", "--dist", "rademacher", "--seed", "7",
                       "--out", str(out1)) == 0
        assert run_cli("sample", "--n", "4", "--dist", "rademacher", "--seed", "7",
                       "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "j,k,re,im"
        assert len(lines) == 17


    @pytest.mark.parametrize("command", ["sample", "esd"])
    @pytest.mark.parametrize("trial", ["-1", str(2**64)])
    def test_trial_index_outside_64_bits_exits_2(self, capsys, command, trial):
        code, captured = run_cli(command, "--n", "2", "--seed", "1", "--trial", trial,
                                 capsys=capsys)
        assert code == 2
        assert "trial index" in captured.err and captured.out == ""


class TestEsd:
    def test_writes_eigenvalues(self, tmp_path):
        out = tmp_path / "esd.csv"
        code = run_cli("esd", "--n", "32", "--dist", "gaussian", "--p", "1.0",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) == 33

    def test_stdout_when_no_out(self, capsys):
        code, captured = run_cli("esd", "--n", "8", "--seed", "3", capsys=capsys)
        assert code == 0
        assert captured.out.startswith("re,im\n")

    def test_theta_without_p_is_the_sparse_ensemble(self, capsys):
        # README's example: p = n^(theta - 1), drawn by from_theta
        from circulaw import EnsembleConfig, EntryDistribution, eigenvalues, sample_matrix

        code, captured = run_cli("esd", "--n", "16", "--theta", "0.5", "--seed", "7",
                                 capsys=capsys)
        assert code == 0
        cfg = EnsembleConfig.from_theta(16, 0.5, EntryDistribution("RealGaussian"), 7)
        vals = eigenvalues(sample_matrix(cfg, 0)).values
        assert captured.out == "re,im\n" + "".join(f"{v.real:.17g},{v.imag:.17g}\n"
                                                   for v in vals)

    def test_thin_adapter_matches_library(self, capsys):
        # the subcommand must emit exactly what the library computes
        from circulaw import EnsembleConfig, EntryDistribution, eigenvalues, sample_matrix

        code, captured = run_cli("esd", "--n", "16", "--dist", "crademacher",
                                 "--seed", "11", capsys=capsys)
        assert code == 0
        cfg = EnsembleConfig(16, 1.0, EntryDistribution("ComplexRademacher"), 11)
        vals = eigenvalues(sample_matrix(cfg, 0)).values
        expected = "re,im\n" + "\n".join(f"{v.real:.17g},{v.imag:.17g}" for v in vals) + "\n"
        assert captured.out == expected


class TestSvLaw:
    def test_json_report_contains_delta(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("svlaw", "--n", "32", "--z", "0.5+0i", "--trials", "3",
                       "--seed", "1", "--out", str(out), "--format", "json")
        assert code == 0
        data = json.loads(out.read_text())
        stat = [r for r in data["rows"] if r["row"] == "stat"][0]
        assert 0.0 <= stat["delta"] <= 1.0


class TestPotentialAndMinSv:
    def test_potential_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli("potential", "--n", "32", "--z", "0+0i,2+0i", "--trials", "3",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("row,z_re,z_im,r,")

    @pytest.mark.parametrize("b_exponent", ["300", "-300"])
    def test_a_floor_outside_the_floats_exits_2(self, capsys, b_exponent):
        # n^B overflowed, or underflowed to 0, in the truncation window: a bare
        # OverflowError or ZeroDivisionError, exit 1 with a traceback
        code, captured = run_cli("potential", "--n", "16", "--seed", "1", "--trials", "2",
                                 "--z", "0+0i", "--B", b_exponent, capsys=capsys)
        assert code == 2
        assert "positive finite floor" in captured.err and captured.out == ""

    def test_minsv_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run_cli("minsv", "--n", "16", "--trials", "50", "--seed", "5",
                       "--thresholds", "1e-9,1e-3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 3


class TestReportSubcommand:
    def test_runs_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "MaxSv",
            "ensemble": {"n": 16, "p_n": 1.0,
                         "dist": {"tag": "RealGaussian", "params": {}},
                         "master_seed": 3},
            "trials": 50,
        }))
        out = tmp_path / "rep.json"
        code = run_cli("report", "--spec", str(spec_path), "--out", str(out),
                       "--format", "json")
        assert code == 0
        assert json.loads(out.read_text())["rows"][0]["frequency"] == 0.0

    def test_missing_spec_exits_4(self, capsys):
        code, captured = run_cli("report", "--spec", "/no/such/file.json", capsys=capsys)
        assert code == 4
        assert "i/o error" in captured.err

    def test_spec_file_output_path(self, tmp_path):
        out = tmp_path / "from-spec.csv"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "MaxSv",
            "ensemble": {"n": 8, "p_n": 1.0,
                         "dist": {"tag": "RealGaussian", "params": {}},
                         "master_seed": 3},
            "trials": 50,
            "out": str(out),
        }))
        assert run_cli("report", "--spec", str(spec_path)) == 0
        assert out.exists() and out.read_text().startswith("row,")

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"kind": "Nope", "ensemble": {}, "trials": 1}))
        code, _ = run_cli("report", "--spec", str(spec_path), capsys=capsys)
        assert code == 2


class TestNumericExitCode:
    def test_numeric_failure_maps_to_3(self, monkeypatch, capsys):
        from circulaw import errors
        from circulaw import cli as cli_module

        def boom(spec):
            raise errors.NumericError("synthetic failure")

        monkeypatch.setattr(cli_module, "run_experiment", boom)
        code, captured = run_cli("svlaw", "--n", "8", "--z", "0+0i", "--trials", "2",
                                 "--seed", "1", capsys=capsys)
        assert code == 3
        assert "numeric error" in captured.err


class TestPlot:
    def test_four_markers(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("re,im\n1,0\n0,1\n-1,0\n0,-1\n")
        svg = tmp_path / "pts.svg"
        assert run_cli("plot", "--in", str(csv), "--out", str(svg)) == 0
        text = svg.read_text()
        assert text.count("<circle") == 5  # unit circle + 4 markers

    def test_empty_input_circle_only(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("re,im\n")
        svg = tmp_path / "empty.svg"
        assert run_cli("plot", "--in", str(csv), "--out", str(svg)) == 0
        assert svg.read_text().count("<circle") == 1

    def test_no_circle_flag(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("re,im\n0.5,0.5\n")
        svg = tmp_path / "pts.svg"
        assert run_cli("plot", "--in", str(csv), "--out", str(svg), "--no-circle") == 0
        assert svg.read_text().count("<circle") == 1

    def test_malformed_csv_exits_4_with_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("re,im\n\n1,0\n\nnot-a-number,3\n")
        code, captured = run_cli("plot", "--in", str(csv), "--out",
                                 str(tmp_path / "x.svg"), capsys=capsys)
        assert code == 4
        assert "line 5" in captured.err

    @pytest.mark.parametrize("row", ["nan,1", "inf,0", "0,-inf"])
    def test_non_finite_point_exits_4_with_line(self, tmp_path, capsys, row):
        # the reader took these as floats, and the SVG got <circle cx="nan" ...>
        csv = tmp_path / "bad.csv"
        csv.write_text(f"re,im\n1,0\n\n\n{row}\n")
        svg = tmp_path / "x.svg"
        code, captured = run_cli("plot", "--in", str(csv), "--out", str(svg), capsys=capsys)
        assert code == 4
        assert f"{csv}: line 5" in captured.err and not svg.exists()

    def test_missing_header_exits_4(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("1,0\n")
        code, captured = run_cli("plot", "--in", str(csv), "--out",
                                 str(tmp_path / "x.svg"), capsys=capsys)
        assert code == 4
        assert "line 1" in captured.err

    def test_golden_bytes(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("re,im\n0.25,-0.75\n-1.5,0.125\n")
        svg = tmp_path / "golden.svg"
        plot_spectrum(csv, svg)
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" '
            'viewBox="0 0 560 560">\n'
            '<rect width="560" height="560" fill="white"/>\n'
            '<circle cx="280" cy="280" r="200" fill="none" stroke="#3366cc" '
            'stroke-width="1"/>\n'
            '<circle cx="330" cy="430" r="2" fill="black"/>\n'
            '<circle cx="-20" cy="255" r="2" fill="black"/>\n'
            "</svg>\n"
        )
        assert svg.read_text() == expected


class TestRemovedOptions:
    def test_minsv_rejects_b(self, capsys):
        code, captured = run_cli("minsv", "--n", "8", "--trials", "50", "--seed", "1",
                                 "--thresholds", "0.1", "--B", "3", capsys=capsys)
        assert code == 2
        assert "--B" in captured.err


# Every subcommand's options as first recorded: {option: (dest, default, required, choices, type)}.
_DISTS = ("cgaussian", "crademacher", "gaussian", "rademacher", "uniform")
_ENSEMBLE = {
    "--n": ("n", None, True, None, "int"),
    "--p": ("p", None, False, None, "float"),
    "--theta": ("theta", None, False, None, "float"),
    "--dist": ("dist", "gaussian", False, _DISTS, None),
    "--seed": ("seed", None, True, None, "int"),
}
_OUT = {"--out": ("out", None, False, None, None)}
_REPORT = {**_OUT, "--format": ("format", "csv", False, ("csv", "json"), None)}
_CAMPAIGN = {**_ENSEMBLE, **_REPORT, "--trials": ("trials", None, True, None, "int")}
_ONE_SAMPLE = {**_ENSEMBLE, **_OUT, "--trial": ("trial", 0, False, None, "int")}
OPTIONS = {
    "sample": _ONE_SAMPLE,
    "esd": _ONE_SAMPLE,
    "svlaw": {**_CAMPAIGN, "--z": ("z", None, True, None, "str")},
    "potential": {**_CAMPAIGN, "--z": ("z", None, True, None, "str"),
                  "--r": ("r", "auto", False, None, "str"),
                  "--B": ("B", 3.0, False, None, "float")},
    "minsv": {**_CAMPAIGN, "--z": ("z", "0+0i", False, None, "str"),
              "--thresholds": ("thresholds", None, True, None, "str")},
    "report": {**_REPORT, "--spec": ("spec", None, True, None, None)},
    "plot": {"--in": ("infile", None, True, None, None),
             "--out": ("out", None, True, None, None),
             "--no-circle": ("no_circle", False, False, None, None)},
}


class TestParser:
    def test_every_subcommand_keeps_its_options(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {" ".join(a.option_strings): (
                a.dest, a.default, a.required, None if a.choices is None else tuple(a.choices),
                None if a.type is None else a.type.__name__,
            ) for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert got == OPTIONS

    def test_readme_commands_parse(self):
        block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("```sh\n")[1]
        commands = [line for line in block.split("```")[0].splitlines()
                    if line.startswith("circulaw ")]
        assert len(commands) == 7
        for line in commands:
            _build_parser().parse_args(shlex.split(line)[1:])
