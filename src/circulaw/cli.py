"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls library functions
and serializes their output. Exit codes: 0 success, 2 usage error, 3 numeric
failure, 4 I/O failure. Diagnostics go to stderr, data to files or stdout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .ensemble import EnsembleConfig, EntryDistribution, sample_matrix
from .errors import ConfigError, DomainError, EstimationError, NumericError
from .experiments import ExperimentSpec, render_report, run_experiment
from .linalg import eigenvalues
from .textio import csv_text, read_float_csv, read_text, write_text

_DIST_NAMES = {
    "gaussian": "RealGaussian",
    "cgaussian": "ComplexGaussian",
    "rademacher": "Rademacher",
    "crademacher": "ComplexRademacher",
    "uniform": "UniformSymmetric",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circulaw")
    sub = parser.add_subparsers(dest="command", required=True)

    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--n", type=int, required=True)
    ensemble.add_argument("--p", type=float, default=None, help="Bernoulli keep probability")
    ensemble.add_argument("--theta", type=float, default=None,
                          help="sparsity exponent: p = n^(theta-1)")
    ensemble.add_argument("--dist", choices=sorted(_DIST_NAMES), default="gaussian")
    ensemble.add_argument("--seed", type=int, required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    one_sample = argparse.ArgumentParser(add_help=False, parents=[ensemble, out])
    one_sample.add_argument("--trial", type=int, default=0)
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--format", choices=["csv", "json"], default="csv")
    campaign = argparse.ArgumentParser(add_help=False, parents=[ensemble, report])
    campaign.add_argument("--trials", type=int, required=True)

    sub.add_parser("sample", parents=[one_sample],
                   help="write one sampled matrix as j,k,re,im CSV")
    sub.add_parser("esd", parents=[one_sample],
                   help="write the eigenvalues of one sample as re,im CSV")

    p = sub.add_parser("svlaw", parents=[campaign], help="singular-value law distance report")
    p.add_argument("--z", type=str, required=True, help="shift, a+bi with no spaces")

    p = sub.add_parser("potential", parents=[campaign], help="log-determinant potential report")
    p.add_argument("--z", type=str, required=True, help="comma list of a+bi shifts")
    p.add_argument("--r", type=str, default="auto", help="smoothing radius or 'auto'")
    p.add_argument("--B", type=float, default=3.0, help="truncation exponent")

    p = sub.add_parser("minsv", parents=[campaign], help="smallest singular value tail report")
    p.add_argument("--z", type=str, default="0+0i")
    p.add_argument("--thresholds", type=str, required=True, help="comma list")

    p = sub.add_parser("report", parents=[report], help="run an experiment spec file")
    p.add_argument("--spec", required=True)

    p = sub.add_parser("plot", help="render an eigenvalue CSV as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-circle", action="store_true", help="omit unit-circle overlay")
    return parser


def _ensemble_from_args(args) -> EnsembleConfig:
    dist = EntryDistribution(_DIST_NAMES[args.dist])
    if args.theta is not None:
        if args.p is not None:
            raise ConfigError("give either --p or --theta, not both")
        return EnsembleConfig.from_theta(args.n, args.theta, dist, args.seed)
    p = 1.0 if args.p is None else args.p
    return EnsembleConfig(args.n, p, dist, args.seed)


def _emit(text: str, out) -> None:
    """`text` to stdout, or to the file `out`: the bytes are the same."""
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _cmd_sample(args) -> int:
    entries = np.asarray(sample_matrix(_ensemble_from_args(args), args.trial).entries,
                         dtype=np.complex128)
    rows = ((j, k, v.real, v.imag) for (j, k), v in np.ndenumerate(entries))
    _emit(csv_text(["j", "k", "re", "im"], rows), args.out)
    return 0


def _cmd_esd(args) -> int:
    sample = sample_matrix(_ensemble_from_args(args), args.trial)
    spectrum = eigenvalues(sample, overwrite=True)
    _emit(csv_text(["re", "im"], ((v.real, v.imag) for v in spectrum.values)), args.out)
    return 0


# Each campaign subcommand: (experiment kind, its spec fields from the flags).
_CAMPAIGNS = {
    "svlaw": ("SvLaw", lambda args: dict(z_points=(args.z,))),
    "potential": ("Potential", lambda args: dict(
        z_points=tuple(args.z.split(",")),
        r=args.r if args.r == "auto" else float(args.r),
        b_exponent=args.B,
    )),
    "minsv": ("MinSv", lambda args: dict(
        z_points=(args.z,),
        thresholds=tuple(float(t) for t in args.thresholds.split(",")),
    )),
}


def _cmd_campaign(args) -> int:
    kind, fields = _CAMPAIGNS[args.command]
    spec = ExperimentSpec(kind=kind, ensemble=_ensemble_from_args(args), trials=args.trials,
                          **fields(args))
    _emit(render_report(run_experiment(spec), args.format), args.out)
    return 0


def _cmd_report(args) -> int:
    spec = ExperimentSpec.from_json(read_text(args.spec))
    out = args.out if args.out is not None else spec.out or None
    _emit(render_report(run_experiment(spec), args.format), out)
    return 0


def plot_spectrum(csv_in, svg_out, overlay_unit_circle: bool = True) -> None:
    """Standalone deterministic SVG scatter with an optional unit-circle overlay."""
    points = read_float_csv(csv_in, "re,im")
    size = 560
    center = size / 2.0
    scale = 200.0  # pixels per unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if overlay_unit_circle:
        parts.append(
            f'<circle cx="{center:.6g}" cy="{center:.6g}" r="{scale:.6g}" '
            'fill="none" stroke="#3366cc" stroke-width="1"/>'
        )
    for re, im in points:
        cx = center + scale * re
        cy = center - scale * im
        parts.append(f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="2" fill="black"/>')
    parts.append("</svg>")
    write_text(svg_out, "\n".join(parts) + "\n")


def _cmd_plot(args) -> int:
    plot_spectrum(args.infile, args.out, overlay_unit_circle=not args.no_circle)
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "esd": _cmd_esd,
    **dict.fromkeys(_CAMPAIGNS, _cmd_campaign),
    "report": _cmd_report,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EstimationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
