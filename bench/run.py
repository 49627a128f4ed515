"""Campaign benchmark for circulaw.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # all four, one command
    python3 bench/run.py --workload all --smoke --seconds 0    # tiny n, seconds

Load shape: a closed loop with one client. It runs one campaign at a time,
each in a fresh process, the way `circulaw report --spec` is used: the
process imports circulaw, parses the workload's spec, calls `run_experiment`
and `write_report`, and exits. So `setup_s` and `peak_rss_mb` belong to one
campaign and the limit-law cache starts cold every time. The program runs
with its defaults: CIRCULAW_THREADS and the BLAS thread variables are removed
from the campaign's environment. The master seed is `--seed`.

`--trace 0` repeats the timed campaign until `--seconds` are used (at least
twice) and prints the end-to-end metrics: medians of `campaign_s` (run +
write wall time), `cpu_s` (process CPU time of the campaign, all threads),
`peak_rss_mb`, and `setup_s` (spawn to parsed spec; extra set-up-only
processes top it up to SETUP_SAMPLES samples). `--trace 1` repeats rounds of
an untraced campaign, a traced one and a traced one with CIRCULAW_THREADS=1,
and prints the per-layer metrics of the traced default campaigns (spans.py),
the single-worker profile, the speed-up, and the tracing overhead.

Every report is read back and checked against the limit laws (workloads.py);
repeats at one seed and one worker/BLAS thread setting must be byte-identical.
A campaign that raises or fails a check counts all its trials as failed and
is left out of every timing. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` (trials) and `metrics`; the exit code is 0
only if every check passed. Run files go to .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import runinfo
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_runs"
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 7
THREAD_VARS = ("CIRCULAW_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {"campaign_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = dict(
    spans.LAYER_UNITS,
    **{"parallel.blas_threads": "count", "parallel.speedup": "ratio", "trace.overhead_s": "s"},
)


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples above it, or None."""
    if len(values) < 20:
        return None
    p = math.floor(100 * (1 - 10 / len(values)))
    return p, statistics.quantiles(values, n=100)[p - 1]


def _spawn(mode, spec_path, run_dir, tag, single_worker, hard_deadline):
    """Run one campaign process; returns (result dict or None, error or None)."""
    report_path = run_dir / f"report-{tag}.json"
    spans_path = run_dir / f"spans-{tag}.json"
    for path in (report_path, spans_path):
        path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if single_worker:
        env["CIRCULAW_THREADS"] = "1"
    args = [sys.executable, str(BENCH_DIR / "campaign.py"), mode, str(spec_path), str(report_path)]
    if mode == "traced":
        args.append(str(spans_path))
    start = time.monotonic()
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(hard_deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{mode} campaign exceeded the {HARD_LIMIT_S:.0f} s run limit"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{mode} campaign exited {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    src = ROOT / "src"
    if mode != "setup" and not Path(result["circulaw_file"]).resolve().is_relative_to(src):
        return None, f"campaign imported circulaw from {result['circulaw_file']}, not {src}"
    result["report_path"] = report_path
    result["spans_path"] = spans_path
    return result, None


def _campaign(spec, smoke, mode, single_worker, spec_path, run_dir, tag, hard_deadline):
    attempted = workloads.trials_attempted(spec)
    record = {"mode": mode, "single_worker": single_worker, "attempted": attempted}
    result, error = _spawn(mode, spec_path, run_dir, tag, single_worker, hard_deadline)
    if error is not None:
        record.update(errors=[error], failed=attempted)
        return record, None
    data = result["report_path"].read_bytes()
    errors, bad = workloads.check_report(spec, json.loads(data), smoke)
    record.update(
        errors=errors,
        failed=attempted if errors else bad,
        digest=hashlib.sha256(data).hexdigest(),
        setup_s=result["setup_s"],
        campaign_s=result["campaign_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["maxrss_kb"] / 1024.0,
        workers=result["workers"],
        blas_threads=result["blas_threads"],
    )
    if mode == "traced":
        with open(result["spans_path"], encoding="utf-8") as fh:
            record["layers"] = spans.layer_metrics(json.load(fh), result["campaign_s"])
    return record, result


def _check_digests(campaigns):
    """Repeats at one worker and BLAS thread setting must write identical reports."""
    groups = {}
    for c in campaigns:
        if "digest" in c:
            groups.setdefault((c["workers"], c["blas_threads"]), []).append(c)
    for (workers, blas), group in sorted(groups.items()):
        first = group[0]["digest"]
        for c in group:
            if c["digest"] != first:
                c["errors"].append(
                    f"report digest {c['digest'][:16]} differs from {first[:16]} "
                    f"at workers={workers} blas_threads={blas}"
                )
                c["failed"] = c["attempted"]
    return groups


def measure(name, seed, seconds, trace, smoke=False):
    """Run one workload for `seconds`; returns (summary dict, printable lines)."""
    spec = workloads.build_spec(name, seed, smoke)
    run_dir = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    start = time.monotonic()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    if trace:
        modes = [("timed", False), ("traced", False), ("traced", True)]
    else:
        modes = [("timed", False)]
    min_rounds = 1 if trace or smoke else 2
    campaigns, round_walls, info, run_errors, probes = [], [], None, [], []
    setup_target = 1 if smoke else SETUP_SAMPLES

    def top_up(target):
        """Spawn set-up-only processes until `target` set-up samples exist."""
        while len(probes) + sum("setup_s" in c for c in campaigns) < target:
            result, error = _spawn("setup", spec_path, run_dir, "setup", False, hard_deadline)
            if error is not None:
                run_errors.append(error)
                return
            probes.append(result["setup_s"])

    while True:
        round_start = time.monotonic()
        for mode, single in modes:
            tag = f"{mode}{'-1worker' if single else ''}"
            record, result = _campaign(spec, smoke, mode, single, spec_path, run_dir,
                                       tag, hard_deadline)
            campaigns.append(record)
            if result is not None and info is None:
                info = {k: result[k] for k in ("nproc", "workers", "blas_threads",
                                               "numpy", "openblas", "python")}
        round_walls.append(time.monotonic() - round_start)
        now = time.monotonic()
        if any(c["errors"] for c in campaigns):
            break
        # spread the set-up probes over the run rather than bunching them at its end
        top_up(math.ceil(setup_target * min(1.0, (now - start) / max(seconds, 1e-9))))
        now = time.monotonic()
        if len(round_walls) >= min_rounds and now + statistics.median(round_walls) > deadline:
            break
        if now + max(round_walls) > hard_deadline:
            break
    digest_groups = _check_digests(campaigns)
    ok = [c for c in campaigns if not c["errors"]]
    if ok and not run_errors:
        top_up(setup_target)
    setups = [c["setup_s"] for c in ok] + probes

    timed = [c for c in ok if c["mode"] == "timed" and not c["single_worker"]]
    traced = [c for c in ok if c["mode"] == "traced" and not c["single_worker"]]
    single = [c for c in ok if c["mode"] == "traced" and c["single_worker"]]
    metrics, units, lines = {}, {}, []
    if not trace and timed:
        for key in ("campaign_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(c[key] for c in timed)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    elif trace and timed and traced and single:
        metrics = spans.median_metrics([c["layers"] for c in traced])
        median_traced = statistics.median(c["campaign_s"] for c in traced)
        metrics["parallel.blas_threads"] = traced[0]["blas_threads"]
        metrics["parallel.speedup"] = (
            statistics.median(c["campaign_s"] for c in single) / median_traced
        )
        metrics["trace.overhead_s"] = median_traced - statistics.median(
            c["campaign_s"] for c in timed
        )
        metrics = {key: metrics[key] for key in PER_LAYER}
        units = PER_LAYER

    attempted = sum(c["attempted"] for c in campaigns)
    failed = sum(c["failed"] for c in campaigns)
    errors = run_errors + [e for c in campaigns for e in c["errors"]]
    correct = not errors and bool(metrics)
    meta = dict(info or {}, workload=name, seed=seed, n=spec["ensemble"]["n"],
                trials=spec["trials"], commit=runinfo.git_commit(ROOT),
                trace=int(trace), seconds=seconds, smoke=smoke)

    lines.append(f"workload {name}: {len(campaigns)} campaigns, {len(setups)} set-ups, "
                 f"{'correct' if correct else 'FAILED'}")
    for error in errors:
        lines.append(f"  check failed: {error}")
    if trace:
        for label, group in (("untraced", timed), ("traced", traced), ("1 worker", single)):
            lines.append(_timing_line("campaign_s", [c["campaign_s"] for c in group], "s")
                         + f" {label}")
    else:
        for key in ("campaign_s", "cpu_s", "peak_rss_mb"):
            lines.append(_timing_line(key, [c[key] for c in timed], END_TO_END[key]))
        lines.append(_timing_line("setup_s", setups, "s"))
    lines.append(f"  {'failed_frac':<12} {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} trials failed, excluded or flagged)")
    for (workers, blas), group in sorted(digest_groups.items()):
        digests = sorted({c["digest"] for c in group})
        lines.append(f"  report sha256 workers={workers} blas_threads={blas}: "
                     f"{', '.join(d[:16] for d in digests)} ({len(group)} reports)")
    if trace and single:
        single_layers = spans.median_metrics([c["layers"] for c in single])
        lines.append(f"  {'per-layer metric':<40} {'default':>12} {'1 worker':>12}")
        for key, unit in PER_LAYER.items():
            single_value = single_layers.get(key, "")
            if isinstance(single_value, float):
                single_value = f"{single_value:.6g}"
            lines.append(f"  {key:<40} {metrics.get(key, float('nan')):>12.6g} "
                         f"{single_value:>12} {unit}")
    lines.append("# meta " + json.dumps(meta, sort_keys=True))

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in metrics},
    }
    record = dict(summary, meta=meta, errors=errors, setup_samples=setups, campaigns=campaigns)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return summary, lines


def _timing_line(name, values, unit):
    if not values:
        return f"  {name:<12} no successful samples"
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]} {tail[1]:.6g} {unit}" if tail
                 else "no tail percentile with 10 samples above it")
    return (f"  {name:<12} median {statistics.median(values):.6g} {unit}, {tail_text}, "
            f"max {max(values):.6g} {unit} (n={len(values)})")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n and loose tolerances: checks the pipeline in seconds")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "circulaw" / "__init__.py").is_file():
        print(f"no circulaw sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        summary, lines = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print("\n".join(lines), flush=True)
        summaries[name] = summary
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{key}": value for name, s in summaries.items()
                        for key, value in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
