"""Self-tests of the campaign benchmark. They use smoke mode (tiny n) and run
in seconds:

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_all_four_and_prints_the_benchmark_metrics(trace, section):
    code, lines = _bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", str(trace))
    assert code == 0, lines[-10:]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name in workloads.WORKLOADS:
        printed = {
            key.split(".", 1)[1]: value["unit"]
            for key, value in result["metrics"].items()
            if key.startswith(name + ".")
        }
        assert printed == expected, name
    assert sum("failed_frac" in line for line in lines) == len(workloads.WORKLOADS)


def test_single_workload_last_line_has_exactly_the_contract_keys():
    code, lines = _bench("--workload", "minsv_small", "--smoke", "--seconds", "0", "--trace", "0")
    assert code == 0, lines[-10:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_spans_nest_inside_their_parent_on_the_same_thread(name, tmp_path, monkeypatch):
    from circulaw import experiments
    from circulaw.ensemble import sample_matrix
    from circulaw.experiments import ExperimentSpec, run_experiment, write_report

    monkeypatch.setenv("CIRCULAW_THREADS", "2")
    spec = ExperimentSpec.from_json_dict(workloads.build_spec(name, 3, smoke=True))
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced_run = recorder.wrap("experiments.run_experiment", run_experiment)
        traced_write = recorder.wrap("experiments.write_report", write_report,
                                     lambda args, _: {"bytes": 1})
        traced_write(traced_run(spec), tmp_path / "report.json", "json")
    finally:
        recorder.uninstall()
    assert experiments.sample_matrix is sample_matrix

    recorded = recorder.spans
    by_id = {s["id"]: s for s in recorded}
    main = threading.get_ident()
    roots = [s for s in recorded if s["parent"] == 0]
    assert [s["name"] for s in roots] == ["experiments.run_experiment", "experiments.write_report"]
    assert all(s["tid"] == main for s in roots)
    crossed = 0
    for s in recorded:
        if s["parent"] == 0:
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"], (s, parent)
        if parent["tid"] != s["tid"]:
            assert (s["name"], parent["name"]) == ("parallel.task", "parallel.parallel_map")
            crossed += 1
    assert crossed > 0
    assert all(t >= -1e-9 for t in spans.self_times(recorded).values())
    metrics = spans.layer_metrics(recorded, roots[-1]["end"] - roots[0]["start"])
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert metrics["ensemble.sample_matrix.calls"] == workloads.trials_attempted(
        workloads.build_spec(name, 3, smoke=True)
    )


def test_forced_check_failure_shows_in_failed_frac_and_exit_code(monkeypatch, tmp_path, capsys):
    def always_fail(spec, report, tol, errors):
        errors.append("forced failure")
        return 0

    monkeypatch.setitem(workloads.CHECKS, "MinSv", always_fail)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "minsv_small", "--smoke", "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    assert result["metrics"] == {}
    assert any("forced failure" in line for line in lines)
    assert any("failed_frac  1 ratio" in line for line in lines)


def test_digest_mismatch_within_one_thread_setting_fails_the_repeat():
    def campaign(digest, workers):
        return {"digest": digest, "workers": workers, "blas_threads": 2,
                "errors": [], "failed": 0, "attempted": 8}

    same, other, single = campaign("a", 2), campaign("b", 2), campaign("b", 1)
    run._check_digests([same, other, single])
    assert not same["errors"] and not single["errors"]
    assert other["errors"] and other["failed"] == 8


def test_tail_percentile_needs_ten_samples_above_it():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90


def test_exits_nonzero_without_output_outside_a_full_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = _bench("--workload", "svlaw_dense", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert lines == []
