"""Trial-level parallelism: single-threaded BLAS inside the pool, thread-independent reports."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import circulaw
from circulaw import linalg, parallel

# OpenBLAS's threaded and serial kernels round differently; with this spec
# (the smallest n found where they do) the report bytes changed with
# OPENBLAS_NUM_THREADS while the pool left BLAS threading alone.
_SVLAW_DIGEST = """
import hashlib, sys
from circulaw.experiments import ExperimentSpec, run_experiment, write_report
spec = ExperimentSpec.from_json_dict({
    "kind": "SvLaw", "trials": 2, "z_points": ["0.5+0i"],
    "ensemble": {"n": 97, "p_n": 1.0, "dist": {"tag": "RealGaussian", "params": {}},
                 "master_seed": 1}})
write_report(run_experiment(spec), sys.argv[1], "json")
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""


def _report_digest(tmp_path, workers, blas_threads):
    env = dict(os.environ, CIRCULAW_THREADS=workers,
               PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = tmp_path / f"report_{workers}_{blas_threads}.json"
    done = subprocess.run([sys.executable, "-c", _SVLAW_DIGEST, str(out)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_report_bytes_do_not_depend_on_workers_or_blas_threads(tmp_path):
    digests = {
        (workers, blas): _report_digest(tmp_path, workers, blas)
        for workers in ("1", "2")
        for blas in (None, "1")
    }
    assert len(set(digests.values())) == 1, digests


def _esd_bytes(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "circulaw.cli", "esd", "--n", "256", "--seed", "3"],
                          env=env, capture_output=True, timeout=120, check=True)
    return done.stdout


def test_esd_bytes_do_not_depend_on_blas_threads():
    # eigvals ran outside the pool, on OpenBLAS's threaded kernels when allowed
    # two threads; their rounding moved the CSV's bytes
    assert _esd_bytes("1") == _esd_bytes("2")


@pytest.fixture
def blas():
    """(get, set) of the bundled OpenBLAS, held at 3 threads; restored afterwards."""
    api = tuple(linalg._symbol(f"openblas_{op}_num_threads64_") for op in ("get", "set"))
    if None in api:
        pytest.skip("numpy does not bundle an OpenBLAS library")
    get_threads, set_threads = api
    before = get_threads()
    set_threads(3)
    yield api
    set_threads(before)


def test_pool_runs_blas_single_threaded_and_restores_the_count(blas, monkeypatch):
    get_threads = blas[0]
    for workers in ("1", "2"):
        monkeypatch.setenv("CIRCULAW_THREADS", workers)
        assert parallel.parallel_map(lambda _: get_threads(), range(4)) == [1] * 4
        assert get_threads() == 3


def test_count_is_restored_after_a_task_raises(blas, monkeypatch):
    monkeypatch.setenv("CIRCULAW_THREADS", "2")

    def task(i):
        if i == 2:
            raise ValueError("task failed")
        return i

    with pytest.raises(ValueError, match="task failed"):
        parallel.parallel_map(task, range(4))
    assert blas[0]() == 3


def test_nested_pools_restore_only_when_the_outermost_returns(blas, monkeypatch):
    get_threads = blas[0]
    monkeypatch.setenv("CIRCULAW_THREADS", "2")

    def outer(_):
        inner = parallel.parallel_map(lambda _: get_threads(), range(2))
        return inner + [get_threads()]

    assert parallel.parallel_map(outer, range(2)) == [[1, 1, 1]] * 2
    assert get_threads() == 3


def test_pool_leaves_blas_alone_without_an_openblas_library(blas, monkeypatch):
    get_threads = blas[0]
    monkeypatch.setattr(linalg, "openblas", lambda: None)
    monkeypatch.setenv("CIRCULAW_THREADS", "2")
    assert parallel.parallel_map(lambda i: (i, get_threads()), range(3)) == [
        (0, 3), (1, 3), (2, 3)]
    assert get_threads() == 3


def test_concurrent_callers_share_one_hold_on_the_blas_count(blas, monkeypatch):
    get_threads = blas[0]
    monkeypatch.setenv("CIRCULAW_THREADS", "8")
    seen = []

    def caller():
        for _ in range(20):
            seen.extend(parallel.parallel_map(lambda _: get_threads(), range(8)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert seen == [1] * (6 * 20 * 8)
    assert get_threads() == 3


def test_import_binds_no_library():
    # opening OpenBLAS at import time would count in every campaign's setup time
    env = dict(os.environ, PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]))
    code = ("import circulaw, circulaw.experiments\nfrom circulaw import linalg\n"
            "print(linalg.openblas.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0"
