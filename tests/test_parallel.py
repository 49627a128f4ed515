"""Trial-level parallelism: single-threaded BLAS inside the pool and at every linalg kernel,
reports that depend on neither the BLAS thread count nor, on the exact side, its kernel."""

import functools
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import weakref
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


def _child_stdout(args, **env):
    """stdout of `python *args` in a child process, with `env` on top of this one's."""
    env = dict(os.environ, PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]), **env)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120,
                          check=True)
    return done.stdout


# The five kernels that reach BLAS or LAPACK, on one n = 512 complex sample:
# called directly, or in parallel_map's workers (argv[1] == "pooled").
_KERNELS = """
import hashlib, math, sys
import numpy as np
from circulaw import EnsembleConfig, EntryDistribution, sample_matrix
from circulaw.linalg import (certified_log_det, eigenvalues, frobenius_norm, singular_values,
                             thresholds_below_sn)
from circulaw.parallel import parallel_map

a = sample_matrix(EnsembleConfig(512, 1.0, EntryDistribution("ComplexGaussian"), 3), 0)


def kernels(_):
    det = certified_log_det(a, 0.0, math.inf, 3, 0)
    values = {"frobenius_norm": frobenius_norm(a), "log_det": det.value, "lower": det.lower,
              "upper": det.upper, "singular_values": singular_values(a).values,
              "eigenvalues": eigenvalues(a).values,
              "thresholds_below_sn": np.int64(thresholds_below_sn(a, np.geomspace(1e-5, 0.1, 9),
                                                                   math.inf))}
    return " ".join(f"{name}={v.hex() if isinstance(v, float) else hashlib.sha256(v).hexdigest()}"
                    for name, v in values.items())


lines = parallel_map(kernels, range(2)) if sys.argv[1] == "pooled" else [kernels(None)]
print(*sorted(set(lines)), sep="\\n")
"""

_CHILDREN = {
    "esd": [["-m", "circulaw.cli", "esd", "--n", "256", "--seed", "3"]],
    "kernels": [["-c", _KERNELS, "direct"], ["-c", _KERNELS, "pooled"]],
}


@pytest.mark.parametrize("name", sorted(_CHILDREN))
def test_bytes_do_not_depend_on_blas_threads(name):
    # eigvals once ran outside the pool, and ||A||_F and the certificate's residual
    # ran outside any hold when called directly: on
    # OpenBLAS's threaded kernels when allowed two threads, whose rounding moved
    # the bits; the pool's workers must see the same bits as a direct call
    outputs = {(args[-1], threads): _child_stdout(args, OPENBLAS_NUM_THREADS=threads,
                                                  CIRCULAW_THREADS="2")
               for args in _CHILDREN[name] for threads in ("1", "2")}
    assert len(set(outputs.values())) == 1, outputs


# The exact side's bytes (the law CDF grid, the density and potential_from_law at
# the five golden shifts), after the name of the core OpenBLAS runs on
_LAW_BYTES = """
import ctypes, hashlib
import numpy as np
from circulaw import linalg
from circulaw.limit_theory import law_for_shift, potential_from_law

digest = hashlib.sha256()
x = np.linspace(0.0, 12.0, 1201)
for z in (0j, 0.5 + 0.5j, 1 + 0j, 1.5 + 0j, 2 + 0j):
    law = law_for_shift(z)
    digest.update(law.cdf_squared(x).tobytes() + law.density(x).tobytes())
    digest.update(np.float64(potential_from_law(z)).tobytes())
corename = linalg._symbol("openblas_get_corename64_")
corename.restype = ctypes.c_char_p
print(corename().decode(), digest.hexdigest())
"""

# OPENBLAS_CORETYPE -> the /proc/cpuinfo flags its kernels need, and the names
# openblas_get_corename gives it (OpenBLAS 0.3.31 reports Prescott as Katmai)
_CORES = {"Haswell": ({"avx2", "fma"}, {"haswell"}), "Sandybridge": ({"avx"}, {"sandybridge"}),
          "Prescott": ({"pni"}, {"prescott", "katmai"})}


@functools.cache
def _law_bytes(core=None):
    """(core name, digest) of _LAW_BYTES in a child process on OpenBLAS core `core`."""
    env = {} if core is None else {"OPENBLAS_CORETYPE": core}
    return tuple(_child_stdout(["-c", _LAW_BYTES], **env).decode().split())


def _cpu_flags():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags")
            for flag in line.split(":")[1].split()}


def skip_unless_this_cpu_runs(core):
    """Skip unless OPENBLAS_CORETYPE=`core` can run here; else the names
    openblas_get_corename may give it."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 cores")
    if linalg._symbol("openblas_get_corename64_") is None:
        pytest.skip("numpy does not bundle an OpenBLAS library")
    needs, names = _CORES[core]
    if not needs <= _cpu_flags():
        pytest.skip(f"this CPU lacks the instructions of {core}")
    return names


@pytest.mark.parametrize("core", sorted(_CORES))
def test_limit_law_bytes_do_not_depend_on_the_blas_kernel(core):
    # the panel sums were a gemv, whose bits differ between OpenBLAS's kernels:
    # SkylakeX and Haswell gave one digest, Sandybridge and Prescott another
    names = skip_unless_this_cpu_runs(core)
    name, digest = _law_bytes(core)
    assert name.lower() in names
    assert digest == _law_bytes()[1], (name, _law_bytes())


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


@pytest.mark.parametrize("value", ["x", "0"])
def test_a_bad_thread_count_is_a_config_error(monkeypatch, value):
    monkeypatch.setenv("CIRCULAW_THREADS", value)
    with pytest.raises(circulaw.ConfigError, match="CIRCULAW_THREADS"):
        parallel.thread_count()


def test_the_default_count_is_the_cpus_this_process_may_run_on(monkeypatch):
    # a run pinned to one CPU by taskset or a cgroup started one worker per host CPU
    monkeypatch.delenv("CIRCULAW_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.thread_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel.thread_count() == 3


def test_import_loads_no_executor():
    # the pool runs plain threads: importing concurrent.futures cost every campaign's setup
    code = "import sys, circulaw.experiments\nprint('concurrent.futures' in sys.modules)"
    assert _child_stdout(["-c", code]).decode().strip() == "False"


def test_import_binds_no_library():
    # opening OpenBLAS at import time would count in every campaign's setup time
    env = dict(os.environ, PYTHONPATH=str(Path(circulaw.__file__).resolve().parents[1]))
    code = ("import circulaw, circulaw.experiments\nfrom circulaw import linalg\n"
            "print(linalg.openblas.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0"


def _spin(seconds):
    """Use `seconds` of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _costed(costs, fail_at=None, interrupt_at=None):
    """(task, ran) for a pass on two workers: task i is short (it sleeps for
    parallel._PAYING_TASK_S, using almost no CPU) or long (it spins for six times
    that), as costs[i] says; ran maps each started index to its thread."""
    ran, caller = {}, threading.get_ident()

    def task(i):
        ran[i] = threading.current_thread()
        if i == interrupt_at:
            signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.1)
        if costs[i] == "long":
            _spin(6 * parallel._PAYING_TASK_S)
        else:
            time.sleep(parallel._PAYING_TASK_S)
        if i == fail_at:
            raise ValueError(f"item {i}")
        return i

    return task, ran


def _pass_on_a_daemon(fn, items):
    """(result, exception) of parallel_map(fn, items), run on a daemon thread that
    must end within a minute, as must the pool threads it starts."""
    before, out = set(threading.enumerate()), {}

    def run():
        try:
            out["result"] = parallel.parallel_map(fn, items)
        except BaseException as exc:
            out["error"] = exc

    runner = threading.Thread(target=run, daemon=True)  # so are its pool threads
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the pass did not end"
    assert set(threading.enumerate()) <= before
    return out.get("result"), out.get("error")


class TestPoolPass:
    """One parallel_map pass: item order, its failures and interrupts, its threads and buffers."""

    @pytest.mark.parametrize("workers", ["1", "2", "3", "8"])
    def test_results_come_back_in_item_order(self, monkeypatch, workers):
        monkeypatch.setenv("CIRCULAW_THREADS", workers)

        def uneven(i):  # later items often finish first
            time.sleep(0.004 * ((7 * i) % 5))
            return i * i

        assert parallel.parallel_map(uneven, range(23)) == [i * i for i in range(23)]
        assert parallel.parallel_map(uneven, []) == []

    def test_lowest_index_failure_wins_and_no_item_starts_after_one(self, monkeypatch):
        # item 2 fails at once and item 0 only after it; items 0 and 1 are in flight
        # then, so they finish, and none of items 3.. may start
        monkeypatch.setenv("CIRCULAW_THREADS", "3")
        started = []

        def task(i):
            started.append(i)
            if i == 2:
                raise ValueError("item 2")
            time.sleep(0.2)
            if i == 0:
                raise ValueError("item 0")
            return i

        with pytest.raises(ValueError, match="item 0"):
            parallel.parallel_map(task, range(20))
        assert sorted(started) == [0, 1, 2]

    def test_an_interrupt_in_the_caller_starts_no_further_item(self, monkeypatch):
        # item 1 interrupts the caller while items 0 and 1 run and 2.. wait; those two
        # finish before parallel_map raises, and none of the rest may start
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        caller, started, finished = threading.get_ident(), [], []

        def task(i):
            started.append(i)
            if i == 1:
                signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.1)
            finished.append(i)
            return i

        try:
            with pytest.raises(KeyboardInterrupt):
                parallel.parallel_map(task, range(20))
            time.sleep(0.3)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert sorted(started) == [0, 1]
        assert sorted(finished) == [0, 1]

    def test_an_interrupt_in_a_task_reaches_the_caller(self, blas, monkeypatch):
        # a worker that caught only Exception let item 1's interrupt end its thread,
        # while the other worker ran every later item and the pass returned
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        started = []

        def task(i):
            started.append(i)
            if i == 1:
                raise KeyboardInterrupt
            time.sleep(0.2)
            return i

        with pytest.raises(KeyboardInterrupt):
            parallel.parallel_map(task, range(20))
        assert sorted(started) == [0, 1]
        assert blas[0]() == 3

    @pytest.mark.parametrize("workers", [1, 3])
    def test_at_most_k_worker_threads_run(self, monkeypatch, workers):
        monkeypatch.setenv("CIRCULAW_THREADS", str(workers))
        threads = set()

        def task(i):
            threads.add(threading.get_ident())
            time.sleep(0.001)
            return i

        parallel.parallel_map(task, range(40))
        assert 1 <= len(threads) <= workers

    def test_no_worker_carries_a_buffer_from_one_potential_task_to_the_next(self, monkeypatch):
        # three shifts are one pass; each task's factor buffer goes when its call returns
        from circulaw import EnsembleConfig, EntryDistribution
        from circulaw.experiments import ExperimentSpec, run_experiment

        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        handed, shifted = [], linalg._shifted

        def watched(entries, shifts, dtype):
            ident = threading.get_ident()
            assert all(ref() is None for who, ref in handed if who == ident)
            buf = shifted(entries, shifts, dtype)
            handed.append((ident, weakref.ref(buf)))
            return buf

        monkeypatch.setattr(linalg, "_shifted", watched)
        ensemble = EnsembleConfig(24, 1.0, EntryDistribution("ComplexGaussian"), 4)
        spec = ExperimentSpec(kind="Potential", ensemble=ensemble, trials=6, r=0.1,
                              z_points=(0j, 0.5 + 0.5j, 2 + 0j))
        run_experiment(spec)
        assert len(handed) == 3 * 6
        assert 1 <= len({ident for ident, _ in handed}) <= 2
        assert all(ref() is None for _, ref in handed)

    # The width rule, on two workers: the helper takes items only while the first
    # worker's last task used at least parallel._PAYING_TASK_S of thread CPU time.
    def test_short_tasks_run_on_one_thread_after_the_first_few(self, monkeypatch):
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        task, ran = _costed(["short"] * 80)
        assert _pass_on_a_daemon(task, range(80)) == (list(range(80)), None)
        assert len({ran[i] for i in range(20, 80)}) == 1

    def test_long_tasks_run_on_both_threads(self, monkeypatch):
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        task, ran = _costed(["long"] * 20)
        assert _pass_on_a_daemon(task, range(20)) == (list(range(20)), None)
        threads = list(ran.values())
        assert len(set(threads)) == 2
        assert min(threads.count(thread) for thread in set(threads)) >= 5

    def test_a_parked_helper_takes_part_once_tasks_turn_long(self, monkeypatch):
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        task, ran = _costed(["short"] * 40 + ["long"] * 20)
        assert _pass_on_a_daemon(task, range(60)) == (list(range(60)), None)
        (first,) = {ran[i] for i in range(20, 40)}
        assert sum(ran[i] is not first for i in range(40, 60)) >= 5

    def test_a_late_failure_ends_the_pass_with_the_helper_parked(self, monkeypatch):
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        task, ran = _costed(["short"] * 60, fail_at=40)
        result, error = _pass_on_a_daemon(task, range(60))
        assert isinstance(error, ValueError) and str(error) == "item 40"
        assert len({ran[i] for i in range(20, 41)}) == 1  # the helper was parked
        assert sorted(ran) == list(range(41))

    def test_an_interrupt_in_the_caller_ends_the_pass_with_the_helper_parked(self, monkeypatch):
        monkeypatch.setenv("CIRCULAW_THREADS", "2")
        before = set(threading.enumerate())
        task, ran = _costed(["short"] * 60, interrupt_at=40)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                parallel.parallel_map(task, range(60))
        finally:
            signal.signal(signal.SIGINT, previous)
        assert len({ran[i] for i in range(20, 41)}) == 1  # the helper was parked
        assert sorted(ran) == list(range(41))
        assert set(threading.enumerate()) <= before
