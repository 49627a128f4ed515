"""Deterministic trial-level parallelism, the only level of parallelism.

Workers only evaluate pure per-task functions; results are gathered in item
order and reduced sequentially, so outputs are identical for any worker
count. CIRCULAW_THREADS caps the pool size; by default the cap is the number
of CPUs this process may run on. Every campaign hands the pool all of its
(z, n, trial) tasks at once (MinSv through one `invertibility.min_sv_tail`
call), so it waits for its slowest worker once, not once per shift or
dimension.

`parallel_map` runs the items on min(k, len(items)) plain threads, which take
the next item index from one locked counter and store each result at its
index; the caller only starts and joins them, so it is not woken per item.
The first failure, or an exception in the caller such as an interrupt, stops
the hand-out: no item starts after it, the items in flight finish, and the
exception of the lowest failing index (or the caller's) is raised. With k = 1
the items run inline.

k is the pool's cap, not its width. The first worker runs items throughout;
the other k - 1, its helpers, take an item only while the first worker's last
task used at least `_PAYING_TASK_S` of thread CPU time. A shorter task is
mostly short numpy and LAPACK calls, each of which releases and retakes the
GIL, so a second thread running such tasks costs about a third more CPU and
buys no wall time. The measure is the task's cost, not n: at n = 128 a MinSv
task does not pay for a helper, a SvLaw or CircularLaw task does. Helpers that
do not take an item wait on the pass's condition rather than exit, so they
keep their thread, and they resume as soon as the first worker finishes a
task that pays, as when a ladder moves from small n to large. No worker keeps
a buffer between tasks: each kernel call allocates its own.

Every linalg kernel holds numpy's bundled OpenBLAS at one thread
(`linalg.single_threaded_blas`) for its own call, so reports do not depend
on OPENBLAS_NUM_THREADS, and the pool's workers do not oversubscribe the
cores (CIRCULAW_THREADS=1 means one core). `parallel_map` also holds it for
the whole pass, so the thread count changes once per pass instead of twice
per kernel call, with the caller's count restored when the outermost
`parallel_map` returns or raises. If no OpenBLAS library is found, BLAS
threading is left alone.
"""

from __future__ import annotations

import os
import threading
import time

from .errors import ConfigError
from .linalg import single_threaded_blas


# A task that uses less thread CPU time than this gains no wall time from a
# second worker and costs it more CPU, as its short numpy and LAPACK calls each
# hand the GIL between them. Measured on a 2-vCPU host (CHANGES.md): a MinSv task
# at n = 128 uses 0.5-0.85 ms alone and 0.7-0.8 ms beside a second worker, which
# gains it 0.90-1.09x; one at n = 192 uses 1.3 ms and gains 1.4-1.6x.
_PAYING_TASK_S = 1e-3


def thread_count() -> int:
    """CIRCULAW_THREADS if set, else the number of CPUs this process may run on."""
    env = os.environ.get("CIRCULAW_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError as exc:
            raise ConfigError(f"CIRCULAW_THREADS must be an integer, got {env!r}") from exc
        if k < 1:
            raise ConfigError(f"CIRCULAW_THREADS must be >= 1, got {k}")
        return k
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items):
    """[fn(item) for item in items], on min(CIRCULAW_THREADS, len(items)) workers,
    of which all but the first take items only while its tasks pay for them."""
    items = list(items)
    k = min(thread_count(), max(len(items), 1))
    with single_threaded_blas():
        if k == 1:
            return [fn(item) for item in items]
        results, failures = [None] * len(items), {}  # failing index -> its exception
        turn, handed, stopped = threading.Condition(), 0, False
        paying = True  # the first worker's last task used _PAYING_TASK_S (or none has ended)

        def work(first):
            nonlocal handed, stopped, paying
            while True:
                with turn:
                    while not (first or paying or stopped or handed == len(items)):
                        turn.wait()
                    if stopped or handed == len(items):
                        turn.notify_all()  # parked helpers see the pass end
                        return
                    i, handed = handed, handed + 1
                start = time.thread_time()
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # an interrupt in a task, too
                    with turn:
                        failures[i], stopped = exc, True
                if first:
                    pays = time.thread_time() - start >= _PAYING_TASK_S
                    if pays != paying:
                        with turn:
                            paying = pays
                            turn.notify_all()

        workers = [threading.Thread(target=work, args=(j == 0,)) for j in range(k)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:  # after an interrupt in the caller, too: the items in flight finish
            with turn:
                stopped = True
            for worker in workers:
                if worker.is_alive():
                    worker.join()
        if failures:
            raise failures[min(failures)]
        return results
