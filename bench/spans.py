"""Span tracing around circulaw's public layer functions, and the per-layer
metrics derived from the spans.

`Recorder.install()` replaces each traced function in the namespace where its
callers look it up (`circulaw.experiments` and `circulaw.invertibility` bind
their imports by name; `circulaw.ensemble` reaches `rng.grid_keys` and
`rng.word_grid` through the module; two class methods are patched on their
class). No library file is edited. Each span records its name, start, end,
parent span and thread id; spans stay in memory until the caller writes them.

Self time is computed per thread: a span's self time is its duration minus
the durations of its direct children on the same thread. Pool tasks run on
worker threads and name the `parallel_map` span that caused them as parent,
so they never reduce the main thread's time.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict

# Flop models (real flops per call of order n; complex arithmetic counts 4x).
#   singular_values: Gram product A A^* (2 n^3) plus a values-only Hermitian
#     eigensolve, dominated by the tridiagonal reduction (4/3 n^3).
#   eigenvalues: values-only nonsymmetric eigensolve, Hessenberg reduction
#     plus Francis QR, ~10 n^3 (Golub & Van Loan, Matrix Computations, 7.5.6).
_SV_FLOPS_PER_N3 = 2.0 + 4.0 / 3.0
_EIG_FLOPS_PER_N3 = 10.0
_COMPLEX_FACTOR = 4.0
_REFINE_RATIO = 1e-6  # the library refines s_n below this share of s_1

# Per-layer metrics with their units, in report order. run.py adds the three
# that need more than one campaign: parallel.speedup, parallel.blas_threads
# and trace.overhead_s.
LAYER_UNITS = {
    "rng.grid_keys.self_s": "s",
    "rng.word_grid.self_s": "s",
    "ensemble.sample_matrix.calls": "count",
    "ensemble.sample_matrix.self_s": "s",
    "ensemble.sample_matrix.bytes": "B",
    "ensemble.smoothing_shift.self_s": "s",
    "linalg.shift.self_s": "s",
    "linalg.singular_values.calls": "count",
    "linalg.singular_values.self_s": "s",
    "linalg.singular_values.gflops": "GFLOP/s",
    "linalg.singular_values.refined": "count",
    "linalg.eigenvalues.calls": "count",
    "linalg.eigenvalues.self_s": "s",
    "linalg.eigenvalues.gflops": "GFLOP/s",
    "spectral_measures.self_s": "s",
    "spectral_measures.atoms": "count",
    "limit_theory.law_for_shift.calls": "count",
    "limit_theory.law_for_shift.misses": "count",
    "limit_theory.LimitLaw.for_shift.self_s": "s",
    "limit_theory.potential_from_law.self_s": "s",
    "invertibility.min_sv_tail.self_s": "s",
    "parallel.parallel_map.wall_s": "s",
    "parallel.workers": "count",
    "parallel.busy_ratio": "ratio",
    "parallel.cpu_per_wall": "ratio",
    "experiments.run_experiment.self_s": "s",
    "experiments.write_report.self_s": "s",
    "experiments.write_report.bytes": "B",
    "trace.outside_share": "ratio",
}


def _matrix_attrs(args, result):
    entries = args[0].entries
    return {"n": int(entries.shape[0]), "complex": entries.dtype.kind == "c"}


def _sample_attrs(args, result):
    return {"bytes": int(result.entries.nbytes)}


def _sv_attrs(args, result):
    attrs = _matrix_attrs(args, result)
    s = result.values
    attrs["refined"] = bool(s[0] > 0 and s[-1] < _REFINE_RATIO * s[0])
    return attrs


def _cdf_atoms(args, result):
    return {"atoms": int(len(result.xs))}


def _spectra_atoms(args, result):
    return {"atoms": int(sum(sp.n for sp in args[0]))}


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name, opened, attrs=None, stop=None):
        if stop is None:
            stop = time.perf_counter()
        sid, parent, start = opened
        self._stack().pop()
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": stop,
            "parent": parent, "tid": threading.get_ident(), "attrs": attrs or {},
        })

    def call(self, name, fn, args, kwargs, attrs_fn=None, parent=None):
        opened = self.begin(parent)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(name, opened)
            raise
        stop = time.perf_counter()
        self.end(name, opened, attrs_fn(args, result) if attrs_fn else None, stop)
        return result

    def wrap(self, name, fn, attrs_fn=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)

        return traced

    def _wrap_parallel_map(self, fn, thread_count):
        def traced(task_fn, items):
            items = list(items)
            workers = min(thread_count(), max(len(items), 1))
            opened = self.begin()

            def task(item):
                return self.call("parallel.task", task_fn, (item,), {}, parent=opened[0])

            cpu0 = time.process_time()
            try:
                return fn(task, items)
            finally:
                self.end("parallel.parallel_map", opened,
                         {"workers": workers, "cpu_s": time.process_time() - cpu0})

        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_classmethod(self, cls, attr, name, attrs_fn=None):
        func = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self.wrap(name, func, attrs_fn)))

    def install(self):
        """Patch the traced functions where campaign code looks them up."""
        from circulaw import experiments, invertibility, limit_theory, parallel, rng
        from circulaw.limit_theory import LimitLaw
        from circulaw.spectral_measures import EmpiricalCDF

        for attr in ("grid_keys", "word_grid"):
            self._patch(rng, attr, self.wrap(f"rng.{attr}", getattr(rng, attr)))
        by_name = (
            ("sample_matrix", "ensemble.sample_matrix", _sample_attrs, (experiments, invertibility)),
            ("smoothing_shift", "ensemble.smoothing_shift", None, (experiments,)),
            ("shift", "linalg.shift", None, (experiments, invertibility)),
            ("singular_values", "linalg.singular_values", _sv_attrs, (experiments, invertibility)),
            ("eigenvalues", "linalg.eigenvalues", _matrix_attrs, (experiments,)),
            ("min_sv_tail", "invertibility.min_sv_tail", None, (experiments,)),
            ("law_for_shift", "limit_theory.law_for_shift", None, (experiments, limit_theory)),
            ("potential_from_law", "limit_theory.potential_from_law", None, (experiments,)),
            ("ks_distance", "spectral_measures.ks_distance", None, (experiments,)),
            ("radial_angular_cdfs", "spectral_measures.radial_angular_cdfs", None, (experiments,)),
            ("log_potential_empirical", "spectral_measures.log_potential_empirical",
             _spectra_atoms, (experiments,)),
        )
        for attr, name, attrs_fn, modules in by_name:
            for module in modules:
                self._patch(module, attr, self.wrap(name, getattr(module, attr), attrs_fn))
        for module in (experiments, invertibility):
            self._patch(module, "parallel_map",
                        self._wrap_parallel_map(module.parallel_map, parallel.thread_count))
        self._patch_classmethod(LimitLaw, "for_shift", "limit_theory.LimitLaw.for_shift")
        self._patch_classmethod(EmpiricalCDF, "from_values",
                                "spectral_measures.EmpiricalCDF.from_values", _cdf_atoms)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """{span id: duration minus its direct same-thread children's durations}."""
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["tid"] == s["tid"]:
            covered[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _flops(span, per_n3):
    n = span["attrs"]["n"]
    return per_n3 * n**3 * (_COMPLEX_FACTOR if span["attrs"]["complex"] else 1.0)


def layer_metrics(spans, campaign_s):
    """Per-layer metrics of one traced campaign (see LAYER_UNITS).

    Self times are summed over threads, so a layer running on two pool
    workers can report more seconds than the campaign's wall time.
    """
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    named = defaultdict(list)
    for s in spans:
        self_by_name[s["name"]] += selfs[s["id"]]
        named[s["name"]].append(s)

    def total_self(name):
        return self_by_name.get(name, 0.0)

    def rate(name, per_n3):
        busy = total_self(name)
        flops = sum(_flops(s, per_n3) for s in named[name])
        return flops / busy / 1e9 if busy > 0 else 0.0

    maps = named["parallel.parallel_map"]
    map_wall = sum(s["end"] - s["start"] for s in maps)
    map_capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"] for s in maps)
    task_time = sum(s["end"] - s["start"] for s in named["parallel.task"])
    spectral = [name for name in self_by_name if name.startswith("spectral_measures.")]
    runner_ids = {s["id"] for s in named["experiments.run_experiment"]}
    covered = sum(
        s["end"] - s["start"] for s in spans if s["parent"] in runner_ids
    ) + sum(s["end"] - s["start"] for s in named["experiments.write_report"])
    metrics = {
        "rng.grid_keys.self_s": total_self("rng.grid_keys"),
        "rng.word_grid.self_s": total_self("rng.word_grid"),
        "ensemble.sample_matrix.calls": len(named["ensemble.sample_matrix"]),
        "ensemble.sample_matrix.self_s": total_self("ensemble.sample_matrix"),
        "ensemble.sample_matrix.bytes": sum(
            s["attrs"]["bytes"] for s in named["ensemble.sample_matrix"]
        ),
        "ensemble.smoothing_shift.self_s": total_self("ensemble.smoothing_shift"),
        "linalg.shift.self_s": total_self("linalg.shift"),
        "linalg.singular_values.calls": len(named["linalg.singular_values"]),
        "linalg.singular_values.self_s": total_self("linalg.singular_values"),
        "linalg.singular_values.gflops": rate("linalg.singular_values", _SV_FLOPS_PER_N3),
        "linalg.singular_values.refined": sum(
            s["attrs"]["refined"] for s in named["linalg.singular_values"]
        ),
        "linalg.eigenvalues.calls": len(named["linalg.eigenvalues"]),
        "linalg.eigenvalues.self_s": total_self("linalg.eigenvalues"),
        "linalg.eigenvalues.gflops": rate("linalg.eigenvalues", _EIG_FLOPS_PER_N3),
        "spectral_measures.self_s": sum((total_self(name) for name in spectral), 0.0),
        "spectral_measures.atoms": sum(
            s["attrs"].get("atoms", 0) for name in spectral for s in named[name]
        ),
        "limit_theory.law_for_shift.calls": len(named["limit_theory.law_for_shift"]),
        "limit_theory.law_for_shift.misses": len(named["limit_theory.LimitLaw.for_shift"]),
        "limit_theory.LimitLaw.for_shift.self_s": total_self("limit_theory.LimitLaw.for_shift"),
        "limit_theory.potential_from_law.self_s": total_self("limit_theory.potential_from_law"),
        "invertibility.min_sv_tail.self_s": total_self("invertibility.min_sv_tail"),
        "parallel.parallel_map.wall_s": map_wall,
        "parallel.workers": max((s["attrs"]["workers"] for s in maps), default=0),
        "parallel.busy_ratio": task_time / map_capacity if map_capacity > 0 else 0.0,
        "parallel.cpu_per_wall": (
            sum(s["attrs"]["cpu_s"] for s in maps) / map_wall if map_wall > 0 else 0.0
        ),
        "experiments.run_experiment.self_s": total_self("experiments.run_experiment"),
        "experiments.write_report.self_s": total_self("experiments.write_report"),
        "experiments.write_report.bytes": sum(
            s["attrs"]["bytes"] for s in named["experiments.write_report"]
        ),
        "trace.outside_share": max(campaign_s - covered, 0.0) / campaign_s,
    }
    return metrics


def median_metrics(per_campaign):
    """Metric-wise median over campaigns; counts keep a sampled integer value."""
    medians = {}
    for name in per_campaign[0]:
        values = [m[name] for m in per_campaign]
        integral = all(isinstance(v, int) for v in values)
        medians[name] = statistics.median_low(values) if integral else statistics.median(values)
    return medians
