"""Structural fences: each outside resource has one owning module in circulaw."""

import ast
import re
from pathlib import Path

import circulaw

README = Path(__file__).resolve().parents[1] / "README.md"
_TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(Path(circulaw.__file__).resolve().parent.glob("*.py"))}
# BLAS products, and numpy functions that form one or call LAPACK out of sight
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "multi_dot",
               "polyfit", "cov", "corrcoef", "roots"}
_THREAD_STATE = {"local", "get_ident", "get_native_id"}
# what starts a thread or process: a second level of parallelism would need one
_SPAWNERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool",
             "start_new_thread"}
_SPAWNING_MODULES = ("concurrent", "multiprocessing", "_thread")
_MUTATORS = {"clear", "setdefault", "update", "pop", "popitem", "append", "extend", "insert", "add"}


def _name(node):
    """The name a node refers to: `x` for `x`, `attr` for `a.b.attr`, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _modules_where(predicate):
    return {module for module, tree in _TREES.items() if any(map(predicate, ast.walk(tree)))}


def test_the_modules_are_found():
    assert {"textio", "linalg", "parallel", "invertibility"} <= set(_TREES)


def test_only_textio_opens_files():
    assert _modules_where(lambda node: isinstance(node, ast.Call) and _name(node.func) == "open") \
        == {"textio"}


def test_only_linalg_and_the_pool_hold_blas():
    def refers(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "single_threaded_blas" for alias in node.names)
        return _name(node) == "single_threaded_blas"

    assert _modules_where(refers) == {"linalg", "parallel"}
    # inside linalg the hold is only the boundary decorator of public kernels,
    # so a kernel runs on one BLAS thread however it is called
    tree = _TREES["linalg"]
    held = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for d in fn.decorator_list if _name(getattr(d, "func", d)) == "single_threaded_blas"}
    uses = [node for node in ast.walk(tree) if _name(node) == "single_threaded_blas"]
    assert held == {"frobenius_norm", "certified_log_det", "singular_values",
                    "thresholds_below_sn", "eigenvalues"}
    assert len(uses) == len(held)


def test_only_parallel_creates_threads_or_executors():
    # the trial pool is the one level of parallelism (ROADMAP aim 2)
    def spawns(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] in _SPAWNING_MODULES for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] in _SPAWNING_MODULES \
                or any(alias.name in _SPAWNERS for alias in node.names)
        return _name(node) in _SPAWNERS

    assert _modules_where(spawns) == {"parallel"}


def test_only_linalg_forms_blas_products():
    # so every BLAS call runs under linalg's hold, and sums elsewhere keep their bits
    # for any block size, thread count or OpenBLAS kernel. One measured exception in
    # limit_theory: leggauss's nodes, made once at import, had the same bits on the
    # SkylakeX, Haswell, Sandybridge and Prescott cores
    def product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            return _name(node.value) in {"np", "numpy"}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any("numpy.linalg" in f"{getattr(node, 'module', '')}.{alias.name}"
                       for alias in node.names)
        return isinstance(node, ast.Call) and _name(node.func) in _BLAS_CALLS

    assert _modules_where(product) == {"linalg"}


def test_every_input_type_checks_itself():
    # each type a caller builds and hands on raises at construction, not in a kernel:
    # a float32 MatrixSample reached potrf as a float32 buffer it read as doubles
    checked = {(module, node.name) for module, tree in _TREES.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for fn in node.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"}
    assert {("ensemble", "EntryDistribution"), ("ensemble", "EnsembleConfig"),
            ("ensemble", "MatrixSample"), ("experiments", "ExperimentSpec"),
            ("spectral_measures", "EmpiricalCDF")} <= checked


def _registries(tree):
    """Module-level names that a function fills or empties, and memoized functions."""
    top = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
           for target in getattr(node, "targets", [getattr(node, "target", None)])
           if isinstance(target, ast.Name)}
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_name(getattr(d, "func", d)) in {"lru_cache", "cache"} for d in fn.decorator_list):
            found.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                owner = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                owner = node.func.value
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id in top:
                found.add(owner.id)
    return found


def test_run_experiment_is_the_one_campaign_entry():
    public = {fn.name for fn in _TREES["experiments"].body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_")}
    assert {name for name in public if name.startswith("run_") or name.endswith("_check")} \
        == {"run_experiment"}


def test_every_export_is_named_in_readme_or_used_by_a_front_end():
    # the package root exports what a user reaches: README names it (in backticks), or
    # the CLI or the campaign runners use it; the rest imports from its module
    exported = {alias.name for node in _TREES["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.id if isinstance(node, ast.Name) else node.name
            for module in ("cli", "experiments") for node in ast.walk(_TREES[module])
            if isinstance(node, (ast.Name, ast.alias))}
    readme = README.read_text(encoding="utf-8")
    unreached = {name for name in exported - used
                 if not re.search(rf"`[^`\n]*\b{name}\b[^`\n]*`", readme)}
    assert not unreached


def test_no_module_keeps_per_thread_state():
    # every buffer belongs to the call that makes it, so nothing is kept per thread
    assert _modules_where(lambda node: _name(node) in _THREAD_STATE
                          or isinstance(node, ast.alias) and node.name in _THREAD_STATE) \
        == set()
    held = {(module, name) for module, tree in _TREES.items() for name in _registries(tree)}
    assert held == {
        ("linalg", "openblas"),  # the library handle
        ("experiments", "_RUNNERS"),  # the runner of each kind, filled at import
    }
