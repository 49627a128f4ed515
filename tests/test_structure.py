"""Structural fences: each outside resource has one owning module in circulaw."""

import ast
from pathlib import Path

import circulaw

_TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(Path(circulaw.__file__).resolve().parent.glob("*.py"))}
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "multi_dot"}
_THREAD_STATE = {"local", "get_ident", "get_native_id"}
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


def test_invertibility_forms_no_blas_product():
    # its small-ball sums reduce each row with numpy's sum, so no block size moves a bit
    def product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        return isinstance(node, ast.Call) and _name(node.func) in _BLAS_CALLS

    assert "invertibility" not in _modules_where(product)


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


def test_only_linalg_keeps_per_thread_state_or_buffers():
    # the LU scratch, one buffer per thread, lives in linalg for the life of the BLAS hold
    assert _modules_where(lambda node: _name(node) in _THREAD_STATE
                          or isinstance(node, ast.alias) and node.name in _THREAD_STATE) \
        == {"linalg"}
    held = {(module, name) for module, tree in _TREES.items() for name in _registries(tree)}
    assert held == {
        ("linalg", "_scratch"),  # the LU scratch
        ("linalg", "openblas"),  # the library handle
        ("limit_theory", "_LAW_CACHE"),  # frozen laws with read-only grids, no scratch
        ("experiments", "_RUNNERS"),  # the runner of each kind, filled at import
        ("rng", "_uniform_count"),  # an int per Bernoulli p
    }
