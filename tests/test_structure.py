"""Structural fences: each outside resource has one owning module in circulaw."""

import ast
from pathlib import Path

import circulaw

_TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(Path(circulaw.__file__).resolve().parent.glob("*.py"))}
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "multi_dot"}


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
