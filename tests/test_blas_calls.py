"""No BLAS or LAPACK call in the library outside the two places that may
make one, so that no output depends on the BLAS kernel a process picks.

A ``@``, a call of ``dot``, ``matmul``, ``inner``, ``vdot`` or
``tensordot``, and a call of ``linalg`` other than ``norm`` count; so does a
``norm`` without ``axis``, which numpy takes as a BLAS dot of the flattened
array. ``graph_sum``'s product is scipy's own sparse loop, and
``estimate_normals_pca`` is the one stage whose bits may differ by kernel.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {("meshcore.py", "graph_sum"), ("pointcloud.py", "estimate_normals_pca")}
PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def is_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    linalg = isinstance(func, ast.Attribute) and getattr(func.value, "attr", None) == "linalg"
    return name in PRODUCTS or linalg and (
        name != "norm" or not any(k.arg == "axis" for k in node.keywords))


def blas_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, outermost function or method) of each BLAS call in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if is_blas(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), None)
    return found


def test_the_check_sees_every_form():
    source = "\n".join([
        "def f(a, b):", "    a @ b", "    a @= b", "    np.dot(a, b)", "    a.dot(b)",
        "    np.matmul(a, b)", "    np.inner(a, b)", "    np.vdot(a, b)",
        "    np.tensordot(a, b)", "    np.linalg.eigh(a)", "    np.linalg.norm(a)",
        "    np.linalg.norm(a, axis=1)", "    np.einsum('ij,ij->i', a, b)"])
    assert blas_calls(source) == [(line, "f") for line in range(2, 12)]


def test_no_blas_call_outside_the_allowed_places():
    calls = {(path.name, function, line) for path in sorted((ROOT / "src").rglob("*.py"))
             for line, function in blas_calls(path.read_text(encoding="utf-8"))}
    stray = sorted(f"{name}:{line} in {function}" for name, function, line in calls
                   if (name, function) not in ALLOWED)
    assert not stray, "\n".join(stray)
    assert {(name, function) for name, function, _ in calls} == ALLOWED
