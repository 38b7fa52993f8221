"""The routes stay independent: agreement between them is the evidence.

The engine must not reach the closed forms, the Schubert route or the
quantum ring; the Schubert route must not reach the closed forms (the
binomial formula), the engine or the quantum ring; the quantum ring must
not reach the closed forms, the engine or the Schubert route; neither of
those two reaches the engine's ``truncpoly`` classes; and the closed
forms must not reach the engine or the quantum ring.  Imports are read from the source with
``ast``, function-local ones included, and followed through the package.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "tevdeg"


def _direct_imports(module: str) -> set[str]:
    """Package modules that ``module`` imports; ``__init__`` for the package root."""
    out = set()
    for node in ast.walk(ast.parse((PKG / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "tevdeg" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            if base == "tevdeg":
                names = [f"tevdeg.{a.name}" for a in node.names]
            else:
                names = [base]
        else:
            continue
        for name in names:
            if name == "tevdeg" or name.startswith("tevdeg."):
                sub = name.partition(".")[2].partition(".")[0]
                out.add(sub if (PKG / f"{sub}.py").is_file() else "__init__")
    return out


def _reachable(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for dep in _direct_imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_import_scan_sees_the_package():
    assert _direct_imports("engine") >= {"enumerativity", "truncpoly"}
    assert _reachable("cli") >= {"closed_forms", "engine", "quantum", "schubert"}
    assert "closed_forms" in _reachable("__init__")


@pytest.mark.parametrize(
    "route,forbidden",
    [
        ("engine", {"closed_forms", "schubert", "quantum", "__init__"}),
        ("schubert", {"closed_forms", "engine", "quantum", "truncpoly", "__init__"}),
        ("quantum", {"closed_forms", "engine", "schubert", "truncpoly", "__init__"}),
        ("closed_forms", {"engine", "quantum", "__init__"}),
    ],
)
def test_route_reaches_no_other_route(route, forbidden):
    assert not _reachable(route) & forbidden


def test_engine_and_closed_forms_share_only_gates_errors_and_truncpoly():
    # truncpoly is the one shared module that computes: the engine's excess
    # product and the closed form's insertion polynomial both multiply in
    # it.  Each route gets its own convolution, and truncpoly leaves this
    # set, once the benchmark tracer stops importing TruncPoly and UniPoly.
    assert _reachable("engine") & _reachable("closed_forms") == {
        "enumerativity", "errors", "truncpoly"}
