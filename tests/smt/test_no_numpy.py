"""``repro.smt`` is pure Python: the simplex is one exact ``Fraction``
engine, and no solver module imports numpy. The rest of the analysis
core, and the paper-kernel builders, import numpy at most inside the
functions that need it, so that analyzing a kernel never loads it."""

import ast
from pathlib import Path

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
SMT = REPRO / "smt"

#: Packages that must not import numpy at module level.
ANALYSIS_CORE = ("ir", "cfg", "analysis", "formad", "smt", "ad", "obs",
                 "programs")


def _import_roots(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            yield node.module.split(".")[0]


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _module_level_nodes(node):
    """Every node run when the module is imported: all but the bodies
    of functions (class bodies do run)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _module_level_nodes(child)


def test_no_smt_module_imports_numpy():
    modules = sorted(SMT.glob("*.py"))
    assert len(modules) >= 10
    offenders = [p.name for p in modules
                 if "numpy" in _import_roots(ast.walk(_parse(p)))]
    assert offenders == []


def test_analysis_core_imports_no_numpy_at_module_level():
    modules = sorted(p for package in ANALYSIS_CORE
                     for p in (REPRO / package).rglob("*.py"))
    assert len(modules) >= 50
    offenders = [str(p.relative_to(REPRO)) for p in modules
                 if "numpy" in _import_roots(_module_level_nodes(_parse(p)))]
    assert offenders == []
