"""``repro.smt`` is pure Python: the simplex is one exact ``Fraction``
engine, and no solver module imports numpy."""

import ast
from pathlib import Path

SMT = Path(__file__).resolve().parents[2] / "src" / "repro" / "smt"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            yield node.module.split(".")[0]


def test_no_smt_module_imports_numpy():
    modules = sorted(SMT.glob("*.py"))
    assert len(modules) >= 10
    offenders = [p.name for p in modules if "numpy" in _imported_roots(p)]
    assert offenders == []
