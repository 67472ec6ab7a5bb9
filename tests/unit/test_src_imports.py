"""The product never imports the test suite.

The differential oracles under ``tests/oracles/`` are test-only references:
a ``src/repro`` module importing ``tests`` would ship them (and the test
tree) as a runtime dependency.  This walks every module's AST, so imports
inside functions and ``if`` blocks count too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _imports_tests(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "tests" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "tests"
    return False


def test_no_src_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the walk really found the package
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _imports_tests(node)
    ]
    assert offenders == []


def test_the_guard_sees_both_import_forms():
    for source in ("import tests.oracles", "from tests.oracles import heap_scheduler"):
        assert any(_imports_tests(node) for node in ast.walk(ast.parse(source)))
    for source in ("import testsuite", "from . import tests", "from repro import tests"):
        assert not any(_imports_tests(node) for node in ast.walk(ast.parse(source)))
