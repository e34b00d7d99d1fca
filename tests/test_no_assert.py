"""Broken invariants raise InvariantViolation: the package has no ``assert``
statement, which ``python -O`` strips, and raises no AssertionError."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kdirac"


def offences(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def test_package_has_no_assert_or_assertion_error():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    assert [o for path in paths for o in offences(path)] == []
