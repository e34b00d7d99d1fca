"""Source hygiene of the package. Broken invariants raise InvariantViolation:
the package has no ``assert`` statement, which ``python -O`` strips, and
raises no AssertionError. No module imports a name it never uses, unless the
import line says ``noqa`` and why. Forward elimination has one routine,
``linalg._echelon``: no other module reaches the row update ``_axpy``. Solving
for a known part's completion has one routine, ``SlotSystem.complete``: no
module but ``linalg`` and ``polynomials`` names ``RowFactor``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kdirac"


def sources():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    return [(path, path.read_text()) for path in paths]


def offences(path, text):
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def unused_imports(path, text):
    tree, lines = ast.parse(text, str(path)), text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "noqa" not in lines[alias.lineno - 1]:
                    yield f"{path.name}:{alias.lineno}: {name} imported but unused"


def test_package_has_no_assert_or_assertion_error():
    assert [o for path, text in sources() for o in offences(path, text)] == []


def test_package_imports_only_names_it_uses():
    assert [o for path, text in sources() for o in unused_imports(path, text)] == []


def references(path, text, name):
    for node in ast.walk(ast.parse(text, str(path))):
        if name in (getattr(node, field, None) for field in ("id", "attr", "name")):
            yield f"{path.name}:{node.lineno}: {name}"


def test_only_linalg_updates_rows():
    assert [o for path, text in sources() if path.name != "linalg.py"
            for o in references(path, text, "_axpy")] == []


def test_only_polynomials_completes_on_a_row_factor():
    assert [o for path, text in sources() if path.name not in ("linalg.py", "polynomials.py")
            for o in references(path, text, "RowFactor")] == []
