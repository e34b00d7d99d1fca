"""The package metadata points only at code that exists, and the package
needs nothing its metadata does not declare."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src" / "kdirac"


def test_console_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


def test_package_imports_only_the_standard_library():
    """``pyproject.toml`` declares no runtime dependency, so every import in
    the package is relative or names a standard-library module."""
    assert tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"] == []
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} imports {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
