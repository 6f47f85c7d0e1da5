"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantordyn"


def imported_modules(tree):
    """Top-level names of absolute imports; relative imports stay in the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    allowed = set(sys.stdlib_module_names) | {"cantordyn"}
    bad = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bad += ["%s:%d %s" % (path.name, n, mod) for n, mod in imported_modules(tree) if mod not in allowed]
    assert bad == []
