"""The package imports nothing outside the standard library and itself,
every name it exports or imports from itself exists, and the README's
library example runs."""

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantordyn"


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


def test_exported_and_imported_names_resolve():
    # importing the package fails on any name __init__ imports that is gone
    importlib.import_module("cantordyn")
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "cantordyn" if path.stem == "__init__" else "cantordyn." + path.stem
        module = importlib.import_module(name)
        missing += ["%s.%s" % (name, x) for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
