"""The package imports nothing outside the standard library and itself,
every name it exports or imports from itself exists, every private name
it defines is used, importing it loads each module only when first used,
and the README's library example runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "cantordyn" if path.stem == "__init__" else "cantordyn." + path.stem
        module = importlib.import_module(name)
        missing += ["%s.%s" % (name, x) for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
    # each top-level name is its home module's object
    pkg = importlib.import_module("cantordyn")
    homes = {x: importlib.import_module("cantordyn." + pkg._HOME[x]) for x in pkg.__all__}
    assert [x for x, home in homes.items() if getattr(pkg, x) is not getattr(home, x)] == []
    assert len(homes) == 50 and set(homes) <= set(dir(pkg))
    with pytest.raises(AttributeError, match="'cantordyn' has no attribute 'no_such_name'"):
        pkg.no_such_name
    star = {}
    exec("from cantordyn import *", star)
    assert set(star) - {"__builtins__"} == set(homes)


LOADED = "print(sorted(m[10:] for m in sys.modules if m.startswith('cantordyn.')))"


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import cantordyn", []),
        (
            "import cantordyn as c; c.validate_family(c.parse_family('measure uniform'))",
            ["clopen", "measure"],
        ),
        (
            "import cantordyn as c; from fractions import Fraction as F; k = c.parse_family('measure uniform'); "
            "c.validate_family(k); c.select_copy(k, [F(1, 4)], c.FULL); c.approx_divide(k, c.FULL, 3, F(1, 8))",
            ["clopen", "measure", "oracles"],
        ),
        ("import cantordyn; cantordyn.tower", ["clopen", "measure", "oracles", "tower"]),
        ("import cantordyn.cli", ["builder", "cli", "clopen", "measure", "oracles", "tower", "verify"]),
    ],
    ids=["import", "family-check", "oracles", "module-attribute", "cli"],
)
def test_modules_load_on_first_use(code, loaded):
    # a fresh interpreter, as every command and query process starts cold
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys; %s; %s" % (code, LOADED)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "%s\n" % loaded


def test_a_module_name_not_bound_yet_loads_its_module(monkeypatch):
    # the fresh-interpreter case above, in this process: unbound, the
    # module name goes through the package's __getattr__
    pkg = importlib.import_module("cantordyn")
    tower = importlib.import_module("cantordyn.tower")
    monkeypatch.delattr(pkg, "tower")
    assert pkg.tower is tower


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def private_definitions(tree):
    """(name, first line, last line) of each private module-level function,
    class or constant and each private method; dunder names are not private."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and private(t.id):
                    yield t.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield item.name, item.lineno, item.end_lineno


def test_every_private_definition_is_used():
    # a private helper whose last use went stays behind unnoticed; every
    # definition of a name is blanked, so two cannot vouch for each other
    lines = {path.name: path.read_text(encoding="utf-8").splitlines() for path in sorted(SRC.glob("*.py"))}
    defs = [
        (file, *d) for file, text in lines.items() for d in private_definitions(ast.parse("\n".join(text)))
    ]
    orphans = []
    for name in sorted({d[1] for d in defs}):
        kept = {file: list(text) for file, text in lines.items()}
        for file, _, first, last in (d for d in defs if d[1] == name):
            kept[file][first - 1 : last] = [""] * (last - first + 1)
        if not any(re.search(r"\b%s\b" % re.escape(name), "\n".join(text)) for text in kept.values()):
            orphans.append(name)
    assert orphans == []
