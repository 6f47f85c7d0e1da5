import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_gates_on_the_pinned_uniform_towers(pins):
    # bench/run.py keeps its own copy of two tower.txt digests, by stage count
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    (copy,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["UNIFORM_SHA256"]
    ]
    assert copy == {3: pins["uniform-3/tower.txt"], 6: pins["uniform-6/tower.txt"]}


def test_no_digest_is_pinned_outside_the_table():
    # a construction change edits tests/pins.sha256 alone
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / ".github").rglob("*.yml")]
    found = {p.name: re.findall(r"\b[0-9a-f]{64}\b", p.read_text(encoding="utf-8")) for p in files}
    assert {name: digests for name, digests in found.items() if digests} == {}
