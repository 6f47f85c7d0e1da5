"""The benchmark's own tests: every workload at its smallest size.

    python3 -m pytest -q bench/test_bench.py

They check that each run prints every metric named in BENCHMARK.json with
its unit, that the output checks ran, that the trace self-test catches an
unwrapped alias, that the query verdicts agree with a brute-force search,
and that a checkout without the package fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import queries  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END, WORKLOADS, per_layer_units  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smallest_run_reports_every_metric(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in names}
    checks = json.loads(next(l for l in lines if l.startswith("# checks "))[len("# checks "):])
    assert checks["tower_valid"] >= 1 and checks["round_trip"] >= 1
    assert checks["query_answers"] >= 1
    if WORKLOADS[workload]["build"]["family"] == "uniform":
        assert checks["tower_sha256"] >= 1
    if trace:
        assert checks["trace_selftest"] == 1
        assert result["metrics"]["cli.build.calls"]["value"] >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = json.loads(next(l for l in lines if l.startswith("# provenance "))[13:])
    assert {"python", "nproc", "cpu", "commit", "seed", "held_out_seed"} <= set(provenance)


def test_selftest_catches_an_unwrapped_alias(tmp_path, monkeypatch):
    import cantordyn.clopen as clopen

    install = Tracer.install

    def leaky_install(self):
        install(self)
        # as if the tracer had missed the operator alias of intersect
        clopen.ClopenSet.__and__ = next(fn for fn in self.fn_calls if fn.__name__ == "intersect")
        return self

    monkeypatch.setattr(Tracer, "install", leaky_install)
    res = worker.op_selftest(str(tmp_path))
    assert not res["ok"]
    assert any("intersect" in p for p in res["problems"])


def test_selftest_passes(tmp_path):
    res = worker.op_selftest(str(tmp_path))
    assert res["ok"], res["problems"]


def _subset_sums(gens, host, depth):
    sums = {(Fraction(0),) * len(gens)}
    for w in sorted(queries.expand(host, depth)):
        v = queries.vec(gens, [w])
        sums |= {tuple(a + b for a, b in zip(s, v)) for s in sums}
    return sums


@pytest.mark.parametrize("family", ["two", "bad", "third"])
def test_decide_matches_brute_force(family):
    gens = queries.FAMILIES[family][1]
    depth = 5
    for host in (["00"], ["11"], ["010", "11"], ["0111", "10"]):
        sums = _subset_sums(gens, host, depth)
        hv = queries.vec(gens, host)
        for bits in product((0, 1), repeat=3):
            target = queries.vec(gens, [w for w, b in zip(("000", "101", "1101"), bits) if b])
            expected = target in sums
            assert queries.decide(gens, host, target, target, depth) == expected
        for n, eps in ((3, Fraction(0)), (3, hv[0] / 16), (5, hv[0] / 64)):
            lo = tuple(max(Fraction(0), (x - eps) / n) for x in hv)
            hi = tuple(x / n for x in hv)
            expected = any(all(l <= s <= h for l, s, h in zip(lo, v, hi)) for v in sums)
            assert queries.decide(gens, host, lo, hi, depth) == expected


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("uniform6", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
