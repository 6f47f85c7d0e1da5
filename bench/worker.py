"""One benchmark operation in a fresh interpreter; prints a JSON result line.

    python3 bench/worker.py setup FAMILY_FILE...
    python3 bench/worker.py cli [--trace] build|verify ARG...
    python3 bench/worker.py check OUT_DIR
    python3 bench/worker.py queries [--trace] SEED FAMILIES FIRST COUNT SECONDS
    python3 bench/worker.py selftest WORK_DIR

run.py starts one of these per operation, because every cantordyn command
starts cold.  The package is imported from `src/` of the checkout the
worker lives in, never from anywhere else.  Beyond os, sys, time and
resource, modules are imported inside the operations, after op_setup's
timing, so that setup_s sees an interpreter that has imported nothing the
package needs.
"""

from __future__ import annotations

import os
import resource
import sys
from time import perf_counter, perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_package():
    import cantordyn

    if os.path.dirname(os.path.dirname(os.path.abspath(cantordyn.__file__))) != SRC:
        raise ImportError("cantordyn imported from %s, not %s" % (cantordyn.__file__, SRC))
    return cantordyn


def op_setup(paths):
    texts = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            texts.append(fh.read())
    t0 = perf_counter()
    cantordyn = _import_package()
    for text in texts:
        report = cantordyn.validate_family(cantordyn.parse_family(text))
        if not report.ok:
            raise ValueError("family rejected: %s" % report.lines[0])
    elapsed = perf_counter() - t0
    from refclock import REF_S, probe

    return {"raw_s": elapsed, "scaled_s": elapsed * REF_S / probe(), "rss_kb": _rss_kb()}


def _run_cli(argv, tracer=None):
    import contextlib
    import io

    from cantordyn.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter_ns()
        if tracer is None:
            rc = main(argv)
        else:
            with tracer.span("cli." + argv[0]):
                rc = main(argv)
        wall = perf_counter_ns() - t0
    lines = (out.getvalue() + err.getvalue()).splitlines()
    return rc, wall, lines[-1][:200] if lines else ""


def op_cli(argv, trace):
    _import_package()
    import cantordyn.cli  # noqa: F401  (imported outside the timing: setup_s has it)
    from refclock import ReferenceClock
    from tracer import Tracer

    tracer = Tracer().install() if trace else None
    with ReferenceClock() as clock:
        rc, _, last = _run_cli(argv, tracer)
    res = {
        "rc": rc,
        "raw_s": clock.raw,
        "scaled_s": clock.scaled,
        "last": last,
        "rss_kb": _rss_kb(),
    }
    if tracer is not None:
        tracer.uninstall()
        res["layers"] = tracer.metrics()
    return res


def op_check(out_dir):
    """Reload the written tower: structure, round trip, and its size."""
    _import_package()
    from cantordyn.builder import load_sequence, serialize_sequence, validate_sequence

    with open(os.path.join(out_dir, "tower.txt"), encoding="utf-8") as fh:
        text = fh.read()
    g = load_sequence(text)
    bad = validate_sequence(g)
    last = g.stages[-1]
    return {
        "valid": bad == (),
        "first_violation": bad[0][:200] if bad else None,
        "round_trip": load_sequence(serialize_sequence(g)) == g,
        "columns": len(last.columns),
        "atoms": len(last.atoms),
        "bytes": len(text.encode("utf-8")),
    }


def _ask(cantordyn, fams, q, max_depth):
    host = cantordyn.ClopenSet(q["host"])
    k = fams[q["family"]]
    if q["op"] == "select":
        return cantordyn.select_copy(k, q["target"], host, max_depth)
    return cantordyn.approx_divide(k, host, q["n"], q["eps"], max_depth)


def op_queries(seed, families, first, count, seconds, trace):
    """Closed loop over query batches: `count` batches, or until `seconds` pass."""
    import queries
    from refclock import ReferenceClock
    from tracer import Tracer

    cantordyn = _import_package()
    refused = (cantordyn.GoodnessFailure, cantordyn.DivisibilityFailure)
    fams = {f: cantordyn.parse_family(queries.FAMILIES[f][0]) for f in families}
    tracer = Tracer().install() if trace else None
    times, asked, wrong, errors = [], 0, 0, []
    start = perf_counter()
    i = first
    while (count and i < first + count) or (not count and perf_counter() - start < seconds):
        qs = queries.batch(seed, families, i)
        answers, spent = [], []
        clock = ReferenceClock(tick_s=0)
        with clock:
            for q in qs:
                t0 = perf_counter_ns()
                try:
                    if tracer is None:
                        ans = _ask(cantordyn, fams, q, queries.MAX_DEPTH)
                    else:
                        with tracer.span("bench.queries"):
                            ans = _ask(cantordyn, fams, q, queries.MAX_DEPTH)
                except refused:
                    ans = None
                except Exception as exc:  # a crash is a failed query, not a failed run
                    ans = exc
                spent.append((perf_counter_ns() - t0) / 1e9)
                answers.append(ans)
        scale = clock.scaled / clock.raw
        for q, dt in zip(qs, spent):
            times.append(("%s/%s" % (q["family"], q["kind"]), dt, dt * scale))
        for q, ans in zip(qs, answers):
            asked += 1
            if isinstance(ans, Exception):
                wrong += 1
                errors.append("%s: %s" % (type(ans).__name__, ans))
            elif (ans is not None) != q["feasible"] or (
                ans is not None and not queries.check(q, ans.leaves)
            ):
                wrong += 1
                errors.append("%s %s answered %s" % (q["family"], q["kind"], ans))
        i += 1
    res = {
        "queries": asked,
        "batches": i - first,
        "wrong": wrong,
        "errors": errors[:3],
        "times": times,
        "rss_kb": _rss_kb(),
    }
    if tracer is not None:
        tracer.uninstall()
        res["layers"] = tracer.metrics()
    return res


def op_selftest(work):
    """Trace self-test on a two-stage uniform build and its verify.

    Every wrapped function's call count must equal cProfile's count for the
    function it wraps; a call that reached the function some other way (a
    name bound before wrapping, an unwrapped alias) makes them differ.  The
    layers' self times must add up to the wall time of the traced commands.
    """
    import cProfile
    import pstats

    import queries
    from tracer import Tracer

    _import_package()
    family = os.path.join(work, "selftest_family.txt")
    with open(family, "w", encoding="utf-8") as fh:
        fh.write(queries.FAMILIES["uniform"][0])
    out = os.path.join(work, "selftest_out")
    tracer = Tracer().install()
    prof = cProfile.Profile()
    wall = 0
    prof.enable()
    try:
        for argv in (
            ["build", "--family", family, "--stages", "2", "--out", out],
            ["verify", "--out", out],
        ):
            rc, ns, last = _run_cli(argv, tracer)
            wall += ns
            if rc != 0:
                return {"ok": False, "problems": ["%s exited %d: %s" % (argv[0], rc, last)]}
    finally:
        prof.disable()
        tracer.uninstall()
    stats = pstats.Stats(prof).stats
    problems = []
    for fn, calls in tracer.fn_calls.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        if profiled != calls:
            problems.append("%s: %d traced, %d profiled" % (fn.__qualname__, calls, profiled))
    total = sum(tracer.self_ns.values())
    # resolution: the clock reads between the caller's timer and the root span
    if abs(total - wall) > 1_000_000:
        problems.append("self times sum to %d ns, wall %d ns" % (total, wall))
    if not tracer.fn_calls or not any(tracer.fn_calls.values()):
        problems.append("nothing was traced")
    return {
        "ok": not problems,
        "problems": problems[:5],
        "functions": len(tracer.fn_calls),
        "spans": sum(tracer.fn_calls.values()),
    }


def main(argv):
    cmd, rest = argv[0], argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    if cmd == "setup":
        res = op_setup(rest)
    elif cmd == "cli":
        res = op_cli(rest, trace)
    elif cmd == "check":
        res = op_check(rest[0])
    elif cmd == "queries":
        seed, families, first, count, seconds = rest
        res = op_queries(seed, families.split(","), int(first), int(count), float(seconds), trace)
    elif cmd == "selftest":
        res = op_selftest(rest[0])
    else:
        raise SystemExit("unknown operation %r" % cmd)
    import json

    print(json.dumps(res))


if __name__ == "__main__":
    main(sys.argv[1:])
