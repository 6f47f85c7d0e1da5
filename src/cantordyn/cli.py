"""Command line front end.

Four subcommands: validate a measure family, build a saturated tower
sequence, verify a sequence against every invariant, and export the
stage diagrams.  All output is deterministic for fixed inputs: no
timestamps, stable ordering, atomic file writes.

Exit codes: 0 success; 1 for usage, I/O, parse, or family-validation
problems; 2 when a construction oracle or probe fails (the family is
not usable even though it parsed); 3 when a built or loaded sequence
violates an invariant.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from itertools import product

from cantordyn.builder import (
    BuildFailure,
    build_saturated,
    load_sequence,
    serialize_sequence,
)
from cantordyn.clopen import ClopenSet, FULL
from cantordyn.measure import frac_text, parse_family, validate_family
from cantordyn.oracles import GoodnessFailure, SearchFailure, approx_divide, goodness_select
from cantordyn.tower import to_dot
from cantordyn.verify import StageTooShallow, first_return_divide, verify_all

__all__ = ["main"]


def _fraction_arg(text):
    num, slash, den = text.partition("/")
    if not slash or not num.isdigit() or not den.isdigit() or int(den) == 0:
        raise argparse.ArgumentTypeError("expected num/den, got %r" % text)
    q = Fraction(int(num), int(den))
    if q <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return q


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cantordyn",
        description="Kakutani-Rokhlin towers with a prescribed simplex of invariant measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_required):
        p.add_argument("--family", required=family_required, help="family description file")
        p.add_argument("--stages", type=int, default=4)
        p.add_argument("--depth-cap", type=int, default=3)
        p.add_argument("--max-depth", type=int, default=12)
        p.add_argument("--eps", type=_fraction_arg, default=None,
                       help="diameter target for the last stage, as num/den")
        p.add_argument("--out", default="out")

    p = sub.add_parser("validate", help="check a family and probe its divisibility")
    p.add_argument("--family", required=True)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="construct the tower sequence and write it out")
    common(p, True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a written tower, or build and verify")
    common(p, False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="write stage diagrams for a written tower")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def _load_family(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read())


def _schedule(args):
    if args.eps is None:
        return None
    return [min(Fraction(1, 2 ** n), args.eps) for n in range(1, args.stages + 1)]


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cmd_validate(args):
    k = _load_family(args.family)
    report = validate_family(k)
    for line in report.lines:
        print(line)
    if not report.ok:
        print("family rejected")
        return 1
    words = [""] + ["".join(p) for d in (1, 2, 3) for p in product("01", repeat=d)]
    swept = 0
    for w1 in words:
        a = ClopenSet([w1])
        for w2 in words:
            if w1 == w2:
                continue
            b = ClopenSet([w2])
            if not k.leq(a, b):
                continue
            swept += 1
            try:
                goodness_select(k, a, b, args.max_depth)
            except GoodnessFailure as exc:
                print("goodness probe failed for [%s] inside [%s]: %s" % (w1, w2, exc))
                return 2
    rng = random.Random(args.seed)
    for _ in range(20):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        n = rng.randint(2, 4)
        try:
            approx_divide(k, ClopenSet([word]), n, Fraction(1, 64), args.max_depth)
        except SearchFailure as exc:
            print("division probe failed on [%s] into %d: %s" % (word, n, exc))
            return 2
    print("probes ok: %d goodness pairs swept, 20 seeded divisions" % swept)
    return 0


def _cmd_build(args):
    k = _load_family(args.family)
    g = build_saturated(k, args.stages, args.depth_cap, args.max_depth, _schedule(args))
    os.makedirs(args.out, exist_ok=True)
    lines = list(validate_family(k).lines)
    for n, t in enumerate(g.stages):
        lines.append(
            "stage %d: %d columns, %d atoms, base %s, top %s, budget %s"
            % (
                n,
                len(t.columns),
                len(t.atoms),
                frac_text(t.base.diameter()),
                frac_text(t.top.diameter()),
                frac_text(g.budgets[n]),
            )
        )
    lines.append("construction complete")
    _write_atomic(os.path.join(args.out, "tower.txt"), serialize_sequence(g))
    for n, t in enumerate(g.stages):
        _write_atomic(os.path.join(args.out, "stage_%02d.dot" % n), to_dot(t, k))
    _write_atomic(os.path.join(args.out, "build.log"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print("wrote %s" % os.path.join(args.out, "tower.txt"))
    return 0


def _cmd_verify(args):
    path = os.path.join(args.out, "tower.txt")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            g = load_sequence(fh.read())
    elif args.family:
        k = _load_family(args.family)
        g = build_saturated(k, args.stages, args.depth_cap, args.max_depth, _schedule(args))
    else:
        print("error: no %s and no --family to build from" % path, file=sys.stderr)
        return 1
    ok, first, report = verify_all(g)
    for line in report.lines:
        print(line)
    try:
        _, rem = first_return_divide(g, FULL, 3, Fraction(1, 4))
        print("first-return probe: 3 classes, remainder %s" % rem.text())
    except StageTooShallow as exc:
        print("first-return probe: stage too shallow (%s)" % exc)
    if not ok:
        print("violated: %s" % first)
        return 3
    print("verified: all invariants hold")
    return 0


def _cmd_export_dot(args):
    path = os.path.join(args.out, "tower.txt")
    if not os.path.exists(path):
        print("error: %s not found; run build first" % path, file=sys.stderr)
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        g = load_sequence(fh.read())
    for n, t in enumerate(g.stages):
        _write_atomic(os.path.join(args.out, "stage_%02d.dot" % n), to_dot(t, g.family))
    print("wrote %d stage diagrams under %s" % (len(g.stages), args.out))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (BuildFailure, SearchFailure) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # FamilyParseError and InvalidWeights are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
