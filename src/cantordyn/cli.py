"""Command line front end.

Four subcommands: decide whether a measure family is good, build a
saturated tower sequence, verify a sequence against every invariant, and
export the stage diagrams.  All output is deterministic for fixed inputs:
no timestamps, stable ordering, atomic file writes.

Exit codes: 0 success; 1 for usage, I/O, parse, or family-validation
problems; 2 when the family is not good (validate prints a refuting pair
of cylinders) or a construction oracle fails during a build; 3 when a
built or loaded sequence violates an invariant.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from operator import truediv

from cantordyn.builder import (
    BuildFailure,
    build_saturated,
    load_sequence,
    serialize_sequence,
)
from cantordyn.clopen import FULL
from cantordyn.measure import frac_text, goodness_obstruction, parse_family, validate_family, vec_text
from cantordyn.oracles import SearchFailure
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

    p = sub.add_parser("validate", help="check a family and decide whether it is good")
    p.add_argument("--family", required=True)
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


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    k = parse_family(_read(args.family))
    report = validate_family(k)
    for line in report.lines:
        print(line)
    if not report.ok:
        print("family rejected")
        return 1
    pair = goodness_obstruction(k)
    if pair is None:
        print("good: one generator, and its frontier cylinder masses lie in one coset c*2^Z")
        return 0
    (a, b), va, vb = pair, k.vec(pair[0]), k.vec(pair[1])
    print(
        "not good: A = [%s] has masses %s < %s of B = [%s] under every generator, but every clopen "
        "C inside B has masses %s * q for one dyadic q, and the A/B ratios %s are not one dyadic q"
        % (a.text(), vec_text(va), vec_text(vb), b.text(), vec_text(vb),
           vec_text(map(truediv, va, vb)))
    )
    return 2


def _cmd_build(args):
    k = parse_family(_read(args.family))
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
        g = load_sequence(_read(path))
    elif args.family:
        k = parse_family(_read(args.family))
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
    g = load_sequence(_read(path))
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
