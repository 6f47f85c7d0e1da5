"""Command line front end.

Four subcommands: decide whether a measure family is good, build a
saturated tower sequence, verify a sequence against every invariant, and
export its ordered Bratteli diagram.  All output is deterministic for
fixed inputs: no timestamps, stable ordering, atomic file writes.

Exit codes: 0 success; 1 for usage, I/O, parse, or family-validation
problems; 2 when the family is not good (validate prints a refuting pair
of cylinders, build refuses it before its first stage) or a construction
oracle fails during a build; 3 when a written sequence violates an
invariant, goodness of its family included.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from cantordyn.builder import (
    BuildFailure,
    bratteli_dot,
    build_saturated,
    load_sequence,
    serialize_sequence,
    validate_sequence,
)
from cantordyn.clopen import FULL
from cantordyn.measure import frac_text, goodness_obstruction, obstruction_text, parse_family, validate_family
from cantordyn.oracles import SearchFailure
from cantordyn.verify import StageTooShallow, first_return_divide, verification_report

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cantordyn",
        description="Kakutani-Rokhlin towers with a prescribed simplex of invariant measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a family and decide whether it is good")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="construct the tower sequence and write it out")
    p.add_argument("--family", required=True, help="family description file")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a written tower against every invariant")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="write the Bratteli diagram of a written tower")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_written(out):
    path = os.path.join(out, "tower.txt")
    if not os.path.exists(path):
        raise FileNotFoundError("%s not found; run build first" % path)
    return load_sequence(_read(path))


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
    print("not good: " + obstruction_text(k, *pair))
    return 2


def _cmd_build(args):
    k = parse_family(_read(args.family))
    g = build_saturated(k, args.stages, args.max_depth)
    os.makedirs(args.out, exist_ok=True)
    lines = list(g.family_report.lines)
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
    _write_atomic(os.path.join(args.out, "bratteli.dot"), bratteli_dot(g))
    _write_atomic(os.path.join(args.out, "build.log"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print("wrote %s" % os.path.join(args.out, "tower.txt"))
    return 0


def _cmd_verify(args):
    g = _load_written(args.out)
    report = verification_report(g)
    for line in report.lines:
        print(line)
    try:
        _, rem = first_return_divide(g, FULL, 3, Fraction(1, 4))
        print("first-return probe: 3 classes, remainder %s" % rem.text())
    except StageTooShallow as exc:
        print("first-return probe: stage too shallow (%s)" % exc)
    except ValueError as exc:
        # the last stage does not cover X, and the report names that violation
        print("first-return probe: not run (%s)" % exc)
    if not report.ok:
        print("violated: %s" % report.violations[0])
        return 3
    print("verified: all invariants hold")
    return 0


def _cmd_export_dot(args):
    g = _load_written(args.out)
    # the diagram reads each column's base masses and runs, so the sequence must pass
    bad = validate_sequence(g)
    if bad:
        print("violated: %s" % bad[0])
        return 3
    path = os.path.join(args.out, "bratteli.dot")
    _write_atomic(path, bratteli_dot(g))
    print("wrote %s" % path)
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

