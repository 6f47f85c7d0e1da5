"""Command line front end.

Four subcommands: decide whether a measure family is good, build a
saturated tower sequence, verify a sequence against every invariant, and
export its ordered Bratteli diagram.  All output is deterministic for
fixed inputs: no timestamps, stable ordering, atomic file writes.

Options are --name value or --name=value, names spelled in full; a value
is the next token even when it starts with '-'.  Defaults: --stages 4,
--max-depth 12, --out out; validate and build need --family.  -h or
--help anywhere lists the commands with their options.

Exit codes: 0 success; 1 for usage (the message on stderr), I/O, parse,
or family-validation problems; 2 when the family is not good (validate
prints a refuting pair of cylinders, build refuses it before its first
stage) or a construction oracle fails during a build; 3 when a written
sequence violates an invariant, goodness of its family included.
"""

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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
    lines = list(validate_family(k).lines)
    for n, t in enumerate(g.stages):
        diameters = map(frac_text, (t.base.diameter(), t.top.diameter(), g.budgets[n]))
        line = "stage %d: %d columns, %d atoms, base %s, top %s, budget %s"
        lines.append(line % (n, len(t.columns), len(t.atoms), *diameters))
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


# command -> (handler, help line, option defaults); None marks a required
# option, an int default an int option
_COMMANDS = {
    "validate": (_cmd_validate, "check a family and decide whether it is good", {"family": None}),
    "build": (_cmd_build, "construct the tower sequence and write it out",
              {"family": None, "stages": 4, "max-depth": 12, "out": "out"}),
    "verify": (_cmd_verify, "verify a written tower against every invariant", {"out": "out"}),
    "export-dot": (_cmd_export_dot, "write the Bratteli diagram of a written tower", {"out": "out"}),
}
_USAGE = "usage: cantordyn {%s} [--name value | --name=value ...]" % ",".join(_COMMANDS)


def _parse(argv):
    """The handler and options argv names, (None, None) for -h/--help; ValueError names the bad token."""
    if "-h" in argv or "--help" in argv:
        return None, None
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("need one of %s, got %s" % (", ".join(_COMMANDS), argv[0] if argv else "nothing"))
    func, _, defaults = _COMMANDS[argv[0]]
    opts = dict(defaults)
    rest = iter(argv[1:])
    for tok in rest:
        name, eq, value = tok.partition("=")
        if not name.startswith("--") or name[2:] not in defaults:
            raise ValueError("unrecognized argument %r" % tok)
        value = value if eq else next(rest, None)
        if value is None:
            raise ValueError("%s needs a value" % name)
        try:
            opts[name[2:]] = int(value) if type(defaults[name[2:]]) is int else value
        except ValueError:
            raise ValueError("%s takes an int, got %r" % (name, value)) from None
    missing = [name for name, value in opts.items() if value is None]
    if missing:
        raise ValueError("--%s is required" % missing[0])
    return func, SimpleNamespace(**{name.replace("-", "_"): value for name, value in opts.items()})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        func, args = _parse(argv)
    except ValueError as exc:
        print("%s\ncantordyn: error: %s" % (_USAGE, exc), file=sys.stderr)
        return 1
    if func is None:
        print(_USAGE + "\nKakutani-Rokhlin towers with a prescribed simplex of invariant measures\n")
        for name, (_, text, defaults) in _COMMANDS.items():
            opts = " ".join("--%s %s" % (k, "(required)" if v is None else v) for k, v in defaults.items())
            print("  %-11s %s\n  %-11s %s" % (name, text, "", opts))
        return 0
    try:
        return func(args)
    except (BuildFailure, SearchFailure) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # FamilyParseError and InvalidWeights are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return 1
