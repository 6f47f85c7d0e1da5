"""Saturated tower sequences: the main construction loop and its format.

A tower sequence is a refining chain of tower partitions over one
measure family, together with the schedule of equivalent clopen pairs
incorporated along the way and the per-stage diameter budgets.  Stage 0
is the trivial partition; stage n first balances the n-th scheduled pair
across columns, then refines until base and top fit the stage budget.
The limit of such a chain is a minimal homeomorphism whose invariant
measures are exactly the simplex spanned by the family, and every finite
stage carries checkable certificates of that; validate_sequence checks
the structural ones here.
"""

from __future__ import annotations

from fractions import Fraction
from os.path import commonprefix

from cantordyn.clopen import ClopenSet, enumerate_clopen, union_all
from cantordyn.measure import MeasureFamily, TreeMeasure, format_measure, frac_text, validate_family
from cantordyn.oracles import NotEquivalent, SearchFailure
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    _count_in,
    balance_columns,
    from_columns,
    locate_atom,
    refine_small_base_top,
    run_decomposition,
    trivial_partition,
)

__all__ = [
    "BuildFailure",
    "HitsTop",
    "TowerSequence",
    "apply",
    "build_saturated",
    "enumerate_pairs",
    "load_sequence",
    "serialize_sequence",
    "validate_sequence",
]


class BuildFailure(Exception):
    """A construction stage could not be completed."""

    def __init__(self, stage, phase, cause):
        super().__init__(
            "stage %d %s failed: %s: %s" % (stage, phase, type(cause).__name__, cause)
        )
        self.stage = stage
        self.phase = phase
        self.cause = cause


class HitsTop(Exception):
    """The requested orbit segment leaves the tower through its top."""


class TowerSequence:
    """A refining chain of tower partitions with its schedule and budgets."""

    __slots__ = ("family", "stages", "pairs", "budgets", "_decompositions")

    def __init__(self, family, stages, pairs, budgets):
        self.family = family
        self.stages = tuple(stages)
        self.pairs = tuple(pairs)
        self.budgets = tuple(Fraction(b) for b in budgets)
        self._decompositions = {}

    def decomposition(self, n):
        """run_decomposition of stage n+1 over stage n, computed once.

        Computed on first use, not on construction, so that a sequence
        with a damaged stage still loads and validate_sequence reports it.
        """
        if n not in self._decompositions:
            self._decompositions[n] = run_decomposition(self.stages[n + 1], self.stages[n])
        return self._decompositions[n]

    def __eq__(self, other):
        return (
            isinstance(other, TowerSequence)
            and self.family == other.family
            and self.stages == other.stages
            and self.pairs == other.pairs
            and self.budgets == other.budgets
        )

    def __hash__(self):
        return hash((self.family, self.stages, self.pairs, self.budgets))

    def __repr__(self):
        return "TowerSequence(%d stages, %d pairs)" % (len(self.stages), len(self.pairs))


def enumerate_pairs(k, count, depth_cap=3):
    """First `count` equivalent pairs from the canonical enumeration.

    Pairs (a, b) with equal value vectors, ordered by the enumeration
    index of a, then of b.  The diagonal is included.
    """
    universe = list(enumerate_clopen(depth_cap))
    vecs = [k.vec(a) for a in universe]
    pairs = []
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            if vecs[i] == vecs[j]:
                pairs.append((a, b))
                if len(pairs) == count:
                    return tuple(pairs)
    raise ValueError(
        "only %d equivalent pairs within depth cap, need %d" % (len(pairs), count)
    )


def build_saturated(k, n_stages, depth_cap=3, max_depth=12, eps_schedule=None):
    """Build the tower sequence: balance a pair, then shrink, per stage.

    eps_schedule overrides the default budget 2^-n for stages 1..n_stages.
    Raises BuildFailure when an oracle cannot complete a stage, naming
    the stage, the phase, and the underlying failure.
    """
    report = validate_family(k)
    if not report.ok:
        raise ValueError("degenerate family: " + report.lines[0])
    if n_stages < 1:
        raise ValueError("need at least one stage")
    pairs = enumerate_pairs(k, n_stages, depth_cap)
    if eps_schedule is None:
        budgets = [Fraction(1, 2 ** n) for n in range(1, n_stages + 1)]
    else:
        budgets = [Fraction(e) for e in eps_schedule]
        if len(budgets) != n_stages:
            raise ValueError("eps_schedule length %d != stages %d" % (len(budgets), n_stages))
        if any(b <= 0 for b in budgets):
            raise ValueError("stage budgets must be positive")
    stages = [trivial_partition()]
    for i in range(n_stages):
        u, v = pairs[i]
        cur = stages[-1]
        phase = "balance"
        try:
            cur = balance_columns(k, cur, u, v, max_depth)
            phase = "refine"
            cur = refine_small_base_top(k, cur, budgets[i], max_depth)
        except (SearchFailure, NotEquivalent) as exc:
            raise BuildFailure(i + 1, phase, exc) from exc
        stages.append(cur)
    g = TowerSequence(k, stages, pairs, (Fraction(1),) + tuple(budgets))
    bad = validate_sequence(g)
    if bad:
        raise BuildFailure(n_stages, "validate", AssertionError(bad[0]))
    return g


def validate_sequence(g):
    """All structural violations of the sequence, as plain strings.

    Checks, stage by stage: the columns form a tower partition, base and
    top diameters fit the stage budget, each scheduled pair is split and
    visited equally often by every column, and consecutive stages
    refine.  A run decomposition of a partition over its predecessor
    already puts base inside base and top inside top, and makes the
    climb map extend the earlier one.
    """
    k = g.family
    bad = []
    if len(g.budgets) != len(g.stages):
        bad.append(
            "budget count %d does not match stage count %d"
            % (len(g.budgets), len(g.stages))
        )
        return tuple(bad)
    broken = set()
    for n, t in enumerate(g.stages):
        try:
            from_columns(k, t.columns)
        except (NotAPartition, NotEquivalentColumn) as exc:
            bad.append("stage %d is not a tower partition: %s" % (n, exc))
            broken.add(n)
            continue
        budget = g.budgets[n]
        if t.base.diameter() > budget:
            bad.append(
                "stage %d base diameter %s exceeds budget %s"
                % (n, frac_text(t.base.diameter()), frac_text(budget))
            )
        if t.top.diameter() > budget:
            bad.append(
                "stage %d top diameter %s exceeds budget %s"
                % (n, frac_text(t.top.diameter()), frac_text(budget))
            )
    for i, (u, v) in enumerate(g.pairs, start=1):
        if i >= len(g.stages):
            bad.append("pair %d has no stage" % i)
            continue
        if i in broken:
            continue
        t = g.stages[i]
        for w in (u, v):
            if union_all(a for a in t.atoms if a.is_subset(w)) != w:
                bad.append("stage %d does not split %s into atoms" % (i, w.text()))
        for ci, col in enumerate(t.columns):
            if _count_in(col, u) != _count_in(col, v):
                bad.append(
                    "stage %d column %d visits %s and %s unequally"
                    % (i, ci, u.text(), v.text())
                )
                break
    for n in range(len(g.stages) - 1):
        if n in broken or n + 1 in broken:
            continue
        if g.decomposition(n) is None:
            bad.append("stage %d does not refine stage %d" % (n + 1, n))
    return tuple(bad)


def apply(g, word, steps):
    """Climb `steps` levels of the last stage from the cylinder [word].

    The cylinder must sit inside a single atom.  Returns the enclosing
    cylinder word of the atom reached; raises HitsTop when the orbit
    leaves the tower before taking all steps.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    t = g.stages[-1]
    ci, ri = locate_atom(t, word)
    if steps == 0:
        return word
    col = t.columns[ci]
    if ri + steps >= len(col):
        raise HitsTop(
            "orbit of [%s] leaves the tower after %d steps" % (word, len(col) - 1 - ri)
        )
    atom = col[ri + steps]
    return commonprefix((atom.leaves[0], atom.leaves[-1]))


def serialize_sequence(g):
    """The full sequence as the line-oriented tower text format."""
    out = ["cantordyn tower v1"]
    out.append("generators %d" % len(g.family.generators))
    for i, m in enumerate(g.family.generators):
        out.extend(format_measure(m, i))
        out.append("end measure")
    out.append("pairs %d" % len(g.pairs))
    for u, v in g.pairs:
        out.append("pair %s %s" % (u.text(), v.text()))
    out.append("stages %d" % len(g.stages))
    for n, t in enumerate(g.stages):
        out.append(
            "stage %d columns %d budget %s" % (n, len(t.columns), frac_text(g.budgets[n]))
        )
        for col in t.columns:
            out.append("column %d" % len(col))
            for a in col:
                out.append(a.text())
    out.append("end tower")
    return "\n".join(out) + "\n"


class _Cursor:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def take(self):
        if self.pos >= len(self.lines):
            raise ValueError("truncated tower file after line %d" % self.pos)
        line = self.lines[self.pos]
        self.pos += 1
        return line.strip()


def _int_field(line, keyword):
    toks = line.split()
    if len(toks) != 2 or toks[0] != keyword or not toks[1].lstrip("-").isdigit():
        raise ValueError("expected '%s <int>', got %r" % (keyword, line))
    n = int(toks[1])
    if n < 0:
        raise ValueError("negative %s count" % keyword)
    return n


def _rat_field(tok):
    num, slash, den = tok.partition("/")
    if not slash or not num.isdigit() or not den.isdigit() or int(den) == 0:
        raise ValueError("bad rational %r" % tok)
    return Fraction(int(num), int(den))


def load_sequence(text):
    """Parse the tower text format; strict on shape, no semantic checks.

    Semantic problems (atoms that do not partition, broken refinement)
    are deliberately left to validate_sequence so that a damaged file
    loads and is then reported as a verification failure.
    """
    cur = _Cursor(text)
    if cur.take() != "cantordyn tower v1":
        raise ValueError("not a tower file")
    gcount = _int_field(cur.take(), "generators")
    if gcount < 1:
        raise ValueError("no generators")
    measures = []
    for _ in range(gcount):
        toks = cur.take().split()
        if len(toks) != 2 or toks[0] != "measure":
            raise ValueError("expected 'measure <name>'")
        name = toks[1]
        bound = _int_field(cur.take(), "depth_bound")
        weights = {}
        while True:
            line = cur.take()
            if line == "end measure":
                break
            wt = line.split()
            if len(wt) != 3 or wt[0] != "weight":
                raise ValueError("expected 'weight <word> <num/den>', got %r" % line)
            word = "" if wt[1] == "e" else wt[1]
            if any(c not in "01" for c in word) or word in weights:
                raise ValueError("bad or duplicate weight word %r" % wt[1])
            weights[word] = _rat_field(wt[2])
        measures.append(TreeMeasure(weights, bound, name))
    family = MeasureFamily(measures)
    pcount = _int_field(cur.take(), "pairs")
    pairs = []
    for _ in range(pcount):
        toks = cur.take().split()
        if len(toks) != 3 or toks[0] != "pair":
            raise ValueError("expected 'pair <clopen> <clopen>'")
        pairs.append((ClopenSet.from_text(toks[1]), ClopenSet.from_text(toks[2])))
    scount = _int_field(cur.take(), "stages")
    if scount < 1:
        raise ValueError("no stages")
    stages = []
    budgets = []
    for n in range(scount):
        toks = cur.take().split()
        if (
            len(toks) != 6
            or toks[0] != "stage"
            or toks[2] != "columns"
            or toks[4] != "budget"
            or not toks[1].isdigit()
            or not toks[3].isdigit()
        ):
            raise ValueError("expected 'stage <n> columns <c> budget <q>'")
        if int(toks[1]) != n:
            raise ValueError("stage %s out of order" % toks[1])
        ncols = int(toks[3])
        if ncols < 1:
            raise ValueError("stage %d has no columns" % n)
        budgets.append(_rat_field(toks[5]))
        cols = []
        for _ in range(ncols):
            ct = cur.take().split()
            if len(ct) != 2 or ct[0] != "column" or not ct[1].isdigit() or int(ct[1]) < 1:
                raise ValueError("expected 'column <height>'")
            cols.append(tuple(ClopenSet.from_text(cur.take()) for _ in range(int(ct[1]))))
        stages.append(KRPartition(cols))
    if cur.take() != "end tower":
        raise ValueError("missing 'end tower' marker")
    return TowerSequence(family, stages, pairs, budgets)
