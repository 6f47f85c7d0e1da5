"""Saturated tower sequences: the main construction loop and its format.

A tower sequence is a refining chain of tower partitions over one
measure family, together with the schedule of equivalent clopen pairs
incorporated along the way and the per-stage diameter budgets.  Stage 0
is the trivial partition; stage n first refines until base and top fit
the stage budget, then merges the columns into one that splits the n-th
scheduled pair and visits both sets equally often.
The limit of such a chain is meant to be a minimal homeomorphism whose
invariant measures are exactly the simplex spanned by the family;
validate_sequence checks the structural certificates of each stage.
"""

from fractions import Fraction
from itertools import islice

from cantordyn.clopen import ClopenSet, _canonical, _clopen_order, _mask, _mask_set, _word_masks
from cantordyn.measure import (
    _ends_measure, _parse_rational, format_measure, frac_text, goodness_obstruction,
    obstruction_text, parse_family, validate_family,
)
from cantordyn.oracles import GoodnessFailure, SearchFailure
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    _merge,
    from_columns,
    refine_small_base_top,
    run_decomposition,
    trivial_partition,
)

__all__ = [
    "BuildFailure",
    "TowerSequence",
    "bratteli_dot",
    "build_saturated",
    "enumerate_pairs",
    "load_sequence",
    "serialize_sequence",
    "validate_sequence",
]

# Scheduled pairs are clopen sets of depth at most 3.  The pair order, and
# with it every built tower, depends on this depth.
_PAIR_DEPTH = 3


def _budget(n):
    """The diameter budget of stage n."""
    return Fraction(1, 2 ** n)


class BuildFailure(Exception):
    """A construction stage could not be completed."""

    def __init__(self, stage, phase, cause):
        super().__init__(
            "stage %d %s failed: %s: %s" % (stage, phase, type(cause).__name__, cause)
        )
        self.stage = stage
        self.phase = phase
        self.cause = cause


class TowerSequence:
    """A refining chain of tower partitions with its schedule and budgets.

    `family_report` is the validate_family report build_saturated
    computed for the family, or None for a sequence built another way.
    Runs, atom masks and pair membership are computed once each, on first use.
    """

    __slots__ = ("family", "stages", "pairs", "budgets", "family_report", "_steps", "_masks", "_members")

    def __init__(self, family, stages, pairs, budgets):
        self.family = family
        self.stages = tuple(stages)
        self.pairs = tuple(pairs)
        self.budgets = tuple(Fraction(b) for b in budgets)
        self.family_report = None
        self._steps = {}  # j -> run_decomposition of stage j+1 over stage j
        self._masks = {}  # n -> _atom_masks(n)
        self._members = {}  # i -> _pair_members(i)

    def runs(self, n, m):
        """Each stage-n column's runs through the stage-m columns, m <= n.

        Telescoped from each stage's runs through its predecessor, which
        are computed once, on first use rather than on construction, so
        that a damaged sequence still loads and validate_sequence reports
        it.  runs(n, n) is the identity.  Raises ValueError unless
        0 <= m <= n <= the last stage, and for the first step down from n
        that does not refine.
        """
        last = len(self.stages) - 1
        if not 0 <= m <= n <= last:
            raise ValueError("no runs of stage %d through stage %d: stages run from 0 to %d" % (n, m, last))
        cur = tuple((c,) for c in range(len(self.stages[n].columns)))
        for j in range(n - 1, m - 1, -1):
            if j not in self._steps:
                self._steps[j] = run_decomposition(self.stages[j + 1], self.stages[j])
            step = self._steps[j]
            if step is None:
                raise ValueError("stage %d does not refine stage %d" % (j + 1, j))
            cur = tuple(tuple(x for c in run for x in step[c]) for run in cur)
        return cur

    def _atom_masks(self, n):
        """Per column, each stage-n atom's clopen._mask at depth _PAIR_DEPTH;
        a stage equal to its predecessor shares its masks."""
        if n not in self._masks:
            t = self.stages[n]
            if n and t == self.stages[n - 1]:
                self._masks[n] = self._atom_masks(n - 1)
            else:  # clopen._mask per atom, with its word table looked up once
                table = _word_masks(_PAIR_DEPTH)
                self._masks[n] = []
                for col in t.columns:
                    self._masks[n].append([])
                    for a in col:
                        m = 0
                        for x in a.leaves:
                            m |= table[x[:_PAIR_DEPTH]]
                        self._masks[n][-1].append(m)
        return self._masks[n]

    def _pair_members(self, i):
        """Stage i's atoms tested once against the i-th pair (u, v), 1 <= i.

        Per column, the levels inside u and those inside v; then whether
        every atom lies inside or outside u, and likewise v, in one pass over
        the atom masks: exact for depth <= _PAIR_DEPTH, ValueError deeper.
        """
        if i not in self._members:
            deep = [w.text() for w in self.pairs[i - 1] if w.max_leaf_len > _PAIR_DEPTH]
            if deep:
                msg = "pair %d: %s is deeper than %d, the schedule's depth"
                raise ValueError(msg % (i, deep[0], _PAIR_DEPTH))
            xu, xv = [_mask(w, _PAIR_DEPTH) for w in self.pairs[i - 1]]
            levels = []
            split_u = split_v = True
            for ms in self._atom_masks(i):
                levels.append(([], []))
                for r, m in enumerate(ms):
                    if m | xu == xu:
                        levels[-1][0].append(r)
                    elif m & xu:
                        split_u = False
                    if m | xv == xv:
                        levels[-1][1].append(r)
                    elif m & xv:
                        split_v = False
            self._members[i] = (levels, split_u, split_v)
        return self._members[i]

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


def enumerate_pairs(k, count):
    """First `count` equivalent pairs from the canonical enumeration.

    Pairs (a, b) of depth at most _PAIR_DEPTH with equal value vectors,
    ordered by the enumeration index of a, then of b.  The diagonal is
    included.  The work is on masks over the 2^_PAIR_DEPTH cylinders of
    depth _PAIR_DEPTH, taken in enumerate_clopen's order.  Generator m
    gives cylinder [w] the integer m._num(w[:m._top]) over m._den of that
    depth; a mask's vector packs those sums into one integer, a slot per
    generator wide enough for its denominator, and mask x is the sum for
    x & (x - 1) plus its lowest cylinder.  Masks are grouped by vector in
    enumeration order, the pairs are read off the groups, and only the
    sets of the pairs returned are built.
    """
    if count < 0:
        raise ValueError("pair count must be at least 0, got %d" % count)
    n = 1 << _PAIR_DEPTH
    cyl = [0] * n  # cyl[i]: the packed vector of the cylinder at bit i
    shift = 0
    for m in k.generators:
        for i in range(n):
            cyl[i] += m._num(bin(2 * n - 1 - i)[3:][: m._top]) << shift
        shift += m._den(_PAIR_DEPTH).bit_length()
    vec = [0] * (1 << n)
    for x in range(1, 1 << n):
        vec[x] = vec[x & (x - 1)] + cyl[(x & -x).bit_length() - 1]
    order = _clopen_order(_PAIR_DEPTH)
    groups = {}
    for x in order:
        groups.setdefault(vec[x], []).append(x)
    found = ((a, b) for a in order for b in groups[vec[a]])
    masks = tuple(islice(found, count))
    if len(masks) < count:
        raise ValueError(
            "only %d equivalent pairs within depth %d, need %d" % (len(masks), _PAIR_DEPTH, count)
        )
    sets = {x: _mask_set(x, _PAIR_DEPTH) for x in set().union(*masks)}
    return tuple((sets[a], sets[b]) for a, b in masks)


def build_saturated(k, n_stages, max_depth=12):
    """Build the tower sequence: shrink, then merge along a pair, per stage.

    Stage n gets the diameter budget 2^-n.  Raises ValueError for a
    degenerate family, fewer than one stage or a negative max_depth, and
    BuildFailure when the family is not good (stage 0, before any stage
    is built) or when an oracle cannot complete a stage, naming the
    stage, the phase, and the underlying failure.  The returned sequence
    keeps the family's validate_family report as `family_report`.
    """
    report = validate_family(k)
    if not report.ok:
        raise ValueError("degenerate family: " + report.lines[0])
    pair = goodness_obstruction(k)
    if pair is not None:
        raise BuildFailure(0, "goodness", GoodnessFailure(obstruction_text(k, *pair)))
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if max_depth < 0:
        raise ValueError("max_depth must be at least 0, got %d" % max_depth)
    pairs = enumerate_pairs(k, n_stages)
    budgets = [_budget(n) for n in range(n_stages + 1)]
    stages = [trivial_partition()]
    for i in range(n_stages):
        phase = "refine"
        try:
            cur = refine_small_base_top(k, stages[-1], budgets[i + 1], max_depth)
            phase = "merge"
            cur = _merge(k, cur, *pairs[i], max_depth)
        except SearchFailure as exc:
            raise BuildFailure(i + 1, phase, exc) from exc
        stages.append(cur)
    g = TowerSequence(k, stages, pairs, budgets)
    bad = validate_sequence(g)
    if bad:
        raise BuildFailure(n_stages, "validate", AssertionError(bad[0]))
    g.family_report = report
    return g


def validate_sequence(g):
    """All structural violations of the sequence, as plain strings.

    Checks, stage by stage: the columns form a tower partition, base and
    top diameters fit the stage budget, each scheduled pair is split and
    visited equally often by every column, and consecutive stages
    refine.  A run decomposition of a partition over its predecessor
    already puts base inside base and top inside top, and makes the
    climb map extend the earlier one.  A stage equal to its predecessor,
    when that one is a tower partition, is one too: its partition check
    is not run again, and it refines its predecessor column by column.
    The pair check reads the membership pass that the witnesses read;
    a pair deeper than that pass decides is reported instead.
    """
    k = g.family
    if len(g.budgets) != len(g.stages):
        return ("budget count %d does not match stage count %d" % (len(g.budgets), len(g.stages)),)
    bad = []
    broken = set()
    for n, t in enumerate(g.stages):
        if n == 0 or n - 1 in broken or t != g.stages[n - 1]:
            try:
                from_columns(k, t.columns)
            except (NotAPartition, NotEquivalentColumn) as exc:
                bad.append("stage %d is not a tower partition: %s" % (n, exc))
                broken.add(n)
                continue
        budget = g.budgets[n]
        for name, end in (("base", t.base), ("top", t.top)):
            if end.diameter() > budget:
                bad.append(
                    "stage %d %s diameter %s exceeds budget %s"
                    % (n, name, frac_text(end.diameter()), frac_text(budget))
                )
    for i, (u, v) in enumerate(g.pairs, start=1):
        if i >= len(g.stages):
            bad.append("pair %d has no stage" % i)
            continue
        if i in broken:
            continue
        try:
            levels, split_u, split_v = g._pair_members(i)
        except ValueError as exc:
            bad.append(str(exc))
            continue
        for split, w in ((split_u, u), (split_v, v)):
            if not split:
                bad.append("stage %d does not split %s into atoms" % (i, w.text()))
        unequal = [ci for ci, (ul, vl) in enumerate(levels) if len(ul) != len(vl)]
        if unequal:
            bad.append("stage %d column %d visits %s and %s unequally" % (i, unequal[0], u.text(), v.text()))
    for n in range(len(g.stages) - 1):
        if n in broken or n + 1 in broken:
            continue
        try:
            g.runs(n + 1, n)
        except ValueError as exc:
            bad.append(str(exc))
    return tuple(bad)


def bratteli_dot(g):
    """Graphviz text for the sequence's ordered Bratteli diagram.

    One node per column per stage, labelled with its height and mass
    vector, and one edge per run of a column through a column of the
    previous stage, numbered in climb order from 1.  g must pass
    validate_sequence, which computes the runs read here.
    """
    lines = ["digraph bratteli {", "  node [shape=box];"]
    for n, t in enumerate(g.stages):
        for ci, col in enumerate(t.columns):
            mass = " ".join(frac_text(x) for x in g.family.vec(col[0]))
            lines.append('  s%d_%d [label="height %d\\nmass %s"];' % (n, ci, len(col), mass))
    for n in range(len(g.stages) - 1):
        for ci, run in enumerate(g.runs(n + 1, n)):
            for j, c in enumerate(run, start=1):
                lines.append('  s%d_%d -> s%d_%d [label="%d"];' % (n, c, n + 1, ci, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


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

    def error(self, msg):
        return ValueError("line %d: %s" % (self.pos, msg))

    def natural(self, tok, msg):
        if not (tok.isascii() and tok.isdigit()):
            raise self.error(msg)
        return int(tok)

    def count(self, keyword):
        line = self.take()
        toks = line.split()
        msg = "expected '%s <int>', got %r" % (keyword, line)
        if len(toks) != 2 or toks[0] != keyword:
            raise self.error(msg)
        n = self.natural(toks[1].removeprefix("-"), msg)
        if toks[1].startswith("-"):
            raise self.error("negative %s count" % keyword)
        return n

    def rational(self, tok):
        """tok, the last token of the line just taken, as a Fraction."""
        return _parse_rational(tok, self.pos, self.lines[self.pos - 1].rindex(tok) + 1)

    def clopen(self, tok):
        try:
            return ClopenSet.from_text(tok)
        except ValueError as exc:
            raise self.error(exc) from None

    def atoms(self, height):
        """The next `height` lines as atoms.  When all are comma-separated
        words over {0,1}, their joined text gets one check; otherwise each
        line goes through clopen(), which names the line of an error."""
        toks = [line.strip() for line in self.lines[self.pos : self.pos + height]]
        text = ",".join(toks)
        if len(toks) < height or text.strip("01,") or ",," in "," + text + ",":
            return tuple(self.clopen(self.take()) for _ in range(height))
        self.pos += height
        return tuple([ClopenSet._raw(_canonical(tuple(tok.split(",")))) for tok in toks])


def load_sequence(text):
    """Parse the tower text format.

    The generator blocks, up to the `generators`-th `end measure` line,
    go whole to parse_family with the tower file's line numbers: the
    family grammar, its end marker included, decides what a block may
    hold.  The rest is checked for shape only, so that a damaged tower
    (atoms that do not partition, broken refinement) loads and
    validate_sequence then reports it.  A stage whose column and atom
    lines repeat its predecessor's loads as that same KRPartition.
    """
    cur = _Cursor(text)
    if cur.take() != "cantordyn tower v1":
        raise ValueError("not a tower file")
    gcount = cur.count("generators")
    if gcount < 1:
        raise cur.error("no generators")
    start = cur.pos
    for _ in range(gcount):
        while not _ends_measure(cur.take()):
            pass
    family = parse_family("\n" * start + "\n".join(cur.lines[start : cur.pos]))
    if len(family) != gcount:
        raise cur.error("generators %d but %d measures" % (gcount, len(family)))
    pcount = cur.count("pairs")
    pairs = []
    for _ in range(pcount):
        toks = cur.take().split()
        if len(toks) != 3 or toks[0] != "pair":
            raise cur.error("expected 'pair <clopen> <clopen>'")
        pairs.append((cur.clopen(toks[1]), cur.clopen(toks[2])))
    scount = cur.count("stages")
    if scount < 1:
        raise cur.error("no stages")
    stages = []
    budgets = []
    block = None  # the previous stage's column and atom lines
    for n in range(scount):
        toks = cur.take().split()
        msg = "expected 'stage <n> columns <c> budget <q>'"
        if len(toks) != 6 or toks[::2] != ["stage", "columns", "budget"]:
            raise cur.error(msg)
        index, ncols = cur.natural(toks[1], msg), cur.natural(toks[3], msg)
        if index != n:
            raise cur.error("stage %s out of order" % toks[1])
        if ncols < 1:
            raise cur.error("stage %d has no columns" % n)
        budgets.append(cur.rational(toks[5]))
        start = cur.pos
        if block and ncols == len(stages[-1].columns) and cur.lines[start : start + len(block)] == block:
            cur.pos += len(block)
            stages.append(stages[-1])
            continue
        cols = []
        for _ in range(ncols):
            ct = cur.take().split()
            msg = "expected 'column <height>'"
            if len(ct) != 2 or ct[0] != "column" or cur.natural(ct[1], msg) < 1:
                raise cur.error(msg)
            cols.append(cur.atoms(int(ct[1])))
        block = cur.lines[start : cur.pos]
        stages.append(KRPartition(cols))
    if cur.take() != "end tower":
        raise cur.error("missing 'end tower' marker")
    return TowerSequence(family, stages, pairs, budgets)
