"""Finite-stage certificates for a tower sequence.

Each check here extracts, from one finite stage, evidence about the
limit system: the vertices of the cone of invariant measures
compatible with the stage, a metric for how tightly that cone has
collapsed onto the prescribed simplex, strong connectivity of the
column-transition graph (minimality), explicit full-group elements
carrying one scheduled clopen set onto its partner (saturation), and
first-return divisions of a clopen set into equal-mass classes.

A stage that passes the structure check already puts every generator
in its cone: each column's atoms share one mass vector and the atoms
partition the space, so the height-weighted column masses sum to 1.
"""

from fractions import Fraction

from cantordyn.builder import _PAIR_DEPTH, _budget, enumerate_pairs, validate_sequence
from cantordyn.clopen import _tiling, union_all
from cantordyn.measure import _check_generators, frac_text, goodness_obstruction, obstruction_text, vec_text
from cantordyn.tower import locate_atom

__all__ = [
    "FullGroupWitness",
    "InvariantCone",
    "MinimalityReport",
    "PairNotScheduled",
    "StageTooShallow",
    "VerificationReport",
    "apply_witness",
    "collapse_metric",
    "first_return_divide",
    "invariant_cone",
    "minimality_check",
    "saturation_witness",
    "verification_report",
]


class PairNotScheduled(ValueError):
    """The requested pair was never incorporated by the sequence."""


class StageTooShallow(Exception):
    """The last stage is too short to divide with the requested slack."""

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


class InvariantCone:
    """The invariant-measure cone at one stage, kept as the stage's columns.

    A measure invariant under the stage's climb map gives all atoms of one
    column the same mass, so the cone is the simplex of nonnegative column
    values whose height-weighted sum is 1.  Earlier stages add nothing:
    a run through an earlier column visits each of its levels once.  Its
    vertices are the column-uniform measures, one per column: vertex c
    gives each atom of column c mass 1/heights[c] and every other atom 0.
    `atoms` runs column by column, in column order.
    """

    __slots__ = ("stage", "atoms", "heights")

    def __init__(self, stage, atoms, heights):
        self.stage = stage
        self.atoms = tuple(atoms)
        self.heights = tuple(heights)

    def contains(self, atom_masses):
        """Exact membership of a per-atom mass vector in the cone."""
        if len(atom_masses) != len(self.atoms):
            raise ValueError("mass vector length does not match the atoms")
        masses = iter(atom_masses)
        total = 0
        for h in self.heights:
            x = next(masses)
            if x < 0 or any(next(masses) != x for _ in range(h - 1)):
                return False
            total += h * x
        return total == 1


def invariant_cone(g, n):
    """The invariant-measure cone at stage n: one vertex per column.

    Raises ValueError when some stage up to n does not refine its
    predecessor.
    """
    g.runs(n, 0)
    t = g.stages[n]
    return InvariantCone(n, t.atoms, t.heights)


def collapse_metric(g, n):
    """Worst spread, over depth-3 cylinders, of masses the cone allows.

    Vertex c of the stage-n cone puts mass 1/h on each of the h atoms of
    column c.  So for a cylinder w its outer value is the share of those
    atoms that meet w, and its inner value the share inside w.  The
    metric is the largest outer minus the smallest inner value, maximised
    over cylinders; it reaches 0 exactly when the cone pins every depth-3
    mass to one value.  It reads the stage's atom masks (depth
    _PAIR_DEPTH, 3): an atom meets the cylinders of its mask's bits, and
    lies inside w when w's bit is its only one or it has none.  Raises
    ValueError like invariant_cone.
    """
    g.runs(n, 0)
    bits = range(1 << _PAIR_DEPTH)
    outer, inner = [Fraction(0)] * len(bits), [Fraction(1)] * len(bits)
    for col, groups in zip(g.stages[n].columns, g._atom_masks(n)):
        counts = [(m, len(rs)) for m, rs in groups.items()]
        for b in bits:
            meet = sum(c for m, c in counts if m >> b & 1)
            inside = sum(c for m, c in counts if m in (0, 1 << b))  # 0: the empty atom, inside all
            outer[b] = max(outer[b], Fraction(meet, len(col)))
            inner[b] = min(inner[b], Fraction(inside, len(col)))
    return max([Fraction(0)] + [o - i for o, i in zip(outer, inner)])


class MinimalityReport:
    """Strong-connectivity verdict with a trap region on failure."""

    __slots__ = ("ok", "stage", "certificate")

    def __init__(self, ok, stage, certificate):
        self.ok = ok
        self.stage = stage
        self.certificate = certificate

    def __bool__(self):
        return self.ok


def minimality_check(g, n):
    """Column-transition connectivity and spread of stage n.

    The transitions of stage n are the steps of the runs of stage n + 1
    through it, the only ones the finite sequence witnesses, so the last
    stage has none and passes only with a single column.  (Where a top
    meets a base adds nothing: distinct atoms of a partition are
    disjoint, so that gives at most a one-atom column a self-loop.)
    The stage also has to spread: every atom of stage 1 must contain an
    atom of every column, which holds exactly when every column's
    telescoped run through stage 1 visits every stage-1 column (runs
    match atoms level by level, and stage-1 atoms are disjoint).  The
    graph is strongly connected when every column reaches every column.
    Otherwise the certificate is the union of the columns reached from
    the first column that does not reach them all: a clopen region that
    no transition leaves.  When only the spread fails, it is the whole
    space.  Raises ValueError like invariant_cone for n outside the
    stages, and on a stage whose runs the check reads but which does not
    refine its predecessor.
    """
    g.runs(n, n)  # only the range check
    t = g.stages[n]
    ncols = len(t.columns)
    edges = [set() for _ in range(ncols)]
    for run in g.runs(n + 1, n) if n + 1 < len(g.stages) else ():
        for a, b in zip(run, run[1:]):
            edges[a].add(b)
    trap = range(ncols)
    for c in range(ncols):
        reached, todo = {c}, [c]
        while todo:
            for d in edges[todo.pop()] - reached:
                reached.add(d)
                todo.append(d)
        if len(reached) < ncols:
            trap = reached
            break
    ok = len(trap) == ncols
    if ok and n >= 1:
        every = set(range(len(g.stages[1].columns)))
        ok = all(set(run) == every for run in g.runs(n, 1))
    if ok:
        return MinimalityReport(True, n, None)
    cert = union_all(a for ci in trap for a in t.columns[ci])
    return MinimalityReport(False, n, cert)


class FullGroupWitness:
    """Piecewise-power element carrying one clopen set onto another.

    On each piece the limit map is applied a fixed number of times; the
    pieces partition the space and the exponents are sorted.
    """

    __slots__ = ("stage", "pieces", "exponents")

    def __init__(self, stage, pieces, exponents):
        self.stage = stage
        self.pieces = tuple(pieces)
        self.exponents = tuple(exponents)

    def __len__(self):
        return len(self.pieces)


def _exponents(g, stage):
    """(atom, exponent) over a stage's columns, for the pair (u, v) it lists.

    Within every column the u-levels are matched to the v-levels in
    increasing order and the remaining levels likewise: each atom moves
    to the level it is matched to, by its exponent.  The levels come from
    validate_sequence's membership pass.
    """
    for col, (ulev, vlev) in zip(g.stages[stage].columns, g._pair_members(stage)[0]):
        if len(ulev) != len(vlev):
            raise ValueError("a column visits u and v unequally often")
        rest = set(range(len(col)))
        for ru, rv in zip(ulev + sorted(rest.difference(ulev)), vlev + sorted(rest.difference(vlev))):
            yield col[ru], rv - ru


def saturation_witness(g, u, v):
    """Full-group element moving u onto v, read off the pair's first stage.

    Atoms are grouped into pieces by their exponent from _exponents; a
    pair listed past the last stage was never incorporated.
    """
    try:
        stage = g.pairs[: len(g.stages) - 1].index((u, v)) + 1
    except ValueError:
        raise PairNotScheduled(
            "pair %s -> %s was never incorporated" % (u.text(), v.text())
        ) from None
    grouped = {}
    for atom, e in _exponents(g, stage):
        grouped.setdefault(e, []).append(atom)
    exponents = tuple(sorted(grouped))
    pieces = tuple(union_all(grouped[e]) for e in exponents)
    return FullGroupWitness(stage, pieces, exponents)


def apply_witness(g, w, word):
    """Image atom of the cylinder [word] under the witness."""
    t = g.stages[w.stage]
    ci, ri = locate_atom(t, word)
    atom = t.columns[ci][ri]
    for piece, e in zip(w.pieces, w.exponents):
        if atom.is_subset(piece):
            return t.columns[ci][ri + e]
    raise ValueError("atom escapes every witness piece")


def first_return_divide(g, a, n, eps):
    """Divide a into n classes cycled by its first-return map.

    a must be a union of last-stage atoms.  Within each column the
    visits to a are cut into groups of n consecutive visits; visit i of
    a full group joins class i, incomplete trailing groups go to the
    remainder.  Raises StageTooShallow when the remainder holds more
    than eps of a's mass under some generator.
    """
    if n < 1:
        raise ValueError("need at least one class")
    if eps < 0:
        raise ValueError("negative tolerance")
    if n % 1:
        raise ValueError("need an integer n, got %r" % (n,))
    n = int(n)
    visits = [[x for x in col if x.is_subset(a)] for col in g.stages[-1].columns]
    if _tiling([x for lev in visits for x in lev], a) == "gap":
        raise ValueError("the set is not a union of last-stage atoms")
    classes = [[] for _ in range(n)]
    rem = []
    for lev in visits:
        full = len(lev) // n * n
        for i in range(n):
            classes[i] += lev[i:full:n]
        rem += lev[full:]
    remainder = union_all(rem)
    for m in g.family.generators:
        if m.eval(remainder) > eps * m.eval(a):
            raise StageTooShallow(
                "remainder holds %s of the set, more than the allowed %s"
                % (frac_text(m.eval(remainder)), frac_text(eps * m.eval(a))),
                remainder,
            )
    return tuple(union_all(c) for c in classes), remainder


class VerificationReport:
    """Everything verification_report measured, plus the verdict."""

    __slots__ = ("ok", "violations", "lines")

    def __init__(self, ok, violations, lines):
        self.ok = ok
        self.violations = tuple(violations)
        self.lines = tuple(lines)

    def __bool__(self):
        return self.ok

    def text(self):
        return "\n".join(self.lines) + "\n"


def verification_report(g):
    """Run every certificate over the sequence and collect the outcome.

    Structural problems suppress the deeper certificates, which assume
    well-formed stages, and a well-formed stage's cone holds every
    generator, so only its vertex count and collapse are reported.  The
    family must be good, as build_saturated requires, and the schedule
    the one build_saturated gives: one pair per stage after stage 0, the
    pairs in enumerate_pairs order, and budget 2^-n at stage n.
    Pair i's witness is listed from stage i's exponents, neither replayed
    nor cut into pieces: validate_sequence implies it carries u onto v.
    A stage equal to its predecessor reuses its collapse.  Raises
    InvalidWeights for weights outside (0,1); everything else is
    reported, not raised.
    """
    violations = []
    lines = []
    duplicates = _check_generators(g.family)
    if duplicates:
        violations.append("family: " + duplicates[0])
    pair = goodness_obstruction(g.family)
    if pair is not None:
        violations.append("family: not good: " + obstruction_text(g.family, *pair))
    lines.append(
        "generators %d, stages %d, pairs %d"
        % (len(g.family.generators), len(g.stages), len(g.pairs))
    )
    structural = validate_sequence(g)
    violations.extend(structural)
    if len(g.pairs) != len(g.stages) - 1:
        violations.append(
            "schedule: %d pairs for %d stages, need one per stage after stage 0"
            % (len(g.pairs), len(g.stages))
        )
    try:
        want = enumerate_pairs(g.family, len(g.pairs))
    except ValueError as exc:  # more pairs listed than the enumeration has
        violations.append("schedule: %s" % exc)
    else:
        wrong = [(i, p, q) for i, (p, q) in enumerate(zip(g.pairs, want), start=1) if p != q][:1]
        for i, p, q in wrong:
            texts = (i,) + tuple(w.text() for w in p + q)
            violations.append("schedule: pair %d is %s %s, the enumeration gives %s %s" % texts)
    for n, b in enumerate(g.budgets):
        if b != _budget(n):
            violations.append("schedule: stage %d budget %s, need %s" % (n, frac_text(b), frac_text(_budget(n))))
    if not duplicates and not structural:
        for n, t in enumerate(g.stages):
            spread = collapse_metric(g, n) if n == 0 or t != g.stages[n - 1] else spread
            lines.append(
                "stage %d: %d columns, %d atoms, cone vertices %d, collapse %s"
                % (n, len(t.columns), len(t.atoms), len(t.columns), frac_text(spread))
            )
        last = len(g.stages) - 1
        mr = minimality_check(g, last)
        if mr.ok:
            lines.append("stage %d: column graph strongly connected" % last)
        else:
            c = mr.certificate
            head = c.text() if len(c.leaves) <= 3 else ",".join(c.leaves[:3]) + ",..."
            violations.append(
                "stage %d: orbits can stay trapped in a region of %d leaves (%s), masses %s, diameter %s"
                % (last, len(c.leaves), head, vec_text(g.family.vec(c)), frac_text(c.diameter()))
            )
        for i in range(1, len(g.pairs) + 1):
            exponents = sorted({e for _, e in _exponents(g, i)})
            exps = ",".join(str(e) for e in exponents)
            lines.append("pair %d: witness with %d pieces, exponents %s" % (i, len(exponents), exps))
    for bad in violations:
        lines.append("violation: " + bad)
    return VerificationReport(not violations, violations, lines)
