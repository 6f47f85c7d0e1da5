"""Finite-stage certificates for a tower sequence.

Each check here extracts, from one finite stage, evidence about the
limit system: the vertices of the cone of invariant measures
compatible with the stage, a metric for how tightly that cone has
collapsed onto the prescribed simplex, strong connectivity of the
column-transition graph (minimality), explicit full-group elements
carrying one scheduled clopen set onto its partner (saturation), and
first-return divisions of a clopen set into equal-mass classes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from cantordyn.builder import validate_sequence
from cantordyn.clopen import ClopenSet, union_all
from cantordyn.measure import frac_text, validate_family, vec_text
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
    "verify_all",
]


class PairNotScheduled(ValueError):
    """The requested pair was never incorporated by the sequence."""


class StageTooShallow(Exception):
    """The last stage is too short to divide with the requested slack."""

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


class InvariantCone:
    """Vertices of the invariant-measure cone at one stage.

    A measure invariant under the stage's climb map gives all atoms of one
    column the same mass, so the cone is the simplex of nonnegative column
    values whose height-weighted sum is 1.  Earlier stages add nothing:
    a run through an earlier column visits each of its levels once.  Its
    vertices are the column-uniform measures, one per column in column
    order, stored expanded to per-atom mass tuples aligned with `atoms`.
    """

    __slots__ = ("stage", "atoms", "vertices", "_col_of", "_heights")

    def __init__(self, stage, atoms, heights):
        self.stage = stage
        self.atoms = tuple(atoms)
        self._heights = tuple(heights)
        self._col_of = tuple(c for c, h in enumerate(self._heights) for _ in range(h))
        zero = Fraction(0)
        self.vertices = tuple(
            tuple(Fraction(1, h) if d == c else zero for d in self._col_of)
            for c, h in enumerate(self._heights)
        )

    def contains(self, atom_masses):
        """Exact membership of a per-atom mass vector in the cone."""
        if len(atom_masses) != len(self.atoms):
            raise ValueError("mass vector length does not match the atoms")
        y = [None] * len(self._heights)
        for mass, c in zip(atom_masses, self._col_of):
            if mass < 0:
                return False
            if y[c] is None:
                y[c] = mass
            elif y[c] != mass:
                return False
        return sum(h * x for h, x in zip(self._heights, y)) == 1


def _chain_traces(g, n):
    """Stage-n column runs through each earlier stage m, as traces[m].

    Telescoped from consecutive decompositions: a stage-n column runs
    through the stage-m columns that its stage-(m+1) columns run through.
    """
    traces = [None] * n
    cur = tuple((c,) for c in range(len(g.stages[n].columns)))
    for m in range(n - 1, -1, -1):
        step = g.decomposition(m)
        if step is None:
            raise ValueError("stage %d does not refine stage %d" % (m + 1, m))
        cur = traces[m] = tuple(tuple(x for c in trace for x in step[c]) for trace in cur)
    return traces


def invariant_cone(g, n):
    """The invariant-measure cone at stage n: one vertex per column.

    Raises ValueError when some stage up to n does not refine its
    predecessor.
    """
    for m in range(n - 1, -1, -1):
        if g.decomposition(m) is None:
            raise ValueError("stage %d does not refine stage %d" % (m + 1, m))
    t = g.stages[n]
    return InvariantCone(n, t.atoms, t.heights)


def collapse_metric(g, n, cone=None):
    """Worst spread, over depth-3 cylinders, of masses the cone allows.

    For each cylinder the outer value sums vertex masses of every atom
    meeting it, the inner value those of atoms inside it.  The metric is
    the largest outer-minus-inner gap across vertices and cylinders; it
    reaches 0 exactly when the cone pins every depth-3 mass to one value.
    """
    if cone is None:
        cone = invariant_cone(g, n)
    worst = Fraction(0)
    for bits in product("01", repeat=3):
        w = ClopenSet(["".join(bits)])
        outer = []
        inner = []
        for v in cone.vertices:
            o = i = Fraction(0)
            for a, mass in zip(cone.atoms, v):
                if a.is_subset(w):
                    i += mass
                    o += mass
                elif not (a & w).is_empty:
                    o += mass
            outer.append(o)
            inner.append(i)
        worst = max(worst, max(outer) - min(inner))
    return worst


class MinimalityReport:
    """Strong-connectivity verdict with a trap region on failure."""

    __slots__ = ("ok", "stage", "certificate")

    def __init__(self, ok, stage, certificate):
        self.ok = ok
        self.stage = stage
        self.certificate = certificate

    def __bool__(self):
        return self.ok


def _strongly_connected(nnodes, succs):
    """Tarjan's algorithm, iterative; components in completion order."""
    index = {}
    low = {}
    stack = []
    on = set()
    comps = []
    counter = 0
    for root in range(nnodes):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, it = work[-1]
            nxt = next(it, None)
            if nxt is None:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    comps.append(comp)
            elif nxt not in index:
                index[nxt] = low[nxt] = counter
                counter += 1
                stack.append(nxt)
                on.add(nxt)
                work.append((nxt, iter(succs[nxt])))
            elif nxt in on:
                low[node] = min(low[node], index[nxt])
    return comps


def minimality_check(g, n):
    """Column-transition connectivity and spread of stage n.

    Before the last stage, transitions are read off the run
    decomposition of the next stage; at the last stage a transition
    c -> d is possible whenever the top of c meets the base of d.
    The stage also has to spread: every atom of stage 1 must contain an
    atom of every column, which holds exactly when every column's
    telescoped run through stage 1 visits every stage-1 column (runs
    match atoms level by level, and stage-1 atoms are disjoint).  On
    failure the certificate is the union of the first completed terminal
    component's columns, a clopen region an orbit cannot be forced to
    leave; when only the spread fails, that is the whole space.  Raises
    ValueError on a stage whose runs the check reads but which does not
    refine its predecessor.
    """
    t = g.stages[n]
    ncols = len(t.columns)
    edges = [set() for _ in range(ncols)]
    if n + 1 < len(g.stages):
        tr = g.decomposition(n)
        if tr is None:
            raise ValueError("stage %d does not refine stage %d" % (n + 1, n))
        for trace in tr:
            for a, b in zip(trace, trace[1:]):
                edges[a].add(b)
    else:
        for ci, col in enumerate(t.columns):
            for di, dol in enumerate(t.columns):
                if not (col[-1] & dol[0]).is_empty:
                    edges[ci].add(di)
    succs = [sorted(e) for e in edges]
    comps = _strongly_connected(ncols, succs)
    ok = len(comps) == 1
    if ok and n >= 1:
        runs = _chain_traces(g, n)[1] if n > 1 else [(c,) for c in range(ncols)]
        every = set(range(len(g.stages[1].columns)))
        ok = all(set(run) == every for run in runs)
    if ok:
        return MinimalityReport(True, n, None)
    cert = union_all(a for ci in comps[0] for a in t.columns[ci])
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


def saturation_witness(g, u, v):
    """Full-group element moving u onto v, read off the pairing stage.

    Within every column the u-levels are matched to the v-levels in
    increasing order and the remaining levels to each other likewise,
    so each atom moves by a fixed signed number of levels.  Atoms are
    grouped into pieces by that exponent.
    """
    for i, (pu, pv) in enumerate(g.pairs):
        if pu == u and pv == v:
            stage = i + 1
            break
    else:
        raise PairNotScheduled(
            "pair %s -> %s was never incorporated" % (u.text(), v.text())
        )
    t = g.stages[stage]
    grouped = {}
    for col in t.columns:
        ulev = [r for r, a in enumerate(col) if a.is_subset(u)]
        vlev = [r for r, a in enumerate(col) if a.is_subset(v)]
        if len(ulev) != len(vlev):
            raise ValueError("a column visits u and v unequally often")
        useen = set(ulev)
        vseen = set(vlev)
        rest_u = [r for r in range(len(col)) if r not in useen]
        rest_v = [r for r in range(len(col)) if r not in vseen]
        for ru, rv in list(zip(ulev, vlev)) + list(zip(rest_u, rest_v)):
            grouped.setdefault(rv - ru, []).append(col[ru])
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
    t = g.stages[-1]
    inside = [x for x in t.atoms if x.is_subset(a)]
    if union_all(inside) != a:
        raise ValueError("the set is not a union of last-stage atoms")
    classes = [[] for _ in range(n)]
    rem = []
    for col in t.columns:
        lev = [r for r, x in enumerate(col) if x.is_subset(a)]
        full = (len(lev) // n) * n
        for j, r in enumerate(lev):
            (classes[j % n] if j < full else rem).append(col[r])
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
    """Everything verify_all measured, plus the verdict."""

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
    well-formed stages.  Raises InvalidWeights for weights outside
    (0,1); everything else is reported, not raised.
    """
    violations = []
    lines = []
    rep = validate_family(g.family)
    if not rep.ok:
        violations.append("family: " + rep.lines[0])
    lines.append(
        "generators %d, stages %d, pairs %d"
        % (len(g.family.generators), len(g.stages), len(g.pairs))
    )
    structural = validate_sequence(g)
    violations.extend(structural)
    if not violations:
        for n, t in enumerate(g.stages):
            cone = invariant_cone(g, n)
            for gi, m in enumerate(g.family.generators):
                masses = tuple(m.eval(a) for a in cone.atoms)
                if not cone.contains(masses):
                    violations.append(
                        "stage %d: generator %d escapes the invariant cone" % (n, gi)
                    )
            spread = collapse_metric(g, n, cone)
            lines.append(
                "stage %d: %d columns, %d atoms, cone vertices %d, collapse %s"
                % (n, len(t.columns), len(t.atoms), len(cone.vertices), frac_text(spread))
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
        for i, (u, v) in enumerate(g.pairs, start=1):
            w = saturation_witness(g, u, v)
            t = g.stages[w.stage]
            imgs = []
            for ci, col in enumerate(t.columns):
                for ri, a in enumerate(col):
                    if a.is_subset(u):
                        imgs.append(apply_witness(g, w, a.leaves[0]))
            if union_all(imgs) != v:
                violations.append(
                    "pair %d: witness fails to carry %s onto %s" % (i, u.text(), v.text())
                )
            lines.append(
                "pair %d: witness with %d pieces, exponents %s"
                % (i, len(w), ",".join(str(e) for e in w.exponents))
            )
    for bad in violations:
        lines.append("violation: " + bad)
    return VerificationReport(not violations, violations, lines)


def verify_all(g):
    """(ok, first violated invariant or None, full report)."""
    report = verification_report(g)
    first = report.violations[0] if report.violations else None
    return report.ok, first, report
