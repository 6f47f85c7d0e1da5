"""Kakutani-Rokhlin tower partitions of Cantor space and refinement moves.

A tower partition is a finite list of columns; a column is a stack of
pairwise disjoint nonempty clopen atoms, all of the same value vector
under the measure family, read bottom to top.  All atoms together
partition the space.  The partition encodes a partial homeomorphism:
each atom maps to the one above it, and the union of the column tops
maps onto the union of the bases in a way later stages pin down.
run_decomposition finds by search how one partition climbs through another.

A build stage is two moves: refine_small_base_top fits base and top
inside small cylinders, and _merge cuts along the stage's pair, testing
each leaf prefix once, and stacks one column that visits the pair
equally often.  balance_columns, stacking by defect, is library-only.
It and the refine share one stacking move, _stack, planned on the
bases and replayed with each pool column split once: balance_columns
stacks one round onto a column, the refine n - 2 rounds and one more
through the copy under [u1].
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from cantordyn.clopen import FULL, ClopenSet, _tiling, union_all
from cantordyn.oracles import NotEquivalent, _carve, _ints, _select

__all__ = [
    "KRPartition",
    "NotAPartition",
    "NotEquivalentColumn",
    "balance_columns",
    "from_columns",
    "locate_atom",
    "refine_small_base_top",
    "run_decomposition",
    "trivial_partition",
]


class NotAPartition(ValueError):
    """The proposed atoms do not partition the space."""


class NotEquivalentColumn(ValueError):
    """A column's atoms do not all share one value vector."""


class KRPartition:
    """Columns of stacked clopen atoms partitioning the space."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(tuple(col) for col in columns)

    @property
    def base(self):
        return union_all(col[0] for col in self.columns)

    @property
    def top(self):
        return union_all(col[-1] for col in self.columns)

    @property
    def atoms(self):
        return tuple(a for col in self.columns for a in col)

    @property
    def heights(self):
        return tuple(len(col) for col in self.columns)

    def __eq__(self, other):
        return isinstance(other, KRPartition) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return "KRPartition(%d columns, heights %r)" % (len(self.columns), list(self.heights))


def trivial_partition():
    """One column, one atom: the whole space."""
    return KRPartition(((FULL,),))


def from_columns(k, columns):
    """Validated construction: per-column equivalence, then partition.

    Equivalence compares the Fraction vectors of k.vec, built once per
    atom shape.  The partition check is clopen._tiling of all atoms
    against the space, which reports a gap before an overlap.
    """
    cols = tuple(tuple(col) for col in columns)
    if not cols:
        raise NotAPartition("no columns")
    top = k._top
    vecs = {}  # each leaf's length and first k._top letters fix an atom's masses
    for ci, col in enumerate(cols):
        if not col:
            raise NotAPartition("column %d has no atoms" % ci)
        shapes = [tuple([(len(w), w[:top]) for w in a.leaves]) for a in col]
        if () in shapes:
            raise NotAPartition("column %d level %d is empty" % (ci, shapes.index(())))
        for shape, a in dict(zip(shapes, col)).items():
            if shape not in vecs:
                vecs[shape] = k.vec(a)
        bad = [shapes.index(x) for x in set(shapes) if vecs[x] != vecs[shapes[0]]]
        if bad:
            raise NotEquivalentColumn("column %d level %d differs in mass from its base" % (ci, min(bad)))
    fault = _tiling([a for col in cols for a in col], FULL)
    if fault:
        raise NotAPartition("atoms do not cover the space" if fault == "gap" else "atoms overlap")
    return KRPartition(cols)


def _atom_index(t):
    idx = {}
    for ci, col in enumerate(t.columns):
        for ri, a in enumerate(col):
            for leaf in a.leaves:
                idx[leaf] = (ci, ri)
    return idx


def _locate(idx, word):
    # canonical leaves: [word] lies in an atom iff some leaf prefixes word
    for i in range(len(word) + 1):
        hit = idx.get(word[:i])
        if hit is not None:
            return hit
    return None


def locate_atom(t, word):
    """(column, level) of the atom whose set contains the cylinder [word]."""
    hit = _locate(_atom_index(t), word)
    if hit is None:
        raise ValueError("[%s] is not contained in a single atom" % word)
    return hit


def run_decomposition(s, t):
    """How each column of s climbs through whole columns of t.

    Returns, per s-column, the sequence of t-column indices it traverses
    bottom to top, or None if s does not refine t as a tower: every run
    must start at a t-base (an empty atom starts none), match t's atoms
    level by level, and the runs must exhaust the column exactly.  Both
    must be tower partitions, as from_columns checks.
    """
    idx = _atom_index(t)
    traces = []
    for col in s.columns:
        trace = []
        r = 0
        height = len(col)
        while r < height:
            hit = _locate(idx, col[r].leaves[0]) if col[r] else None
            if hit is None or hit[1] != 0:
                return None
            ci = hit[0]
            tcol = t.columns[ci]
            if r + len(tcol) > height:
                return None
            for j, ta in enumerate(tcol):
                if not col[r + j].is_subset(ta):
                    return None
            trace.append(ci)
            r += len(tcol)
        traces.append(tuple(trace))
    return tuple(traces)


def _split_column(k, column, level, pieces, max_depth=12):
    """Split a column along a partition of its atom at one level.

    The caller builds the pieces as a partition of the atom; a build
    checks each distinct stage's partition once, in validate_sequence.
    Returns one sub-column per nonempty piece, in piece order.  Atoms of
    the split atom's shape (leaf lengths and weight-depth prefixes, which
    fix the masses) take the pieces' words below their own leaves.  The
    first atom of another shape is carved, and later ones take its words.
    """
    pieces = [p for p in pieces if not p.is_empty]
    if not pieces:
        raise ValueError("no nonempty pieces to split along")
    atom = column[level]
    if len(pieces) == 1:
        return [tuple(column)]
    vecs = None  # the pieces' vectors, computed once a shape is carved
    top = k._top
    # shape -> per piece, (leaf index, word): the split atom's pieces, then each other shape's first carve
    moves = [[(bisect_right(atom.leaves, w) - 1, w) for w in p.leaves] for p in pieces]
    carved = {tuple((len(w), w[:top]) for w in atom.leaves): moves}
    cuts = []
    for a in column:
        leaves = a.leaves
        shape = tuple((len(w), w[:top]) for w in leaves)
        if shape in carved:
            cut = [
                ClopenSet._raw(tuple(leaves[i] + w[len(leaves[i]) :] for i, w in p))
                for p in carved[shape]
            ]
        else:
            vecs = vecs or [_ints(k, p) for p in pieces[:-1]]
            cut = _carve(k, a, vecs, max_depth)
            carved[shape] = [[(bisect_right(leaves, w) - 1, w) for w in p.leaves] for p in cut]
        cuts.append(cut)
    return list(zip(*cuts))


def _cut(k, columns, u, v, max_depth):
    """The columns split until every atom lies inside or outside both u and v.

    A leaf lies where its first d letters do, d the deeper of u and v:
    each distinct prefix is tested once, and an atom is pure when all
    its leaves fall on one side of u and on one side of v.
    """
    d = max(u.max_leaf_len, v.max_leaf_len)

    @cache
    def side(p):  # [p] inside u, inside v; None when it straddles either
        c = ClopenSet._raw((p,))
        ins = c.is_subset(u), c.is_subset(v)
        return ins if all(i or c.is_disjoint(s) for i, s in zip(ins, (u, v))) else None

    def impure(col):  # the first level with a leaf that straddles, or differs from the first leaf
        for ri, a in enumerate(col):
            ws = a.leaves
            s = side(ws[0][:d]) if ws else ()
            if s is None:
                return ri
            for w in ws[1:]:
                if side(w[:d]) != s:
                    return ri
        return None

    cols = [tuple(col) for col in columns]
    ci = 0
    while ci < len(cols):
        # columns before ci are pure, and so are pieces of pure atoms
        col = cols[ci]
        ri = impure(col)
        if ri is None:
            ci += 1
            continue
        a = col[ri]
        pieces = [a & u & v, (a & u) - v, (a & v) - u, (a - u) - v]
        cols[ci : ci + 1] = _split_column(k, col, ri, pieces, max_depth)
    return cols


def _merge(k, t, u, v, max_depth):
    """The stage as one column that splits u and v and visits them equally.

    The columns are cut until every atom lies inside or outside both
    sets, then each is cut to base mass y, the gcd of the base masses,
    and the sub-columns are stacked in column order.  A family of two or
    more generators never gets here (build_saturated refuses it as not
    good), and a good single measure attains y inside every base.  Every
    atom then has mass y and lies inside or outside u and v, so the
    column visits u mu(u)/y = mu(v)/y times and v as often.  Sub-columns
    keep their atoms in order, so the result refines t.
    """
    cols = _cut(k, t.columns, u, v, max_depth)
    masses = [k.vec(col[0])[0] for col in cols]
    y = Fraction(gcd(*(x.numerator for x in masses)), lcm(*(x.denominator for x in masses)))
    subs = []
    for col, x in zip(cols, masses):
        pieces = _carve(k, col[0], [[(y.numerator, y.denominator)]] * (int(x / y) - 1), max_depth)
        subs.extend(_split_column(k, col, 0, pieces, max_depth))
    return KRPartition((tuple(a for col in subs for a in col),))


def balance_columns(k, t, u, v, max_depth=12, _trace=None):
    """Rebuild the tower so every column meets u and v equally often.

    First cuts columns until each atom lies inside or outside both sets,
    then repeatedly stacks columns of opposite count defect onto the
    worst offenders, one _stack round each.  Each stacked sub-column
    absorbs exactly one piece of the opposite sign, so the worst defect
    strictly decreases.  The result is not run through from_columns.
    """
    if not k.sim(u, v):
        raise NotEquivalent("u and v differ in mass under some generator")
    cols = _cut(k, t.columns, u, v, max_depth)

    def defect(col):  # visits to u minus visits to v
        return sum(a.is_subset(u) - a.is_subset(v) for a in col)

    while True:
        ns = [defect(col) for col in cols]
        imb = max((abs(x) for x in ns), default=0)
        if imb == 0:
            break
        if _trace is not None:
            _trace.append(imb)
        for sign in (1, -1):
            while sign * imb in ns:
                dcol = cols[ns.index(sign * imb)]
                pool = [col for col, x in zip(cols, ns) if x and (x < 0) == (sign > 0)]
                stacked, rests = _stack(k, [dcol], pool, 1, max_depth)
                swap = {id(dcol): stacked, **dict(zip(map(id, pool), rests))}
                cols = [c for col in cols for c in swap.get(id(col), [col])]
                ns = [defect(col) for col in cols]
    return KRPartition(cols)


def _stack(k, cols, pool, rounds, max_depth):
    """Stack heads cut off the pool columns' bases onto sub-columns of cols.

    Each round selects, for every column the round before stacked (in
    round 1, every column of cols), a copy of its base across the pool
    bases left and carves that base to match its shares.  Planned on the
    bases, the rounds are replayed with each pool column split once,
    along all its shares in order: carves pick pieces off in order, so
    this equals round-by-round splits.  Returns the columns stacked in
    the last round and, per pool column, the list of what is left of it
    (itself, its remainder, or nothing).
    """
    bases = [q[0] for q in pool]
    left = union_all(bases)
    hosts, plan = [c[0] for c in cols], []
    for _ in range(rounds):
        for host in hosts[len(plan) :]:
            sel = _select(k, _ints(k, host), left, max_depth)
            left -= sel
            parts = [(i, sel & b) for i, b in enumerate(bases) if not sel.is_disjoint(b)]
            for i, x in parts:
                bases[i] -= x
            plan.append((parts, _carve(k, host, [_ints(k, x) for _, x in parts[:-1]], max_depth)))
            hosts += plan[-1][1]
    shares = [[x for parts, _ in plan for j, x in parts if j == i] for i in range(len(pool))]
    subs = [_split_column(k, q, 0, s + [b], max_depth) for q, s, b in zip(pool, shares, bases)]
    heads = [iter(x) for x in subs]
    stacked = list(cols)
    for j, (parts, pieces) in enumerate(plan):
        psubs = _split_column(k, stacked[j], 0, pieces, max_depth)
        stacked += [p + next(heads[i]) for p, (i, _) in zip(psubs, parts)]
    return stacked[len(plan) :], [x[len(s) :] for x, s in zip(subs, shares)]


def refine_small_base_top(k, t, eps, max_depth=12):
    """Refine the tower until base and top have diameter below eps.

    The family must be good, as build_saturated checks before any stage:
    then every mass below that of a clopen set is attained exactly by a
    clopen subset of it.  The first column's top is cut around a deep
    cylinder [u], into [u0], [u1] and the rest, and a wide base under [u0]
    is shrunk to one small cylinder.  With 1/n below the smaller of the
    bases under [u0] and [u1], each holds an exact copy of the base's
    n-th part, and the two columns are split along them.  The rest of
    the base, n - 2 parts' worth, is the pool: n - 2 rounds of stacks
    over the copy under [u0] use it up, one part per round (_stack).
    A last round stacks a piece of the copy under [u1] onto each.
    The new base lies in the pinned base and the new top inside [u].
    Returns t itself when both diameters are already small enough.  The
    result is not run through from_columns; build_saturated validates
    every stage once, with validate_sequence.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if t.base.diameter() < eps and t.top.diameter() < eps:
        return t
    d_eps = 1
    while Fraction(1, 2 ** d_eps) >= eps:
        d_eps += 1
    cols = [tuple(col) for col in t.columns]

    # pin the top: split the first column's top around a deep cylinder
    top0 = cols[0][-1]
    u = top0.leaves[0].ljust(max(d_eps, top0.max_leaf_len), "0")
    cu = ClopenSet([u])
    pieces = [ClopenSet([u + "0"]), ClopenSet([u + "1"]), top0 - cu]
    cols[0:1] = _split_column(k, cols[0], len(cols[0]) - 1, pieces, max_depth)
    i1 = 1

    # pin the base: shrink the designated column's base to one cylinder
    b0 = cols[0][0]
    if b0.diameter() >= eps:
        w = b0.leaves[0].ljust(max(d_eps, b0.max_leaf_len), "0")
        cw = ClopenSet([w])
        cols[0:1] = _split_column(k, cols[0], 0, [cw, b0 - cw], max_depth)
        i1 += 1

    # division order: 1/n strictly below the smaller designated base, so
    # both bases hold a copy of the n-th part
    m = tuple(map(min, k.vec(cols[0][0]), k.vec(cols[i1][0])))
    n = 4
    while any(Fraction(1, n) >= x for x in m):
        n *= 2
    pv = [(x, y * n) for x, y in _ints(k, t.base)]

    # exact copies of the n-th part in the two designated bases; the rest
    # of the base, n - 2 parts' worth, is the pool the stacks use up
    col0, *rest0 = _split_column(k, cols[0], 0, _carve(k, cols[0][0], [pv], max_depth), max_depth)
    col1, *rest1 = _split_column(k, cols[i1], 0, _carve(k, cols[i1][0], [pv], max_depth), max_depth)
    pool = rest0 + cols[1:i1] + rest1 + cols[i1 + 1 :]

    principals, rests = _stack(k, [col0], pool, n - 2, max_depth)
    assert not any(rests)

    # one more round: route every stack through a piece of the copy under [u1]
    return KRPartition(_stack(k, principals, [col1], 1, max_depth)[0])
