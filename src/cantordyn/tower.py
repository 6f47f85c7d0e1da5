"""Kakutani-Rokhlin tower partitions of Cantor space and refinement moves.

A tower partition is a finite list of columns; a column is a stack of
pairwise disjoint nonempty clopen atoms, all of the same value vector
under the measure family, read bottom to top.  All atoms together
partition the space.  The partition encodes a partial homeomorphism:
each atom maps to the one above it, and the union of the column tops
maps onto the union of the bases in a way later stages pin down.

A build stage is two moves: refine_small_base_top refines the tower so
that base and top fit inside small cylinders, and _merge stacks it into
one column that visits the stage's pair equally often.  balance_columns,
which does the latter by stacking columns of opposite defect, is
library-only.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

from cantordyn.clopen import FULL, ClopenSet, union_all
from cantordyn.oracles import NotEquivalent, _carve, select_copy

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
    atom shape.  The partition check is one walk over all leaves in
    sorted order.  A leaf inside the last leaf not nested so far
    overlaps it; otherwise it must start where that one ends, which for
    words means the two read c01..1 and c10..0.  A gap is reported
    before an overlap.
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
    leaves = [w for col in cols for a in col for w in a.leaves]
    leaves.sort()
    last = leaves[0]
    gap = "1" in last
    overlap = False
    for w in leaves[1:]:
        if w.startswith(last):
            overlap = True
        else:
            gap = gap or last.rstrip("1")[:-1] != w.rstrip("0")[:-1]
            last = w
    if gap or "0" in last:
        raise NotAPartition("atoms do not cover the space")
    if overlap:
        raise NotAPartition("atoms overlap")
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
    must be tower partitions, as from_columns checks: then a partition
    equal to t runs through it column by column, ((0,), (1,), ...), and
    that is returned unsearched.
    """
    if s == t:
        return tuple((ci,) for ci in range(len(t.columns)))
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

    Returns one sub-column per nonempty piece, in piece order.  At every
    other level, matching parts are picked off in sequence; the last
    piece takes the forced remainder, which is exact by additivity.
    Every carved word lies in one leaf, and the carve sees an atom only
    through its shape (each leaf's length and weight-depth prefix): later
    atoms of a shape take the first one's words below their own leaves.
    """
    pieces = [p for p in pieces if not p.is_empty]
    if not pieces:
        raise ValueError("no nonempty pieces to split along")
    atom = column[level]
    if union_all(pieces) != atom:
        raise ValueError("pieces do not cover the atom")
    if sum((k.generators[0].eval(p) for p in pieces), Fraction(0)) != k.generators[0].eval(atom):
        raise ValueError("pieces overlap")
    if len(pieces) == 1:
        return [tuple(column)]
    vecs = [k.vec(p) for p in pieces[:-1]]
    top = k._top
    # shape -> per piece, (leaf index, word) of the first carve
    carved = {}
    subs = [[None] * len(column) for _ in pieces]
    for r, a in enumerate(column):
        leaves = a.leaves
        shape = tuple((len(w), w[:top]) for w in leaves)
        if r == level:
            cut = pieces
        elif shape in carved:
            cut = [
                ClopenSet._raw(tuple(leaves[i] + w[len(leaves[i]) :] for i, w in p))
                for p in carved[shape]
            ]
        else:
            cut = _carve(k, a, vecs, max_depth)
            carved[shape] = [[(bisect_right(leaves, w) - 1, w) for w in p.leaves] for p in cut]
        for sub, piece in zip(subs, cut):
            sub[r] = piece
    return [tuple(c) for c in subs]


def _pure(a, u):
    return a.is_subset(u) or a.is_disjoint(u)


def _cut(k, columns, u, v, max_depth):
    """The columns split until every atom lies inside or outside both u and v."""
    cols = [tuple(col) for col in columns]
    ci = 0
    while ci < len(cols):
        # columns before ci are pure, and so are pieces of pure atoms
        col = cols[ci]
        ri = next((ri for ri, a in enumerate(col) if not (_pure(a, u) and _pure(a, v))), None)
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
        pieces = _carve(k, col[0], [(y,)] * (int(x / y) - 1), max_depth)
        subs.extend(_split_column(k, col, 0, pieces, max_depth))
    return KRPartition((tuple(a for col in subs for a in col),))


def balance_columns(k, t, u, v, max_depth=12, _trace=None):
    """Rebuild the tower so every column meets u and v equally often.

    First cuts columns until each atom lies inside or outside both sets,
    then repeatedly stacks columns of opposite count defect onto the
    worst offenders.  Each stacked sub-column absorbs exactly one piece
    of the opposite sign, so the worst defect strictly decreases.  The
    result is not run through from_columns.
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
                cols, _ = _stack_pool_onto(k, cols, dcol, pool, len(dcol) - 1, max_depth)
                ns = [defect(col) for col in cols]
    return KRPartition(cols)


def _stack_pool_onto(k, cols, dcol, pool, level, max_depth):
    """Cut column dcol at one level and stack a pool base piece on each part.

    A copy of the level atom is selected across the union of the pool
    columns' bases.  Its share of each base it meets is its intersection
    with that base, most often the whole copy.
    The atom is carved to match the shares, and every resulting
    sub-column of dcol gets the matching pool sub-column stacked on top.
    Returns cols with the stacked columns in dcol's place and each pool
    column used replaced in place by its remainder, or dropped when used
    up, and the stacked columns.  Passing the pool as cols returns the
    pool left over.
    """
    host = dcol[level]
    bases = [col[0] for col in pool]
    sel = select_copy(k, k.vec(host), union_all(bases), max_depth)
    parts = [(i, sel & b) for i, b in enumerate(bases) if not sel.is_disjoint(b)]
    pieces = _carve(k, host, [k.vec(x) for _, x in parts[:-1]], max_depth)
    dsubs = _split_column(k, dcol, level, pieces, max_depth)
    stacked = []
    swap = {id(dcol): stacked}
    for (i, x), dsub in zip(parts, dsubs):
        qcol = pool[i]
        head, *swap[id(qcol)] = _split_column(k, qcol, 0, [x, qcol[0] - x], max_depth)
        stacked.append(dsub + head)
    return [c for col in cols for c in swap.get(id(col), (col,))], stacked


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
    over the copy under [u0] use it up, one part per round, and each
    stack is then routed through a piece of the copy under [u1].  The
    new base lies in the pinned base and the new top inside [u].
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
    b_all = union_all(col[0] for col in cols)
    pv = tuple(x / n for x in k.vec(b_all))

    # exact copies of the n-th part in the two designated bases; the rest
    # of the base, n - 2 parts' worth, is the pool the stacks use up
    c0 = select_copy(k, pv, cols[0][0], max_depth)
    c1 = select_copy(k, pv, cols[i1][0], max_depth)
    col0, *rest0 = _split_column(k, cols[0], 0, [c0, cols[0][0] - c0], max_depth)
    col1, *rest1 = _split_column(k, cols[i1], 0, [c1, cols[i1][0] - c1], max_depth)
    pool = rest0 + cols[1:i1] + rest1 + cols[i1 + 1 :]

    # absorb the pool into stacks over the c0 copy, one part per round
    principals = [col0]
    for _ in range(n - 2):
        new_principals = []
        for pcol in principals:
            pool, stacked = _stack_pool_onto(k, pool, pcol, pool, 0, max_depth)
            new_principals.extend(stacked)
        principals = new_principals
    assert not pool

    # route every stack through its matched piece of the c1 copy
    pieces = _carve(k, c1, [k.vec(p[0]) for p in principals[:-1]], max_depth)
    csubs = _split_column(k, col1, 0, pieces, max_depth)
    return KRPartition([p + csub for p, csub in zip(principals, csubs)])
