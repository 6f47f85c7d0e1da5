"""Kakutani-Rokhlin tower partitions of Cantor space and refinement moves.

A tower partition is a finite list of columns; a column is a stack of
pairwise disjoint nonempty clopen atoms, all of the same value vector
under the measure family, read bottom to top.  All atoms together
partition the space.  The partition encodes a partial homeomorphism:
each atom maps to the one above it, and the union of the column tops
maps onto the union of the bases in a way later stages pin down.

The two workhorses are balance_columns, which makes the per-column visit
counts of two equivalent clopen sets agree, and refine_small_base_top,
which rebuilds the tower so that base and top fit inside prescribed
small cylinders while refining the old tower.
"""

from __future__ import annotations

from fractions import Fraction

from cantordyn.clopen import FULL, ClopenSet, union_all
from cantordyn.measure import frac_text
from cantordyn.oracles import (
    DivisibilityFailure,
    GoodnessFailure,
    NotEquivalent,
    approx_divide,
    select_copy,
    subset_in_box,
)

__all__ = [
    "KRPartition",
    "NotAPartition",
    "NotEquivalentColumn",
    "balance_columns",
    "cut_column_at_level",
    "from_columns",
    "locate_atom",
    "refine_small_base_top",
    "refines",
    "run_decomposition",
    "to_dot",
    "trivial_partition",
]


class NotAPartition(ValueError):
    """The proposed atoms do not partition the space."""


class NotEquivalentColumn(ValueError):
    """A column's atoms do not all share one value vector."""


class KRPartition:
    """Columns of stacked clopen atoms partitioning the space."""

    __slots__ = ("columns", "_base", "_top")

    def __init__(self, columns):
        self.columns = tuple(tuple(col) for col in columns)
        self._base = None
        self._top = None

    @property
    def base(self):
        if self._base is None:
            self._base = union_all(col[0] for col in self.columns)
        return self._base

    @property
    def top(self):
        if self._top is None:
            self._top = union_all(col[-1] for col in self.columns)
        return self._top

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

    Full support makes the partition check cheap: nonempty atoms whose
    union is the space and whose first-generator masses sum to one are
    automatically pairwise disjoint.
    """
    cols = tuple(tuple(col) for col in columns)
    if not cols:
        raise NotAPartition("no columns")
    mass0 = []  # generator 0's mass of every atom, as (numerator, depth)
    for ci, col in enumerate(cols):
        if not col:
            raise NotAPartition("column %d has no atoms" % ci)
        for ri, a in enumerate(col):
            if a.is_empty:
                raise NotAPartition("column %d level %d is empty" % (ci, ri))
        masses = [tuple(m._mass(a) for m in k.generators) for a in col]
        for ri, v in enumerate(masses[1:], start=1):
            if v != masses[0]:
                raise NotEquivalentColumn(
                    "column %d level %d differs in mass from its base" % (ci, ri)
                )
        mass0.extend(v[0] for v in masses)
    atoms = [a for col in cols for a in col]
    if union_all(atoms) != FULL:
        raise NotAPartition("atoms do not cover the space")
    depth = max(d for _, d in mass0)
    if sum(n << (depth - d) for n, d in mass0) != k.generators[0]._den(depth):
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
    must start at a t-base, match t's atoms level by level, and the runs
    must exhaust the column exactly.
    """
    idx = _atom_index(t)
    traces = []
    for col in s.columns:
        trace = []
        r = 0
        height = len(col)
        while r < height:
            hit = _locate(idx, col[r].leaves[0])
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


def refines(s, t):
    """Tower refinement: columns of s climb t in runs.

    A run starts at a t-base and ends at a t-top, so base and top shrink.
    """
    return run_decomposition(s, t) is not None


def _split_column(k, column, level, pieces, max_depth=12):
    """Split a column along a partition of its atom at one level.

    Returns one sub-column per nonempty piece, in piece order.  At every
    other level, matching parts are picked off in sequence; the last
    piece takes the forced remainder, which is exact by additivity.
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
    subs = [[None] * len(column) for _ in pieces]
    for r, a in enumerate(column):
        cut = pieces if r == level else _carve(k, a, vecs, max_depth)
        for sub, piece in zip(subs, cut):
            sub[r] = piece
    return [tuple(c) for c in subs]


def _carve(k, host, vecs, max_depth):
    """Pieces of host matching vecs, picked off in order, then the remainder."""
    pieces = []
    for vec in vecs:
        piece = select_copy(k, vec, host, max_depth)
        pieces.append(piece)
        host = host - piece
    pieces.append(host)
    return pieces


def cut_column_at_level(k, t, ci, level, pieces, max_depth=12):
    """New tower with column ci split along a partition of one atom."""
    subs = _split_column(k, t.columns[ci], level, pieces, max_depth)
    cols = list(t.columns)
    cols[ci : ci + 1] = subs
    return KRPartition(cols)


def _pure(a, u):
    return a.is_subset(u) or (a & u).is_empty


def _count_in(col, u):
    return sum(1 for a in col if a.is_subset(u))


def balance_columns(k, t, u, v, max_depth=12, _trace=None):
    """Rebuild the tower so every column meets u and v equally often.

    First cuts columns until each atom lies inside or outside both sets,
    then repeatedly stacks columns of opposite count defect onto the
    worst offenders.  Each stacked sub-column absorbs exactly one piece
    of the opposite sign, so the worst defect strictly decreases.
    """
    if not k.sim(u, v):
        raise NotEquivalent("u and v differ in mass under some generator")
    cols = [tuple(col) for col in t.columns]
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
    while True:
        ns = [_count_in(col, u) - _count_in(col, v) for col in cols]
        imb = max((abs(x) for x in ns), default=0)
        if imb == 0:
            break
        if _trace is not None:
            _trace.append(imb)
        for sign in (1, -1):
            while sign * imb in ns:
                di = ns.index(sign * imb)
                pool = [ci for ci, x in enumerate(ns) if x and (x < 0) == (sign > 0)]
                cols, _ = _stack_pool_onto(k, cols, di, pool, len(cols[di]) - 1, max_depth)
                ns = [_count_in(col, u) - _count_in(col, v) for col in cols]
    return from_columns(k, cols)


def _stack_pool_onto(k, cols, di, pool, level, max_depth):
    """Cut column di at one level and stack a pool base piece on each part.

    A copy of the level atom is selected across the bases of the pool
    columns; the atom is carved to match the pieces that copy leaves in
    each pool base, and every resulting sub-column of di gets the matching
    pool sub-column stacked on top.  Returns the new column list, with the
    stacked columns in di's place and the pool leftovers in theirs, and
    the stacked columns.
    """
    dcol = cols[di]
    host = dcol[level]
    sel = select_copy(k, k.vec(host), union_all(cols[qi][0] for qi in pool), max_depth)
    parts = [(qi, sel & cols[qi][0]) for qi in pool]
    parts = [(qi, x) for qi, x in parts if not x.is_empty]
    pieces = _carve(k, host, [k.vec(x) for _, x in parts[:-1]], max_depth)
    dsubs = _split_column(k, dcol, level, pieces, max_depth)
    stacked = []
    groups = [[col] for col in cols]
    groups[di] = stacked
    for (qi, x), dsub in zip(parts, dsubs):
        qcol = cols[qi]
        if x == qcol[0]:
            head, groups[qi] = qcol, []
        else:
            head, rest = _split_column(k, qcol, 0, [x, qcol[0] - x], max_depth)
            groups[qi] = [rest]
        stacked.append(dsub + head)
    return [col for group in groups for col in group], stacked


def refine_small_base_top(k, t, eps, max_depth=12):
    """Refine the tower until base and top have diameter below eps.

    The tower is rebuilt around a deep cylinder [u] inside the first
    column's top: everything is rerouted so the new base is a small
    piece below [u0] plus a leftover of mass below eps, and the new top
    sits inside [u].  Returns t itself when both diameters are already
    small enough.
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
    u = top0.refine_to_depth(max(d_eps, top0.max_leaf_len))[0]
    cu = ClopenSet([u])
    pieces = [ClopenSet([u + "0"]), ClopenSet([u + "1"]), top0 - cu]
    cols[0:1] = _split_column(k, cols[0], len(cols[0]) - 1, pieces, max_depth)
    i0, i1 = 0, 1

    # pin the base: shrink the designated column's base to one cylinder
    b0 = cols[i0][0]
    if b0.diameter() >= eps:
        w = b0.refine_to_depth(max(d_eps, b0.max_leaf_len))[0]
        cw = ClopenSet([w])
        cols[i0 : i0 + 1] = _split_column(k, cols[i0], 0, [cw, b0 - cw], max_depth)
        i1 += 1

    # give the two designated columns tops of equal vector
    t0, t1 = cols[i0][-1], cols[i1][-1]
    if k.vec(t0) != k.vec(t1):
        sigma0 = None
        for d in range(t0.max_leaf_len + 1, max_depth + 1):
            cand = ClopenSet([t0.refine_to_depth(d)[0]])
            if all(x < y for x, y in zip(k.vec(cand), k.vec(t1))):
                sigma0 = cand
                break
        if sigma0 is None:
            raise GoodnessFailure("no common small top", max_depth)
        cols[i0 : i0 + 1] = _split_column(
            k, cols[i0], len(cols[i0]) - 1, [sigma0, t0 - sigma0], max_depth
        )
        i1 += 1
        sigma1 = select_copy(k, k.vec(sigma0), t1, max_depth)
        cols[i1 : i1 + 1] = _split_column(
            k, cols[i1], len(cols[i1]) - 1, [sigma1, t1 - sigma1], max_depth
        )

    # division order: 1/n strictly below the designated base mass
    m = k.vec(cols[i0][0])
    n = 4
    while any(Fraction(1, n) >= x for x in m):
        n *= 2
    b_all = union_all(col[0] for col in cols)
    bv = k.vec(b_all)
    slack = min(n * x - y for x, y in zip(m, bv)) / (2 * (n - 1))
    bprime = approx_divide(k, b_all, n, slack, max_depth)
    pv = k.vec(bprime)

    # n disjoint copies of the near-n-th part, anchored in the two
    # designated bases, the rest carved from the remaining base mass
    c0 = select_copy(k, pv, cols[i0][0], max_depth)
    c1 = select_copy(k, pv, cols[i1][0], max_depth)
    f = cols[i0][0] - c0
    wset = (b_all - cols[i0][0]) - c1
    cs = [c0, c1]
    for j in range(2, n):
        after = n - 1 - j
        wv = k.vec(wset)
        lo = tuple(max(Fraction(0), x - after * y) for x, y in zip(wv, pv))
        hi = tuple(min(x, y) for x, y in zip(pv, wv))
        wj = subset_in_box(k, wset, lo, hi, max_depth)
        if wj is None:
            raise DivisibilityFailure("carving copy %d of %d failed" % (j, n), max_depth)
        comp = select_copy(k, tuple(x - y for x, y in zip(pv, k.vec(wj))), f, max_depth)
        cs.append(wj | comp)
        wset = wset - wj
        f = f - comp
    assert wset.is_empty
    e = f  # leftover of mass at most `slack`, kept as its own column

    # recut every column so each new base sits in exactly one copy; the
    # leftover column is set aside and goes last.  Columns are compared by
    # value: their atoms are disjoint and nonempty, so no two are equal.
    recut = []
    for col in cols:
        bits = [col[0] & c for c in cs + [e]]
        recut.extend(_split_column(k, col, 0, bits, max_depth))
    cols = [col for col in recut if col[0] != e]
    tail = [col for col in recut if col[0] == e]
    col0 = next(col for col in cols if col[0] == c0)
    col1 = next(col for col in cols if col[0] == c1)

    # absorb all remaining columns into stacks over the c0 copy
    principals = [col0]
    for _ in range(n - 2):
        new_principals = []
        for pcol in list(principals):
            protected = principals + new_principals + [col1]
            pool = [qi for qi, col in enumerate(cols) if col not in protected]
            cols, stacked = _stack_pool_onto(k, cols, cols.index(pcol), pool, 0, max_depth)
            principals.remove(pcol)
            new_principals.extend(stacked)
        principals = new_principals

    # route every stack through its matched piece of the c1 copy
    pieces = _carve(k, col1[0], [k.vec(p[0]) for p in principals[:-1]], max_depth)
    for pcol, csub in zip(principals, _split_column(k, col1, 0, pieces, max_depth)):
        cols[cols.index(pcol)] = pcol + csub
    cols.remove(col1)
    return from_columns(k, cols + tail)


def to_dot(t, k):
    """Graphviz text for the tower: one cluster per column, edges go up."""
    lines = ["digraph tower {", "  rankdir=BT;", "  node [shape=box];"]
    for ci, col in enumerate(t.columns):
        lines.append("  subgraph cluster_c%d {" % ci)
        lines.append('    label="column %d";' % ci)
        for ri, a in enumerate(col):
            masses = " ".join(frac_text(x) for x in k.vec(a))
            lines.append('    a%d_%d [label="%s\\n%s"];' % (ci, ri, a.text(), masses))
        for ri in range(len(col) - 1):
            lines.append("    a%d_%d -> a%d_%d;" % (ci, ri, ci, ri + 1))
        lines.append("  }")
    lines.append('  base [shape=plaintext, label="base"];')
    lines.append('  top [shape=plaintext, label="top"];')
    lines.append("  top -> base [style=dashed];")
    for ci, col in enumerate(t.columns):
        lines.append("  base -> a%d_0 [style=dotted];" % ci)
        lines.append("  a%d_%d -> top [style=dotted];" % (ci, len(col) - 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
