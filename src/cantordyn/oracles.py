"""Exact selection oracles over a measure family.

Everything here answers one kind of question: inside a given clopen host,
find a clopen subset whose value vector under every generator of the
family lands in a prescribed box.  Full support (all branching weights in
(0,1)) makes the search finite at each cylinder depth d: the host's
depth-d cylinders have integer value vectors over per-generator common
denominators, consecutive cylinders of equal vector form runs, and an
exact integer subset-sum sweep over the runs picks a count from each.
Below the family's weight depth cylinders split evenly, so the runs are
read off the host's own leaves, one block of equal cylinders per leaf;
only leaves shorter than the weight depth are refined.  Taking the
largest admissible count from each run, first cylinders first, makes the
answer canonical.  The sweep works on integers; Fraction stays at the
boundary (the box, the host's vector).

On top of that sit the derived operations: copying a value vector into a
host, dividing a set into n almost-equal pieces, stamping out n disjoint
copies, realizing an affine combination of partition masses, and building
a stagewise partition bijection carrying one clopen set onto another of
equal vector while eventually separating all clopen sets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm

from cantordyn.clopen import EMPTY, FULL, ClopenSet, enumerate_clopen, union_all
from cantordyn.measure import vec_text

__all__ = [
    "DivisibilityFailure",
    "GoodnessFailure",
    "NotEquivalent",
    "PartitionBijection",
    "SearchFailure",
    "affine_approx",
    "approx_divide",
    "build_k_automorphism",
    "goodness_select",
    "n_copies",
    "select_copy",
    "subset_in_box",
]


class SearchFailure(Exception):
    """A selection oracle found no clopen subset, searching to max_depth."""

    def __init__(self, detail, max_depth=None):
        if max_depth is not None:
            detail = "%s (searched to depth %d)" % (detail, max_depth)
        super().__init__(detail)
        self.max_depth = max_depth


class GoodnessFailure(SearchFailure):
    """No clopen subset of the host attains the requested vector."""


class DivisibilityFailure(SearchFailure):
    """No clopen subset lands in the division box."""


class NotEquivalent(ValueError):
    """The two sets differ in mass under some generator."""


def _span(acc, v, c, tail, lo, hi):
    """Counts t in 0..c with acc + t*v <= hi and acc + t*v + tail >= lo.

    Vector entries are nonnegative, so those counts are one interval:
    returns its ends (a, b), with a > b when it is empty.
    """
    a, b = 0, c
    for x, y, s, l, h in zip(acc, v, tail, lo, hi):
        if y:
            b = min(b, (h - x) // y)
            a = max(a, -((x + s - l) // y))
        elif x + s < l:
            return 1, 0
    return a, b


def _solve_at_depth(runs, lo, hi):
    """Count to take from each run so the sums land in [lo, hi], or None.

    A run (v, c) stands for c consecutive cylinders of one integer vector
    v; within a run only the count matters.  The bounds are integer
    vectors over the same denominators.  Among all solutions this picks
    the largest feasible count at every run, left to right.
    """
    zero = (0,) * len(lo)
    if any(h < 0 for h in hi):  # sums start at zero and never shrink
        return None
    suffix = [zero] * (len(runs) + 1)
    for j in range(len(runs) - 1, -1, -1):
        v, c = runs[j]
        suffix[j] = tuple(s + c * x for s, x in zip(suffix[j + 1], v))
    if any(s < l for s, l in zip(suffix[0], lo)):
        return None
    layers = [{zero}]
    for j, (v, c) in enumerate(runs):
        nxt = set()
        tail = suffix[j + 1]
        for acc in layers[-1]:
            a, b = _span(acc, v, c, tail, lo, hi)
            for t in range(a, b + 1):
                nxt.add(tuple(x + t * y for x, y in zip(acc, v)))
        if not nxt:
            return None
        layers.append(nxt)
    # the last run's tail is zero, so every final sum already lies in the box
    feas = [None] * len(runs) + [layers[-1]]
    for j in range(len(runs) - 1, -1, -1):
        v, c = runs[j]
        tail = suffix[j + 1]
        after = feas[j + 1]
        ok = set()
        for acc in layers[j]:
            a, b = _span(acc, v, c, tail, lo, hi)
            for t in range(a, b + 1):
                if tuple(x + t * y for x, y in zip(acc, v)) in after:
                    ok.add(acc)
                    break
        feas[j] = ok
    if zero not in feas[0]:
        return None
    counts = []
    acc = zero
    for j, (v, c) in enumerate(runs):
        a, b = _span(acc, v, c, suffix[j + 1], lo, hi)
        for t in range(b, a - 1, -1):
            cand = tuple(x + t * y for x, y in zip(acc, v))
            if cand in feas[j + 1]:
                counts.append(t)
                acc = cand
                break
    return counts


def _first_words(w, r, s):
    """Leaves covering the first r of the 2^s depth-(len(w)+s) words below w."""
    # one dyadic interval per set bit of r
    return [w + format((r >> i) - 1, "0%db" % (s - i)) for i in range(s) if r >> i & 1]


def _vector(k, vec, what):
    vec = tuple(Fraction(x) for x in vec)
    if len(vec) != len(k):
        raise ValueError(
            "%s has %d entries but the family has %d generators" % (what, len(vec), len(k))
        )
    return vec


def subset_in_box(k, host, lo, hi, max_depth=12):
    """Clopen subset of host with value vector in [lo, hi], or None.

    Tries cylinder depths d from the host's own depth up to max_depth and
    returns the canonical solution at the first depth that has one.  At
    depth d generator i's masses are integers over one denominator D_i,
    so the box becomes ceil(lo_i D_i) .. floor(hi_i D_i), exactly.  Below
    the family's weight depth every depth-d cylinder under a word has the
    same vector, so only host leaves shorter than e = min(d, weight depth)
    are refined, to depth e: each word w is then a block of 2^(d-|w|)
    equal cylinders, and adjacent blocks of equal vector merge into runs.
    Past the weight depth only the denominators, the box and the run
    counts change with d.  A chosen count takes whole blocks of its run,
    then the first depth-d words inside the block where it ends.
    """
    lo = _vector(k, lo, "lower bound")
    hi = _vector(k, hi, "upper bound")
    if any(l > h for l, h in zip(lo, hi)):
        return None
    hv = k.vec(host)
    if all(l <= x <= h for l, x, h in zip(lo, hv, hi)):
        return host
    if host.is_empty:
        return None
    base = host.max_leaf_len
    top = k._top
    gens = k.generators
    for d in range(base, max_depth + 1):
        if d == base or d <= top:  # past the weight depth the runs stay put
            e = min(d, top)
            blocks = [
                w + format(i, "0%db" % (e - len(w))) if len(w) < e else w
                for w in host.leaves
                for i in range(1 << max(e - len(w), 0))
            ]
            runs = [
                (v, list(bs))
                for v, bs in groupby(blocks, lambda b: tuple(m._num(b[: m._top]) for m in gens))
            ]
        dens = tuple(m._den(d) for m in gens)
        ilo = tuple(-(-l.numerator * n // l.denominator) for l, n in zip(lo, dens))
        ihi = tuple(h.numerator * n // h.denominator for h, n in zip(hi, dens))
        if any(l > h for l, h in zip(ilo, ihi)):
            continue
        sized = [(v, sum(1 << (d - len(b)) for b in bs)) for v, bs in runs]
        counts = _solve_at_depth(sized, ilo, ihi)
        if counts is not None:
            chosen = []
            for (_, bs), t in zip(runs, counts):
                for b in bs:
                    if not t:
                        break
                    s = d - len(b)
                    chosen.extend((b,) if t >> s else _first_words(b, t, s))
                    t -= min(t, 1 << s)
            return ClopenSet(chosen)
    return None


def select_copy(k, target, host, max_depth=12):
    """Clopen subset of host with value vector exactly `target`.

    Raises ValueError if the target has a negative entry or exceeds the
    host in some generator, and GoodnessFailure if no subset attains it
    within max_depth.  Under full support a proper subset loses mass
    under every generator at once, so a target matching the host in some
    generators but not all is refused without searching.
    """
    target = _vector(k, target, "target")
    if any(t < 0 for t in target):
        raise ValueError("target %s has a negative entry" % vec_text(target))
    hv = k.vec(host)
    if any(t > x for t, x in zip(target, hv)):
        raise ValueError("target %s exceeds host %s" % (vec_text(target), vec_text(hv)))
    if target == hv:
        return host
    if all(t == 0 for t in target):
        return EMPTY
    if any(t == x for t, x in zip(target, hv)):
        raise GoodnessFailure(
            "target %s matches host %s in some generators but not all"
            % (vec_text(target), vec_text(hv)),
            None,
        )
    s = subset_in_box(k, host, target, target, max_depth)
    if s is None:
        raise GoodnessFailure(
            "no subset of %s attains %s" % (host.text(), vec_text(target)), max_depth
        )
    return s


def goodness_select(k, a, b, max_depth=12):
    """Subset of b with the same value vector as a; needs vec(a) <= vec(b)."""
    if not k.leq(a, b):
        raise ValueError("vec(a) must be dominated by vec(b)")
    return select_copy(k, k.vec(a), b, max_depth)


def approx_divide(k, a, n, eps=Fraction(0), max_depth=12):
    """Subset b of a with mu(a) - eps <= n*mu(b) <= mu(a) per generator."""
    if a.is_empty:
        raise ValueError("cannot divide the empty set")
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    av = k.vec(a)
    lo = tuple(max(Fraction(0), (x - eps) / n) for x in av)
    hi = tuple(x / n for x in av)
    s = subset_in_box(k, a, lo, hi, max_depth)
    if s is None:
        raise DivisibilityFailure(
            "no n-th part of %s for n=%d, eps=%s/%s"
            % (a.text(), n, eps.numerator, eps.denominator),
            max_depth,
        )
    return s


def n_copies(k, b, a, n, max_depth=12):
    """n pairwise disjoint subsets of a matching vec(b); the first is b."""
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    if not b.is_subset(a):
        raise ValueError("b must be a subset of a")
    tv = k.vec(b)
    copies = [b]
    rem = a - b
    for _ in range(n - 1):
        c = select_copy(k, tv, rem, max_depth)
        copies.append(c)
        rem = rem - c
    return tuple(copies)


class PartitionBijection:
    """Stagewise matched refinements of two clopen partitions.

    stages[n] is a tuple of (source, target) pairs; at every stage the
    sources partition the space, the targets partition the space, and
    matched pieces share their value vector.  Stage n+1 refines stage n
    on both sides.
    """

    __slots__ = ("stages",)

    def __init__(self, stages):
        self.stages = tuple(tuple(s) for s in stages)

    def matched(self, n):
        return self.stages[n]

    def sources(self, n):
        return tuple(c for c, _ in self.stages[n])

    def targets(self, n):
        return tuple(d for _, d in self.stages[n])

    def __len__(self):
        return len(self.stages)


def build_k_automorphism(k, u, v, n_stages, depth_cap=None, max_depth=12):
    """Partition bijection carrying u onto v, one enumerated set per stage.

    Stage 0 matches u with v and the complement with the complement.
    Each later stage takes the next set A from the canonical clopen
    enumeration and splits every matched pair first along A on the source
    side, then along A on the target side, selecting the partner piece
    inside the old partner.  When the partner's own intersection with A
    already has the right vector it is used as is, so matching u to u
    yields refinements of the identity.
    """
    if not k.sim(u, v):
        raise NotEquivalent("u and v differ in mass under some generator")
    first = [(u, v), (u.complement(), v.complement())]
    stage = tuple((c, d) for c, d in first if not c.is_empty)
    stages = [stage]
    gen = enumerate_clopen(depth_cap)
    for _ in range(n_stages):
        try:
            a = next(gen)
        except StopIteration:
            raise ValueError("depth cap %r exhausted before %d stages" % (depth_cap, n_stages))
        nxt = []
        for c, d in stages[-1]:
            c0 = c & a
            c1 = c - a
            if c0.is_empty or c1.is_empty:
                nxt.append((c, d))
                continue
            d0 = d & a
            if k.vec(d0) != k.vec(c0):
                d0 = select_copy(k, k.vec(c0), d, max_depth)
            nxt.append((c0, d0))
            nxt.append((c1, d - d0))
        out = []
        for c, d in nxt:
            d0 = d & a
            d1 = d - a
            if d0.is_empty or d1.is_empty:
                out.append((c, d))
                continue
            c0 = c & a
            if k.vec(c0) != k.vec(d0):
                c0 = select_copy(k, k.vec(d0), c, max_depth)
            out.append((c0, d0))
            out.append((c - c0, d1))
        stages.append(tuple(out))
    return PartitionBijection(stages)


def affine_approx(k, partition, values, eps, max_depth=12):
    """Clopen set meeting each piece A_j in roughly values[j] of its mass.

    The result S satisfies, for every generator and every j,
    values[j]*mu(A_j) - eps <= mu(S & A_j) <= values[j]*mu(A_j), with the
    total shortfall over all pieces at most eps.  Values must be
    rationals in [0, 1] and the pieces must partition the space.
    """
    parts = tuple(partition)
    vals = tuple(Fraction(v) for v in values)
    if len(parts) != len(vals):
        raise ValueError("partition and values differ in length")
    if any(not (0 <= v <= 1) for v in vals):
        raise ValueError("values must lie in [0, 1]")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if union_all(parts) != FULL:
        raise ValueError("pieces do not cover the space")
    if sum((k.generators[0].eval(p) for p in parts), Fraction(0)) != 1:
        raise ValueError("pieces overlap")
    m = lcm(*(v.denominator for v in vals)) if vals else 1
    ns = [int(v * m) for v in vals]
    total = sum(ns)
    if total == 0:
        return EMPTY
    if m == 1:
        return union_all(p for p, n in zip(parts, ns) if n)
    delta = eps * m / total
    pieces = []
    for p, n in zip(parts, ns):
        if n == 0 or p.is_empty:
            continue
        if n == m:
            pieces.append(p)
            continue
        b = approx_divide(k, p, m, delta, max_depth)
        pieces.extend(n_copies(k, b, p, n, max_depth))
    return union_all(pieces)
