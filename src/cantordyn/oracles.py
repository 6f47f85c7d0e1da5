"""Exact selection oracles over a measure family.

Everything here answers one kind of question: inside a given clopen host,
find a clopen subset whose value vector under every generator of the
family lands in a prescribed box.  Full support (all branching weights in
(0,1)) makes the search finite at each cylinder depth: refine the host to
depth d, group the leaf cylinders into runs of equal value vector, and run
an exact subset-sum sweep over the runs.  Taking the largest admissible
count from each run, first leaves first, makes the answer canonical.

On top of that sit the derived operations: copying a value vector into a
host, dividing a set into n almost-equal pieces, stamping out n disjoint
copies, realizing an affine combination of partition masses, and building
a stagewise partition bijection carrying one clopen set onto another of
equal vector while eventually separating all clopen sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from cantordyn.clopen import EMPTY, FULL, ClopenSet, enumerate_clopen, union_all
from cantordyn.measure import frac_text

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


def _vec_text(vec):
    return "(" + ", ".join(frac_text(q) for q in vec) + ")"


def _solve_at_depth(words, vecs, lo, hi):
    """Choose leaves whose vectors sum into [lo, hi], or None.

    Consecutive leaves with equal vectors form a run; within a run only
    the count matters, and the chosen count is always taken from the
    run's first leaves.  Among all solutions this picks the largest
    feasible count at every run, left to right.
    """
    g = len(lo)
    zero = (Fraction(0),) * g
    runs = []
    bounds = []
    start = 0
    for i in range(1, len(words) + 1):
        if i == len(words) or vecs[i] != vecs[start]:
            runs.append((vecs[start], i - start))
            bounds.append(start)
            start = i
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
            cur = acc
            for t in range(c + 1):
                if t:
                    cur = tuple(a + x for a, x in zip(cur, v))
                    # vectors are strictly positive: once over, always over
                    if any(a > h for a, h in zip(cur, hi)):
                        break
                if all(a + s >= l for a, s, l in zip(cur, tail, lo)):
                    nxt.add(cur)
        if not nxt:
            return None
        layers.append(nxt)
    feas = [set() for _ in range(len(runs) + 1)]
    feas[-1] = {acc for acc in layers[-1] if all(l <= a for l, a in zip(lo, acc))}
    if not feas[-1]:
        return None
    for j in range(len(runs) - 1, -1, -1):
        v, c = runs[j]
        ok = set()
        for acc in layers[j]:
            cur = acc
            for t in range(c + 1):
                if t:
                    cur = tuple(a + x for a, x in zip(cur, v))
                if cur in feas[j + 1]:
                    ok.add(acc)
                    break
        feas[j] = ok
    if zero not in feas[0]:
        return None
    chosen = []
    acc = zero
    for j, (v, c) in enumerate(runs):
        for t in range(c, -1, -1):
            cand = tuple(a + t * x for a, x in zip(acc, v))
            if cand in feas[j + 1]:
                chosen.extend(words[bounds[j] : bounds[j] + t])
                acc = cand
                break
    return tuple(chosen)


def subset_in_box(k, host, lo, hi, max_depth=12):
    """Clopen subset of host with value vector in [lo, hi], or None.

    Tries cylinder depths from the host's own depth up to max_depth and
    returns the canonical solution at the first depth that has one.
    """
    lo = tuple(Fraction(x) for x in lo)
    hi = tuple(Fraction(x) for x in hi)
    if any(l > h for l, h in zip(lo, hi)):
        return None
    hv = k.vec(host)
    if all(l <= x <= h for l, x, h in zip(lo, hv, hi)):
        return host
    if host.is_empty:
        return None
    for d in range(host.max_leaf_len, max_depth + 1):
        words = host.refine_to_depth(d)
        vecs = [k.vec_word(w) for w in words]
        sol = _solve_at_depth(words, vecs, lo, hi)
        if sol is not None:
            return ClopenSet(sol)
    return None


def select_copy(k, target, host, max_depth=12):
    """Clopen subset of host with value vector exactly `target`.

    Raises ValueError if the target exceeds the host in some generator
    and GoodnessFailure if no subset attains it within max_depth.  Under
    full support a proper subset loses mass under every generator at
    once, so a target matching the host in some generators but not all
    is refused without searching.
    """
    target = tuple(Fraction(x) for x in target)
    hv = k.vec(host)
    if any(t > x for t, x in zip(target, hv)):
        raise ValueError("target %s exceeds host %s" % (_vec_text(target), _vec_text(hv)))
    if target == hv:
        return host
    if all(t == 0 for t in target):
        return EMPTY
    if any(t == x for t, x in zip(target, hv)):
        raise GoodnessFailure(
            "target %s matches host %s in some generators but not all"
            % (_vec_text(target), _vec_text(hv)),
            max_depth,
        )
    s = subset_in_box(k, host, target, target, max_depth)
    if s is None:
        raise GoodnessFailure(
            "no subset of %s attains %s" % (host.text(), _vec_text(target)), max_depth
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
