"""Exact selection oracles over a measure family.

Everything here answers one kind of question: inside a given clopen host,
find a clopen subset whose value vector under every generator of the
family lands in a prescribed box.  Full support (all branching weights in
(0,1)) makes the search finite at each cylinder depth d: the host's
depth-d cylinders have integer value vectors over per-generator common
denominators, consecutive cylinders of equal vector form runs, and an
exact integer subset-sum search over the runs picks a count from each.
Below the family's weight depth cylinders split evenly, so the runs are
read off the host's own leaves, one block of equal cylinders per leaf;
only leaves shorter than the weight depth are refined.  Taking the
largest admissible count from each run, first cylinders first, makes the
answer canonical.  Everything past the public entry points is integer:
the host's vector, the bounds, the box and every comparison between
them, and the tower's moves enter at _select with integer targets.
Feasibility only grows with depth, so a box with no integer point at
max_depth is refused without a search, and a failed search past the
weight depth is followed by one at max_depth that may refuse at once.

On top of that sit the derived operations: copying a value vector into a
host, dividing a set into n almost-equal pieces, stamping out n disjoint
copies, and realizing an affine combination of partition masses.
"""

from fractions import Fraction
from itertools import groupby
from math import lcm

from cantordyn.clopen import EMPTY, FULL, ClopenSet, _tiling, union_all
from cantordyn.measure import vec_text

__all__ = [
    "DivisibilityFailure",
    "GoodnessFailure",
    "NotEquivalent",
    "SearchFailure",
    "affine_approx",
    "approx_divide",
    "goodness_select",
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
    the largest feasible count at every run, left to right: a depth-first
    search tries each run's admissible counts largest first, so the first
    complete path is that solution.  It remembers, per run, the partial
    sums from which the box cannot be reached, so no state is searched
    twice.
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
    # the path: counts so far, the partial sum before each run on it, and
    # per run on it the counts not tried yet (a stack, since nothing caps
    # the number of runs)
    counts, sums, todo = [], [zero], []
    dead = [()] * (len(runs) + 1)  # per run, the sums before it that miss the box; a set from the first
    while len(counts) < len(runs):
        j = len(counts)
        if len(todo) == j:
            v, c = runs[j]
            a, b = _span(sums[j], v, c, suffix[j + 1], lo, hi)
            todo.append(iter(range(b, a - 1, -1)))
        t = next(todo[j], None)
        if t is None:
            if not dead[j]:
                dead[j] = set()
            dead[j].add(sums.pop())
            todo.pop()
            if not counts:
                return None
            counts.pop()
            continue
        acc = tuple(x + t * y for x, y in zip(sums[j], runs[j][0]))
        if acc not in dead[j + 1]:
            counts.append(t)
            sums.append(acc)
    # the last run's tail is zero, so the final sum lies in the box
    return counts


def _first_words(w, r, s):
    """Leaves covering the first r of the 2^s depth-(len(w)+s) words below w."""
    # one dyadic interval per set bit of r
    return [w + format((r >> i) - 1, "0%db" % (s - i)) for i in range(s) if r >> i & 1]


def _vector(k, vec, what):
    vec = tuple(Fraction(x) for x in vec)
    if len(vec) != len(k):
        raise ValueError("%s has %d entries but the family has %d generators" % (what, len(vec), len(k)))
    return vec


def _pairs_text(pairs):
    """(numerator, denominator) pairs as vec_text prints their Fractions."""
    return vec_text(Fraction(p, q) for p, q in pairs)


def _ints(k, host):
    """host's vector as one (numerator, denominator) pair per generator, at host's depth."""
    d = host.max_leaf_len
    return [(m._int(host, d), m._den(d)) for m in k.generators]


def subset_in_box(k, host, lo, hi, max_depth=12):
    """Clopen subset of host with value vector in [lo, hi], or None.

    Tries cylinder depths d from the host's own depth up to max_depth and
    returns the canonical solution at the first depth that has one.  At
    depth d generator i's masses are integers over one denominator D_i,
    so the box becomes ceil(lo_i D_i) .. floor(hi_i D_i), exactly.  A box
    point or a solution at depth d is one at every deeper depth, so a box
    with no point at max_depth is refused before any search, and after
    the first failed search past the weight depth one search at max_depth
    decides whether any depth up to the cap can succeed.  Below the
    family's weight depth every depth-d cylinder under a word has the
    same vector, so only host leaves shorter than e = min(d, weight depth)
    are refined, to depth e: each word w is then a block of 2^(d-|w|)
    equal cylinders, and adjacent blocks of equal vector merge into runs.
    Past the weight depth only the denominators, the box and the run
    counts change with d.  A chosen count takes whole blocks of its run,
    then the first depth-d words inside the block where it ends.
    """
    lo = _vector(k, lo, "lower bound")
    hi = _vector(k, hi, "upper bound")
    bounds = [(l.numerator, l.denominator, h.numerator, h.denominator) for l, h in zip(lo, hi)]
    return _in_box(k, host, bounds, max_depth, _ints(k, host))


def _in_box(k, host, bounds, max_depth, hv):
    """subset_in_box for bounds lo = a/b, hi = c/e as (a, b, c, e) per generator; hv from _ints."""
    if max_depth < 0:
        raise ValueError("max_depth must be at least 0, got %d" % max_depth)
    gens = k.generators

    def box(d):
        """The integer box at depth d, one (low, high) per generator, or None when it is empty."""
        pts = []
        for m, (a, b, c, e) in zip(gens, bounds):
            n = m._den(d)
            pts.append((-(-a * n // b), c * n // e))
            if pts[-1][0] > pts[-1][1]:
                return None
        return pts

    base = host.max_leaf_len
    ib = box(base)
    if ib is not None and all(l <= x <= h for (l, h), (x, _) in zip(ib, hv)):
        return host
    if host.is_empty or base > max_depth or ib is None and box(max_depth) is None:
        return None
    top = k._top
    probe = True  # no search at max_depth yet
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
        if d > base:
            ib = box(d)
        if ib is None:
            continue
        counts = _solve_at_depth(_sized(runs, d), *zip(*ib))
        if counts is None:
            # the runs are those of every deeper depth, so if max_depth
            # has no solution either, no depth up to it has one
            if probe and top <= d < max_depth:
                probe = False
                if _solve_at_depth(_sized(runs, max_depth), *zip(*box(max_depth))) is None:
                    return None
            continue
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


def _sized(runs, d):
    """The runs' vectors with their counts of depth-d cylinders."""
    return [(v, sum(1 << (d - len(b)) for b in bs)) for v, bs in runs]


def select_copy(k, target, host, max_depth=12):
    """Clopen subset of host with value vector exactly `target`.

    Raises ValueError if the target has a negative entry or exceeds the
    host in some generator, and GoodnessFailure if no subset attains it
    within max_depth.  Under full support a proper subset loses mass
    under every generator at once, so a target matching the host in some
    generators but not all is refused without searching.
    """
    return _select(k, [(t.numerator, t.denominator) for t in _vector(k, target, "target")], host, max_depth)


def _select(k, pairs, host, max_depth):
    """select_copy for one (numerator, denominator) target pair per generator, as select_copy and _ints give."""
    if any(p < 0 for p, _ in pairs):
        raise ValueError("target %s has a negative entry" % _pairs_text(pairs))
    hv = _ints(k, host)
    # target minus host, cross-multiplied: its sign per generator
    diff = [p * y - x * q for (p, q), (x, y) in zip(pairs, hv)]
    if any(s > 0 for s in diff):
        raise ValueError("target %s exceeds host %s" % (_pairs_text(pairs), _pairs_text(hv)))
    if not any(p for p, _ in pairs):
        return EMPTY
    if any(diff) and not all(diff):
        raise GoodnessFailure(
            "target %s matches host %s in some generators but not all" % (_pairs_text(pairs), _pairs_text(hv)), None
        )
    s = _in_box(k, host, [pq * 2 for pq in pairs], max_depth, hv)
    if s is None:
        raise GoodnessFailure("no subset of %s attains %s" % (host.text(), _pairs_text(pairs)), max_depth)
    return s


def goodness_select(k, a, b, max_depth=12):
    """Subset of b with the same value vector as a; needs vec(a) <= vec(b)."""
    if not k.leq(a, b):
        raise ValueError("vec(a) must be dominated by vec(b)")
    return select_copy(k, k.vec(a), b, max_depth)


def approx_divide(k, a, n, eps=Fraction(0), max_depth=12):
    """Subset b of a with mu(a) - eps <= n*mu(b) <= mu(a) per generator, for an integer n >= 1."""
    if a.is_empty:
        raise ValueError("cannot divide the empty set")
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if n % 1:
        raise ValueError("need an integer n, got %r" % (n,))
    n, p, q = int(n), eps.numerator, eps.denominator
    hv = _ints(k, a)
    # lo = max(0, (x/y - p/q) / n) and hi = x/y / n
    bounds = [(max(0, x * q - p * y), y * q * n, x, y * n) for x, y in hv]
    s = _in_box(k, a, bounds, max_depth, hv)
    if s is None:
        raise DivisibilityFailure(
            "no n-th part of %s for n=%d, eps=%s/%s" % (a.text(), n, p, q), max_depth
        )
    return s


def _carve(k, host, vecs, max_depth):
    """Pieces of host matching vecs, picked off in order, then the remainder;
    each vector is integer pairs, as _select takes them and _ints reads them."""
    pieces = []
    for vec in vecs:
        piece = _select(k, vec, host, max_depth)
        pieces.append(piece)
        host = host - piece
    pieces.append(host)
    return pieces


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
    fault = _tiling(parts, FULL)
    if fault:
        raise ValueError("pieces do not cover the space" if fault == "gap" else "pieces overlap")
    m = lcm(*(v.denominator for v in vals)) if vals else 1
    ns = [int(v * m) for v in vals]
    total = sum(ns)
    if total == 0:
        return EMPTY
    delta = eps * m / total
    pieces = []
    for p, n in zip(parts, ns):
        if n == 0 or p.is_empty:
            continue
        if n == m:
            pieces.append(p)
            continue
        b = approx_divide(k, p, m, delta, max_depth)
        # b and n - 1 disjoint copies of it carved from the rest of p
        pieces.extend((b, *_carve(k, p - b, [_ints(k, b)] * (n - 1), max_depth)[:-1]))
    return union_all(pieces)
