"""Clopen subsets of the Cantor space {0,1}^N.

A clopen set is a finite union of cylinders [w] = {x : w is a prefix of x}.
Every set is stored in a canonical form: the unique antichain of binary
words covering it in which no word is a prefix of another and no two
siblings w0, w1 are both present (such a pair merges into w), sorted
lexicographically.  The empty antichain denotes the empty set and the
antichain ("",) denotes the whole space.  With this normal form, equality
of point sets is literal equality of leaf tuples.

A union sorts its words onto a stack, where a word inside the one kept
before it is dropped and sibling pairs fold into their parent (sorted,
every word between w and an extension of w extends w).  The other
operations look up each leaf x of the left operand in the sorted leaves
of the right one, b.  With i the number of leaves of b sorting at or
before x, [x] lies inside b exactly when b[i-1] is a prefix of x, and
otherwise the leaves of b inside [x] are those from i up to the first
one sorting after x + "2" ("2" sorts after both letters).  So a ⊆ b when
every leaf lies inside b, and a, b are disjoint when no leaf does or
holds a leaf of b.  In the intersection x stays whole or is cut down to
the leaves of b inside it; in the difference it is dropped, or halved
until a half holds no leaf of b (kept) or is one (dropped).  Kept leaves
and pieces come out sorted, and no two are siblings, as neither operand
has a sibling pair: both results are canonical with no normalising pass.
Whether sets inside u tile it is one walk over their sorted leaves: a leaf
inside the last one kept overlaps it, and the kept leaves cover u exactly
when they hold as many cylinders of the deepest leaf's length as u does.

The metric is d(x, y) = 2^(-k) where k is the length of the longest common
prefix, so a nonempty set has diameter 2^(-k) with k the depth of its
smallest enclosing cylinder.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from os.path import commonprefix

__all__ = [
    "ClopenSet",
    "DepthTooSmall",
    "EMPTY",
    "FULL",
    "enumerate_clopen",
    "union_all",
]


class DepthTooSmall(ValueError):
    """Asked to refine a set to a depth above one of its leaves."""


_FULL_LEAVES = ("",)


def _check_word(word):
    if not isinstance(word, str) or word.strip("01"):
        raise ValueError("cylinder words use the alphabet {0,1}, got %r" % (word,))


def _normalize(words):
    """Canonical leaves of the union of the cylinders of `words`, any order."""
    kept = []
    for w in sorted(words):
        if not kept or not w.startswith(kept[-1]):
            kept.append(w)
            while len(kept) > 1 and kept[-1][:-1] == kept[-2][:-1]:  # nonempty, distinct: siblings
                kept.pop()
                kept[-1] = kept[-1][:-1]
    return tuple(kept)


def _canonical(ws):
    """ws if canonical, else its normal form; sorted, a word's extensions and sibling follow it directly."""
    ok = len(ws) < 2 or all(x < y and not y.startswith(x) and x[:-1] != y[:-1] for x, y in zip(ws, ws[1:]))
    return ws if ok else _normalize(ws)


def _meet(a, b):
    """Canonical leaves of the intersection of canonical leaf tuples a and b."""
    out = []
    for x in a:
        i = bisect_right(b, x)
        if i and x.startswith(b[i - 1]):
            out.append(x)
        else:
            out.extend(b[i : bisect_right(b, x + "2", i)])
    return tuple(out)


def _minus(a, b):
    """Canonical leaves of a minus b, for canonical leaf tuples a and b."""
    out = []
    for x in a:
        i = bisect_right(b, x)
        if i and x.startswith(b[i - 1]):
            continue
        # (w, lo, hi): the piece [w] with the holes b[lo:hi], all inside it;
        # a loop, not recursion, as a hole n letters deep takes n halvings;
        # the 0 half goes on top, so pieces come out sorted
        stack = [(x, i, bisect_right(b, x + "2", i))]
        while stack:
            w, lo, hi = stack.pop()
            if lo == hi:
                out.append(w)
            elif b[lo] != w:
                mid = bisect_right(b, w + "02", lo, hi)
                stack.append((w + "1", mid, hi))
                stack.append((w + "0", lo, mid))
    return tuple(out)


class ClopenSet:
    """A clopen subset of {0,1}^N in canonical antichain form."""

    __slots__ = ("leaves",)

    def __init__(self, words=()):
        if isinstance(words, str):
            raise TypeError("ClopenSet takes an iterable of words, not the string %r" % (words,))
        ws = tuple(words)
        for w in ws:
            _check_word(w)
        self.leaves = _canonical(ws)

    @classmethod
    def _raw(cls, leaves):
        # internal constructor for leaves already known to be canonical
        s = cls.__new__(cls)
        s.leaves = leaves
        return s

    def union(self, other):
        return ClopenSet._raw(_normalize(self.leaves + other.leaves))

    def intersect(self, other):
        return ClopenSet._raw(_meet(self.leaves, other.leaves))

    def minus(self, other):
        return ClopenSet._raw(_minus(self.leaves, other.leaves))

    def is_subset(self, other):
        b = other.leaves
        for x in self.leaves:
            i = bisect_right(b, x)
            if not i or not x.startswith(b[i - 1]):
                return False
        return True

    def is_disjoint(self, other):
        b = other.leaves
        for x in self.leaves:
            i = bisect_right(b, x)
            if i and x.startswith(b[i - 1]) or i < len(b) and b[i].startswith(x):
                return False
        return True

    __or__ = union
    __and__ = intersect
    __sub__ = minus

    def __bool__(self):
        return bool(self.leaves)

    @property
    def is_empty(self):
        return not self.leaves

    @property
    def max_leaf_len(self):
        return max(map(len, self.leaves), default=0)

    def diameter(self):
        """2^(-k) for the deepest cylinder containing the set; 0 if empty."""
        if not self.leaves:
            return Fraction(0)
        return Fraction(1, 2 ** len(commonprefix((self.leaves[0], self.leaves[-1]))))

    def refine_to_depth(self, depth):
        """All depth-`depth` words whose cylinders make up the set, in order."""
        out = []
        for w in self.leaves:
            k = depth - len(w)
            if k < 0:
                raise DepthTooSmall("leaf %r is deeper than %d" % (w, depth))
            s = int("1" + w, 2) << k  # a leading 1 that bin() then drops
            out.extend(bin(i)[3:] for i in range(s, s + (1 << k)))
        return tuple(out)

    def text(self):
        if not self.leaves:
            return "∅"
        if self.leaves == _FULL_LEAVES:
            return "X"
        return ",".join(self.leaves)

    @classmethod
    def from_text(cls, s):
        s = s.strip()
        if s in ("∅", "empty"):
            return EMPTY
        if s == "X":
            return FULL
        parts = [p.strip() for p in s.split(",")]
        if not s or any(not p for p in parts):
            raise ValueError("bad clopen text: %r" % (s,))
        return cls(parts)

    def __eq__(self, other):
        return isinstance(other, ClopenSet) and self.leaves == other.leaves

    def __hash__(self):
        return hash(self.leaves)

    def __repr__(self):
        return "ClopenSet(%s)" % self.text()


EMPTY = ClopenSet._raw(())
FULL = ClopenSet._raw(_FULL_LEAVES)


def union_all(sets):
    """Union of many clopen sets in one normalization pass."""
    return ClopenSet._raw(_normalize([w for s in sets for w in s.leaves]))


def _tiling(sets, whole):
    """None if `sets` tile `whole`, "gap" if their union is smaller, else "overlap".

    Every set must lie inside `whole`.  Sorted, a leaf inside an earlier
    kept one is inside the last kept one, so the kept leaves are disjoint.
    """
    leaves = sorted([w for s in sets for w in s.leaves])
    depth = max(max(map(len, leaves), default=0), whole.max_leaf_len)
    covered, last, overlap = 0, "2", False  # no word extends "2"
    for w in leaves:
        if w.startswith(last):
            overlap = True
        else:
            covered += 1 << depth - len(w)
            last = w
    if covered != sum(1 << depth - len(w) for w in whole.leaves):
        return "gap"
    return "overlap" if overlap else None


@cache
def _clopen_order(depth):
    """The canonical enumeration of clopen sets of depth <= `depth`, as masks.

    A set is the mask over the 2^depth depth-`depth` words in which word i
    (read in binary) is bit 2^depth - 1 - i, so the first word is the most
    significant bit.  Sets are ordered first by the depth d their canonical
    form needs, then by the indicator bit-vector over the depth-d words; a
    vector widens to the mask by repeating each bit 2^(depth - d) times,
    which keeps that order.  A depth-d vector needs depth d exactly when
    some sibling pair of its bits differs.  Computed on first use.
    """
    order = [0, (1 << (1 << depth)) - 1]  # the empty set, then the full space
    for d in range(1, depth + 1):
        n, r = 1 << d, 1 << (depth - d)
        siblings = int("01" * (n // 2), 2)
        block = (1 << r) - 1
        for v in range(1 << n):
            if (v ^ v >> 1) & siblings:
                order.append(v if r == 1 else sum(block << i * r for i in range(n) if v >> i & 1))
    return tuple(order)


def _mask_set(mask, depth):
    """The clopen set of a depth-`depth` mask, in the bit order of _clopen_order."""
    n = 1 << depth
    return ClopenSet(bin(2 * n - 1 - b)[3:] for b in range(n - 1, -1, -1) if mask >> b & 1)


@cache
def _word_masks(depth):
    """Each word of length <= `depth` -> the mask of the depth-`depth` cylinders it meets."""
    words = [bin((2 << depth) - 1 - b)[3:] for b in range(1 << depth)]  # bit b's word, as in _mask_set
    prefixes = {w[:j] for w in words for j in range(depth + 1)}
    return {p: sum(1 << b for b, w in enumerate(words) if w.startswith(p)) for p in prefixes}


def _masks(sets, depth):
    """Per set, the mask, in _mask_set's bit order, of the depth-`depth` cylinders it meets.

    Exact on u of depth <= `depth`: a lies inside u when m(a) | m(u) == m(u),
    and misses it when m(a) & m(u) == 0."""
    table = _word_masks(depth)
    out = []
    for s in sets:
        m = 0
        for x in s.leaves:
            m |= table[x[:depth]]
        out.append(m)
    return out


def enumerate_clopen(depth_cap):
    """Canonical enumeration of clopen sets of canonical depth <= depth_cap.

    Sets are ordered first by the depth their canonical form needs, then by
    the indicator bit-vector over the depth-d words taken in lexicographic
    order.  The empty set and the full space come first.
    """
    for mask in _clopen_order(depth_cap):
        yield _mask_set(mask, depth_cap)
