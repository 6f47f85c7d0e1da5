"""Clopen subsets of the Cantor space {0,1}^N.

A clopen set is a finite union of cylinders [w] = {x : w is a prefix of x}.
Every set is stored in a canonical form: the unique antichain of binary
words covering it in which no word is a prefix of another and no two
siblings w0, w1 are both present (such a pair merges into w), sorted
lexicographically.  The empty antichain denotes the empty set and the
antichain ("",) denotes the whole space.  With this normal form, equality
of point sets is literal equality of leaf tuples.

The Boolean operations work on integers.  At a depth D no smaller than any
leaf, [w] is the interval [m 2^(D-|w|), (m+1) 2^(D-|w|)) of depth-D words
read as binary numbers (m is w read in binary), in the lexicographic order
of the leaves.  One sweep over the sorted endpoints of both operands keeps
the maximal runs where the result holds, and each run is cut greedily into
the largest aligned blocks [j 2^k, (j+1) 2^k), i.e. cylinders.  The cut is
canonical: blocks of one run are never siblings (the greedy step would have
taken their parent), runs are not adjacent, and a sibling-free antichain is
the set of maximal cylinders in its union.  On canonical b, x lies inside b
exactly when the last leaf of b sorting at or before x is a prefix of x.

The metric is d(x, y) = 2^(-k) where k is the length of the longest common
prefix, so a nonempty set has diameter 2^(-k) with k the depth of its
smallest enclosing cylinder.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from os.path import commonprefix

__all__ = [
    "ClopenSet",
    "DepthTooSmall",
    "EMPTY",
    "FULL",
    "enumerate_clopen",
    "normalize",
    "union_all",
]


class DepthTooSmall(ValueError):
    """Asked to refine a set to a depth above one of its leaves."""


_FULL_LEAVES = ("",)

# keep[(x in a) + 2 * (x in b)]: is x in the result of the operation?
_UNION = (False, True, True, True)
_INTER = (False, False, False, True)
_MINUS = (False, True, False, False)
_COMPL = (True, False, False, False)


def _check_word(word):
    if not isinstance(word, str) or any(c not in "01" for c in word):
        raise ValueError("cylinder words use the alphabet {0,1}, got %r" % (word,))


def _sweep(a, b, keep):
    """Canonical leaves of the points x with keep[(x in a) + 2 * (x in b)].

    The cylinders of the word tuples `a` and `b` may overlap, in any order.
    """
    depth = max(map(len, a + b), default=0)
    top = 1 << depth  # set in every position, so that bin() keeps leading zeros
    events = []  # position << 2 | entering << 1 | operand
    for tag, words in ((0, a), (1, b)):
        for w in words:
            k = depth - len(w)
            s = int("1" + w, 2) << k
            events.append(s << 2 | 2 | tag)
            events.append((s + (1 << k)) << 2 | tag)
    events.sort()
    count = [0, 0]
    inside = keep[0]
    bounds = [top] if inside else []
    for ev in events:
        count[ev & 1] += 1 if ev & 2 else -1
        now = keep[(count[0] > 0) + 2 * (count[1] > 0)]
        if now is not inside:
            inside = now
            pos = ev >> 2
            if bounds and bounds[-1] == pos:
                bounds.pop()  # changed twice at one point: no boundary
            else:
                bounds.append(pos)
    if inside:
        bounds.append(top << 1)
    leaves = []
    it = iter(bounds)
    for s, e in zip(it, it):
        while s < e:
            # the largest block aligned at s that fits in [s, e)
            k = min((s & -s).bit_length(), (e - s).bit_length()) - 1
            leaves.append(bin(s >> k)[3:])
            s += 1 << k
    return tuple(leaves)


class ClopenSet:
    """A clopen subset of {0,1}^N in canonical antichain form."""

    __slots__ = ("leaves", "_hash")

    def __init__(self, words=()):
        if isinstance(words, ClopenSet):
            self.leaves = words.leaves
        elif isinstance(words, str):
            raise TypeError("ClopenSet takes an iterable of words, not the string %r" % (words,))
        else:
            ws = tuple(words)
            for w in ws:
                _check_word(w)
            self.leaves = _sweep(ws, (), _UNION)
        self._hash = None

    @classmethod
    def _raw(cls, leaves):
        # internal constructor for leaves already known to be canonical
        s = cls.__new__(cls)
        s.leaves = leaves
        s._hash = None
        return s

    def union(self, other):
        return ClopenSet._raw(_sweep(self.leaves, other.leaves, _UNION))

    def intersect(self, other):
        return ClopenSet._raw(_sweep(self.leaves, other.leaves, _INTER))

    def minus(self, other):
        return ClopenSet._raw(_sweep(self.leaves, other.leaves, _MINUS))

    def complement(self):
        return ClopenSet._raw(_sweep(self.leaves, (), _COMPL))

    def is_subset(self, other):
        b = other.leaves
        for x in self.leaves:
            i = bisect_right(b, x)
            if not i or not x.startswith(b[i - 1]):
                return False
        return True

    __or__ = union
    __and__ = intersect
    __sub__ = minus

    def __invert__(self):
        return self.complement()

    def __le__(self, other):
        return self.is_subset(other)

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
        h = self._hash
        if h is None:
            h = self._hash = hash(self.leaves)
        return h

    def __repr__(self):
        return "ClopenSet(%s)" % self.text()


EMPTY = ClopenSet._raw(())
FULL = ClopenSet._raw(_FULL_LEAVES)


def normalize(words):
    """Canonical ClopenSet covering exactly the given cylinder words."""
    return ClopenSet(words)


def union_all(sets):
    """Union of many clopen sets in one normalization pass."""
    words = []
    for s in sets:
        words.extend(s.leaves)
    return ClopenSet._raw(_sweep(tuple(words), (), _UNION))


def enumerate_clopen(depth_cap=None):
    """Canonical enumeration of clopen sets of canonical depth <= depth_cap.

    Sets are ordered first by the depth their canonical form needs, then by
    the indicator bit-vector over the depth-d words taken in lexicographic
    order.  The empty set and the full space come first.  With depth_cap
    None the iterator never stops.
    """
    yield EMPTY
    yield FULL
    d = 1
    while depth_cap is None or d <= depth_cap:
        words = ["".join(t) for t in product("01", repeat=d)]
        for bits in product((0, 1), repeat=len(words)):
            s = ClopenSet(w for w, b in zip(words, bits) if b)
            if s.max_leaf_len == d:
                yield s
        d += 1
