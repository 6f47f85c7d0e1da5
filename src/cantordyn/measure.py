"""Bernoulli-type Borel probability measures on {0,1}^N.

A measure is specified by branching weights: p_w is the fraction of the
mass of the cylinder [w] that goes to [w0], the rest goes to [w1].  Weights
default to 1/2, so only finitely many need to be stored and the uniform
(coin-flipping) measure is the empty specification.  All arithmetic is
exact over Fraction.

A family of such measures plays the role of the generator set of a
finite-dimensional simplex of measures; the module provides the vector of
values of a clopen set under the family, equality and domination of those
vectors, structural validation with a bound table relating set diameter to
set mass, and a plain-text format for families.
"""

import re
from fractions import Fraction
from itertools import product
from math import lcm
from operator import truediv

from cantordyn.clopen import ClopenSet

__all__ = [
    "FamilyParseError",
    "FamilyReport",
    "InvalidWeights",
    "MeasureFamily",
    "TreeMeasure",
    "format_measure",
    "frac_text",
    "goodness_obstruction",
    "obstruction_text",
    "parse_family",
    "validate_family",
    "vec_text",
]

_HALF = Fraction(1, 2)
_MAX_EPS_EXP = 8


class InvalidWeights(ValueError):
    """A branching weight lies outside the open interval (0, 1)."""


class FamilyParseError(ValueError):
    """Malformed family text; carries 1-based line and column."""

    def __init__(self, line, col, msg):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


def frac_text(q):
    """Rational as num/den, always with the slash: 0/1, 1/1, 5/16."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def vec_text(vec):
    """Value vector as (1/4, 3/4)."""
    return "(%s)" % ", ".join(map(frac_text, vec))


class TreeMeasure:
    """One measure given by its non-default branching weights.

    The constructor does not range-check weights; validate_family does,
    so a structurally broken specification can still be loaded, reported
    on, and rejected in one place.

    `weights` and `depth_bound` are fixed after construction: masses are
    read from an integer table built from them.  Let `_top` be the weight
    depth (one more than the longest weighted word), so every word of
    length _top or more has weight 1/2.  For i <= _top, `_scale[i]` is
    the product over levels j < i of lcm(2, denominators of the weights
    at level j), and `_nums[w]` is mass(w) * _scale[len(w)], filled
    lazily for words of length at most _top.  Deeper masses only shift
    the denominator.  cyl and eval each build one Fraction from it.
    """

    __slots__ = ("weights", "depth_bound", "name", "_top", "_scale", "_nums")

    def __init__(self, weights=None, depth_bound=0, name=""):
        stored = {}
        if weights:
            for word, q in weights.items():
                if any(c not in "01" for c in word):
                    raise ValueError("bad branching word %r" % (word,))
                q = Fraction(q)
                if q != _HALF:
                    stored[word] = q
        self.weights = dict(sorted(stored.items()))
        need = max((len(w) + 1 for w in self.weights), default=0)
        self.depth_bound = max(int(depth_bound), need)
        self.name = name
        level = [2] * need
        for w, q in self.weights.items():
            level[len(w)] = lcm(level[len(w)], q.denominator)
        self._top = need
        self._scale = [1]
        for m in level:
            self._scale.append(self._scale[-1] * m)
        self._nums = {"": 1}

    def weight(self, word):
        return self.weights.get(word, _HALF)

    def _num(self, word):
        """mass(word) * _scale[len(word)], for len(word) <= _top."""
        nums = self._nums
        n = nums.get(word)
        if n is not None:
            return n
        i = len(word) - 1
        while word[:i] not in nums:
            i -= 1
        n = nums[word[:i]]
        scale = self._scale
        for i in range(i, len(word)):
            p = self.weight(word[:i])
            part = p.numerator if word[i] == "0" else p.denominator - p.numerator
            n *= part * (scale[i + 1] // scale[i] // p.denominator)
            nums[word[: i + 1]] = n
        return n

    def _den(self, depth):
        """Common denominator of the masses of depth-`depth` cylinders."""
        top = self._top
        if depth <= top:
            return self._scale[depth]
        return self._scale[top] << (depth - top)

    def _peak(self, depth):
        """Largest mass of a depth-`depth` cylinder."""
        # below a word that is no weight's prefix every cylinder halves
        # evenly, so one word per child of each weight prefix suffices
        top = min(depth, self._top)
        prefixes = {w[:i] for w in self.weights for i in range(len(w) + 1)} or {""}
        words = {(u + c)[:top].ljust(top, "0") for u in prefixes for c in "01"}
        return Fraction(max(map(self._num, words)), self._den(depth))

    def cyl(self, word):
        """Mass of the cylinder [word]."""
        return Fraction(self._num(word[: self._top]), self._den(len(word)))

    def eval(self, a):
        """Mass of a clopen set: its leaves' numerators over one common denominator."""
        top = self._top
        depth = max(top, a.max_leaf_len)
        den = self._den(depth)
        total = 0
        for w in a.leaves:
            if len(w) >= top:
                total += self._num(w[:top]) << (depth - len(w))
            else:
                total += self._num(w) * (den // self._scale[len(w)])
        return Fraction(total, den)

    def __eq__(self, other):
        return isinstance(other, TreeMeasure) and self.weights == other.weights

    def __hash__(self):
        return hash(tuple(self.weights.items()))

    def __repr__(self):
        return "TreeMeasure(%r, depth_bound=%d)" % (self.weights, self.depth_bound)


class MeasureFamily:
    """Finite ordered family of measures, the generators of a simplex."""

    __slots__ = ("generators", "_top")

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a family needs at least one measure")
        self.generators = gens
        # weight depth: below it every cylinder halves under every generator
        self._top = max(m._top for m in gens)

    def vec(self, a):
        """Value vector (mu_1(a), ..., mu_G(a))."""
        return tuple(m.eval(a) for m in self.generators)

    def vec_word(self, word):
        return tuple(m.cyl(word) for m in self.generators)

    def sim(self, a, b):
        """Equal mass under every generator."""
        return self.vec(a) == self.vec(b)

    def leq(self, a, b):
        return all(x <= y for x, y in zip(self.vec(a), self.vec(b)))

    def __eq__(self, other):
        return isinstance(other, MeasureFamily) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __len__(self):
        return len(self.generators)


class FamilyReport:
    """Outcome of validate_family: verdict and report lines."""

    __slots__ = ("ok", "lines")

    def __init__(self, ok, lines):
        self.ok = ok
        self.lines = tuple(lines)

    def __bool__(self):
        return self.ok


def _check_generators(k):
    """Raise InvalidWeights for a weight outside (0, 1); a line for each repeated generator."""
    for i, m in enumerate(k.generators):
        for word, q in m.weights.items():
            if not (0 < q < 1):
                text = "measure %d weight at %r is %s, not in (0,1)"
                raise InvalidWeights(text % (i, word or "e", frac_text(q)))
    firsts = [k.generators.index(m) for m in k.generators]
    return ["duplicate generators: %d and %d" % (j, i) for i, j in enumerate(firsts) if j != i]


def validate_family(k):
    """Check a family and report its diameter-to-mass bounds.

    Raises InvalidWeights if any branching weight leaves (0, 1); such a
    specification has no measure at all.  Duplicate generators make the
    family degenerate and are reported with ok=False.  For each
    eps = 2^-1 .. 2^-_MAX_EPS_EXP a report line gives a delta such that any
    clopen set of diameter < delta has mass at most eps under every
    generator: delta = 2^-(d-1) for the least depth d at which every
    depth-d cylinder already has mass at most eps.
    """
    lines = _check_generators(k)
    ok = not lines
    lines.append("generators %d, all weights in (0,1)" % len(k.generators))
    d = 1
    for j in range(1, _MAX_EPS_EXP + 1):
        eps = Fraction(1, 2 ** j)
        while max(m._peak(d) for m in k.generators) > eps:
            d += 1
        delta = Fraction(1, 2 ** (d - 1))
        lines.append("eps %s -> delta %s (depth %d)" % (frac_text(eps), frac_text(delta), d))
    return FamilyReport(ok, lines)


def goodness_obstruction(k):
    """Cylinders (A, B) with vec(A) < vec(B) that no C inside B matches, or None.

    The frontier is the children of weight prefixes, over all generators,
    that are no weight prefix.  Below a frontier word w every generator
    splits evenly, so each clopen C inside [w] has mass vec(w) * q for one
    dyadic q.  The first frontier pair (u, w) with vec(u) no dyadic
    multiple of vec(w) gives B = [w] and A = [u 0^j], j least.  None
    means the generators agree and their frontier masses share one coset
    c * 2^Z: then the family is good.
    """
    prefixes = {""} | {w[:i] for m in k.generators for w in m.weights for i in range(len(w) + 1)}
    frontier = sorted({p + c for p in prefixes for c in "01"} - prefixes)
    vecs = {f: k.vec_word(f) for f in frontier}
    for u, w in product(frontier, repeat=2):
        ratios = {x / y for x, y in zip(vecs[u], vecs[w])}
        if len(ratios) == 1 and ratios.pop().denominator.bit_count() == 1:
            continue
        # the least j with vec(u) / 2^j < vec(w) under every generator
        j = max(int(x // y).bit_length() for x, y in zip(vecs[u], vecs[w]))
        return ClopenSet([u + "0" * j]), ClopenSet([w])
    return None


def obstruction_text(k, a, b):
    """The refuting pair (A, B) of goodness_obstruction and why it refutes, in one line."""
    va, vb = k.vec(a), k.vec(b)
    return (
        "A = [%s] has masses %s < %s of B = [%s] under every generator, but every clopen "
        "C inside B has masses %s * q for one dyadic q, and the A/B ratios %s are not one dyadic q"
        % (a.text(), vec_text(va), vec_text(vb), b.text(), vec_text(vb), vec_text(map(truediv, va, vb)))
    )


_RAT_RE = re.compile(r"^[0-9]+/[0-9]+$")
_TOKEN_RE = re.compile(r"\S+")


def _parse_rational(tok, lineno, col):
    if not _RAT_RE.match(tok):
        raise FamilyParseError(lineno, col, "expected num/den, got %r" % (tok,))
    num, den = tok.split("/")
    if int(den) == 0:
        raise FamilyParseError(lineno, col, "zero denominator in %r" % (tok,))
    return Fraction(int(num), int(den))


def _ends_measure(line):
    """Whether the line is the `end measure` marker that closes a measure."""
    return line.strip() == "end measure"


def parse_family(text):
    """Parse the plain-text family format.

    One measure per `measure <name>` header, followed by optional
    `depth_bound <int>` and `weight <word> <num>/<den>` lines, where the
    word `e` names the root, and an optional `end measure` line that
    closes it, as in a tower file's generator blocks.  Blank lines and
    full-line # comments are ignored.  Weights outside (0,1) are
    rejected here so that a bad file never produces a family object.
    """
    measures = []
    names = set()
    cur = None  # [name, depth_bound or None, weights dict, header lineno]

    def finish():
        if cur is None:
            return
        name, bound, weights, lineno = cur
        need = max((len(w) + 1 for w in weights), default=0)
        if bound is not None and bound < need:
            raise FamilyParseError(
                lineno, 1, "depth_bound %d below weight depth %d in measure %s" % (bound, need, name)
            )
        measures.append(TreeMeasure(weights, bound or 0, name))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        found = list(_TOKEN_RE.finditer(raw))
        if not found or found[0].group().startswith("#"):
            continue
        toks = [t.group() for t in found]
        col, *argcols = [t.start() + 1 for t in found]
        if toks[0] == "measure":
            if len(toks) != 2:
                raise FamilyParseError(lineno, col, "measure takes exactly one name")
            if toks[1] in names:
                raise FamilyParseError(lineno, argcols[0], "duplicate measure name %r" % toks[1])
            names.add(toks[1])
            finish()
            cur = [toks[1], None, {}, lineno]
        elif toks[0] == "depth_bound":
            if cur is None:
                raise FamilyParseError(lineno, col, "depth_bound outside a measure")
            if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()):
                raise FamilyParseError(lineno, col, "depth_bound takes one nonnegative integer")
            if cur[1] is not None:
                raise FamilyParseError(lineno, col, "depth_bound given twice")
            cur[1] = int(toks[1])
        elif toks[0] == "weight":
            if cur is None:
                raise FamilyParseError(lineno, col, "weight outside a measure")
            if len(toks) != 3:
                raise FamilyParseError(lineno, col, "weight takes a word and a rational")
            word = "" if toks[1] == "e" else toks[1]
            wcol, qcol = argcols
            if any(c not in "01" for c in word):
                raise FamilyParseError(lineno, wcol, "bad branching word %r" % toks[1])
            if word in cur[2]:
                raise FamilyParseError(lineno, wcol, "duplicate weight for %r" % toks[1])
            q = _parse_rational(toks[2], lineno, qcol)
            if not (0 < q < 1):
                raise FamilyParseError(lineno, qcol, "weight %s not in (0,1)" % frac_text(q))
            cur[2][word] = q
        elif _ends_measure(raw):
            if cur is None:
                raise FamilyParseError(lineno, col, "end measure outside a measure")
            finish()
            cur = None
        else:
            raise FamilyParseError(lineno, col, "unknown keyword %r" % toks[0])
    finish()
    if not measures:
        raise FamilyParseError(1, 1, "no measures in file")
    return MeasureFamily(measures)


def format_measure(m, i):
    """Format lines of m, the i-th generator of its family."""
    out = ["measure %s" % (m.name or "mu%d" % i), "depth_bound %d" % m.depth_bound]
    for word, q in m.weights.items():
        out.append("weight %s %s" % (word or "e", frac_text(q)))
    return out
