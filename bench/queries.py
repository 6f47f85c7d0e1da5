"""Seeded selection-oracle queries with verdicts decided independently.

Every family used here has its non-even branching weights above depth 2,
so below a depth-2 cylinder c every measure splits evenly and each depth-D
leaf under c carries vec(c) * 2^-(D - 2).  A host made of cylinders of
depth 2..4 therefore has, at depth D, N_c leaves of vector u_c for at most
two distinct vectors u_c, and the vectors of its clopen subsets that
`subset_in_box` can reach by depth D are exactly the sums j_1 u_1 + j_2 u_2
with 0 <= j_c <= N_c.  `decide` checks whether such a sum lands in a box;
it is the recorded verdict each oracle answer is compared with.  None of
this module touches the library: it works on words and Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor

MAX_DEPTH = 10
HALF = Fraction(1, 2)
HOST_SIZE = Fraction(1, 4)  # uniform measure of every host

# name -> (family file text, branching weights of each generator)
FAMILIES = {
    "uniform": ("measure uniform\ndepth_bound 3\n", [{}]),
    "third": ("measure third\nweight e 1/3\n", [{"": Fraction(1, 3)}]),
    # the two-generator family of acceptance criterion 5
    "two": (
        "measure uniform\n\nmeasure two\nweight e 1/3\nweight 1 1/4\n",
        [{}, {"": Fraction(1, 3), "1": Fraction(1, 4)}],
    ),
    # the non-good family of acceptance criterion 6
    "bad": ("measure uniform\n\nmeasure quarter\nweight e 1/4\n", [{}, {"": Fraction(1, 4)}]),
}

# Query kinds per family.  A good single-measure family answers every
# dominated selection, so only division can be refused there.
KINDS = {
    "uniform": ("select_ok", "divide_ok", "divide_refused"),
    "third": ("select_ok", "divide_ok", "divide_refused"),
    "two": ("select_ok", "select_refused", "divide_ok", "divide_refused"),
    "bad": ("select_ok", "select_refused", "divide_ok", "divide_refused"),
}


def cyl(weights, word):
    mass = Fraction(1)
    for i, c in enumerate(word):
        p = weights.get(word[:i], HALF)
        mass *= p if c == "0" else 1 - p
    return mass


def vec(gens, words):
    return tuple(sum((cyl(w, x) for x in words), Fraction(0)) for w in gens)


def expand(words, depth):
    """The depth-`depth` words under the given words."""
    out = set()
    for w in words:
        tail = depth - len(w)
        out.update(w + format(i, "0%db" % tail) if tail else w for i in range(2 ** tail))
    return out


def decide(gens, host, lo, hi, depth=MAX_DEPTH):
    """True when some union of depth-`depth` leaves of host has vector in [lo, hi]."""
    classes = {}
    for w in host:
        u = tuple(x / 2 ** (depth - len(w)) for x in vec(gens, [w]))
        classes[u] = classes.get(u, 0) + 2 ** (depth - len(w))
    (u1, n1), (u2, n2) = (list(classes.items()) + [((Fraction(1),) * len(gens), 0)])[:2]
    for j1 in range(n1 + 1):
        first, last = 0, n2
        for a, b, l, h in zip(u1, u2, lo, hi):
            first = max(first, ceil((l - j1 * a) / b))
            last = min(last, floor((h - j1 * a) / b))
        if first <= last:
            return True
    return False


def _host(rng):
    """Disjoint cylinders of depth 2..4 covering a quarter of the space.

    A fixed leaf count per depth keeps the cost of one kind of query from
    swinging with the host's size, so that a run's median query time
    depends on the code, not on the seed.
    """
    while True:
        words = []
        while sum(HALF ** len(w) for w in words) < HOST_SIZE:
            w = format(rng.getrandbits(4), "04b")[: rng.randint(2, 4)]
            if not any(w.startswith(x) or x.startswith(w) for x in words):
                words.append(w)
        if sum(HALF ** len(w) for w in words) == HOST_SIZE:
            return sorted(words)


def _candidate(rng, gens, kind):
    host = _host(rng)
    hv = vec(gens, host)
    if kind.startswith("select"):
        # a union of depth-5/6 cylinders anywhere; refused when its
        # measures are in ratios no subset of the host has
        d = rng.randint(5, 6)
        picks = [format(rng.getrandbits(d), "0%db" % d) for _ in range(rng.randint(1, 6))]
        target = vec(gens, sorted(set(picks)))
        if any(t > x for t, x in zip(target, hv)):
            return None
        return {"op": "select", "host": host, "target": target}, target, target
    n = rng.randint(2, 6)
    eps = Fraction(0) if rng.random() < 0.5 else hv[0] / 2 ** rng.randint(5, 12)
    lo = tuple(max(Fraction(0), (x - eps) / n) for x in hv)
    hi = tuple(x / n for x in hv)
    return {"op": "divide", "host": host, "n": n, "eps": eps}, lo, hi


def query(seed, family, kind, index):
    """The index-th query of one kind; same arguments, same query."""
    rng = random.Random("%s/%s/%s/%d" % (seed, family, kind, index))
    gens = FAMILIES[family][1]
    want = kind.endswith("_ok")
    for _ in range(1000):
        cand = _candidate(rng, gens, kind)
        if cand is None:
            continue
        q, lo, hi = cand
        if decide(gens, q["host"], lo, hi) == want:
            q.update(family=family, kind=kind, feasible=want, lo=lo, hi=hi)
            return q
    raise RuntimeError("no %s query for %s after 1000 tries" % (kind, family))


def batch(seed, families, index):
    """One query of every kind of every family, in a fixed order."""
    return [query(seed, f, k, index) for f in families for k in KINDS[f]]


def check(q, leaves):
    """Whether an answer's leaves lie in the host and hit the query's box."""
    gens = FAMILIES[q["family"]][1]
    inside = expand(leaves, MAX_DEPTH) <= expand(q["host"], MAX_DEPTH)
    v = vec(gens, leaves)
    return inside and all(l <= x <= h for l, x, h in zip(q["lo"], v, q["hi"]))
