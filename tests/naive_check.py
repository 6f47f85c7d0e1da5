"""A stdlib-only checker of a tower sequence, straight from the definitions.

It reads only the sequence's data: each generator's branching weights,
each stage's columns of atoms as leaf words, the pairs and the budgets.
Every set is expanded into its depth-D cylinders, as a set of integers,
where D is the deepest leaf of the sequence (cylinder [w] of length D is
the integer whose D binary digits are w).  Masses are summed over those
cylinders, diameters read off the least and greatest of them, and
containment is containment of the sets: none of the verifier's masks,
shortcuts or run decompositions is used.

It decides what verification_report decides for a good family and
stages after the first of one column each, the shape of every build:
the family itself is not checked.
"""

from fractions import Fraction
from math import lcm

__all__ = ["naive_faults"]


def cylinders(leaves, depth):
    """The set with these leaf words as its depth-`depth` cylinders, integers."""
    out = set()
    for w in leaves:
        k = depth - len(w)
        start = int("0" + w, 2) << k
        out.update(range(start, start + (1 << k)))
    return frozenset(out)


def cylinder_masses(weights, depth):
    """Each depth-`depth` cylinder's mass, scaled to integers by one common factor.

    The mass of [w] is the product down w of the branching weight p of
    each prefix (1/2 where none is given) for a 0, and 1 - p for a 1.
    """
    masses = [Fraction(1)]
    for level in range(depth):
        step = []
        for i, m in enumerate(masses):
            p = weights.get(format(i, "0%db" % level) if level else "", Fraction(1, 2))
            step += [m * p, m * (1 - p)]
        masses = step
    den = lcm(*(m.denominator for m in masses))
    return [m.numerator * (den // m.denominator) for m in masses]


def diameter(s, depth):
    """2^-L for L the length of the longest word every cylinder of s starts with; 0 if s is empty."""
    if not s:
        return Fraction(0)
    return Fraction(1, 2 ** (depth - (min(s) ^ max(s)).bit_length()))


def naive_faults(g, schedule):
    """Every way g fails to be a saturated tower sequence with this schedule.

    schedule is the list of pairs the sequence must incorporate, one per
    stage after stage 0, each a pair of objects with `leaves`.  The
    checks: the budget of stage n is 2^-n; the pairs are the schedule;
    each stage's atoms partition the space, and every level of a column
    has the masses of its base; base and top have diameter at most the
    budget; stage n splits pair n into atoms and every column has as many
    levels inside its first set as inside its second; every stage-n
    column climbs whole stage-(n-1) columns, level by level, each level
    inside the one it climbs; the last stage is one column.
    """
    stages = [[[a.leaves for a in col] for col in t.columns] for t in g.stages]
    pairs = [(u.leaves, v.leaves) for u, v in g.pairs]
    want = [(u.leaves, v.leaves) for u, v in schedule]
    words = [w for cols in stages for col in cols for a in col for w in a]
    depth = max(map(len, words + [w for p in pairs + want for s in p for w in s]), default=0)
    full = frozenset(range(1 << depth))
    expanded = {}

    def cyl(leaves):
        if leaves not in expanded:
            expanded[leaves] = cylinders(leaves, depth)
        return expanded[leaves]

    masses = [cylinder_masses(m.weights, depth) for m in g.family.generators]

    def vec(s):
        return tuple(sum(ms[x] for x in s) for ms in masses)

    faults = []
    if list(g.budgets) != [Fraction(1, 2 ** n) for n in range(len(stages))]:
        faults.append("budgets are not 2^-n, one per stage")
    if len(pairs) != len(stages) - 1:
        faults.append("%d pairs for %d stages" % (len(pairs), len(stages)))
    if [tuple(map(cyl, p)) for p in pairs] != [tuple(map(cyl, p)) for p in want]:
        faults.append("the pairs are not the schedule")
    if len(stages[-1]) != 1:
        faults.append("the last stage has %d columns" % len(stages[-1]))
    partitions = set()
    for n, cols in enumerate(stages):
        atoms = [cyl(a) for col in cols for a in col]
        if not all(atoms) or sum(map(len, atoms)) != len(full) or frozenset().union(*atoms) != full:
            faults.append("stage %d: the atoms do not partition the space" % n)
            continue
        partitions.add(n)
        for ci, col in enumerate(cols):
            if len({vec(cyl(a)) for a in col}) != 1:
                faults.append("stage %d column %d: levels of unequal masses" % (n, ci))
        for name, level in (("base", 0), ("top", -1)):
            end = frozenset().union(*(cyl(col[level]) for col in cols))
            if diameter(end, depth) > Fraction(1, 2 ** n):
                faults.append("stage %d: %s diameter exceeds 2^-%d" % (n, name, n))
        if 1 <= n <= len(pairs):
            u, v = map(cyl, pairs[n - 1])
            if any(a & w and not a <= w for a in atoms for w in (u, v)):
                faults.append("stage %d does not split pair %d into atoms" % (n, n))
            if any(sum(cyl(a) <= u for a in col) != sum(cyl(a) <= v for a in col) for col in cols):
                faults.append("stage %d: a column visits pair %d's sets unequally" % (n, n))
        if n - 1 in partitions and not climbs(cols, stages[n - 1], cyl):
            faults.append("stage %d does not climb whole stage-%d columns" % (n, n - 1))
    return faults


def climbs(cols, below, cyl):
    """Whether each column of cols, bottom to top, runs through whole columns of below."""
    owner = {x: (ci, r) for ci, col in enumerate(below) for r, a in enumerate(col) for x in cyl(a)}
    for col in cols:
        j = 0
        while j < len(col):
            ci, r = owner[min(cyl(col[j]))]
            if r != 0 or j + len(below[ci]) > len(col):
                return False
            if any(not cyl(col[j + i]) <= cyl(a) for i, a in enumerate(below[ci])):
                return False
            j += len(below[ci])
    return True
