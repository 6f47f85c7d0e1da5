from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn.clopen import EMPTY, FULL, ClopenSet, union_all
from cantordyn.measure import MeasureFamily, TreeMeasure
from cantordyn.oracles import NotEquivalent
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    balance_columns,
    cut_column_at_level,
    from_columns,
    locate_atom,
    refine_small_base_top,
    refines,
    run_decomposition,
    to_dot,
    trivial_partition,
)

UNI = MeasureFamily([TreeMeasure()])
F = Fraction


def C(*words):
    return ClopenSet(words)


def test_trivial_partition():
    t = trivial_partition()
    assert t.base == FULL
    assert t.top == FULL
    assert t.heights == (1,)
    assert t.atoms == (FULL,)


def test_from_columns_validation():
    ok = from_columns(UNI, [(C("00"), C("10")), (C("01"), C("11"))])
    assert ok.heights == (2, 2)
    with pytest.raises(NotAPartition):
        from_columns(UNI, [])
    with pytest.raises(NotAPartition):
        from_columns(UNI, [()])
    with pytest.raises(NotAPartition):
        from_columns(UNI, [(C("0"), EMPTY)])
    with pytest.raises((NotAPartition, NotEquivalentColumn)):
        from_columns(UNI, [(C("0"), C("10"))])
    with pytest.raises(NotAPartition):
        from_columns(UNI, [(C("0"),), (C("10"),)])
    with pytest.raises(NotAPartition):
        from_columns(UNI, [(C("0"),), (C("0"),), (C("1"),)])


def test_from_columns_compares_every_generator():
    third = TreeMeasure({"": F(1, 3)})
    # [0] and [1] agree under every generator but the last one
    for gens in ([TreeMeasure(), third], [TreeMeasure(), TreeMeasure({"0": F(1, 3), "1": F(1, 3)}), third]):
        with pytest.raises(NotEquivalentColumn, match="column 0 level 1 differs"):
            from_columns(MeasureFamily(gens), [(C("0"), C("1"))])


def test_from_columns_overlap_under_third():
    k = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    # [0], [10] and [11] all have mass 1/3
    assert from_columns(k, [(C("0"), C("10"), C("11"))]).heights == (3,)
    with pytest.raises(NotAPartition, match="atoms overlap"):
        from_columns(k, [(C("0"), C("10")), (C("1"),)])
    with pytest.raises(NotAPartition, match="atoms overlap"):
        from_columns(k, [(C("0"),), (C("1"),), (C("1101", "111"),)])


def reference_mass(m, a):
    """Mass of a clopen set as a plain sum of products of branching weights."""
    total = F(0)
    for w in a.leaves:
        q = F(1)
        for i, c in enumerate(w):
            p = m.weight(w[:i])
            q *= p if c == "0" else 1 - p
        total += q
    return total


def reference_from_columns(k, cols):
    """The error from_columns should raise, as (type, message), or None."""
    if not cols:
        return NotAPartition, "no columns"
    for ci, col in enumerate(cols):
        if not col:
            return NotAPartition, "column %d has no atoms" % ci
        for ri, a in enumerate(col):
            if a.is_empty:
                return NotAPartition, "column %d level %d is empty" % (ci, ri)
        v0 = [reference_mass(m, col[0]) for m in k.generators]
        for ri, a in enumerate(col[1:], start=1):
            if [reference_mass(m, a) for m in k.generators] != v0:
                return NotEquivalentColumn, "column %d level %d differs in mass from its base" % (ci, ri)
    atoms = [a for col in cols for a in col]
    if union_all(atoms) != FULL:
        return NotAPartition, "atoms do not cover the space"
    if sum(reference_mass(k.generators[0], a) for a in atoms) != 1:
        return NotAPartition, "atoms overlap"
    return None


# non-dyadic weights at depth <= 2, so the weight depth is up to 3 and the
# leaves (up to depth 5) fall on both sides of it
weight_st = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
measure_st = st.dictionaries(st.text(alphabet="01", max_size=2), weight_st, min_size=1, max_size=3).map(TreeMeasure)
family_st = st.lists(measure_st, min_size=1, max_size=2).map(MeasureFamily)


@settings(max_examples=150, deadline=None)
@given(family_st, st.data())
def test_from_columns_matches_fraction_reference(k, data):
    leaves = [""]
    for _ in range(data.draw(st.integers(0, 12))):
        i = data.draw(st.integers(0, len(leaves) - 1))
        if len(leaves[i]) < 5:
            w = leaves.pop(i)
            leaves[i:i] = [w + "0", w + "1"]
    # group the leaves into atoms that partition the space
    labels = [data.draw(st.integers(0, len(leaves) - 1)) for _ in leaves]
    atoms = [C(*(w for w, j in zip(leaves, labels) if j == i)) for i in sorted(set(labels))]
    mode = data.draw(st.sampled_from(["equal", "any", "overlap", "gap"]))
    if mode == "overlap":
        atoms.append(C(data.draw(st.sampled_from(leaves))))
    elif mode == "gap" and len(atoms) > 1:
        atoms.pop(data.draw(st.integers(0, len(atoms) - 1)))
    if mode == "equal":
        # atoms of one vector stacked into columns: mostly valid towers
        order = sorted(atoms, key=lambda a: [reference_mass(m, a) for m in k.generators])
    else:
        order = data.draw(st.permutations(atoms))
    cols, col = [], []
    for a in order:
        if col and (
            [reference_mass(m, a) for m in k.generators] != [reference_mass(m, col[0]) for m in k.generators]
            if mode == "equal"
            else data.draw(st.booleans())
        ):
            cols.append(col)
            col = []
        col.append(a)
    cols.append(col)
    want = reference_from_columns(k, cols)
    if want is None:
        assert from_columns(k, cols).columns == tuple(tuple(c) for c in cols)
    else:
        with pytest.raises(want[0]) as info:
            from_columns(k, cols)
        assert str(info.value) == want[1]


def test_base_and_top():
    t = from_columns(UNI, [(C("00"), C("10")), (C("01"), C("11"))])
    assert t.top == C("1")
    assert t.base == C("0")


def test_locate_atom():
    t = from_columns(UNI, [(C("00"), C("10")), (C("01"), C("11"))])
    assert locate_atom(t, "001") == (0, 0)
    assert locate_atom(t, "100") == (0, 1)
    assert locate_atom(t, "01") == (1, 0)
    assert locate_atom(t, "11") == (1, 1)
    with pytest.raises(ValueError):
        locate_atom(t, "1")
    with pytest.raises(ValueError):
        locate_atom(t, "")


def test_run_decomposition_and_refines():
    t = from_columns(UNI, [(C("0"), C("1"))])
    s = from_columns(UNI, [(C("00"), C("10"), C("01"), C("11"))])
    assert run_decomposition(s, t) == ((0, 0),)
    assert refines(s, t)
    assert refines(t, t)
    # same atoms, wrong order: the second run starts mid-column
    bad = from_columns(UNI, [(C("00"), C("10"), C("11"), C("01"))])
    assert run_decomposition(bad, t) is None
    assert not refines(bad, t)
    assert not refines(t, s)


def test_cut_column_at_level():
    t = from_columns(UNI, [(C("0"), C("1"))])
    s = cut_column_at_level(UNI, t, 0, 0, [C("00"), C("01")])
    assert s.heights == (2, 2)
    assert s.columns[0][0] == C("00")
    assert s.columns[1][0] == C("01")
    # the level-1 parts partition the old atom and keep column vectors
    assert s.columns[0][1] | s.columns[1][1] == C("1")
    assert UNI.vec(s.columns[0][1]) == (F(1, 4),)
    assert refines(s, t)
    with pytest.raises(ValueError):
        cut_column_at_level(UNI, t, 0, 0, [C("00"), C("0")])


def test_refine_identity_when_small():
    t = from_columns(UNI, [(C("00"), C("10"), C("01"), C("11"))])
    assert refine_small_base_top(UNI, t, 2) is t
    assert refine_small_base_top(UNI, t, F(1, 2)) is t
    with pytest.raises(ValueError):
        refine_small_base_top(UNI, t, 0)


def test_refine_first_stage_frozen():
    got = refine_small_base_top(UNI, trivial_partition(), F(1, 2))
    assert len(got.columns) == 1
    col = got.columns[0]
    want = [
        "0000", "0001", "0011", "0100", "0101", "0110", "0111", "1000",
        "1001", "1010", "1011", "1100", "1101", "1110", "1111", "0010",
    ]
    assert [a.leaves for a in col] == [(w,) for w in want]
    assert got.base == C("0000")
    assert got.top == C("0010")
    assert refines(got, trivial_partition())


def test_refine_postconditions_two_columns():
    t = from_columns(UNI, [(C("0"),), (C("1"),)])
    eps = F(1, 4)
    got = refine_small_base_top(UNI, t, eps)
    assert got.base.diameter() < eps
    assert got.top.diameter() < eps
    assert refines(got, t)


def test_refine_postconditions_weighted():
    k = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    t = trivial_partition()
    eps = F(1, 2)
    got = refine_small_base_top(k, t, eps, max_depth=16)
    assert got.base.diameter() < eps
    assert got.top.diameter() < eps
    assert refines(got, t)
    # base mass must come out strictly positive and the atoms partition X
    assert sum(k.generators[0].eval(a) for a in got.atoms) == 1


def test_balance_two_singletons():
    t = from_columns(UNI, [(C("0"),), (C("1"),)])
    got = balance_columns(UNI, t, C("0"), C("1"))
    assert got.columns == ((C("0"), C("1")),)


def test_balance_descent_trace():
    t = from_columns(UNI, [(C("00"), C("01")), (C("10"),), (C("11"),)])
    trace = []
    got = balance_columns(UNI, t, C("0"), C("1"), _trace=trace)
    assert trace == [2, 1]
    for col in got.columns:
        assert sum(1 for a in col if a.is_subset(C("0"))) == sum(
            1 for a in col if a.is_subset(C("1"))
        )


def test_balance_cuts_impure_atoms():
    t = trivial_partition()
    got = balance_columns(UNI, t, C("0"), C("1"))
    for col in got.columns:
        for a in col:
            assert a.is_subset(C("0")) or (a & C("0")).is_empty
    assert refines(got, t) or got.atoms != t.atoms


def test_balance_is_noop_on_balanced_input():
    t = from_columns(UNI, [(C("00"), C("10"), C("01"), C("11"))])
    got = balance_columns(UNI, t, C("0"), C("1"))
    assert got == t
    got = balance_columns(UNI, t, EMPTY, EMPTY)
    assert got == t


def test_balance_not_equivalent():
    t = trivial_partition()
    with pytest.raises(NotEquivalent):
        balance_columns(UNI, t, C("0"), C("00"))


def test_to_dot_structure():
    t = from_columns(UNI, [(C("00"), C("10")), (C("01"), C("11"))])
    dot = to_dot(t, UNI)
    assert dot.startswith("digraph tower {")
    assert "rankdir=BT" in dot
    assert "cluster_c0" in dot and "cluster_c1" in dot
    assert 'a0_0 [label="00\\n1/4"]' in dot
    assert "a0_0 -> a0_1;" in dot
    assert "top -> base [style=dashed];" in dot
    assert dot.count("style=dotted") == 4
