from fractions import Fraction

import pytest

from cantordyn.clopen import EMPTY, FULL, ClopenSet
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
