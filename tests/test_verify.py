from fractions import Fraction

import pytest

from cantordyn.builder import TowerSequence, build_saturated
from cantordyn.clopen import EMPTY, FULL, ClopenSet
from cantordyn.measure import MeasureFamily, TreeMeasure
from cantordyn.tower import KRPartition, run_decomposition, trivial_partition
from cantordyn.verify import (
    _chain_traces,
    PairNotScheduled,
    StageTooShallow,
    apply_witness,
    collapse_metric,
    first_return_divide,
    invariant_cone,
    minimality_check,
    saturation_witness,
    verify_all,
)

F = Fraction
UNI = MeasureFamily([TreeMeasure()])
THIRD = MeasureFamily([TreeMeasure({"": Fraction(1, 3)})])
C = lambda *ws: ClopenSet(ws)


def seq(family, partitions, pairs=(), budgets=None):
    """Hand-built sequence with loose budgets."""
    stages = (trivial_partition(),) + tuple(partitions)
    if budgets is None:
        budgets = (F(1),) * len(stages)
    return TowerSequence(family, stages, pairs, budgets)


def test_cone_single_column():
    g = build_saturated(UNI, 1)
    cone = invariant_cone(g, 1)
    assert cone.stage == 1
    assert len(cone.atoms) == 16
    assert cone.vertices == ((F(1, 16),) * 16,)
    assert cone.contains((F(1, 16),) * 16)
    lopsided = (F(1, 8),) + (F(1, 16),) * 14 + (F(0),)
    assert not cone.contains(lopsided)
    with pytest.raises(ValueError):
        cone.contains((F(1),))


def test_cone_two_columns():
    g = seq(UNI, [KRPartition(((C("0"),), (C("1"),)))])
    cone = invariant_cone(g, 1)
    assert cone.vertices == ((F(1), F(0)), (F(0), F(1)))
    assert cone.contains((F(1, 2), F(1, 2)))
    assert cone.contains((F(2, 3), F(1, 3)))
    assert not cone.contains((F(1, 2), F(1, 4)))
    assert not cone.contains((F(3, 2), F(-1, 2)))


def refined_twice():
    """Hand-built: one column of two halves, then two columns of quarters."""
    one = KRPartition(((C("0"), C("1")),))
    two = KRPartition(((C("00"), C("10")), (C("01"), C("11"))))
    return seq(UNI, [one, two])


def test_cone_after_refinement():
    g = refined_twice()
    cone = invariant_cone(g, 2)
    assert set(cone.vertices) == {
        (F(1, 2), F(1, 2), F(0), F(0)),
        (F(0), F(0), F(1, 2), F(1, 2)),
    }
    # the uniform measure itself sits inside
    masses = tuple(TreeMeasure().eval(a) for a in cone.atoms)
    assert cone.contains(masses)


def interleaved():
    """Hand-built: each refinement runs through the stage below in both orders."""
    halves = KRPartition(((C("0"),), (C("1"),)))
    quarters = KRPartition(((C("00"), C("10")), (C("11"), C("01"))))
    eighths = KRPartition(
        (
            (C("000"), C("100"), C("110"), C("010")),
            (C("111"), C("011"), C("001"), C("101")),
        )
    )
    return seq(UNI, [halves, quarters, eighths])


SEQUENCES = pytest.mark.parametrize(
    "make",
    [refined_twice, interleaved, lambda: build_saturated(THIRD, 2, max_depth=16)],
    ids=["hand_built", "interleaved", "third_two_stages"],
)


def column_simplex(t):
    """Column-uniform measures, one per column, expanded to the atoms."""
    return tuple(
        tuple(F(1, len(col)) if d == c else F(0) for d, dol in enumerate(t.columns) for _ in dol)
        for c, col in enumerate(t.columns)
    )


@SEQUENCES
def test_cone_is_the_column_simplex(make):
    g = make()
    for n, t in enumerate(g.stages):
        cone = invariant_cone(g, n)
        assert cone.atoms == t.atoms
        assert cone.vertices == column_simplex(t)
        for v in cone.vertices:
            assert cone.contains(v)
        for m in g.family.generators:
            assert cone.contains(tuple(m.eval(a) for a in cone.atoms))
    # the last stage has a column of height 2 or more
    v = list(cone.vertices[0])
    v[0], v[1] = v[0] + F(1, 64), v[1] - F(1, 64)
    assert not cone.contains(tuple(v))
    assert not cone.contains(tuple(2 * x for x in cone.vertices[0]))


@SEQUENCES
def test_chain_traces_match_direct_decomposition(make):
    g = make()
    for n in range(len(g.stages)):
        traces = _chain_traces(g, n)
        assert len(traces) == n
        for m in range(n):
            assert traces[m] == run_decomposition(g.stages[n], g.stages[m])


def test_collapse_pins_down_masses():
    g = build_saturated(UNI, 1)
    assert collapse_metric(g, 1) == 0
    assert collapse_metric(g, 0) == 1
    split = seq(UNI, [KRPartition(((C("0"),), (C("1"),)))])
    assert collapse_metric(split, 1) == 1


def test_minimality_of_built_tower():
    g = build_saturated(UNI, 2)
    assert minimality_check(g, 1).ok
    mr = minimality_check(g, 2)
    assert mr and mr.certificate is None


def test_minimality_needs_spread():
    # stage 3's runs make stage 2's column graph strongly connected, but
    # column 1 of stage 2 never climbs through column 1 of stage 1
    halves = KRPartition(((C("0"),), (C("1"),)))
    quarters = KRPartition(((C("00"), C("10")), (C("01"),), (C("11"),)))
    eighths = KRPartition(
        (
            (C("000"), C("100"), C("010"), C("110"), C("001"), C("101")),
            (C("011"), C("111")),
        )
    )
    g = seq(UNI, [halves, quarters, eighths])
    assert g.decomposition(2) == ((0, 1, 2, 0), (1, 2))
    mr = minimality_check(g, 2)
    assert not mr.ok
    assert mr.certificate == FULL


def test_minimality_trap_certificate():
    g = seq(UNI, [KRPartition(((C("0"),), (C("1"),)))])
    mr = minimality_check(g, 1)
    assert not mr.ok
    assert mr.certificate == C("0")


def test_trapped_region_is_summarised():
    # the report names the region by size, masses and first leaves; the
    # full set stays on the MinimalityReport
    g = build_saturated(THIRD, 2, max_depth=16)
    cert = minimality_check(g, 2).certificate
    assert len(cert.leaves) == 16 and cert.leaves[:3] == ("00000", "00011", "00100")
    ok, first, report = verify_all(g)
    assert not ok
    assert first == (
        "stage 2: orbits can stay trapped in a region of 16 leaves "
        "(00000,00011,00100,...), masses (1/3), diameter 1/1"
    )
    assert "violation: " + first in report.lines


def test_witness_for_identity_pair():
    g = build_saturated(UNI, 2)
    w = saturation_witness(g, EMPTY, EMPTY)
    assert w.stage == 1
    assert w.pieces == (FULL,)
    assert w.exponents == (0,)
    w2 = saturation_witness(g, FULL, FULL)
    assert w2.stage == 2
    assert apply_witness(g, w2, "0000") == C("0000")
    with pytest.raises(PairNotScheduled):
        saturation_witness(g, C("1"), C("0"))


def test_witness_swaps_halves():
    s = KRPartition(((C("00"), C("01"), C("10"), C("11")),))
    g = seq(UNI, [s], pairs=((C("0"), C("1")),))
    w = saturation_witness(g, C("0"), C("1"))
    assert w.stage == 1
    assert w.exponents == (-2, 2)
    assert w.pieces == (C("1"), C("0"))
    assert apply_witness(g, w, "00") == C("10")
    assert apply_witness(g, w, "01") == C("11")
    assert apply_witness(g, w, "10") == C("00")
    assert apply_witness(g, w, "1111") == C("01")


def test_first_return_divide_exact():
    fam = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    col = (C("00"), C("01"), C("100"), C("101"), C("110"), C("111"))
    g = seq(fam, [KRPartition((col,))])
    classes, rem = first_return_divide(g, FULL, 3, 0)
    assert rem == EMPTY
    assert classes == (C("00", "101"), C("01", "110"), C("100", "111"))
    assert first_return_divide(g, FULL, 1, 0) == ((FULL,), EMPTY)
    sub, rem = first_return_divide(g, C("10"), 2, 0)
    assert sub == (C("100"), C("101")) and rem == EMPTY


def test_first_return_remainder_tolerance():
    fam = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    col = (C("00"), C("01"), C("100"), C("101"), C("110"), C("111"))
    g = seq(fam, [KRPartition((col,))])
    with pytest.raises(StageTooShallow) as info:
        first_return_divide(g, FULL, 4, 0)
    assert info.value.remainder == C("11")
    classes, rem = first_return_divide(g, FULL, 4, F(1, 3))
    assert rem == C("11")
    with pytest.raises(ValueError):
        first_return_divide(g, C("1101"), 2, 0)
    with pytest.raises(ValueError):
        first_return_divide(g, FULL, 0, 0)


def test_verify_all_accepts_built_tower():
    g = build_saturated(UNI, 2)
    ok, first, report = verify_all(g)
    assert ok and first is None
    assert bool(report)
    assert any("collapse 0/1" in line for line in report.lines)
    assert any("strongly connected" in line for line in report.lines)


def swapped_levels():
    """A built sequence whose last stage swaps two levels of stage 1."""
    g = build_saturated(UNI, 2)
    col = list(g.stages[1].columns[0])
    col[1], col[2] = col[2], col[1]
    return TowerSequence(
        g.family,
        (g.stages[0], g.stages[1], KRPartition((tuple(col),))),
        g.pairs,
        g.budgets,
    )


def test_cone_refuses_a_stage_that_does_not_refine():
    bad = swapped_levels()
    assert invariant_cone(bad, 1).vertices == column_simplex(bad.stages[1])
    with pytest.raises(ValueError, match="stage 2 does not refine stage 1"):
        invariant_cone(bad, 2)


def test_verify_all_flags_tampering():
    ok, first, report = verify_all(swapped_levels())
    assert not ok
    assert "does not refine" in first
    assert report.violations
    assert any(line.startswith("violation:") for line in report.lines)
