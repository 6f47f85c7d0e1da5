import hashlib
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_check import naive_faults

from cantordyn.builder import (
    BuildFailure,
    TowerSequence,
    build_saturated,
    enumerate_pairs,
    load_sequence,
    serialize_sequence,
    validate_sequence,
)
from cantordyn.clopen import EMPTY, FULL, ClopenSet, _mask_set, _masks, union_all
from cantordyn.cli import main
from cantordyn.measure import InvalidWeights, MeasureFamily, TreeMeasure, frac_text, parse_family
from cantordyn.oracles import GoodnessFailure
from cantordyn import tower, verify
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    from_columns,
    run_decomposition,
    trivial_partition,
)
from cantordyn.verify import (
    FullGroupWitness,
    MinimalityReport,
    PairNotScheduled,
    StageTooShallow,
    apply_witness,
    collapse_metric,
    first_return_divide,
    invariant_cone,
    minimality_check,
    saturation_witness,
    verification_report,
)

F = Fraction
UNI = MeasureFamily([TreeMeasure()])
THIRD = MeasureFamily([TreeMeasure({"": Fraction(1, 3)})])
TWO = MeasureFamily([TreeMeasure(), TreeMeasure({"": Fraction(1, 3)})])
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
    assert cone.heights == g.stages[1].heights == (16,)
    assert column_simplex(g.stages[1]) == ((F(1, 16),) * 16,)
    assert cone.contains((F(1, 16),) * 16)
    lopsided = (F(1, 8),) + (F(1, 16),) * 14 + (F(0),)
    assert not cone.contains(lopsided)
    with pytest.raises(ValueError):
        cone.contains((F(1),))


def test_cone_two_columns():
    g = seq(UNI, [KRPartition(((C("0"),), (C("1"),)))])
    cone = invariant_cone(g, 1)
    assert cone.heights == g.stages[1].heights == (1, 1)
    vertices = column_simplex(g.stages[1])
    assert vertices == ((F(1), F(0)), (F(0), F(1)))
    assert all(cone.contains(v) for v in vertices)
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
    assert cone.heights == g.stages[2].heights == (2, 2)
    vertices = column_simplex(g.stages[2])
    assert set(vertices) == {
        (F(1, 2), F(1, 2), F(0), F(0)),
        (F(0), F(0), F(1, 2), F(1, 2)),
    }
    assert all(cone.contains(v) for v in vertices)
    assert not cone.contains((F(1, 2), F(1, 4), F(0), F(1, 4)))
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
        assert cone.heights == t.heights
        vertices = column_simplex(t)
        for v in vertices:
            assert cone.contains(v)
        for m in g.family.generators:
            assert cone.contains(tuple(m.eval(a) for a in cone.atoms))
    # the last stage has a column of height 2 or more
    v = list(vertices[0])
    v[0], v[1] = v[0] + F(1, 64), v[1] - F(1, 64)
    assert not cone.contains(tuple(v))
    assert not cone.contains(tuple(2 * x for x in vertices[0]))


@SEQUENCES
def test_chain_traces_match_direct_decomposition(make):
    # the telescoped runs agree with decomposing stage n over stage m at once
    g = make()
    for n in range(len(g.stages)):
        for m in range(n + 1):
            assert g.runs(n, m) == run_decomposition(g.stages[n], g.stages[m])


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
    assert g.runs(3, 2) == ((0, 1, 2, 0), (1, 2))
    mr = minimality_check(g, 2)
    assert not mr.ok
    assert mr.certificate == FULL


def test_minimality_trap_certificate():
    g = seq(UNI, [KRPartition(((C("0"),), (C("1"),)))])
    mr = minimality_check(g, 1)
    assert not mr.ok
    assert mr.certificate == C("0")


def closure(edges, c):
    """Columns reachable from c, grown one step at a time until nothing changes."""
    seen = {c}
    while True:
        more = {d for a in seen for d in edges[a]} - seen
        if not more:
            return seen
        seen |= more


def assert_minimality_matches_brute_force(g, n):
    """minimality_check(g, n) against reachability by brute force over the
    runs of stage n + 1, the only transitions it reads (the last stage has none)."""
    t = g.stages[n]
    ncols = len(t.columns)
    runs = g.runs(n + 1, n) if n + 1 < len(g.stages) else ()
    edges = [set() for _ in range(ncols)]
    for run in runs:
        for a, b in zip(run, run[1:]):
            edges[a].add(b)
    reach = [closure(edges, c) for c in range(ncols)]
    mr = minimality_check(g, n)
    if all(len(r) == ncols for r in reach):
        # strongly connected: only the spread can fail, and then the trap is everything
        assert mr.ok or mr.certificate == FULL
        return
    assert not mr.ok
    inside = {c for c, col in enumerate(t.columns) if col[0].is_subset(mr.certificate)}
    assert inside == next(r for r in reach if len(r) < ncols)
    assert mr.certificate == union_all(a for c in inside for a in t.columns[c])
    # no run of the next stage steps out of the trapped columns
    for run in runs:
        for a, b in zip(run, run[1:]):
            assert a not in inside or b in inside


def test_minimality_trap_is_closed_under_the_next_stage():
    # stage 1 has three columns; stage 2 runs 0 -> 1 -> 2 -> 2, 0 -> 1 and 0.
    # Column 0 reaches every column, column 1 only itself and column 2.
    three = KRPartition(((C("0"),), (C("10"),), (C("11"),)))
    runs = KRPartition(
        (
            (C("000"), C("100"), C("110"), C("111")),
            (C("001"), C("101")),
            (C("01"),),
        )
    )
    g = seq(UNI, [three, runs])
    assert validate_sequence(g) == ()
    assert g.runs(2, 1) == ((0, 1, 2, 2), (0, 1), (0,))
    assert_minimality_matches_brute_force(g, 1)
    assert minimality_check(g, 1).certificate == C("1")


def test_trapped_region_is_summarised():
    # the report names the region by size, masses and first leaves; the
    # full set stays on the MinimalityReport.  Base [00] and top [01] fit
    # the stage-1 budget, and no later stage witnesses a transition
    # between the two columns; its one pair is the enumeration's first
    cols = ((C("000"), C("100"), C("110"), C("010")), (C("001"), C("101"), C("111"), C("011")))
    g = seq(UNI, [KRPartition(cols)], enumerate_pairs(UNI, 1), (F(1), F(1, 2)))
    cert = minimality_check(g, 1).certificate
    assert len(cert.leaves) == 4 and cert.leaves[:3] == ("000", "010", "100")
    report = verification_report(g)
    assert not report.ok
    first = report.violations[0]
    assert first == (
        "stage 1: orbits can stay trapped in a region of 4 leaves "
        "(000,010,100,...), masses (1/2), diameter 1/1"
    )
    assert "violation: " + first in report.lines


def test_witness_for_identity_pair():
    # (∅,∅) paired at stage 1 and (X,X) at stage 2, one column of quarters
    quarters = KRPartition(((C("00"), C("01"), C("10"), C("11")),))
    g = seq(UNI, [quarters, quarters], pairs=((EMPTY, EMPTY), (FULL, FULL)))
    w = saturation_witness(g, EMPTY, EMPTY)
    assert w.stage == 1
    assert w.pieces == (FULL,)
    assert w.exponents == (0,)
    w2 = saturation_witness(g, FULL, FULL)
    assert w2.stage == 2
    assert apply_witness(g, w2, "0100") == C("01")
    with pytest.raises(PairNotScheduled):
        saturation_witness(g, C("1"), C("0"))


def test_witnesses_reuse_the_pair_checks_membership(monkeypatch):
    g = build_saturated(UNI, 3)
    want = [saturation_witness(g, u, v) for u, v in g.pairs]
    assert validate_sequence(g) == ()

    def refuse(*args):
        raise AssertionError("an atom was tested against the pair again")

    monkeypatch.setattr(ClopenSet, "is_subset", refuse)
    monkeypatch.setattr(ClopenSet, "is_disjoint", refuse)
    for (u, v), w in zip(g.pairs, want):
        got = saturation_witness(g, u, v)
        assert (got.stage, got.pieces, got.exponents) == (w.stage, w.pieces, w.exponents)


def test_witness_for_a_pair_past_the_last_stage():
    g = build_saturated(UNI, 3)
    short = TowerSequence(UNI, g.stages[:2], g.pairs, g.budgets[:2])
    assert saturation_witness(short, *g.pairs[0]).stage == 1
    for u, v in g.pairs[1:]:
        with pytest.raises(PairNotScheduled):
            saturation_witness(short, u, v)


def test_stage_indices_out_of_range_are_refused():
    g = build_saturated(UNI, 3)
    # negative indices would otherwise answer for a stage counted from the end
    for check in (
        lambda: invariant_cone(g, -1),
        lambda: collapse_metric(g, -2),
        lambda: minimality_check(g, -2),
        lambda: minimality_check(g, -1),
        lambda: minimality_check(g, len(g.stages)),
        lambda: g.runs(2, 3),
        lambda: g.runs(4, 0),
    ):
        with pytest.raises(ValueError, match="stages run from 0 to 3"):
            check()
    # stage 0 is one atom, so a run through it climbs one level per step
    assert g.runs(3, 0) == ((0,) * len(g.stages[3].atoms),) and g.runs(0, 0) == ((0,),)
    assert invariant_cone(g, 3).heights == g.stages[3].heights
    assert minimality_check(g, 3).ok


def swapped_halves():
    """One column of quarters, paired to carry [0] onto [1]."""
    s = KRPartition(((C("00"), C("01"), C("10"), C("11")),))
    return seq(UNI, [s], pairs=((C("0"), C("1")),))


def test_witness_swaps_halves():
    g = swapped_halves()
    w = saturation_witness(g, C("0"), C("1"))
    assert w.stage == 1
    assert w.exponents == (-2, 2)
    assert w.pieces == (C("1"), C("0"))
    assert apply_witness(g, w, "00") == C("10")
    assert apply_witness(g, w, "01") == C("11")
    assert apply_witness(g, w, "10") == C("00")
    assert apply_witness(g, w, "1111") == C("01")
    # a hand-made witness whose pieces miss [0]
    partial = FullGroupWitness(1, (C("1"),), (-2,))
    assert apply_witness(g, partial, "10") == C("00")
    with pytest.raises(ValueError, match="atom escapes every witness piece"):
        apply_witness(g, partial, "00")


def test_witness_refuses_a_stage_that_visits_the_pair_unequally():
    # [0] holds two of the four quarters and [10] one
    g = seq(UNI, [KRPartition(((C("00"), C("01"), C("10"), C("11")),))], pairs=((C("0"), C("10")),))
    with pytest.raises(ValueError, match="a column visits u and v unequally often"):
        saturation_witness(g, C("0"), C("10"))


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
    # overlapping atoms whose masses add up to the space's, though [1] is not covered
    h = seq(fam, [KRPartition(((C("0"), C("00"), C("01")),))])
    with pytest.raises(ValueError, match="not a union of last-stage atoms"):
        first_return_divide(h, FULL, 1, 0)
    with pytest.raises(ValueError):
        first_return_divide(g, FULL, 0, 0)
    with pytest.raises(ValueError, match="negative tolerance"):
        first_return_divide(g, FULL, 3, F(-1, 4))
    # a class count must be an integer, whatever its type
    for n, text in ((2.5, "2.5"), (F(5, 2), "Fraction(5, 2)")):
        with pytest.raises(ValueError) as info:
            first_return_divide(g, FULL, n, 0)
        assert str(info.value) == "need an integer n, got %s" % text
    assert first_return_divide(g, FULL, F(3), 0) == first_return_divide(g, FULL, 3, 0)


def test_verification_report_accepts_built_tower():
    g = build_saturated(UNI, 2)
    report = verification_report(g)
    assert report.ok and report.violations == ()
    assert bool(report)
    assert any("collapse 0/1" in line for line in report.lines)
    assert any("strongly connected" in line for line in report.lines)


def reference_contains(t, masses):
    """Cone membership as the cone once decided it, atom by atom."""
    col_of = [c for c, col in enumerate(t.columns) for _ in col]
    y = {}
    for mass, c in zip(masses, col_of):
        if mass < 0 or y.setdefault(c, mass) != mass:
            return False
    return sum(len(col) * y[c] for c, col in enumerate(t.columns)) == 1


def reference_collapse(t):
    """The collapse metric as once computed: Fraction sums per expanded vertex."""
    worst = F(0)
    for bits in product("01", repeat=3):
        w = C("".join(bits))
        outer = []
        inner = []
        for v in column_simplex(t):
            o = i = F(0)
            for a, mass in zip(t.atoms, v):
                # meeting w is a nonempty a & w, so the empty atom lies
                # inside w without meeting it
                if a.is_subset(w):
                    i += mass
                if not (a & w).is_empty:
                    o += mass
            outer.append(o)
            inner.append(i)
        worst = max(worst, max(outer) - min(inner))
    return worst


def _cut(draw, items):
    """items cut at random into two or more consecutive runs."""
    cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1), min_size=1)))
    return [tuple(items[i:j]) for i, j in zip([0] + cuts, cuts + [len(items)])]


@st.composite
def multi_column_sequences(draw):
    """Stage 1 stacks the depth-d cylinders into two or more columns; stage 2,
    when present, halves every column and stacks the halves again."""
    d = draw(st.integers(1, 4))
    words = draw(st.permutations(["".join(b) for b in product("01", repeat=d)]))
    cols = _cut(draw, [C(x) for x in words])
    stages = [KRPartition(cols)]
    if draw(st.booleans()):
        halves = draw(st.permutations([tuple(C(a.leaves[0] + b) for a in col) for col in cols for b in "01"]))
        stages.append(KRPartition(tuple(sum(run, ())) for run in _cut(draw, halves)))
    return seq(UNI, stages)


@settings(max_examples=60, deadline=None)
@given(multi_column_sequences(), st.data())
def test_cone_and_collapse_match_the_expanded_vertices(g, data):
    for n, t in enumerate(g.stages):
        assert collapse_metric(g, n) == reference_collapse(t)
        cone = invariant_cone(g, n)
        # column-constant and normalised, so inside unless a column is negative
        values = data.draw(st.lists(st.integers(-1, 4), min_size=len(t.columns), max_size=len(t.columns)))
        total = sum(h * x for h, x in zip(t.heights, values)) or 1
        flat = tuple(F(x, total) for x, col in zip(values, t.columns) for _ in col)
        i = data.draw(st.integers(0, len(flat) - 1))
        nudged = flat[:i] + (flat[i] + data.draw(st.sampled_from([F(-1, 7), F(1, 7)])),) + flat[i + 1 :]
        for masses in column_simplex(t) + (flat, nudged, tuple(2 * x for x in flat)):
            assert cone.contains(masses) == reference_contains(t, masses)
    assert len(g.stages[-1].columns) >= 2


@st.composite
def multi_leaf_sequences(draw):
    """One stage over the trivial one whose atoms are runs of depth-d words:
    consecutive words merge into shorter leaves, shuffled ones stay apart."""
    d = draw(st.integers(2, 5))
    words = ["".join(b) for b in product("01", repeat=d)]
    if draw(st.booleans()):
        words = draw(st.permutations(words))
    atoms = draw(st.permutations([ClopenSet(run) for run in _cut(draw, words)]))
    cols = _cut(draw, atoms) if len(atoms) > 1 and draw(st.booleans()) else [tuple(atoms)]
    return seq(UNI, [KRPartition(cols)])


@settings(max_examples=150, deadline=None)
@given(multi_leaf_sequences())
def test_collapse_of_atoms_with_several_leaves_matches_the_expanded_vertices(g):
    for n, t in enumerate(g.stages):
        assert collapse_metric(g, n) == reference_collapse(t)


def test_collapse_reads_leaves_shorter_than_the_cylinders():
    # [0] straddles four depth-3 cylinders, and [10] two
    g = seq(UNI, [KRPartition([(C("0"), C("10", "110")), (C("111"),)])])
    assert sorted(len(x) for a in g.stages[1].atoms for x in a.leaves) == [1, 2, 3, 3]
    assert collapse_metric(g, 1) == reference_collapse(g.stages[1]) == F(1)
    # an empty atom, which from_columns would refuse, lies inside every
    # cylinder and meets none: [0] and [1] then spread no mass
    g = TowerSequence(UNI, [KRPartition([(C("0"), EMPTY, C("1"))])], (), (F(1),))
    assert collapse_metric(g, 0) == reference_collapse(g.stages[0]) == 0


def test_a_stage_with_an_empty_atom_does_not_refine():
    g = seq(UNI, [KRPartition([(C("0"), EMPTY, C("1"))])])
    assert run_decomposition(g.stages[1], g.stages[0]) is None
    for check in (lambda: g.runs(1, 0), lambda: invariant_cone(g, 1), lambda: collapse_metric(g, 1)):
        with pytest.raises(ValueError, match="^stage 1 does not refine stage 0$"):
            check()


def stage_lines(report):
    return [line for line in report.lines if "collapse" in line]


@settings(max_examples=60, deadline=None)
@given(multi_column_sequences(), st.data())
def test_a_repeated_stage_reports_the_collapse_of_its_own(g, data):
    stages = list(g.stages)
    n = data.draw(st.integers(1, len(stages) - 1))
    copy = KRPartition(tuple(C(*a.leaves) for a in col) for col in stages[n].columns)
    stages[n + 1 : n + 1] = [stages[n], copy]  # the same object, and an equal one
    h = seq(UNI, stages[1:])
    assert validate_sequence(h) == ()
    want = [
        "stage %d: %d columns, %d atoms, cone vertices %d, collapse %s"
        % (m, len(t.columns), len(t.atoms), len(t.columns), frac_text(collapse_metric(h, m)))
        for m, t in enumerate(h.stages)
    ]
    assert stage_lines(verification_report(h)) == want


def test_verification_report_computes_each_repeated_collapse_once(monkeypatch):
    g = build_saturated(UNI, 3)
    assert g.stages[1] == g.stages[2] == g.stages[3] != g.stages[0]
    want = verification_report(g).text()
    calls = []
    original = verify.collapse_metric

    def counted(g, n):
        calls.append(n)
        return original(g, n)

    monkeypatch.setattr(verify, "collapse_metric", counted)
    assert verification_report(g).text() == want
    assert calls == [0, 1]


def test_first_return_divide_tests_each_atom_once(monkeypatch):
    fam = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    cols = [(C("00"), C("01"), C("100")), (C("101"), C("110"), C("111"))]
    g = seq(fam, [KRPartition(cols)])
    tested = []
    original = ClopenSet.is_subset

    def counted(self, other):
        tested.append(self)
        return original(self, other)

    monkeypatch.setattr(ClopenSet, "is_subset", counted)
    classes, rem = first_return_divide(g, C("0", "11"), 2, F(1))
    assert sorted(tested, key=lambda a: a.leaves) == sorted(g.stages[-1].atoms, key=lambda a: a.leaves)
    assert classes == (C("00", "110"), C("01", "111")) and rem == EMPTY


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: build_saturated(UNI, 3), "report-uniform-3"),
        (lambda: build_saturated(THIRD, 2, max_depth=16), "report-third-2"),
    ],
    ids=["uniform_three_stages", "third_two_stages"],
)
def test_verification_report_bytes_pinned(pins, make, key):
    text = verification_report(make()).text()
    assert hashlib.sha256(text.encode()).hexdigest() == pins[key]


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
    cone = invariant_cone(bad, 1)
    assert cone.heights == bad.stages[1].heights
    v = column_simplex(bad.stages[1])[0]
    assert cone.contains(v)
    assert not cone.contains((v[0] + F(1, 64), v[1] - F(1, 64)) + v[2:])
    with pytest.raises(ValueError, match="stage 2 does not refine stage 1"):
        invariant_cone(bad, 2)


def test_verification_report_flags_a_degenerate_family():
    # two equal generators: the family is reported, the deeper checks skipped
    g = TowerSequence(MeasureFamily([TreeMeasure(), TreeMeasure()]), (trivial_partition(),), (), (F(1),))
    report = verification_report(g)
    assert not report.ok
    assert report.violations == ("family: duplicate generators: 0 and 1",)
    assert report.lines == (
        "generators 2, stages 1, pairs 0",
        "violation: family: duplicate generators: 0 and 1",
    )


def test_build_and_verify_refuse_a_family_with_the_same_text():
    def one_stage(k):
        return TowerSequence(k, [trivial_partition()], [], [1])

    dup = MeasureFamily([TreeMeasure(), TreeMeasure()])
    with pytest.raises(ValueError) as info:
        build_saturated(dup, 1)
    assert str(info.value) == "degenerate family: duplicate generators: 0 and 1"
    assert "family: duplicate generators: 0 and 1" in verification_report(one_stage(dup)).violations
    # criterion 6's family: the build's stage-0 refusal is verify's family violation
    quarter = MeasureFamily([TreeMeasure(), TreeMeasure({"": F(1, 4)})])
    with pytest.raises(BuildFailure) as info:
        build_saturated(quarter, 1)
    assert isinstance(info.value.cause, GoodnessFailure)
    prefix = "family: not good: "
    found = [v[len(prefix):] for v in verification_report(one_stage(quarter)).violations if v.startswith(prefix)]
    assert found == [str(info.value.cause)]
    # a weight outside (0, 1) is no measure: both raise, with one message
    bad = MeasureFamily([TreeMeasure({"": F(3, 2)})])
    with pytest.raises(InvalidWeights) as built:
        build_saturated(bad, 1)
    with pytest.raises(InvalidWeights) as verified:
        verification_report(one_stage(bad))
    assert str(built.value) == str(verified.value) == "measure 0 weight at 'e' is 3/2, not in (0,1)"


def not_good_tower():
    """A structurally valid two-stage tower over a family that is not good.

    Stage 1 is one column of 8 atoms: atom i is three depth-5 cylinders of
    [0] and [10] plus the i-th depth-5 cylinder of [11], so every atom has
    masses (1/8, 1/8).  Base and top lie in [1], within the budget 1/2.
    """
    k = parse_family("measure uniform\nmeasure two\nweight e 1/3\nweight 1 1/4\n")
    words = ["".join(p) for p in product("01", repeat=5)]
    ten = [w for w in words if w.startswith("10")]
    fill = ten[:3] + [w for w in words if w.startswith("0")] + ten[3:]
    eleven = [w for w in words if w.startswith("11")]
    col = tuple(ClopenSet(fill[3 * i : 3 * i + 3] + [eleven[i]]) for i in range(8))
    return TowerSequence(k, (trivial_partition(), KRPartition((col,))), ((EMPTY, EMPTY),), (F(1), F(1, 2)))


def test_verification_report_refuses_a_family_that_is_not_good():
    g = not_good_tower()
    assert {g.family.vec(a) for a in g.stages[1].atoms} == {(F(1, 8), F(1, 8))}
    assert validate_sequence(g) == ()
    report = verification_report(g)
    assert not report.ok
    assert report.violations == (
        "family: not good: A = [000] has masses (1/8, 1/12) < (1/4, 1/2) of B = [11] under every "
        "generator, but every clopen C inside B has masses (1/4, 1/2) * q for one dyadic q, and "
        "the A/B ratios (1/2, 1/6) are not one dyadic q",
    )


def test_verify_exits_3_on_a_family_that_is_not_good(tmp_path, capsys):
    (tmp_path / "tower.txt").write_text(serialize_sequence(not_good_tower()))
    assert main(["verify", "--out", str(tmp_path)]) == 3
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("violated: family: not good: A = [000] has masses (1/8, 1/12)")


def tower_edits(text, rng, count):
    """count seeded edits of a tower's text, cycling through three kinds.

    Within one stage: swap two equal-length leaves between two atoms,
    swap two atom lines, or swap two adjacent levels of one column.  Every
    other edit is made in every stage that repeats the edited one as well,
    so that the stages next to it may still refine it.
    """
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("stage ")] + [len(lines) - 1]
    blocks = list(zip(heads, heads[1:]))  # per stage, its header and the next stage's
    for e in range(count):
        n = rng.randrange(1, len(blocks))
        first, stop = blocks[n]
        cols = []  # per column, the line numbers of its atoms
        for i in range(first + 1, stop):
            if lines[i].startswith("column "):
                cols.append(range(i + 1, i + 1 + int(lines[i].split()[1])))
        kind = ("leaves", "atoms", "levels")[e % 3]
        if kind == "levels":
            col = rng.choice([c for c in cols if len(c) > 1])
            j = rng.randrange(len(col) - 1)
            i, k = col[j], col[j + 1]
        else:
            i, k = rng.sample([x for c in cols for x in c], 2)
        a, b = lines[k], lines[i]  # the new lines i and k
        if kind == "leaves":
            a, b = lines[i].split(","), lines[k].split(",")
            lengths = sorted({len(w) for w in a} & {len(w) for w in b})
            if not lengths:
                continue
            size = rng.choice(lengths)
            x = rng.choice([j for j, w in enumerate(a) if len(w) == size])
            y = rng.choice([j for j, w in enumerate(b) if len(w) == size])
            a[x], b[y] = b[y], a[x]
            a, b = ",".join(a), ",".join(b)
        out = list(lines)
        for head, end in blocks if e % 2 else [blocks[n]]:
            if lines[head + 1 : end] == lines[first + 1 : stop]:
                out[i + head - first], out[k + head - first] = a, b
        yield kind, "\n".join(out) + "\n"


def test_verify_agrees_with_an_independent_checker_on_edited_towers():
    # tests/naive_check.py decides from the definitions, on sets of cylinders
    builds = [
        ("measure uniform\n", 3),
        ("measure third\nweight e 1/3\n", 2),
        ("measure d2\nweight 0 1/3\nweight 1 2/3\n", 2),
        ("measure fifth\nweight e 1/5\n", 3),
    ]
    rng = random.Random(40)
    verdicts = []
    for family, stages in builds:
        g = build_saturated(parse_family(family), stages)
        assert verification_report(g).ok and naive_faults(g, enumerate_pairs(g.family, stages)) == []
        for kind, text in tower_edits(serialize_sequence(g), rng, 150):
            try:
                h = load_sequence(text)
            except ValueError:
                continue
            report = verification_report(h)
            faults = naive_faults(h, enumerate_pairs(h.family, len(h.pairs)))
            assert report.ok == (not faults), (kind, report.violations, faults)
            verdicts.append((kind, report.ok))
    # every kind of edit keeps a valid tower somewhere and breaks one somewhere
    assert set(verdicts) == {(kind, ok) for kind in ("leaves", "atoms", "levels") for ok in (True, False)}


def test_verification_report_flags_tampering():
    report = verification_report(swapped_levels())
    assert not report.ok
    assert "does not refine" in report.violations[0]
    assert any(line.startswith("violation:") for line in report.lines)


@settings(max_examples=60, deadline=None)
@given(multi_column_sequences())
def test_minimality_matches_brute_force_reachability(g):
    for n in range(len(g.stages)):
        assert_minimality_matches_brute_force(g, n)


def two_generators():
    """Hand-built under two generators: halves, then quarters stacked in pairs."""
    halves = KRPartition(((C("0"),), (C("1"),)))
    pairs = KRPartition(((C("00"), C("01")), (C("10"), C("11"))))
    return seq(TWO, [halves, pairs])


VALID = [
    build_saturated(UNI, 2),
    build_saturated(THIRD, 2, max_depth=16),
    refined_twice(),
    interleaved(),
    two_generators(),
]


@st.composite
def perturbed_sequences(draw, sources=VALID):
    """A valid sequence with levels or columns swapped, or leaves moved between atoms."""
    g = draw(st.sampled_from(sources))
    stages = [[list(col) for col in t.columns] for t in g.stages]
    for _ in range(draw(st.integers(1, 3))):
        cols = draw(st.sampled_from(stages[1:]))
        col = draw(st.sampled_from(cols))
        i = draw(st.integers(0, len(col) - 1))
        kind = draw(st.sampled_from(["levels", "columns", "leaf"]))
        if kind == "levels":
            j = draw(st.integers(0, len(col) - 1))
            col[i], col[j] = col[j], col[i]
        elif kind == "columns":
            j = draw(st.integers(0, len(cols) - 1))
            ci = next(c for c, x in enumerate(cols) if x is col)
            cols[ci], cols[j] = cols[j], cols[ci]
        elif col[i].leaves:
            # the whole leaf or one half of it, into another atom anywhere in the stage
            w = draw(st.sampled_from(col[i].leaves)) + draw(st.sampled_from(["", "0", "1"]))
            other = draw(st.sampled_from(cols))
            j = draw(st.integers(0, len(other) - 1))
            col[i] = col[i] - C(w)
            other[j] = other[j] | C(w)
    return TowerSequence(g.family, [KRPartition(cols) for cols in stages], g.pairs, g.budgets)


@settings(max_examples=150, deadline=None)
@given(perturbed_sequences())
def test_a_structurally_valid_sequence_keeps_every_generator_in_the_cone(g):
    # why verification_report has no cone test of its own
    if validate_sequence(g) != ():
        return
    for n in range(len(g.stages)):
        cone = invariant_cone(g, n)
        for m in g.family.generators:
            assert cone.contains(tuple(m.eval(a) for a in cone.atoms))


def minimality_with_top_meets_base(g):
    """minimality_check on the last stage as it once ran: a transition
    c -> d wherever the top of column c meets the base of column d."""
    n = len(g.stages) - 1
    cols = g.stages[n].columns
    edges = [{d for d, dol in enumerate(cols) if not col[-1].is_disjoint(dol[0])} for col in cols]
    trap = next((r for r in (closure(edges, c) for c in range(len(cols))) if len(r) < len(cols)), None)
    if trap is None:
        every = set(range(len(g.stages[1].columns)))
        if all(set(run) == every for run in g.runs(n, 1)):
            return MinimalityReport(True, n, None)
        trap = range(len(cols))
    return MinimalityReport(False, n, union_all(a for c in trap for a in cols[c]))


def outcome(check):
    """(ok, certificate) of a minimality check, or the ValueError it raises."""
    try:
        mr = check()
    except ValueError as exc:
        return str(exc)
    return mr.ok, mr.certificate


@settings(max_examples=150, deadline=None)
@given(st.one_of(multi_column_sequences(), perturbed_sequences()))
def test_last_stage_minimality_ignores_where_tops_meet_bases(g):
    # distinct atoms of a partition are disjoint, so a top meets a base only
    # in a one-atom column, and that self-loop changes no reachability
    last = len(g.stages) - 1
    try:
        from_columns(g.family, g.stages[last].columns)
    except (NotAPartition, NotEquivalentColumn):
        return
    want = outcome(lambda: minimality_with_top_meets_base(g))
    assert outcome(lambda: minimality_check(g, last)) == want


def witness_images(g, u, v):
    """Union of the pairing stage's u-atoms moved by saturation_witness(g, u, v),
    each found by its first leaf in one atom index of that stage."""
    w = saturation_witness(g, u, v)
    t = g.stages[w.stage]
    idx = tower._atom_index(t)
    imgs = []
    for a in t.atoms:
        if a.is_subset(u):
            ci, ri = tower._locate(idx, a.leaves[0])
            e = next(e for piece, e in zip(w.pieces, w.exponents) if a.is_subset(piece))
            imgs.append(t.columns[ci][ri + e])
    return union_all(imgs)


# the 4-stage uniform build and a hand-written sequence: each schedules a
# pair that moves something
PAIRED = [build_saturated(UNI, 4), swapped_halves()]


def test_pairs_that_move_something_reach_the_witness_check():
    for g in PAIRED:
        assert validate_sequence(g) == ()
        assert any(u != v for u, v in g.pairs)
        for u, v in g.pairs:
            assert witness_images(g, u, v) == v


def test_verification_report_does_not_replay_witnesses(monkeypatch):
    # the first pair that moves something has its witness listed, never applied
    g = PAIRED[0]
    want = verification_report(g).text()
    i, (u, v) = next((i, (u, v)) for i, (u, v) in enumerate(g.pairs, start=1) if u != v)
    w = saturation_witness(g, u, v)
    assert any(w.exponents)

    def refuse(*args):
        raise AssertionError("a witness was replayed")

    monkeypatch.setattr(verify, "apply_witness", refuse)
    monkeypatch.setattr(tower, "locate_atom", refuse)
    report = verification_report(g)
    assert report.ok and report.text() == want
    line = "pair %d: witness with %d pieces, exponents %s" % (i, len(w), ",".join(map(str, w.exponents)))
    assert line in want.splitlines()


def test_verification_report_lists_witnesses_without_building_pieces(monkeypatch):
    # each witness line reads its piece count and exponents off the level
    # matching, and they agree with the pieces saturation_witness builds
    for g in PAIRED:
        want = [
            "pair %d: witness with %d pieces, exponents %s" % (i, len(w), ",".join(map(str, w.exponents)))
            for i, w in enumerate((saturation_witness(g, u, v) for u, v in g.pairs), start=1)
        ]

        def refuse(*args):
            raise AssertionError("a witness piece was built")

        monkeypatch.setattr(verify, "union_all", refuse)
        report = verification_report(g)
        monkeypatch.undo()
        assert [line for line in report.lines if line.startswith("pair ")] == want


def test_a_pairs_exponents_do_not_depend_on_the_stage_that_lists_it():
    # every stage-5 column runs through whole stage-4 columns, each run
    # visiting u and v equally, so the runs repeat stage 4's matching
    g = build_saturated(THIRD, 8, max_depth=16)
    u, v = g.pairs[3]
    assert (u, v) == (C("1"), C("0", "11"))
    pairs = g.pairs[:3] + ((EMPTY, EMPTY), (u, v)) + g.pairs[5:]
    moved = TowerSequence(g.family, g.stages, pairs, g.budgets)
    assert g.stages[5] != g.stages[4]
    assert validate_sequence(moved) == ()
    w, w_moved = saturation_witness(g, u, v), saturation_witness(moved, u, v)
    assert (w.stage, w_moved.stage) == (4, 5)
    assert w.exponents == w_moved.exponents == (-7, -6, -5, -4, 0, 1, 4, 5)

    def witness_line(report, i):
        prefix = "pair %d:" % i
        return next(line[len(prefix):] for line in report.lines if line.startswith(prefix))

    assert witness_line(verification_report(moved), 5) == witness_line(verification_report(g), 4)


@settings(max_examples=100, deadline=None)
@given(perturbed_sequences(VALID + PAIRED))
def test_a_structurally_valid_sequence_has_witnesses_that_carry_u_onto_v(g):
    # what lets verification_report drop its witness replay
    if validate_sequence(g) != ():
        return
    for u, v in g.pairs:
        assert witness_images(g, u, v) == v


@settings(max_examples=150, deadline=None)
@given(perturbed_sequences(VALID + PAIRED), st.data())
def test_pair_membership_from_masks_matches_the_set_tests(g, data):
    # random pairs of depth <= 3 over damaged stages, whose leaf moves can
    # leave an empty atom, inside every set and disjoint from every set
    depth3 = st.integers(0, 255).map(lambda m: _mask_set(m, 3))
    pairs = tuple((data.draw(depth3), data.draw(depth3)) for _ in g.stages[1:])
    h = TowerSequence(g.family, g.stages, pairs, g.budgets)
    for i, (u, v) in enumerate(pairs, start=1):
        cols = h.stages[i].columns
        levels = [tuple([r for r, a in enumerate(col) if a.is_subset(w)] for w in (u, v)) for col in cols]
        split = [all(a.is_subset(w) or a.is_disjoint(w) for col in cols for a in col) for w in (u, v)]
        assert h._pair_members(i) == (levels, *split)


def test_pair_membership_counts_an_empty_atom_inside_and_outside():
    g = seq(UNI, [KRPartition(((C("0"), EMPTY, C("1")),))], pairs=((C("01"), C("1")),))
    assert g._pair_members(1) == ([([1], [1, 2])], False, True)


@pytest.mark.parametrize("family", [UNI, THIRD], ids=["uniform", "third"])
def test_a_schedule_longer_than_the_enumeration_is_reported(family):
    # 20,000 copies of pair 1: more than the equivalent pairs within depth 3.
    # validate_sequence reports each pair past the last stage first
    g = build_saturated(family, 1, max_depth=16)
    with pytest.raises(ValueError) as info:
        enumerate_pairs(family, 20000)
    n = re.fullmatch(r"only (\d+) equivalent pairs within depth 3, need 20000", str(info.value)).group(1)
    report = verification_report(TowerSequence(family, g.stages, g.pairs * 20000, g.budgets))
    assert not report.ok
    assert "schedule: only %s equivalent pairs within depth 3, need 20000" % n in report.violations


def per_atom_members(g, i):
    """_pair_members as one pass over the atoms, testing each atom's mask."""
    xu, xv = _masks(g.pairs[i - 1], 3)
    levels, split_u, split_v = [], True, True
    for col in g.stages[i].columns:
        ms = _masks(col, 3)
        levels.append(tuple([r for r, m in enumerate(ms) if m | x == x] for x in (xu, xv)))
        split_u = split_u and all(m | xu == xu or not m & xu for m in ms)
        split_v = split_v and all(m | xv == xv or not m & xv for m in ms)
    return levels, split_u, split_v


def per_atom_collapse(g, n):
    """collapse_metric counting atom by atom, each with its own mask."""
    outer, inner = [F(0)] * 8, [F(1)] * 8
    for col in g.stages[n].columns:
        ms = _masks(col, 3)
        for b in range(8):
            outer[b] = max(outer[b], F(sum(m >> b & 1 for m in ms), len(ms)))
            inner[b] = min(inner[b], F(sum(m in (0, 1 << b) for m in ms), len(ms)))
    return max([F(0)] + [o - i for o, i in zip(outer, inner)])


def assert_grouped_masks_match_per_atom(g, pairs):
    """Every stage's collapse, and every pair's membership at every stage past 0."""
    for n in range(len(g.stages)):
        assert collapse_metric(g, n) == per_atom_collapse(g, n)
    for u, v in pairs:
        h = TowerSequence(g.family, g.stages, ((u, v),) * (len(g.stages) - 1), g.budgets)
        for i in range(1, len(g.stages)):
            assert h._pair_members(i) == per_atom_members(h, i)


# depth-3 pairs that cut the stages in several ways: halves, alternate
# quarters, single cylinders and their complements, alternating cylinders
MASK_PAIRS = [(_mask_set(a, 3), _mask_set(b, 3)) for a, b in [(0x0F, 0xF0), (0x33, 0x05), (0x01, 0x80), (0xFE, 0x7F), (0x69, 0x96)]]


@pytest.mark.parametrize(
    "text,stages,max_depth",
    [
        ("measure uniform\ndepth_bound 3\n", 6, 12),
        ("measure uniform\ndepth_bound 3\n", 3, 12),
        ("measure third\nweight e 1/3\n", 4, 16),
        ("measure third\nweight e 1/3\n", 2, 16),
        ("measure d2\nweight 0 1/3\nweight 1 2/3\n", 3, 16),
    ],
    ids=["uniform6", "uniform3", "third4", "third2", "d2_3"],
)
def test_grouped_masks_match_a_per_atom_pass_on_the_pinned_builds(text, stages, max_depth):
    g = build_saturated(parse_family(text), stages, max_depth)
    assert_grouped_masks_match_per_atom(g, g.pairs + tuple(MASK_PAIRS))


def test_grouped_masks_match_a_per_atom_pass_on_hand_written_towers():
    # a column whose masks repeat at alternate levels, next to one whose
    # atoms have leaves in two depth-3 cylinders each; then leaves of depth 1
    s1 = KRPartition([(C("0000"), C("1000"), C("0001"), C("1001")), (C("01", "101"), C("001", "11"))])
    s2 = KRPartition([(C("0"), C("1"))])
    for g in (seq(UNI, [s1]), seq(UNI, [s2]), interleaved(), swapped_halves(), refined_twice()):
        assert_grouped_masks_match_per_atom(g, g.pairs + tuple(MASK_PAIRS))


@settings(max_examples=60, deadline=None)
@given(st.one_of(multi_column_sequences(), multi_leaf_sequences()), st.data())
def test_grouped_masks_match_a_per_atom_pass_on_drawn_towers(g, data):
    depth3 = st.integers(0, 255).map(lambda m: _mask_set(m, 3))
    assert_grouped_masks_match_per_atom(g, [(data.draw(depth3), data.draw(depth3)) for _ in range(3)])
