import random
from fractions import Fraction
from itertools import groupby, product
from math import ceil, floor, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantordyn import oracles, tower
from cantordyn.builder import build_saturated
from cantordyn.clopen import EMPTY, FULL, ClopenSet
from cantordyn.measure import MeasureFamily, TreeMeasure, parse_family
from cantordyn.oracles import (
    DivisibilityFailure,
    GoodnessFailure,
    SearchFailure,
    _solve_at_depth,
    _span,
    affine_approx,
    approx_divide,
    goodness_select,
    select_copy,
    subset_in_box,
)

UNI = MeasureFamily([TreeMeasure()])
TWO = MeasureFamily([TreeMeasure(), TreeMeasure({"": Fraction(1, 3)})])
THIRD = MeasureFamily([TreeMeasure({"": Fraction(1, 3)})])
F = Fraction


def C(*words):
    return ClopenSet(words)


def brute_feasible(k, host, lo, hi, depth):
    """Exhaustive subset check at one depth; independent of the solver."""
    words = host.refine_to_depth(depth)
    for bits in product((0, 1), repeat=len(words)):
        s = ClopenSet(w for w, b in zip(words, bits) if b)
        v = k.vec(s)
        if all(l <= x <= h for l, x, h in zip(lo, v, hi)):
            return True
    return False


def test_subset_in_box_whole_host_shortcut():
    host = ClopenSet(["0"])
    assert subset_in_box(UNI, host, (F(1, 4),), (F(1, 2),)) is host
    assert subset_in_box(UNI, EMPTY, (F(0),), (F(0),)) is EMPTY


def test_subset_in_box_infeasible():
    assert subset_in_box(UNI, EMPTY, (F(1, 4),), (F(1, 2),)) is None
    assert subset_in_box(UNI, FULL, (F(1, 2),), (F(1, 4),)) is None
    # mass 1/3 is not dyadic: no exact subset at any depth
    assert subset_in_box(UNI, FULL, (F(1, 3),), (F(1, 3),), max_depth=7) is None
    # masses are nonnegative: a box below zero holds no subset, not even the empty one
    assert subset_in_box(UNI, FULL, (F(-1, 4),), (F(-1, 8),)) is None


def test_subset_in_box_takes_first_leaves():
    assert subset_in_box(UNI, FULL, (F(3, 4),), (F(3, 4),)).leaves == ("0", "10")
    # depth 1 already feasible; max count there is one leaf of mass 1/2
    assert subset_in_box(UNI, FULL, (F(1, 2),), (F(3, 4),)).leaves == ("0",)
    assert subset_in_box(UNI, FULL, (F(5, 16),), (F(5, 16),)).leaves == ("00", "0100")


def test_subset_in_box_count_ends_inside_a_larger_leaf():
    # 11 of the host's 14 depth-4 cylinders: all 8 under [0], then 3 of the
    # 4 under [10], so the count ends inside a leaf larger than [110]
    assert subset_in_box(UNI, C("0", "10", "110"), (F(11, 16),), (F(11, 16),), 6) == C("0", "100", "1010")


def test_subset_in_box_refines_again_once_past_the_host_depth():
    # depth 0 has no answer; from depth 1 on the block of the root leaf
    # must be split at the weight depth 1, whose cylinders differ in mass
    assert subset_in_box(THIRD, FULL, (F(89, 1440),), (F(1, 16),), 16) == C("0000", "00010")


def test_subset_in_box_two_generators():
    s = subset_in_box(TWO, FULL, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert s.leaves == ("00", "10")


def test_select_copy_exact_and_errors():
    assert select_copy(UNI, (F(1, 4),), ClopenSet(["1"])).leaves == ("10",)
    host = ClopenSet(["0"])
    assert select_copy(UNI, (F(1, 2),), host) is host
    assert select_copy(UNI, (F(0),), host) is EMPTY
    with pytest.raises(ValueError):
        select_copy(UNI, (F(3, 4),), host)
    with pytest.raises(GoodnessFailure):
        # matches the host under the first generator only
        select_copy(TWO, (F(1, 2), F(1, 4)), ClopenSet(["0"]))


def test_select_copy_refuses_negative_targets_without_searching():
    for k, target in ((UNI, (F(-1, 4),)), (TWO, (F(1, 8), F(-1, 8)))):
        with pytest.raises(ValueError, match="negative entry") as info:
            select_copy(k, target, C("0"))
        assert not isinstance(info.value, GoodnessFailure)


def test_select_copy_proportionality_obstruction():
    # inside [1] the two generators are locked in ratio 3:2 leafwise,
    # so the vector (1/4, 1/8) is unattainable at every depth
    k = MeasureFamily([TreeMeasure(), TreeMeasure({"": Fraction(1, 4)})])
    with pytest.raises(GoodnessFailure):
        select_copy(k, (F(1, 4), F(1, 8)), ClopenSet(["1"]), max_depth=8)


def test_goodness_select_frozen():
    assert goodness_select(UNI, ClopenSet(["00"]), ClopenSet(["1"]), 8).leaves == ("10",)
    assert goodness_select(UNI, EMPTY, ClopenSet(["1"])) is EMPTY
    with pytest.raises(ValueError):
        goodness_select(UNI, FULL, ClopenSet(["1"]))


def test_approx_divide_frozen():
    assert approx_divide(UNI, FULL, 1) is FULL
    assert approx_divide(UNI, FULL, 2, F(1, 8), 4).leaves == ("0",)
    b = approx_divide(UNI, FULL, 3, F(1, 8), 4)
    assert b.leaves == ("00", "0100")
    assert UNI.vec(b) == (F(5, 16),)


def test_approx_divide_eps_zero():
    assert approx_divide(UNI, FULL, 2, F(0)).leaves == ("0",)
    assert approx_divide(UNI, FULL, 4, F(0)).leaves == ("00",)
    with pytest.raises(DivisibilityFailure):
        approx_divide(UNI, FULL, 3, F(0), max_depth=6)


def test_approx_divide_arg_errors():
    with pytest.raises(ValueError):
        approx_divide(UNI, EMPTY, 2)
    with pytest.raises(ValueError):
        approx_divide(UNI, FULL, 0)
    with pytest.raises(ValueError):
        approx_divide(UNI, FULL, 2, F(-1, 8))
    # a fractional n is refused, not searched for as some other part
    for n in (2.5, F(5, 2)):
        with pytest.raises(ValueError, match="^need an integer n, got "):
            approx_divide(UNI, FULL, n)
    assert approx_divide(UNI, FULL, F(2)) == C("0")


def test_affine_approx_frozen():
    s = affine_approx(UNI, (FULL,), (F(1, 3),), F(1, 16))
    assert s.leaves == ("00", "0100")
    assert UNI.vec(s) == (F(5, 16),)
    assert affine_approx(UNI, (FULL,), (F(1, 2),), F(0)).leaves == ("0",)


def test_affine_approx_indicator_values():
    a, b = ClopenSet(["0"]), ClopenSet(["1"])
    assert affine_approx(UNI, (a, b), (F(1), F(0)), F(0)) == a
    assert affine_approx(UNI, (a, b), (F(0), F(0)), F(1, 4)) is EMPTY
    assert affine_approx(UNI, (a, b), (F(1), F(1)), F(0)) == FULL
    # with a fractional value elsewhere, a value-1 piece is taken whole, and
    # value-0 and empty pieces are skipped
    parts = (a, C("10"), C("11"), EMPTY)
    assert affine_approx(UNI, parts, (F(1), F(0), F(1, 2), F(1, 2)), F(0)) == C("0", "110")


def test_affine_approx_refuses_an_overlap_of_null_mass():
    # [1] has mass 0 under a weight of 1, so the pieces' masses add up to 1
    k = MeasureFamily([TreeMeasure({"": F(1)})])
    with pytest.raises(ValueError, match="^pieces overlap$"):
        affine_approx(k, (FULL, C("1")), (F(0), F(0)), F(0))


def test_affine_approx_error_bound():
    parts = (ClopenSet(["0"]), ClopenSet(["10"]), ClopenSet(["11"]))
    vals = (F(1, 3), F(1, 2), F(1, 5))
    eps = F(1, 32)
    s = affine_approx(UNI, parts, vals, eps)
    want = sum(v * UNI.vec(p)[0] for v, p in zip(vals, parts))
    got = UNI.vec(s)[0]
    assert want - eps <= got <= want
    for p, v in zip(parts, vals):
        assert UNI.vec(s & p)[0] <= v * UNI.vec(p)[0]


def test_affine_approx_validates():
    with pytest.raises(ValueError, match="^pieces do not cover the space$"):
        affine_approx(UNI, (ClopenSet(["0"]),), (F(1, 2),), F(0))
    with pytest.raises(ValueError, match="^pieces overlap$"):
        affine_approx(UNI, (FULL, FULL), (F(1, 2), F(1, 2)), F(0))
    with pytest.raises(ValueError):
        affine_approx(UNI, (FULL,), (F(3, 2),), F(0))
    with pytest.raises(ValueError, match="^partition and values differ in length$"):
        affine_approx(UNI, (FULL,), (F(1, 2), F(1, 2)), F(0))
    with pytest.raises(ValueError, match="^eps must be nonnegative$"):
        affine_approx(UNI, (FULL,), (F(1, 2),), F(-1, 8))


def test_subset_in_box_agrees_with_brute_force():
    rng = random.Random(0)
    k = TWO
    depth = 3
    hosts = [FULL, ClopenSet(["0"]), ClopenSet(["00", "1"]), ClopenSet(["01", "10"])]
    for trial in range(60):
        host = hosts[rng.randrange(len(hosts))]
        words = host.refine_to_depth(depth)
        picked = [w for w in words if rng.random() < 0.5]
        center = k.vec(ClopenSet(picked))
        wiggle = F(rng.randrange(0, 3), 64)
        lo = tuple(max(F(0), x - wiggle) for x in center)
        hi = tuple(x + wiggle for x in center)
        got = subset_in_box(k, host, lo, hi, max_depth=depth)
        assert got is not None, (host, lo, hi)
        assert got.is_subset(host)
        v = k.vec(got)
        assert all(l <= x <= h for l, x, h in zip(lo, v, hi))


def test_subset_in_box_infeasible_agrees_with_brute_force():
    rng = random.Random(1)
    k = TWO
    depth = 3
    for trial in range(40):
        host = ClopenSet(["0"]) if rng.random() < 0.5 else FULL
        lo = (F(rng.randrange(0, 65), 64), F(rng.randrange(0, 65), 64))
        hi = tuple(l + F(rng.randrange(0, 4), 64) for l in lo)
        got = subset_in_box(k, host, lo, hi, max_depth=depth)
        want = brute_feasible(k, host, lo, hi, depth)
        if got is None:
            assert not want, (host, lo, hi)
        else:
            v = k.vec(got)
            assert all(l <= x <= h for l, x, h in zip(lo, v, hi))


def test_vector_length_must_match_family():
    # TWO has two generators; zip alone would silently cut a short vector
    for bad in ((F(1, 8),), (F(1, 8), F(1, 8), F(1, 8))):
        with pytest.raises(ValueError, match="has %d entries but the family has 2" % len(bad)):
            select_copy(TWO, bad, FULL)
        with pytest.raises(ValueError, match="has %d entries but the family has 2" % len(bad)):
            subset_in_box(TWO, FULL, bad, (F(1), F(1)))
        with pytest.raises(ValueError, match="has %d entries but the family has 2" % len(bad)):
            subset_in_box(TWO, FULL, (F(0), F(0)), bad)


def test_refusal_reports_depth_only_after_a_search():
    host = ClopenSet(["0"])
    with pytest.raises(GoodnessFailure) as info:
        select_copy(TWO, (F(1, 2), F(1, 4)), host, max_depth=12)
    assert info.value.max_depth is None
    assert "searched" not in str(info.value)
    with pytest.raises(GoodnessFailure) as info:
        select_copy(UNI, (F(1, 3),), host, max_depth=7)
    assert info.value.max_depth == 7
    assert str(info.value).endswith("(searched to depth 7)")


def reference_cyl(m, w):
    """Mass of [w] as a plain product of branching weights."""
    q = F(1)
    for i, c in enumerate(w):
        p = m.weight(w[:i])
        q *= p if c == "0" else 1 - p
    return q


def reference_runs(k, host, depth):
    """Runs of consecutive depth-`depth` words with equal Fraction vectors."""
    words = host.refine_to_depth(depth)
    vecs = [tuple(reference_cyl(m, w) for m in k.generators) for w in words]
    return [(v, [w for w, _ in grp]) for v, grp in groupby(zip(words, vecs), key=lambda p: p[1])]


def reference_solve(runs, lo, hi):
    """The first count vector, in descending lexicographic order, whose sums lie in [lo, hi]."""
    for counts in product(*(range(c, -1, -1) for _, c in runs)):
        sums = [sum(t * v[i] for (v, _), t in zip(runs, counts)) for i in range(len(lo))]
        if all(l <= s <= h for l, s, h in zip(lo, sums, hi)):
            return list(counts)
    return None


def integer_solve(runs, lo, hi):
    """_solve_at_depth on Fraction runs, over each generator's least common denominator."""
    dens = [lcm(*(v[i].denominator for v, _ in runs)) for i in range(len(lo))]
    ints = [(tuple(int(x * n) for x, n in zip(v, dens)), c) for v, c in runs]
    ilo = tuple(ceil(l * n) for l, n in zip(lo, dens))
    ihi = tuple(floor(h * n) for h, n in zip(hi, dens))
    return _solve_at_depth(ints, ilo, ihi)


def reference_subset_in_box(k, host, lo, hi, max_depth, solve=reference_solve):
    """subset_in_box as a plain scan over every depth up to max_depth.

    At each depth from the host's own, `solve` picks a count from each run
    of reference_runs; the first depth with an answer wins.  The default
    solver is exhaustion over the count vectors.
    """
    if any(l > h for l, h in zip(lo, hi)):
        return None
    if all(l <= x <= h for l, x, h in zip(lo, k.vec(host), hi)):
        return host
    for d in range(host.max_leaf_len, max_depth + 1):
        runs = reference_runs(k, host, d)
        counts = solve([(v, len(ws)) for v, ws in runs], lo, hi)
        if counts is not None:
            return ClopenSet(w for (_, ws), c in zip(runs, counts) for w in ws[:c])
    return None


def _product_size(k, host, depth):
    return prod(len(ws) + 1 for _, ws in reference_runs(k, host, depth))


weight_st = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)
measure_st = st.dictionaries(st.text(alphabet="01", max_size=2), weight_st, max_size=3).map(TreeMeasure)
family_st = st.lists(measure_st, min_size=1, max_size=2).map(MeasureFamily)
host_st = st.lists(st.text(alphabet="01", max_size=4), min_size=1, max_size=4).map(ClopenSet)
# bounds off the dyadic grid (thirds, sevenths, tenths) as well as on it
offset_st = st.sampled_from([0, 1, 3, 7, 10, 16, 64]).flatmap(
    lambda den: st.just(F(0)) if den == 0 else st.integers(-2, 2).map(lambda n: F(n, den))
)


@settings(max_examples=200, deadline=None)
@given(family_st, host_st, st.booleans(), st.data())
def test_subset_in_box_matches_exhaustive_reference(k, host, exact, data):
    max_depth = data.draw(st.integers(max(0, host.max_leaf_len - 1), 5))
    # cap the exhaustive work: the deepest depth whose count product stays small
    assume(_product_size(k, host, host.max_leaf_len) <= 4096)
    while max_depth > host.max_leaf_len and _product_size(k, host, max_depth) > 4096:
        max_depth -= 1
    depth = data.draw(st.integers(host.max_leaf_len, max(host.max_leaf_len, 5)))
    words = host.refine_to_depth(depth)
    picked = data.draw(st.lists(st.sampled_from(words), max_size=len(words)))
    center = k.vec(ClopenSet(picked))
    if exact:
        lo = hi = center
    else:
        lo = tuple(x + data.draw(offset_st) for x in center)
        hi = tuple(x + data.draw(offset_st) for x in center)
    want = reference_subset_in_box(k, host, lo, hi, max_depth)
    got = subset_in_box(k, host, lo, hi, max_depth)
    assert got == want, (k.generators, host, lo, hi, max_depth)


@st.composite
def solver_cases(draw):
    """Up to 7 runs under 1-3 generators, and a box that may be empty,
    negative, out of reach, or around a sum some counts attain."""
    g = draw(st.integers(1, 3))
    runs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * g), st.integers(1, 3)), max_size=7))
    if draw(st.booleans()):
        counts = [draw(st.integers(0, c)) for _, c in runs]
        center = [sum(t * v[i] for (v, _), t in zip(runs, counts)) for i in range(g)]
        lo = tuple(x - draw(st.integers(0, 1)) for x in center)
    else:
        total = [sum(c * v[i] for v, c in runs) for i in range(g)]
        lo = tuple(draw(st.integers(-3, x + 3)) for x in total)
    hi = tuple(l + draw(st.integers(-2, 2)) for l in lo)
    return runs, lo, hi


def test_span_with_a_zero_entry_takes_every_count_or_none():
    # a zero entry leaves that sum at acc + tail whatever the count: below
    # the low bound no count fits, else that entry bounds none
    assert _span((0,), (0,), 3, (0,), (1,), (5,)) == (1, 0)
    assert _span((2,), (0,), 3, (0,), (1,), (5,)) == (0, 3)


@settings(max_examples=300, deadline=None)
@given(solver_cases())
# the largest first count, 1, leaves 1 to make from twos: the search has to back up
@example(([((3,), 1), ((2,), 2)], (4,), (4,)))
@example(([], (0,), (0,)))
def test_solve_at_depth_matches_exhaustive_reference(case):
    runs, lo, hi = case
    assert _solve_at_depth(runs, lo, hi) == reference_solve(runs, lo, hi)


@st.composite
def box_cases(draw, caps):
    """A family, a host, a cap, and a box around a subset of the host's
    cylinders of some depth up to the cap: the exact vector, a box off it,
    or a single point moved off the cylinder masses' grid."""
    k, host, cap = draw(family_st), draw(host_st), draw(caps)
    depth = draw(st.integers(host.max_leaf_len, max(host.max_leaf_len, cap)))
    words = host.refine_to_depth(depth)
    center = k.vec(ClopenSet(draw(st.lists(st.sampled_from(words), max_size=6))))
    mode = draw(st.sampled_from(["exact", "box", "point"]))
    if mode == "exact":
        lo = hi = center
    elif mode == "box":
        lo = tuple(x + draw(offset_st) for x in center)
        hi = tuple(x + draw(offset_st) for x in center)
    else:
        lo = hi = tuple(x + draw(offset_st) for x in center)
    return k, host, lo, hi, cap


@settings(max_examples=60, deadline=None)
@given(box_cases(st.integers(6, 12)))
# a twelfth of [00] has no point on the dyadic grid at any depth
@example((UNI, C("00"), (F(1, 12),), (F(1, 12),), 10))
# on the grid for the first generator, never for the second
@example((TWO, C("1"), (F(1, 8), F(1, 7)), (F(1, 8), F(1, 7)), 12))
def test_subset_in_box_matches_the_depth_scan_at_real_depths(case):
    k, host, lo, hi, cap = case
    want = reference_subset_in_box(k, host, lo, hi, cap, solve=integer_solve)
    assert subset_in_box(k, host, lo, hi, cap) == want, case


@settings(max_examples=200, deadline=None)
@given(box_cases(st.integers(0, 10)))
def test_an_answer_within_one_cap_is_the_answer_within_the_next(case):
    k, host, lo, hi, cap = case
    got = subset_in_box(k, host, lo, hi, cap)
    if got is not None:
        assert subset_in_box(k, host, lo, hi, cap + 1) == got, case


def count_searches(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return _solve_at_depth(*args)

    monkeypatch.setattr(oracles, "_solve_at_depth", spy)
    return calls


def test_a_box_with_no_point_at_the_cap_is_refused_without_a_search(monkeypatch):
    calls, depths = count_searches(monkeypatch), []
    den = TreeMeasure._den

    def den_spy(m, depth):
        depths.append(depth)
        return den(m, depth)

    monkeypatch.setattr(TreeMeasure, "_den", den_spy)
    # a third of [00] is 1/12, which no dyadic cylinder depth reaches
    with pytest.raises(DivisibilityFailure) as info:
        approx_divide(UNI, C("00"), 3, 0, max_depth=10)
    assert calls == []
    # the host's vector reads depth 2; of the search depths only the cap's box is made
    assert set(depths) == {2, 10}
    assert info.value.max_depth == 10
    assert str(info.value).endswith("(searched to depth 10)")
    # the spy sees the search when there is one
    assert approx_divide(UNI, C("00"), 2, 0, max_depth=10) == C("000")
    assert calls


def test_a_failed_search_past_the_weight_depth_is_decided_at_the_cap(monkeypatch):
    calls = count_searches(monkeypatch)
    # below [0] every subset keeps the ratio 3:2, so the boxes from depth 2
    # on have points and no depth has a subset: depth 2, then the cap
    with pytest.raises(GoodnessFailure, match=r"\(searched to depth 10\)$"):
        select_copy(TWO, (F(1, 4), F(1, 4)), C("0"), max_depth=10)
    assert len(calls) == 2
    # an exact copy found at the first depth whose box has a point
    calls.clear()
    assert select_copy(TWO, (F(1, 4), F(1, 6)), C("0"), max_depth=10) == C("00")
    assert len(calls) == 1
    # 3/16 of [10]: the boxes have points from depth 4, but only depth 6 has
    # a subset, so the cap's search succeeds and the scan goes on to it
    k = MeasureFamily([TreeMeasure({"": F(1, 3)}), TreeMeasure({"": F(1, 5), "1": F(2, 3)})])
    calls.clear()
    assert select_copy(k, (F(1, 16), F(1, 10)), C("10"), max_depth=10) == C("10000", "100010")
    assert len(calls) == 4


BUILDS = {
    "uniform-6": ("measure uniform\ndepth_bound 3\n", 6, 12),
    "third-4": ("measure third\nweight e 1/3\n", 4, 16),
}


@pytest.fixture(scope="module")
def oracle_calls():
    """A build's subset-sum searches and selections, each build made once."""
    made = {}

    def calls(build):
        if build not in made:
            with pytest.MonkeyPatch.context() as mp:
                found = count_searches(mp)
                picked = []
                real = oracles._select

                def spy(*args):
                    picked.append(args)
                    return real(*args)

                # the tower's moves call _select directly, and through _carve
                mp.setattr(oracles, "_select", spy)
                mp.setattr(tower, "_select", spy)
                text, stages, max_depth = BUILDS[build]
                build_saturated(parse_family(text), stages, max_depth)
            made[build] = (len(found), len(picked))
        return made[build]

    return calls


def test_the_early_refusal_adds_no_search_to_the_uniform_build(oracle_calls, counts):
    # a box with no point at the cap is refused early and adds no search
    assert oracle_calls("uniform-6")[0] == counts["uniform-6/searches"]


def test_the_root_third_build_makes_a_fixed_number_of_searches(oracle_calls, counts):
    assert oracle_calls("third-4")[0] == counts["third-4/searches"]


@pytest.mark.parametrize(
    "build,selections",
    [("uniform-6", "uniform-6/selections"), ("third-4", "third-4/selections")],
    ids=["uniform6", "third4"],
)
def test_the_builds_make_a_fixed_number_of_selections(oracle_calls, counts, build, selections):
    assert oracle_calls(build)[1] == counts[selections]


def outcome(call, *args):
    """A call's result, or the type and text of the exception it raised."""
    try:
        return call(*args)
    except (ValueError, SearchFailure) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(family_st, host_st, st.integers(0, 6), st.sampled_from([1, 2, 3, 4]), st.data())
def test_integer_targets_give_the_answers_of_fraction_targets(k, host, cap, n, data):
    # the target is an n-th of a set's vector, the set inside the host or
    # anywhere; _ints gives unreduced pairs, and n = 3 leaves the dyadic grid
    if data.draw(st.booleans()):
        words = host.refine_to_depth(data.draw(st.integers(host.max_leaf_len, max(host.max_leaf_len, 5))))
        x = ClopenSet(data.draw(st.lists(st.sampled_from(words), max_size=6)))
    else:
        x = data.draw(st.lists(st.text(alphabet="01", max_size=4), max_size=3).map(ClopenSet))
    want = outcome(select_copy, k, tuple(y / n for y in k.vec(x)), host, cap)
    assert outcome(oracles._select, k, [(p, q * n) for p, q in oracles._ints(k, x)], host, cap) == want


def test_integer_targets_are_refused_with_the_texts_of_fraction_targets():
    cases = [
        (TWO, (F(1, 8),)),  # too short
        (UNI, (F(-1, 4),)),  # negative
        (TWO, (F(1, 8), F(-1, 8))),
        (UNI, (F(3, 4),)),  # exceeds the host
        (TWO, (F(1, 2), F(1, 4))),  # matches the host under one generator only
        (UNI, (F(1, 3),)),  # searched to the cap
    ]
    for k, target in cases:
        want = outcome(select_copy, k, target, C("0"), 8)
        assert isinstance(want, tuple)
        if len(target) != len(k):  # refused where it enters; _select takes one pair per generator
            assert want == (ValueError, "target has 1 entries but the family has 2 generators")
            continue
        for scale in (1, 3):
            pairs = [(x.numerator * scale, x.denominator * scale) for x in target]
            assert outcome(oracles._select, k, pairs, C("0"), 8) == want


def reference_carve(k, host, vecs, max_depth):
    """_carve as it was: select_copy on each Fraction vector in turn."""
    pieces = []
    for vec in vecs:
        pieces.append(select_copy(k, vec, host, max_depth))
        host = host - pieces[-1]
    return pieces + [host]


@settings(max_examples=100, deadline=None)
@given(family_st, host_st, st.integers(0, 8), st.data())
def test_carve_with_integer_vectors_matches_select_copy_on_fractions(k, host, cap, data):
    # up to three pieces labelled off the host's cylinders of some depth:
    # each fits, but an earlier canonical pick may block a later one
    words = host.refine_to_depth(data.draw(st.integers(host.max_leaf_len, max(host.max_leaf_len, 5))))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(words), max_size=len(words)))
    sets = [ClopenSet(w for w, j in zip(words, labels) if j == i) for i in range(data.draw(st.integers(0, 3)))]
    want = outcome(reference_carve, k, host, [k.vec(x) for x in sets], cap)
    assert outcome(oracles._carve, k, host, [oracles._ints(k, x) for x in sets], cap) == want


@pytest.mark.parametrize(
    "call",
    [
        lambda: subset_in_box(UNI, C("0"), (F(1, 8),), (F(1, 8),), max_depth=-3),
        lambda: select_copy(UNI, (F(1, 8),), C("0"), max_depth=-3),
        lambda: select_copy(UNI, (F(1, 2),), C("0"), max_depth=-3),
        lambda: approx_divide(UNI, C("0"), 4, max_depth=-3),
        lambda: goodness_select(UNI, C("000"), C("0"), max_depth=-3),
        lambda: affine_approx(UNI, (FULL,), (F(1, 2),), F(0), max_depth=-3),
    ],
    ids=["subset_in_box", "select_copy", "select_copy_whole_host", "approx_divide", "goodness_select", "affine_approx"],
)
def test_a_negative_max_depth_is_refused_before_any_search(call):
    with pytest.raises(ValueError, match="^max_depth must be at least 0, got -3$"):
        call()
