"""End-to-end acceptance runs, one test per acceptance criterion.

Each test prints a single PASS line naming the criterion when it
succeeds; the heavy single-measure build is shared module-wide.
"""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from cantordyn import (
    EMPTY,
    FULL,
    ClopenSet,
    GoodnessFailure,
    KRPartition,
    MeasureFamily,
    TowerSequence,
    TreeMeasure,
    affine_approx,
    apply_witness,
    balance_columns,
    build_saturated,
    collapse_metric,
    first_return_divide,
    from_columns,
    goodness_select,
    invariant_cone,
    minimality_check,
    saturation_witness,
    serialize_sequence,
    trivial_partition,
    union_all,
    validate_sequence,
)
from cantordyn.cli import main as cli_main

F = Fraction
UNI = MeasureFamily([TreeMeasure()])
TWO = MeasureFamily([TreeMeasure(), TreeMeasure({"": F(1, 3), "1": F(1, 4)})])
BAD = MeasureFamily([TreeMeasure(), TreeMeasure({"": F(1, 4)})])
D3 = ["".join(p) for p in product("01", repeat=3)]
D4 = ["".join(p) for p in product("01", repeat=4)]


@pytest.fixture(scope="module")
def sixstage():
    t0 = time.perf_counter()
    g = build_saturated(UNI, 6, max_depth=12)
    return g, time.perf_counter() - t0


def achievable_sums(k, host, depth):
    """Every subset mass vector over the host's depth-d leaves.

    The sums run on integer numerators over one common denominator per
    generator and turn back into Fractions at the end.
    """
    words = host.refine_to_depth(depth)
    masses = [k.vec_word(w) for w in words]
    dens = [lcm(*(v[i].denominator for v in masses)) for i in range(len(k.generators))]
    sums = {(0,) * len(dens)}
    for v in masses:
        n = tuple(x.numerator * (d // x.denominator) for x, d in zip(v, dens))
        sums |= {tuple(a + b for a, b in zip(s, n)) for s in sums}
    return {tuple(F(a, d) for a, d in zip(s, dens)) for s in sums}


def test_criterion_1_single_measure_build_fast_and_exact(sixstage):
    g, elapsed = sixstage
    assert elapsed < 60.0
    assert len(g.stages) == 7
    assert validate_sequence(g) == ()
    for n, t in enumerate(g.stages):
        budget = F(1) if n == 0 else F(1, 2 ** n)
        assert t.base.diameter() <= budget
        assert t.top.diameter() <= budget
        from_columns(g.family, t.columns)
    print("criterion 1 PASS: 6-stage build in %.2f s, every stage exact" % elapsed)


def test_six_stage_tower_bytes_pinned(sixstage, pins):
    # the unnamed measure is written as mu0 with depth_bound 0
    g, _ = sixstage
    digest = hashlib.sha256(serialize_sequence(g).encode()).hexdigest()
    assert digest == pins["mu0-6/tower.txt"]


def test_criterion_2_cone_collapse(sixstage):
    g, _ = sixstage
    values = []
    for n in range(len(g.stages)):
        cone = invariant_cone(g, n)
        for m in g.family.generators:
            assert cone.contains(tuple(m.eval(a) for a in cone.atoms))
        values.append(collapse_metric(g, n))
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[-1] <= F(1, 32)
    print(
        "criterion 2 PASS: collapse non-increasing [%s], final <= 1/32"
        % ", ".join(str(v) for v in values)
    )


def test_criterion_3_saturation_witnesses(sixstage):
    g, _ = sixstage
    assert len(g.pairs) >= 5
    for u, v in g.pairs[:5]:
        w = saturation_witness(g, u, v)
        assert union_all(w.pieces) == FULL
        for i in range(len(w.pieces)):
            for j in range(i + 1, len(w.pieces)):
                assert (w.pieces[i] & w.pieces[j]).is_empty
        t = g.stages[w.stage]
        images = [apply_witness(g, w, a.leaves[0]) for a in t.atoms if a.is_subset(u)]
        assert union_all(images) == v
    print("criterion 3 PASS: 5 witnesses carry U onto V with partitioning pieces")


def test_criterion_4_minimality(sixstage):
    g, _ = sixstage
    for n in range(len(g.stages)):
        assert minimality_check(g, n).ok
    iso = TowerSequence(
        UNI,
        (trivial_partition(), KRPartition(((ClopenSet(["0"]),), (ClopenSet(["1"]),)))),
        (),
        (F(1), F(1)),
    )
    mr = minimality_check(iso, 1)
    assert not mr.ok
    assert mr.certificate == ClopenSet(["0"])
    t = iso.stages[1]
    inside = [c for c in t.columns if union_all(c).is_subset(mr.certificate)]
    outside = [c for c in t.columns if not union_all(c).is_subset(mr.certificate)]
    assert inside and outside
    for ci in inside:
        for co in outside:
            assert (ci[-1] & co[0]).is_empty
    print("criterion 4 PASS: all stages minimal; trap certificate separates")


def test_criterion_5_selection_matches_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(20250816)
    feas = infeas = noleq = literal = 0
    for fam in (UNI, TWO):
        for _ in range(100):
            b = ClopenSet(rng.sample(D3, rng.randint(1, 8)))
            a = ClopenSet(rng.sample(D3, rng.randint(0, 8)))
            target = fam.vec(a)
            sums = achievable_sums(fam, b, 6)
            words = b.refine_to_depth(6)
            if len(words) <= 14:
                literal += 1
                hit = False
                for bits in product((0, 1), repeat=len(words)):
                    s = (F(0),) * len(fam.generators)
                    for w, keep in zip(words, bits):
                        if keep:
                            s = tuple(x + y for x, y in zip(s, fam.vec_word(w)))
                    if s == target:
                        hit = True
                        break
                assert hit == (target in sums)
            if not fam.leq(a, b):
                noleq += 1
                assert target not in sums
                continue
            try:
                c = goodness_select(fam, a, b, 6)
            except GoodnessFailure:
                assert target not in sums
                infeas += 1
            else:
                assert c.is_subset(b) and fam.vec(c) == target
                assert target in sums
                feas += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert infeas >= 1 and literal >= 1
    print(
        "criterion 5 PASS: 200 instances in %.1f s "
        "(%d feasible, %d infeasible, %d dominance-violating, %d literal sweeps)"
        % (elapsed, feas, infeas, noleq, literal)
    )


def test_criterion_6_non_good_family_refuted(tmp_path):
    a, b = ClopenSet(["00"]), ClopenSet(["1"])
    with pytest.raises(GoodnessFailure):
        goodness_select(BAD, a, b, 12)
    target = BAD.vec(a)
    for depth in range(1, 13):
        assert target not in achievable_sums(BAD, b, depth)
    fam = tmp_path / "family.txt"
    fam.write_text("measure uniform\n\nmeasure quarter\nweight e 1/4\n")
    assert cli_main(["validate", "--family", str(fam)]) == 2
    print("criterion 6 PASS: infeasible at depths 1..12, validate exits 2")


def test_criterion_7_first_return_division(sixstage):
    g, _ = sixstage
    classes, rem = first_return_divide(g, FULL, 3, F(1, 4))
    assert len(classes) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert g.family.sim(classes[i], classes[j])
    assert union_all(classes + (rem,)) == FULL
    for m in g.family.generators:
        assert m.eval(rem) <= F(1, 4)
    fam = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    col = tuple(
        ClopenSet([w]) for w in ("00", "01", "100", "101", "110", "111")
    )
    h6 = TowerSequence(fam, (trivial_partition(), KRPartition((col,))), (), (F(1), F(1)))
    classes6, rem6 = first_return_divide(h6, FULL, 3, 0)
    assert rem6 == EMPTY
    assert len(classes6) == 3
    print("criterion 7 PASS: equivalent classes, remainder within 1/4; height-6 exact")


def test_criterion_8_affine_approximation():
    b = affine_approx(UNI, (FULL,), (F(1, 3),), F(1, 16))
    mu = TreeMeasure().eval(b)
    assert abs(mu - F(1, 3)) <= F(1, 16)
    assert mu == F(5, 16)
    print("criterion 8 PASS: constant 1/3 approximated by mass 5/16 within 1/16")


def test_criterion_9_balancing():
    u, v = ClopenSet(["0"]), ClopenSet(["1"])
    t = balance_columns(UNI, trivial_partition(), u, v)
    for col in t.columns:
        assert sum(1 for x in col if x.is_subset(u)) == sum(
            1 for x in col if x.is_subset(v)
        )
        for x in col:
            assert x.is_subset(u) or (x & u).is_empty
            assert x.is_subset(v) or (x & v).is_empty
    fixture = KRPartition(
        (
            (ClopenSet(["00"]), ClopenSet(["01"])),
            (ClopenSet(["10"]),),
            (ClopenSet(["11"]),),
        )
    )
    trace = []
    balance_columns(UNI, fixture, u, v, 12, trace)
    assert trace == [2, 1]
    rng = random.Random(97)
    for trial in range(20):
        words = list(D3 if trial % 2 == 0 else D4)
        rng.shuffle(words)
        cols = []
        while words:
            take = rng.randint(1, min(4, len(words)))
            cols.append(tuple(ClopenSet([w]) for w in words[:take]))
            words = words[take:]
        tower = KRPartition(tuple(cols))
        s = rng.randint(1, 6)
        picks = rng.sample(D4, 2 * s)
        u2, v2 = ClopenSet(picks[:s]), ClopenSet(picks[s:])
        tr = []
        out = balance_columns(UNI, tower, u2, v2, 12, tr)
        assert all(x > y for x, y in zip(tr, tr[1:]))
        for col in out.columns:
            assert sum(1 for x in col if x.is_subset(u2)) == sum(
                1 for x in col if x.is_subset(v2)
            )
    print("criterion 9 PASS: exact balance; 20 seeded descents strictly decrease")
