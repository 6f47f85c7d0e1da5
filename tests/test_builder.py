import hashlib
import random
import re
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_check import naive_faults

from cantordyn.builder import (
    BuildFailure,
    TowerSequence,
    bratteli_dot,
    build_saturated,
    enumerate_pairs,
    load_sequence,
    serialize_sequence,
    validate_sequence,
)
from cantordyn.clopen import EMPTY, FULL, ClopenSet
from cantordyn.measure import MeasureFamily, TreeMeasure, frac_text, parse_family
from cantordyn.oracles import GoodnessFailure, SearchFailure
import cantordyn.builder
from cantordyn import oracles, tower
from cantordyn.tower import KRPartition, refine_small_base_top, run_decomposition, trivial_partition
from cantordyn.verify import verification_report

F = Fraction
UNI = MeasureFamily([TreeMeasure()])
C = lambda *ws: ClopenSet(ws)

# the first refinement of the trivial tower under the uniform measure,
# one column read bottom to top
STAGE1 = (
    "0000 0001 0011 0100 0101 0110 0111 1000"
    " 1001 1010 1011 1100 1101 1110 1111 0010"
).split()


def test_enumerate_pairs_prefix():
    got = enumerate_pairs(UNI, 6)
    assert got == (
        (EMPTY, EMPTY),
        (FULL, FULL),
        (C("1"), C("1")),
        (C("1"), C("0")),
        (C("1"), C("01", "11")),
        (C("1"), C("01", "10")),
    )


def test_enumerate_pairs_shortfall():
    # depth-3 sets of j of the 8 cylinders pair up C(8, j)^2 ways: C(16, 8) in all
    assert len(enumerate_pairs(UNI, 12870)) == 12870
    with pytest.raises(ValueError, match="only 12870 equivalent pairs within depth 3"):
        enumerate_pairs(UNI, 12871)


def test_enumerate_pairs_counts_at_and_below_zero():
    assert enumerate_pairs(UNI, 0) == ()
    with pytest.raises(ValueError, match="pair count must be at least 0, got -1"):
        enumerate_pairs(UNI, -1)


def reference_schedule(k):
    """Every pair of enumerate_pairs as first written: normalise and evaluate every depth-3 set."""
    universe = [EMPTY, FULL]
    for d in range(1, 4):
        words = ["".join(t) for t in product("01", repeat=d)]
        for bits in product((0, 1), repeat=len(words)):
            s = ClopenSet(w for w, b in zip(words, bits) if b)
            if s.max_leaf_len == d:
                universe.append(s)
    vecs = [k.vec(a) for a in universe]
    return ((a, b) for a, va in zip(universe, vecs) for b, vb in zip(universe, vecs) if va == vb)


def reference_pairs(schedule, count):
    pairs = tuple(islice(schedule, count))
    if len(pairs) < count:
        raise ValueError("only %d equivalent pairs within depth %d, need %d" % (len(pairs), 3, count))
    return pairs


def pairs_outcome(pairs, source, count):
    try:
        return pairs(source, count)
    except ValueError as exc:
        return "ValueError: %s" % exc


# weights on words of length up to 4, so cylinder masses split down to depth 5,
# drawn mostly from a few values so that unequal sets often share a vector
schedule_measure_st = st.builds(
    TreeMeasure,
    st.dictionaries(
        st.text(alphabet="01", max_size=4),
        st.one_of(
            st.sampled_from([F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 2)]),
            st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20),
        ),
        max_size=4,
    ),
    st.integers(0, 4),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(schedule_measure_st, min_size=1, max_size=2).map(MeasureFamily), st.integers(0, 300))
def test_enumerate_pairs_matches_the_first_definition(k, count):
    schedule = tuple(reference_schedule(k))
    # the drawn count, the whole schedule, and the shortfall one pair past it
    for c in (count, len(schedule), len(schedule) + 1):
        assert pairs_outcome(enumerate_pairs, k, c) == pairs_outcome(reference_pairs, schedule, c)


def test_enumerate_pairs_builds_only_the_sets_it_returns(monkeypatch):
    # masks stand for the other depth-3 sets: 6 pairs need at most 12 sets
    built = []
    init, raw = ClopenSet.__init__, ClopenSet._raw.__func__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_raw(cls, leaves):
        built.append(leaves)
        return raw(cls, leaves)

    monkeypatch.setattr(ClopenSet, "__init__", counting_init)
    monkeypatch.setattr(ClopenSet, "_raw", classmethod(counting_raw))
    for k in (UNI, parse_family("measure third\nweight e 1/3\n"), parse_family(D2)):
        built.clear()
        pairs = enumerate_pairs(k, 6)
        assert len(pairs) == 6 and 0 < len(built) <= 12
        assert pairs == reference_pairs(reference_schedule(k), 6)


def test_build_two_stages():
    g = build_saturated(UNI, 2, max_depth=12)
    assert len(g.stages) == 3
    assert g.stages[0] == trivial_partition()
    assert g.budgets == (F(1), F(1, 2), F(1, 4))
    assert g.pairs == enumerate_pairs(UNI, 2)
    cols = g.stages[1].columns
    assert len(cols) == 1
    assert [a.leaves for a in cols[0]] == [(w,) for w in STAGE1]
    # base and top already fit the tighter budget, so stage 2 is stage 1
    assert g.stages[2] == g.stages[1]
    assert validate_sequence(g) == ()


D2 = "measure d2\nweight 0 1/3\nweight 1 2/3\n"


def tree_weights(weight, depth):
    """Family lines giving one weight to every node of length below depth."""
    nodes = ("e", "0", "1", "00", "01", "10", "11")[: 2**depth - 1]
    return "".join("weight %s %s\n" % (w, weight) for w in nodes)


# one generator, weight 1/3 at every node of depth at most 2
DEEP_WEIGHTS = tree_weights("1/3", 3)


@pytest.mark.parametrize(
    "text,stages,max_depth,key",
    [
        ("measure uniform\ndepth_bound 3\n", 3, 12, "uniform-3/tower.txt"),
        # the merge stacks the refinement's three columns into one
        ("measure third\nweight e 1/3\n", 2, 16, "third-2/tower.txt"),
        # the benchmark's third4 tower: one column of 48 atoms, non-dyadic masses
        ("measure third\nweight e 1/3\n", 4, 16, "third-4/tower.txt"),
        # weight depth 2: atoms of one leaf-length pattern differ in mass by
        # their first two letters, so a column split must tell them apart
        (D2, 3, 16, "d2-3/tower.txt"),
        # the benchmark's uniform6 tower, whose digest its output check gates on
        ("measure uniform\ndepth_bound 3\n", 6, 12, "uniform-6/tower.txt"),
        # in these two, the refine splits principals across pool columns twice
        ("measure seventeenth\nweight e 1/17\n", 3, 12, "seventeenth-3/tower.txt"),
        ("measure deep\n" + DEEP_WEIGHTS, 2, 12, "deep-2/tower.txt"),
        # in these five, a column split moves its pieces onto atoms of the
        # split atom's shape at other levels
        ("measure uniform\ndepth_bound 3\n", 10, 14, "uniform-10/tower.txt"),
        ("measure m\nweight e 1/5\n", 4, 16, "fifth-4/tower.txt"),
        ("measure m\nweight e 1/9\n", 3, 16, "ninth-3/tower.txt"),
        ("measure m\nweight e 8/9\n", 3, 16, "eight-ninths-3/tower.txt"),
        ("measure m\n" + tree_weights("1/3", 2), 3, 16, "third-tree-3/tower.txt"),
    ],
    ids=[
        "uniform3", "third2", "third4", "d2_3", "uniform6", "seventeenth3", "deep2",
        "uniform10", "fifth4", "ninth3", "eight_ninths3", "third_tree3",
    ],
)
def test_serialized_build_bytes_pinned(monkeypatch, pins, text, stages, max_depth, key):
    # every stage is refine, then merge: the build never balances by stacking
    def no_balance(*args, **kwargs):
        raise AssertionError("the build called balance_columns")

    monkeypatch.setattr(tower, "balance_columns", no_balance)
    monkeypatch.setattr(cantordyn.builder, "balance_columns", no_balance, raising=False)
    g = build_saturated(parse_family(text), stages, max_depth)
    assert hashlib.sha256(serialize_sequence(g).encode()).hexdigest() == pins[key]


@pytest.mark.parametrize(
    "text,stages,max_depth,key",
    [
        ("measure uniform\ndepth_bound 3\n", 6, 12, "uniform-6/bratteli.dot"),
        ("measure third\nweight e 1/3\n", 2, 16, "third-2/bratteli.dot"),
        (D2, 3, 16, "d2-3/bratteli.dot"),
    ],
    ids=["uniform6", "third2", "d2_3"],
)
def test_bratteli_dot_bytes_pinned(pins, text, stages, max_depth, key):
    g = build_saturated(parse_family(text), stages, max_depth)
    assert hashlib.sha256(bratteli_dot(g).encode()).hexdigest() == pins[key]


def test_bratteli_dot_draws_columns_and_their_runs():
    # a node per column with its height and masses; the j-th edge into a
    # column comes from the column of the stage before that it climbs
    # through j-th
    g = build_saturated(parse_family(D2), 3, 16)
    nodes = {}
    runs = {}
    for line in bratteli_dot(g).splitlines():
        node = re.fullmatch(r'  s(\d+)_(\d+) \[label="height (\d+)\\nmass (.*)"\];', line)
        edge = re.fullmatch(r'  s(\d+)_(\d+) -> s(\d+)_(\d+) \[label="(\d+)"\];', line)
        if node:
            n, c, height = map(int, node.groups()[:3])
            nodes[n, c] = (height, node.group(4))
        elif edge:
            n, c, m, d, j = map(int, edge.groups())
            assert m == n + 1
            runs.setdefault((n, d), []).append((j, c))
    assert nodes == {
        (n, c): (len(col), " ".join(frac_text(x) for x in g.family.vec(col[0])))
        for n, t in enumerate(g.stages)
        for c, col in enumerate(t.columns)
    }
    assert runs == {
        (n, d): list(enumerate(trace, start=1))
        for n in range(len(g.stages) - 1)
        for d, trace in enumerate(g.runs(n + 1, n))
    }


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_saturated(UNI, 0)
    with pytest.raises(ValueError, match="max_depth must be at least 0"):
        build_saturated(UNI, 2, max_depth=-3)
    dup = MeasureFamily([TreeMeasure(), TreeMeasure()])
    with pytest.raises(ValueError, match="degenerate"):
        build_saturated(dup, 1)


def test_build_fails_on_proportional_generators():
    # inside [0] every subset carries exactly half as much of the second
    # generator as of the first, so the family is refused before stage 1
    bad = MeasureFamily([TreeMeasure(), TreeMeasure({"": F(1, 4)})])
    with pytest.raises(BuildFailure) as info:
        build_saturated(bad, 1)
    err = info.value
    assert err.stage == 0
    assert err.phase == "goodness"
    assert "GoodnessFailure" in str(err)


def test_build_refuses_a_one_generator_family_that_is_not_good():
    # one generator, but the masses of [000] and [011] are not one dyadic
    # multiple of each other: the refinement would have shipped a tower
    bad = parse_family("measure m\nweight 01 2/5\n")
    with pytest.raises(BuildFailure) as info:
        build_saturated(bad, 3)
    err = info.value
    assert (err.stage, err.phase) == (0, "goodness")
    assert "GoodnessFailure" in str(err)
    assert "A = [000]" in str(err) and "B = [011]" in str(err)


def test_build_names_the_stage_an_oracle_failed_in():
    # depth 8 is too shallow for stage 4's exact copies; the default 12 builds all six stages
    with pytest.raises(BuildFailure) as info:
        build_saturated(parse_family("measure uniform\ndepth_bound 3\n"), 6, max_depth=8)
    err = info.value
    assert (err.stage, err.phase, type(err.cause)) == (4, "refine", GoodnessFailure)
    assert err.cause.max_depth == 8
    assert str(err) == (
        "stage 4 refine failed: GoodnessFailure: no subset of 000000 attains (1/2048)"
        " (searched to depth 8)"
    )


THIRD = "measure third\nweight e 1/3\n"


@pytest.mark.parametrize(
    "text,stages,max_depth",
    [
        ("measure uniform\ndepth_bound 3\n", 3, 12),
        (THIRD, 2, 16),
        (THIRD, 4, 16),
        (D2, 3, 16),
        # base masses up to 4 times their gcd: the merge carves before it stacks
        ("measure deep\n" + DEEP_WEIGHTS, 2, 12),
        # refine's second designated base is the smaller: the division fits it
        ("measure deep\n" + tree_weights("2/3", 3), 2, 12),
        ("measure fifth\nweight e 1/5\n", 4, 17),
        ("measure uniform\ndepth_bound 3\n", 6, 12),
    ],
    ids=["uniform3", "third2", "third4", "d2_3", "deep2", "deep2_two_thirds", "fifth4", "uniform6"],
)
def test_every_built_stage_is_one_column_and_verifies(monkeypatch, text, stages, max_depth):
    # the build asks only for exact copies: every oracle box is one point
    boxes = []
    real = oracles._in_box

    def spy(k, host, bounds, depth, *rest):
        boxes.append(bounds)
        return real(k, host, bounds, depth, *rest)

    monkeypatch.setattr(oracles, "_in_box", spy)
    g = build_saturated(parse_family(text), stages, max_depth)
    # each generator's bounds are lo = a/b and hi = c/e
    assert boxes and all(a * e == c * b for bounds in boxes for a, b, c, e in bounds)
    assert all(len(t.columns) == 1 for t in g.stages)
    assert verification_report(g).ok


def good_families(j_max):
    """Roots 1/(2^j+1) and 2^j/(2^j+1) for j <= j_max, and trees of depth 2 and 3."""
    return sorted(
        {"measure m\nweight e %d/%d\n" % (p, 2**j + 1) for j in range(j_max + 1) for p in (1, 2**j)}
        | {"measure m\n" + tree_weights(w, d) for w in ("1/3", "2/3") for d in (2, 3)}
    )


AGREEMENT_FAMILIES = good_families(5)
# the independent checker expands every atom, and root 1/33's 8,448 at
# three stages take it seconds
LEAF_MOVE_FAMILIES = good_families(3)


@pytest.mark.parametrize("text", AGREEMENT_FAMILIES)
def test_refine_makes_exact_copies_with_no_leftover_column(text):
    # the new base is one n-th part of the whole space, n a power of two
    # of at least 4; a leftover column would add its own base to it
    k = parse_family(text)
    got = refine_small_base_top(k, trivial_partition(), F(1, 2), 16)
    n = 1 / k.vec(got.base)[0]
    assert n.denominator == 1 and n >= 4 and n.numerator & (n.numerator - 1) == 0
    assert run_decomposition(got, trivial_partition()) is not None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(AGREEMENT_FAMILIES), st.integers(2, 3), st.integers(12, 16))
def test_builder_ships_only_what_verify_accepts(text, stages, max_depth):
    # a build either verifies, one column per stage, or is refused by an
    # oracle that searched to max_depth; any other exception fails
    try:
        g = build_saturated(parse_family(text), stages, max_depth)
    except BuildFailure as exc:
        assert isinstance(exc.cause, SearchFailure) and exc.cause.max_depth == max_depth
        return
    assert all(len(t.columns) == 1 for t in g.stages)
    assert verification_report(g).ok


def test_a_leaf_moved_within_an_earlier_atom_is_refused_for_its_mass():
    # in the last stage that moves anything, and in every stage repeating
    # it, split a leaf w of one atom into w0 and w1 and move w1 up a
    # multiple of h levels, h the height of the stage before: both atoms
    # lie in one atom of that stage, so the partition and the refinement
    # hold, and only the masses tell
    rng = random.Random(41)
    for text in LEAF_MOVE_FAMILIES:
        g = build_saturated(parse_family(text), 3, 16)
        n = max(i for i in range(1, len(g.stages)) if g.stages[i] != g.stages[i - 1])
        ((below,), (col,)) = g.stages[n - 1].columns, g.stages[n].columns
        h = len(below)
        schedule = enumerate_pairs(g.family, len(g.pairs))
        for _ in range(18):
            r = rng.randrange(len(col) - h)
            j = rng.randrange(1, (len(col) - 1 - r) // h + 1)
            w1 = C(rng.choice(col[r].leaves) + "1")
            atoms = list(col)
            atoms[r], atoms[r + j * h] = col[r] - w1, col[r + j * h] | w1
            stages = g.stages[:n] + (KRPartition((tuple(atoms),)),) * (len(g.stages) - n)
            edited = TowerSequence(g.family, stages, g.pairs, g.budgets)
            report = verification_report(edited)
            assert report.ok == (not naive_faults(edited, schedule))
            assert report.violations and all(
                v.endswith("differs in mass from its base") for v in report.violations
            ), report.violations


def test_validate_reports_tampering():
    g = build_saturated(UNI, 2)
    col = list(g.stages[1].columns[0])
    col[1], col[2] = col[2], col[1]
    swapped = KRPartition((tuple(col),))
    bad = TowerSequence(g.family, (g.stages[0], g.stages[1], swapped), g.pairs, g.budgets)
    msgs = validate_sequence(bad)
    assert msgs and any("does not refine" in m for m in msgs)

    holed = KRPartition((tuple(col[:-1]),))
    msgs = validate_sequence(
        TowerSequence(g.family, (g.stages[0], holed, holed), g.pairs, g.budgets)
    )
    assert any("not a tower partition" in m for m in msgs)

    tight = TowerSequence(g.family, g.stages, g.pairs, (F(1), F(1, 64), F(1, 4)))
    assert any("exceeds budget" in m for m in validate_sequence(tight))

    orphan = TowerSequence(g.family, g.stages[:2], g.pairs, g.budgets[:2])
    assert any("has no stage" in m for m in validate_sequence(orphan))

    short = TowerSequence(g.family, g.stages, g.pairs, g.budgets[:2])
    assert validate_sequence(short) == ("budget count 2 does not match stage count 3",)


def test_build_refuses_a_sequence_validate_rejects(monkeypatch):
    # the builder ships nothing validate_sequence rejects
    monkeypatch.setattr(cantordyn.builder, "validate_sequence", lambda g: ("stage 2 is wrong",))
    with pytest.raises(BuildFailure) as info:
        build_saturated(UNI, 2)
    err = info.value
    assert (err.stage, err.phase, type(err.cause)) == (2, "validate", AssertionError)
    assert str(err) == "stage 2 validate failed: AssertionError: stage 2 is wrong"


def test_validate_checks_a_changed_repeat_in_full(monkeypatch):
    # stage 2 of this build repeats stage 1 and is not checked again; with
    # its top atom moved to the bottom it is still a partition, but no
    # longer a repeat, and it does not refine stage 1
    calls = []
    real = cantordyn.builder.from_columns

    def counted(k, columns):
        calls.append(k)
        return real(k, columns)

    monkeypatch.setattr(cantordyn.builder, "from_columns", counted)
    g = build_saturated(UNI, 3)
    assert g.stages[3] == g.stages[2] == g.stages[1]
    del calls[:]
    assert validate_sequence(g) == ()
    assert len(calls) == 2
    col = g.stages[1].columns[0]
    moved = KRPartition((col[-1:] + col[:-1],))
    bad = TowerSequence(g.family, g.stages[:2] + (moved, g.stages[3]), g.pairs, g.budgets)
    del calls[:]
    assert validate_sequence(bad) == (
        "stage 2 does not refine stage 1",
        "stage 3 does not refine stage 2",
    )
    assert len(calls) == 4
    # runs names the first step that fails going down from its upper stage
    with pytest.raises(ValueError, match="^stage 3 does not refine stage 2$"):
        bad.runs(3, 0)
    assert bad.runs(1, 0) == g.runs(1, 0)


PINNED_BUILDS = [
    ("measure uniform\ndepth_bound 3\n", 6, 12),
    ("measure uniform\ndepth_bound 3\n", 3, 12),
    ("measure third\nweight e 1/3\n", 4, 16),
    ("measure third\nweight e 1/3\n", 2, 16),
    ("measure d2\nweight 0 1/3\nweight 1 2/3\n", 3, 16),
]


@pytest.mark.parametrize(
    "text,stages,max_depth", PINNED_BUILDS, ids=["uniform6", "uniform3", "third4", "third2", "d2_3"]
)
def test_run_decomposition_of_a_stage_over_itself_is_the_identity(monkeypatch, text, stages, max_depth):
    g = build_saturated(parse_family(text), stages, max_depth)
    for t in g.stages:
        # every leaf of an atom lies in that atom alone, so each column
        # runs through itself
        idx = tower._atom_index(t)
        for ci, col in enumerate(t.columns):
            for ri, a in enumerate(col):
                assert all(tower._locate(idx, w) == (ci, ri) for w in a.leaves)

    def refuse(t):
        raise AssertionError("searched a stage equal to its predecessor")

    # an equal partition is answered without building the atom index
    monkeypatch.setattr(tower, "_atom_index", refuse)
    for t in g.stages:
        assert run_decomposition(KRPartition(t.columns), t) == tuple((ci,) for ci in range(len(t.columns)))


def test_validate_reports_a_pair_not_split_into_atoms():
    # each atom of the pairing stage straddles [0] and [1]; every column
    # still visits both sets equally often (never)
    straddling = KRPartition(((C("00", "10"), C("01", "11")),))
    g = TowerSequence(UNI, (trivial_partition(), straddling), ((C("0"), C("1")),), (F(1), F(1)))
    assert validate_sequence(g) == (
        "stage 1 does not split 0 into atoms",
        "stage 1 does not split 1 into atoms",
    )


def test_validate_reports_the_first_column_visiting_a_pair_unequally():
    # column 0 visits [0] and [1] once each; columns 1 and 2 each visit one
    # of them, and only the first is reported
    stage = KRPartition(((C("00"), C("10")), (C("01"),), (C("11"),)))
    g = TowerSequence(UNI, (trivial_partition(), stage), ((C("0"), C("1")),), (F(1), F(1)))
    assert validate_sequence(g) == ("stage 1 column 1 visits 0 and 1 unequally",)


def test_validate_reports_straddled_sets_before_unequal_visits():
    # column 0's atom [1] straddles v = [11], column 2's atom straddles
    # u = [00], and column 1 visits u only: u is reported first, then v,
    # then the column
    stage = KRPartition(((C("1"),), (C("000"),), (C("001", "01"),)))
    g = TowerSequence(UNI, (trivial_partition(), stage), ((C("00"), C("11")),), (F(1), F(1)))
    assert validate_sequence(g) == (
        "stage 1 does not split 00 into atoms",
        "stage 1 does not split 11 into atoms",
        "stage 1 column 1 visits 00 and 11 unequally",
    )


def test_validate_reports_a_pair_deeper_than_the_schedule(monkeypatch):
    # the atom masks decide membership only down to the schedule's depth, so
    # a deeper pair is reported instead of checked
    g = build_saturated(UNI, 2)
    deep = TowerSequence(UNI, g.stages, (g.pairs[0], (C("0000"), C("0001"))), g.budgets)

    real = cantordyn.builder._masks

    def shallow_only(sets, depth):
        assert all(s is not w for s in sets for w in deep.pairs[1]), "a deeper pair reached the membership check"
        return real(sets, depth)

    monkeypatch.setattr(cantordyn.builder, "_masks", shallow_only)
    assert validate_sequence(deep) == ("pair 2: 0000 is deeper than 3, the schedule's depth",)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^pair 2: 0000 is deeper than 3, the schedule's depth$"):
        deep._pair_members(2)
    report = verification_report(deep)
    assert report.violations == (
        "pair 2: 0000 is deeper than 3, the schedule's depth",
        "schedule: pair 2 is 0000 0001, the enumeration gives %s %s" % tuple(w.text() for w in g.pairs[1]),
    )


def test_serialize_round_trip():
    g = build_saturated(UNI, 2)
    text = serialize_sequence(g)
    back = load_sequence(text)
    assert back == g
    assert serialize_sequence(back) == text


def test_serialize_round_trip_two_generators():
    two = MeasureFamily([TreeMeasure(), TreeMeasure({"": F(1, 3)}, name="third")])
    base = KRPartition(((C("00"), C("10")), (C("01"), C("11"))))
    g = TowerSequence(two, (trivial_partition(), base), ((C("1"), C("0")),), (F(1), F(1)))
    text = serialize_sequence(g)
    lines = text.splitlines()
    assert lines[0] == "cantordyn tower v1"
    assert lines[1] == "generators 2"
    assert lines[2] == "measure mu0"
    assert "weight e 1/3" in lines
    assert "pair 1 0" in lines
    assert load_sequence(text) == g


# a valid hand-written sequence whose stages 2 and 3 repeat stage 1: one
# column of the eight depth-3 cylinders in odometer order.  Its text has
# 44 lines: the pairs on 7-9, "stages 4" on 10, stage 1's header on 14,
# its "column 8" on 15 and its atoms on 16-23
ODOMETER = KRPartition((tuple(C(w) for w in "000 100 010 110 001 101 011 111".split()),))
ODOMETER_SEQ = TowerSequence(
    UNI,
    (trivial_partition(), ODOMETER, ODOMETER, ODOMETER),
    ((C("0"), C("1")), (C("00"), C("11")), (C("000"), C("111"))),
    (F(1), F(1, 2), F(1, 4), F(1, 8)),
)
ODOMETER_TEXT = serialize_sequence(ODOMETER_SEQ)


def test_load_rejects_malformed_text():
    text = ODOMETER_TEXT
    with pytest.raises(ValueError, match="truncated tower file after line 41"):
        load_sequence("\n".join(text.splitlines()[:-3]))
    with pytest.raises(ValueError, match="not a tower file"):
        load_sequence("something else\n" + text)
    with pytest.raises(ValueError, match="line 14, col 26: zero denominator"):
        load_sequence(text.replace("budget 1/2", "budget 1/0"))
    with pytest.raises(ValueError, match="line 5, col 10: expected num/den"):
        load_sequence(text.replace("end measure", "weight e half\nend measure"))
    # every shape error names the line it found
    for old, new, message in [
        ("generators 1", "generators x", "line 2: expected 'generators <int>', got 'generators x'"),
        ("generators 1", "generators 0", "line 2: no generators"),
        ("pairs 3", "pairs -1", "line 6: negative pairs count"),
        ("pairs 3", "pair 1", "line 6: expected 'pairs <int>', got 'pair 1'"),
        ("pair 0 1", "pair 0", "line 7: expected 'pair <clopen> <clopen>'"),
        ("pair 0 1", "pair 0 0,", "line 7: bad clopen text"),
        ("stages 4", "stages 0", "line 10: no stages"),
        ("stage 1 ", "stage 7 ", "line 14: stage 7 out of order"),
        ("stage 1 columns 1", "stage 1 rows 1", "line 14: expected 'stage <n> columns <c> budget <q>'"),
        ("stage 1 columns 1", "stage 1 columns 0", "line 14: stage 1 has no columns"),
        ("column 8", "column 0", "line 15: expected 'column <height>'"),
        ("\n010\n", "\n020\n", "line 18: cylinder words use the alphabet"),
        ("end tower", "end", "line 44: missing 'end tower' marker"),
    ]:
        assert old in text
        with pytest.raises(ValueError) as info:
            load_sequence(text.replace(old, new, 1))
        assert str(info.value).startswith(message), (old, new)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("generators 1", "generators --1", "line 2: expected 'generators <int>', got 'generators --1'"),
        ("pairs 3", "pairs --5", "line 6: expected 'pairs <int>', got 'pairs --5'"),
        ("stages 4", "stages --1", "line 10: expected 'stages <int>', got 'stages --1'"),
        ("column 8", "column ²", "line 15: expected 'column <height>'"),
        ("stage 1 columns 1", "stage ¹ columns 1", "line 14: expected 'stage <n> columns <c> budget <q>'"),
    ],
    ids=["generators", "pairs", "stages", "column", "stage"],
)
def test_load_reads_integer_fields_as_ascii_digits(old, new, message):
    # a doubled sign and a superscript digit are no integers, and each is
    # refused with its line
    text = ODOMETER_TEXT
    assert old in text
    with pytest.raises(ValueError) as info:
        load_sequence(text.replace(old, new, 1))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("depth_bound 0", "depht_bound 0", "line 4, col 1: unknown keyword 'depht_bound'"),
        ("end measure", "weight 0x 1/3\nend measure", "line 5, col 8: bad branching word '0x'"),
        ("end measure", "weight e 1/3\nweight e 1/4\nend measure", "line 6, col 8: duplicate weight for 'e'"),
        ("end measure", "weight e 3/2\nend measure", "line 5, col 10: weight 3/2 not in (0,1)"),
        (
            "end measure",
            "weight 01 1/3\nend measure",
            "line 3, col 1: depth_bound 0 below weight depth 3 in measure mu0",
        ),
        (
            "generators 1\nmeasure mu0\ndepth_bound 0\nend measure",
            "generators 2\nmeasure mu0\nend measure\n  measure mu0\nend measure",
            "line 5, col 11: duplicate measure name 'mu0'",
        ),
        ("end measure", "measure b\nend measure", "line 6: generators 1 but 2 measures"),
        ("generators 1", "generators 2", "truncated tower file after line 44"),
        ("depth_bound 0", "depth_bound ²", "line 4, col 1: depth_bound takes one nonnegative integer"),
    ],
    ids=[
        "keyword", "word", "duplicate-weight", "range", "depth-bound", "duplicate-name", "count", "truncated",
        "depth-bound-digits",
    ],
)
def test_load_reads_generator_blocks_by_family_rules(old, new, message):
    # the generator blocks are family-file text; errors carry the tower
    # file's line and column
    text = ODOMETER_TEXT
    assert old in text
    with pytest.raises(ValueError) as info:
        load_sequence(text.replace(old, new, 1))
    assert str(info.value) == message


def test_load_refuses_a_line_between_generator_blocks():
    # a weight after one block's end marker and before the next header
    # would join the measure before it, so the family parser refuses it
    g = build_saturated(parse_family("measure uniform\ndepth_bound 3\n"), 2)
    text = serialize_sequence(g)
    old = "generators 1\nmeasure uniform\ndepth_bound 3\nend measure"
    new = "generators 2\nmeasure uniform\nend measure\nweight e 1/3\nmeasure b\nend measure"
    assert old in text
    with pytest.raises(ValueError) as info:
        load_sequence(text.replace(old, new, 1))
    assert str(info.value) == "line 5, col 1: weight outside a measure"
    # a comment or a blank line may still come before a header
    assert load_sequence(text.replace("measure uniform", "# the first\n\nmeasure uniform", 1)) == g


def test_load_accepts_family_file_text_in_a_block():
    g = build_saturated(UNI, 1)
    text = serialize_sequence(g).replace("depth_bound 0\n", "# a comment\n\n   \n")
    assert load_sequence(text) == g


names_st = st.one_of(st.just(""), st.text(alphabet="abxyz", min_size=1, max_size=3))
measure_st = st.builds(
    TreeMeasure,
    st.dictionaries(
        st.text(alphabet="01", max_size=2),
        st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
        max_size=3,
    ),
    st.integers(0, 4),
    names_st,
)


@given(
    st.lists(measure_st, min_size=1, max_size=3).filter(
        lambda ms: len({m.name for m in ms if m.name}) == sum(1 for m in ms if m.name)
    )
)
@settings(max_examples=100, deadline=None)
def test_serialize_round_trip_hand_built(measures):
    # a trivial stage and one two-column stage over 1-3 generators whose
    # names are distinct or absent
    stage = KRPartition(((C("00"), C("10")), (C("01"), C("11"))))
    g = TowerSequence(MeasureFamily(measures), (trivial_partition(), stage), ((C("1"), C("0")),), (F(1), F(1)))
    text = serialize_sequence(g)
    back = load_sequence(text)
    assert back == g
    assert serialize_sequence(back) == text


def test_load_shares_equal_atoms_across_stages():
    g = build_saturated(parse_family("measure uniform\ndepth_bound 3\n"), 6, 12)
    back = load_sequence(serialize_sequence(g))
    assert back == g
    # stages 5 and 6 repeat stage 4, and 2 and 3 repeat stage 1
    for n, m in ((5, 4), (6, 4), (2, 1), (3, 1)):
        assert all(a is b for a, b in zip(back.stages[n].atoms, back.stages[m].atoms))
    assert back.stages[5].columns[0][0] is back.stages[4].columns[0][0]


def test_load_gives_a_repeated_stage_block_one_partition():
    # stages 5 and 6 of the uniform build repeat stage 4 line for line
    g = build_saturated(parse_family("measure uniform\ndepth_bound 3\n"), 6, 12)
    text = serialize_sequence(g)
    back = load_sequence(text)
    assert back.stages[5] is back.stages[4] and back.stages[6] is back.stages[4]
    assert back.stages[3] is back.stages[1] and back.stages[4] is not back.stages[3]
    # one atom line of stage 5 changed to another valid word: stage 5 loads
    # fresh and fails the partition check, and stage 6, no longer a repeat
    # of its predecessor, loads fresh and passes it
    lines = text.splitlines()
    at = lines.index("stage 5 columns 1 budget 1/32") + 2
    assert lines[at : at + 2] == ["00000000000", "00010000000"]
    for word, why in [
        ("00000000001", "atoms do not cover the space"),
        ("0", "column 0 level 1 differs in mass from its base"),
    ]:
        broken = load_sequence("\n".join(lines[:at] + [word] + lines[at + 1 :]) + "\n")
        assert broken.stages[5] is not broken.stages[4] and broken.stages[6] is not broken.stages[5]
        assert broken.stages[6] == broken.stages[4]
        assert validate_sequence(broken) == ("stage 5 is not a tower partition: " + why,)
        assert verification_report(broken).violations == ("stage 5 is not a tower partition: " + why,)


atom_line_st = st.one_of(st.text(alphabet="01,X∅ a", max_size=6), st.just("empty"))


@given(st.lists(atom_line_st, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_load_reads_every_atom_line_as_from_text(atom_lines):
    # the same column at stages 0 and 1: each line loads as from_text of
    # the stripped line, or the load fails naming the first line it refuses
    head = ["cantordyn tower v1", "generators 1", "measure mu0", "depth_bound 0", "end measure", "pairs 0", "stages 2"]
    block = ["column %d" % len(atom_lines)] + atom_lines
    stages = ["stage 0 columns 1 budget 1/1"] + block + ["stage 1 columns 1 budget 1/2"] + block
    text = "\n".join(head + stages + ["end tower"]) + "\n"
    want = []
    for i, line in enumerate(atom_lines):
        try:
            want.append(ClopenSet.from_text(line.strip()))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                load_sequence(text)
            assert str(info.value) == "line %d: %s" % (len(head) + 3 + i, exc)
            return
    g = load_sequence(text)
    assert g.stages[0].columns == (tuple(want),)
    assert g.stages[1] is g.stages[0]


def test_load_names_the_line_of_a_bad_atom_in_a_repeated_stage():
    # stages 2 and 3 repeat stage 1
    lines = ODOMETER_TEXT.splitlines()
    at = [i for i, line in enumerate(lines) if line == "010"]
    assert len(at) == 3
    for bad in ([at[2]], [at[1], at[2]], at):
        broken = list(lines)
        for i in bad:
            broken[i] = "00a0"
        with pytest.raises(ValueError) as info:
            load_sequence("\n".join(broken) + "\n")
        # the first bad line is named, whether or not its text repeats
        assert str(info.value) == "line %d: cylinder words use the alphabet {0,1}, got '00a0'" % (bad[0] + 1)


def test_load_defers_semantic_checks():
    assert validate_sequence(ODOMETER_SEQ) == ()
    lines = ODOMETER_TEXT.splitlines()
    lines[lines.index("100")] = "000"
    # the damaged file still loads; validation catches it afterwards
    broken = load_sequence("\n".join(lines) + "\n")
    assert broken != ODOMETER_SEQ
    assert any("not a tower partition" in m for m in validate_sequence(broken))
