import unittest
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn.clopen import EMPTY, FULL, ClopenSet
from cantordyn.measure import (
    FamilyParseError,
    InvalidWeights,
    MeasureFamily,
    TreeMeasure,
    format_family,
    frac_text,
    goodness_obstruction,
    parse_family,
    validate_family,
)
from cantordyn.oracles import GoodnessFailure, goodness_select

UNIFORM = MeasureFamily([TreeMeasure()])
THIRD = MeasureFamily([TreeMeasure({"": Fraction(1, 3)})])


class TreeMeasureTest(unittest.TestCase):
    def test_uniform_cylinders(self):
        m = TreeMeasure()
        self.assertEqual(m.cyl(""), 1)
        self.assertEqual(m.cyl("01"), Fraction(1, 4))
        self.assertEqual(m.eval(ClopenSet(["0"])), Fraction(1, 2))
        self.assertEqual(m.eval(FULL), 1)
        self.assertEqual(m.eval(EMPTY), 0)

    def test_weighted_cylinders(self):
        m = TreeMeasure({"": Fraction(1, 3), "1": Fraction(1, 4)})
        self.assertEqual(m.cyl("0"), Fraction(1, 3))
        self.assertEqual(m.cyl("10"), Fraction(1, 6))
        self.assertEqual(m.cyl("11"), Fraction(1, 2))
        self.assertEqual(m.cyl("00"), Fraction(1, 6))

    def test_half_weights_pruned(self):
        m = TreeMeasure({"0": Fraction(1, 2), "": Fraction(1, 3)})
        self.assertEqual(m.weights, {"": Fraction(1, 3)})
        self.assertEqual(m, TreeMeasure({"": Fraction(1, 3)}))

    def test_identity_ignores_name_and_bound(self):
        a = TreeMeasure({"": Fraction(1, 3)}, depth_bound=5, name="a")
        b = TreeMeasure({"": Fraction(1, 3)}, name="b")
        self.assertEqual(a, b)
        self.assertEqual(hash(a), hash(b))

    def test_depth_bound_floor(self):
        m = TreeMeasure({"01": Fraction(1, 3)}, depth_bound=1)
        self.assertEqual(m.depth_bound, 3)
        self.assertEqual(TreeMeasure({}, depth_bound=4).depth_bound, 4)

    def test_constructor_accepts_out_of_range(self):
        # range checking is validate_family's job
        m = TreeMeasure({"": Fraction(3, 2)})
        self.assertEqual(m.cyl("0"), Fraction(3, 2))

    def test_bad_word_rejected(self):
        with self.assertRaises(ValueError):
            TreeMeasure({"2": Fraction(1, 3)})


class FamilyTest(unittest.TestCase):
    def test_vec_and_sim(self):
        k = MeasureFamily([TreeMeasure(), TreeMeasure({"": Fraction(1, 3)})])
        a = ClopenSet(["0"])
        self.assertEqual(k.vec(a), (Fraction(1, 2), Fraction(1, 3)))
        self.assertEqual(k.vec_word("0"), (Fraction(1, 2), Fraction(1, 3)))
        self.assertTrue(k.sim(a, a))
        self.assertFalse(k.sim(a, ClopenSet(["1"])))
        # equal under uniform but not under the weighted one
        self.assertTrue(k.generators[0].eval(ClopenSet(["1"])) == Fraction(1, 2))
        self.assertFalse(k.sim(ClopenSet(["0"]), ClopenSet(["1"])))

    def test_dominated(self):
        self.assertTrue(UNIFORM.leq(ClopenSet(["00"]), ClopenSet(["0"])))
        self.assertTrue(UNIFORM.leq(ClopenSet(["00"]), ClopenSet(["1"])))
        self.assertFalse(UNIFORM.leq(FULL, ClopenSet(["1"])))

    def test_empty_family_rejected(self):
        with self.assertRaises(ValueError):
            MeasureFamily([])


class ValidateTest(unittest.TestCase):
    def test_uniform_delta_table(self):
        rep = validate_family(UNIFORM)
        self.assertTrue(rep.ok)
        self.assertTrue(rep)
        for j, (eps, delta) in enumerate(rep.delta_table, start=1):
            self.assertEqual(eps, Fraction(1, 2 ** j))
            self.assertEqual(delta, 2 * eps)

    def test_third_delta_table(self):
        # root weight 1/3, everything deeper halves: max cyl = (2/3)*2^(1-d)
        rep = validate_family(THIRD)
        table = dict(rep.delta_table)
        self.assertEqual(table[Fraction(1, 2)], Fraction(1, 2))
        self.assertEqual(table[Fraction(1, 4)], Fraction(1, 4))
        self.assertEqual(table[Fraction(1, 8)], Fraction(1, 8))

    def test_multi_level_delta_table(self):
        # weights at three levels; the heaviest depth-3 cylinder is [010]
        k = MeasureFamily([TreeMeasure({"": Fraction(2, 3), "0": Fraction(1, 4), "01": Fraction(9, 10)})])
        rep = validate_family(k)
        deltas = [2, 8, 16, 32, 64, 128, 256, 512]
        self.assertEqual(rep.delta_table, tuple((Fraction(1, 2 ** j), Fraction(1, d)) for j, d in enumerate(deltas, 1)))
        self.assertIn("eps 1/4 -> delta 1/8 (depth 4)", rep.lines)

    def test_delta_is_sound(self):
        # any set of diameter < delta must have mass <= eps
        k = MeasureFamily([TreeMeasure({"": Fraction(1, 3), "1": Fraction(1, 4)})])
        rep = validate_family(k)
        for eps, delta in rep.delta_table[:4]:
            depth = (delta / 2).denominator.bit_length() - 1
            for w in FULL.refine_to_depth(depth):
                self.assertLessEqual(k.generators[0].cyl(w), eps)

    def test_invalid_weight_raises(self):
        k = MeasureFamily([TreeMeasure({"": Fraction(3, 2)})])
        with self.assertRaises(InvalidWeights):
            validate_family(k)
        k = MeasureFamily([TreeMeasure({"0": Fraction(0, 1)})])
        with self.assertRaises(InvalidWeights):
            validate_family(k)

    def test_duplicates_flagged(self):
        k = MeasureFamily([TreeMeasure(), TreeMeasure({})])
        rep = validate_family(k)
        self.assertFalse(rep.ok)
        self.assertTrue(any("duplicate" in line for line in rep.lines))


FAMILY_TEXT = """\
# two generators
measure uniform
depth_bound 2

measure skew
weight e 1/3
weight 1 1/4
"""


class ParseTest(unittest.TestCase):
    def test_parse_basic(self):
        k = parse_family(FAMILY_TEXT)
        self.assertEqual(len(k), 2)
        self.assertEqual(k.generators[0], TreeMeasure())
        self.assertEqual(k.generators[0].depth_bound, 2)
        self.assertEqual(k.generators[1].weights, {"": Fraction(1, 3), "1": Fraction(1, 4)})
        self.assertEqual(k.generators[1].name, "skew")

    def test_round_trip(self):
        k = parse_family(FAMILY_TEXT)
        self.assertEqual(parse_family(format_family(k)), k)

    def assert_error(self, text, line, fragment):
        with self.assertRaises(FamilyParseError) as cm:
            parse_family(text)
        self.assertEqual(cm.exception.line, line)
        self.assertIn(fragment, str(cm.exception))

    def test_errors(self):
        self.assert_error("", 1, "no measures")
        self.assert_error("weight e 1/3\n", 1, "outside a measure")
        self.assert_error("measure a\nweight e 3/2\n", 2, "not in (0,1)")
        self.assert_error("measure a\nweight e 0/7\n", 2, "not in (0,1)")
        self.assert_error("measure a\nweight e 1/0\n", 2, "zero denominator")
        self.assert_error("measure a\nweight e 0.5\n", 2, "expected num/den")
        self.assert_error("measure a\nweight 2 1/3\n", 2, "bad branching word")
        self.assert_error("measure a\nweight e 1/3\nweight e 1/4\n", 3, "duplicate weight")
        self.assert_error("measure a\nmeasure a\n", 2, "duplicate measure name")
        self.assert_error("measure a\nfrobnicate 3\n", 2, "unknown keyword")
        self.assert_error("measure a\ndepth_bound 1\nweight 01 1/3\n", 1, "depth_bound 1 below")
        self.assert_error("measure a\ndepth_bound -1\n", 2, "nonnegative")

    def test_frac_text(self):
        self.assertEqual(frac_text(Fraction(0)), "0/1")
        self.assertEqual(frac_text(Fraction(1)), "1/1")
        self.assertEqual(frac_text(Fraction(5, 16)), "5/16")


weights_st = st.dictionaries(
    st.text(alphabet="01", max_size=3),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    max_size=4,
)
sets_st = st.lists(st.text(alphabet="01", max_size=5), max_size=6).map(ClopenSet)


@given(weights_st, sets_st, sets_st)
def test_measure_is_additive(weights, a, b):
    m = TreeMeasure(weights)
    assert m.eval(a | b) + m.eval(a & b) == m.eval(a) + m.eval(b)
    assert m.eval(FULL) == 1
    assert m.eval(a.complement()) == 1 - m.eval(a)


@given(weights_st, st.text(alphabet="01", max_size=5))
def test_cylinder_splits(weights, w):
    m = TreeMeasure(weights)
    assert m.cyl(w) == m.cyl(w + "0") + m.cyl(w + "1")


def reference_cyl(weights, w):
    mass = Fraction(1)
    for i, c in enumerate(w):
        p = weights.get(w[:i], Fraction(1, 2))
        mass *= p if c == "0" else 1 - p
    return mass


# any rational the constructor accepts, including 0, 1 and values outside (0, 1)
any_weights_st = st.dictionaries(
    st.text(alphabet="01", max_size=4),
    st.fractions(min_value=-2, max_value=3, max_denominator=30),
    max_size=6,
)
deep_words_st = st.text(alphabet="01", max_size=12)


@given(any_weights_st, st.integers(0, 8), deep_words_st, st.lists(deep_words_st, max_size=8))
def test_kernel_matches_fraction_product(weights, bound, w, words):
    m = TreeMeasure(weights, depth_bound=bound)
    got = m.cyl(w)
    assert isinstance(got, Fraction)
    assert got == reference_cyl(weights, w)
    a = ClopenSet(words)
    total = m.eval(a)
    assert isinstance(total, Fraction)
    assert total == sum((reference_cyl(weights, v) for v in a.leaves), Fraction(0))



@pytest.mark.parametrize(
    "weights",
    [{}, {"": Fraction(1, 3)}, {"": Fraction(2, 5), "1": Fraction(1, 4)}, {"010": Fraction(1, 3)}],
)
def test_integer_mass_pairs_are_canonical(weights):
    # all 256 unions of depth-3 cylinders plus a deeper leaf: equal masses
    # must give equal pairs, also when the leaves are shorter than _top
    m = TreeMeasure(weights)
    words = ["".join(p) for p in product("01", repeat=3)]
    by_mass = {}
    for bits in product((0, 1), repeat=8):
        for extra in ((), ("11111",)):
            a = ClopenSet([w for w, b in zip(words, bits) if b] + list(extra))
            n, depth = m._mass(a)
            assert depth >= m._top
            assert Fraction(n, m._den(depth)) == m.eval(a) == sum((reference_cyl(weights, w) for w in a.leaves), Fraction(0))
            by_mass.setdefault(m.eval(a), set()).add((n, depth))
    assert all(len(pairs) == 1 for pairs in by_mass.values())
    assert len(by_mass) < 512  # some masses repeat, so the check has teeth


@pytest.mark.parametrize(
    "text, pair",
    [
        ("measure uniform\n", None),
        ("measure third\nweight e 1/3\n", None),
        ("measure fifth\nweight e 1/5\n", None),
        ("measure quarter\nweight e 1/4\n", ("0", "1")),
        ("measure m\nweight 01 2/5\n", ("000", "011")),
        ("measure uniform\nmeasure quarter\nweight e 1/4\n", ("00", "1")),
        ("measure uniform\nmeasure two\nweight e 1/3\nweight 1 1/4\n", ("000", "11")),
    ],
)
def test_goodness_obstruction_fixtures(text, pair):
    k = parse_family(text)
    got = goodness_obstruction(k)
    if pair is None:
        assert got is None
    else:
        a, b = ClopenSet([pair[0]]), ClopenSet([pair[1]])
        assert got == (a, b)
        with pytest.raises(GoodnessFailure):
            goodness_select(k, a, b, 14)


def frontier(weight_dicts):
    """Children of weight prefixes that are no weight prefix themselves."""
    prefixes = {""} | {w[:i] for ws in weight_dicts for w in ws for i in range(len(w) + 1)}
    return sorted({p + c for p in prefixes for c in "01"} - prefixes)


small_weight_st = st.integers(2, 8).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d)))
# root weights 1/(2^j+1) and 2^j/(2^j+1) give good one-generator families
good_root_st = st.integers(1, 3).flatmap(
    lambda j: st.sampled_from([Fraction(1, 2**j + 1), Fraction(2**j, 2**j + 1)])
)
tree_st = st.one_of(
    st.just({}),
    good_root_st.map(lambda q: {"": q}),
    st.dictionaries(st.text(alphabet="01", max_size=2), small_weight_st, max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(tree_st, min_size=1, max_size=2))
def test_goodness_obstruction_is_a_proof(trees):
    k = MeasureFamily([TreeMeasure(ws) for ws in trees])
    weights = [m.weights for m in k.generators]
    vec = lambda w: tuple(reference_cyl(ws, w) for ws in weights)
    got = goodness_obstruction(k)
    if got is None:
        # two distinct generators always have a refuting pair
        assert all(m == k.generators[0] for m in k.generators)
        if len(k) == 1:
            for u, w in product(frontier(weights), repeat=2):
                a, b = ClopenSet([u]), ClopenSet([w])
                if all(x <= y for x, y in zip(vec(u), vec(w))):
                    c = goodness_select(k, a, b, 12)
                    assert c.is_subset(b) and k.vec(c) == vec(u)
        return
    a, b = got
    assert len(a.leaves) == len(b.leaves) == 1
    wa, wb = a.leaves[0], b.leaves[0]
    assert all(x < y for x, y in zip(vec(wa), vec(wb)))
    for d in range(len(wb), len(wb) + 7):
        sums = {(Fraction(0),) * len(k)}
        for tail in product("01", repeat=d - len(wb)):
            v = vec(wb + "".join(tail))
            sums |= {tuple(x + y for x, y in zip(s, v)) for s in sums}
        assert vec(wa) not in sums


if __name__ == "__main__":
    unittest.main()
