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
    frac_text,
    goodness_obstruction,
    parse_family,
    validate_family,
)
from cantordyn.oracles import GoodnessFailure, goodness_select

UNIFORM = MeasureFamily([TreeMeasure()])
THIRD = MeasureFamily([TreeMeasure({"": Fraction(1, 3)})])


def delta_table(rep):
    """(eps, delta) off the report's `eps <q> -> delta <q> (depth <d>)` lines."""
    rows = [line.split() for line in rep.lines if line.startswith("eps ")]
    assert all(len(r) == 7 and r[2:4] == ["->", "delta"] and r[5] == "(depth" for r in rows)
    return tuple((Fraction(r[1]), Fraction(r[4])) for r in rows)


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

    def test_repr_shows_weights_and_bound(self):
        self.assertEqual(repr(TreeMeasure({"": Fraction(1, 3)})), "TreeMeasure({'': Fraction(1, 3)}, depth_bound=1)")

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
        self.assertEqual(len(delta_table(rep)), 8)
        for j, (eps, delta) in enumerate(delta_table(rep), start=1):
            self.assertEqual(eps, Fraction(1, 2 ** j))
            self.assertEqual(delta, 2 * eps)

    def test_third_delta_table(self):
        # root weight 1/3, everything deeper halves: max cyl = (2/3)*2^(1-d)
        rep = validate_family(THIRD)
        table = dict(delta_table(rep))
        self.assertEqual(table[Fraction(1, 2)], Fraction(1, 2))
        self.assertEqual(table[Fraction(1, 4)], Fraction(1, 4))
        self.assertEqual(table[Fraction(1, 8)], Fraction(1, 8))

    def test_multi_level_delta_table(self):
        # weights at three levels; the heaviest depth-3 cylinder is [010]
        k = MeasureFamily([TreeMeasure({"": Fraction(2, 3), "0": Fraction(1, 4), "01": Fraction(9, 10)})])
        rep = validate_family(k)
        deltas = [2, 8, 16, 32, 64, 128, 256, 512]
        self.assertEqual(delta_table(rep), tuple((Fraction(1, 2 ** j), Fraction(1, d)) for j, d in enumerate(deltas, 1)))
        self.assertIn("eps 1/4 -> delta 1/8 (depth 4)", rep.lines)

    def test_delta_is_sound(self):
        # any set of diameter < delta must have mass <= eps
        k = MeasureFamily([TreeMeasure({"": Fraction(1, 3), "1": Fraction(1, 4)})])
        rep = validate_family(k)
        for eps, delta in delta_table(rep)[:4]:
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
        # an optional end marker closes a measure, as in a tower's generator blocks
        closed = FAMILY_TEXT.replace("\nmeasure skew", "end measure\nmeasure skew") + "  end measure  \n"
        self.assertEqual(parse_family(closed), k)
        # depth_bound caps the non-even weights; an explicit 1/2 deeper than it is the default split
        even = parse_family("measure a\ndepth_bound 0\nweight 00 1/2\n")
        self.assertEqual(even.generators[0], TreeMeasure())
        self.assertEqual(even.generators[0].depth_bound, 0)

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
        # a superscript two and an Arabic-Indic three are digits to str.isdigit
        self.assert_error("measure a\ndepth_bound ²\n", 2, "line 2, col 1: depth_bound takes one nonnegative integer")
        self.assert_error("measure a\ndepth_bound ٣\n", 2, "line 2, col 1: depth_bound takes one nonnegative integer")
        self.assert_error("measure a b\n", 1, "line 1, col 1: measure takes exactly one name")
        self.assert_error("depth_bound 3\nmeasure a\n", 1, "line 1, col 1: depth_bound outside a measure")
        self.assert_error("measure a\ndepth_bound 3\ndepth_bound 3\n", 3, "line 3, col 1: depth_bound given twice")
        self.assert_error("measure a\nweight e\n", 2, "line 2, col 1: weight takes a word and a rational")
        self.assert_error("end measure\n", 1, "line 1, col 1: end measure outside a measure")
        self.assert_error("measure a\nend measure\nend measure\n", 3, "line 3, col 1: end measure outside a measure")
        self.assert_error("measure a\nend measure\nweight e 1/3\n", 3, "line 3, col 1: weight outside a measure")
        self.assert_error("measure a\nend measure\ndepth_bound 2\n", 3, "line 3, col 1: depth_bound outside a measure")
        self.assert_error("measure a\nend  measure\n", 2, "unknown keyword 'end'")

    def test_error_columns(self):
        # each column points at its own token, also when the keyword
        # contains it or the line is indented
        for text, line, col in [
            ("measure a\nmeasure a\n", 2, 9),
            ("measure a\nweight e 1/3\nweight e 1/4\n", 3, 8),
            ("measure a\n  weight 1 1/3\n\tweight 1 1/4\n", 3, 9),
            ("measure e\n   weight e 3/2\n", 2, 13),
            ("  measure a\n  measure a\n", 2, 11),
        ]:
            with self.assertRaises(FamilyParseError) as cm:
                parse_family(text)
            self.assertEqual((cm.exception.line, cm.exception.col), (line, col), text)

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
    assert m.eval(FULL - a) == 1 - m.eval(a)


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
def test_eval_matches_the_reference_on_depth3_unions(weights):
    # all 256 unions of depth-3 cylinders plus a deeper leaf, also with
    # leaves shorter than the weight depth
    m = TreeMeasure(weights)
    words = ["".join(p) for p in product("01", repeat=3)]
    for bits in product((0, 1), repeat=8):
        for extra in ((), ("11111",)):
            a = ClopenSet([w for w, b in zip(words, bits) if b] + list(extra))
            assert m.eval(a) == sum((reference_cyl(weights, w) for w in a.leaves), Fraction(0))


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
