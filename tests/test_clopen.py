import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn import clopen
from cantordyn.clopen import (
    EMPTY,
    FULL,
    ClopenSet,
    DepthTooSmall,
    enumerate_clopen,
    union_all,
)

DEPTH = 6
ALL_WORDS = ["".join(t) for t in itertools.product("01", repeat=DEPTH)]


def to_mask(s):
    """Bitmask of depth-DEPTH words covered by the set; independent of form."""
    mask = 0
    for i, w in enumerate(ALL_WORDS):
        if any(w.startswith(leaf) for leaf in s.leaves):
            mask |= 1 << i
    return mask


words_st = st.lists(st.text(alphabet="01", min_size=0, max_size=DEPTH), max_size=8)
sets_st = words_st.map(ClopenSet)


def C(*words):
    return ClopenSet(words)


def test_normalize_merges_siblings():
    assert ClopenSet(["00", "01"]).leaves == ("0",)
    assert ClopenSet(["0", "01"]).leaves == ("0",)
    assert ClopenSet(["0", "1"]).leaves == ("",)
    assert ClopenSet([]).leaves == ()
    assert ClopenSet(["10", "0", "11"]).leaves == ("",)


def test_normalize_sorted_antichain():
    s = ClopenSet(["11", "00", "011"])
    assert s.leaves == ("00", "011", "11")


def test_constants():
    assert EMPTY.is_empty
    assert not EMPTY
    assert FULL.leaves == ("",)
    assert bool(FULL)


def test_complement_frozen():
    assert (FULL - ClopenSet(["00"])).leaves == ("01", "1")
    assert FULL - FULL == EMPTY
    assert FULL - EMPTY == FULL
    # holes cut out of a leaf by halving it, in one half or in both
    assert (C("0") - C("0110")).leaves == ("00", "010", "0111")
    assert (C("0") - C("001", "0110")).leaves == ("000", "010", "0111")
    # a hole equal to a leaf drops it whole
    assert (C("0", "10") - C("0", "11")).leaves == ("10",)
    # a hole 3,000 letters deep takes 3,000 halvings
    assert (FULL - C("0" * 3000)).leaves == tuple("0" * k + "1" for k in range(2999, -1, -1))


def test_diameter_frozen():
    assert ClopenSet(["01"]).diameter() == Fraction(1, 4)
    assert ClopenSet(["00", "01"]).diameter() == Fraction(1, 2)
    assert FULL.diameter() == 1
    assert EMPTY.diameter() == 0
    assert ClopenSet(["000", "0010"]).diameter() == Fraction(1, 4)


def test_refine_to_depth():
    assert ClopenSet(["0"]).refine_to_depth(2) == ("00", "01")
    assert FULL.refine_to_depth(1) == ("0", "1")
    assert EMPTY.refine_to_depth(3) == ()
    with pytest.raises(DepthTooSmall):
        ClopenSet(["010"]).refine_to_depth(2)


def test_text_round_trip():
    for s in (EMPTY, FULL, ClopenSet(["01", "1"]), ClopenSet(["000"])):
        assert ClopenSet.from_text(s.text()) == s
    assert ClopenSet.from_text("empty") == EMPTY
    with pytest.raises(ValueError):
        ClopenSet.from_text("")
    with pytest.raises(ValueError):
        ClopenSet.from_text("01,,1")
    with pytest.raises(ValueError):
        ClopenSet.from_text("0x1")


def test_bad_alphabet_rejected():
    with pytest.raises(ValueError):
        ClopenSet(["02"])
    with pytest.raises(ValueError):
        ClopenSet([b"01"])


def test_enumeration_prefix():
    got = list(itertools.islice(enumerate_clopen(2), 11))
    want = [
        EMPTY,
        FULL,
        ClopenSet(["1"]),
        ClopenSet(["0"]),
        ClopenSet(["11"]),
        ClopenSet(["10"]),
        ClopenSet(["01"]),
        ClopenSet(["01", "11"]),
        ClopenSet(["01", "10"]),
        ClopenSet(["01", "1"]),
        ClopenSet(["00"]),
    ]
    assert got == want


def test_enumeration_counts():
    assert len(list(enumerate_clopen(depth_cap=2))) == 16
    sets = list(enumerate_clopen(depth_cap=3))
    assert len(sets) == 256
    assert len(set(sets)) == 256


@given(words_st)
def test_normalize_is_canonical(words):
    s = ClopenSet(words)
    leaves = s.leaves
    # antichain: no leaf a prefix of another
    for a, b in itertools.permutations(leaves, 2):
        assert not b.startswith(a)
    # no sibling pair survives
    for w in leaves:
        if w and w[-1] == "0":
            assert w[:-1] + "1" not in leaves
    assert leaves == tuple(sorted(leaves))
    assert to_mask(s) == to_mask(ClopenSet(leaves))


@settings(max_examples=300)
@given(sets_st, sets_st)
def test_boolean_ops_against_mask(a, b):
    full = (1 << len(ALL_WORDS)) - 1
    assert to_mask(a | b) == to_mask(a) | to_mask(b)
    assert to_mask(a & b) == to_mask(a) & to_mask(b)
    assert to_mask(a - b) == to_mask(a) & ~to_mask(b) & full
    assert to_mask(FULL - a) == ~to_mask(a) & full
    assert a.is_subset(b) == (to_mask(a) | to_mask(b) == to_mask(b))


def test_is_disjoint_frozen():
    assert C("010").is_disjoint(C("011", "1"))
    assert not C("01").is_disjoint(C("0110"))
    assert not C("0110").is_disjoint(C("01"))
    assert EMPTY.is_disjoint(FULL) and FULL.is_disjoint(EMPTY)
    assert not FULL.is_disjoint(C("1")) and not C("1").is_disjoint(FULL)


@settings(max_examples=300)
@given(st.data())
def test_is_disjoint_matches_intersection(data):
    # sets below one shared stem, nested sets, and the two constants
    stem = data.draw(st.text(alphabet="01", max_size=3))
    near = st.lists(st.text(alphabet="01", max_size=3), max_size=4).map(lambda ws: C(*(stem + w for w in ws)))
    a = data.draw(st.one_of(sets_st, near))
    b = data.draw(st.one_of(st.just(EMPTY), st.just(FULL), sets_st, near, sets_st.map(a.intersect), sets_st.map(a.union)))
    for x, y in ((a, b), (b, a)):
        assert x.is_disjoint(y) == (x & y).is_empty
        assert x.is_disjoint(y) == (to_mask(x) & to_mask(y) == 0)


def test_intersection_cuts_a_leaf_that_spans_the_other_operand():
    # the leaf 0 covers the leaves 00 and 01; only 00 lies in the right operand
    assert C("0", "110") & C("00", "11") == C("00", "110")


@given(sets_st, sets_st)
def test_equal_masks_equal_sets(a, b):
    if to_mask(a) == to_mask(b):
        assert a == b
        assert hash(a) == hash(b)


@given(st.lists(sets_st, max_size=6))
def test_union_all_matches_fold(sets):
    folded = EMPTY
    for s in sets:
        folded = folded | s
    assert union_all(sets) == folded


@given(sets_st)
def test_diameter_is_smallest_enclosing_cylinder(s):
    if s.is_empty:
        assert s.diameter() == 0
        return
    d = s.diameter()
    k = d.denominator.bit_length() - 1
    hull = s.leaves[0][:k]
    assert s.is_subset(ClopenSet([hull]))
    assert not s.is_subset(ClopenSet([hull + "0"]))
    assert not s.is_subset(ClopenSet([hull + "1"]))


@given(sets_st, st.integers(min_value=0, max_value=DEPTH))
def test_refine_partitions_set(s, d):
    if s.max_leaf_len > d:
        with pytest.raises(DepthTooSmall):
            s.refine_to_depth(d)
        return
    words = s.refine_to_depth(d)
    assert all(len(w) == d for w in words)
    assert list(words) == sorted(words)
    assert ClopenSet(words) == s


def test_bare_string_rejected():
    # a string is an iterable of one-letter words; "01" would mean [0] | [1]
    with pytest.raises(TypeError):
        ClopenSet("01")
    assert ClopenSet(["01"]).leaves == ("01",)


# Reference algebra for the kernel tests: a recursion on the first
# letter of the words, independent of the sorted-leaf kernel under test.


def ref_norm(words):
    ws = set(words)
    if not ws:
        return ()
    if "" in ws:
        return ("",)
    zero = ref_norm(w[1:] for w in ws if w[0] == "0")
    one = ref_norm(w[1:] for w in ws if w[0] == "1")
    return ref_graft(zero, one)


def ref_graft(zero, one):
    if zero == ("",) and one == ("",):
        return ("",)
    return tuple("0" + w for w in zero) + tuple("1" + w for w in one)


def ref_split(leaves):
    zero = tuple(w[1:] for w in leaves if w[0] == "0")
    one = tuple(w[1:] for w in leaves if w[0] == "1")
    return zero, one


def ref_union(a, b):
    if a == ("",) or b == ("",):
        return ("",)
    if not a:
        return b
    if not b:
        return a
    (a0, a1), (b0, b1) = ref_split(a), ref_split(b)
    return ref_graft(ref_union(a0, b0), ref_union(a1, b1))


def ref_inter(a, b):
    if a == ("",):
        return b
    if b == ("",):
        return a
    if not a or not b:
        return ()
    (a0, a1), (b0, b1) = ref_split(a), ref_split(b)
    return ref_graft(ref_inter(a0, b0), ref_inter(a1, b1))


def ref_minus(a, b):
    if not a or b == ("",):
        return ()
    if not b:
        return a
    if a == ("",):
        return ref_compl(b)
    (a0, a1), (b0, b1) = ref_split(a), ref_split(b)
    return ref_graft(ref_minus(a0, b0), ref_minus(a1, b1))


def ref_compl(a):
    if not a:
        return ("",)
    if a == ("",):
        return ()
    a0, a1 = ref_split(a)
    return ref_graft(ref_compl(a0), ref_compl(a1))


def assert_canonical(leaves):
    assert leaves == tuple(sorted(leaves))
    assert len(set(leaves)) == len(leaves)
    for a, b in zip(leaves, leaves[1:]):
        # sorted, so a prefix of a later leaf would sit right before it
        assert not b.startswith(a)
    for w in leaves:
        assert not w or w[:-1] + "10"[int(w[-1])] not in leaves


DEEP = 24


@st.composite
def deep_words(draw):
    """Words of mixed length up to DEEP that nest, touch and pair up.

    Independent random deep words would almost never share a prefix, so
    most words grow from a few stems, and some are the sibling of the
    word before them.
    """
    stems = draw(st.lists(st.text(alphabet="01", max_size=DEEP), min_size=1, max_size=3))
    words = []
    for _ in range(draw(st.integers(0, 10))):
        if words and words[-1] and draw(st.booleans()):
            w = words[-1]
            words.append(w[:-1] + "10"[int(w[-1])])
            continue
        stem = draw(st.sampled_from(stems))
        cut = draw(st.integers(0, len(stem)))
        words.append(stem[:cut] + draw(st.text(alphabet="01", max_size=DEEP - cut)))
    return words


@settings(max_examples=400)
@given(deep_words(), deep_words())
def test_deep_ops_match_recursive_reference(wa, wb):
    a, b = ClopenSet(wa), ClopenSet(wb)
    ra, rb = ref_norm(wa), ref_norm(wb)
    assert a.leaves == ra
    assert b.leaves == rb
    assert (a | b).leaves == ref_union(ra, rb)
    assert (a & b).leaves == ref_inter(ra, rb)
    assert (a - b).leaves == ref_minus(ra, rb)
    assert (FULL - a).leaves == ref_compl(ra)
    assert union_all([a, b, a]).leaves == ref_norm(wa + wb)
    assert ClopenSet(wa + wb) == a | b
    for s in (a, b, a | b, a & b, a - b, b - a, FULL - a):
        assert_canonical(s.leaves)
    assert a.is_subset(b) == (ref_minus(ra, rb) == ())
    assert b.is_subset(a) == (ref_minus(rb, ra) == ())
    # shared and nested leaves: the prefix test must find the covering leaf
    assert a.is_subset(a)
    assert (a & b).is_subset(b)
    assert a.is_subset(a | b)
    assert (a - b).is_subset(a)
    assert not (a - b).is_subset(b) or (a - b).is_empty
    # a left operand inside the right one comes back whole
    for x, y in ((a, a | b), (a & b, b), (a & b, a)):
        rx, ry = x.leaves, y.leaves
        assert (x & y).leaves == ref_inter(rx, ry) == rx


@st.composite
def near_canonical_words(draw):
    """A canonical word list with duplicates, "", nested words, siblings,
    swapped neighbours or free words mixed in, or left as it is."""
    ws = list(draw(sets_st).leaves)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["dup", "empty", "nest", "sibling", "swap", "word"]))
        if kind == "empty":
            ws.insert(draw(st.integers(0, len(ws))), "")
        elif kind == "word":
            ws.insert(draw(st.integers(0, len(ws))), draw(st.text(alphabet="01", max_size=DEPTH)))
        elif ws:
            i = draw(st.integers(0, len(ws) - 1))
            w = ws[i]
            if kind == "dup":
                ws.insert(i, w)
            elif kind == "nest":
                ws.insert(i + 1, w + draw(st.text(alphabet="01", min_size=1, max_size=2)))
            elif kind == "sibling" and w:
                ws.insert(i + draw(st.integers(0, 1)), w[:-1] + "10"[int(w[-1])])
            elif kind == "swap" and i + 1 < len(ws):
                ws[i], ws[i + 1] = ws[i + 1], ws[i]
    return ws


@settings(max_examples=400)
@given(st.one_of(near_canonical_words(), words_st))
def test_constructor_keeps_only_canonical_input_unswept(words):
    want = ref_norm(words)
    assert ClopenSet(words).leaves == want
    assert ClopenSet(reversed(words)).leaves == want
    assert_canonical(ClopenSet(words).leaves)


@settings(max_examples=300)
@given(st.one_of(near_canonical_words(), words_st), st.one_of(near_canonical_words(), words_st))
def test_unions_merge_to_the_recursive_reference(a, b):
    sa, sb = ClopenSet(a), ClopenSet(b)
    assert (sa | sb).leaves == ref_union(ref_norm(a), ref_norm(b))
    assert union_all([sa, sb, sa]).leaves == ref_norm(a + b)
    assert clopen._normalize(a + b + a) == ref_norm(a + b)


def test_canonical_input_never_reaches_the_normaliser(monkeypatch):
    canonical = [s.leaves for s in enumerate_clopen(3)] + [("0", "10", "110"), ("00101", "1")]

    def refuse(*args):
        raise AssertionError("normalised canonical words")

    monkeypatch.setattr(clopen, "_normalize", refuse)
    for leaves in canonical:
        assert ClopenSet(leaves).leaves == leaves
        assert ClopenSet(list(leaves)).leaves == leaves
    for words in (["1", "0"], ["0", "0"], ["0", "01"], ["", "1"], ["10", "11"]):
        with pytest.raises(AssertionError, match="normalised"):
            ClopenSet(words)


def test_word_errors_keep_their_messages_on_sorted_input():
    # the shortcut runs after every word is checked, and from_text before it
    with pytest.raises(ValueError, match=r"^cylinder words use the alphabet \{0,1\}, got '102'$"):
        ClopenSet(["0", "102"])
    with pytest.raises(ValueError, match=r"^cylinder words use the alphabet \{0,1\}, got b'1'$"):
        ClopenSet(["0", b"1"])
    with pytest.raises(ValueError, match=r"^bad clopen text: '0,,1'$"):
        ClopenSet.from_text("0,,1")
    with pytest.raises(ValueError, match=r"^bad clopen text: '0,'$"):
        ClopenSet.from_text("0,")


def ref_tiling(sets, whole):
    """_tiling read off the words of the deepest leaf's length: a gap when
    their union differs from whole's, an overlap when one is met twice."""
    depth = max(s.max_leaf_len for s in (*sets, whole))
    cells = ["".join(t) for t in itertools.product("01", repeat=depth)]
    hits = [sum(any(c.startswith(w) for w in s.leaves) for s in sets) for c in cells]
    if [bool(n) for n in hits] != [any(c.startswith(w) for w in whole.leaves) for c in cells]:
        return "gap"
    return "overlap" if max(hits) > 1 else None


@st.composite
def sets_inside(draw):
    """(sets, whole): whole is the space or a proper subset, and the sets,
    inside it, are a tiling with a set dropped, repeated, a nested or a
    parent leaf of one added, or an empty set mixed in, or left as it is."""
    whole = draw(st.one_of(st.just(FULL), sets_st.filter(lambda s: s != FULL)))
    leaves = list(whole.leaves)
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, max(len(leaves) - 1, 0)))
        if leaves and len(leaves[i]) < DEPTH + 2:
            w = leaves.pop(i)
            leaves[i:i] = [w + "0", w + "1"]
    labels = [draw(st.integers(0, len(leaves) - 1)) for _ in leaves]
    sets = [C(*(w for w, j in zip(leaves, labels) if j == i)) for i in sorted(set(labels))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "repeat", "nested", "parent", "empty"]))
        if kind == "empty":
            sets.append(EMPTY)
            continue
        s = draw(st.sampled_from(sets)) if sets else EMPTY
        if kind == "drop" and sets:
            sets.remove(s)
        elif kind == "repeat":
            sets.append(s)
        elif s:
            w = draw(st.sampled_from(s.leaves))
            if kind == "nested":
                sets.append(C(w + draw(st.text(alphabet="01", max_size=2))))
            else:
                u = next(u for u in whole.leaves if w.startswith(u))
                sets.append(C(w[: draw(st.integers(len(u), len(w)))]))
    return draw(st.permutations(sets)), whole


@settings(max_examples=400)
@given(sets_inside())
def test_tiling_matches_word_reference(case):
    sets, whole = case
    assert clopen._tiling(sets, whole) == ref_tiling(sets, whole)


def test_tiling_reports_a_gap_before_an_overlap():
    assert clopen._tiling([C("0"), C("00")], FULL) == "gap"
    assert clopen._tiling([C("0"), C("00"), C("1")], FULL) == "overlap"
    assert clopen._tiling([C("01"), C("00", "1")], FULL) is None
    assert clopen._tiling([], EMPTY) is None
    assert clopen._tiling([EMPTY], C("1")) == "gap"
