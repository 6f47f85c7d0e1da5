from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantordyn import oracles, tower
from cantordyn.builder import build_saturated
from cantordyn.clopen import EMPTY, FULL, ClopenSet, _mask_set, union_all
from cantordyn.measure import MeasureFamily, TreeMeasure, parse_family
from cantordyn.oracles import GoodnessFailure, NotEquivalent, _carve, select_copy
from cantordyn.tower import (
    KRPartition,
    NotAPartition,
    NotEquivalentColumn,
    balance_columns,
    from_columns,
    locate_atom,
    refine_small_base_top,
    run_decomposition,
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
    assert repr(t) == "KRPartition(1 columns, heights [1])"


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
    with pytest.raises(NotAPartition, match="atoms overlap"):
        from_columns(UNI, [(C("0"),), (C("1"),), (C("10"),)])
    # a gap and an overlap: the gap is reported, wherever it lies
    for cols in ([(C("0"),), (C("0"),)], [(C("00"),), (C("0"),), (C("10"),)], [(C("1"),), (C("11"),)]):
        with pytest.raises(NotAPartition, match="atoms do not cover the space"):
            from_columns(UNI, cols)


def test_from_columns_reports_violations_in_order():
    # within a column an empty level beats an earlier mass mismatch, and a
    # column is checked in full before the next one
    with pytest.raises(NotAPartition) as info:
        from_columns(UNI, [(C("00"), C("010"), C("1"), EMPTY)])
    assert str(info.value) == "column 0 level 3 is empty"
    with pytest.raises(NotEquivalentColumn) as info:
        from_columns(UNI, [(C("0"), C("10")), (C("11"), EMPTY)])
    assert str(info.value) == "column 0 level 1 differs in mass from its base"


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
    assert run_decomposition(t, t) == ((0,),)
    # same atoms, wrong order: the second run starts mid-column
    bad = from_columns(UNI, [(C("00"), C("10"), C("11"), C("01"))])
    assert run_decomposition(bad, t) is None
    assert run_decomposition(t, s) is None
    # the second run starts at a base but overruns its column
    short = from_columns(UNI, [(C("00"), C("10"), C("01")), (C("11"),)])
    assert run_decomposition(short, t) is None


def test_cut_column_at_level():
    t = from_columns(UNI, [(C("0"), C("1"))])
    s = KRPartition(tower._split_column(UNI, t.columns[0], 0, [C("00"), C("01")]))
    assert s.heights == (2, 2)
    assert s.columns[0][0] == C("00")
    assert s.columns[1][0] == C("01")
    # the level-1 parts partition the old atom and keep column vectors
    assert s.columns[0][1] | s.columns[1][1] == C("1")
    assert UNI.vec(s.columns[0][1]) == (F(1, 4),)
    assert run_decomposition(s, t) == ((0,), (0,))
    with pytest.raises(ValueError, match="^pieces overlap$"):
        tower._split_column(UNI, t.columns[0], 0, [C("00"), C("0")])
    with pytest.raises(ValueError, match="^no nonempty pieces to split along$"):
        tower._split_column(UNI, t.columns[0], 0, [EMPTY, EMPTY])
    with pytest.raises(ValueError, match="^pieces do not cover the atom$"):
        tower._split_column(UNI, t.columns[0], 0, [C("00"), C("010")])


def test_split_column_refuses_an_overlap_of_null_mass():
    # [1] has mass 0 under a weight of 1, so the pieces' masses add up to the atom's
    k = MeasureFamily([TreeMeasure({"": F(1)})])
    with pytest.raises(ValueError, match="^pieces overlap$"):
        tower._split_column(k, (FULL,), 0, [FULL, C("1")])


def reference_split(k, column, level, pieces, max_depth):
    """_split_column level by level: atoms of the split atom's shape take the
    pieces' words below their own leaves, and every other atom is carved on
    its own; a failure is (level, exc)."""
    return carve_every_level(k, column, level, pieces, max_depth, moved=True)


def carve_every_level(k, column, level, pieces, max_depth, moved=False):
    """_split_column carving every level but the split one on its own, or,
    when moved, every level of a shape other than the split atom's; a
    failure is (level, exc)."""
    pieces = [p for p in pieces if not p.is_empty]
    if len(pieces) == 1:
        return [tuple(column)]
    vecs = [k.vec(p) for p in pieces[:-1]]
    host = column[level].leaves
    cuts = []
    for r, a in enumerate(column):
        if r == level:
            cuts.append(pieces)
            continue
        if moved and shape(k, a) == shape(k, column[level]):
            # a word below the split atom's i-th leaf moves below a's i-th leaf
            cut = []
            for p in pieces:
                words = [a.leaves[i] + w[len(h) :] for w in p.leaves for i, h in enumerate(host) if w.startswith(h)]
                cut.append(C(*words))
            cuts.append(cut)
            continue
        cut = []
        try:
            for v in vecs:
                cut.append(select_copy(k, v, a, max_depth))
                a = a - cut[-1]
        except Exception as exc:
            return r, exc
        cuts.append(cut + [a])
    return [tuple(cut[i] for cut in cuts) for i in range(len(pieces))]


def split_and_carves(k, column, level, pieces, max_depth):
    """_split_column's result or exception, and the hosts it handed to _carve."""
    with mock.patch.object(tower, "_carve", wraps=tower._carve) as carve:
        try:
            got = tower._split_column(k, column, level, pieces, max_depth)
        except Exception as exc:
            got = exc
    return got, [c.args[1] for c in carve.call_args_list]


def shape(k, a):
    return tuple((len(w), w[: k._top]) for w in a.leaves)


def drawn_split(k, data):
    """A column of atoms of a few shapes, a level, and three pieces of its
    atom, some of them possibly empty."""
    top = k._top
    # stems: an antichain of words no longer than the weight depth
    stems = [""]
    for _ in range(data.draw(st.integers(0, 6))):
        i = data.draw(st.integers(0, len(stems) - 1))
        if len(stems[i]) < top:
            w = stems.pop(i)
            stems[i:i] = [w + "0", w + "1"]
    stems = data.draw(st.lists(st.sampled_from(stems), min_size=1, unique=True))
    # one leaf per stem: stems of full length get a tail, the rest stay short
    tails = [data.draw(st.integers(0, 2)) if len(w) == top else 0 for w in stems]
    bits = st.sampled_from("01")

    def translate():
        # same shape, new letters below the weight depth
        return C(*(w + "".join(data.draw(bits) for _ in range(n)) for w, n in zip(stems, tails)))

    def other():
        kind = data.draw(st.sampled_from(["moved", "moved", "grown", "random"]))
        if kind == "moved" and top:  # the same lengths, one letter above the weight depth flipped
            i = data.draw(st.integers(0, top - 1))
            return C(*(w[:i] + "10"[int(w[i])] + w[i + 1 :] if len(w) > i else w for w in translate().leaves))
        if kind == "grown":  # a larger vector, so the carve still fits
            return translate() | C(data.draw(st.text(alphabet="01", max_size=top + 2)))
        return C(*data.draw(st.lists(st.text(alphabet="01", max_size=top + 2), min_size=1, max_size=3)))

    height = data.draw(st.integers(1, 8))
    level = data.draw(st.integers(0, height - 1))
    column = [translate() if r == level or data.draw(st.booleans()) else other() for r in range(height)]
    atom = column[level]
    words = atom.refine_to_depth(atom.max_leaf_len + data.draw(st.integers(0, 1)))
    labels = [data.draw(st.integers(0, 2)) for _ in words]
    pieces = [C(*(w for w, j in zip(words, labels) if j == i)) for i in range(3)]
    return column, level, pieces


def same_split(got, want, hosts, column):
    """_split_column's result matches a reference's, and a failing carve is
    the last one made."""
    if isinstance(want, tuple):
        r, exc = want
        assert type(got) is type(exc) and str(got) == str(exc)
        # the failing carve is the first of its shape, and no later level is
        # carved; compared by identity, since two levels may hold equal sets
        assert hosts[-1] is column[r]
    else:
        assert [tuple(c) for c in got] == want


@settings(max_examples=150, deadline=None)
@given(family_st, st.data())
def test_split_column_carves_each_shape_once(k, data):
    column, level, pieces = drawn_split(k, data)
    want = reference_split(k, column, level, pieces, 8)
    got, hosts = split_and_carves(k, column, level, pieces, 8)
    same_split(got, want, hosts, column)
    if not isinstance(want, tuple) and len([p for p in pieces if not p.is_empty]) > 1:
        # the split atom's shape takes its pieces, and each other shape one carve
        assert len(hosts) == len({shape(k, a) for a in column} - {shape(k, column[level])})


@settings(max_examples=150, deadline=None)
@given(family_st, st.data())
def test_split_column_along_a_carve_carves_every_level(k, data):
    # the carve sees an atom only through its shape: where the pieces are a
    # carve, moving them onto an atom of their shape is carving it
    column, level, pieces = drawn_split(k, data)
    vecs = [oracles._ints(k, p) for p in pieces if not p.is_empty][:-1]
    try:
        pieces = _carve(k, column[level], vecs, 8)
    except GoodnessFailure:  # an earlier pick can leave too little for a later one
        assume(False)
    want = carve_every_level(k, column, level, pieces, 8)
    got, hosts = split_and_carves(k, column, level, pieces, 8)
    same_split(got, want, hosts, column)


def test_split_column_failing_carve_matches_reference():
    k = parse_family("measure uniform\n\nmeasure quarter\nweight e 1/4\n")
    # every subset of [1] has quarter/uniform ratio 3/2, the pieces 1/2
    column = [C("00"), C("01"), C("10"), C("11")]
    pieces = [C("000"), C("001")]
    r, exc = reference_split(k, column, 0, pieces, 8)
    got, hosts = split_and_carves(k, column, 0, pieces, 8)
    # 01 has the shape of 00 and takes its pieces
    assert r == 2 and hosts == [C("10")]
    assert type(got) is type(exc) and str(got) == str(exc)
    assert str(got) == "no subset of 10 attains (1/8, 1/16) (searched to depth 8)"


def test_split_column_moves_the_pieces_onto_their_shape():
    k = parse_family("measure d2\nweight 0 1/3\nweight 1 2/3\n")
    column = [C("01" + format(i, "04b")) for i in range(16)]
    pieces = [C("0100000"), C("0100001")]
    got, hosts = split_and_carves(k, column, 0, pieces, 12)
    # every atom has the split atom's shape: nothing is carved
    assert hosts == []
    assert [tuple(c) for c in got] == reference_split(k, column, 0, pieces, 12)
    assert [c[15] for c in got] == [C("0111110"), C("0111111")]


def test_split_column_failing_carve_is_not_kept():
    k = parse_family("measure uniform\n\nmeasure quarter\nweight e 1/4\n")
    pieces = [C("000"), C("001")]
    got, hosts = split_and_carves(k, [C("00"), C("01"), C("10")], 0, pieces, 8)
    assert hosts == [C("10")]
    assert str(got) == "no subset of 10 attains (1/8, 1/16) (searched to depth 8)"
    # 11 has the shape of 10, whose carve failed: the call carves 11 anew
    # and names it
    column = [C("00"), C("01"), C("11")]
    got, hosts = split_and_carves(k, column, 0, pieces, 8)
    assert hosts == [C("11")]
    assert str(got) == "no subset of 11 attains (1/8, 1/16) (searched to depth 8)"
    r, exc = reference_split(k, column, 0, pieces, 8)
    assert r == 2 and type(got) is type(exc) and str(got) == str(exc)


def test_split_column_tells_shapes_apart():
    # weight depth 2: [00] and [11] carry 1/6, [01] and [10] carry 1/3
    k = parse_family("measure d2\nweight 0 1/3\nweight 1 2/3\n")
    column = [C("0100"), C("0101"), C("0001"), C("01100"), C("1000"), C("0110")]
    pieces = [C("01000"), C("01001")]
    got, hosts = split_and_carves(k, column, 0, pieces, 12)
    # 0101 and 0110 have the shape of 0100 and take its pieces; 0001
    # differs in a letter, 01100 in length
    assert hosts == [C("0001"), C("01100"), C("1000")]
    assert [tuple(c) for c in got] == reference_split(k, column, 0, pieces, 12)


def uniform_tower(data):
    """A uniform tower: leaves to depth 5 grouped into atoms, and atoms of
    one mass stacked into columns."""
    leaves = [""]
    for _ in range(data.draw(st.integers(1, 12))):
        i = data.draw(st.integers(0, len(leaves) - 1))
        if len(leaves[i]) < 5:
            w = leaves.pop(i)
            leaves[i:i] = [w + "0", w + "1"]
    labels = [data.draw(st.integers(0, len(leaves) - 1)) for _ in leaves]
    atoms = [C(*(w for w, j in zip(leaves, labels) if j == i)) for i in sorted(set(labels))]
    atoms = sorted(data.draw(st.permutations(atoms)), key=UNI.vec)
    cols = [[atoms[0]]]
    for a in atoms[1:]:
        if UNI.vec(a) != UNI.vec(cols[-1][0]) or data.draw(st.booleans()):
            cols.append([])
        cols[-1].append(a)
    return from_columns(UNI, cols)


D4 = [format(i, "04b") for i in range(16)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stack_and_balance_leave_the_pool_in_place(data):
    t = uniform_tower(data)
    assume(len(t.columns) > 1)
    dcol = data.draw(st.sampled_from(t.columns))
    pool = data.draw(st.lists(st.sampled_from([c for c in t.columns if c is not dcol]), min_size=1, unique=True))
    assume(UNI.vec(dcol[0]) <= UNI.vec(union_all(q[0] for q in pool)))

    stacked, rests = tower._stack(UNI, [dcol], pool, 1, 12)
    # each stacked column is a sub-column of dcol under a piece of the copy
    assert all(all(a.is_subset(b) for a, b in zip(c, dcol)) for c in stacked)
    sel = union_all(c[len(dcol)] for c in stacked)
    assert UNI.vec(sel) == UNI.vec(dcol[0])
    assert union_all(r[0] for rs in rests for r in rs) == union_all(q[0] for q in pool) - sel
    # per pool column, its remainder, or nothing when it is used up
    assert len(rests) == len(pool)
    for q, rs in zip(pool, rests):
        if q[0].is_subset(sel):
            assert rs == []
        else:
            (r,) = rs
            assert r[0] == q[0] - sel
            assert len(r) == len(q) and all(a.is_subset(b) for a, b in zip(r, q))
    # in the columns' places, the stack and the remainders refine the tower
    swap = {dcol: stacked, **dict(zip(pool, rests))}
    placed = [c for col in t.columns for c in swap.get(col, [col])]
    assert run_decomposition(from_columns(UNI, placed), t) is not None

    # balance_columns puts each stack in its column's place and each
    # remainder in its pool column's, and drops a used-up pool column
    picks = data.draw(st.lists(st.sampled_from(D4), min_size=2, max_size=8, unique=True))
    h = len(picks) // 2
    u, v = C(*picks[:h]), C(*picks[h : 2 * h])
    calls = []
    real = tower._stack

    def spy(*args):  # (k, cols, pool, rounds, max_depth)
        out = real(*args)
        calls.append((*args[1:4], *out))
        return out

    with mock.patch.object(tower, "_stack", spy):
        got = balance_columns(UNI, t, u, v)
    cols = tower._cut(UNI, t.columns, u, v, 12)
    for start, pool, rounds, stacked, rests in calls:
        (col,) = start
        assert rounds == 1
        assert col in cols and pool == [c for c in cols if c in pool]
        swap = {col: stacked, **dict(zip(pool, rests))}
        cols = [c for old in cols for c in swap.get(old, [old])]
        assert run_decomposition(from_columns(UNI, cols), t) is not None
    assert list(got.columns) == cols


def reference_stack(k, cols, pool, rounds, max_depth):
    """Round by round, each column on its own: select a copy of its base
    across the pool bases left, split it along the shares, and split each
    pool column met into the share's head and the rest."""
    pool, stacked = list(pool), list(cols)
    for _ in range(rounds):
        principals, stacked = stacked, []
        for p in principals:
            sel = select_copy(k, k.vec(p[0]), union_all(q[0] for q in pool if q), max_depth)
            parts = [(i, sel & q[0]) for i, q in enumerate(pool) if q and not sel.is_disjoint(q[0])]
            pieces = _carve(k, p[0], [oracles._ints(k, x) for _, x in parts[:-1]], max_depth)
            for psub, (i, x) in zip(tower._split_column(k, p, 0, pieces, max_depth), parts):
                head, *rest = tower._split_column(k, pool[i], 0, [x, pool[i][0] - x], max_depth)
                pool[i] = rest[0] if rest else None
                stacked.append(psub + head)
    return stacked, [[q] if q else [] for q in pool]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stack_splits_once_as_round_by_round(data):
    # carves pick pieces off in order, so splitting each pool column once
    # along all its shares gives the round-by-round sub-columns
    t = uniform_tower(data)
    assume(len(t.columns) > 1)
    order = data.draw(st.permutations(t.columns))
    start = min(data.draw(st.integers(1, 2)), len(order) - 1)
    cols, rest = order[:start], order[start:]
    pool = data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    rounds = data.draw(st.integers(1, 4))
    assume(rounds * UNI.vec(union_all(c[0] for c in cols))[0] <= UNI.vec(union_all(q[0] for q in pool))[0])
    got = tower._stack(UNI, cols, pool, rounds, 12)
    assert got == reference_stack(UNI, cols, pool, rounds, 12)


def uniform_column(data):
    """Two to four uniform atoms of one mass: groups of equally many depth-5
    cylinders, merged where two siblings fall in one group."""
    words = data.draw(st.permutations([format(i, "05b") for i in range(32)]))
    height = data.draw(st.integers(2, 4))
    size = data.draw(st.integers(1, 32 // height))
    return tuple(C(*words[i * size : (i + 1) * size]) for i in range(height))


@cache
def built_column(text):
    """The one column of a one-stage build, 48 atoms."""
    return build_saturated(parse_family(text), 1, 16).stages[1].columns[0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["uniform", "measure third\nweight e 1/3\n", "measure d2\nweight 0 1/3\nweight 1 2/3\n"]), st.data())
def test_split_column_along_a_carve_is_the_same_at_every_level(text, data):
    # the carve sees an atom only through its shape, and every atom of a
    # column has one vector: cutting any level cuts the column alike
    if text == "uniform":
        k, col = UNI, uniform_column(data)
    else:
        k, col = parse_family(text), built_column(text)
    a = col[data.draw(st.integers(0, len(col) - 1))]
    words = a.refine_to_depth(a.max_leaf_len + data.draw(st.integers(0, 1)))
    labels = [data.draw(st.integers(0, 2)) for _ in words]
    pieces = [C(*(w for w, j in zip(words, labels) if j == i)) for i in range(3)]
    vecs = [oracles._ints(k, p) for p in pieces if not p.is_empty][:-1]
    subs = [tower._split_column(k, col, r, _carve(k, col[r], vecs, 16), 16) for r in range(len(col))]
    assert len(subs[0]) == len(vecs) + 1
    assert all(sub == subs[0] for sub in subs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["uniform", "measure third\nweight e 1/3\n", "measure d2\nweight 0 1/3\nweight 1 2/3\n"]), st.data())
def test_split_column_along_any_pieces_gives_columns(text, data):
    # pieces that are no carve still move onto the atoms of their shape:
    # every sub-column keeps one vector, and each atom is tiled by its parts
    if text == "uniform":
        k, col = UNI, uniform_column(data)
    else:
        k, col = parse_family(text), built_column(text)
    level = data.draw(st.integers(0, len(col) - 1))
    a = col[level]
    words = a.refine_to_depth(a.max_leaf_len + data.draw(st.integers(0, 2)))
    labels = [data.draw(st.integers(0, 2)) for _ in words]
    pieces = [p for p in (C(*(w for w, j in zip(words, labels) if j == i)) for i in range(3)) if not p.is_empty]
    subs = tower._split_column(k, col, level, pieces, 16)
    assert [sub[level] for sub in subs] == pieces
    for sub in subs:
        assert len(sub) == len(col) and len({k.vec(b) for b in sub}) == 1
    for r, b in enumerate(col):
        parts = [sub[r] for sub in subs]
        assert union_all(parts) == b
        assert all(p.is_disjoint(q) for i, p in enumerate(parts) for q in parts[i + 1 :])


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
    assert run_decomposition(got, trivial_partition()) is not None


def test_refine_postconditions_two_columns():
    t = from_columns(UNI, [(C("0"),), (C("1"),)])
    eps = F(1, 4)
    got = refine_small_base_top(UNI, t, eps)
    assert got.base.diameter() < eps
    assert got.top.diameter() < eps
    assert run_decomposition(got, t) is not None


def test_refine_postconditions_weighted():
    k = MeasureFamily([TreeMeasure({"": F(1, 3)})])
    t = trivial_partition()
    eps = F(1, 2)
    got = refine_small_base_top(k, t, eps, max_depth=16)
    assert got.base.diameter() < eps
    assert got.top.diameter() < eps
    assert run_decomposition(got, t) is not None
    # base mass must come out strictly positive and the atoms partition X
    assert sum(k.generators[0].eval(a) for a in got.atoms) == 1


def test_refine_pins_a_wide_base(monkeypatch):
    # the top [01] is cut around [010], and the first sub-column's base
    # 00000,11000 has diameter 1, so it is split again around [00000]
    calls = []
    real = tower._split_column

    def spy(k, column, level, pieces, max_depth=12):
        calls.append((column[level], level, list(pieces)))
        return real(k, column, level, pieces, max_depth)

    monkeypatch.setattr(tower, "_split_column", spy)
    t = from_columns(
        UNI,
        [(C("00000", "110", "1110", "11110"), C("01")), (C("00001", "0001", "001", "10", "11111"),)],
    )
    got = refine_small_base_top(UNI, t, F(1, 4))
    assert calls[1] == (C("00000", "11000"), 0, [C("00000"), C("11000")])
    assert from_columns(UNI, got.columns) == got
    assert run_decomposition(got, t) is not None
    assert got.base.diameter() == got.top.diameter() == F(1, 64)


def test_refine_divides_below_the_smaller_designated_base():
    # weight 2/3 at every node of length at most 2: the whole space's top
    # is cut around [00] into [000], of mass 8/27, and [001], of mass 4/27;
    # 1/n must fall below the second, so n = 8 and every column has 8 atoms
    nodes = ("e", "0", "1", "00", "01", "10", "11")
    k = parse_family("measure deep\n" + "".join("weight %s 2/3\n" % w for w in nodes))
    got = refine_small_base_top(k, trivial_partition(), F(1, 2), max_depth=12)
    assert got.heights == (8,) * 3
    assert from_columns(k, got.columns) == got
    assert run_decomposition(got, trivial_partition()) is not None
    assert got.base.diameter() < F(1, 2) and got.top.diameter() < F(1, 2)


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
    assert run_decomposition(got, t) is not None or got.atoms != t.atoms


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


@pytest.mark.parametrize(
    "cols,u,v,want",
    [
        # already cut along the pair: the columns stacked in order
        ([("00", "10"), ("01", "11")], ["0"], ["1"], ["00", "10", "01", "11"]),
        # the gcd of the base masses is 1/4: [0] is cut in two
        ([("0",), ("10", "11")], [], [], ["00", "01", "10", "11"]),
        ([("0",), ("1",)], ["0"], ["1"], ["0", "1"]),
        # the cut: the whole space straddles both sets
        ([("",)], ["0"], ["1"], ["0", "1"]),
        # u and v overlap: the atom is cut into all four pieces
        ([("",)], ["0"], ["00", "10"], ["00", "01", "10", "11"]),
        # the base straddles u: the column is cut along it, level by level
        ([("0", "1")], ["00"], ["10"], ["00", "10", "01", "11"]),
        # no leaf is cut, but each atom has a leaf on each side: cut apart
        ([("00,11",), ("01,10",)], ["0"], ["1"], ["00", "11", "01", "10"]),
        # a pair deeper than the atoms and than the schedule's depth 3: the
        # leaf prefixes tested are as long as the pair
        ([("0", "1")], ["0000"], ["1111"], [
            "0000", "1000", "0111", "1111", "0001", "1001", "0010", "1010",
            "0011", "1011", "0100", "1100", "0101", "1101", "0110", "1110",
        ]),
    ],
    ids=["pure", "gcd", "singletons", "cut", "cut_four", "cut_column", "leaves_on_both_sides", "deep_pair"],
)
def test_merge_cuts_along_the_pair_and_balances(cols, u, v, want):
    # an atom is written as its leaves joined by commas
    t = from_columns(UNI, [tuple(C(*a.split(",")) for a in col) for col in cols])
    u, v = C(*u), C(*v)
    out = tower._merge(UNI, t, u, v, 12)
    assert len(out.columns) == 1
    assert [a.leaves for a in out.columns[0]] == [tuple(a.split(",")) for a in want]
    assert from_columns(UNI, out.columns) == out
    assert run_decomposition(out, t) is not None
    for a in out.atoms:
        for w in (u, v):
            assert a.is_subset(w) or a.is_disjoint(w)
    col = out.columns[0]
    assert sum(a.is_subset(u) for a in col) == sum(a.is_subset(v) for a in col)


def reference_cut(k, columns, u, v, max_depth):
    """_cut with the set rule it had: an atom is pure when the set of its
    leaves' sides has one element, and that is not None."""
    d = max(u.max_leaf_len, v.max_leaf_len)

    def side(p):
        c = C(p)
        ins = c.is_subset(u), c.is_subset(v)
        return ins if all(i or c.is_disjoint(s) for i, s in zip(ins, (u, v))) else None

    cols = [tuple(col) for col in columns]
    ci = 0
    while ci < len(cols):
        sides = [{side(w[:d]) for w in a.leaves} for a in cols[ci]]
        ri = next((ri for ri, x in enumerate(sides) if len(x) > 1 or None in x), None)
        if ri is None:
            ci += 1
            continue
        a = cols[ci][ri]
        pieces = [a & u & v, (a & u) - v, (a & v) - u, (a - u) - v]
        cols[ci : ci + 1] = tower._split_column(k, cols[ci], ri, pieces, max_depth)
    return cols


# two atoms of mass 3/8, each a short leaf after a long one, and [01]
MULTI_LEAF = [(C("000", "11"), C("001", "10")), (C("01"),)]


@pytest.mark.parametrize(
    "u,v",
    [
        (C("11"), C("11")),  # the later leaf [11] on the other side of both
        (C("0"), C("00")),  # [000] inside both, [11] outside both
        (C("0"), C("001")),  # [000] inside u only, [11] outside both
        (C("110"), C("110")),  # the later leaf straddles u and v
        (C("0"), C("110")),  # the later leaf straddles v only
        (C("00"), C("01")),  # both atoms' first leaves on one side, their later leaves outside
        (C("0000"), C("0000")),  # the first leaf straddles
    ],
)
def test_cut_tests_each_leaf_as_the_set_rule_did(u, v):
    got = tower._cut(UNI, MULTI_LEAF, u, v, 12)
    assert got == reference_cut(UNI, MULTI_LEAF, u, v, 12)
    assert got != [tuple(col) for col in MULTI_LEAF]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cut_matches_the_set_rule_on_drawn_towers(data):
    t = uniform_tower(data)
    depth3 = st.integers(0, 255).map(lambda m: _mask_set(m, 3))
    u, v = data.draw(depth3), data.draw(depth3)
    assert tower._cut(UNI, t.columns, u, v, 12) == reference_cut(UNI, t.columns, u, v, 12)
