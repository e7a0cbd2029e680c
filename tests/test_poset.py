from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrinelab.poset import (FinPoset, MonotoneMap, _composes_to,
                               _monotone_break, lattice_ops, left_adjoint,
                               right_adjoint)

from oracles import direct_image, named, preimage, reference_lattice_ops


def chain(n):
    elems = [f"c{i}" for i in range(n)]
    return FinPoset(elems, [(elems[i], elems[j])
                            for i in range(n) for j in range(i, n)])


TWO = chain(2)
THREE = chain(3)


def test_poset_rejects_non_orders():
    with pytest.raises(ValueError):
        FinPoset(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
    with pytest.raises(ValueError):
        FinPoset(["a", "b", "c"],
                 [("a", "b"), ("b", "c")] + [(e, e) for e in "abc"])


def test_two_chain_ops():
    ops = lattice_ops(TWO)
    bot, top = "c0", "c1"
    meet, join = named(TWO, ops.meet), named(TWO, ops.join)
    impl = named(TWO, ops.heyting_implication)
    assert ops.top == top and ops.bottom == bot
    assert meet[(top, bot)] == bot and join[(top, bot)] == top
    # a -> b is top unless a = top and b = bot
    for a in TWO.elements:
        for b in TWO.elements:
            expected = bot if (a == top and b == bot) else top
            assert impl[(a, b)] == expected


def sierpinski_frame():
    # open sets of the Sierpinski space ordered by inclusion: 0 < {a} < X
    return FinPoset(["empty", "a", "X"],
                    [("empty", "a"), ("a", "X"), ("empty", "X"),
                     ("empty", "empty"), ("a", "a"), ("X", "X")])


def test_sierpinski_negation_by_greatest_oracle():
    p = sierpinski_frame()
    ops = p.ops
    meet = named(p, ops.meet)
    # oracle: greatest c with c meet {a} <= empty, by brute force
    candidates = [c for c in p.elements
                  if p.leq(meet[(c, "a")], "empty")]
    greatest = [c for c in candidates
                if all(p.leq(o, c) for o in candidates)]
    assert greatest == ["empty"]
    assert named(p, ops.heyting_implication)[("a", "empty")] == "empty"


def test_two_maximal_elements_no_top():
    p = FinPoset(["a", "b", "x", "y"],
                 [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
                 + [(e, e) for e in "abxy"])
    ops = p.ops
    assert ops.top is None
    assert ops.join is None


def test_left_adjoint_of_identity():
    u = MonotoneMap.identity(THREE)
    adj = left_adjoint(u)
    assert adj is not None and adj.table == {e: e for e in THREE.elements}


def powerset_poset(n):
    masks = list(range(1 << n))
    return FinPoset([f"e{m}" for m in masks],
                    [(f"e{a}", f"e{b}") for a in masks for b in masks
                     if a & ~b == 0])


def test_preimage_left_adjoint_is_direct_image():
    # u = preimage along the projection (g, a) -> g for |G| = |A| = 2:
    # fiber(G) -> fiber(GxA); its left adjoint must be the direct image
    images = tuple(p // 2 for p in range(4))
    fiber_g, fiber_ga = powerset_poset(2), powerset_poset(4)
    u = MonotoneMap.from_names(fiber_g, fiber_ga,
                               {f"e{m}": f"e{preimage(images, m)}"
                                for m in range(4)})
    adj = left_adjoint(u)
    assert adj is not None
    for m in range(16):
        assert adj.table[f"e{m}"] == f"e{direct_image(images, m)}"


def test_missing_left_adjoint():
    # bottom |-> bottom, top |-> middle: nothing lies above the 3-chain top
    u = MonotoneMap.from_names(TWO, THREE, {"c0": "c0", "c1": "c1"})
    assert left_adjoint(u) is None
    # the right adjoint exists: greatest b with u(b) <= a
    assert right_adjoint(u) is not None


def test_adjoint_uniqueness_exhaustive():
    u = MonotoneMap.from_names(TWO, THREE, {"c0": "c0", "c1": "c2"})
    adj = left_adjoint(u)
    assert adj is not None
    satisfying = []
    for images in iproduct(TWO.elements, repeat=3):
        table = dict(zip(THREE.elements, images))
        if all(TWO.leq(table[a], b) == THREE.leq(a, u.table[b])
               for a in THREE.elements for b in TWO.elements):
            satisfying.append(table)
    assert satisfying == [adj.table]


_SHAPE_POOL = [chain(1), chain(2), chain(3), powerset_poset(2),
               sierpinski_frame()]


@st.composite
def monotone_maps(draw):
    src = draw(st.sampled_from(_SHAPE_POOL))
    tgt = draw(st.sampled_from(_SHAPE_POOL))
    table = {}
    for e in src.elements:
        table[e] = draw(st.sampled_from(tgt.elements))
    for a in src.elements:
        for b in src.elements:
            if src.leq(a, b) and not tgt.leq(table[a], table[b]):
                table[b] = tgt.ops.top if tgt.ops.top else table[a]
    for a in src.elements:
        for b in src.elements:
            if src.leq(a, b) and not tgt.leq(table[a], table[b]):
                table = {e: table[src.elements[0]] for e in src.elements}
                break
    m = MonotoneMap.from_names(src, tgt, table)
    assert _monotone_break(m) is None
    return m


@given(monotone_maps())
@settings(max_examples=150, deadline=None)
def test_adjunction_laws(u):
    adj = left_adjoint(u)
    if adj is not None:
        for a in u.target.elements:
            assert u.target.leq(a, u.table[adj.table[a]])  # unit
        for b in u.source.elements:
            assert u.source.leq(adj.table[u.table[b]], b)  # counit
    radj = right_adjoint(u)
    if radj is not None:
        for a in u.target.elements:
            assert u.target.leq(u.table[radj.table[a]], a)
        for b in u.source.elements:
            assert u.source.leq(b, radj.table[u.table[b]])


def test_reversed_swaps_bounds():
    ops = THREE.reversed().ops
    assert ops.top == "c0" and ops.bottom == "c2"
    assert THREE.reversed().reversed().same_order(THREE)


@pytest.mark.parametrize("p", [TWO, THREE, sierpinski_frame(),
                               powerset_poset(2), powerset_poset(3)])
def test_heyting_implication_residuation(p):
    """c <= (a -> b) iff c meet a <= b, over every triple."""
    ops = p.ops
    assert ops.heyting_implication is not None
    # the reference's table, in its insertion order: first-failure scans
    # read the table in order
    table, meet = named(p, ops.heyting_implication), named(p, ops.meet)
    assert list(table.items()) == list(reference_implication(p).items())
    for a in p.elements:
        for b in p.elements:
            impl = table[(a, b)]
            for c in p.elements:
                assert p.leq(c, impl) == p.leq(meet[(c, a)], b)


def reference_implication(p):
    """a -> b as the greatest c with c meet a <= b, one order test per
    (a, b, c): the O(n^3) loop the bitmask rows of lattice_ops replace.
    None when a meet or some greatest c is missing."""
    n = len(p.elements)
    meet = [[p.greatest_of_downset(p.lowers[i] & p.lowers[j]) for j in range(n)]
            for i in range(n)]
    if any(m is None for row in meet for m in row):
        return None
    table = {}
    for a in range(n):
        for b in range(n):
            mask = 0
            for c in range(n):
                if p.leq_idx(meet[c][a], b):
                    mask |= 1 << c
            g = p.greatest_of_downset(mask)
            if g is None:
                return None
            table[(p.elements[a], p.elements[b])] = p.elements[g]
    return table


def pentagon():
    # N5: 0 < a < b < 1 and 0 < c < 1, a lattice that is not distributive
    return FinPoset(["0", "a", "b", "c", "1"],
                    [("0", x) for x in "0abc1"] + [("a", "a"), ("a", "b"),
                     ("a", "1"), ("b", "b"), ("b", "1"), ("c", "c"),
                     ("c", "1"), ("1", "1")])


def test_non_heyting_posets_have_no_implication():
    # the pentagon is a lattice but not distributive; an antichain has no
    # meets at all
    for p in (pentagon(), FinPoset(["a", "b"], [])):
        assert lattice_ops(p).heyting_implication is None
        assert reference_implication(p) is None


@st.composite
def posets(draw, max_size=7):
    """A random order: a random relation that only puts i below j for
    i < j (so it is antisymmetric), closed under transitivity, on elements
    relabelled at random, so index order need not extend the order."""
    n = draw(st.integers(1, max_size))
    uppers = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                uppers[i] |= 1 << j
    for i in reversed(range(n)):
        m = uppers[i]
        for j in range(i + 1, n):
            if m >> j & 1:
                m |= uppers[j]
        uppers[i] = m
    perm = draw(st.permutations(range(n)))
    elems = [f"x{perm[i]}" for i in range(n)]
    leq = [(elems[i], elems[j]) for i in range(n) for j in range(n)
           if uppers[i] >> j & 1]
    return FinPoset(sorted(elems), leq)


@given(posets())
@settings(max_examples=200, deadline=None)
def test_implication_matches_reference_on_random_posets(p):
    impl = lattice_ops(p).heyting_implication
    expected = reference_implication(p)
    assert (None if impl is None else list(named(p, impl).items())) == (
        None if expected is None else list(expected.items()))


LATTICE_FIELDS = ("meet", "join", "top", "bottom", "heyting_implication",
                  "is_heyting")


def assert_lattice_ops_match_reference(p):
    """Each field of ``lattice_ops(p)``, read first on a fresh table set,
    equals the eager reference's."""
    expected = reference_lattice_ops(p)
    for field in LATTICE_FIELDS:
        assert getattr(lattice_ops(p), field) == expected[field], field


@given(posets())
@settings(max_examples=200, deadline=None)
def test_lattice_ops_match_the_eager_reference_on_random_posets(p):
    # random orders are often not lattices: their missing tables are None
    assert_lattice_ops_match_reference(p)


def test_lattice_ops_are_computed_on_first_read():
    ops = lattice_ops(powerset_poset(3))
    assert vars(ops) == {}
    assert ops.heyting_implication is not None
    assert sorted(vars(ops)) == ["heyting_implication", "meet"]


@given(posets())
@settings(max_examples=200, deadline=None)
def test_covers_generate_the_order(p):
    n = len(p.elements)
    strictly = [[i != j and p.leq_idx(i, j) for j in range(n)] for i in range(n)]
    expected = [(i, j) for i in range(n) for j in range(n) if strictly[i][j]
                and not any(strictly[i][k] and strictly[k][j] for k in range(n))]
    assert list(p.cover_pairs) == expected


def full_scan_break(m):
    """The first pair i <= j, in index order, with unordered images."""
    src, tgt = m.source, m.target
    for i in range(len(src)):
        for j in range(len(src)):
            if src.leq_idx(i, j) and not tgt.leq_idx(m.idx_table[i],
                                                     m.idx_table[j]):
                return i, j
    return None


@given(posets(5), posets(5), st.data())
@settings(max_examples=200, deadline=None)
def test_monotone_break_is_the_first_in_scan_order(src, tgt, data):
    table = {e: data.draw(st.sampled_from(tgt.elements)) for e in src.elements}
    m = MonotoneMap.from_names(src, tgt, table)
    assert _monotone_break(m) == full_scan_break(m)


def test_composes_to_on_byte_and_tuple_tables():
    for n in (4, 300):  # bytes up to 256 elements, tuples above
        c = chain(n)
        def clamp(k):
            return MonotoneMap.from_names(
                c, c, {f"c{i}": f"c{min(i, k)}" for i in range(n)})
        low, high = clamp(1), clamp(n - 2)
        assert _composes_to(high, low, low) and _composes_to(low, high, low)
        assert not _composes_to(low, high, high)
