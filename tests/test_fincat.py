import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from doctrinelab import catalog, fincat, theorems
from doctrinelab.doctrine import Doctrine, validate_doctrine
from doctrinelab.fincat import (MAX_POINTS, Arrow, ArrowClass, ConcreteBuilder,
                                FinCategory, Presentation, Product,
                                tables_compose)
from doctrinelab.poset import FinPoset, MonotoneMap
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import MalformedCategory, WindowExceeded

from oracles import parse_arrow, reference_close
from test_doctrine import _fault_injected, _fresh


def one_object_category():
    return FinCategory(["A"], [Arrow("id", "A", "A")], {"A": "id"},
                       {("id", "id"): "id"})


def test_one_object_category_validates():
    assert one_object_category().validate()


def test_a_composition_dict_is_kept():
    table = {("id", "id"): "id"}
    c = FinCategory(["A"], [Arrow("id", "A", "A")], {"A": "id"}, table)
    assert c.compose_table is table


def test_missing_composite_is_distinct_error():
    arrows = [Arrow("id", "A", "A"), Arrow("f", "A", "A")]
    c = FinCategory(["A"], arrows, {"A": "id"},
                    {("id", "id"): "id", ("f", "id"): "f", ("id", "f"): "f"})
    with pytest.raises(MalformedCategory, match="incomplete table"):
        c.validate()


@pytest.mark.parametrize("arrows, identity, error", [
    ([Arrow("id", "A", "A"), Arrow("f", "A", "B")], {"A": "id"},
     "arrow f references undeclared object"),   # the codomain alone
    ([Arrow("id", "A", "A")], {"A": "nowhere"}, "missing identity for A")])
def test_an_undeclared_name_is_malformed(arrows, identity, error):
    with pytest.raises(MalformedCategory, match=f"^{error}$"):
        FinCategory(["A"], arrows, identity, {("id", "id"): "id"})


@pytest.mark.parametrize("entry", [("nowhere", "id"), ("id", "nowhere")])
def test_a_composition_entry_with_one_unknown_name_is_malformed(entry):
    g, f = entry
    with pytest.raises(MalformedCategory, match=(
            rf"^composition entry \({g},{f}\) references unknown arrow$")):
        FinCategory(["A"], [Arrow("id", "A", "A")], {"A": "id"},
                    {("id", "id"): "id", entry: "id"})


def test_compose_tells_a_pair_that_does_not_compose_from_a_missing_one():
    arrows = [Arrow("a", "A", "A"), Arrow("b", "B", "B"), Arrow("f", "A", "B")]
    c = FinCategory(["A", "B"], arrows, {"A": "a", "B": "b"},
                    {("a", "a"): "a", ("b", "b"): "b", ("b", "f"): "f"})
    assert c.compose("b", "f") == "f"
    with pytest.raises(ValueError, match="^f and f are not composable$"):
        c.compose("f", "f")
    with pytest.raises(MalformedCategory,
                       match=r"^incomplete table: \(f\) o \(a\) missing$"):
        c.compose("f", "a")


def test_identity_law_violation_refuted():
    arrows = [Arrow("id", "A", "A"), Arrow("f", "A", "A")]
    c = FinCategory(["A"], arrows, {"A": "id"},
                    {("id", "id"): "id", ("f", "id"): "id",
                     ("id", "f"): "f", ("f", "f"): "f"})
    v = c.validate()
    assert v.is_refuted and v.counterexample["kind"] == "identity_law"


def test_ps_window_validates(ps20):
    assert ps20.base.validate()


def test_diagonal_is_pair_of_identities(ps20):
    base = ps20.base
    delta = base.diagonal("S2")
    row = base.products[("S2", "S2")]
    assert base.compose(row.proj1, delta) == base.identity["S2"]
    assert base.compose(row.proj2, delta) == base.identity["S2"]
    dom, cod, images = parse_arrow(delta)
    assert images == (0, 3)  # x |-> (x, x) under pair coding


def test_ps_product_sizes(ps20):
    # oracle: the cartesian product of {0} and {0,1} has two pairs
    row = ps20.base.product("S1", "S2")
    assert ps20.base.sizes[row.obj] == 2


def test_product_with_terminal_is_iso(ps20, ps11, sier, triv, sl3):
    for d in (ps20, ps11, sier, triv, sl3):
        base = d.base
        t = base.terminal()
        for a in base.window:
            row = base.products[(a, t)]
            # proj1 is an isomorphism
            assert base.is_iso(row.proj1), (d.name, a)


@pytest.mark.parametrize("f, member, contained", [
    ("S2>S2:1,0", "S2>S2:0,1", True),          # the identity after the swap
    ("S4>S2:1,1,0,0", "S4>S2:0,0,1,1", True),  # p1 after flipping the first
    ("S2>S2:0,0", "S2>S2:0,1", False),         # only after a constant
    ("S4>S2:0,0,0,0", "S4>S2:0,0,1,1", False)])
def test_class_membership_is_up_to_an_iso_into_a_member(ps20, f, member,
                                                         contained):
    base = ps20.base
    prj = base.projection_class()
    assert f not in prj.members and member in prj.members
    via = [j for j in base.hom(base.dom(f), base.dom(member))
           if base.compose(member, j) == f]
    assert via and any(map(base.is_iso, via)) == contained
    assert base.class_contains(prj, f) == contained


def test_pair_uniqueness(ps20):
    base = ps20.base
    f = "S2>S2:1,0"
    g = "S2>S1:0,0"
    h = base.pair(f, g)
    row = base.products[("S2", "S1")]
    assert base.compose(row.proj1, h) == f
    assert base.compose(row.proj2, h) == g
    mediators = [k for k in base.hom("S2", row.obj)
                 if base.compose(row.proj1, k) == f
                 and base.compose(row.proj2, k) == g]
    assert mediators == [h]


def test_pullback_along_identity(ps20):
    base = ps20.base
    g = "S1>S2:0"
    s = base.pullback(base.identity["S2"], g)
    assert s is not None
    assert base.verify_square_is_pullback(s)
    assert base.sizes[s.apex] == base.sizes["S1"]


def test_ps_pullback_of_disjoint_points_is_empty(ps20):
    # oracle: pullback of {0} -> {0,1} <- {1} in sets is empty
    s = ps20.base.pullback("S1>S2:0", "S1>S2:1")
    assert s is not None and s.apex == "S0"


def test_thin_pullback_is_meet(sl3):
    s = sl3.base.pullback("L1>L2", "L0>L2")
    assert s is not None and s.apex == "L0"
    assert sl3.base.verify_square_is_pullback(s)


def test_identities_monic(ps20):
    for o in ps20.base.window:
        assert ps20.base.is_monic(ps20.base.identity[o])


def test_noninjective_map_not_monic(ps20):
    v = ps20.base.is_monic("S2>S1:0,0")
    assert v.is_refuted
    g, h = v.counterexample["pair"]
    assert g != h
    assert recheck(ps20, v)


def test_empty_set_stable_initial(ps20):
    assert ps20.base.is_stable_initial("S0")
    v = ps20.base.is_stable_initial("S1")
    assert v.is_refuted
    assert recheck(ps20, v)


def test_a_retract_of_the_initial_object_makes_it_unstable():
    # I is a retract of A, p u = id_I, but e = u p is an idempotent other
    # than id_A; the chosen product A x I is A, not isomorphic to I
    arrows = [Arrow("i", "I", "I"), Arrow("u", "I", "A"), Arrow("p", "A", "I"),
              Arrow("a", "A", "A"), Arrow("e", "A", "A")]
    compose = {("i", "i"): "i", ("u", "i"): "u",
               ("a", "u"): "u", ("e", "u"): "u", ("p", "u"): "i",
               ("i", "p"): "p", ("u", "p"): "e",
               ("a", "a"): "a", ("e", "a"): "e", ("p", "a"): "p",
               ("a", "e"): "e", ("e", "e"): "e", ("p", "e"): "p"}
    base = FinCategory(["I", "A"], arrows, {"I": "i", "A": "a"}, compose,
                       products={("I", "I"): Product("I", "I", "I", "i", "i"),
                                 ("A", "I"): Product("A", "I", "A", "a", "p")})
    assert base.validate()
    v = base.is_stable_initial("I")
    assert v.counterexample == {"kind": "unstable_initial", "object": "I",
                                "factor": "A", "product": "A"}
    one = FinPoset(["t"], [("t", "t")])
    d = Doctrine(base, {"I": one, "A": one},
                 {n: MonotoneMap.identity(one) for n in base.arrows})
    assert recheck(d, v)


def test_subobjects_of_two_element_set(ps20):
    sub = ps20.base.subobject_poset("S2")
    assert len(sub) == 4
    ops = sub.ops
    assert ops.top is not None and ops.bottom is not None
    atoms = [e for e in sub.elements
             if e not in (ops.top, ops.bottom)]
    assert len(atoms) == 2
    a, b = atoms
    assert not sub.leq(a, b) and not sub.leq(b, a)


def test_projection_class_stable_on_catalog(ps20, ps11, sier, triv, sl3):
    for d in (ps20, ps11, sier, triv, sl3):
        prj = d.base.projection_class()
        assert d.base.is_pullback_stable(prj), d.name


@pytest.mark.parametrize("cid", catalog.catalog_ids())
def test_the_projection_class_is_stable_without_a_square(monkeypatch, cid):
    # stable by construction: no square is built or searched for
    monkeypatch.setattr(catalog, "_CACHE", {})
    base = catalog.instance(cid).base
    calls = []
    for name in ("canonical_projection_squares", "pullback"):
        monkeypatch.setattr(FinCategory, name,
                            lambda *args, name=name: calls.append(name) or ())
    assert base.is_pullback_stable(base.projection_class())
    assert not calls


def test_thin_class_stability_iff_meet_closed(sl3):
    base = sl3.base
    not_closed = ArrowClass("test", ("L1>L2",))
    v = base.is_pullback_stable(not_closed)
    assert v.is_refuted
    assert recheck(sl3, v)
    closed = ArrowClass("test2", ("L1>L2", "L0>L1", "L0>L2",
                                  "L0>L0", "L1>L1", "L2>L2"))
    assert base.is_pullback_stable(closed)


def test_window_descriptor_mentions_presentation(ps20):
    assert "finset" in ps20.base.window_descriptor


def test_unmaterialized_product_window_exceeded(ps20):
    from doctrinelab.verdicts import WindowExceeded
    with pytest.raises(WindowExceeded):
        ps20.base.product("S4", "S4")


def _rebuilt(base, table):
    return FinCategory(base.objects, base.arrows.values(), base.identity,
                       table, window=base.window, products=base.products,
                       terminal=base.terminal_obj,
                       presentation=base.presentation)


def _swap_fixes_a_point(base):
    table = dict(base.compose_table)
    table[("S2>S2:1,0", "S1>S2:0")] = "S1>S2:0"
    return table


SWAP_FIXES_A_POINT = {
    "kind": "associativity", "f": "S1>S2:0", "g": "S2>S2:0,0",
    "h": "S2>S2:1,0", "left": "S1>S2:0", "right": "S1>S2:1"}


def test_fault_injected_composite_cell_breaks_associativity(ps20):
    broken = _rebuilt(ps20.base, _swap_fixes_a_point(ps20.base))
    v = broken.validate()
    assert v.counterexample == SWAP_FIXES_A_POINT
    assert recheck(Doctrine(broken, ps20.fibers, ps20.reindex), v)


# Whole-table passes decide that the composition table names known arrows
# and holds each composable pair with the right endpoints; when one fails,
# the scan finds the fault, so each error is the scan's.

def test_an_entry_naming_an_unknown_arrow_gives_the_scan_error(ps20):
    table = {**ps20.base.compose_table, ("S2>S2:1,0", "S1>S2:0"): "nowhere"}
    with pytest.raises(MalformedCategory) as err:
        _rebuilt(ps20.base, table)
    assert str(err.value) == (
        "composition entry (S2>S2:1,0,S1>S2:0) references unknown arrow")


def _without_a_pair(table):
    del table[("S2>S2:1,0", "S1>S2:0")]


def _with_a_pair_that_does_not_compose(table):
    _without_a_pair(table)  # as many entries as composable pairs
    table[("S1>S2:0", "S1>S2:0")] = "S1>S2:0"


def _with_wrong_endpoints(table):
    table[("S2>S2:1,0", "S1>S2:0")] = "S2>S2:0,0"


def _with_an_extra_pair_that_does_not_compose(table):
    table[("S1>S2:0", "S1>S2:0")] = "S1>S2:0"  # no pair removed


@pytest.mark.parametrize("fault,error", [
    (_without_a_pair, "incomplete table: (S2>S2:1,0) o (S1>S2:0) missing"),
    (_with_a_pair_that_does_not_compose,
     "incomplete table: (S2>S2:1,0) o (S1>S2:0) missing"),
    (_with_wrong_endpoints,
     "composite (S2>S2:1,0) o (S1>S2:0) has wrong endpoints"),
    (_with_an_extra_pair_that_does_not_compose,
     "entry (S1>S2:0) o (S1>S2:0) does not compose")])
def test_a_faulty_table_gives_the_scan_error(ps20, fault, error):
    table = dict(ps20.base.compose_table)
    fault(table)
    broken = _rebuilt(ps20.base, table)
    with pytest.raises(MalformedCategory) as err:
        broken.validate()
    assert str(err.value) == error


# -- the composition columns of a built window -------------------------------

BUILT = [cid for cid in catalog.catalog_ids() if cid != "SL3"]  # SL3 is explicit


@pytest.mark.parametrize("cid", BUILT)
def test_a_built_window_composes_each_pair_once_and_its_tables_prove_it(cid):
    # validate proves the laws of a built window by construction; the scan
    # of every composable triple of a dict copy is the oracle
    base = catalog.instance(cid).base
    assert len(set(base.compose_table)) == len(base.compose_table)
    assert _copy(base).validate()


@pytest.mark.parametrize("cid", ["PS(2,0)", "SIER"])
def test_each_composite_looked_up_is_the_entry_of_the_columns(cid):
    # dict() looks every key up, so this compares the composites computed
    # from the arrows' images with the columns, in their order
    table = catalog.instance(cid).base.compose_table
    assert list(dict(table).items()) == list(table.items())


@pytest.mark.parametrize("key", [("S1>S2:0", "S1>S2:0"), ("nowhere", "S1>S2:0"),
                                 ("S2>S2:1,0", "nowhere")])
def test_the_columns_miss_a_pair_that_does_not_compose_or_an_unknown_name(ps20, key):
    table = ps20.base.compose_table
    assert table.get(("S2>S2:1,0", "S1>S2:0")) == "S1>S2:1"
    assert table.get(key) is None and key not in table
    with pytest.raises(KeyError):
        table[key]


def test_one_wrong_composite_fails_the_proof_by_tables(ps20):
    base = ps20.base
    g, f, gf = (list(column) for column in
                base.compose_table.columns_of(range(len(base.arrows))))
    images = [bytes(base.tables[n]) for n in base.arrows]
    maps = [ps20.reindex[n] for n in base.arrows]
    # reindexing composes the other way round: its columns are (f, g, gf)
    proofs = [((g, f, gf), images, [t.ljust(256, b"\0") for t in images]),
              ((f, g, gf), [m._idx_bytes for m in maps],
               [m._translation for m in maps])]
    assert all(tables_compose(*proof) for proof in proofs)
    index = {n: i for i, n in enumerate(base.arrows)}
    swap, point = index["S2>S2:1,0"], index["S1>S2:0"]
    k = next(k for k, pair in enumerate(zip(g, f)) if pair == (swap, point))
    gf[k] = point  # the swap fixes the point
    assert not any(tables_compose(*proof) for proof in proofs)


def test_builder_refuses_a_carrier_above_its_point_limit():
    b = ConcreteBuilder(Presentation("points", ()))
    b.add_object("X", MAX_POINTS, window=True)
    with pytest.raises(WindowExceeded, match=f"carrier of {MAX_POINTS + 1} "):
        b.add_object("Y", MAX_POINTS + 1)
    base = b.close()
    assert base.tables[base.identity["X"]] == tuple(range(MAX_POINTS))
    assert base.validate()


@pytest.mark.parametrize("dom, cod, images", [
    ("A", "B", [0, 5]),      # a point sent outside the codomain
    ("A", "B", [0, -1]),
    ("A", "B", [0]),         # too few images
    ("A", "B", [0, 1, 1]),   # too many
    ("A", "C", [0, 1]),      # an undeclared codomain
    ("C", "A", []),          # an undeclared domain
    ("A", "B", [0, 2])])     # the codomain's size
def test_builder_refuses_an_arrow_that_is_not_a_function(dom, cod, images):
    b = ConcreteBuilder(Presentation("points", ()))
    b.add_object("A", 2, window=True)
    b.add_object("B", 2, window=True)
    name = f"{dom}>{cod}:{','.join(map(str, images))}"
    with pytest.raises(ValueError, match=f"^arrow {name} is not a function"):
        b.add_arrow(dom, cod, images)
    assert len(b.close().arrows) == 2  # the identities


def _record(base):
    """Everything a window holds but its order."""
    return (base.objects, base.window, base.power_pool, base.terminal_obj,
            {n: (a.dom, a.cod) for n, a in base.arrows.items()}, base.identity,
            {k: (r.left, r.right, r.obj, r.proj1, r.proj2)
             for k, r in base.products.items()},
            base.tables, len(base.compose_table), dict(base.compose_table.items()))


@st.composite
def builders(draw):
    """A builder over 1-3 objects of at most 3 points, with random
    generators, some objects in the window or the pool, some product rows,
    and some rows on a product carrier, as for the equality predicate."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    b = ConcreteBuilder(Presentation("random", ()))
    names = [b.add_object(f"X{i}", n, window=draw(st.booleans()),
                          pool=draw(st.booleans())) for i, n in enumerate(sizes)]
    for x, y in draw(st.lists(st.sampled_from([(x, y) for x in names for y in names]),
                              max_size=4, unique=True)):
        carrier = b.add_object(f"({x}x{y})", b.carriers[x] * b.carriers[y])
        b.declare_product(x, y, carrier)
        if draw(st.booleans()):
            triple = b.add_object(f"({carrier}x{y})",
                                  b.carriers[carrier] * b.carriers[y])
            b.declare_product(carrier, y, triple)
    for _ in range(draw(st.integers(1, 5))):
        dom, cod = draw(st.sampled_from(b.order)), draw(st.sampled_from(b.order))
        n, m = b.carriers[dom], b.carriers[cod]
        if m or not n:  # else no function exists
            b.add_arrow(dom, cod, draw(st.lists(st.integers(0, max(m - 1, 0)),
                                                min_size=n, max_size=n)))
    return b


def _closed(close):
    try:
        return close()
    except WindowExceeded:
        return None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(b=builders(), limit=st.integers(4, 160))
def test_the_closure_over_generators_is_the_reference_closure(b, limit):
    # the same window, or a refusal on both sides, under a small limit; the
    # scan of a dict copy finds the laws that validate proves by construction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "MAX_ARROWS", limit)
        got, want = _closed(b.close), _closed(lambda: reference_close(b))
    assert (got is None) == (want is None)
    if got is not None:
        assert _record(got) == _record(want)
        assert _copy(got).validate() and got.validate()


def _faulted_cell_verdicts(d, arrows, rng, copy):
    """Change one cell, chosen by ``rng``, of the reindex map along each of
    ``arrows`` in turn; require the same ``validate_doctrine`` report over
    the base of ``d`` and over ``copy``, a ``dict`` copy of it, and every
    refutation to recheck.  The arrows refuted, in order."""
    refuted = []
    for n in arrows:
        m = d.reindex[n]
        table, size = list(m.idx_table), len(m.target)
        if size > 1:  # else no other image exists
            i = rng.randrange(len(table))
            table[i] = (table[i] + rng.randrange(1, size)) % size
        reindex = {**d.reindex, n: MonotoneMap(m.source, m.target, table)}
        got, want = (validate_doctrine(Doctrine(base, d.fibers, reindex))
                     for base in (d.base, copy))
        assert got.to_json() == want.to_json(), n
        if not got:
            assert recheck(Doctrine(d.base, d.fibers, reindex), got), n
            refuted.append(n)
    return refuted


@pytest.mark.parametrize("cid, sample", [("PS(1,1)", None), ("TRIV", None),
                                         ("PS(2,0)", 60), ("SIER", 60)])
def test_a_faulted_reindex_cell_gets_the_verdict_of_a_dict_copy(cid, sample):
    # the proof over the generators of a built base gives the verdict of
    # the scan over every pair of an explicit one, also where the fault
    # is on an arrow that is no generator
    d = catalog.instance(cid)
    rng = random.Random(0)
    arrows = list(d.base.arrows)
    refuted = _faulted_cell_verdicts(
        d, rng.sample(arrows, sample) if sample else arrows, rng, _copy(d.base))
    gens = d.base.generators[0]
    if cid == "TRIV":  # singleton fibers: no cell can change
        assert not refuted
    else:
        assert any(arrows.index(n) not in gens for n in refuted)
        assert any(arrows.index(n) in gens for n in refuted)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(b=builders(), seed=st.integers(0, 2**32 - 1))
def test_a_faulted_powerset_doctrine_gets_the_verdict_of_a_dict_copy(b, seed):
    # fibers of up to 512 elements: above 256 the scan runs on both sides
    assume(max(b.carriers.values()) <= 9)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fincat, "MAX_ARROWS", 200)
            base = b.close()
    except WindowExceeded:
        assume(False)
    fibers = {o: catalog._powerset_fiber(base.sizes[o]) for o in base.objects}
    d = Doctrine(base, fibers, catalog._preimage_maps(
        base, fibers, {o: range(1 << base.sizes[o]) for o in base.objects}))
    assert validate_doctrine(d)
    rng = random.Random(seed)
    _faulted_cell_verdicts(d, [rng.choice(list(base.arrows))], rng, _copy(base))


# -- the base memo ----------------------------------------------------------------

def _copy(base):
    """A base built from the tables of ``base``, with an empty memo and its
    own composition table, so that nothing done to the copy reaches
    ``base``."""
    return FinCategory(base.objects, base.arrows.values(), base.identity,
                       dict(base.compose_table), base.window, base.products,
                       base.terminal_obj, base.presentation, base.sizes,
                       base.power_pool, base.tables)


def _outcome(method, *args):
    try:
        got = method(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return got.to_json() if hasattr(got, "to_json") else got


@pytest.mark.parametrize("name", [*catalog.catalog_ids(), 1, 2, 3, 4])
def test_memoized_base_results_match_a_fresh_base(name):
    # a number names the chain base of that length
    base = (theorems.chain_base(name) if isinstance(name, int)
            else catalog.instance(name).base)
    fresh = _copy(base)
    assert fresh._cache == {}
    wa = base.window_arrows
    calls = [("pair", f, g) for f in wa for g in wa
             if base.dom(f) == base.dom(g)
             and (base.cod(f), base.cod(g)) in base.products]
    calls += [("times", f, g) for f in wa for g in wa
              if (base.dom(f), base.dom(g)) in base.products
              and (base.cod(f), base.cod(g)) in base.products]
    calls += [("window_arrows_into", o) for o in base.objects]
    prj = base.projection_class()
    others = ArrowClass("all", wa)
    calls += [("projection_class",), ("is_pullback_stable", prj),
              ("is_pullback_stable", others)]
    assert any(c[0] == "pair" for c in calls)
    assert any(c[0] == "times" for c in calls)
    for name_, *args in calls:
        want = _outcome(getattr(fresh, name_), *args)
        # the first call may compute, the second reads the memo
        assert _outcome(getattr(base, name_), *args) == want, (name_, args)
        assert _outcome(getattr(base, name_), *args) == want, (name_, args)
    assert base.projection_class() is base.projection_class()
    assert base.window_descriptor == fresh.window_descriptor


@pytest.mark.parametrize("cid", ["PS(1,1)", "SIER", "TRIV", "SL3"])
def test_doctrines_over_one_base_share_its_memo(cid):
    d = catalog.instance(cid)
    theorems.check_all(_fresh(d))
    entries = dict(d.base._cache)
    assert entries
    theorems.check_all(_fresh(d))
    assert d.base._cache == entries


def test_a_rebuilt_base_starts_with_an_empty_memo(ps11):
    base = ps11.base
    ident, swap = "S2>S2:0,1", "S2>S2:1,0"
    memoized = base.pullback(swap, ident)
    assert (memoized.to_f, memoized.to_g) == (ident, swap)
    broken = _fault_injected(ps11, composite=((ident, swap), "S2>S2:0,0"))
    assert broken.base._cache == {}
    v = broken.base.validate()
    assert v.counterexample == {"kind": "identity_law", "object": "S2",
                                "arrow": swap, "composite": "S2>S2:0,0"}
    assert recheck(broken, v)
    # the broken cell changes which cones commute over the swap, so the
    # rebuilt base finds another square than the one in the memo above
    got = broken.base.pullback(swap, ident)
    assert (got.to_f, got.to_g) == (swap, ident)
    assert _copy(broken.base).pullback(swap, ident) == got


def test_pair_on_a_broken_product_raises_on_every_call():
    # one object A with an idempotent e, and (A, id, e) chosen as A x A:
    # the cone (e, id) has no mediator: k must be e, and e e = e, not id
    base = FinCategory(["A"], [Arrow("id", "A", "A"), Arrow("e", "A", "A")],
                       {"A": "id"}, {("id", "id"): "id", ("id", "e"): "e",
                                     ("e", "id"): "e", ("e", "e"): "e"},
                       products={("A", "A"): Product("A", "A", "A", "id", "e")})
    for _ in range(2):
        with pytest.raises(MalformedCategory, match="not a product"):
            base.pair("id", "id")
    # the memo keeps the failed product check, not the exception
    assert list(base._cache.values()) == ["0 mediators for (e,id)"]


def test_a_missing_pullback_is_computed_once():
    # the cospan A --f--> C <--g-- B has no commuting cone at all
    arrows = [Arrow(f"1{o}", o, o) for o in "ABC"]
    arrows += [Arrow("f", "A", "C"), Arrow("g", "B", "C")]
    table = {(f"1{o}", f"1{o}"): f"1{o}" for o in "ABC"}
    table.update({("1C", "f"): "f", ("f", "1A"): "f",
                  ("1C", "g"): "g", ("g", "1B"): "g"})
    base = FinCategory("ABC", arrows, {o: f"1{o}" for o in "ABC"}, table)
    cones = []
    search = base._cones
    base._cones = lambda *args: cones.append(args) or search(*args)
    assert base.pullback("f", "g") is None
    computed = len(cones)
    assert computed
    assert base.pullback("f", "g") is None
    assert len(cones) == computed
