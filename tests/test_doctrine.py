import gc
import tracemalloc

import pytest

from doctrinelab import catalog, ioformat, theorems
from doctrinelab.constructions import dualize
from doctrinelab.doctrine import (Doctrine, frobenius, has_bottoms, has_tops,
                                  is_existential, is_pi_doctrine, is_primary,
                                  is_propositional, is_sigma_doctrine,
                                  validate_doctrine)
from doctrinelab.fincat import Arrow, ArrowClass, FinCategory
from doctrinelab.poset import FinPoset, MonotoneMap
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import ShapeMismatch

from oracles import direct_image, forall_image, parse_arrow


def test_triv_validates(triv):
    assert validate_doctrine(triv)


def test_ps_validates(ps20):
    assert validate_doctrine(ps20)


def _fault_injected(d, breaker=None, composite=None):
    """Copy of a catalog doctrine with one reindex table, or the composite
    ``gf`` of one pair ``composite = ((g, f), gf)``, tampered with."""
    reindex, base = dict(d.reindex), d.base
    if breaker is not None:
        name, table = breaker(d)
        old = reindex[name]
        reindex[name] = MonotoneMap.from_names(old.source, old.target, table)
    if composite is not None:
        pair, gf = composite
        base = FinCategory(base.objects, base.arrows.values(), base.identity,
                           {**base.compose_table, pair: gf}, base.window,
                           base.products, base.terminal_obj, base.presentation,
                           base.sizes, base.power_pool)
    return Doctrine(base, d.fibers, reindex, name="PS-broken")


def test_fault_injected_composite_refuted(ps20):
    def b(d):
        name = "S2>S2:1,0"
        table = dict(d.reindex[name].table)
        table["e1"], table["e2"] = table["e2"], table["e1"]
        return name, table
    broken = _fault_injected(ps20, b)
    v = validate_doctrine(broken)
    assert v.counterexample == {
        "kind": "functor_composition", "f": "S1>S2:0", "g": "S2>S2:1,0",
        "composite": "S1>S2:1", "element": "e1", "via_composite": "e0",
        "via_parts": "e1"}
    assert recheck(broken, v)


def _one_cell(d, name, element, image):
    table = dict(d.reindex[name].table)
    table[element] = image
    return name, table


def test_fault_injected_s8_cell_breaks_composition(ps20):
    # preimage along 0,7: 2 -> 8 of {1..7} is {1}; {0, 1} keeps the map
    # monotone but its preimage along 0: 1 -> 2 is {0}, no longer that of
    # {1..7} along the composite 0: 1 -> 8, the first pair the scan meets
    broken = _fault_injected(
        ps20, lambda d: _one_cell(d, "S2>S8:0,7", "e254", "e3"))
    v = validate_doctrine(broken)
    assert v.counterexample == {
        "kind": "functor_composition", "f": "S1>S2:0", "g": "S2>S8:0,7",
        "composite": "S1>S8:0", "element": "e254", "via_composite": "e0",
        "via_parts": "e1"}
    assert recheck(broken, v)


def test_fault_injected_image_breaks_monotonicity(ps20):
    # the top of fiber(S2) sent to the bottom of fiber(S8)
    broken = _fault_injected(
        ps20, lambda d: _one_cell(d, "S8>S2:0,0,0,0,1,1,1,1", "e3", "e0"))
    v = validate_doctrine(broken)
    assert v.counterexample == {
        "kind": "not_monotone", "arrow": "S8>S2:0,0,0,0,1,1,1,1",
        "pair": ["e1", "e3"], "images": ["e15", "e0"]}
    assert recheck(broken, v)


def test_first_unordered_pair_off_the_covers_is_the_scan_payload(ps20):
    # fiber(S2) is e0 < e1, e2 < e3; the images keep e0 below e1 and e2 but
    # not below e3, so every cover is checked and the first pair the scan
    # finds, (e0, e3), is no cover
    broken = _fault_injected(ps20, lambda d: (
        "S8>S2:0,0,0,0,1,1,1,1",
        {"e0": "e1", "e1": "e255", "e2": "e255", "e3": "e2"}))
    v = validate_doctrine(broken)
    assert v.counterexample == {
        "kind": "not_monotone", "arrow": "S8>S2:0,0,0,0,1,1,1,1",
        "pair": ["e0", "e3"], "images": ["e1", "e2"]}
    assert recheck(broken, v)


def test_fault_injected_identity_reindex_rechecks(ps11):
    # reindexing along the identity of S1 sends the top {0} to the bottom
    broken = _fault_injected(ps11, lambda d: ("S1>S1:0", {"e0": "e0", "e1": "e0"}))
    v = validate_doctrine(broken)
    assert v.counterexample == {"kind": "functor_identity", "object": "S1",
                                "element": "e1", "image": "e0"}
    assert recheck(broken, v) and not recheck(ps11, v)


def test_fault_injected_identity_composite_rechecks(ps11):
    # the identity of S2 after the swap of its two points gives a constant
    broken = _fault_injected(
        ps11, composite=(("S2>S2:0,1", "S2>S2:1,0"), "S2>S2:0,0"))
    v = broken.base.validate()
    assert v.counterexample == {"kind": "identity_law", "object": "S2",
                                "arrow": "S2>S2:1,0", "composite": "S2>S2:0,0"}
    assert recheck(broken, v) and not recheck(ps11, v)


def chain_doctrine(n, image_of_top):
    """One object with an idempotent endo-arrow ``e``; the fiber is an
    n-chain, reindexing along ``e`` clamps at the middle except that the top
    goes to ``image_of_top``."""
    elems = [f"c{i}" for i in range(n)]
    fiber = FinPoset(elems, [(elems[i], elems[j])
                             for i in range(n) for j in range(i, n)])
    base = FinCategory(["X"], [Arrow("id", "X", "X"), Arrow("e", "X", "X")],
                       {"X": "id"}, {("id", "id"): "id", ("id", "e"): "e",
                                     ("e", "id"): "e", ("e", "e"): "e"})
    clamp = {x: elems[min(i, n // 2)] for i, x in enumerate(elems)}
    clamp[elems[-1]] = image_of_top
    return Doctrine(base, {"X": fiber},
                    {"id": MonotoneMap.identity(fiber),
                     "e": MonotoneMap.from_names(fiber, fiber, clamp)})


def test_fiber_above_256_elements_checks_composites_as_tuples():
    # 300 elements: past the byte tables, the composites compare as tuples
    assert validate_doctrine(chain_doctrine(300, "c150"))
    broken = chain_doctrine(300, "c151")
    v = validate_doctrine(broken)
    assert v.counterexample == {
        "kind": "functor_composition", "f": "e", "g": "e", "composite": "e",
        "element": "c299", "via_composite": "c151", "via_parts": "c150"}
    assert recheck(broken, v)
    assert "_idx_bytes" not in vars(broken.reindex["e"])


def test_fiber_above_256_elements_checks_monotonicity_as_tuples():
    # the top sent to the bottom: c1 <= c299 is the first unordered pair
    broken = chain_doctrine(300, "c0")
    v = validate_doctrine(broken)
    assert v.counterexample == {"kind": "not_monotone", "arrow": "e",
                                "pair": ["c1", "c299"], "images": ["c1", "c0"]}
    assert recheck(broken, v)
    assert "_idx_bytes" not in vars(broken.reindex["e"])


def test_a_functorial_reindex_that_is_not_monotone_fails_the_proof():
    # e* stays idempotent with the top sent to the bottom, so only the
    # monotonicity of the generators keeps the proof from holding
    broken = chain_doctrine(5, "c0")
    v = validate_doctrine(broken)
    assert v.counterexample == {"kind": "not_monotone", "arrow": "e",
                                "pair": ["c1", "c4"], "images": ["c1", "c0"]}
    assert recheck(broken, v)


def test_shape_mismatch_distinct(ps20):
    reindex = dict(ps20.reindex)
    del reindex["S1>S2:0"]
    broken = Doctrine(ps20.base, ps20.fibers, reindex, name="PS-shapeless")
    with pytest.raises(ShapeMismatch):
        validate_doctrine(broken)


@pytest.mark.parametrize("end,obj", [("source", "S2"), ("target", "S1")])
def test_a_reindex_map_is_over_its_fibers_by_their_order(ps20, end, obj):
    # an equal copy of the fiber, another object, is accepted; the same
    # elements ordered as a chain, the last one least, are refused
    m = ps20.reindex["S1>S2:0"]
    fiber = getattr(m, end)
    els = fiber.elements
    copy = FinPoset(els, fiber.pairs())
    chain = FinPoset(els, [(b, a) for i, a in enumerate(els) for b in els[i:]])
    assert copy is not fiber and not chain.same_order(fiber)

    def over(poset):
        ends = {"source": m.source, "target": m.target, end: poset}
        reindex = {**ps20.reindex, "S1>S2:0": MonotoneMap(
            ends["source"], ends["target"], m.idx_table)}
        return validate_doctrine(Doctrine(ps20.base, ps20.fibers, reindex,
                                          name="PS-reindexed"))

    assert over(copy)
    with pytest.raises(ShapeMismatch) as err:
        over(chain)
    assert str(err.value) == f"reindex(S1>S2:0) {end} is not fiber({obj})"


def test_ps_primary_and_propositional(ps20):
    assert is_primary(ps20)
    assert is_propositional(ps20)
    assert has_tops(ps20) and has_bottoms(ps20)


def test_sier_primary_not_propositional(sier):
    assert is_primary(sier)
    v = is_propositional(sier)
    assert v.is_refuted
    assert v.counterexample["arrow"] == "U>S:1"
    assert recheck(sier, v)


def test_antichain_fiber_not_applicable(triv):
    antichain = FinPoset(["x", "y"], [("x", "x"), ("y", "y")])
    fibers = {o: antichain for o in triv.base.objects}
    reindex = {n: MonotoneMap.identity(antichain) for n in triv.base.arrows}
    d = Doctrine(triv.base, fibers, reindex, name="antichain")
    v = is_primary(d)
    assert v.is_na and "no meets" in v.reason


def test_ps_sigma_pi_doctrine(ps20):
    assert is_sigma_doctrine(ps20)
    assert is_pi_doctrine(ps20)
    assert is_sigma_doctrine(ps20, restricted=True)
    assert is_pi_doctrine(ps20, restricted=True)


def test_bc_against_set_oracles(ps20):
    """Adjoints along every projection agree with the direct/forall image."""
    base = ps20.base
    for row in base.first_level_rows:
        nb = base.sizes[row.right]
        for proj, oracle_axis in ((row.proj1, 1), (row.proj2, 0)):
            _, cod_size, images = parse_arrow(proj)
            sigma = ps20.sigma(proj)
            pi = ps20.pi(proj)
            assert sigma is not None and pi is not None
            for e in ps20.fibers[row.obj].elements:
                mask = int(e[1:])
                assert sigma.table[e] == f"e{direct_image(images, mask)}"
                assert pi.table[e] == f"e{forall_image(images, cod_size, mask)}"


def test_triv_sigma_trivially(triv):
    assert is_sigma_doctrine(triv)
    assert is_pi_doctrine(triv)


def test_missing_adjoint_not_applicable():
    # 2-object thin base with a fiber map lacking a left adjoint:
    # reindex sends bottom |-> bottom, top |-> middle of a 3-chain
    from doctrinelab.catalog import semilattice_category
    base, _ = semilattice_category(["a", "b"], [("a", "b")])
    two = FinPoset(["c0", "c1"], [("c0", "c1"), ("c0", "c0"), ("c1", "c1")])
    three = FinPoset(["d0", "d1", "d2"],
                     [("d0", "d1"), ("d1", "d2"), ("d0", "d2"),
                      ("d0", "d0"), ("d1", "d1"), ("d2", "d2")])
    fibers = {"a": three, "b": two}
    reindex = {
        base.identity["a"]: MonotoneMap.identity(three),
        base.identity["b"]: MonotoneMap.identity(two),
        "a>b": MonotoneMap.from_names(two, three, {"c0": "d0", "c1": "d1"}),
    }
    d = Doctrine(base, fibers, reindex, name="no-adjoint")
    assert validate_doctrine(d)
    v = is_sigma_doctrine(d)
    assert v.is_na and "adjoint missing" in v.reason


def test_frobenius_and_existential(ps20, triv):
    assert frobenius(ps20)
    assert is_existential(ps20)
    assert is_existential(triv)


def _reflexive(elements, strict):
    return FinPoset(elements, [*strict, *((e, e) for e in elements)])


def test_frobenius_needs_meets_at_a_pool_codomain():
    # the thin base Q <= A, Q <= P with window A and pool P, and no row
    # (P, P): the scope is A and the carrier Q of (A, P), so the doctrine is
    # primary, but the projection Q>P ends at P, whose fiber has no meet of
    # t1 and t2; its Sigma sends both elements of fiber(Q) to b
    thin, _ = catalog.semilattice_category(
        ["Q", "A", "P"], [(o, o) for o in "QAP"] + [("Q", "A"), ("Q", "P")])
    base = FinCategory(thin.objects, thin.arrows.values(), thin.identity,
                       thin.compose_table, window=["A"], power_pool=["P"],
                       products={k: r for k, r in thin.products.items()
                                 if k != ("P", "P")})
    two = _reflexive(["0", "1"], [("0", "1")])
    five = _reflexive(["b", "x", "y", "t1", "t2"],
                      [("b", e) for e in ("x", "y", "t1", "t2")]
                      + [(e, t) for e in "xy" for t in ("t1", "t2")])
    d = Doctrine(base, {"Q": two, "A": two, "P": five},
                 {"Q>Q": MonotoneMap.identity(two),
                  "A>A": MonotoneMap.identity(two),
                  "P>P": MonotoneMap.identity(five),
                  "Q>A": MonotoneMap.identity(two),
                  "Q>P": MonotoneMap.from_names(
                      five, two, {e: "1" for e in five.elements})})
    assert base.scope_objects == ("Q", "A")
    assert "Q>P" in base.projection_class().members
    assert validate_doctrine(d) and is_primary(d)
    assert d.sigma("Q>P").table == {"0": "b", "1": "b"}
    v = frobenius(d)
    assert v.is_na and v.reason == "no meets around Q>P"


@pytest.mark.parametrize("check", [is_sigma_doctrine, is_pi_doctrine])
def test_a_class_without_squares_must_be_pullback_stable(sl3, check):
    # only the projection class, stable by construction, is quantified over
    # squares of its own; any other class comes with its squares, which the
    # check takes as given
    cls = ArrowClass("test", ("L1>L2",))
    with pytest.raises(TypeError, match="class test is given without"):
        check(sl3, cls)
    assert check(sl3, cls, squares=())


def test_fault_injected_sigma_refutes_frobenius_or_bc(ps20):
    # break one projection's reindexing so its adjoint is no longer the image
    def b(d):
        row = d.base.products[("S2", "S2")]
        name = row.proj1
        table = dict(d.reindex[name].table)
        table["e1"], table["e2"] = table["e2"], table["e1"]
        return name, table
    broken = _fault_injected(ps20, b)
    results = [validate_doctrine(broken), is_sigma_doctrine(broken),
               frobenius(broken)]
    assert any(v.is_refuted for v in results)


@pytest.mark.parametrize("left, top_edge, projection", [
    (True, "S4>S4:0,1,0,1", "S4>S2:0,0,1,1"),
    (False, "S4>S4:0,0,2,2", "S4>S2:0,1,0,1")])
def test_a_canonical_projection_square_decides_beck_chevalley(
        ps20, left, top_edge, projection):
    # the square of one projection of S2 x S2 along the constant S2>S2:0,0,
    # whose top edge is S2>S2:0,0 x id (or id x S2>S2:0,0); no pullback the
    # search finds holds it, so only the canonical squares see the fault
    base, h, one = ps20.base, "S2>S2:0,0", ps20.base.identity["S2"]
    assert base.times(*((h, one) if left else (one, h))) == top_edge
    broken = _fault_injected(ps20, lambda d: _one_cell(d, top_edge, "e0", "e1"))
    v = is_sigma_doctrine(broken)
    assert v.counterexample["kind"] == "beck_chevalley"
    assert v.counterexample["square"] == {
        "apex": "S4", "to_f": top_edge, "to_g": projection, "f": projection,
        "g": h}
    assert recheck(broken, v)
    cls = base.projection_class()
    assert is_sigma_doctrine(broken, cls,
                             squares=tuple(base._window_pullbacks(cls)))


def test_full_bc_implies_restricted_on_catalog(ps20, ps11, sier, triv, sl3):
    for d in (ps20, ps11, sier, triv, sl3):
        if is_sigma_doctrine(d):
            assert is_sigma_doctrine(d, restricted=True), d.name
        if is_pi_doctrine(d):
            assert is_pi_doctrine(d, restricted=True), d.name


def test_classification_cached(ps20):
    first = is_primary(ps20)
    assert is_primary(ps20) is first


def test_empty_fiber_validates_but_blocks_choice_lemmas():
    # degenerate fibers pass validation; the choice lemmas go not-applicable
    from doctrinelab import theorems
    from doctrinelab.catalog import semilattice_category
    base, _ = semilattice_category(["a"], [("a", "a")])
    empty = FinPoset((), ())
    d = Doctrine(base, {"a": empty},
                 {base.identity["a"]: MonotoneMap.from_names(empty, empty, {})},
                 name="empty-fiber")
    assert validate_doctrine(d)
    r = theorems.check_theorem("zero", d)
    assert not r.hypotheses_hold and r.conclusion.is_na


def test_memo_stores_a_none_result_once(triv):
    d = Doctrine(triv.base, triv.fibers, triv.reindex, name="memo")
    calls = []

    def compute():
        calls.append(1)
        return None

    assert d.cached(("probe",), compute) is None
    assert d.cached(("probe",), compute) is None
    assert len(calls) == 1


def _per_doctrine_scope(base) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The scope as each doctrine used to compute it for itself: the window
    and the carriers of the product rows with window or power-pool factors,
    in object order, and the arrows among them, by domain, codomain and
    name."""
    factors = set(base.window) | set(base.power_pool)
    scope = set(base.window) | {r.obj for (a, b), r in base.products.items()
                                if a in factors and b in factors}
    at = {o: i for i, o in enumerate(base.objects)}
    arrows = sorted((n for n, a in base.arrows.items()
                     if a.dom in scope and a.cod in scope),
                    key=lambda n: (at[base.dom(n)], at[base.cod(n)], n))
    return tuple(o for o in base.objects if o in scope), tuple(arrows)


def test_scope_is_computed_once_per_base(ps20, ps11, sier, triv, sl3):
    chains = list(theorems.enumerate_doctrines(max_base=4, max_fiber=1))
    assert [len(d.base.objects) for d in chains] == [1, 2, 3, 4]
    for d in [ps20, ps11, sier, triv, sl3, *chains]:
        expected = _per_doctrine_scope(d.base)
        assert (d.scope_objects, d.scope_arrows) == expected
        for other in (dualize(d), _fresh(d)):
            assert other.scope_objects is d.scope_objects
            assert other.scope_arrows is d.scope_arrows


def _fresh(s: Doctrine) -> Doctrine:
    return Doctrine(s.base, s.fibers, s.reindex, name=s.name, source=s.source)


def _memo_entries(d: Doctrine) -> int:
    theorems.classify(d)
    theorems.witness_report(d)
    reports = theorems.check_all(d)
    assert len(reports[0].instance_hash) == 16
    assert all(r.instance_document is reports[0].instance_document
               for r in reports)
    return len(d._cache)


@pytest.mark.parametrize("cid,entries", [("PS(1,1)", 55), ("SIER", 82),
                                         ("TRIV", 55), ("SL3", 52)])
def test_memo_entries_per_catalog_doctrine(cid, entries):
    # one entry per distinct check, plus the instance document that
    # instance_hash and every report of check_all share
    assert _memo_entries(_fresh(catalog.instance(cid))) == entries


def test_memo_entries_over_enumerated_doctrines():
    found = theorems.enumerate_doctrines(max_base=4, max_fiber=3,
                                         budget=500_000, max_emit=500)
    assert sum(_memo_entries(_fresh(s)) for s in found) == 19_743


def _serialised(d: Doctrine) -> set[str]:
    return {key[0].__name__ for key in d._cache if callable(key[0])} & {
        "to_document", "instance_hash"}


def _one_of_each_source() -> list[Doctrine]:
    """A catalog doctrine, whose document is a catalog block, and an
    enumerated one, whose document holds its tables."""
    enumerated = next(theorems.enumerate_doctrines(
        max_base=2, max_fiber=2, budget=1000, max_emit=1))
    return [_fresh(catalog.instance("PS(1,1)")), _fresh(enumerated)]


def test_check_all_serialises_nothing():
    for d in _one_of_each_source():
        reports = theorems.check_all(d)
        assert not any(r.is_violation for r in reports)
        assert _serialised(d) == set()


def test_reports_serialise_on_first_read():
    for d in _one_of_each_source():
        reports = theorems.check_all(d)
        twin = _fresh(d)
        assert len(reports) == 18
        assert {r.instance_hash for r in reports} == {
            ioformat.instance_hash(twin)}
        assert reports[0].instance_document == ioformat.to_document(twin)
        assert all(r.instance_document is ioformat.to_document(d)
                   for r in reports)
        assert _serialised(d) == {"to_document", "instance_hash"}


def test_defaulted_arguments_share_one_memo_entry(triv):
    d = _fresh(triv)
    prj = d.base.projection_class()
    first = is_sigma_doctrine(d)
    assert is_sigma_doctrine(d, prj, False) is first
    assert is_sigma_doctrine(d, prj, squares=None) is first
    assert frobenius(d, prj) is frobenius(d)
    checks = [key[0].__name__ for key in d._cache if callable(key[0])]
    assert sorted(checks) == ["_frobenius", "_quantifier_doctrine",
                              "bc_squares", "is_primary"]


def test_a_doctrine_keeps_the_tables_handed_to_it(triv):
    fibers, reindex = dict(triv.fibers), dict(triv.reindex)
    d = Doctrine(triv.base, fibers, reindex)
    assert d.fibers is fibers and d.reindex is reindex


def test_the_default_source_and_declared_are_shared_and_read_only(triv):
    d, e = (Doctrine(triv.base, triv.fibers, triv.reindex) for _ in "de")
    assert d.source is e.source and d.declared is e.declared
    with pytest.raises(TypeError):
        d.source["kind"] = "catalog"
    with pytest.raises(TypeError):
        d.declared["negation"] = {}
    assert e.source == {"kind": "explicit"} and e.declared == {}


def test_dualizing_leaves_the_source_unchanged():
    for d in _one_of_each_source():
        before = dict(d.source)
        dual = dualize(d)
        dualize(d)
        assert dualize(dual).source == {**before, "dual": False}
        assert d.source == before
        assert dual.source == {**before, "dual": True}


# bytes each of criterion 8's enumerated doctrines holds: 570 measured; a
# doctrine that copies the tables handed to it holds 991
HELD_PER_ENUMERATED_DOCTRINE = 640


def test_an_enumerated_doctrine_copies_nothing_it_is_handed():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = list(theorems.enumerate_doctrines(
            max_base=4, max_fiber=3, budget=500_000, max_emit=10_000))
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / len(found)
    finally:
        tracemalloc.stop()
    assert len(found) == 10_000
    assert held <= HELD_PER_ENUMERATED_DOCTRINE, (
        f"{held:.0f} B held per enumerated doctrine")
