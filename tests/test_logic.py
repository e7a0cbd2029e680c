import random

from doctrinelab import catalog, logic, theorems
from doctrinelab.constructions import dualize
from doctrinelab.doctrine import Doctrine
from doctrinelab.poset import MonotoneMap
from doctrinelab.recheck import recheck

from oracles import mask_of, named, pair_code, reference_weak_power_object


def test_ps_equality_is_the_diagonal(ps20):
    eq = logic.find_equality(ps20)
    assert eq is not None
    # delta over S2 lives in the fiber over S4; the diagonal pairs are the
    # product codes (0,0) and (1,1)
    diagonal = mask_of([pair_code(0, 0, 2), pair_code(1, 1, 2)])
    assert eq["S2"] == f"e{diagonal}"
    assert eq["S1"] == "e1"
    assert eq["S0"] == "e0"
    assert logic.is_elementary(ps20)


def test_ps_equality_witness_unique(ps20):
    for a in ps20.base.window:
        assert len(logic.equality_candidates(ps20, a)) == 1


def test_triv_equality(triv):
    eq = logic.find_equality(triv)
    assert eq is not None
    assert all(delta == "t" for delta in eq.values())


def test_sier_not_elementary(sier):
    v = logic.is_elementary(sier)
    assert v.is_refuted
    assert v.counterexample == {"kind": "no_equality_predicate", "object": "S"}
    assert recheck(sier, v)


def test_substitutive_frozen_example(ps20):
    eq = logic.find_equality(ps20)
    base = ps20.base
    row = base.products[("S2", "S2")]
    psi = "e1"  # the subset {0}
    meet = named(ps20.fibers[row.obj], ps20.fibers[row.obj].ops.meet)
    lhs = meet[(ps20.star(row.proj1, psi), eq["S2"])]
    rhs = meet[(ps20.star(row.proj2, psi), eq["S2"])]
    # both sides are {(0,0)}, the single product point 0
    assert lhs == rhs == f"e{1 << pair_code(0, 0, 2)}"


def test_substitutive_catalog(ps20, ps11, triv, sl3):
    for d in (ps20, ps11, triv, sl3):
        eq = logic.find_equality(d)
        if eq is not None:
            assert logic.check_substitutive(d, eq), d.name


# -- comprehension ----------------------------------------------------------------

def test_comprehension_of_top_is_iso(ps20, ps11, sier, triv, sl3):
    for d in (ps20, ps11, sier, triv, sl3):
        if not logic.has_comprehension(d):
            continue
        for a in d.base.window:
            top = d.top(a)
            w = logic.comprehension(d, a, top)
            assert w is not None and d.base.is_iso(w), (d.name, a)


def test_ps_comprehension_of_singleton(ps20):
    w = logic.comprehension(ps20, "S2", "e1")
    assert w == "S1>S2:0"
    assert ps20.base.sizes[ps20.base.dom(w)] == 1
    assert ps20.base.is_monic(w)


def test_sier_comprehension_is_subspace_inclusion(sier):
    # alpha = {a}, the open point
    w = logic.comprehension(sier, "S", "e1")
    assert w is not None and w == "U>S:0"
    assert logic.is_full_comprehension(sier)


def test_full_comprehension_order_law(ps20):
    assert logic.is_full_comprehension(ps20)
    table = logic.comprehension_table(ps20)
    for a in ps20.base.window:
        fiber = ps20.fibers[a]
        for alpha in fiber.elements:
            w = table[(a, alpha)]
            top = ps20.top(ps20.base.dom(w))
            for beta in fiber.elements:
                assert fiber.leq(alpha, beta) == (ps20.star(w, beta) == top)


def test_comprehension_squares_are_pullbacks(ps20, sier):
    for d in (ps20, sier):
        for s in logic.comprehension_squares(d):
            assert d.base.verify_square_is_pullback(s), (d.name, s)


# -- co-comprehension --------------------------------------------------------------

def test_ps_cocomprehension_is_complement_inclusion(ps20):
    w = logic.cocomprehension(ps20, "S2", "e1")
    assert w == "S1>S2:1"  # inclusion of {1}
    assert logic.is_full_cocomprehension(ps20)


def test_sier_cocomprehension_is_closed_inclusion(sier):
    w = logic.cocomprehension(sier, "S", "e1")
    assert w is not None and w == "U>S:1"  # the closed point b
    assert logic.is_full_cocomprehension(sier)


def test_cocomprehension_of_bottom_is_iso(ps20, triv):
    for d in (ps20, triv):
        for a in d.base.window:
            w = logic.cocomprehension(d, a, d.bottom(a))
            assert w is not None and d.base.is_iso(w)


def test_dual_order_law(ps20):
    table = logic.cocomprehension_table(ps20)
    for a in ps20.base.window:
        fiber = ps20.fibers[a]
        for alpha in fiber.elements:
            for beta in fiber.elements:
                w_beta = table[(a, beta)]
                bottom = ps20.bottom(ps20.base.dom(w_beta))
                assert fiber.leq(alpha, beta) == \
                    (ps20.star(w_beta, alpha) == bottom)


# -- negation -----------------------------------------------------------------------

def test_ps_negation_is_complement_and_classical(ps20):
    table = logic.negation(ps20)
    assert table is not None
    assert table["S2"]["e1"] == "e2"
    assert table["S2"]["e0"] == "e3"
    assert logic.is_classical(ps20)


def test_sier_negation_fails_naturality(sier):
    v = logic.has_negation(sier)
    assert v.is_refuted
    ce = v.counterexample
    assert ce["kind"] == "negation_not_natural"
    assert ce["arrow"] == "U>S:1" and ce["beta"] == "e1"
    # f*(not {a}) = empty while not(f*{a}) = top of the point fiber
    assert ce["reindexed_negation"] == "e0"
    assert ce["negation_of_reindexed"] == "e1"
    assert recheck(sier, v)
    assert logic.negation(sier) is None


def test_triv_negation_classical(triv):
    table = logic.negation(triv)
    assert table is not None
    assert all(t == {"t": "t"} for t in table.values())
    assert logic.is_classical(triv)


# -- implication --------------------------------------------------------------------

def test_ps_boolean_implication_passes(ps20):
    tables = logic.heyting_implication_tables(ps20)
    assert tables is not None
    assert logic.implication_axioms(ps20, tables)


def test_triv_implication_passes(triv):
    tables = logic.heyting_implication_tables(triv)
    assert logic.implication_axioms(triv, tables)


def test_a_copy_of_the_heyting_tables_gets_the_same_verdict(ps20, ps11, sier,
                                                          triv, sl3):
    # the pointwise axioms are proved for the fibers' own tables and scanned
    # on a copy; both must agree
    for d in (ps20, ps11, sier, triv, sl3, dualize(sier)):
        tables = logic.heyting_implication_tables(d)
        if tables is None:
            continue
        copy = {o: [list(row) for row in rows] for o, rows in tables.items()}
        assert (logic.implication_axioms(d, copy).to_json()
                == logic.implication_axioms(d, tables).to_json())


def test_only_the_fibers_own_table_skips_the_pointwise_scan():
    # plant a table breaking axioms a and d as the fiber's cached Heyting
    # implication: handed over itself it is taken on proof, a copy is scanned
    base, _ = catalog.semilattice_category(["X"], [("X", "X")])
    fiber = catalog._mask_fiber(range(4))
    d = Doctrine(base, {"X": fiber}, {"X>X": MonotoneMap.identity(fiber)})
    first = [[a] * len(fiber) for a in range(len(fiber))]
    vars(fiber.ops)["heyting_implication"] = first
    assert logic.implication_axioms(d, logic.heyting_implication_tables(d))
    v = logic.implication_axioms(d, {"X": [list(row) for row in first]})
    assert v.counterexample["kind"] == "implication_axiom_d"


def test_projection_implication_refuted(ps20):
    # first projection (a -> b) := a breaks axiom a
    first = {}
    second = {}
    for o in ps20.scope_objects:
        n = len(ps20.fibers[o])
        first[o] = [[a for b in range(n)] for a in range(n)]
        second[o] = [[b for b in range(n)] for a in range(n)]
    v = logic.implication_axioms(ps20, first)
    assert v.is_refuted
    # axiom iii and iv-a both genuinely fail; the checker reports the first
    assert v.counterexample["kind"] == "implication_pi_exchange"
    # recheck re-derives both sides of the law from PS(2,0) itself, whose
    # implication satisfies it at this point: a payload quoting a table the
    # instance does not have is not a violation on the instance
    assert not recheck(ps20, v)
    # second projection (a -> b) := b satisfies a-c but breaks d
    v2 = logic.implication_axioms(ps20, second)
    assert v2.is_refuted
    assert v2.counterexample["kind"] == "implication_axiom_d"
    assert recheck(ps20, v2)


# -- weak power objects ---------------------------------------------------------------

def test_triv_power_object_is_terminal(triv):
    for a in triv.base.window:
        w = logic.weak_power_object(triv, a)
        assert w is not None and w["power"] == "S1"
    assert logic.is_higher_order(triv)


def test_ps11_power_object(ps11):
    w = logic.weak_power_object(ps11, "S1")
    assert w is not None
    assert w == {"power": "S2", "membership": "e1"}
    # defining property: every predicate over S1 x Y is classified
    base = ps11.base
    for y in base.window:
        row = base.products[("S1", y)]
        for phi in ps11.fibers[row.obj].elements:
            assert any(ps11.star(base.times(base.identity["S1"], chi), "e1")
                       == phi for chi in base.hom(y, "S2"))
    assert logic.is_higher_order(ps11)


def test_ps20_higher_order_na_window(ps20):
    v = logic.is_higher_order(ps20)
    assert v.is_na and "window" in v.reason


def _fresh(s: Doctrine) -> Doctrine:
    """The same tables with an empty memo."""
    return Doctrine(s.base, s.fibers, s.reindex, name=s.name)


def _membership_scans(monkeypatch) -> list:
    """Record ``(a, p, mem)`` of each call of ``logic._power_covers`` that
    scans a membership, leaving out the counting-bound calls."""
    calls, real = [], logic._power_covers

    def counted(d, a, p, mem=None):
        if mem is not None:
            calls.append((a, p, mem))
        return real(d, a, p, mem)
    monkeypatch.setattr(logic, "_power_covers", counted)
    return calls


def test_power_search_agrees_with_the_unpruned_oracle():
    # the catalog and its duals in full; criterion 8's doctrines and their
    # duals by a seeded sample, as the whole set takes about 4.5 s
    doctrines = [catalog.instance(cid) for cid in catalog.catalog_ids()]
    enumerated = list(theorems.enumerate_doctrines(
        max_base=4, max_fiber=3, budget=500_000, max_emit=10_000))
    assert len(enumerated) == 10_000
    doctrines += random.Random(29).sample(enumerated, 2_500)
    doctrines += [dualize(d) for d in doctrines]
    found = missing = 0
    for s in doctrines:
        d = _fresh(s)
        for a in d.base.window:
            got = logic.weak_power_object(d, a)
            assert got == reference_weak_power_object(d, a), (d.name, a)
            found += got is not None
            missing += got is None
    # the search succeeds and fails in the sample
    assert found and missing


def test_counting_refuses_every_power_candidate_of_ps20_s2(ps20, monkeypatch):
    calls = _membership_scans(monkeypatch)
    assert logic.weak_power_object(_fresh(ps20), "S2") is None
    assert calls == []
    # the higher-order search scans memberships only where the count allows:
    # for S0 the candidate S0 is refused and S1 covers with e0; for S1 the
    # candidates S0 and S1 are refused and S2 covers with e1
    v = logic.is_higher_order(_fresh(ps20))
    assert v.is_na and v.reason == "window: no_weak_power_object"
    assert calls == [("S0", "S1", "e0"), ("S1", "S2", "e0"), ("S1", "S2", "e1")]


def test_a_candidate_that_may_cover_falls_through_to_the_scan(ps11, monkeypatch):
    calls = _membership_scans(monkeypatch)
    w = logic.weak_power_object(_fresh(ps11), "S1")
    assert w == {"power": "S2", "membership": "e1"}
    # the candidates S0 and S1 are refused by counting; over S1 x S2, e0 is
    # tried and fails, e1 covers
    assert calls == [("S1", "S2", "e0"), ("S1", "S2", "e1")]


# -- axiom of choice ----------------------------------------------------------------

def test_ps_ac_frozen_example(ps20):
    # psi = {(x,0),(x,1)} in the fiber over S2 x S2 with Gamma = A = S2:
    # its projection is {x} and the first constant-0 witness is accepted
    psi = f"e{mask_of([pair_code(0, 0, 2), pair_code(0, 1, 2)])}"
    row = ps20.base.products[("S2", "S2")]
    sigma = ps20.sigma(row.proj1)
    assert sigma.table[psi] == "e1"
    e = logic.epsilon(ps20, "S2", "S2", psi)
    assert e == "S2>S2:0,0"


def test_ps_ac_empty_relation(ps20):
    e = logic.epsilon(ps20, "S2", "S2", "e0")
    assert e is not None  # any arrow works, the first is chosen
    assert e == "S2>S2:0,0"


def test_ps_ac_holds(ps20):
    verdict, eps = logic.ac_check(ps20)
    assert verdict
    initials = set(ps20.base.stable_initials)
    for a in ps20.base.window:
        if a in initials:
            continue
        for gamma in ps20.base.window:
            row = ps20.base.products[(gamma, a)]
            for psi in ps20.fibers[row.obj].elements:
                assert eps.get((gamma, a, psi)) is not None


def test_sl3_ac_refuted_by_hom_emptiness(sl3):
    verdict, _ = logic.ac_check(sl3)
    assert verdict.is_refuted
    ce = verdict.counterexample
    assert ce["Gamma"] == "L2" and ce["A"] == "L1" and ce["candidates"] == 0
    assert recheck(sl3, verdict)


def test_epsilon_choice_independence(ps20):
    # any two accepted witnesses give the same substitution value
    verdict, eps = logic.ac_check(ps20)
    base = ps20.base
    for (gamma, a, psi), chosen in eps.items():
        row = base.products[(gamma, a)]
        target = ps20.sigma(row.proj1).table[psi]
        for e in base.hom(gamma, a):
            val = ps20.star(base.pair(base.identity[gamma], e), psi)
            if val == target:
                assert val == ps20.star(
                    base.pair(base.identity[gamma], chosen), psi)


# -- triposes ------------------------------------------------------------------------

def test_tripos_checkers(ps11, triv, sier, ps20):
    assert logic.is_tripos(ps11)
    assert logic.is_tripos_via_characterization(ps11)
    assert logic.is_tripos(triv)
    assert logic.is_tripos_via_characterization(triv)
    assert logic.is_tripos(sier).is_refuted
    assert logic.is_tripos(ps20).is_na  # higher order is window-limited


def _tripos_delta(d, x):
    """The delta of ``logic.is_tripos``'s docstring, by a scan of
    fiber(X x X): the element whose up-set is the set of alpha with
    ``top <= Delta*(alpha)``, or None."""
    fiber = d.fibers[d.base.products[(x, x)].obj]
    top, diagonal = d.top(x), d.base.diagonal(x)
    above = {a for a in fiber.elements
             if d.fibers[x].leq(top, d.star(diagonal, a))}
    return next((a for a in fiber.elements
                 if above == {b for b in fiber.elements if fiber.leq(a, b)}),
                None)


def test_tripos_delta_exists_wherever_there_is_a_top():
    # is_tripos does not search for delta: its docstring proves that a
    # propositional doctrine has one; here it exists on every window object
    # with a top, propositional or not
    doctrines = [catalog.instance(cid) for cid in catalog.catalog_ids()]
    doctrines += [dualize(d) for d in doctrines]
    doctrines += theorems.enumerate_doctrines(max_base=4, max_fiber=3,
                                              budget=500_000, max_emit=10_000)
    checked = missing = 0
    for d in doctrines:
        for x in d.base.window:
            if d.top(x) is not None:
                checked += 1
                missing += _tripos_delta(d, x) is None
    assert (checked, missing) == (14_041, 0)


def test_validate_witness_helper(ps20):
    w = logic.comprehension(ps20, "S2", "e1")
    assert logic.validate_witness(ps20, "S2", "e1", w)
    assert not logic.validate_witness(ps20, "S2", "e1", "S1>S2:1")
    assert logic.validate_witness(ps20, "S2", "e1", "S1>S2:1", dual=True)
