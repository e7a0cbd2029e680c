import pytest

from doctrinelab import constructions as cons
from doctrinelab import logic
from doctrinelab.ioformat import serialize
from doctrinelab.verdicts import StructureMissing

from oracles import direct_image, mask_of, named, pair_code, parse_arrow


# -- derived existential quantification ----------------------------------------

def test_derived_sigma_examples(ps20):
    # unique map {0,1} -> {0}, alpha = {0}: the image is {0}
    assert cons.derived_sigma(ps20, "S2>S1:0,0", "e1") == "e1"
    # identity: the adjoint is the identity
    for alpha in ps20.fibers["S2"].elements:
        assert cons.derived_sigma(ps20, "S2>S2:0,1", alpha) == alpha
    # injective 0 |-> 1 on alpha = top: the image is {1}
    assert cons.derived_sigma(ps20, "S1>S2:1", "e1") == "e2"


def test_derived_sigma_equals_adjoint_everywhere(ps20, ps11, triv):
    # every elementary existential catalog instance, every window arrow
    for d in (ps20, ps11, triv):
        for f in d.base.window_arrows:
            adj = d.sigma(f)
            assert adj is not None
            for alpha in d.fibers[d.base.dom(f)].elements:
                assert cons.derived_sigma(d, f, alpha) == adj.table[alpha]


def test_derived_sigma_matches_image_oracle(ps20):
    for f in ps20.base.window_arrows:
        _, _, images = parse_arrow(f)
        for alpha in ps20.fibers[ps20.base.dom(f)].elements:
            expected = direct_image(images, int(alpha[1:]))
            assert cons.derived_sigma(ps20, f, alpha) == f"e{expected}"


def test_derived_sigma_needs_structure(sier):
    with pytest.raises(StructureMissing):
        cons.derived_sigma(sier, "U>S:0", "e0")


# -- derived implication ----------------------------------------------------------

def test_derived_implication_examples(ps20):
    fiber = ps20.fibers["S2"]
    table = named(fiber, cons.derived_implication_tables(ps20)["S2"])
    # phi = {0}, psi = {1}: the Heyting value is the complement union, {1}
    assert table[("e1", "e2")] == "e2"
    # phi = top: the restriction is the identity
    for psi in fiber.elements:
        assert table[("e3", psi)] == psi
    # phi = psi: reflexivity gives top
    for phi in fiber.elements:
        assert table[(phi, phi)] == "e3"


def test_derived_implication_is_heyting(ps20, sl3):
    """On primary doctrines with Heyting fibers the derived operation is the
    Heyting implication (checked against the greatest-element oracle)."""
    for d in (ps20, sl3):
        tables = cons.derived_implication_tables(d)
        assert tables is not None
        for obj in d.base.window:
            fiber = d.fibers[obj]
            meet = named(fiber, fiber.ops.meet)
            table = named(fiber, tables[obj])
            for phi in fiber.elements:
                for psi in fiber.elements:
                    # oracle: greatest gamma with gamma meet phi <= psi
                    sols = [c for c in fiber.elements
                            if fiber.leq(meet[(c, phi)], psi)]
                    greatest = [c for c in sols
                                if all(fiber.leq(o, c) for o in sols)]
                    assert table[(phi, psi)] == greatest[0]


# -- co-comprehension from negation ------------------------------------------------

def test_cocomp_from_negation_matches_direct_search(ps20):
    for a in ps20.base.window:
        for alpha in ps20.fibers[a].elements:
            via_negation = cons.cocomp_from_negation(ps20, a, alpha)
            direct = logic.cocomprehension(ps20, a, alpha)
            assert via_negation == direct


def test_cocomp_from_negation_bottom_iso(ps20, triv):
    for d in (ps20, triv):
        for a in d.base.window:
            w = cons.cocomp_from_negation(d, a, d.bottom(a))
            assert d.base.is_iso(w)


# -- graphs -------------------------------------------------------------------------

def test_graph_of_identity_is_equality(ps20):
    eq = logic.find_equality(ps20)
    for a in ps20.base.window:
        assert cons.graph(ps20, ps20.base.identity[a]) == eq[a]


def test_graph_frozen_examples(ps20):
    # f: {0} -> {0,1} with f(0) = 1: graph {(0,1)}
    assert cons.graph(ps20, "S1>S2:1") == f"e{1 << pair_code(0, 1, 2)}"
    # constant 0 on {0,1}: graph {(0,0),(1,0)}
    expected = mask_of([pair_code(0, 0, 2), pair_code(1, 0, 2)])
    assert cons.graph(ps20, "S2>S2:0,0") == f"e{expected}"


# -- duals ---------------------------------------------------------------------------

def test_dualize_involution(ps20, triv, sl3):
    for d in (triv, sl3, ps20):
        assert serialize(cons.dualize(cons.dualize(d))) == serialize(d)


def test_dual_of_triv_is_triv_shaped(triv):
    dual = cons.dualize(triv)
    assert all(len(p) == 1 for p in dual.fibers.values())


def test_dual_sigma_is_forall_image(ps20):
    """Existential quantification in the dual is the universal image."""
    from oracles import forall_image
    dual = cons.dualize(ps20)
    for row in ps20.base.first_level_rows:
        for proj in (row.proj1, row.proj2):
            _, cod_size, images = parse_arrow(proj)
            adj = dual.sigma(proj)
            assert adj is not None
            for e in dual.fibers[row.obj].elements:
                expected = forall_image(images, cod_size, int(e[1:]))
                assert adj.table[e] == f"e{expected}"


def test_dual_comprehension_is_cocomprehension(ps20, sier):
    for d in (ps20, sier):
        dual = cons.dualize(d)
        direct = logic.cocomprehension_table(d)
        dualized = logic.comprehension_table(dual)
        assert direct == dualized
        assert bool(logic.is_full_comprehension(dual)) == \
            bool(logic.is_full_cocomprehension(d))


# -- eaco / heaco ----------------------------------------------------------------------

def test_eaco_compat_frozen_example(ps20):
    # f: {0} -> {0,1} hitting 1, alpha = {0}: both sides evaluate to the top
    v = cons.eaco_compat(ps20, "S1>S2:1", "e1")
    assert v
    # identity arrow: syntactically equal sides
    assert cons.eaco_compat(ps20, "S2>S2:0,1", "e1")
    # alpha = top: co-comprehension domain is stable initial, bottom branch
    assert cons.eaco_compat(ps20, "S1>S2:1", "e3")


def test_eaco_compat_names_the_hypothesis_that_fails(sier, sl3, ps20):
    # each not-applicable reason of eaco_compat, in the order it checks
    v = cons.eaco_compat(sier, "U>S:0", "e0")
    assert v.is_na and v.reason == "not elementary: refuted"
    v = cons.eaco_compat(sl3, sl3.base.window_arrows[0], "e0")
    assert v.is_na and v.reason == "no full co-comprehension"
    # the dual of SL3 is elementary with full co-comprehension and refutes AC
    dual = cons.dualize(sl3)
    assert logic.is_elementary(dual) and logic.is_full_cocomprehension(dual)
    assert logic.ac_check(dual)[0].is_refuted
    v = cons.eaco_compat(dual, dual.base.window_arrows[0], "e0")
    assert v.is_na and v.reason == "AC does not hold: refuted"
    # PS(2,0) is an eaco, but the witness table holds no predicate over S4,
    # the product carrier beyond the window, so an arrow out of it has none
    assert logic.ac_check(ps20)[0]
    assert "S4" not in {a for a, _ in logic.cocomprehension_table(ps20)}
    v = cons.eaco_compat(ps20, "S4>S2:0,0,1,1", "e1")
    assert v.is_na and v.reason == "missing co-comprehension witness"


def test_eaco_compat_epsilon_independent(ps20):
    """Both sides equal the projection-quantified graph value for any valid
    witness, so the verdict is independent of the chosen epsilon table."""
    base = ps20.base
    table = logic.cocomprehension_table(ps20)
    for f in base.window_arrows:
        a = base.cod(f)
        for alpha in ps20.fibers[a].elements:
            w = table[(a, alpha)]
            u = base.dom(w)
            if base.is_stable_initial(u):
                continue
            g = cons.graph(ps20, w)
            psi = ps20.star(base.swap(a, u), g)
            row = base.products[(a, u)]
            target = ps20.sigma(row.proj1).table[psi]
            for e in base.hom(a, u):
                if ps20.star(base.pair(base.identity[a], e), psi) == target:
                    val = ps20.star(base.pair(e, base.identity[a]), g)
                    assert val == ps20.star(
                        base.pair(logic.epsilon(ps20, a, u, psi),
                                  base.identity[a]), g)


def test_eaco_heaco_checklist(ps20, ps11, triv, sier):
    assert cons.is_eaco(ps20)
    assert cons.is_heaco(ps20).is_na  # higher order is window-limited
    assert cons.is_heaco(ps11)
    assert cons.is_heaco(triv)
    assert cons.is_eaco(sier).is_refuted


def test_heaco_to_tripos(ps11, triv, sier):
    for d in (ps11, triv):
        dual, verdict = cons.heaco_to_tripos(d)
        assert verdict
        assert logic.is_tripos(dual)
        assert logic.is_tripos_via_characterization(dual)
        assert logic.is_full_comprehension(dual)
    dual, verdict = cons.heaco_to_tripos(sier)
    assert verdict.is_na and verdict.reason == (
        "heaco checklist failed at: elementary, compatibility, higher_order")
