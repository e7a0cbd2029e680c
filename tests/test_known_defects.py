"""Instances that show a known defect, pinned as they behave today.

The first known defect: on open-set fibers with a power pool, the two tripos
checkers quantify over different arrows.  ``is_tripos`` checks that
reindexing preserves the Heyting implication along every scope arrow, while
``implication_axioms`` (and so ``is_tripos_via_characterization``) walks the
window's arrows only.  Preimage along ``U>(UxS):1`` is in scope but not in
the window, and it does not preserve the implication of the frame of opens
of the Sierpinski space ``S``.
"""

import pytest

from doctrinelab import catalog, theorems
from doctrinelab.constructions import dualize
from doctrinelab.doctrine import Doctrine, validate_doctrine
from doctrinelab.fincat import ConcreteBuilder, Presentation
from doctrinelab.poset import _monotone_maps
from doctrinelab.recheck import recheck

WINDOW = ("E", "U")
SPACES = tuple(catalog.SIERPINSKI_SPACES)  # E, U and S; S is in the pool only


def opens_with_a_power_pool() -> Doctrine:
    uppers = {}
    for nm in SPACES:
        points, opens = catalog.SIERPINSKI_SPACES[nm]
        uppers[nm] = catalog._specialization(
            points, catalog._validate_topology(nm, points, opens))
    b = ConcreteBuilder(Presentation(
        "opens", tuple((nm, len(uppers[nm])) for nm in WINDOW), truncated=True))
    for nm in SPACES:
        b.add_object(nm, len(uppers[nm]), window=nm in WINDOW,
                     pool=nm not in WINDOW)
    for src in SPACES:
        for dst in SPACES:
            for img in _monotone_maps(uppers[src], uppers[dst]):
                b.add_arrow(src, dst, img)
    rows = [*((w, c) for w in WINDOW for c in SPACES),
            *((c, w) for w in WINDOW for c in SPACES),
            *((f"({w}x{a})", a) for w in WINDOW for a in WINDOW)]
    for a, c in dict.fromkeys(rows):
        nm = f"({a}x{c})"
        uppers[nm] = catalog._product_uppers(uppers[a], uppers[c])
        b.add_object(nm, len(uppers[nm]))
        b.declare_product(a, c, nm)
    b.terminal = "U"
    base = b.close()
    masks = {o: catalog._upset_masks(uppers[o]) for o in base.objects}
    fibers = {o: catalog._mask_fiber(masks[o]) for o in base.objects}
    return Doctrine(base, fibers, catalog._preimage_maps(base, fibers, masks),
                    name="opens{E,U|S}")


@pytest.fixture(scope="module")
def defect():
    d = opens_with_a_power_pool()
    return d, {r.theorem: r for r in theorems.check_all(d)}


def test_the_instance_validates(defect):
    d, _ = defect
    assert len(d.base.arrows) == 196
    assert d.base.validate() and d.base.verify_products()
    assert validate_doctrine(d)


# These pins record the defect, not the paper: the change that mends it
# updates them, and there should then be no violation at all.
VIOLATED = {"sinistra", "caratterino", "prop1_equiv"}


def test_three_theorems_are_violated_and_fifteen_hold(defect):
    _, reports = defect
    assert {t for t, r in reports.items() if r.is_violation} == VIOLATED
    holding = {t for t, r in reports.items() if r.conclusion.status == "holds"}
    assert len(holding) == 15 and holding.isdisjoint(VIOLATED)
    assert all(r.hypotheses_hold for r in reports.values())


def test_the_checkers_disagree_and_it_rechecks(defect):
    d, reports = defect
    for tid, kind in (("caratterino", "biconditional"),
                      ("prop1_equiv", "tripos_checkers_disagree")):
        v = reports[tid].conclusion
        assert v.counterexample["kind"] == kind
        assert recheck(d, v), tid


def test_sinistra_refutes_on_the_dual(defect):
    d, reports = defect
    v = reports["sinistra"].conclusion
    assert v.counterexample["kind"] == "implication_not_preserved"
    assert v.counterexample["arrow"] == "U>(UxS):0"
    assert recheck(dualize(d), v)
    assert not recheck(d, v)
