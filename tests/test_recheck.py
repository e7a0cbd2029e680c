import re
from pathlib import Path

from doctrinelab import logic
from doctrinelab import recheck as recheck_module
from doctrinelab.constructions import derived_implication_tables
from doctrinelab.doctrine import Doctrine
from doctrinelab.fincat import Square
from doctrinelab.poset import MonotoneMap
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import Verdict

SRC = Path(recheck_module.__file__).parent


def test_base_squares_refuted_and_rechecked(ps11):
    base = ps11.base
    one, two = "S1", "S2"
    a, b = base.hom(one, two)
    # two distinct points of a 2-element set do not commute over identities
    skew = Square(apex=one, to_f=base.identity[one], to_g=base.identity[one],
                  f=a, g=b)
    v = base.verify_square_is_pullback(skew)
    assert v.is_refuted and v.counterexample["kind"] == "square_not_commuting"
    assert recheck(ps11, v)
    # the kernel pair of S2 -> S1 is S2 x S2, not S2 over its identities:
    # the cone of the two distinct points has no mediator
    bang = base.hom(two, one)[0]
    diagonal = Square(apex=two, to_f=base.identity[two], to_g=base.identity[two],
                      f=bang, g=bang)
    v = base.verify_square_is_pullback(diagonal)
    assert v.is_refuted and v.counterexample["kind"] == "square_not_limiting"
    assert recheck(ps11, v)
    # the same payloads on genuine pullbacks do not recheck
    kernel = base.pullback(bang, bang)
    assert kernel is not None and base.verify_square_is_pullback(kernel)
    assert not recheck(ps11, Verdict.refuted(
        kind="square_not_limiting", square=vars(kernel),
        cone=v.counterexample["cone"]))
    assert not recheck(ps11, Verdict.refuted(
        kind="square_not_commuting", square=vars(base.pullback(a, b))))


def test_every_literal_refutation_kind_has_a_handler():
    # poset's hom_* verdicts are about a bare MonotoneMap, with no doctrine
    # to recheck them on, so they are left out by name
    pattern = re.compile(
        r'(?:Verdict\.refuted\(\s*kind=|_search_failure\(\s*d,\s*)"([^"]+)"')
    kinds = {k for path in SRC.glob("*.py")
             for k in pattern.findall(path.read_text(encoding="utf-8"))}
    kinds -= {"hom_top", "hom_meet"}
    assert "square_not_limiting" in kinds and "no_weak_power_object" in kinds
    assert sorted(kinds - set(recheck_module._HANDLERS)) == []


def _with_sides(v, lhs, rhs):
    return Verdict.refuted(**{**v.counterexample, "lhs": lhs, "rhs": rhs})


def test_implication_stability_rechecks_from_the_fiber_order(sier):
    # preimage along the point U -> S at b does not preserve {a} -> empty
    expected = {"kind": "implication_not_stable", "arrow": "U>S:1",
                "pair": ["e1", "e0"], "lhs": "e0", "rhs": "e1"}
    for tables in (logic.heyting_implication_tables(sier),
                   derived_implication_tables(sier)):
        v = logic.implication_axioms(sier, tables)
        assert v.counterexample == expected
        assert recheck(sier, v)
    assert not recheck(sier, _with_sides(v, "e1", "e0"))
    assert not recheck(sier, _with_sides(v, "e1", "e1"))


def test_implication_pi_exchange_rechecks_from_the_fiber_order(ps11):
    # reindexing along a projection S4 -> S2 that keeps joins (so Pi exists)
    # but not meets: {a} and {b} go to overlapping sets
    base = ps11.base
    proj = base.products[("S2", "S2")].proj1
    old = ps11.reindex[proj]
    reindex = dict(ps11.reindex)
    reindex[proj] = MonotoneMap(old.source, old.target,
                                {**old.table, "e1": "e7"})
    broken = Doctrine(base, ps11.fibers, reindex, name="PS-broken")
    v = logic.implication_axioms(broken, logic.heyting_implication_tables(broken))
    assert v.counterexample == {
        "kind": "implication_pi_exchange", "projection": proj, "alpha": "e1",
        "beta": "e0", "lhs": "e0", "rhs": "e2"}
    assert recheck(broken, v)
    assert not recheck(broken, _with_sides(v, "e2", "e0"))
    assert not recheck(broken, _with_sides(v, "e0", "e3"))
    # on the intact instance the law holds at that point
    assert not recheck(ps11, v)


def test_implication_oracles_match_the_checked_tables(sier, sl3, ps11):
    for d in (sier, sl3, ps11):
        for tables, oracle in (
                (derived_implication_tables(d), recheck_module._derived_implication),
                (logic.heyting_implication_tables(d),
                 recheck_module._heyting_implication)):
            assert tables is not None, d.name
            for obj, table in tables.items():
                for (a, b), value in table.items():
                    assert oracle(d, obj, a, b) == value, (d.name, obj, a, b)
