import re
from pathlib import Path

import pytest

from doctrinelab import constructions, ioformat, logic, theorems
from doctrinelab import recheck as recheck_module
from doctrinelab.constructions import derived_implication_tables
from doctrinelab.doctrine import Doctrine
from doctrinelab.fincat import Square
from doctrinelab.poset import MonotoneMap
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import Verdict

from oracles import named

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
        kind="square_not_limiting", square=kernel.fields(),
        cone=v.counterexample["cone"]))
    assert not recheck(ps11, Verdict.refuted(
        kind="square_not_commuting", square=base.pullback(a, b).fields()))


_KIND_SITE = r'(?:Verdict\.refuted\(\s*kind=|_search_failure\(\s*d,\s*)'


def _kind_sites(prefix):
    pattern = re.compile(_KIND_SITE + prefix + r'"([^"]+)"')
    return [k for path in sorted(SRC.glob("*.py"))
            for k in pattern.findall(path.read_text(encoding="utf-8"))]


def test_every_literal_refutation_kind_has_a_handler():
    kinds = set(_kind_sites(""))
    assert "square_not_limiting" in kinds and "no_weak_power_object" in kinds
    assert sorted(kinds - set(recheck_module._HANDLERS)) == []


_COMPREHENSION_KINDS = (logic._kind(False), logic._kind(True))

# every kind an f-string site can build: the operations is_propositional
# compares, the two comprehension kinds, and the witnesses an instance file
# can declare
_TEMPLATE_EXPANSIONS = {
    "{opname}_not_preserved": [f"{op}_not_preserved"
                               for op in ("meet", "join", "implication")],
    "no_{_kind(dual)}_witness": [f"no_{k}_witness"
                                 for k in _COMPREHENSION_KINDS],
    "{kind}_not_full": [f"{k}_not_full" for k in _COMPREHENSION_KINDS],
    "{kind}_order_law": [f"{k}_order_law" for k in _COMPREHENSION_KINDS],
    "declared_{kind}_invalid": [
        f"declared_{k}_invalid" for k in ("delta", *_COMPREHENSION_KINDS,
                                          "epsilon", "negation",
                                          "power_object")],
}


def test_every_formatted_refutation_kind_has_a_handler():
    # a new f-string site changes this list and fails the test until its
    # expansions are listed above
    templates = _kind_sites("f")
    assert len(templates) == 5
    assert sorted(templates) == sorted(_TEMPLATE_EXPANSIONS)
    kinds = {k for ks in _TEMPLATE_EXPANSIONS.values() for k in ks}
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
    reindex[proj] = MonotoneMap.from_names(old.source, old.target,
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
            for obj, rows in tables.items():
                for (a, b), value in named(d.fibers[obj], rows).items():
                    assert oracle(d, obj, a, b) == value, (d.name, obj, a, b)


@pytest.mark.parametrize("flag,kind,search", [
    ("elementary", "no_equality_predicate", "equality_candidates"),
    ("higher_order", "no_weak_power_object", "weak_power_object"),
])
def test_search_refutations_recheck_without_the_search(monkeypatch, flag, kind,
                                                      search):
    # refutations among criterion 8's first doctrines, rechecked on fresh
    # copies, and the same payload on each object that has a witness
    refuted, witnessed = [], []
    for d in theorems.enumerate_doctrines(max_base=4, max_fiber=3,
                                          budget=500_000, max_emit=100):
        v = theorems.flag_check(flag)(d)
        if v.is_refuted and v.counterexample["kind"] == kind:
            fresh = ioformat.parse_document(ioformat.to_document(d))
            refuted.append((fresh, v))
            witnessed += [(fresh, Verdict.refuted(kind=kind, object=a))
                          for a in d.base.window
                          if getattr(logic, search)(d, a)]
    assert len(refuted) >= 10 and witnessed

    def fail(*args):
        raise AssertionError(f"recheck called logic.{search}")
    monkeypatch.setattr(logic, search, fail)
    assert all(recheck(d, v) for d, v in refuted)
    assert not any(recheck(d, v) for d, v in witnessed)


def test_unstable_initial_rechecks_through_the_isomorphism_search(ps11, sier):
    def payload(obj, factor):
        return Verdict.refuted(kind="unstable_initial", object=obj,
                               factor=factor)
    # S2 x S1 is S2, which is not isomorphic to S1: S1 is not a stable initial
    assert recheck(ps11, payload("S1", "S2"))
    # S1 x S0 is S0 itself
    assert not recheck(ps11, payload("S0", "S1"))
    # U x U is another object, but isomorphic to U
    assert not recheck(sier, payload("U", "U"))


def test_arrow_into_initial_rechecks_its_invertibility(ps11):
    # no catalog base has a non-invertible arrow into its stable initial,
    # so the payloads name arrows the handler must find (not) invertible
    def payload(arrow):
        return Verdict.refuted(kind="arrow_into_initial_not_iso", arrow=arrow,
                               initial="S0")
    assert recheck(ps11, payload("S1>S2:0"))
    assert not recheck(ps11, payload("S0>S0:"))
    assert not recheck(ps11, payload("S2>S2:1,0"))


def test_initial_fiber_size_rechecks_from_the_fiber(ps11, sl3):
    # no catalog instance has a stable initial whose fiber has more than
    # one element; P(1) has two, and the fibers over S0 and L0 have one
    def payload(obj, size):
        return Verdict.refuted(kind="initial_fiber_not_singleton", object=obj,
                               size=size)
    assert recheck(ps11, payload("S1", 2))
    assert not recheck(ps11, payload("S0", 1))
    assert not recheck(sl3, payload("L0", 1))


def test_image_of_top_rechecks_with_a_fresh_sigma(ps11):
    # Sigma along the point 0 of S2 takes the top of P(1) to {0}, that is e1
    def payload(alpha):
        return Verdict.refuted(kind="image_of_top", object="S2", alpha=alpha,
                               arrow="S1>S2:0", image="e1")
    assert recheck(ps11, payload("e2"))
    assert not recheck(ps11, payload("e1"))


def test_choice_not_maximal_rechecks_from_the_reindexing(ps11):
    # psi = {0} in P(S1 x S2): pulled back along the point 0 it is the top,
    # along the point 1 the bottom, so the point 1 is not a maximal choice
    def payload(h, epsilon):
        return Verdict.refuted(kind="choice_not_maximal", Gamma="S1", A="S2",
                               psi="e1", h=h, epsilon=epsilon)
    assert recheck(ps11, payload("S1>S2:0", "S1>S2:1"))
    assert not recheck(ps11, payload("S1>S2:1", "S1>S2:0"))
    assert not recheck(ps11, payload("S1>S2:0", "S1>S2:0"))


def test_not_substitutive_rechecks_against_the_chosen_equality(monkeypatch,
                                                               ps20, sier):
    # every equality predicate found on a catalog or enumerated doctrine is
    # substitutive; the top over S2 x S2 is not: the subset {0} of S2 pulls
    # back to {0} x S2 along the first projection and to S2 x {0} along the
    # second, and meeting the top keeps both
    base = ps20.base
    top = {a: ps20.fibers[base.products[(a, a)].obj].ops.top
           for a in base.window}
    v = logic.check_substitutive(ps20, top)
    assert v.counterexample["kind"] == "not_substitutive"
    assert v.counterexample["object"] == "S2"
    assert not recheck(ps20, v)  # PS(2,0)'s own equality is substitutive
    monkeypatch.setattr(logic, "find_equality", lambda d: top)
    assert recheck(ps20, v)
    # the empty set pulls back to the empty set along both projections
    assert not recheck(ps20, Verdict.refuted(
        kind="not_substitutive", object="S2", psi=ps20.fibers["S2"].ops.bottom))
    # SIER has no equality predicate to recheck against
    monkeypatch.undo()
    assert not recheck(sier, Verdict.refuted(kind="not_substitutive",
                                             object="U", psi="e1"))


@pytest.mark.parametrize("dual", [False, True])
def test_order_law_rechecks_from_the_witness_table(sl3, dual):
    # SL3's co-comprehension of e3 over L2 is L0 -> L2, which pulls every
    # element back to the bottom of the one-element fiber over L0, e7 too,
    # although e7 is not below e3; with every fiber reversed, the same
    # failure is on the comprehension side
    d = sl3 if dual else constructions.dualize(sl3)
    kind = f"{logic._kind(dual)}_order_law"

    def payload(alpha, beta):
        return Verdict.refuted(kind=kind, object="L2", alpha=alpha, beta=beta)
    assert recheck(d, payload("e3", "e7"))
    assert not recheck(d, payload("e3", "e3"))
    assert not recheck(d, payload("e7", "e7"))


def test_eaco_compat_rechecks_with_the_choice_table(monkeypatch, ps20):
    # the equation holds on every catalog and enumerated doctrine with the
    # AC witnesses ac_check chooses, and with any other valid ones (see
    # test_eaco_compat_epsilon_independent); choosing another arrow
    # wherever the hom-set has one breaks it
    def payload(alpha):
        return Verdict.refuted(kind="eaco_compat", arrow="S1>S2:1",
                               alpha=alpha)
    assert not recheck(ps20, payload("e0"))
    holds, eps = logic.ac_check(ps20)
    other = {k: next((e for e in ps20.base.hom(*k[:2]) if e != v), v)
             for k, v in eps.items()}
    monkeypatch.setattr(constructions, "ac_check", lambda d: (holds, other))
    assert recheck(ps20, payload("e0"))
    assert not recheck(ps20, payload("e1"))

