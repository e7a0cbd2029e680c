import pytest

from doctrinelab import catalog, logic, theorems
from doctrinelab.recheck import recheck

from test_doctrine import _fault_injected, _one_cell


def test_registry_is_complete():
    assert theorems.theorem_ids() == [
        "nonloso", "bingo", "bingo_converse", "negation_i", "negation_ii",
        "negation_iii", "zero", "bc_lemma", "nonne0", "nonne1", "sinistra",
        "checazzo2", "eaco_existential", "baggins", "frodo", "finite_joins",
        "caratterino", "prop1_equiv"]


# The registry's conclusions that are a classification flag or a theorem
# clause, by that name; every other conclusion is its own function.
NAMED_CONCLUSIONS = {
    "bingo": "derived_assignment_passes", "bingo_converse": "full_comp",
    "negation_i": "cocomprehension", "negation_ii": "restricted_sigma_cocomp",
    "nonne0": "sigma", "nonne1": "existential",
    "eaco_existential": "existential", "baggins": "restricted_sigma_cocomp",
    "frodo": "pi", "finite_joins": "finite_joins"}


def test_registry_names_resolve_to_the_flags_and_clauses():
    flags = dict(theorems.CLASSIFY_FLAGS)
    table = {**flags, **theorems._CLAUSES}
    assert len(flags) == 27 and len(table) == 27 + 8
    for tid, entry in theorems.REGISTRY.items():
        entry_id, title, hypotheses, conclude = entry
        assert entry_id == tid and title
        for name, fn in hypotheses:
            assert fn is table[name], (tid, name)
        if tid in NAMED_CONCLUSIONS:
            assert conclude is table[NAMED_CONCLUSIONS[tid]], tid
        else:
            assert all(conclude is not fn for fn in table.values()), tid


def test_no_clause_shadows_a_flag_or_an_alias():
    # flag_check reads the flags only: a clause there would answer a filter
    names = set(dict(theorems.CLASSIFY_FLAGS)) | set(theorems._FLAG_ALIASES)
    assert names.isdisjoint(theorems._CLAUSES)
    for clause in theorems._CLAUSES:
        with pytest.raises(KeyError, match="unknown classification flag"):
            theorems.parse_filter(clause)


@pytest.mark.parametrize("cid", list(catalog.CATALOG))
def test_each_filter_alias_evaluates_as_its_flag(cid):
    d = catalog.instance(cid)
    for alias, flag in (("comp", "comprehension"),
                        ("cocomp", "cocomprehension"),
                        ("full_comprehension", "full_comp"),
                        ("full_cocomprehension", "full_cocomp")):
        expr = theorems.parse_filter(alias)
        assert expr.kind == "flag" and expr.name == alias
        assert theorems.flag_check(alias) is theorems.flag_check(flag)
        assert expr.evaluate(d) == bool(theorems.flag_check(flag)(d))


def test_unknown_theorem_id(triv):
    with pytest.raises(KeyError):
        theorems.check_theorem("nope", triv)


def test_bingo_on_ps(ps20):
    r = theorems.check_theorem("bingo", ps20)
    assert r.hypotheses_hold
    assert r.conclusion
    assert not r.is_violation


def test_zero_on_ps(ps20):
    r = theorems.check_theorem("zero", ps20)
    assert r.hypotheses_hold and r.conclusion
    # oracle: the only arrow into the empty set is its identity
    assert ps20.base.arrows_into("S0") == (ps20.base.identity["S0"],)


def test_frodo_na_on_sier(sier):
    r = theorems.check_theorem("frodo", sier)
    assert not r.hypotheses_hold
    assert r.conclusion.is_na
    assert not r.is_violation


def test_reports_have_hashes_and_time(triv):
    r = theorems.check_theorem("bingo", triv)
    assert len(r.instance_hash) == 16
    assert r.wall_ms >= 0
    doc = r.to_json()
    assert "wall_ms" not in doc
    assert "wall_ms" in r.to_json(timing=True)


def test_full_registry_on_catalog(ps20, ps11, sier, triv, sl3):
    for d in (ps20, ps11, sier, triv, sl3):
        for r in theorems.check_all(d):
            assert not r.is_violation, (d.name, r.theorem, r.conclusion)


def test_caratterino_and_prop1_on_heacos(ps11, triv):
    for d in (ps11, triv):
        assert theorems.check_theorem("caratterino", d).conclusion
        assert theorems.check_theorem("prop1_equiv", d).conclusion


def test_prop1_needs_both_checkers_applicable(ps11):
    # the projection S2>S1:0,0 reindexed to keep no bottom: the direct
    # checker refutes, the characterization finds no Pi along it
    broken = _fault_injected(
        ps11, lambda d: _one_cell(d, "S2>S1:0,0", "e0", "e1"))
    assert logic.is_tripos(broken).is_refuted
    assert logic.is_tripos_via_characterization(broken).is_na
    conclusion = theorems.check_theorem("prop1_equiv", broken).conclusion
    assert conclusion.to_json() == {
        "status": "not_applicable",
        "reason": "not both checkers applicable: direct=refuted,"
                  " characterization=not_applicable"}


def test_implicational_flag(ps20, sier):
    assert theorems.is_implicational(ps20)
    v = theorems.is_implicational(sier)
    assert not v  # the Heyting candidate is not stable under reindexing


# -- enumeration ----------------------------------------------------------------

def test_one_object_base_hand_count():
    # hand enumeration: nonisomorphic posets of size <= 2 are the singleton,
    # the 2-chain and the 2-antichain; the only reindexing is the identity
    ds = list(theorems.enumerate_doctrines(max_base=1, max_fiber=2))
    assert len(ds) == 3
    sizes = sorted(len(d.fibers["L0"]) for d in ds)
    assert sizes == [1, 2, 2]


def test_enumeration_is_deterministic():
    first = [d.name for d in theorems.enumerate_doctrines(max_base=2,
                                                          max_fiber=2)]
    second = [d.name for d in theorems.enumerate_doctrines(max_base=2,
                                                           max_fiber=2)]
    assert first == second


def test_enumeration_emits_valid_doctrines():
    from doctrinelab.doctrine import validate_doctrine
    for d in theorems.enumerate_doctrines(max_base=3, max_fiber=3,
                                          max_emit=50):
        assert validate_doctrine(d)


def test_enumeration_prunes_isomorphic():
    # over one object with fiber exactly the 2-antichain, the two labelled
    # identity assignments collapse to one instance
    ds = [d for d in theorems.enumerate_doctrines(max_base=1, max_fiber=2,
                                                  min_fiber=2)]
    assert len(ds) == 2  # 2-chain and 2-antichain only


def test_budget_cap():
    stats = {}
    list(theorems.enumerate_doctrines(max_base=3, max_fiber=3, budget=100,
                                      stats=stats))
    assert stats["budget_exhausted"] and stats["candidates"] == 100


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DOCTRINELAB_BUDGET", "50")
    stats = {}
    list(theorems.enumerate_doctrines(max_base=3, max_fiber=3, budget=100_000,
                                      stats=stats))
    assert stats["budget_exhausted"] and stats["candidates"] == 50


def test_max_emit_zero_emits_nothing():
    assert list(theorems.enumerate_doctrines(max_emit=0)) == []


def test_filter_full_comp_not_full_cocomp():
    found = list(theorems.enumerate_doctrines(
        max_base=3, max_fiber=3, filter_expr="full_comp&!full_cocomp",
        max_emit=1))
    assert found
    d = found[0]
    assert logic.is_full_comprehension(d)
    assert not logic.is_full_cocomprehension(d)


def test_filter_bingo_counterexample_stream_empty():
    """Instances meeting the hypotheses of the implication lemma never fail
    its conclusion (a nonempty stream here would refute the statement)."""
    hits = 0
    for d in theorems.enumerate_doctrines(max_base=2, max_fiber=3,
                                          budget=5000):
        r = theorems.check_theorem("bingo", d)
        if r.is_violation:
            hits += 1
    assert hits == 0


def test_filter_parser_errors():
    with pytest.raises(KeyError):
        theorems.parse_filter("definitely_not_a_flag")
    with pytest.raises(ValueError):
        theorems.parse_filter("full_comp &")
    with pytest.raises(ValueError):
        theorems.parse_filter("(full_comp")


def test_filter_combinators(triv):
    assert theorems.parse_filter("tripos&!classical|classical").evaluate(triv)
    assert not theorems.parse_filter("!(tripos)").evaluate(triv)
    assert theorems.parse_filter("comp&cocomp").evaluate(triv)


def test_violation_reports_recheck(sl3):
    # a deliberately wrong "theorem": AC on SL3 is refuted and its payload
    # re-evaluates through the primitive recomputation path
    verdict, _ = logic.ac_check(sl3)
    assert verdict.is_refuted and recheck(sl3, verdict)


def test_reports_are_self_contained(sl3, triv):
    """Rebuilding the instance from the serialized report reproduces the
    verdict without the original instance store."""
    import json
    from doctrinelab import ioformat
    for d in (sl3, triv):
        for tid in ("bingo", "zero", "prop1_equiv"):
            rec = json.loads(json.dumps(theorems.check_theorem(tid, d).to_json()))
            rebuilt = ioformat.parse_document(rec["instance_document"])
            again = theorems.check_theorem(rec["theorem"], rebuilt)
            assert again.conclusion.status == rec["conclusion"]["status"]
            assert again.instance_hash == rec["instance_hash"]
