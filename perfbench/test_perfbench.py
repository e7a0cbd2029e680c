"""The benchmark's own tests: every check rejects a corrupted output, the
tracer attributes and restores, and each workload runs at a tiny size.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from doctrinelab import catalog, cli, ioformat, logic, theorems  # noqa: E402
from doctrinelab.doctrine import validate_doctrine  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SPACE = {"max_base": 3, "max_fiber": 2, "budget": 10_000, "max_emit": 40}


def cli_report(tmp_path, *args) -> bytes:
    out = tmp_path / "report.json"
    cli.main([*args, "--json", str(out)])
    return out.read_bytes()


@pytest.fixture(scope="module")
def ps11():
    return catalog.instance("PS(1,1)")


@pytest.fixture(scope="module")
def enumerated():
    return list(theorems.enumerate_doctrines(max_base=3, max_fiber=3,
                                             min_fiber=2, max_emit=300))


# -- every check fails on a corrupted output ---------------------------------------

def test_derived_sigma_rejects_a_flipped_entry(tmp_path, ps11):
    report = checks.load_report(
        "derive", cli_report(tmp_path, "derive", "PS(1,1)", "--what", "sigma"))
    assert checks.check_derived_sigma(report, ps11) == []
    key = sorted(report["result"])[-1]
    report["result"][key] = "e0" if report["result"][key] != "e0" else "e1"
    assert checks.check_derived_sigma(report, ps11)
    del report["result"][key]
    assert checks.check_derived_sigma(report, ps11)


def test_projection_adjoints_reject_a_flipped_entry(ps11):
    sigma, pi = workloads.adjoint_tables(ps11, checks.projections(ps11))
    assert checks.check_projection_adjoints(ps11, sigma, pi) == []
    p = max(sigma, key=lambda f: len(sigma[f]))
    bad = copy.deepcopy(sigma)
    e = sorted(bad[p])[-1]
    bad[p][e] = "e0" if bad[p][e] != "e0" else "e1"
    assert checks.check_projection_adjoints(ps11, bad, pi)
    assert checks.check_projection_adjoints(ps11, sigma, {**pi, p: None})


def test_scanned_adjoints_reject_a_flipped_entry(enumerated):
    d = enumerated[-1]
    sigma, pi = workloads.adjoint_tables(d, d.base.arrows)
    assert checks.check_adjoints(d, sigma, pi) == []
    f = next(f for f in sorted(sigma) if sigma[f] and len(set(sigma[f].values())) > 1)
    bad = copy.deepcopy(sigma)
    a, b = sorted(set(bad[f].values()))[:2]
    bad[f] = {e: (b if v == a else a) for e, v in bad[f].items()}
    assert checks.check_adjoints(d, bad, pi)


def test_functoriality_rejects_a_forged_verdict_and_a_broken_table(enumerated):
    d = next(d for d in enumerated if len(d.base.objects) == 3
             and len(d.fibers[d.base.objects[0]]) > 1)
    status = validate_doctrine(d).status
    assert checks.check_functoriality(d, status) == []
    assert checks.check_functoriality(d, "refuted")
    broken = copy.copy(d)
    broken.reindex = dict(d.reindex)
    (g, f), gf = next((k, v) for k, v in d.base.compose_table.items()
                      if k[0] != k[1] and v not in k)
    m = copy.copy(d.reindex[gf])
    first = m.source.elements[-1]
    other = next(e for e in m.target.elements if e != m.table[first])
    m.table = {**m.table, first: other}
    broken.reindex[gf] = m
    assert not checks.walk_functorial(broken)
    assert checks.check_functoriality(broken, status)


def test_recheck_rejects_a_forged_refutation(tmp_path):
    report = checks.load_report("classify",
                                cli_report(tmp_path, "classify", "SIER"))
    sier = catalog.instance("SIER")
    assert checks.check_rechecks("classify", report, sier) == []
    forged = checks.load_report("classify",
                                cli_report(tmp_path, "classify", "PS(1,1)"))
    forged["flags"]["classical"] = {"status": "refuted", "counterexample": {
        "kind": "not_classical", "object": "S1", "alpha": "e1"}}
    assert checks.check_rechecks("classify", forged, catalog.instance("PS(1,1)"))
    forged["flags"]["classical"]["counterexample"]["kind"] = "no_such_kind"
    assert checks.check_rechecks("classify", forged, catalog.instance("PS(1,1)"))


def test_theorem_checks_reject_a_forged_violation(tmp_path):
    report = checks.load_report("theorem_all",
                                cli_report(tmp_path, "theorem", "TRIV", "--all"))
    assert checks.check_no_violation(report) == []
    assert checks.expected_exit("theorem_all", report) == 0
    report[3]["violation"] = True
    assert checks.check_no_violation(report)
    assert checks.expected_exit("theorem_all", report) == 1


def test_classification_facts_reject_a_flipped_flag(tmp_path):
    for cid in ("PS(1,1)", "SIER", "SL3", "TRIV"):
        report = checks.load_report("classify",
                                    cli_report(tmp_path, "classify", cid))
        assert checks.check_classification(cid, report) == [], cid
    report["flags"]["primary"]["status"] = "refuted"
    assert checks.check_classification("TRIV", report)
    report = checks.load_report("classify",
                                cli_report(tmp_path, "classify", "SIER"))
    report["flags"]["negation"]["status"] = "holds"
    assert checks.check_classification("SIER", report)


def test_exit_code_checks():
    sl3 = {"flags": {"ac": {"status": "refuted"}, "sigma": {"status": "holds"}}}
    assert checks.expected_exit("classify", sl3) == 1
    assert checks.check_exit("c", 1, "", 1) == []
    assert checks.check_exit("c", 0, "", 1)
    assert checks.check_exit("c", 1, checks.TRACEBACK + "\nValueError", 1)
    # the documented exit for a malformed DOCTRINELAB_BUDGET
    assert checks.check_exit("b", 2, "error: bad budget", checks.USAGE_ERROR) == []
    assert checks.check_exit("b", 1, checks.TRACEBACK, checks.USAGE_ERROR)


def test_identical_rejects_one_changed_byte(tmp_path):
    data = cli_report(tmp_path, "validate", "TRIV")
    again = cli_report(tmp_path, "validate", "TRIV")
    assert checks.check_identical("v", data, again) == []
    changed = bytearray(again)
    changed[len(changed) // 2] ^= 1
    assert checks.check_identical("v", data, bytes(changed))


def test_search_checks_reject_a_foreign_document_and_bad_counts(enumerated):
    expr = theorems.parse_filter("classical")
    hits = [d for d in enumerated if expr.evaluate(d)][:3]
    miss = next(d for d in enumerated if not expr.evaluate(d))
    data = "".join(json.dumps(ioformat.to_document(d), sort_keys=True) + "\n"
                   for d in hits).encode()
    assert checks.check_search_documents(data, len(hits), expr) == []
    assert checks.check_search_documents(data, len(hits) + 1, expr)
    foreign = data + (json.dumps(ioformat.to_document(miss)) + "\n").encode()
    assert checks.check_search_documents(foreign, len(hits) + 1, expr)
    assert checks.check_partition(5, 9981, 9986) == []
    assert checks.check_partition(5, 9980, 9986)
    assert checks.search_summary(
        "search --filter 'x': 5 match(es), 30712 candidates examined\n") == (5, 30712)


# -- tracer --------------------------------------------------------------------------

def test_tracer_wraps_registry_references_and_restores_them(ps11):
    original = logic.is_elementary
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dict(theorems.CLASSIFY_FLAGS)["elementary"] is not original
        d = catalog.powerset_finset(1, 0)
        theorems.classify(d)
        d.cached(("probe",), lambda: 1)
        del d._cache[("probe",)]
        d.cached(("probe",), lambda: 1)
    finally:
        tracer.uninstall()
    assert logic.is_elementary is original
    assert dict(theorems.CLASSIFY_FLAGS)["elementary"] is original
    dump = tracer.dump()
    names = {dump["names"][i] for i in dump["name_ids"]}
    # reached only through CLASSIFY_FLAGS, which holds the function itself
    assert {"logic.is_elementary", "catalog.powerset_finset",
            "fincat.ConcreteBuilder.close"} <= names
    assert dump["counts"]["doctrine.memo_recomputes"] >= 1
    layers = tracing.summarize([dump], 10.0, 10.0)
    assert layers["fincat.arrows"] > 0
    assert 0 < layers["trace.coverage_pct"] <= 100


def test_paired_rounds_give_every_operation_its_own_files():
    rounds = workloads.paired_rounds("abc", lambda key, tag, traced: (tag, traced))
    assert [sorted(r) for r in rounds] == [list("abc")] * 2
    assert all(not traced for _, traced in rounds[0].values())
    assert all(traced for _, traced in rounds[1].values())
    tags = [tag for r in rounds for tag, _ in r.values()]
    assert len(set(tags)) == 6


def test_timed_rounds_end_within_the_run(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])

    def one_round(i):
        clock[0] += 3.0
        return i

    assert workloads.timed_rounds(10, one_round) == [0, 1, 2]
    assert clock[0] == 9.0
    assert workloads.timed_rounds(0, one_round) == [0]


def test_deal_gives_every_round_the_same_mix_of_sizes(enumerated):
    batches = workloads.deal(enumerated, 30, workloads.random.Random(1))
    n = len(enumerated) // 30
    assert len(batches) == n and all(len(b) == 30 for b in batches)
    assert len({id(d) for b in batches for d in b}) == 30 * n
    sizes = sorted(map(workloads.doctrine_size, enumerated))
    for b in batches:
        for i, size in enumerate(sorted(map(workloads.doctrine_size, b))):
            assert sizes[n * i] <= size <= sizes[n * i + n - 1]
    # the re-verified first doctrines of a round are not its smallest
    assert any(sorted(b, key=workloads.doctrine_size) != b for b in batches)
    other = workloads.deal(enumerated, 30, workloads.random.Random(2))
    assert [list(map(id, b)) for b in other] != [list(map(id, b)) for b in batches]


# -- every workload at a tiny size -------------------------------------------------

def assert_complete(result, trace):
    assert result.problems == []
    assert result.attempted >= 1
    if trace:
        names = [m["name"] for m in SPEC["per_layer"]]
        assert set(names) <= set(result.layers)
    else:
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(result.metrics)
        assert all(v > 0 for v, _ in result.metrics.values())
        m = {name: v for name, (v, _) in result.metrics.items()}
        assert m["round_s"] == pytest.approx(m["round_wall_s"] / m["speed_factor"])


@pytest.mark.parametrize("trace", [False, True])
def test_catalog_smoke(trace):
    result = workloads.catalog(1, 0, trace, ids=("PS(1,1)", "TRIV"))
    assert_complete(result, trace)
    assert result.failed == 0


@pytest.mark.parametrize("trace", [False, True])
def test_sweep_smoke(trace):
    result = workloads.sweep(1, 0, trace, space=TINY_SPACE, per_round=10,
                             inspected=3)
    assert_complete(result, trace)
    assert result.failed == 0


@pytest.mark.parametrize("trace", [False, True])
def test_search_smoke(trace):
    result = workloads.search(1, 0, trace, window=2)
    assert_complete(result, trace)
    assert result.attempted == (4 if trace else 2)


def test_run_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
