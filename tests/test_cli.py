import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import doctrinelab
from doctrinelab import catalog, cli, ioformat, theorems
from doctrinelab.doctrine import Doctrine
from doctrinelab.poset import FinPoset, MonotoneMap
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import REFUTED, Verdict

DATA = Path(__file__).parent / "data"


def rechecks(path, report) -> bool:
    """Every refuted check of a validation report re-derives on the instance."""
    d = ioformat.parse_file(str(path))
    refuted = [v for v in json.loads(report.read_text())["checks"].values()
               if v["status"] == REFUTED]
    return all(recheck(d, Verdict(REFUTED, counterexample=v["counterexample"]))
               for v in refuted)


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "doctrinelab.cli", *args],
                          capture_output=True, text=True, **kw)


def write_instance(tmp_path, name="inst.json"):
    d = next(d for d in theorems.enumerate_doctrines(max_base=2, max_fiber=2,
                                                     min_fiber=2)
             if len(d.base.objects) == 2)
    path = tmp_path / name
    path.write_text(ioformat.serialize(d), encoding="utf-8")
    return path


def test_validate_catalog_id():
    r = run_cli("validate", "PS(1,1)")
    assert r.returncode == 0
    assert "category_laws" in r.stdout


def test_validate_file(tmp_path):
    path = write_instance(tmp_path)
    r = run_cli("validate", str(path))
    assert r.returncode == 0, r.stderr


def test_validate_law_violation_exits_1(tmp_path):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    # break monotonicity: swap the images of the only cover reindex map
    cover = doc["reindex"]["L0>L1"]
    if len(set(cover.values())) > 1:
        keys = list(cover)
        cover[keys[0]], cover[keys[1]] = cover[keys[1]], cover[keys[0]]
    else:
        doc["reindex"]["L0>L0"] = {"u0": "u1", "u1": "u1"}
    path.write_text(json.dumps(doc))
    r = run_cli("validate", str(path))
    assert r.returncode == 1, r.stdout


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("validate", str(bad))
    assert r.returncode == 2
    assert "line" in r.stderr


def test_dangling_reference_positioned(tmp_path):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    doc["base"]["arrows"][0]["cod"] = "NOPE"
    path.write_text(json.dumps(doc))
    r = run_cli("validate", str(path))
    assert r.returncode == 2
    assert "$.base.arrows[0].cod" in r.stderr


@pytest.mark.parametrize("pool", [["nope"], "L0"])
def test_undeclared_power_pool_exits_2(tmp_path, capsys, pool):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    doc["base"]["power_pool"] = pool
    path.write_text(json.dumps(doc))
    for command in ("validate", "classify"):
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.base") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key,value,position", [
    ("declared", {"delta": 5}, "$.declared.delta"),
    ("declared", {"epsilon": 3}, "$.declared.epsilon"),
    ("declared", {"negation": {"L0": 7}}, "$.declared.negation.L0"),
    ("declared", [1, 2], "$.declared"),
    ("declared", "x", "$.declared"),
    ("meta", 5, "$.meta"),
    ("declared", {"comprehensoin": {"S1": {"e0": "S1>S1:0"}}},
     "$.declared.comprehensoin"),
    ("declared", {"delta": {"S9": "e1"}}, "$.declared.delta.S9"),
    ("declared", {"delta": {"S1": "zz"}}, "$.declared.delta.S1"),
])
def test_malformed_declared_or_meta_block_exits_2(tmp_path, capsys, key, value,
                                                   position):
    # each block is rejected in an instance file and on a catalog id alike
    path = write_instance(tmp_path)
    for doc in (json.loads(path.read_text()),
                {"schema_version": 1, "catalog": {"id": "PS(1,1)"}}):
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {position}:") and len(err.splitlines()) == 1


# Names in a declared block over PS(1,1) that do not resolve: S1>S2:0 is an
# arrow into S2, the fibers of S1 and S1 x S2 = S2 hold e0..e1 and e0..e3.
@pytest.mark.parametrize("block,position", [
    ({"cocomprehension": {"S1": {"e0": "S1>S2:0"}}},
     "$.declared.cocomprehension.S1.e0"),
    ({"epsilon": [{"gamma": "S1", "a": "S2", "psi": "e9", "arrow": "S1>S2:0"}]},
     "$.declared.epsilon[0].psi"),
    ({"epsilon": [{"gamma": "S2", "a": "S2", "psi": "e1", "arrow": "S1>S2:0"}]},
     "$.declared.epsilon[0].arrow"),
    ({"negation": {"S1": {"e0": "e2"}}}, "$.declared.negation.S1.e0"),
    ({"power_objects": {"S1": {"power": "S7", "membership": "e1"}}},
     "$.declared.power_objects.S1.power"),
    ({"power_objects": {"S1": {"power": "S2", "membership": "e4"}}},
     "$.declared.power_objects.S1.membership"),
])
def test_dangling_declared_name_exits_2(tmp_path, capsys, block, position):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "catalog": {"id": "PS(1,1)"}, "declared": block}))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {position}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("block,message", [
    ({"cocomprehension": {"S1": {"e0": "S1>S2:0"}}},
     "'S1>S2:0' is not an arrow ? -> S1"),
    ({"epsilon": [{"gamma": "S2", "a": "S2", "psi": "e1", "arrow": "S1>S2:0"}]},
     "'S1>S2:0' is not an arrow S2 -> S2"),
])
def test_a_declared_arrow_of_the_wrong_type_names_the_type(tmp_path, capsys,
                                                           block, message):
    # a witness arrow is declared with its codomain alone, an epsilon arrow
    # with its domain too
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "catalog": {"id": "PS(1,1)"}, "declared": block}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.endswith(f": {message}\n")


@pytest.mark.parametrize("argv", [["validate", "PS(1,1)"],
                                  ["catalog", "--emit", "SL3"]])
def test_unwritable_report_exits_2(tmp_path, capsys, argv):
    report = tmp_path / "missing" / "report.json"
    assert cli.main([*argv, "--json", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: ") and len(err.splitlines()) == 1


def test_unwritable_report_exits_2_before_loading_the_instance(
        tmp_path, monkeypatch, capsys):
    def load_instance(spec):
        raise AssertionError("the instance was loaded")
    monkeypatch.setattr(cli, "load_instance", load_instance)
    (tmp_path / "file").write_text("")
    for report in (tmp_path / "missing" / "r.json", tmp_path / "file" / "r.json",
                   tmp_path):
        assert cli.main(["classify", "PS(2,0)", "--json", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: cannot write the report: ")
        assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("cid,message", [
    pytest.param("PS(3,0)", "finset(3,0) needs more than 4096 arrows",
                 id="PS(3,0)-too-many-arrows"),
    ("PS(x,0)", "unknown catalog id 'PS(x,0)'\n"),
    ("PS(1,00)", "unknown catalog id 'PS(1,00)'\n"),
    ("PS(1,0)\n", "unknown catalog id 'PS(1,0)\\n'\n")])
def test_bad_catalog_document_id_exits_2_at_its_position(tmp_path, capsys,
                                                         cid, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"schema_version": 1, "catalog": {"id": cid}}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: $.catalog.id: {message}")


def test_unknown_instance_exits_2():
    r = run_cli("classify", "PS(9,9,broken)")
    assert r.returncode == 2


def test_classify_ps20_flags(tmp_path):
    out = tmp_path / "flags.json"
    r = run_cli("classify", "PS(2,0)", "--json", str(out))
    assert r.returncode == 0, r.stdout
    doc = json.loads(out.read_text())
    flags = {k: v["status"] for k, v in doc["flags"].items()}
    for name in ("primary", "propositional", "elementary", "existential",
                 "pi", "full_comp", "full_cocomp", "classical", "ac", "eaco"):
        assert flags[name] == "holds", name
    assert flags["higher_order"] == "not_applicable"


def test_classify_report_carries_witness_tables(tmp_path):
    out = tmp_path / "w.json"
    run_cli("classify", "PS(1,1)", "--json", str(out))
    doc = json.loads(out.read_text())
    witnesses = doc["witnesses"]
    assert witnesses["delta"]["S1"] == "e1"
    assert "comprehension" in witnesses and "epsilon" in witnesses
    assert witnesses["power_objects"]["S1"]["power"] == "S2"


def test_classify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("classify", "SL3", "--json", str(out1)).returncode == 1
    assert run_cli("classify", "SL3", "--json", str(out2)).returncode == 1
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_sier_exits_1():
    r = run_cli("classify", "SIER")
    assert r.returncode == 1
    assert "negation" in r.stdout


def test_theorem_all_triv(tmp_path):
    out = tmp_path / "reports.jsonl"
    r = run_cli("theorem", "TRIV", "--all", "--json", str(out))
    assert r.returncode == 0, r.stdout
    lines = out.read_text().splitlines()
    assert len(lines) == len(theorems.theorem_ids())
    for line in lines:
        rec = json.loads(line)
        assert rec["conclusion"]["status"] in ("holds", "not_applicable")
        assert not rec["violation"]


def test_theorem_single_id():
    r = run_cli("theorem", "PS(1,1)", "--id", "frodo")
    assert r.returncode == 0
    assert "frodo" in r.stdout


def test_theorem_id_and_all_together_exit_2(capsys):
    assert cli.main(["theorem", "TRIV", "--id", "nonloso", "--all"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_theorem_without_id_or_all_exits_2(capsys):
    assert cli.main(["theorem", "TRIV"]) == 2
    assert capsys.readouterr().err == "error: theorem needs --id NAME or --all\n"


def test_theorem_unknown_id():
    r = run_cli("theorem", "TRIV", "--id", "nonsense")
    assert r.returncode == 2


@pytest.mark.parametrize("flags,error", [
    ([], "theorem needs --id NAME or --all"),
    (["--id", "nonsense"], "unknown theorem id 'nonsense'")])
def test_theorem_checks_its_flags_before_loading(monkeypatch, capsys, flags,
                                                  error):
    def load(spec):
        raise AssertionError(f"{spec} loaded before the flags were checked")
    monkeypatch.setattr(cli, "load_instance", load)
    assert cli.main(["theorem", "PS(2,0)", *flags]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_search_finds_intuitionistic_witness(tmp_path):
    out = tmp_path / "found.jsonl"
    r = run_cli("search", "--filter", "full_comp&!classical", "--limit", "1",
                "--budget", "50000", "--json", str(out))
    assert r.returncode == 0, r.stderr
    assert "1 match(es)" in r.stdout
    doc = json.loads(out.read_text().splitlines()[0])
    d = ioformat.parse_document(doc)
    from doctrinelab import logic
    assert logic.is_full_comprehension(d)
    assert not logic.is_classical(d)


def test_search_bad_filter_exits_2():
    # a theorem clause such as stable_initial is not a classification flag
    for name in ("no_such_flag", "stable_initial"):
        r = run_cli("search", "--filter", name)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"error: bad filter: unknown classification flag '{name}'\n")


def test_catalog_list():
    r = run_cli("catalog", "--list")
    assert r.returncode == 0
    for cid in ("PS(2,0)", "PS(1,1)", "SIER", "TRIV", "SL3"):
        assert cid in r.stdout


def test_catalog_emit_roundtrip(tmp_path):
    r = run_cli("catalog", "--emit", "SL3")
    assert r.returncode == 0
    path = tmp_path / "sl3.json"
    path.write_text(r.stdout)
    assert run_cli("validate", str(path)).returncode == 0
    assert ioformat.serialize(ioformat.parse(r.stdout)) == r.stdout


def test_catalog_emit_unknown_id_exits_2(capsys):
    assert cli.main(["catalog", "--emit", "NOPE"]) == 2
    assert capsys.readouterr().err == "error: unknown catalog id 'NOPE'\n"


def test_catalog_without_a_flag_exits_2(capsys):
    assert cli.main(["catalog"]) == 2
    assert capsys.readouterr().err == "error: catalog needs --list or --emit ID\n"


def test_catalog_emit_writes_the_serialized_instance(tmp_path, capsys):
    path = tmp_path / "sier.json"
    assert cli.main(["catalog", "--emit", "SIER", "--json", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == \
        ioformat.serialize(catalog.instance("SIER"))
    assert capsys.readouterr().out == ""


def test_catalog_list_and_emit_together_exit_2(capsys):
    assert cli.main(["catalog", "--list", "--emit", "SIER"]) == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err


def test_catalog_list_writes_a_canonical_report(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli.main(["catalog", "--list", "--json", str(path)]) == 0
    text = paths[0].read_text(encoding="utf-8")
    assert text == ioformat.canonical_json(
        {"schema_version": ioformat.SCHEMA_VERSION, "kind": "catalog",
         "ids": catalog.catalog_ids()})
    assert paths[1].read_bytes() == paths[0].read_bytes()
    out = capsys.readouterr().out
    assert all(cid in out for cid in catalog.catalog_ids())


@pytest.mark.parametrize("what", ["sigma", "implication", "cocomp", "dual",
                                  "graph", "epsilon"])
def test_derive_subcommands(tmp_path, what):
    out = tmp_path / f"{what}.json"
    r = run_cli("derive", "PS(1,1)", "--what", what, "--json", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["what"] == what and "result" in doc


def test_derive_na_on_missing_structure(tmp_path):
    out = tmp_path / "eps.json"
    r = run_cli("derive", "SL3", "--what", "epsilon", "--json", str(out))
    assert r.returncode == 0
    assert "not applicable" in r.stdout
    assert "not_applicable" in out.read_text()


@pytest.mark.parametrize("size,printed", [(3_999, True), (4_000, False)])
def test_derive_prints_a_payload_below_4000_characters(monkeypatch, capsys,
                                                       size, printed):
    # '{\n  "k": "' and '"\n}' frame the padding with 13 characters
    payload = {"k": "x" * (size - 13)}
    text = json.dumps(payload, sort_keys=True, indent=2)
    assert len(text) == size
    monkeypatch.setattr(cli, "_derive_payload",
                        lambda d, what, constructions: ("padding", payload))
    assert cli.main(["derive", "TRIV", "--what", "sigma"]) == 0
    out = capsys.readouterr().out
    assert out == ("derive sigma on TRIV: padding\n"
                   + (text if printed else "  (1 entries; use --json)") + "\n")


def test_text_report_gives_a_not_applicable_reason(capsys):
    assert cli.main(["classify", "PS(2,0)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("  o higher_order       not_applicable  "
            "(window: no_weak_power_object)") in lines
    assert sum(line.startswith("  o ") for line in lines) == 4


def test_declared_witness_cross_validation(tmp_path):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    fiber = doc["fibers"]["L1"]["elements"]
    top = fiber[-1]
    doc["declared"] = {"comprehension": {"L1": {top: "L1>L1"}}}
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)).returncode == 0
    # a wrong declared witness is refuted
    doc["declared"] = {"comprehension": {"L1": {fiber[0]: "L1>L1"}}}
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    r = run_cli("validate", str(path), "--json", str(report))
    assert r.returncode == 1
    assert rechecks(path, report)


# (valid, invalid) declared blocks over PS(1,1), whose S2 = {0, 1} is in the
# power pool: e1 is the subset {0}, and S1>S2:i picks the point i.
DECLARED_CASES = {
    "delta": ({"S1": "e1"}, {"S1": "e0"}),
    "cocomprehension": ({"S1": {"e0": "S1>S1:0"}}, {"S1": {"e0": "S0>S1:"}}),
    "epsilon": ([{"gamma": "S1", "a": "S2", "psi": "e1", "arrow": "S1>S2:0"}],
                [{"gamma": "S1", "a": "S2", "psi": "e1", "arrow": "S1>S2:1"}]),
    "negation": ({"S1": {"e0": "e1", "e1": "e0"}},
                 {"S1": {"e0": "e0", "e1": "e0"}}),
    "power_objects": ({"S1": {"power": "S2", "membership": "e1"}},
                      {"S1": {"power": "S1", "membership": "e1"}}),
}


# The payload field that names a declared witness, with its valid value; a
# refuted negation names only the object, recheck reads the declared table.
VALID_FIELD = {"delta": ("delta", "e1"), "cocomprehension": ("arrow", "S1>S1:0"),
               "epsilon": ("arrow", "S1>S2:0"), "negation": (None, None),
               "power_objects": ("power", "S2")}


@pytest.mark.parametrize("kind", sorted(DECLARED_CASES))
def test_declared_witness_kinds(tmp_path, capsys, kind):
    path, out = tmp_path / "inst.json", tmp_path / "report.json"
    for block, status, code in zip(DECLARED_CASES[kind], ("holds", "refuted"),
                                   (0, 1)):
        path.write_text(json.dumps({
            "schema_version": 1, "catalog": {"id": "PS(1,1)", "dual": False},
            "declared": {kind: block}}))
        assert cli.main(["validate", str(path), "--json", str(out)]) == code
        checks = json.loads(out.read_text())["checks"]
        declared = [v for k, v in checks.items() if k.startswith("declared ")]
        assert [v["status"] for v in declared] == [status]
        assert rechecks(path, out)
    capsys.readouterr()
    # the refutation with the valid witness in its place does not recheck
    valid = ioformat.parse_document({
        "schema_version": 1, "catalog": {"id": "PS(1,1)", "dual": False},
        "declared": {kind: DECLARED_CASES[kind][0]}})
    payload = dict(declared[0]["counterexample"])
    field, value = VALID_FIELD[kind]
    if field is not None:
        payload[field] = value
    assert not recheck(valid, Verdict(REFUTED, counterexample=payload))


def _one_object_instance(tmp_path, name, fiber):
    """A one-object instance file whose fiber is ``fiber``."""
    base, _ = catalog.semilattice_category(["X"], [("X", "X")])
    d = Doctrine(base, {"X": fiber}, {"X>X": MonotoneMap.identity(fiber)},
                 name=name)
    path = tmp_path / f"{name}.json"
    path.write_text(ioformat.serialize(d), encoding="utf-8")
    return path


def _antichain_instance(tmp_path, size):
    """A one-object instance file whose fiber is a ``size``-element
    antichain."""
    elements = [f"e{i}" for i in range(size)]
    return _one_object_instance(tmp_path, f"antichain-{size}",
                                FinPoset(elements, [(e, e) for e in elements]))


def test_an_explicit_fiber_at_the_limit_validates(tmp_path, capsys):
    # 256 elements, the largest fiber of any window the builder builds
    assert ioformat.MAX_FIBER == 256
    path = _antichain_instance(tmp_path, ioformat.MAX_FIBER)
    assert cli.main(["validate", str(path)]) == 0, capsys.readouterr().err


# sha256 of the classify report of the 256-element Boolean instance below,
# frozen while the implication axioms were still scanned on its fiber
BOOLEAN_256_DIGEST = (
    "77f07e5fe5f961473c2aacdb0d0f8a5fc56f200c37c5f74470c4d8fc764f4c80")


def test_a_boolean_fiber_at_the_limit_classifies(tmp_path, capsys):
    # the powerset of 8 points; its own Heyting implication needs no cubic
    # scan of the pointwise axioms, so this takes well under a second
    path = _one_object_instance(tmp_path, "boolean-256",
                                catalog._mask_fiber(range(ioformat.MAX_FIBER)))
    out = tmp_path / "report.json"
    assert cli.main(["classify", str(path), "--json", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  + implicational      holds" in lines
    assert "  - comprehension      refuted  [no_comprehension_witness]" in lines
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOOLEAN_256_DIGEST


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_an_explicit_fiber_past_the_limit_exits_2(tmp_path, capsys, command):
    path = _antichain_instance(tmp_path, ioformat.MAX_FIBER + 1)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $.fibers.X: fiber of 257 elements, more than 256\n")


def test_validate_refutes_a_broken_product_row(tmp_path, capsys):
    path = write_instance(tmp_path)
    intact = ioformat.parse_file(str(path))
    doc = json.loads(path.read_text())
    # L1 x L1 is L1 in the chain; L0 has no arrow from L1, so no mediator
    row = next(r for r in doc["base"]["products"]
               if r["left"] == r["right"] == "L1")
    row.update(obj="L0", p1="L0>L1", p2="L0>L1")
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert cli.main(["validate", str(path), "--json", str(out)]) == 1
    capsys.readouterr()
    verdict = json.loads(out.read_text())["checks"]["chosen_products"]
    assert verdict["counterexample"]["kind"] == "not_a_product"
    assert rechecks(path, out)
    assert not recheck(intact, Verdict(REFUTED,
                                       counterexample=verdict["counterexample"]))


@pytest.mark.parametrize("command", [["validate"], ["classify"],
                                     ["theorem", "--all"]])
def test_missing_diagonal_row_is_rejected_at_its_position(tmp_path, capsys,
                                                          command):
    # every equality check reads the product row (X, X) of a window object
    doc = json.loads((DATA / "enum29.json").read_text(encoding="utf-8"))
    rows = doc["base"]["products"]
    doc["base"]["products"] = [r for r in rows
                               if not r["left"] == r["right"] == "L1"]
    assert len(doc["base"]["products"]) == len(rows) - 1
    path = tmp_path / "no_diagonal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.base.products: no product row (L1, L1)")
    assert len(err.splitlines()) == 1


def test_validate_rejects_a_composition_entry_that_does_not_compose(tmp_path,
                                                                     capsys):
    # L0>L1 after itself, though its codomain L1 is not its domain L0
    doc = json.loads((DATA / "enum29.json").read_text(encoding="utf-8"))
    doc["base"]["compose"].append(["L0>L1", "L0>L1", "L0>L1"])
    path = tmp_path / "extra_entry.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_bad_env_budget_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("DOCTRINELAB_BUDGET", value)
    assert cli.main(["search", "--filter", "tripos"]) == 2
    err = capsys.readouterr().err
    assert "DOCTRINELAB_BUDGET" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value", [("--budget", "-5"), ("--window", "0"),
                                        ("--window", "two"), ("--limit", "0"),
                                        ("--limit", "-4")])
def test_out_of_range_search_arguments_exit_2(capsys, flag, value):
    assert cli.main(["search", "--filter", "tripos", flag, value]) == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_env_budget_zero_is_accepted(monkeypatch, capsys):
    monkeypatch.setenv("DOCTRINELAB_BUDGET", "0")
    assert cli.main(["search", "--filter", "tripos"]) == 0
    assert "(budget exhausted)" in capsys.readouterr().out


def test_cli_imports_only_the_standard_library():
    # -S leaves site-packages and its start-up hooks out, so a third-party
    # import fails outright; the package is found through PYTHONPATH
    code = ("import sys, doctrinelab.cli; "
            "print(*sorted({m.split('.')[0] for m in sys.modules}))")
    parent = str(Path(doctrinelab.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": parent})
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split()) - {"__main__"}
    assert "doctrinelab" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"doctrinelab"}) == []


# prints the modules that importing doctrinelab and running one command load
FOOTPRINT = """
import json, sys
before = set(sys.modules)
from doctrinelab import cli
rc = cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(rc)
"""


def _new_modules(tmp_path, *argv) -> set:
    parent = str(Path(doctrinelab.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, *argv],
                       capture_output=True, text=True, cwd=tmp_path,
                       env={**os.environ, "PYTHONPATH": parent})
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def test_a_light_command_loads_only_what_it_runs(tmp_path):
    loaded = _new_modules(tmp_path, "validate", "TRIV", "--json", "v.json")
    assert "doctrinelab.fincat" in loaded
    assert loaded & {"dataclasses", "doctrinelab.theorems",
                     "doctrinelab.constructions", "doctrinelab.logic"} == set()
    loaded = _new_modules(tmp_path, "derive", "--what", "sigma", "TRIV")
    assert "doctrinelab.constructions" in loaded
    assert loaded & {"dataclasses", "doctrinelab.theorems"} == set()


def test_no_module_imports_dataclasses():
    src = Path(doctrinelab.__file__).resolve().parent
    pattern = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.MULTILINE)
    files = sorted(src.glob("*.py"))
    assert len(files) > 10
    assert [f.name for f in files if pattern.search(f.read_text())] == []


# an address-space cap, so that a regression of the window guard fails
# this test instead of exhausting the machine's memory
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from doctrinelab import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("cid", ["PS(3,0)", "PS(9,0)"])
def test_oversized_powerset_window_exits_2(cid):
    parent = str(Path(doctrinelab.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-c", CAPPED_CLI, "validate", cid],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": parent})
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert cli.main(["validate", "TRIV"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
