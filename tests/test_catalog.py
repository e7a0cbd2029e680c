import gc
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from doctrinelab import catalog, doctrine, fincat, ioformat, logic, theorems
from doctrinelab.constructions import derived_sigma, dualize
from doctrinelab.doctrine import validate_doctrine
from doctrinelab.verdicts import InvalidTopology, StructureMissing, WindowExceeded

from oracles import (complement, direct_image, forall_image, parse_arrow,
                     preimage)
from test_golden import WINDOWS
from test_poset import assert_lattice_ops_match_reference


def test_catalog_ids_build_and_validate():
    for cid in catalog.catalog_ids():
        d = catalog.instance(cid)
        assert d.base.validate(), cid
        assert validate_doctrine(d), cid


def test_instances_cached():
    assert catalog.instance("TRIV") is catalog.instance("TRIV")


@pytest.mark.parametrize("cid", ["PS(1,00)", "PS(1,0)\n", "PS(01,0)",
                                 "PS(1,\u0660)"])
def test_only_the_canonical_powerset_id_is_known(cid):
    # each would otherwise build and cache a second copy of PS(1,0)
    with pytest.raises(KeyError, match="unknown catalog id"):
        catalog.instance(cid)


PS20_EXPECTED = {
    "primary": "holds", "propositional": "holds", "elementary": "holds",
    "existential": "holds", "pi": "holds", "comprehension": "holds",
    "full_comp": "holds", "full_cocomp": "holds", "classical": "holds",
    "ac": "holds", "eaco": "holds",
    "higher_order": "not_applicable", "tripos": "not_applicable",
}


def test_ps20_classification(ps20):
    flags = theorems.classify(ps20)
    for name, status in PS20_EXPECTED.items():
        assert flags[name].status == status, name


def test_ps11_classification(ps11):
    flags = theorems.classify(ps11)
    for name in ("higher_order", "tripos", "tripos_char", "eaco", "heaco"):
        assert flags[name].status == "holds", name


SIER_EXPECTED = {
    "primary": "holds", "propositional": "refuted", "elementary": "refuted",
    "comprehension": "holds", "full_comp": "holds",
    "cocomprehension": "holds", "full_cocomp": "holds",
    "negation": "refuted", "classical": "refuted", "tripos": "refuted",
}


def test_sier_classification(sier):
    flags = theorems.classify(sier)
    for name, status in SIER_EXPECTED.items():
        assert flags[name].status == status, name


def test_triv_classification(triv):
    flags = theorems.classify(triv)
    assert all(v.status == "holds" for v in flags.values())


def test_sl3_classification(sl3):
    flags = theorems.classify(sl3)
    assert flags["comprehension"].status == "holds"
    assert flags["ac"].status == "refuted"


def test_ps_reindex_is_preimage_oracle(ps20):
    base = ps20.base
    for f in base.window_arrows:
        _, _, images = parse_arrow(f)
        table = ps20.reindex[f].table
        for e, v in table.items():
            assert int(v[1:]) == preimage(images, int(e[1:]))


def test_ps_negation_is_complement_oracle(ps20):
    table = logic.negation(ps20)
    for a in ps20.base.window:
        size = ps20.base.sizes[a]
        for e in ps20.fibers[a].elements:
            assert int(table[a][e][1:]) == complement(size, int(e[1:]))


def test_ps_adjoints_match_image_oracles(ps20):
    base = ps20.base
    for f in base.window_arrows:
        dom, cod, images = parse_arrow(f)
        sigma = ps20.sigma(f)
        pi = ps20.pi(f)
        for e in ps20.fibers[base.cod(f)].elements:
            pass
        for e in ps20.fibers[base.dom(f)].elements:
            mask = int(e[1:])
            assert sigma.table[e] == f"e{direct_image(images, mask)}"
            assert pi.table[e] == f"e{forall_image(images, cod, mask)}"


def test_discrete_two_point_space_matches_powerset():
    """A discrete 2-point space instance classifies like the powerset
    doctrine on its window."""
    d = catalog.openset_space({
        "E": ((), ((),)),
        "U": (("u",), ((), ("u",))),
        "D": (("p", "q"), ((), ("p",), ("q",), ("p", "q"))),
    }, name="DISC")
    flags = theorems.classify(d)
    for name in ("primary", "propositional", "elementary", "existential",
                 "full_comp", "full_cocomp", "classical", "ac", "eaco"):
        assert flags[name].status == "holds", name


def test_invalid_topology_rejected():
    with pytest.raises(InvalidTopology):
        # missing the full set
        catalog.openset_space({"X": (("a", "b"), ((), ("a",)))})
    with pytest.raises(InvalidTopology):
        # not closed under union: {a} and {b} but no {a,b}
        catalog.openset_space({"X": (("a", "b", "c"),
                                     ((), ("a",), ("b",), ("a", "b", "c")))})


def test_ps_window_guard(monkeypatch):
    # the builder alone limits carriers: PS(2,0)'s first one above 4 points
    # is the triple carrier S2 x S2 x S2
    monkeypatch.setattr(fincat, "MAX_POINTS", 4)
    with pytest.raises(WindowExceeded, match="carrier of 8 points"):
        catalog.powerset_finset(2, 0)


# PS(3,0) stops at its 4,097th arrow; PS(1000,0) needs a carrier above the
# limit in its window alone, and PS(1,6) would form the powerset of a
# 65,536-point set
OVERSIZED = {"PS(3,0)": "more than 4096 arrows",
             "PS(9,0)": "a carrier of 288 points",
             "PS(1000,0)": "a carrier of 257 points",
             "PS(1,6)": "a carrier of 65536 points"}


@pytest.mark.parametrize("cid", list(OVERSIZED))
def test_oversized_powerset_window_refused_before_building(cid):
    start = time.perf_counter()
    with pytest.raises(WindowExceeded, match=f" needs {OVERSIZED[cid]};"):
        catalog.instance(cid)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m,d", [(m, d) for m in range(1, 5) for d in range(3)
                                 if (m, d) not in ((1, 0), (2, 0), (1, 1))])
def test_powerset_windows_beyond_the_limit_are_refused_quickly(m, d):
    # PS(2,2) and PS(3,1) stop at their 4,097th generator, PS(1,2) and
    # PS(2,1) at their 4,097th arrow
    start = time.perf_counter()
    with pytest.raises(WindowExceeded):
        catalog.powerset_finset(m, d)
    assert time.perf_counter() - start < 1.0


CAPPED_OPENSET = """
import ast, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from doctrinelab import catalog
from doctrinelab.verdicts import WindowExceeded
start = time.perf_counter()
try:
    catalog.openset_space(ast.literal_eval(sys.argv[1]))
except WindowExceeded:
    print(time.perf_counter() - start)
"""


@pytest.mark.parametrize("spaces", [
    # products of up to 27 points: building it ran out of a 1.5 GB address
    # space after about 40 s
    {"E": ((), ((),)), "U": (("u",), ((), ("u",))),
     "T": (("a", "b", "c"), ((), ("a",), ("b",), ("a", "b"), ("a", "b", "c")))},
    # the 3-chain alone: maps out of it give only 1,110 arrows
    {"C": (("a", "b", "c"), ((), ("a",), ("a", "b"), ("a", "b", "c")))},
    # Sierpinski space and the discrete 2-point space, without and with the
    # empty space: each reaches its 4,097th arrow from at most 16 generators
    {"S": catalog.SIERPINSKI_SPACES["S"],
     "D": (("a", "b"), ((), ("a",), ("b",), ("a", "b")))},
    {"E": catalog.SIERPINSKI_SPACES["E"], "S": catalog.SIERPINSKI_SPACES["S"],
     "D": (("a", "b"), ((), ("a",), ("b",), ("a", "b")))},
])
def test_oversized_openset_window_refused_before_building(spaces):
    parent = str(Path(catalog.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-c", CAPPED_OPENSET, repr(spaces)],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": parent})
    assert r.returncode == 0 and r.stdout, r.stderr
    assert float(r.stdout) < 1.0


@pytest.mark.parametrize("build", [
    lambda: catalog.powerset_finset(1, 0),
    lambda: catalog.powerset_finset(2, 0),
    lambda: catalog.powerset_finset(1, 1),
    lambda: catalog.openset_space({"S": catalog.SIERPINSKI_SPACES["S"]}),
    lambda: catalog.openset_space(catalog.SIERPINSKI_SPACES),
], ids=["PS(1,0)", "PS(2,0)", "PS(1,1)", "S", "SIER"])
def test_builder_caps_the_window_at_its_arrow_count(monkeypatch, build):
    n = len(build().base.arrows)
    monkeypatch.setattr(fincat, "MAX_ARROWS", n)
    assert len(build().base.arrows) == n
    monkeypatch.setattr(fincat, "MAX_ARROWS", n - 1)
    with pytest.raises(WindowExceeded):
        build()


def test_roundtrip_bit_exact_all_catalog():
    for cid in catalog.catalog_ids():
        d = catalog.instance(cid)
        text = ioformat.serialize(d)
        again = ioformat.serialize(ioformat.parse(text))
        assert text == again, cid


def test_ps10_golden_file():
    from pathlib import Path
    golden = Path(__file__).parent / "data" / "ps10.golden.json"
    text = ioformat.serialize(catalog.instance("PS(1,0)"))
    assert text == golden.read_text(encoding="utf-8")
    assert ioformat.serialize(ioformat.parse(text)) == text


def test_roundtrip_enumerated_explicit_instances():
    for d in theorems.enumerate_doctrines(max_base=2, max_fiber=3,
                                          max_emit=10):
        text = ioformat.serialize(d)
        d2 = ioformat.parse(text)
        assert ioformat.serialize(d2) == text
        assert validate_doctrine(d2)


def _doctrines(group):
    if group == "catalog":
        return [catalog.instance(cid) for cid in catalog.catalog_ids()]
    if group == "duals":
        return [dualize(d) for d in _doctrines("catalog")]
    if group == "windows":
        return [build() for build in WINDOWS.values()]
    return theorems.enumerate_doctrines(max_base=4, max_fiber=3,
                                        budget=500_000, max_emit=10_000)


@pytest.mark.parametrize("group", ["catalog", "duals", "windows",
                                   "criterion 8"])
def test_lattice_ops_match_the_eager_reference_on_every_fiber(group):
    # one poset per order: equal orders have equal tables
    fibers = {(p.elements, p.uppers): p
              for d in _doctrines(group) for p in d.fibers.values()}
    for p in fibers.values():
        assert_lattice_ops_match_reference(p)


def test_ps20_checks_build_only_the_meet_of_s8(monkeypatch):
    # S8 is a triple carrier: only the equality check reads its meets
    monkeypatch.setattr(catalog, "_POWERSET_FIBERS", {})
    d = catalog.powerset_finset(2, 0)
    theorems.classify(d)
    theorems.check_all(d)
    assert list(vars(d.fibers["S8"].ops)) == ["meet"]


# bytes still held after the checks below on a fresh PS(2,0), measured
# (Python 3.11) when every lattice table was built at once and the window's
# tables were scanned pair by pair; a column the length of the composition
# table, kept on the base, would go past it
HELD_BEFORE_LAZY_TABLES = 2_173_993


def test_ps20_checks_hold_no_more_memory_than_the_eager_tables(monkeypatch):
    monkeypatch.setattr(catalog, "_POWERSET_FIBERS", {})
    d = catalog.powerset_finset(2, 0)
    gc.collect()
    tracemalloc.start()
    try:
        assert d.base.validate() and validate_doctrine(d)
        theorems.classify(d)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= HELD_BEFORE_LAZY_TABLES


# bytes a build holds at most (held 1.36 and 0.92 MB, Python 3.11, with the
# margin the bound had before): a built window tabulates its composition
# (122,840 entries on PS(2,0), 77,581 on SIER) only on first read; as three
# columns of arrow indices built with it, it held 2.14 and 1.40 MB, and as a
# dict of (g, f) keys, 13.2 and 7.4 MB
HELD_BY_A_BUILD = {"PS(2,0)": 1_600_000, "SIER": 1_150_000}


@pytest.mark.parametrize("cid", ["PS(2,0)", "SIER"])
def test_a_built_window_holds_one_composition_table(monkeypatch, cid):
    # a second copy of the table, kept or dropped, or a transient the size of
    # the arrows' rows, shows as a traced peak above what the build holds
    monkeypatch.setattr(catalog, "_CACHE", {})
    monkeypatch.setattr(catalog, "_POWERSET_FIBERS", {})
    gc.collect()
    tracemalloc.start()
    try:
        d = catalog.instance(cid)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d.base.compose_table) > 50_000
    assert held <= HELD_BY_A_BUILD[cid], held
    assert peak <= 1.1 * held, (peak, held)


def _record_columns(monkeypatch) -> list:
    """The ``outer`` of every ``ComposeColumns.columns_of`` call from now on."""
    outers = []
    columns_of = fincat.ComposeColumns.columns_of
    monkeypatch.setattr(fincat.ComposeColumns, "columns_of",
                        lambda table, outer: outers.append(outer)
                        or columns_of(table, outer))
    return outers


def _tabulated(base, outers) -> bool:
    """Did a call cover every arrow, tabulating the whole table?"""
    return any(len(outer) == len(base.arrows) for outer in outers)


@pytest.mark.parametrize("cid", ["PS(2,0)", "SIER"])
def test_no_command_tabulates_the_composition_columns(monkeypatch, cid):
    monkeypatch.setattr(catalog, "_CACHE", {})
    outers = _record_columns(monkeypatch)
    d = catalog.instance(cid)
    theorems.check_all(d)
    base = d.base
    try:  # as derive --what sigma does; SIER is not elementary
        for f in base.window_arrows:
            for alpha in d.fibers[base.dom(f)].elements:
                derived_sigma(d, f, alpha)
    except StructureMissing:
        assert cid == "SIER"
    theorems.classify(d)
    # validate_doctrine and validate prove their laws over the generators
    assert validate_doctrine(d) and base.validate()
    assert outers and not _tabulated(base, outers)


# generators and (generator, arrow) pairs of each built catalog base;
# TRIV has the base of PS(1,1)
GENERATORS = {"PS(2,0)": (126, 5669), "PS(1,1)": (49, 1559),
              "SIER": (201, 7996), "TRIV": (49, 1559)}


@pytest.mark.parametrize("cid", GENERATORS)
def test_validation_proves_functoriality_over_the_generators(monkeypatch, cid):
    monkeypatch.setattr(catalog, "_CACHE", {})
    outers = _record_columns(monkeypatch)
    read = []
    composes_to = doctrine._composes_to
    monkeypatch.setattr(doctrine, "_composes_to",
                        lambda *maps: read.append("scan") or composes_to(*maps))
    d = catalog.instance(cid)
    gens, columns = d.base.generators
    assert (len(gens), len(columns[0])) == GENERATORS[cid]
    assert validate_doctrine(d)
    assert not read and not _tabulated(d.base, outers)


@pytest.mark.parametrize("cid", ["PS(2,0)", "SIER"])
def test_the_first_read_of_the_columns_makes_no_copy(cid):
    base = catalog.instance(cid).base
    gc.collect()
    tracemalloc.start()
    try:
        columns = base.compose_table.columns_of(range(len(base.arrows)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(len(column) * column.itemsize for column in columns)
    assert own == 3 * 2 * len(base.compose_table)
    assert peak <= 1.1 * own, (peak, own)
