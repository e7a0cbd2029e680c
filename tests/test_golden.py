"""Machine reports compared byte for byte with frozen copies.

The files under ``data/golden/`` were written by these commands, ``TAG``
being the catalog id without parentheses and commas (``PS(2,0)`` -> ``PS20``)::

    doctrinelab validate ID --json validate_TAG.json
    doctrinelab classify ID --json classify_TAG.json
    doctrinelab theorem ID --all --json theorem_TAG.jsonl
    doctrinelab derive ID --what WHAT --json derive_WHAT_TAG.json
    doctrinelab search --filter "full_comp&!classical" --json search.jsonl

for each of the five catalog ids and each ``WHAT`` of ``DERIVATIONS``.  The
commands run through ``cli.main`` in this process, so they reuse the
session's cached catalog instances.

Those reports embed catalog-block documents.  ``theorem_TAG.jsonl`` for
each ``TAG`` of ``INSTANCE_FILES`` gates the explicit ``base``, ``fibers``
and ``reindex`` document instead::

    doctrinelab theorem data/TAG.json --all --json theorem_TAG.jsonl

``data/enum29.json`` is ``ioformat.serialize`` of the enumerated doctrine
``enum-2-9``, one of the two in criterion 8's space on which all 18
theorems have their hypotheses satisfied, and ``data/enum29op.json`` that
of its dual.

``test_enumerated_reports_match_digest`` gates the reports that no golden
file holds: every classification, witness report and theorem report of an
enumerated sample, hashed in the order the package writes their keys.
``test_built_window_matches_digest`` gates the built catalog windows the
same way: objects, arrows, composition table, identities, products, arrow
tables and reindexing index tables, each in the order the package holds it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from doctrinelab import catalog, cli, theorems
from doctrinelab.constructions import dualize
from doctrinelab.recheck import recheck

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
DERIVATIONS = ("sigma", "implication", "cocomp", "dual", "graph", "epsilon")
INSTANCE_FILES = ("enum29", "enum29op")


def _cases():
    for cid in catalog.catalog_ids():
        tag = cid.replace("(", "").replace(")", "").replace(",", "")
        yield f"validate_{tag}.json", ["validate", cid]
        yield f"classify_{tag}.json", ["classify", cid]
        yield f"theorem_{tag}.jsonl", ["theorem", cid, "--all"]
        for what in DERIVATIONS:
            yield f"derive_{what}_{tag}.json", ["derive", cid, "--what", what]
    yield "search.jsonl", ["search", "--filter", "full_comp&!classical"]
    for tag in INSTANCE_FILES:
        yield f"theorem_{tag}.jsonl", ["theorem", str(DATA / f"{tag}.json"), "--all"]


@pytest.mark.parametrize("name,argv", list(_cases()),
                         ids=[name for name, _ in _cases()])
def test_report_matches_golden(tmp_path, capsys, name, argv):
    out = tmp_path / name
    assert cli.main([*argv, "--json", str(out)]) in (0, 1)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# sha256 of the reports below, frozen when the name-keyed tables were
# replaced by index tables; any change to a verdict or payload moves it
ENUMERATED_DIGEST = (
    "ee11d2154ecc12ecbbd7a9fc34d58e98c46ac473fe8891089defbc9174b7d67e")


def _sample():
    """Criterion 8's first 300 enumerated doctrines and four catalog
    instances, each followed by its dual."""
    for d in theorems.enumerate_doctrines(max_base=4, max_fiber=3,
                                          budget=500_000, max_emit=300):
        yield d
        yield dualize(d)
    for cid in ("PS(1,1)", "SIER", "TRIV", "SL3"):
        d = catalog.instance(cid)
        yield d
        yield dualize(d)


def test_enumerated_reports_match_digest():
    digest = hashlib.sha256()
    refuted = unchecked = 0
    for d in _sample():
        flags = theorems.classify(d)
        reports = theorems.check_all(d)
        record = {"name": d.name,
                  "flags": {n: v.to_json() for n, v in flags.items()},
                  "witnesses": theorems.witness_report(d),
                  "theorems": [r.to_json() for r in reports]}
        digest.update(json.dumps(record).encode() + b"\n")
        verdicts = [*flags.values()]
        for r in reports:
            verdicts.extend(v for _, v in r.hypotheses)
            verdicts.append(r.conclusion)
        for v in verdicts:
            if v.is_refuted:
                refuted += 1
                unchecked += not recheck(d, v)
    assert refuted > 0 and unchecked == 0
    assert digest.hexdigest() == ENUMERATED_DIGEST


def _window_record(d) -> bytes:
    """The built base of ``d`` and its reindexing index tables, in the
    order the package holds them."""
    base = d.base
    record = {
        "objects": list(base.objects),
        "arrows": [[n, a.dom, a.cod] for n, a in base.arrows.items()],
        "compose": [[g, f, gf] for (g, f), gf in base.compose_table.items()],
        "identity": list(base.identity.items()),
        "products": [[list(k), [r.left, r.right, r.obj, r.proj1, r.proj2]]
                     for k, r in base.products.items()],
        "tables": (None if base.tables is None
                   else [[n, list(t)] for n, t in base.tables.items()]),
        "reindex": [[n, list(m.idx_table)] for n, m in d.reindex.items()],
    }
    return json.dumps(record).encode()


U_S = {k: catalog.SIERPINSKI_SPACES[k] for k in ("U", "S")}

# sha256 of each window's record, frozen before the builder composed byte
# images; any change to an arrow, its order or a table moves it
WINDOW_DIGESTS = {
    "PS(2,0)": (
        "b26073e873d775d058e01aae203f192e88b2c68b052c3f39fc13611119a43342"),
    "PS(1,1)": (
        "c82a8978969e7d8ad8cabf8b6ca7f45d3d32e7d178f56b722591d47c66444121"),
    "SIER": (
        "0f2b0ce523ecd7d46df0fc5cc3dd843009acc93383ac82ac5082de707734b731"),
    "TRIV": (
        "73e600d0f0fd4cc2873dac383091b854158f8874d5481779dd1e9e38b8549337"),
    "SL3": (
        "90f864d20f725d0494c5903c60009421bbbc35690ec7621658ef559667f5e0bd"),
    "PS(1,0)": (
        "0c2fb6bf999b78876fbfd2539f04947c608b488e82dd22be7b96a4addc4c5f75"),
    "S": (
        "dc19ead16b3da6623982f71263732578042d2a3b74818b3b666bfae4958ed5ad"),
    "U,S": (
        "2217352c1d11fbdab30bd03e87cc02153c68195f89bad705c03a18a5e543aa7a"),
}

WINDOWS = {
    **{cid: lambda cid=cid: catalog.instance(cid)
       for cid in (*catalog.catalog_ids(), "PS(1,0)")},
    "S": lambda: catalog.openset_space({"S": catalog.SIERPINSKI_SPACES["S"]}),
    "U,S": lambda: catalog.openset_space(U_S),
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_built_window_matches_digest(window):
    digest = hashlib.sha256(_window_record(WINDOWS[window]())).hexdigest()
    assert digest == WINDOW_DIGESTS[window]
