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
``test_built_window_content_matches_digest`` gates the same content with
every part sorted, so it holds for any order the builder finds it in.
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


def _content_record(d) -> bytes:
    """The record of :func:`_window_record` with each part sorted."""
    base = d.base
    record = {
        "objects": sorted(base.objects),
        "arrows": sorted([n, a.dom, a.cod] for n, a in base.arrows.items()),
        "compose": sorted([g, f, gf]
                          for (g, f), gf in base.compose_table.items()),
        "identity": sorted(base.identity.items()),
        "products": sorted([list(k), [r.left, r.right, r.obj, r.proj1, r.proj2]]
                           for k, r in base.products.items()),
        "tables": (None if base.tables is None
                   else sorted([n, list(t)] for n, t in base.tables.items())),
        "reindex": sorted([n, list(m.idx_table)] for n, m in d.reindex.items()),
    }
    return json.dumps(record).encode()


U_S = {k: catalog.SIERPINSKI_SPACES[k] for k in ("U", "S")}

# sha256 of each window's record, frozen when the builder began to close a
# window over its generators and to tabulate its composites, f by f, on
# first read; any change to an arrow, its order or a table moves it
WINDOW_DIGESTS = {
    "PS(2,0)": (
        "cc7aaf07cb001eb6771c7a36ed7883087b069c1c066c83d79eb25cb7e8a78319"),
    "PS(1,1)": (
        "e9775a997c5d4ef663f8b9b53feb81315aab91e38321e5c8e0eab7706999eb9f"),
    "SIER": (
        "da5891561ea52a5fa9771d59ff4fbcab061463f9ce05dcb34b722ca3a683dd43"),
    "TRIV": (
        "1bfe1481956d8abcdfa577f50deb89da097f21fc891c578c33da0a5f0ba903cf"),
    "SL3": (
        "90f864d20f725d0494c5903c60009421bbbc35690ec7621658ef559667f5e0bd"),
    "PS(1,0)": (
        "b586146ab935c2257964f6186f251ebdde5b81f7a49ca84855c883c64d612205"),
    "S": (
        "afdf0b72d787585d035e9bc40ea61485b8b3ccc9a082c79782e8e18620ace8be"),
    "U,S": (
        "0e1d4396604ef8085b47bb248a3d78673f9af1b1fbda076d955330f19b86fea1"),
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


# sha256 of each window's sorted record, frozen while the builder closed a
# window depth-first; only a change to the window's content moves it
CONTENT_DIGESTS = {
    "PS(2,0)": (
        "1168efac4530f298a746e48fa4dc99dead1b260d2b650860296a2141c6e8f509"),
    "PS(1,1)": (
        "bdd6fb1205947fd993d83327ed84d1b260d22fb45fa73f2d8331848ee2b39a45"),
    "SIER": (
        "5b7e3b8b59688792278b17e6d9185c7b720b0c161be4c6f2edc76b4c549b3f4b"),
    "TRIV": (
        "29bcebd0168f04f66e67d1fda563320b4a087b57388b509a182f54c3d4b427e9"),
    "SL3": (
        "bcea0750afa6477ae56ee1871e4c2736a03a71cb08d8872690e7ac2ec628cff7"),
    "PS(1,0)": (
        "a2af9f049c839fc6897b4032bed7e5402d37d088a15d59925f31324d004a8936"),
    "S": (
        "003e35dc907dcdde700d8661bb670d11c637c74ab0ef00a80b6f89464c8fca96"),
    "U,S": (
        "f319127e4cae8a232bb56dbb7cd67a6594fe6e50c4a4362247fb6f24207fd536"),
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_built_window_content_matches_digest(window):
    digest = hashlib.sha256(_content_record(WINDOWS[window]())).hexdigest()
    assert digest == CONTENT_DIGESTS[window]
