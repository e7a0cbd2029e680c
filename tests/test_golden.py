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

``test_enumerated_reports_match_digest`` gates the reports that no golden
file holds: every classification, witness report and theorem report of an
enumerated sample, hashed in the order the package writes their keys.
"""

import hashlib
import json
from pathlib import Path

import pytest

from doctrinelab import catalog, cli, theorems
from doctrinelab.constructions import dualize
from doctrinelab.recheck import recheck

GOLDEN = Path(__file__).parent / "data" / "golden"
DERIVATIONS = ("sigma", "implication", "cocomp", "dual", "graph", "epsilon")


def _cases():
    for cid in catalog.catalog_ids():
        tag = cid.replace("(", "").replace(")", "").replace(",", "")
        yield f"validate_{tag}.json", ["validate", cid]
        yield f"classify_{tag}.json", ["classify", cid]
        yield f"theorem_{tag}.jsonl", ["theorem", cid, "--all"]
        for what in DERIVATIONS:
            yield f"derive_{what}_{tag}.json", ["derive", cid, "--what", what]
    yield "search.jsonl", ["search", "--filter", "full_comp&!classical"]


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
