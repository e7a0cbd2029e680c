"""Machine reports compared byte for byte with frozen copies.

The files under ``data/golden/`` were written by these commands, ``TAG``
being the catalog id without parentheses and commas (``PS(2,0)`` -> ``PS20``)::

    doctrinelab validate ID --json validate_TAG.json
    doctrinelab classify ID --json classify_TAG.json
    doctrinelab theorem ID --all --json theorem_TAG.jsonl
    doctrinelab search --filter "full_comp&!classical" --json search.jsonl

for each of the five catalog ids.  The commands run through ``cli.main`` in
this process, so they reuse the session's cached catalog instances.
"""

from pathlib import Path

import pytest

from doctrinelab import catalog, cli

GOLDEN = Path(__file__).parent / "data" / "golden"


def _cases():
    for cid in catalog.catalog_ids():
        tag = cid.replace("(", "").replace(")", "").replace(",", "")
        yield f"validate_{tag}.json", ["validate", cid]
        yield f"classify_{tag}.json", ["classify", cid]
        yield f"theorem_{tag}.jsonl", ["theorem", cid, "--all"]
    yield "search.jsonl", ["search", "--filter", "full_comp&!classical"]


@pytest.mark.parametrize("name,argv", list(_cases()),
                         ids=[name for name, _ in _cases()])
def test_report_matches_golden(tmp_path, capsys, name, argv):
    out = tmp_path / name
    assert cli.main([*argv, "--json", str(out)]) in (0, 1)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
