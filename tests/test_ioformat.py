"""Instance documents: each malformed one exits 2 with one positioned
``error:`` line, never an internal error; and the canonical text is what
``json.dumps`` writes for the whole document."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doctrinelab import catalog, cli, ioformat, theorems
from doctrinelab.constructions import dualize
from doctrinelab.doctrine import Doctrine
from test_cli import DECLARED_CASES, write_instance


def put(*path_and_value):
    """An edit setting the node at ``path`` to ``value``."""
    *path, last, value = path_and_value

    def edit(doc):
        node = doc
        for key in path:
            node = node[key]
        node[last] = value
    return edit


def drop(*path):
    """An edit deleting the node at ``path``."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def append(*path_and_value):
    """An edit appending ``value`` to the list at ``path``."""
    *path, value = path_and_value

    def edit(doc):
        node = doc
        for key in path:
            node = node[key]
        node.append(value)
    return edit


# Edits of the 2-object chain document (objects L0, L1; arrows L0>L0, L0>L1,
# L1>L1; fibers u0 <= u1 over both) and the JSON position each is rejected at.
REJECTIONS = [
    pytest.param(put("base", "objects", ["L0", "L1", "L0"]), "$.base.objects",
                 id="duplicate-object"),
    pytest.param(put("base", "arrows", 0, "dom", "NOPE"), "$.base.arrows[0].dom",
                 id="dangling-dom"),
    pytest.param(put("base", "arrows", 0, "cod", "NOPE"), "$.base.arrows[0].cod",
                 id="dangling-cod"),
    pytest.param(put("base", "arrows", 1, "id", "L0>L0"), "$.base.arrows[1].id",
                 id="duplicate-arrow-id"),
    pytest.param(drop("base", "identity", "L1"), "$.base.identity",
                 id="missing-identity"),
    pytest.param(put("base", "identity", "L1", "nope"), "$.base.identity.L1",
                 id="dangling-identity"),
    pytest.param(put("base", "compose", 0, ["L0>L0", "L0>L0"]),
                 "$.base.compose[0]", id="compose-entry-of-two"),
    pytest.param(put("base", "compose", 0, 2, "nope"), "$.base.compose[0]",
                 id="compose-undeclared-arrow"),
    pytest.param(append("base", "compose", ["L0>L0", "L0>L0", "L0>L1"]),
                 "$.base.compose[4]", id="compose-non-functional"),
    pytest.param(put("base", "products", 0, "obj", "nope"), "$.base.products[0]",
                 id="product-undeclared-object"),
    pytest.param(put("base", "products", 0, "p1", "nope"), "$.base.products[0]",
                 id="product-undeclared-arrow"),
    pytest.param(put("base", "terminal", "nope"), "$.base.terminal",
                 id="undeclared-terminal"),
    pytest.param(drop("fibers", "L1"), "$.fibers", id="missing-fiber"),
    pytest.param(put("fibers", "L0", "leq", [["u0", "zz"]]), "$.fibers.L0",
                 id="order-pair-unknown-element"),
    pytest.param(put("fibers", "L0", "leq", [["u0", "u1"], ["u1", "u0"]]),
                 "$.fibers.L0", id="not-a-poset"),
    pytest.param(put("fibers", "L0", "elements", ["u0", "u1", "u0"]),
                 "$.fibers.L0", id="duplicate-element"),
    pytest.param(drop("reindex", "L0>L1"), "$.reindex", id="missing-reindex-map"),
    pytest.param(drop("reindex", "L0>L1", "u1"), "$.reindex.L0>L1",
                 id="missing-image"),
    pytest.param(put("reindex", "L0>L1", "zz", "u0"), "$.reindex.L0>L1",
                 id="key-outside-fiber"),
    pytest.param(put("reindex", "L0>L1", "u0", "zz"), "$.reindex.L0>L1",
                 id="value-outside-fiber"),
    pytest.param(put("base", "identity", "L0", "L0>L1"), "$.base",
                 id="identity-not-endo"),
    pytest.param(put("base", "window", ["nope"]), "$.base",
                 id="undeclared-window-object"),
    pytest.param(put("schema_version", 2), "$.schema_version",
                 id="schema-version"),
    pytest.param(put("schema_version", True), "$.schema_version",
                 id="schema-version-true"),
    pytest.param(put("schema_version", 1.0), "$.schema_version",
                 id="schema-version-float"),
    pytest.param(drop("base"), "$", id="missing-base"),
    pytest.param(drop("fibers"), "$", id="missing-fibers"),
    pytest.param(drop("reindex"), "$", id="missing-reindex"),
    pytest.param(drop("base", "arrows", 0, "id"), "$.base.arrows[0]",
                 id="arrow-without-id"),
    pytest.param(put("base", "arrows", 0, "id", 7), "$.base.arrows[0].id",
                 id="arrow-id-not-a-string"),
    pytest.param(put("base", "objects", "L0"), "$.base.objects",
                 id="objects-not-a-list"),
    pytest.param(put("base", "identity", ["L0>L0"]), "$.base.identity",
                 id="identity-not-an-object"),
    pytest.param(put("fibers", []), "$.fibers", id="fibers-not-an-object"),
    pytest.param(put("fibers", "L0", "elements", "u0"), "$.fibers.L0.elements",
                 id="elements-not-a-list"),
    pytest.param(put("fibers", "L0", "leq", 3), "$.fibers.L0.leq",
                 id="leq-not-a-list"),
    pytest.param(put("reindex", []), "$.reindex", id="reindex-not-an-object"),
    # kinds that used to escape as internal errors (exit 3)
    pytest.param(put("fibers", "L0", "leq", [["u0"]]), "$.fibers.L0.leq[0]",
                 id="order-pair-of-one"),
    pytest.param(put("fibers", "L0", 5), "$.fibers.L0", id="fiber-not-an-object"),
    pytest.param(put("reindex", "L0>L1", 5), "$.reindex.L0>L1",
                 id="reindex-map-not-an-object"),
    pytest.param(put("base", "products", 0, 5), "$.base.products[0]",
                 id="product-row-not-an-object"),
    pytest.param(put("base", "products", None), "$.base.products",
                 id="products-null"),
    pytest.param(put("base", "presentation", 5), "$.base.presentation",
                 id="presentation-not-an-object"),
    pytest.param(put("base", "presentation", None), "$.base.presentation",
                 id="presentation-null"),
    pytest.param(put("base", "presentation", "spec", 5),
                 "$.base.presentation.spec", id="spec-not-a-list"),
    pytest.param(put("base", "presentation", "spec", None),
                 "$.base.presentation.spec", id="spec-null"),
    pytest.param(put("base", "terminal", ["L1"]), "$.base.terminal",
                 id="terminal-a-list"),
    # null is a value only for terminal
    pytest.param(put("declared", None), "$.declared", id="declared-null"),
    pytest.param(put("meta", "name", None), "$.meta.name", id="name-null"),
]


@pytest.mark.parametrize("edit,position", REJECTIONS)
def test_malformed_document_exits_2_at_its_position(tmp_path, capsys, edit,
                                                    position):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {position}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc,position", [
    ([1, 2], "$"),
    ({"schema_version": 1, "catalog": {"id": "NOPE"}}, "$.catalog.id"),
    ({"schema_version": 1, "catalog": {}}, "$.catalog"),
    ({"schema_version": True, "catalog": {"id": "PS(1,1)"}}, "$.schema_version"),
    ({"schema_version": 1.0, "catalog": {"id": "PS(1,1)"}}, "$.schema_version"),
])
def test_malformed_document_without_base_exits_2(tmp_path, capsys, doc,
                                                 position):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {position}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"schema_version": 1, "meta": "\xff"}'),
], ids=["directory", "not-utf-8"])
def test_unreadable_instance_file_exits_2_at_its_path(tmp_path, capsys, make):
    path = tmp_path / "inst.json"
    make(path)
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


def test_null_terminal_is_accepted(tmp_path):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    doc["base"]["terminal"] = None
    path.write_text(json.dumps(doc))
    assert ioformat.parse_file(str(path)).base.terminal_obj is None


def test_explicit_documents_parse_back_to_the_same_bytes():
    # criterion 8's first 300 doctrines and their duals, all written with a
    # base block (criterion 9 covers the catalog block)
    for d in itertools.islice(theorems.enumerate_doctrines(
            max_base=4, max_fiber=3, budget=500_000, max_emit=10_000), 300):
        for e in (d, dualize(d)):
            text = ioformat.serialize(e)
            assert "base" in ioformat.to_document(e)
            assert ioformat.serialize(
                ioformat.parse_document(ioformat.to_document(e))) == text


def _nodes(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


# any JSON value; strings are drawn partly from the document's own names,
# so that a replaced node often still resolves
_NAMES = st.sampled_from(["L0", "L1", "L0>L0", "L0>L1", "L1>L1", "u0", "u1"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3) | _NAMES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3) | _NAMES, inner,
                                     max_size=3)),
    max_leaves=6)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_replaced_node_never_exits_3(tmp_path, data):
    path = write_instance(tmp_path)
    doc = json.loads(path.read_text())
    node, value = data.draw(st.sampled_from(list(_nodes(doc)))), data.draw(_JSON)
    if node:
        put(*node, value)(doc)
    else:
        doc = value
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        codes = [cli.main([command, str(path)])
                 for command in ("validate", "classify")]
    assert all(code in (0, 1, 2) for code in codes), out.getvalue()


def reference(d) -> str:
    """The canonical text, as ``json.dumps`` writes the whole document."""
    return json.dumps(ioformat.to_document(d), sort_keys=True, indent=2) + "\n"


def text_digest(texts) -> str:
    """sha256 of the texts, one after another, as UTF-8."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _string(text: str) -> str:
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code > 0xFFFF:  # a surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 + (code >> 10):04x}"
                       f"\\u{0xDC00 + (code & 0x3FF):04x}")
        else:
            out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def encode(node, depth: int = 0) -> str:
    """``node`` as ``json.dumps(node, sort_keys=True, indent=2)`` writes it,
    written here without the ``json`` module, to check ``serialize``
    against."""
    if node is None or isinstance(node, bool):
        return {None: "null", True: "true", False: "false"}[node]
    if isinstance(node, int):
        return str(node)
    if isinstance(node, str):
        return _string(node)
    if isinstance(node, dict):
        items = [f"{_string(k)}: {encode(node[k], depth + 1)}"
                 for k in sorted(node)]
        ends = "{}"
    else:
        items = [encode(v, depth + 1) for v in node]
        ends = "[]"
    if not items:
        return ends
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return ends[0] + inner + ("," + inner).join(items) + outer + ends[1]


# sha256 of the texts below, frozen while ``serialize`` was written apart from
# ``reference``: now that both are one expression, only this digest checks them
SAMPLE_TEXT_DIGEST = (
    "306a660116abd3ba3cc6a23eb21c27a5ee77680905ddd2182892f0f14f0210f4")
# the same for the texts of the tests below that compare with ``reference``,
# frozen from the ``serialize`` that wrote the goldens
CATALOG_TEXT_DIGESTS = {
    "PS(2,0)": (
        "f04dd809425468199e1b1a9549900a058b1396e957d0f7c93384a7c8dc686922"),
    "PS(1,1)": (
        "502096ef18c7c33d7011c675ea473f58554d6fb6cda8f1f7e717405ddcaf951c"),
    "SIER": (
        "69c9fa40df4f0ae4781bb20c9a8b50fa4fd51986f0f388f951a4f36dba68f6f9"),
    "TRIV": (
        "30c54f272ba8fb98b95a8b93d9f9648f9258549fb2573182c6e287ac933b154e"),
    "SL3": (
        "7b29a95df4b609ec31b1f78c4e44b682cb98cc7eefd749a3c28f3f3f29f4af22"),
}
DECLARED_TEXT_DIGEST = (
    "d3a3b5b3bde09c72c664e9890c6e24c7e074a107ee7c8f4b49a608feadafbd6a")
ESCAPED_TEXT_DIGEST = (
    "abbb601968b6394db407809b550de0035989eba0f3717f74842a3bc7245e9d40")
SHARED_PARTS_TEXT_DIGEST = (
    "667f4217003cafb87da2b05db0a35745f9d3bba44896ca96e3275939fa4319e6")


def test_serialize_is_json_dumps_on_the_enumerated_sample():
    # every 10th of criterion 8's 10,000 doctrines, and their duals
    sample = list(itertools.islice(theorems.enumerate_doctrines(
        max_base=4, max_fiber=3, budget=500_000, max_emit=10_000), 0, None, 10))
    assert len(sample) == 1000
    assert {len(d.base.objects) for d in sample} == {1, 2, 3, 4}
    digest = hashlib.sha256()
    for d in sample:
        for e in (d, dualize(d)):
            text = ioformat.serialize(e)
            assert text == reference(e)
            digest.update(text.encode())
    assert digest.hexdigest() == SAMPLE_TEXT_DIGEST


@pytest.mark.parametrize("cid", catalog.catalog_ids())
def test_serialize_is_json_dumps_on_the_catalog(cid):
    d = catalog.instance(cid)
    assert ioformat.serialize(d) == reference(d)
    assert text_digest([ioformat.serialize(d)]) == CATALOG_TEXT_DIGESTS[cid]


def test_serialize_is_json_dumps_with_a_declared_block(tmp_path):
    every_kind = ioformat.parse_document({
        "schema_version": 1, "catalog": {"id": "PS(1,1)", "dual": False},
        "declared": {kind: valid for kind, (valid, _) in DECLARED_CASES.items()}})
    doc = json.loads(write_instance(tmp_path).read_text())
    doc["declared"] = {"comprehension": {"L1": {"u1": "L1>L1"}}}
    explicit = ioformat.parse_document(doc)
    for d in (every_kind, explicit):
        assert d.declared
        assert ioformat.serialize(d) == reference(d)
    assert text_digest(ioformat.serialize(d) for d in (every_kind, explicit)) \
        == DECLARED_TEXT_DIGEST


def _renamed(node, names):
    """``node`` with every string, key or value, that ``names`` maps renamed."""
    if isinstance(node, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, names) for v in node]
    return names.get(node, node) if isinstance(node, str) else node


def test_serialize_is_json_dumps_with_escaped_names(tmp_path):
    names = {"L0": 'L"0\\', "L1": "L1\n\u00e9", "L0>L0": 'i": d',
             "L0>L1": "f\u00fc\u2603", "L1>L1": "\\id\n",
             "u0": 'u": 0', "u1": "\u03b1\n\"", "instance": 'n": \\\n'}
    doc = _renamed(json.loads(write_instance(tmp_path).read_text()), names)
    doc["meta"]["name"] = names["instance"]
    d = ioformat.parse_document(doc)
    assert set(d.base.objects) == {names["L0"], names["L1"]}
    text = ioformat.serialize(d)
    assert text == reference(d)
    assert '"u\\": 0"' in text and "\\u2603" in text
    assert text_digest([text]) == ESCAPED_TEXT_DIGEST


# nested JSON values of the kinds a document holds, empty containers included
_KEYS = st.text(max_size=3) | st.sampled_from(['"', "\\", "\n", "\u00e9", '": '])
_NESTED = st.recursive(
    st.none() | st.booleans() | st.integers() | _KEYS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner,
                                                                max_size=3),
    max_leaves=10)


@functools.cache
def _first_doctrine():
    return next(theorems.enumerate_doctrines(max_base=2, max_fiber=2,
                                             min_fiber=2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=_KEYS, declared=st.dictionaries(_KEYS, _NESTED, max_size=4))
def test_serialize_is_json_dumps_with_any_name_and_declared_block(name,
                                                                  declared):
    d = _first_doctrine()
    e = Doctrine(d.base, d.fibers, d.reindex, name=name, declared=declared)
    assert ioformat.serialize(e) == reference(e)
    assert ioformat.serialize(e) == encode(ioformat.to_document(e)) + "\n"


def test_doctrines_sharing_their_parts_serialize_apart(tmp_path):
    d = ioformat.parse_file(str(write_instance(tmp_path)))
    variants = [Doctrine(d.base, d.fibers, d.reindex, name=name, declared=block)
                for name, block in (("one", None), ("two", None), ("one", {
                    "comprehension": {"L1": {"u1": "L1>L1"}}}))]
    texts = [ioformat.serialize(e) for e in (d, *variants)]
    assert len(set(texts)) == 4
    assert texts == [reference(e) for e in (d, *variants)]
    assert text_digest(texts) == SHARED_PARTS_TEXT_DIGEST
    # parsing the text back builds fresh parts with the same text
    again = ioformat.parse(texts[0])
    assert again.base is not d.base
    assert all(again.fibers[o] is not d.fibers[o] for o in d.fibers)
    assert all(again.reindex[n] is not d.reindex[n] for n in d.reindex)
    assert ioformat.serialize(again) == texts[0]
    # and the same doctrine writes the same text with its memo cleared
    d._cache.clear()
    assert ioformat.serialize(d) == texts[0]


# the instance hashes of the catalog and of five enumerated doctrines, in an
# interpreter that has neither built-in sha256 module, so that ``ioformat``
# takes ``hashlib.sha256``
FALLBACK_HASHES = """
import itertools, json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
import hashlib
from doctrinelab import catalog, ioformat, theorems
assert ioformat.sha256 is hashlib.sha256
doctrines = [catalog.instance(cid) for cid in catalog.catalog_ids()]
doctrines += itertools.islice(theorems.enumerate_doctrines(
    max_base=4, max_fiber=3), 0, 100, 20)
print(json.dumps([ioformat.instance_hash(d) for d in doctrines]))
"""


def test_the_hashlib_fallback_hashes_alike():
    parent = str(Path(ioformat.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-c", FALLBACK_HASHES],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": parent})
    assert r.returncode == 0, r.stderr
    doctrines = [catalog.instance(cid) for cid in catalog.catalog_ids()]
    doctrines += itertools.islice(theorems.enumerate_doctrines(
        max_base=4, max_fiber=3), 0, 100, 20)
    assert len(doctrines) == 10
    hashes = [ioformat.instance_hash(d) for d in doctrines]
    assert json.loads(r.stdout) == hashes
    assert hashes == [
        hashlib.sha256(ioformat.serialize(d).encode()).hexdigest()[:16]
        for d in doctrines]
