"""Malformed instance documents: each one exits 2 with one positioned
``error:`` line, never an internal error."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doctrinelab import cli, ioformat, theorems
from doctrinelab.constructions import dualize
from test_cli import write_instance


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
