"""The instance file format (JSON) and canonical serialization.

A document either names a catalog generator (``catalog`` block, optionally
order-dualized) or spells out explicit tables: ``base`` (objects, arrows,
identity, composition triples, product rows, terminal), ``fibers`` (elements
and order pairs per object), ``reindex`` (element map per arrow), an optional
``declared`` witness block, and ``meta``.

Canonical form: keys sorted, id lists sorted, two-space indent; the instance
hash is the sha256 of the canonical text, so identical instances hash
identically across runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from . import catalog as _catalog
from .doctrine import Doctrine, memoized
from .fincat import Arrow, FinCategory, Presentation, Product
from .poset import FinPoset, MonotoneMap
from .verdicts import ParseError

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "serialize", "to_document", "parse",
           "parse_document", "parse_file", "instance_hash", "canonical_json"]


def canonical_json(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@memoized
def to_document(d: Doctrine) -> dict:
    """The instance document, built once per doctrine: do not mutate it."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": d.name, "window": d.window_descriptor},
    }
    if d.source.get("kind") == "catalog":
        doc["catalog"] = {"id": d.source["id"],
                          "dual": bool(d.source.get("dual", False))}
    else:
        base = d.base
        doc["base"] = {
            "objects": list(base.objects),
            "window": list(base.window),
            "presentation": {"kind": base.presentation.kind,
                             "spec": list(base.presentation.spec),
                             "truncated": base.presentation.truncated},
            "arrows": [{"id": n, "dom": a.dom, "cod": a.cod}
                       for n, a in sorted(base.arrows.items())],
            "identity": {o: base.identity[o] for o in base.objects},
            "compose": sorted([g, f, gf]
                              for (g, f), gf in base.compose_table.items()),
            "products": [{"left": r.left, "right": r.right, "obj": r.obj,
                          "p1": r.proj1, "p2": r.proj2}
                         for _, r in sorted(base.products.items())],
            "terminal": base.terminal_obj,
        }
        if tuple(base.power_pool) != tuple(base.window):
            doc["base"]["power_pool"] = list(base.power_pool)
        doc["fibers"] = {
            o: {"elements": list(p.elements),
                "leq": sorted([a, b] for a, b in p.pairs() if a != b)}
            for o, p in d.fibers.items()}
        doc["reindex"] = {n: m.table for n, m in sorted(d.reindex.items())}
    if d.declared:
        doc["declared"] = d.declared
    return doc


def serialize(d: Doctrine) -> str:
    return canonical_json(to_document(d))


@memoized
def instance_hash(d: Doctrine) -> str:
    return hashlib.sha256(serialize(d).encode()).hexdigest()[:16]


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _need(doc: Mapping, key: str, pos: str, kind=None):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}", pos)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{key!r} has wrong type", f"{pos}.{key}")
    return value


# The witness tables of a ``declared`` block: ``str``; ``[s]``, a list of
# ``s``; ``{None: s}``, an object of ``s``; or an object with (at least) the
# given keys.  Names in them are resolved by ``_resolve_declared``.
_DECLARED_SHAPES = {
    "delta": {None: str},
    "comprehension": {None: {None: str}},
    "cocomprehension": {None: {None: str}},
    "epsilon": [{"gamma": str, "a": str, "psi": str, "arrow": str}],
    "negation": {None: {None: str}},
    "power_objects": {None: {"power": str, "membership": str}},
}


def _check_shape(value, shape, pos: str) -> None:
    kind = shape if shape is str else type(shape)
    if not isinstance(value, Mapping if kind is dict else kind):
        raise ParseError(f"wrong type, expected {kind.__name__}", pos)
    if kind is list:
        for i, v in enumerate(value):
            _check_shape(v, shape[0], f"{pos}[{i}]")
    elif kind is dict:
        for k in (value if None in shape else shape):
            _check_shape(_need(value, k, pos), shape.get(k, shape.get(None)),
                         f"{pos}.{k}")


def _resolve_declared(base: FinCategory, fibers: Mapping[str, FinPoset],
                      declared: Mapping) -> None:
    """Every object, arrow and fiber element the ``declared`` block names
    exists, each arrow has the endpoints its witness needs, and each product
    its check reads is materialized."""
    def obj(o, pos: str) -> str:
        if o not in fibers:
            raise ParseError(f"undeclared object {o!r}", pos)
        return o

    def row(a: str, b: str, pos: str) -> str:
        if (a, b) not in base.products:
            raise ParseError(f"no product row ({a},{b})", pos)
        return base.products[(a, b)].obj

    def element(o: str, e, pos: str) -> None:
        if e not in fibers[o].index:
            raise ParseError(f"{e!r} is not an element of fiber({o})", pos)

    def arrow(n, dom: str | None, cod: str, pos: str) -> None:
        a = base.arrows.get(n)
        if a is None or a.cod != cod or dom not in (None, a.dom):
            raise ParseError(f"{n!r} is not an arrow {dom or '?'} -> {cod}", pos)

    at = "$.declared"
    for a, delta in declared.get("delta", {}).items():
        pos = f"{at}.delta.{a}"
        obj(a, pos)
        for x in base.window:
            row(row(x, a, pos), a, pos)
        element(row(a, a, pos), delta, pos)
    for kind in ("comprehension", "cocomprehension"):
        for a, table in declared.get(kind, {}).items():
            obj(a, f"{at}.{kind}.{a}")
            for alpha, n in table.items():
                element(a, alpha, f"{at}.{kind}.{a}.{alpha}")
                arrow(n, None, a, f"{at}.{kind}.{a}.{alpha}")
    for i, rec in enumerate(declared.get("epsilon", [])):
        pos = f"{at}.epsilon[{i}]"
        gamma, a = obj(rec["gamma"], f"{pos}.gamma"), obj(rec["a"], f"{pos}.a")
        element(row(gamma, a, pos), rec["psi"], f"{pos}.psi")
        arrow(rec["arrow"], gamma, a, f"{pos}.arrow")
    for a, table in declared.get("negation", {}).items():
        obj(a, f"{at}.negation.{a}")
        for beta, neg in table.items():
            element(a, beta, f"{at}.negation.{a}.{beta}")
            element(a, neg, f"{at}.negation.{a}.{beta}")
    for a, rec in declared.get("power_objects", {}).items():
        pos = f"{at}.power_objects.{a}"
        power = obj(rec["power"], f"{pos}.power")
        element(row(obj(a, pos), power, pos), rec["membership"],
                f"{pos}.membership")


def parse_document(doc: Mapping) -> Doctrine:
    if not isinstance(doc, Mapping):
        raise ParseError("document must be a JSON object", "$")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", "$.schema_version")
    meta = doc.get("meta", {})
    if not isinstance(meta, Mapping) or not isinstance(meta.get("name", ""), str):
        raise ParseError("meta must be an object with a string name", "$.meta")
    declared = doc.get("declared") or {}
    if not isinstance(declared, Mapping):
        raise ParseError("wrong type, expected dict", "$.declared")
    for kind in declared:
        if kind not in _DECLARED_SHAPES:
            raise ParseError(f"unknown witness kind {kind!r}", f"$.declared.{kind}")
        _check_shape(declared[kind], _DECLARED_SHAPES[kind], f"$.declared.{kind}")
    if "catalog" in doc:
        block = doc["catalog"]
        cid = _need(block, "id", "$.catalog", str)
        try:
            d = _catalog.instance(cid)
        except KeyError as exc:
            raise ParseError(str(exc), "$.catalog.id") from None
        if block.get("dual", False):
            from .constructions import dualize
            d = dualize(d)
        if declared:
            _resolve_declared(d.base, d.fibers, declared)
            d = Doctrine(d.base, d.fibers, d.reindex, name=d.name,
                         source=d.source, declared=declared)
        return d
    base_doc = _need(doc, "base", "$", Mapping)
    objects = _need(base_doc, "objects", "$.base", list)
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ParseError("duplicate object ids", "$.base.objects")
    arrows = []
    arrow_ids = set()
    for i, a in enumerate(_need(base_doc, "arrows", "$.base", list)):
        pos = f"$.base.arrows[{i}]"
        n = _need(a, "id", pos, str)
        dom = _need(a, "dom", pos, str)
        cod = _need(a, "cod", pos, str)
        if dom not in obj_set:
            raise ParseError(f"dangling dom {dom!r}", f"{pos}.dom")
        if cod not in obj_set:
            raise ParseError(f"dangling cod {cod!r}", f"{pos}.cod")
        if n in arrow_ids:
            raise ParseError(f"duplicate arrow id {n!r}", f"{pos}.id")
        arrow_ids.add(n)
        arrows.append(Arrow(n, dom, cod))
    identity = _need(base_doc, "identity", "$.base", Mapping)
    for o in objects:
        if o not in identity:
            raise ParseError(f"missing identity for {o!r}", "$.base.identity")
        if identity[o] not in arrow_ids:
            raise ParseError(f"identity of {o!r} is a dangling arrow id",
                             f"$.base.identity.{o}")
    compose = {}
    for i, triple in enumerate(_need(base_doc, "compose", "$.base", list)):
        pos = f"$.base.compose[{i}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise ParseError("composition entry must be [g, f, gf]", pos)
        g, f, gf = triple
        for name in (g, f, gf):
            if name not in arrow_ids:
                raise ParseError(f"composition references undeclared arrow {name!r}", pos)
        if (g, f) in compose and compose[(g, f)] != gf:
            raise ParseError(f"non-functional composition table at ({g},{f})", pos)
        compose[(g, f)] = gf
    products = {}
    for i, r in enumerate(base_doc.get("products", [])):
        pos = f"$.base.products[{i}]"
        row = Product(_need(r, "left", pos, str), _need(r, "right", pos, str),
                      _need(r, "obj", pos, str), _need(r, "p1", pos, str),
                      _need(r, "p2", pos, str))
        for o in (row.left, row.right, row.obj):
            if o not in obj_set:
                raise ParseError(f"product row references undeclared object {o!r}", pos)
        for n in (row.proj1, row.proj2):
            if n not in arrow_ids:
                raise ParseError(f"product row references undeclared arrow {n!r}", pos)
        products[(row.left, row.right)] = row
    terminal = base_doc.get("terminal")
    if terminal is not None and terminal not in obj_set:
        raise ParseError(f"terminal {terminal!r} undeclared", "$.base.terminal")
    window = base_doc.get("window", list(objects))
    power_pool = base_doc.get("power_pool")
    for key in ("window", "power_pool"):
        _check_shape(base_doc.get(key, []), [str], f"$.base.{key}")
    pres_doc = base_doc.get("presentation", {})
    presentation = Presentation(pres_doc.get("kind", "explicit"),
                                _tuplify(pres_doc.get("spec", ())),
                                bool(pres_doc.get("truncated", False)))
    try:
        base = FinCategory(objects, arrows, identity, compose, window=window,
                           products=products, terminal=terminal,
                           presentation=presentation,
                           power_pool=power_pool)
    except Exception as exc:
        raise ParseError(str(exc), "$.base") from None

    fibers = {}
    fibers_doc = _need(doc, "fibers", "$", Mapping)
    for o in objects:
        if o not in fibers_doc:
            raise ParseError(f"missing fiber for object {o!r}", "$.fibers")
        block = fibers_doc[o]
        pos = f"$.fibers.{o}"
        elements = _need(block, "elements", pos, list)
        leq = [tuple(p) for p in _need(block, "leq", pos, list)]
        for a, b in leq:
            if a not in elements or b not in elements:
                raise ParseError(f"order pair ({a},{b}) references unknown element", pos)
        try:
            fibers[o] = FinPoset(elements, leq + [(e, e) for e in elements])
        except ValueError as exc:
            raise ParseError(f"not a poset: {exc}", pos) from None
    reindex = {}
    reindex_doc = _need(doc, "reindex", "$", Mapping)
    for a in arrows:
        if a.name not in reindex_doc:
            raise ParseError(f"missing reindex map for arrow {a.name!r}", "$.reindex")
        table = reindex_doc[a.name]
        pos = f"$.reindex.{a.name}"
        src, tgt = fibers[a.cod], fibers[a.dom]
        for e in src.elements:
            if e not in table:
                raise ParseError(f"non-functional table: no image for {e!r}", pos)
        for e, v in table.items():
            if e not in src.index:
                raise ParseError(f"table key {e!r} not in fiber({a.cod})", pos)
            if v not in tgt.index:
                raise ParseError(f"table value {v!r} not in fiber({a.dom})", pos)
        reindex[a.name] = MonotoneMap.from_names(src, tgt, table)
    _resolve_declared(base, fibers, declared)
    name = meta.get("name", "instance")
    return Doctrine(base, fibers, reindex, name=name,
                    source={"kind": "explicit"}, declared=declared)


def parse(text: str) -> Doctrine:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} col {exc.colno}") from None
    return parse_document(doc)


def parse_file(path: str) -> Doctrine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
