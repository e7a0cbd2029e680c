"""The instance file format (JSON) and canonical serialization.

A document either names a catalog generator (``catalog`` block, optionally
order-dualized) or spells out explicit tables (``base``, ``fibers``,
``reindex``); ``_CATALOG_DOCUMENT`` and ``_EXPLICIT_DOCUMENT`` give each
form's shape, with the optional ``declared`` witness block and ``meta``.

Canonical form: keys sorted, id lists sorted, two-space indent; the instance
hash is the sha256 of the canonical text, so identical instances hash
identically across runs.  The canonical text is
``json.dumps(document, sort_keys=True, indent=2)`` plus a newline, and the
document is memoised per doctrine.  ``sha256`` is CPython's built-in one
(``_sha256``, ``_sha2`` from 3.12 on; ``hashlib``'s only where neither exists):
``hashlib`` loads OpenSSL, about 3.4 MB of each CLI process's peak.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from typing import Any

try:  # hashlib is heavy to load, try the lean built-in module first
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import catalog as _catalog
from .doctrine import Doctrine, memoized
from .fincat import Arrow, FinCategory, Presentation, Product
from .poset import FinPoset, MonotoneMap
from .verdicts import MalformedCategory, ParseError, WindowExceeded

SCHEMA_VERSION = 1
# an explicit fiber is no larger than the largest fiber the builder builds
MAX_FIBER = 256

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
    return sha256(serialize(d).encode()).hexdigest()[:16]


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


# The schema-1 document as JSON shapes: a type (``object``: any value);
# ``[s]``, a list of ``s``; ``(s, t)``, a list of exactly those; ``{None: s}``,
# an object of ``s``; or an object with these keys, where ``"k?"`` may be
# absent.  Other keys are ignored, but ``declared`` names no other witness
# kind.  Only ``terminal`` may be null, as ``to_document`` writes it.
_DECLARED = {
    "delta?": {None: str},
    "comprehension?": {None: {None: str}},
    "cocomprehension?": {None: {None: str}},
    "epsilon?": [{"gamma": str, "a": str, "psi": str, "arrow": str}],
    "negation?": {None: {None: str}},
    "power_objects?": {None: {"power": str, "membership": str}},
}
_WITNESS_KINDS = {kind[:-1] for kind in _DECLARED}
_META = {"name?": str, "window?": str}
_CATALOG_DOCUMENT = {"catalog": {"id": str, "dual?": bool},
                     "meta?": _META, "declared?": _DECLARED}
_EXPLICIT_DOCUMENT = {
    "base": {
        "objects": [str],
        "window?": [str],
        "power_pool?": [str],
        "presentation?": {"kind?": str, "spec?": [object], "truncated?": bool},
        "arrows": [{"id": str, "dom": str, "cod": str}],
        "identity": {None: str},
        "compose": [(str, str, str)],
        "products?": [{"left": str, "right": str, "obj": str,
                       "p1": str, "p2": str}],
        "terminal?": str | None,
    },
    "fibers": {None: {"elements": [str], "leq": [(str, str)]}},
    "reindex": {None: {None: str}},
    "meta?": _META,
    "declared?": _DECLARED,
}


def _check_shape(value, shape, pos: str) -> None:
    """Raise a :class:`ParseError` at the first part of ``value`` that does
    not have the JSON shape ``shape``."""
    if isinstance(shape, dict):
        if not isinstance(value, Mapping):
            raise ParseError("wrong type, expected an object", pos)
        for key, sub in shape.items():
            if key is not None and key.rstrip("?") not in value:
                if key[-1] != "?":
                    raise ParseError(f"missing required key {key!r}", pos)
                continue
            for k in value if key is None else [key.rstrip("?")]:
                _check_shape(value[k], sub, f"{pos}.{k}")
    elif isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            raise ParseError("wrong type, expected a list", pos)
        subs = shape if isinstance(shape, tuple) else shape * len(value)
        if len(subs) != len(value):
            raise ParseError(f"wrong type, expected a list of {len(subs)}", pos)
        for i, (v, sub) in enumerate(zip(value, subs)):
            _check_shape(v, sub, f"{pos}[{i}]")
    elif not isinstance(value, shape):
        raise ParseError(
            f"wrong type, expected {getattr(shape, '__name__', shape)}", pos)


def _known(name, names, message: str, pos: str):
    """``name``, when it is one of ``names``; else a :class:`ParseError`."""
    if name not in names:
        raise ParseError(message, pos)
    return name


def _resolve_declared(base: FinCategory, fibers: Mapping[str, FinPoset],
                      declared: Mapping) -> None:
    """Every object, arrow and fiber element the ``declared`` block names
    exists, each arrow has the endpoints its witness needs, and each product
    its check reads is materialized."""
    def obj(o: str, pos: str) -> str:
        return _known(o, fibers, f"undeclared object {o!r}", pos)

    def element(o: str, e: str, pos: str) -> None:
        _known(e, fibers[o].index, f"{e!r} is not an element of fiber({o})", pos)

    def row(a: str, b: str, pos: str) -> str:
        return base.products[_known((a, b), base.products,
                                    f"no product row ({a},{b})", pos)].obj

    def arrow(n: str, dom: str | None, cod: str, pos: str) -> None:
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
    # True == 1 and 1.0 == 1, but neither is the version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", "$.schema_version")
    _check_shape(doc, _CATALOG_DOCUMENT if "catalog" in doc else _EXPLICIT_DOCUMENT,
                 "$")
    declared = doc.get("declared", {})
    for kind in declared:
        _known(kind, _WITNESS_KINDS, f"unknown witness kind {kind!r}",
               f"$.declared.{kind}")
    if "catalog" in doc:
        try:
            d = _catalog.instance(doc["catalog"]["id"])
        except (KeyError, WindowExceeded) as exc:
            raise ParseError(exc.args[0], "$.catalog.id") from None
        if doc["catalog"].get("dual", False):
            from .constructions import dualize
            d = dualize(d)
        if declared:
            _resolve_declared(d.base, d.fibers, declared)
            d = Doctrine(d.base, d.fibers, d.reindex, name=d.name,
                         source=d.source, declared=declared)
        return d
    base_doc = doc["base"]
    objects = base_doc["objects"]
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ParseError("duplicate object ids", "$.base.objects")
    arrows: dict[str, Arrow] = {}
    for i, a in enumerate(base_doc["arrows"]):
        pos = f"$.base.arrows[{i}]"
        for end in ("dom", "cod"):
            _known(a[end], obj_set, f"dangling {end} {a[end]!r}", f"{pos}.{end}")
        if a["id"] in arrows:
            raise ParseError(f"duplicate arrow id {a['id']!r}", f"{pos}.id")
        arrows[a["id"]] = Arrow(a["id"], a["dom"], a["cod"])
    identity = base_doc["identity"]
    for o in objects:
        _known(o, identity, f"missing identity for {o!r}", "$.base.identity")
        _known(identity[o], arrows, f"identity of {o!r} is a dangling arrow id",
               f"$.base.identity.{o}")
    compose = {}
    for i, (g, f, gf) in enumerate(base_doc["compose"]):
        pos = f"$.base.compose[{i}]"
        for n in (g, f, gf):
            _known(n, arrows, f"composition references undeclared arrow {n!r}", pos)
        if compose.setdefault((g, f), gf) != gf:
            raise ParseError(f"non-functional composition table at ({g},{f})", pos)
    products = {}
    for i, r in enumerate(base_doc.get("products", [])):
        pos = f"$.base.products[{i}]"
        row = Product(r["left"], r["right"], r["obj"], r["p1"], r["p2"])
        for o in (row.left, row.right, row.obj):
            _known(o, obj_set, f"product row references undeclared object {o!r}", pos)
        for n in (row.proj1, row.proj2):
            _known(n, arrows, f"product row references undeclared arrow {n!r}", pos)
        products[(row.left, row.right)] = row
    terminal = base_doc.get("terminal")
    _known(terminal, {*obj_set, None}, f"terminal {terminal!r} undeclared",
           "$.base.terminal")
    pres_doc = base_doc.get("presentation", {})
    presentation = Presentation(pres_doc.get("kind", "explicit"),
                                _tuplify(pres_doc.get("spec", [])),
                                pres_doc.get("truncated", False))
    try:
        base = FinCategory(objects, arrows.values(), identity, compose,
                           window=base_doc.get("window"), products=products,
                           terminal=terminal, presentation=presentation,
                           power_pool=base_doc.get("power_pool"))
    except MalformedCategory as exc:
        raise ParseError(str(exc), "$.base") from None
    for o in base.window:  # every equality check reads the diagonal's row
        _known((o, o), products, f"no product row ({o}, {o}) for window object"
               f" {o!r}", "$.base.products")

    fibers = {}
    for o in objects:
        _known(o, doc["fibers"], f"missing fiber for object {o!r}", "$.fibers")
        pos, elements = f"$.fibers.{o}", doc["fibers"][o]["elements"]
        if len(elements) > MAX_FIBER:
            raise ParseError(f"fiber of {len(elements)} elements, more than"
                             f" {MAX_FIBER}", pos)
        leq = doc["fibers"][o]["leq"]
        for a, b in leq:
            for e in (a, b):
                _known(e, elements, f"order pair ({a},{b}) references unknown element", pos)
        try:
            fibers[o] = FinPoset(elements, leq + [(e, e) for e in elements])
        except ValueError as exc:
            raise ParseError(f"not a poset: {exc}", pos) from None
    reindex = {}
    for a in arrows.values():
        _known(a.name, doc["reindex"], f"missing reindex map for arrow {a.name!r}",
               "$.reindex")
        table, pos = doc["reindex"][a.name], f"$.reindex.{a.name}"
        src, tgt = fibers[a.cod], fibers[a.dom]
        for e in src.elements:
            _known(e, table, f"non-functional table: no image for {e!r}", pos)
        for e, v in table.items():
            _known(e, src.index, f"table key {e!r} not in fiber({a.cod})", pos)
            _known(v, tgt.index, f"table value {v!r} not in fiber({a.dom})", pos)
        reindex[a.name] = MonotoneMap.from_names(src, tgt, table)
    _resolve_declared(base, fibers, declared)
    return Doctrine(base, fibers, reindex,
                    name=doc.get("meta", {}).get("name", "instance"),
                    declared=declared)


def parse(text: str) -> Doctrine:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} col {exc.colno}") from None
    return parse_document(doc)


def parse_file(path: str) -> Doctrine:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read the file: {exc}", path) from None
    return parse(text)
