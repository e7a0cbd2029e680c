"""Command-line front end.

Subcommands::

    validate <instance>                 law checks (category, doctrine, products)
    classify <instance>                 classification flags, definitional order
    derive   <instance> --what ...      sigma | implication | cocomp | dual | graph | epsilon
    theorem  <instance> --id X | --all  run registry entries
    search   --filter EXPR [--budget N] counterexample / witness search
    catalog  --list | --emit ID         built-in instances

``<instance>`` is a file path or a catalog id.  Exit codes: 0 all requested
checks hold or are not applicable, 1 some verdict is refuted, 2 usage or
parse error (an instance file that cannot be read or parsed, a report path
that cannot be written, or an instance beyond the builder's window), 3
internal error (one ``internal error:`` line on stderr).  Machine reports go to
``--json PATH`` (reports are byte-deterministic; timings only with
``--timing``).  Each subcommand imports the checkers it runs, so that a light
command does not pay for compiling the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import catalog as _catalog
from . import ioformat
from .doctrine import Doctrine, validate_doctrine
from .verdicts import (DoctrineError, ParseError, Verdict, HOLDS, NOT_APPLICABLE,
                       REFUTED)

USAGE_ERROR = 2
REFUTED_ERROR = 1
INTERNAL_ERROR = 3


def load_instance(spec: str) -> Doctrine:
    if os.path.exists(spec):
        return ioformat.parse_file(spec)
    try:
        return _catalog.instance(spec)
    except KeyError:
        raise ParseError(f"no such file or catalog id: {spec!r}")


def _check_report_path(path: str) -> None:
    """Fail before any work where the report's write must: at a directory or
    in a missing one, where this open fails as the write would, creating nothing."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        _write(path, "")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write the report: {exc}", path) from None


def _write_json(path: str | None, payload: Any) -> None:
    if path is None:
        return
    if isinstance(payload, list):
        text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in payload)
    else:
        text = ioformat.canonical_json(payload)
    _write(path, text)


def _verdict_line(name: str, v: Verdict) -> str:
    mark = {HOLDS: "+", REFUTED: "-", NOT_APPLICABLE: "o"}[v.status]
    extra = ""
    if v.status == REFUTED and v.counterexample:
        extra = f"  [{v.counterexample.get('kind', 'counterexample')}]"
    elif v.status == NOT_APPLICABLE and v.reason:
        extra = f"  ({v.reason})"
    return f"  {mark} {name:<18} {v.status}{extra}"


def _instance_header(d: Doctrine) -> dict:
    return {"name": d.name, "hash": ioformat.instance_hash(d),
            "window": d.window_descriptor}


# -- validate -------------------------------------------------------------------

def cmd_validate(args) -> int:
    d = load_instance(args.instance)
    checks = [("category_laws", d.base.validate()),
              ("chosen_products", d.base.verify_products()),
              ("doctrine_laws", validate_doctrine(d))]
    if d.declared:  # only declared witnesses need logic's checks
        from .logic import declared_checks
        checks += declared_checks(d)
    print(f"validate {d.name}  [{d.window_descriptor}]")
    for name, v in checks:
        print(_verdict_line(name, v))
    _write_json(args.json, {
        "schema_version": ioformat.SCHEMA_VERSION,
        "kind": "validation",
        "instance": _instance_header(d),
        "checks": {name: v.to_json() for name, v in checks},
    })
    return REFUTED_ERROR if any(v.is_refuted for _, v in checks) else 0


# -- classify --------------------------------------------------------------------

def cmd_classify(args) -> int:
    from . import theorems
    d = load_instance(args.instance)
    flags = theorems.classify(d)
    print(f"classify {d.name}  [{d.window_descriptor}]")
    for name, v in flags.items():
        print(_verdict_line(name, v))
    _write_json(args.json, {
        "schema_version": ioformat.SCHEMA_VERSION,
        "kind": "classification",
        "instance": _instance_header(d),
        "flags": {name: v.to_json() for name, v in flags.items()},
        "witnesses": theorems.witness_report(d),
    })
    return REFUTED_ERROR if any(v.is_refuted for v in flags.values()) else 0


# -- derive ----------------------------------------------------------------------

def _derive_payload(d: Doctrine, what: str, constructions) -> tuple[str, Any]:
    base = d.base
    if what == "sigma":
        table = {}
        for f in base.window_arrows:
            for alpha in d.fibers[base.dom(f)].elements:
                table[f"{f}|{alpha}"] = constructions.derived_sigma(d, f, alpha)
        return "derived existential quantification", table
    if what == "implication":
        tables = constructions.derived_implication_tables(d)
        if tables is None:
            raise DoctrineError("derived implication undefined "
                                "(missing comprehension witness or adjoint)")
        out = {}
        for obj, rows in sorted(tables.items()):
            names = d.fibers[obj].elements
            out[obj] = {f"{names[a]}->{names[b]}": names[v]
                        for a, row in enumerate(rows) for b, v in enumerate(row)}
        return "derived implication", out
    if what == "cocomp":
        table = {}
        for a in base.window:
            for alpha in d.fibers[a].elements:
                table[f"{a}|{alpha}"] = constructions.cocomp_from_negation(d, a, alpha)
        return "co-comprehension from negation", table
    if what == "dual":
        return "dual instance", ioformat.to_document(constructions.dualize(d))
    if what == "graph":
        return "graphs", {f: constructions.graph(d, f) for f in base.window_arrows}
    if what == "epsilon":
        from .logic import ac_check
        verdict, eps = ac_check(d)
        if not verdict:
            raise DoctrineError(f"axiom of choice fails: {verdict.status} "
                                f"{verdict.reason or verdict.counterexample}")
        return "epsilon table", {f"{g}|{a}|{psi}": arrow
                                 for (g, a, psi), arrow in sorted(eps.items())}
    raise ParseError(f"unknown derivation {what!r}")


def cmd_derive(args) -> int:
    # imported before the instance is built, as in classify and theorem, so
    # that compiling the checkers does not add to the memory a window holds
    from . import constructions
    d = load_instance(args.instance)
    try:
        title, payload = _derive_payload(d, args.what, constructions)
    except DoctrineError as exc:
        print(f"derive {args.what}: not applicable: {exc}")
        _write_json(args.json, {
            "schema_version": ioformat.SCHEMA_VERSION, "kind": "derivation",
            "instance": _instance_header(d), "what": args.what,
            "not_applicable": str(exc)})
        return 0
    print(f"derive {args.what} on {d.name}: {title}")
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text if len(text) < 4000 else f"  ({len(payload)} entries; use --json)")
    _write_json(args.json, {
        "schema_version": ioformat.SCHEMA_VERSION, "kind": "derivation",
        "instance": _instance_header(d), "what": args.what, "result": payload})
    return 0


# -- theorem ---------------------------------------------------------------------

def cmd_theorem(args) -> int:
    from . import theorems
    if args.all:
        ids = theorems.theorem_ids()
    elif args.id:
        if args.id not in theorems.REGISTRY:
            raise ParseError(f"unknown theorem id {args.id!r}")
        ids = [args.id]
    else:
        raise ParseError("theorem needs --id NAME or --all")
    d = load_instance(args.instance)
    reports = [theorems.check_theorem(tid, d) for tid in ids]
    print(f"theorem run on {d.name}  [{d.window_descriptor}]")
    for r in reports:
        status = r.conclusion.status
        hyp = "" if r.hypotheses_hold else \
            f"  (hypothesis {next(n for n, v in r.hypotheses if not v)!r} missing)"
        flag = "  *** VIOLATION ***" if r.is_violation else ""
        print(f"  {r.theorem:<18} {status}{hyp}{flag}")
    _write_json(args.json, [r.to_json(timing=args.timing) for r in reports])
    return REFUTED_ERROR if any(r.is_violation for r in reports) else 0


# -- search ----------------------------------------------------------------------

def cmd_search(args) -> int:
    from . import theorems
    try:
        expr = theorems.parse_filter(args.filter)
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad filter: {exc}")
    stats: dict = {}
    found = list(theorems.enumerate_doctrines(
        max_base=args.window, max_fiber=args.window,
        filter_expr=expr, budget=args.budget, max_emit=args.limit,
        stats=stats))
    print(f"search --filter {args.filter!r}: {len(found)} match(es), "
          f"{stats['candidates']} candidates examined"
          + (" (budget exhausted)" if stats["budget_exhausted"] else ""))
    for d in found:
        shape = ", ".join(f"{o}:{len(p)}" for o, p in sorted(d.fibers.items()))
        print(f"  {d.name}  fibers {shape}")
    _write_json(args.json, [ioformat.to_document(d) for d in found])
    return 0


# -- catalog ---------------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.list:
        for cid, blurb in _catalog.CATALOG.items():
            print(f"  {cid:<10} {blurb}")
        _write_json(args.json, {"schema_version": ioformat.SCHEMA_VERSION,
                                "kind": "catalog",
                                "ids": _catalog.catalog_ids()})
        return 0
    if args.emit:
        try:
            d = _catalog.instance(args.emit)
        except KeyError as exc:  # its message, without the KeyError's quotes
            raise ParseError(exc.args[0]) from None
        text = ioformat.serialize(d)
        if args.json:
            _write(args.json, text)
        else:
            sys.stdout.write(text)
        return 0
    raise ParseError("catalog needs --list or --emit ID")


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, not {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="doctrinelab",
        description="finite-model workbench for doctrines and triposes")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH",
                       help="write the machine report to PATH")

    p = sub.add_parser("validate", help="check category/doctrine laws")
    p.add_argument("instance")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="run every classification flag")
    p.add_argument("instance")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("derive", help="compute a derived construction")
    p.add_argument("instance")
    p.add_argument("--what", required=True,
                   choices=["sigma", "implication", "cocomp", "dual", "graph",
                            "epsilon"])
    common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("theorem", help="run theorem registry entries")
    p.add_argument("instance")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--id", help="registry id")
    which.add_argument("--all", action="store_true",
                       help="run the whole registry")
    p.add_argument("--timing", action="store_true",
                   help="include wall times in the machine report")
    common(p)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("search", help="enumerate doctrines matching a filter")
    p.add_argument("--filter", required=True,
                   help="boolean flag expression, e.g. 'full_comp&!classical'")
    p.add_argument("--budget", type=_at_least(0), default=100_000,
                   help="candidate examination cap")
    p.add_argument("--limit", type=_at_least(1), default=5,
                   help="stop after this many matches")
    p.add_argument("--window", type=_at_least(1), default=3,
                   help="enumeration bound: max chain length and fiber size")
    common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("catalog", help="list or emit built-in instances")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--list", action="store_true")
    which.add_argument("--emit", metavar="ID")
    common(p)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.json is not None:
            _check_report_path(args.json)
        return args.fn(args)
    except (DoctrineError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # 1 means "refuted": a crash must not say so
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
