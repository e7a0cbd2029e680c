"""Correctness checks on the program's outputs.

Every check returns a list of problems; an empty list is a pass.  Reference
values are computed here from primitives (arrow function tables, fiber
orders, reindexing tables) or from properties the method must have, never
from stored copies of earlier output.
"""

from __future__ import annotations

import json
import re

from doctrinelab import ioformat
from doctrinelab.doctrine import Doctrine
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import HOLDS, REFUTED, Verdict

TRACEBACK = "Traceback (most recent call last)"
USAGE_ERROR = 2
PS_ID = re.compile(r"PS\(\d+,\d+\)$")

# Facts from the paper and the README.  Powerset instances are Boolean.
BOOLEAN_FLAGS = {"classical": HOLDS, "full_comp": HOLDS, "full_cocomp": HOLDS,
                 "negation": HOLDS}
CLASSIFICATION_FACTS = {
    "PS(1,1)": {"tripos": HOLDS, "heaco": HOLDS},
    "SIER": {"full_comp": HOLDS, "full_cocomp": HOLDS, "negation": REFUTED},
    "SL3": {"comprehension": HOLDS, "ac": REFUTED},
}


# -- reports and exit codes ----------------------------------------------------

def load_report(kind: str, data: bytes):
    """A ``--json`` report: JSON lines for ``theorem``, one object otherwise."""
    text = data.decode("utf-8")
    if kind == "theorem_all":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def verdicts(kind: str, report) -> list[tuple[str, dict]]:
    """Every verdict a report holds, labelled."""
    if kind == "validate":
        return list(report["checks"].items())
    if kind == "classify":
        return list(report["flags"].items())
    if kind == "theorem_all":
        return [(f"{r['theorem']}:{name}", v) for r in report
                for name, v in [*r["hypotheses"].items(),
                                ("conclusion", r["conclusion"])]]
    return []


def expected_exit(kind: str, report) -> int:
    """The README's contract: 1 exactly when a requested check is refuted.
    A theorem's requested check is its conclusion, which is only evaluated
    when the hypotheses hold, so a refuted one is a violation."""
    if kind == "theorem_all":
        refuted = any(r["violation"] or r["conclusion"]["status"] == REFUTED
                      for r in report)
    else:
        refuted = any(v["status"] == REFUTED for _, v in verdicts(kind, report))
    return 1 if refuted else 0


def check_exit(label: str, rc: int, stderr: str, expected: int) -> list[str]:
    problems = []
    if TRACEBACK in stderr:
        problems.append(f"{label}: traceback on stderr")
    if rc != expected:
        problems.append(f"{label}: exit {rc}, expected {expected}")
    return problems


def check_identical(label: str, first: bytes, again: bytes) -> list[str]:
    if first != again:
        return [f"{label}: --json bytes differ between repetitions"]
    return []


# -- verdicts -------------------------------------------------------------------

def check_no_violation(report) -> list[str]:
    return [f"{r['instance']} {r['theorem']}: violation" for r in report
            if r["violation"]]


def check_rechecks(kind: str, report, d: Doctrine) -> list[str]:
    """Every refuted verdict re-derives as a violation on ``d``."""
    problems = []
    for name, v in verdicts(kind, report):
        if v["status"] != REFUTED:
            continue
        verdict = Verdict(REFUTED, counterexample=v.get("counterexample"))
        try:
            ok = recheck(d, verdict)
        except Exception as exc:  # a missing handler is a failed check
            problems.append(f"{d.name} {name}: recheck raised {exc!r}")
            continue
        if not ok:
            problems.append(f"{d.name} {name}: refuted verdict does not recheck")
    return problems


def check_classification(cid: str, report) -> list[str]:
    flags = report["flags"]
    expected = dict(CLASSIFICATION_FACTS.get(cid, {}))
    if PS_ID.match(cid):
        expected.update(BOOLEAN_FLAGS)
    problems = [f"{cid} {flag}: {flags.get(flag, {}).get('status')}, "
                f"expected {want}"
                for flag, want in sorted(expected.items())
                if flags.get(flag, {}).get("status") != want]
    if cid == "TRIV":
        problems += [f"TRIV {flag}: refuted" for flag, v in flags.items()
                     if v["status"] == REFUTED]
    return problems


# -- powerset oracles -------------------------------------------------------------
# Powerset fibers name the subset with bitmask m "e<m>"; arrows carry their
# function tables in ``base.tables``.

def _mask(element: str) -> int:
    return int(element[1:])


def direct_image(images, mask: int) -> int:
    out = 0
    for x, y in enumerate(images):
        if mask >> x & 1:
            out |= 1 << y
    return out


def universal_image(images, cod_size: int, mask: int) -> int:
    """The points every preimage of which lies in the subset."""
    out = (1 << cod_size) - 1
    for x, y in enumerate(images):
        if not mask >> x & 1:
            out &= ~(1 << y)
    return out


def check_derived_sigma(report, d: Doctrine) -> list[str]:
    """``derive --what sigma`` on a powerset instance is the direct image,
    for every window arrow and every element of its domain's fiber."""
    table = report["result"]
    base = d.base
    want = {f"{f}|{a}": f"e{direct_image(base.tables[f], _mask(a))}"
            for f in base.window_arrows for a in d.fibers[base.dom(f)].elements}
    problems = [f"{d.name} derived sigma {k}: {table.get(k)}, expected {v}"
                for k, v in sorted(want.items()) if table.get(k) != v]
    problems += [f"{d.name} derived sigma: unexpected entry {k}"
                 for k in sorted(set(table) - set(want))]
    return problems


def projections(d: Doctrine) -> list[str]:
    return sorted({p for row in d.base.products.values()
                   for p in (row.proj1, row.proj2)})


def check_projection_adjoints(d: Doctrine, sigma: dict, pi: dict) -> list[str]:
    """Sigma and Pi along every product projection of a powerset instance
    are the direct and the universal image.  ``sigma`` and ``pi`` map each
    projection to the program's table (None when it found no adjoint)."""
    base = d.base
    problems = []
    for p in projections(d):
        images = base.tables[p]
        cod_size = base.sizes[base.cod(p)]
        for name, tables, oracle in (
                ("sigma", sigma, lambda m: direct_image(images, m)),
                ("pi", pi, lambda m: universal_image(images, cod_size, m))):
            table = tables.get(p)
            if table is None:
                problems.append(f"{d.name} {name}({p}): no adjoint")
                continue
            bad = [e for e in d.fibers[base.dom(p)].elements
                   if table.get(e) != f"e{oracle(_mask(e))}"]
            if bad:
                problems.append(f"{d.name} {name}({p}) wrong at {bad[:3]}")
    return problems


# -- any doctrine ----------------------------------------------------------------

def scan_adjoint(m, side: str) -> dict | None:
    """The left (``sigma``) or right (``pi``) adjoint of the reindexing map
    ``m`` by scanning the fiber, or None where one has no least (greatest)
    solution."""
    src, tgt = m.source, m.target
    out = {}
    for a in tgt.elements:
        if side == "sigma":
            sols = [b for b in src.elements if tgt.leq(a, m.table[b])]
            best = [b for b in sols if all(src.leq(b, c) for c in sols)]
        else:
            sols = [b for b in src.elements if tgt.leq(m.table[b], a)]
            best = [b for b in sols if all(src.leq(c, b) for c in sols)]
        if not best:
            return None
        out[a] = best[0]
    return out


def check_adjoints(d: Doctrine, sigma: dict, pi: dict) -> list[str]:
    """The program's Sigma and Pi tables (None where it found no adjoint)
    along every arrow agree with a scan of the fiber."""
    problems = []
    for f in sorted(d.base.arrows):
        for side, tables in (("sigma", sigma), ("pi", pi)):
            want = scan_adjoint(d.reindex[f], side)
            if tables.get(f) != want:
                problems.append(f"{d.name} {side}({f}) disagrees with the scan")
    return problems


def walk_functorial(d: Doctrine) -> bool:
    """Identities, composites and monotonicity, by walking the tables."""
    base = d.base
    for o in base.objects:
        table = d.reindex[base.identity[o]].table
        if any(table[e] != e for e in d.fibers[o].elements):
            return False
    for (g, f), gf in base.compose_table.items():
        tg, tf, tgf = (d.reindex[g].table, d.reindex[f].table,
                       d.reindex[gf].table)
        if any(tgf[e] != tf[tg[e]] for e in d.fibers[base.cod(g)].elements):
            return False
    for name, arrow in base.arrows.items():
        table = d.reindex[name].table
        src, tgt = d.fibers[arrow.cod], d.fibers[arrow.dom]
        for x in src.elements:
            for y in src.elements:
                if src.leq(x, y) and not tgt.leq(table[x], table[y]):
                    return False
    return True


def check_functoriality(d: Doctrine, status: str) -> list[str]:
    """``status`` is the program's ``validate_doctrine`` verdict."""
    if walk_functorial(d) != (status == HOLDS):
        return [f"{d.name}: validate_doctrine says {status}, the table walk "
                f"disagrees"]
    return []


# -- search ------------------------------------------------------------------------

SEARCH_SUMMARY = re.compile(r": (\d+) match\(es\), (\d+) candidates examined")


def search_summary(stdout: str) -> tuple[int, int] | None:
    """(matches, candidates) from the search command's first line."""
    m = SEARCH_SUMMARY.search(stdout)
    return (int(m.group(1)), int(m.group(2))) if m else None


def check_search_documents(data: bytes, matches: int, expr) -> list[str]:
    """Each emitted document (one JSON line each) parses back and satisfies
    the filter on the fresh instance."""
    docs = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    problems = []
    if len(docs) != matches:
        problems.append(f"search: {len(docs)} documents for {matches} matches")
    for i, doc in enumerate(docs):
        if not expr.evaluate(ioformat.parse_document(doc)):
            problems.append(f"search: document {i} does not satisfy the filter")
    return problems


def check_partition(matches: int, negated: int, total: int) -> list[str]:
    if matches + negated != total:
        return [f"search: {matches} matches + {negated} matches of the "
                f"negation != {total} doctrines enumerated"]
    return []
