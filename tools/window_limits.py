"""Build every small window and report which the builder's limits refuse.

    python3 tools/window_limits.py [--points N] [--sets M]

Run from the root of a source checkout; the package is imported from
``src/``.  It builds, in this order:

* every open-set window of one space, then of two distinct spaces, among
  the topologies on the points ``a``, ``b``, ``c`` cut to 1 to ``N`` points
  (3 by default: 34 spaces, 595 windows), the spaces named ``X0``, ``X1``
  in that order;
* ``PS(m,d)`` for ``m`` from 1 to ``M`` (5 by default) and ``d`` from 0 to 2.

It prints how many windows were built and how many the builder refused
(:class:`WindowExceeded`), one sha256 over every window's outcome and, for
those built, its content: objects, arrows, composites, identities,
products, arrow tables and reindexing tables, each sorted, so that it does
not depend on the order in which the builder finds them.  Then it prints the
slowest build and the slowest refusal, in milliseconds of one in-process
call each, and last the largest fiber of any window built, with the first
window that reaches it: the limit the parser sets on an explicit fiber
(``ioformat.MAX_FIBER``).  All but the two times are the same on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = "abc"
DEPTHS = range(3)


def topologies(n: int) -> list[tuple[int, ...]]:
    """Every topology on ``n`` points, as its sorted open-set bitmasks."""
    full = (1 << n) - 1
    found = []
    inner = range(1, full)
    for k in range(len(inner) + 1):
        for extra in itertools.combinations(inner, k):
            opens = {0, full, *extra}
            if all(a | b in opens and a & b in opens
                   for a in opens for b in opens):
                found.append(tuple(sorted(opens)))
    return found


def space(n: int, masks: tuple[int, ...]):
    points = POINTS[:n]
    return (tuple(points),
            tuple(tuple(p for i, p in enumerate(points) if m >> i & 1)
                  for m in masks))


def windows(max_points: int, max_sets: int):
    """``(label, build)`` for every window of the sweep, in order."""
    from doctrinelab import catalog

    spaces = [(n, masks) for n in range(1, max_points + 1)
              for masks in topologies(n)]
    for k in (1, 2):
        for chosen in itertools.combinations(spaces, k):
            label = "{" + " | ".join(f"{n}:{','.join(map(str, masks))}"
                                     for n, masks in chosen) + "}"
            yield label, lambda chosen=chosen: catalog.openset_space(
                {f"X{i}": space(*s) for i, s in enumerate(chosen)})
    for m in range(1, max_sets + 1):
        for d in DEPTHS:
            yield f"PS({m},{d})", lambda m=m, d=d: catalog.powerset_finset(m, d)


def content(d) -> dict:
    """The built base of ``d`` and its reindexing tables, each sorted."""
    base = d.base
    return {
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=3, choices=range(1, 4),
                    metavar="N")
    ap.add_argument("--sets", type=int, default=5, metavar="M")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from doctrinelab.verdicts import WindowExceeded

    digest = hashlib.sha256()
    slowest = {True: ("", 0.0), False: ("", 0.0)}
    counts = {True: 0, False: 0}
    largest = (0, "none")
    for label, build in windows(args.points, args.sets):
        start = time.perf_counter()
        try:
            d = build()
        except WindowExceeded:
            d = None
        spent = (time.perf_counter() - start) * 1000
        built = d is not None
        counts[built] += 1
        if spent > slowest[built][1]:
            slowest[built] = (label, spent)
        if built:
            size = max(map(len, d.fibers.values()))
            if size > largest[0]:
                largest = (size, label)
        record = [label, content(d) if built else None]
        digest.update(json.dumps(record).encode() + b"\n")
    print(f"built {counts[True]}, refused {counts[False]}")
    print(f"content digest {digest.hexdigest()}")
    for built, what in ((True, "build"), (False, "refusal")):
        label, spent = slowest[built]
        print(f"slowest {what} {spent:.1f} ms: {label or 'none'}")
    print(f"largest fiber {largest[0]}: {largest[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
