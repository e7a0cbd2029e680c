"""Layer tracing from outside the package.

A :class:`Tracer` wraps the public functions of each doctrinelab module (and
a few named methods) and records one span per call: name, start, end and the
span that was open when it began.  Spans are kept in flat arrays while the
traced work runs and are written out only when it ends, so a call costs an
append and two clock reads.  Leaf methods such as ``FinPoset.leq_idx`` are
never wrapped: ``classify PS(2,0)`` makes about 19 M of them.

Wrapping rebinds every reference to a target that a doctrinelab module holds:
module globals (``theorems`` imports ``instance_hash`` by name), and the
tables built at import time (``theorems.CLASSIFY_FLAGS``, ``_FLAG_MAP`` and
the ``REGISTRY`` entries hold the flag functions themselves).

Run as a script, the module executes one CLI command under tracing::

    python3 perfbench/tracing.py SPANS.json validate "PS(2,0)" --json out.json
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from array import array
from collections import Counter

MODULES = ("fincat", "poset", "doctrine", "logic", "constructions",
           "theorems", "ioformat", "catalog")
# Their cost belongs to the caller: JSON encoding behind instance_hash, or
# the CLI writing a report.
UNWRAPPED = {("ioformat", "serialize"), ("ioformat", "canonical_json")}
METHODS = (("fincat", "ConcreteBuilder", "close"),
           ("fincat", "FinCategory", "validate"),
           ("fincat", "FinCategory", "canonical_projection_squares"),
           ("theorems", "FilterExpr", "evaluate"),
           ("cli", None, "main"))
GENERATORS = {("theorems", "enumerate_doctrines")}
IMPORT_SPAN = "import"
CLI_SPAN = "cli.main"

# Per-layer metrics built from span self times: metric -> span names.  A
# name ending in "." selects every span of that module.  Each group but the
# module totals also gets a call count, "<name>_calls".
SELF_TIME_GROUPS = {
    "fincat.close_s": ["fincat.ConcreteBuilder.close"],
    "fincat.validate_s": ["fincat.FinCategory.validate"],
    "fincat.projection_squares_s": ["fincat.FinCategory.canonical_projection_squares"],
    "catalog.build_s": ["catalog."],
    "poset.lattice_ops_s": ["poset.lattice_ops"],
    "poset.adjoint_s": ["poset.left_adjoint", "poset.right_adjoint"],
    "doctrine.validate_s": ["doctrine.validate_doctrine"],
    "doctrine.bc_s": ["doctrine.is_sigma_doctrine", "doctrine.is_pi_doctrine",
                      "doctrine.frobenius"],
    "logic.equality_s": ["logic.find_equality", "logic.is_elementary",
                         "logic.check_substitutive"],
    "logic.comprehension_s": [
        "logic.comprehension", "logic.comprehension_table",
        "logic.has_comprehension", "logic.is_full_comprehension",
        "logic.comprehension_class", "logic.comprehension_squares",
        "logic.cocomprehension", "logic.cocomprehension_table",
        "logic.has_cocomprehension", "logic.is_full_cocomprehension",
        "logic.cocomprehension_class", "logic.cocomprehension_squares"],
    "logic.power_object_s": ["logic.weak_power_object", "logic.is_higher_order"],
    "logic.choice_s": ["logic.ac_check", "logic.epsilon"],
    "logic.tripos_s": ["logic.is_tripos", "logic.is_tripos_via_characterization"],
    "constructions.eaco_s": ["constructions.eaco_compat",
                             "constructions.eaco_compat_all",
                             "constructions.is_eaco", "constructions.is_heaco"],
    "constructions.derived_sigma_s": ["constructions.derived_sigma"],
    "theorems.enumerate_s": ["theorems.enumerate_doctrines"],
    "theorems.filter_s": ["theorems.FilterExpr.evaluate"],
    "theorems.check_theorem_self_s": ["theorems.check_theorem"],
    "ioformat.to_document_s": ["ioformat.to_document"],
    "ioformat.hash_s": ["ioformat.instance_hash"],
    "fincat.self_s": ["fincat."],
    "poset.self_s": ["poset."],
    "doctrine.self_s": ["doctrine."],
    "logic.self_s": ["logic."],
    "constructions.self_s": ["constructions."],
    "theorems.self_s": ["theorems."],
    "ioformat.self_s": ["ioformat."],
    "cli.self_s": [CLI_SPAN],
    "import_s": [IMPORT_SPAN],
}
COUNTERS = ("fincat.arrows", "poset.max_fiber", "doctrine.memo_calls",
            "doctrine.memo_computes", "doctrine.memo_recomputes",
            "theorems.candidates", "theorems.emitted")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]  # indices of the open spans; -1 is the root
        self.counts: Counter = Counter()
        self._memo_keys = weakref.WeakKeyDictionary()
        self._documented = weakref.WeakSet()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        # begin() and end() inlined: this runs once per wrapped call
        nid = self._name_id(name)
        name_ids, parents, stack = self.name_ids, self.parents, self._stack
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def _wrap_generator(self, name: str, fn):
        """Time spent inside the generator only, one span per item."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    yield item
            finally:
                gen.close()
                self.counts["theorems.candidates"] += stats.get("candidates", 0)
                self.counts["theorems.emitted"] += stats.get("emitted", 0)
        return traced

    def _probe(self, name: str, fn):
        """Counters that need a call's argument or result."""
        if name == "poset.lattice_ops":
            def seen(p):
                self.counts["poset.max_fiber"] = max(
                    self.counts["poset.max_fiber"], len(p.elements))
                return fn(p)
        elif name == "fincat.ConcreteBuilder.close":
            def seen(builder):
                base = fn(builder)
                self.counts["fincat.arrows"] += len(base.arrows)
                return base
        elif name == "ioformat.to_document":
            def seen(d):
                if d not in self._documented:
                    self._documented.add(d)
                    self.counts["ioformat.documented_doctrines"] += 1
                return fn(d)
        else:
            return fn
        return functools.wraps(fn)(seen)

    def _memo(self, cached):
        """Count Doctrine.cached calls, computes and recomputes of a key
        already computed on the same doctrine."""
        counts = self.counts
        keys_of = self._memo_keys

        @functools.wraps(cached)
        def counted(d, key, compute):
            counts["doctrine.memo_calls"] += 1

            def computing():
                counts["doctrine.memo_computes"] += 1
                keys = keys_of.get(d)
                if keys is None:
                    keys = keys_of[d] = set()
                if key in keys:
                    counts["doctrine.memo_recomputes"] += 1
                keys.add(key)
                return compute()
            return cached(d, key, computing)
        return counted

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the loaded doctrinelab modules."""
        mods = {m: importlib.import_module(f"doctrinelab.{m}")
                for m in MODULES + ("cli",)}
        swaps: dict[int, object] = {}
        for m in MODULES:
            mod = mods[m]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or (m, attr) in UNWRAPPED:
                    continue
                name = f"{m}.{attr}"
                if (m, attr) in GENERATORS:
                    swaps[id(fn)] = self._wrap_generator(name, fn)
                else:
                    swaps[id(fn)] = self._wrap(name, self._probe(name, fn))
        for m, cls_name, attr in METHODS:
            owner = mods[m] if cls_name is None else getattr(mods[m], cls_name)
            fn = getattr(owner, attr)
            name = ".".join(p for p in (m, cls_name, attr) if p)
            if cls_name is None:
                swaps[id(fn)] = self._wrap(name, fn)
            else:
                self._setattr(owner, attr, self._wrap(name, self._probe(name, fn)))
        doctrine_cls = mods["doctrine"].Doctrine
        self._setattr(doctrine_cls, "cached", self._memo(doctrine_cls.cached))
        for name, mod in list(sys.modules.items()):
            if name == "doctrinelab" or name.startswith("doctrinelab."):
                _swap_items(vars(mod), swaps, self._undo)

    def _setattr(self, owner, attr, value) -> None:
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "name_ids": self.name_ids.tolist(),
                "starts": self.starts.tolist(), "ends": self.ends.tolist(),
                "parents": self.parents.tolist(), "counts": dict(self.counts)}


def _swap_items(container, swaps, undo, depth: int = 0) -> None:
    """Replace wrapped functions among a dict's values or a list's items, in
    place, logging how to restore each one."""
    keys = list(container.keys() if isinstance(container, dict)
                else range(len(container)))
    for k in keys:
        old = container[k]
        new = _swapped(old, swaps, undo, depth)
        if new is not old:
            container[k] = new
            undo.append(lambda c=container, k=k, v=old: c.__setitem__(k, v))


def _swapped(value, swaps, undo, depth: int):
    """``value`` with every wrapped function replaced; tuples and frozen
    dataclasses are rebuilt, dicts and lists changed in place."""
    if callable(value) and id(value) in swaps:
        return swaps[id(value)]
    if depth > 3:
        return value
    if isinstance(value, tuple):
        items = tuple(_swapped(v, swaps, undo, depth + 1) for v in value)
        changed = any(a is not b for a, b in zip(items, value))
        return items if changed else value
    if isinstance(value, (dict, list)):
        _swap_items(value, swaps, undo, depth + 1)
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        changes = {}
        for f in dataclasses.fields(value):
            old = getattr(value, f.name)
            new = _swapped(old, swaps, undo, depth + 1)
            if new is not old:
                changes[f.name] = new
        return dataclasses.replace(value, **changes) if changes else value
    return value


def _selected(name: str, selectors) -> bool:
    return any(name == s or (s.endswith(".") and name.startswith(s))
               for s in selectors)


def summarize(dumps: list[dict], wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics from the span dumps of the traced rounds."""
    self_time: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    covered = 0.0
    spans = 0
    for dump in dumps:
        names = dump["names"]
        name_ids, starts = dump["name_ids"], dump["starts"]
        ends, parents = dump["ends"], dump["parents"]
        child_time = [0.0] * len(starts)
        for i, p in enumerate(parents):
            duration = ends[i] - starts[i]
            if p >= 0:
                child_time[p] += duration
            else:
                covered += duration
        for i, nid in enumerate(name_ids):
            self_time[names[nid]] += ends[i] - starts[i] - child_time[i]
            calls[names[nid]] += 1
        spans += len(starts)
        counts.update(dump["counts"])
    # the CLI front end's own time is not attributed to any layer
    covered -= self_time[CLI_SPAN]
    out = {}
    for metric, selectors in SELF_TIME_GROUPS.items():
        out[metric] = sum(t for n, t in self_time.items()
                          if _selected(n, selectors))
        if not metric.endswith(".self_s") and metric != "import_s":
            # theorems.check_theorem_self_s -> theorems.check_theorem_calls
            out[metric.removesuffix("_s").removesuffix("_self") + "_calls"] = sum(
                c for n, c in calls.items() if _selected(n, selectors))
    for metric in COUNTERS:
        out[metric] = counts[metric]
    docs = counts["ioformat.documented_doctrines"]
    out["ioformat.to_document_per_doctrine"] = (
        out["ioformat.to_document_calls"] / docs if docs else 0.0)
    out["trace.spans"] = spans
    out["trace.wall_s"] = wall_s
    out["trace.coverage_pct"] = 100.0 * covered / wall_s
    out["trace.overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
    return out


def load(path) -> dict:
    """A traced process's span dump; empty if it died before writing one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return Tracer().dump()


def write_spans(path, dumps: list[tuple[str, dict]]) -> None:
    """Per operation, a header line ``{"op": ..., "names": [...]}`` and then
    one line per span: ``[id, parent id or -1, name index, start, end]``,
    times in microseconds from the operation's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, dump in dumps:
            fh.write(json.dumps({"op": op, "names": dump["names"]}) + "\n")
            starts = dump["starts"]
            t0 = starts[0] if starts else 0.0
            for i, (nid, parent, start, end) in enumerate(zip(
                    dump["name_ids"], dump["parents"], starts, dump["ends"])):
                fh.write(f"[{i},{parent},{nid},{round((start - t0) * 1e6)},"
                         f"{round((end - t0) * 1e6)}]\n")


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    idx = tracer.begin(IMPORT_SPAN)
    from doctrinelab import cli
    tracer.end(idx)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        dump = tracer.dump()
        dump["end"] = time.perf_counter()  # the traced work ends here
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
