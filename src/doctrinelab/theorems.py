"""Executable theorem registry and the small-doctrine enumerator.

Each registry entry re-checks its hypotheses on the given instance (silent
hypothesis failure yields NotApplicable, never a vacuous Holds) and then
evaluates the conclusion.  A report whose hypotheses hold and whose
conclusion is Refuted contradicts a proved statement and is treated as a
release blocker by the acceptance suite.

The enumerator walks doctrines over thin bases (chains of bounded meet
semilattices), assigning canonical fiber posets and cover reindex maps, and
rejects isomorphic instances by orderly generation: a candidate is emitted
only when its reindex tables are the least of their orbit under the fiber
automorphisms.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from typing import Callable, Iterator, Sequence

from . import ioformat, logic
from .catalog import semilattice_category
from .constructions import (derived_implication_tables, dualize, is_eaco,
                            is_heaco)
from .doctrine import (Doctrine, frobenius, has_bottoms, has_tops, is_existential,
                       is_pi_doctrine, is_primary, is_propositional,
                       is_sigma_doctrine, memoized, validate_doctrine)
from .fincat import FinCategory
from .poset import FinPoset, MonotoneMap, _monotone_maps
from .verdicts import ParseError, Verdict, combine

__all__ = [
    "TheoremReport",
    "REGISTRY",
    "theorem_ids",
    "check_theorem",
    "check_all",
    "is_implicational",
    "classify",
    "CLASSIFY_FLAGS",
    "FilterExpr",
    "parse_filter",
    "enumerate_doctrines",
    "chain_base",
    "fiber_shapes",
]


# -- classification flags and theorem clauses -----------------------------------

def _substitutive(d: Doctrine) -> Verdict:
    w = logic.find_equality(d)
    if w is None:
        return Verdict.not_applicable("no equality predicate")
    return logic.check_substitutive(d, w)


@memoized
def is_implicational(d: Doctrine) -> Verdict:
    """Implication axioms for the canonical candidate operation: the Heyting
    table when fibers are Heyting, else the comprehension-derived table."""
    tables = logic.heyting_implication_tables(d)
    if tables is None:
        tables = derived_implication_tables(d)
    if tables is None:
        return Verdict.not_applicable("no candidate implication tables")
    return logic.implication_axioms(d, tables)


def _finite_joins(d: Doctrine) -> Verdict:
    for o in d.base.window:
        ops = d.fibers[o].ops
        if ops.join is None or ops.bottom is None:
            return Verdict.refuted(kind="no_finite_joins", object=o,
                                   missing="join" if ops.join is None else "bottom")
    return Verdict.holds(d.window_descriptor)


CLASSIFY_FLAGS: tuple[tuple[str, Callable[[Doctrine], Verdict]], ...] = (
    ("functorial", validate_doctrine),
    ("primary", is_primary),
    ("has_tops", has_tops),
    ("has_bottoms", has_bottoms),
    ("elementary", logic.is_elementary),
    ("substitutive", _substitutive),
    ("sigma", is_sigma_doctrine),
    ("restricted_sigma", lambda d: is_sigma_doctrine(d, restricted=True)),
    ("pi", is_pi_doctrine),
    ("restricted_pi", lambda d: is_pi_doctrine(d, restricted=True)),
    ("frobenius", frobenius),
    ("existential", is_existential),
    ("comprehension", logic.has_comprehension),
    ("full_comp", logic.is_full_comprehension),
    ("higher_order", logic.is_higher_order),
    ("propositional", is_propositional),
    ("implicational", is_implicational),
    ("tripos", logic.is_tripos),
    ("tripos_char", logic.is_tripos_via_characterization),
    ("cocomprehension", logic.has_cocomprehension),
    ("full_cocomp", logic.is_full_cocomprehension),
    ("negation", logic.has_negation),
    ("classical", logic.is_classical),
    ("ac", lambda d: logic.ac_check(d)[0]),
    ("finite_joins", _finite_joins),
    ("eaco", is_eaco),
    ("heaco", is_heaco),
)


def _over_witness_class(d: Doctrine, side: str, dual: bool) -> Verdict:
    """The ``side`` check (``"sigma"`` or ``"pi"`` restricted Beck-Chevalley,
    or ``"frobenius"``) over the comprehension class, or the
    co-comprehension class if ``dual``."""
    exists = logic.has_cocomprehension(d) if dual else logic.has_comprehension(d)
    if not exists:
        return Verdict.not_applicable(
            f"no {'co-comprehension' if dual else 'comprehension'} class")
    cls = logic.cocomprehension_class(d) if dual else logic.comprehension_class(d)
    if side == "frobenius":
        return frobenius(d, cls)
    check = is_sigma_doctrine if side == "sigma" else is_pi_doctrine
    squares = (logic.cocomprehension_squares(d) if dual
               else logic.comprehension_squares(d))
    return check(d, cls, restricted=True, squares=squares)


def _derived_assignment(d: Doctrine) -> Verdict:
    """Implication axioms for the comprehension-derived assignment."""
    tables = derived_implication_tables(d)
    if tables is None:
        return Verdict.not_applicable("derived implication undefined")
    return logic.implication_axioms(d, tables)


def _has_stable_initial(d: Doctrine) -> Verdict:
    if d.base.stable_initials:
        return Verdict.holds(d.window_descriptor)
    return Verdict.not_applicable("no stable initial object in the window")


def _fibers_nonempty(d: Doctrine) -> Verdict:
    for o in d.scope_objects:
        if not len(d.fibers[o]):
            return Verdict.not_applicable(f"fiber({o}) is empty")
    return Verdict.holds(d.window_descriptor)


def _p0_singleton_conclusion(d: Doctrine) -> Verdict:
    for zero in d.base.stable_initials:
        if len(d.fibers[zero]) != 1:
            return Verdict.refuted(kind="initial_fiber_not_singleton",
                                   object=zero, size=len(d.fibers[zero]))
    return Verdict.holds(d.window_descriptor)


def _p0_singleton_if_initial(d: Doctrine) -> Verdict:
    """The same condition as a hypothesis: not applicable where it fails."""
    v = _p0_singleton_conclusion(d)
    return v if v else Verdict.not_applicable(
        f"fiber({v.counterexample['object']}) of the stable initial is not a singleton")


# The checks that only theorems read, by the names their reports give them.
# They are not classification flags, so a filter cannot name them.
_CLAUSES: dict[str, Callable[[Doctrine], Verdict]] = {
    "frobenius_comp": lambda d: _over_witness_class(d, "frobenius", False),
    "restricted_pi_comp": lambda d: _over_witness_class(d, "pi", False),
    "restricted_sigma_comp": lambda d: _over_witness_class(d, "sigma", False),
    "restricted_sigma_cocomp": lambda d: _over_witness_class(d, "sigma", True),
    "derived_assignment_passes": _derived_assignment,
    "stable_initial": _has_stable_initial,
    "fibers_nonempty": _fibers_nonempty,
    "p0_singleton": _p0_singleton_if_initial,
}

_FLAG_MAP: dict[str, Callable[[Doctrine], Verdict]] = dict(CLASSIFY_FLAGS)
_FLAG_ALIASES = {"comp": "comprehension", "cocomp": "cocomprehension",
                 "full_comprehension": "full_comp",
                 "full_cocomprehension": "full_cocomp"}


def flag_check(name: str) -> Callable[[Doctrine], Verdict]:
    canonical = _FLAG_ALIASES.get(name, name)
    fn = _FLAG_MAP.get(canonical)
    if fn is None:
        raise KeyError(f"unknown classification flag {name!r}")
    return fn


def _named_check(name: str) -> Callable[[Doctrine], Verdict]:
    """The flag or the clause of that name (never an alias)."""
    return _FLAG_MAP[name] if name in _FLAG_MAP else _CLAUSES[name]


def classify(d: Doctrine) -> dict[str, Verdict]:
    """Every classification flag, in definitional order."""
    return {name: fn(d) for name, fn in CLASSIFY_FLAGS}


def witness_report(d: Doctrine) -> dict:
    """The chosen witness tables, for the machine report: equality
    predicates, (co-)comprehension arrows, negation, epsilon entries and
    power objects, whatever the instance supports."""
    out: dict = {}
    eq = logic.find_equality(d)
    if eq is not None:
        out["delta"] = dict(eq)
    for key, table in (("comprehension", logic.comprehension_table(d)),
                       ("cocomprehension", logic.cocomprehension_table(d))):
        if table:
            out[key] = {f"{a}|{alpha}": arrow
                        for (a, alpha), arrow in sorted(table.items())}
    neg = logic.negation(d)
    if neg is not None:
        out["negation"] = {a: dict(t) for a, t in sorted(neg.items())}
    ac, eps = logic.ac_check(d)
    if eps:
        out["epsilon"] = {f"{g}|{a}|{psi}": arrow
                          for (g, a, psi), arrow in sorted(eps.items())}
    powers = {}
    for a in d.base.window:
        w = logic.weak_power_object(d, a)
        if w is not None:
            powers[a] = dict(w)
    if powers:
        out["power_objects"] = powers
    return out


# -- filter expressions ----------------------------------------------------------

class FilterExpr:
    __slots__ = ("kind", "name", "args")

    def __init__(self, kind: str, name: str | None = None,
                 args: tuple["FilterExpr", ...] = ()):
        self.kind = kind  # "flag" | "not" | "and" | "or"
        self.name, self.args = name, args

    def evaluate(self, d: Doctrine) -> bool:
        if self.kind == "flag":
            return bool(flag_check(self.name)(d))
        if self.kind == "not":
            return not self.args[0].evaluate(d)
        if self.kind == "and":
            return all(a.evaluate(d) for a in self.args)
        return any(a.evaluate(d) for a in self.args)


def parse_filter(text: str) -> FilterExpr:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&|!":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"bad character {c!r} in filter")
            tokens.append(text[i:j])
            i = j
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of filter expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_or():
        args = [parse_and()]
        while peek() == "|":
            take()
            args.append(parse_and())
        return args[0] if len(args) == 1 else FilterExpr("or", args=tuple(args))

    def parse_and():
        args = [parse_not()]
        while peek() == "&":
            take()
            args.append(parse_not())
        return args[0] if len(args) == 1 else FilterExpr("and", args=tuple(args))

    def parse_not():
        if peek() == "!":
            take()
            return FilterExpr("not", args=(parse_not(),))
        if peek() == "(":
            take()
            inner = parse_or()
            take(")")
            return inner
        name = take()
        if name in "()&|!":
            raise ValueError(f"unexpected token {name!r}")
        flag_check(name)  # raises on unknown flags
        return FilterExpr("flag", name=name)

    expr = parse_or()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in filter: {tokens[pos:]}")
    return expr


# -- theorem registry -------------------------------------------------------------

class TheoremReport:
    """One theorem checked on one instance.

    ``instance_hash`` and ``instance_document`` are computed on first read,
    through the doctrine's memo, so a report that is only counted never
    serialises its instance, and every report of a doctrine shares one
    document.  A report therefore pins its doctrine."""
    __slots__ = ("theorem", "instance", "hypotheses", "conclusion", "wall_ms",
                 "_doctrine")

    def __init__(self, theorem: str, doctrine: Doctrine,
                 hypotheses: tuple[tuple[str, Verdict], ...],
                 conclusion: Verdict, wall_ms: float):
        self.theorem, self.instance, self._doctrine = \
            theorem, doctrine.name, doctrine
        self.hypotheses, self.conclusion, self.wall_ms = \
            hypotheses, conclusion, wall_ms

    @property
    def instance_hash(self) -> str:
        return ioformat.instance_hash(self._doctrine)

    @property
    def instance_document(self) -> dict:
        return ioformat.to_document(self._doctrine)

    @property
    def hypotheses_hold(self) -> bool:
        return all(bool(v) for _, v in self.hypotheses)

    @property
    def is_violation(self) -> bool:
        """Hypotheses satisfied, conclusion refuted: contradicts a theorem."""
        return self.hypotheses_hold and self.conclusion.is_refuted

    def to_json(self, timing: bool = False) -> dict:
        # the embedded document makes the record self-contained: rebuilding
        # the instance from it reproduces the verdict with no instance store
        out = {
            "theorem": self.theorem,
            "instance": self.instance,
            "instance_hash": self.instance_hash,
            "instance_document": self.instance_document,
            "hypotheses": {n: v.to_json() for n, v in self.hypotheses},
            "conclusion": self.conclusion.to_json(),
            "violation": self.is_violation,
        }
        if timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


def _nonloso_conclusion(d: Doctrine) -> Verdict:
    # sub-claim: quantifying the top along a comprehension arrow recovers
    # the comprehended predicate
    table = logic.comprehension_table(d)
    for (a, alpha), w in sorted(table.items()):
        adj = d.sigma(w)
        if adj is None:
            return Verdict.not_applicable(f"sigma missing along {w}")
        top = d.top(d.base.dom(w))
        if adj.table[top] != alpha:
            return Verdict.refuted(kind="image_of_top", object=a, alpha=alpha,
                                   arrow=w, image=adj.table[top])
    return combine(d.window_descriptor, _over_witness_class(d, "sigma", False))


def _biconditional(left: str, right: str) -> Callable[[Doctrine], Verdict]:
    """The check that flags ``left`` and ``right`` agree where both apply; a
    refutation names the two flags, and recheck runs them again."""
    def iff(d: Doctrine) -> Verdict:
        # looked up at each call, not captured: a tracer rebinds the flags
        # in _FLAG_MAP, never in a closure
        lv, rv = _FLAG_MAP[left](d), _FLAG_MAP[right](d)
        if lv.is_na:
            return Verdict.not_applicable(f"{left}: {lv.reason}")
        if rv.is_na:
            return Verdict.not_applicable(f"{right}: {rv.reason}")
        if bool(lv) == bool(rv):
            return Verdict.holds(d.window_descriptor)
        return Verdict.refuted(kind="biconditional", left=left,
                               left_status=lv.status, right=right,
                               right_status=rv.status,
                               left_payload=lv.counterexample,
                               right_payload=rv.counterexample)
    return iff


def _zero_conclusion(d: Doctrine) -> Verdict:
    base = d.base
    for zero in base.stable_initials:
        for x in base.window:
            for k in base.hom(x, zero):
                if not base.is_iso(k):
                    return Verdict.refuted(kind="arrow_into_initial_not_iso",
                                           arrow=k, initial=zero)
    return Verdict.holds(d.window_descriptor)


def _bc_lemma_conclusion(d: Doctrine) -> Verdict:
    # the "ac" hypothesis holds, so the table has every (Gamma, A, psi)
    base = d.base
    for (gamma, a, psi), e in logic.ac_check(d)[1].items():
        chosen = d.star(base.pair(base.identity[gamma], e), psi)
        for h in base.hom(gamma, a):
            val = d.star(base.pair(base.identity[gamma], h), psi)
            if not d.fibers[gamma].leq(val, chosen):
                return Verdict.refuted(kind="choice_not_maximal",
                                       Gamma=gamma, A=a, psi=psi,
                                       h=h, epsilon=e, via_h=val,
                                       via_epsilon=chosen)
    return Verdict.holds(d.window_descriptor)


def _dual_tripos_conclusion(d: Doctrine) -> Verdict:
    dual = dualize(d)
    return combine(d.window_descriptor, logic.is_tripos(dual),
                   logic.is_full_comprehension(dual))


def _prop1_conclusion(d: Doctrine) -> Verdict:
    direct = logic.is_tripos(d)
    char = logic.is_tripos_via_characterization(d)
    if direct.is_na or char.is_na:
        return Verdict.not_applicable(
            "not both checkers applicable: "
            f"direct={direct.status}, characterization={char.status}")
    if bool(direct) == bool(char):
        return Verdict.holds(d.window_descriptor)
    return Verdict.refuted(kind="tripos_checkers_disagree",
                           direct=direct.to_json(), characterization=char.to_json())


# id -> (id, title, ((hypothesis name, check), ...), conclusion check).  A
# hypothesis is named, and so is a conclusion that is a flag or a clause;
# each name is resolved here, once, to its check.
REGISTRY: dict[str, tuple] = {
    tid: (tid, title, tuple((name, _named_check(name)) for name in hypotheses),
          _named_check(conclude) if isinstance(conclude, str) else conclude)
    for tid, title, hypotheses, conclude in (
        ("nonloso",
         "full comprehension with Frobenius left adjoints along the "
         "comprehension class gives the restricted Beck-Chevalley condition",
         ("primary", "full_comp", "frobenius_comp"), _nonloso_conclusion),
        ("bingo",
         "a Pi-doctrine with full comprehension and restricted Beck-Chevalley "
         "over the comprehension class is implicational",
         ("pi", "full_comp", "restricted_pi_comp"), "derived_assignment_passes"),
        ("bingo_converse",
         "if the derived assignment is implicational, comprehension is full",
         ("pi", "comprehension", "derived_assignment_passes"), "full_comp"),
        ("negation_i",
         "comprehension plus negation gives co-comprehension",
         ("comprehension", "negation"), "cocomprehension"),
        ("negation_ii",
         "restricted Beck-Chevalley passes from the comprehension class to "
         "the co-comprehension class",
         ("comprehension", "negation", "restricted_sigma_comp"),
         "restricted_sigma_cocomp"),
        ("negation_iii",
         "under full comprehension and negation: full co-comprehension iff "
         "classical",
         ("comprehension", "negation", "full_comp"),
         _biconditional("full_cocomp", "classical")),
        ("zero",
         "under choice with nonempty fibers, arrows into a stable initial "
         "object are isomorphisms",
         ("ac", "stable_initial", "fibers_nonempty"), _zero_conclusion),
        ("bc_lemma",
         "the chosen witness dominates every substitution instance",
         ("ac",), _bc_lemma_conclusion),
        ("nonne0",
         "choice with bottoms (and singleton fiber over a stable initial) "
         "makes projections Beck-Chevalley",
         ("ac", "has_bottoms", "p0_singleton"), "sigma"),
        ("nonne1",
         "a primary doctrine with choice, bottoms and singleton initial fiber "
         "is existential",
         ("primary", "ac", "has_bottoms", "p0_singleton"), "existential"),
        ("sinistra",
         "a higher order Sigma-doctrine with full co-comprehension and "
         "restricted Beck-Chevalley over it dualizes to a tripos with full "
         "comprehension",
         ("higher_order", "sigma", "full_cocomp", "restricted_sigma_cocomp"),
         _dual_tripos_conclusion),
        ("checazzo2",
         "the fiber over a stable initial object of an eaco is a singleton",
         ("eaco", "stable_initial"), _p0_singleton_conclusion),
        ("eaco_existential",
         "every eaco is existential",
         ("eaco",), "existential"),
        ("baggins",
         "every eaco satisfies restricted Beck-Chevalley over the "
         "co-comprehension class",
         ("eaco",), "restricted_sigma_cocomp"),
        ("frodo",
         "every heaco is a Pi-doctrine",
         ("heaco",), "pi"),
        ("finite_joins",
         "fibers of a heaco have finite joins",
         ("heaco",), "finite_joins"),
        ("caratterino",
         "a heaco is implicational iff it is a tripos",
         ("heaco",), _biconditional("implicational", "tripos")),
        ("prop1_equiv",
         "the tripos definition and its implicational characterization agree",
         (), _prop1_conclusion),
    )}


def theorem_ids() -> list[str]:
    return list(REGISTRY)


def check_theorem(tid: str, d: Doctrine) -> TheoremReport:
    if tid not in REGISTRY:
        raise KeyError(f"unknown theorem id {tid!r}")
    _, _, hypotheses, conclude = REGISTRY[tid]
    start = time.perf_counter()
    hyps: list[tuple[str, Verdict]] = []
    all_hold = True
    for name, fn in hypotheses:
        v = fn(d)
        hyps.append((name, v))
        if not v:
            all_hold = False
            break
    if all_hold:
        conclusion = conclude(d)
    else:
        failed = hyps[-1][0]
        conclusion = Verdict.not_applicable(f"hypothesis {failed!r} not satisfied")
    wall = (time.perf_counter() - start) * 1000.0
    return TheoremReport(tid, d, tuple(hyps), conclusion, wall)


def check_all(d: Doctrine) -> list[TheoremReport]:
    return [check_theorem(tid, d) for tid in REGISTRY]


# -- enumeration ------------------------------------------------------------------

_SHAPE_DEFS: tuple[tuple[str, int, tuple[tuple[int, int], ...]], ...] = (
    ("P1", 1, ()),
    ("C2", 2, ((0, 1),)),
    ("A2", 2, ()),
    ("C3", 3, ((0, 1), (1, 2), (0, 2))),
    ("V3", 3, ((0, 1), (0, 2))),
    ("L3", 3, ((0, 2), (1, 2))),
    ("N21", 3, ((0, 1),)),
    ("A3", 3, ()),
)

_SHAPES: dict[str, FinPoset] = {}
_AUTS: dict[str, tuple[tuple[int, ...], ...]] = {}
_MONO: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}
_MAP_CACHE: dict[tuple[str, str, tuple[int, ...]], MonotoneMap] = {}


def fiber_shapes(max_size: int = 3, min_size: int = 1) -> list[str]:
    _init_shapes()
    return [sid for sid, n, _ in _SHAPE_DEFS if min_size <= n <= max_size]


def _init_shapes() -> None:
    if _SHAPES:
        return
    for sid, n, pairs in _SHAPE_DEFS:
        elements = [f"u{i}" for i in range(n)]
        leq = [(f"u{i}", f"u{j}") for i, j in pairs]
        _SHAPES[sid] = FinPoset(elements, leq + [(e, e) for e in elements])
    for sa, pa in _SHAPES.items():
        for sb, pb in _SHAPES.items():
            _MONO[(sa, sb)] = tuple(_monotone_maps(pa.uppers, pb.uppers))
        # a monotone bijection of a finite order permutes its comparable
        # pairs, so it reflects the order: it is an automorphism
        _AUTS[sa] = tuple(m for m in _MONO[(sa, sa)] if len(set(m)) == len(m))


def _interned_map(src_shape: str, dst_shape: str,
                  table: tuple[int, ...]) -> MonotoneMap:
    key = (src_shape, dst_shape, table)
    got = _MAP_CACHE.get(key)
    if got is None:
        got = MonotoneMap(_SHAPES[src_shape], _SHAPES[dst_shape], table)
        _MAP_CACHE[key] = got
    return got


_CHAIN_BASES: dict[int, FinCategory] = {}


def chain_base(n: int) -> FinCategory:
    """The n-element chain as a thin cartesian base (meets are products)."""
    got = _CHAIN_BASES.get(n)
    if got is None:
        elements = [f"L{i}" for i in range(n)]
        leq = [(f"L{i}", f"L{j}") for i in range(n) for j in range(i, n)]
        got, _ = semilattice_category(elements, leq, kind=f"chain{n}")
        _CHAIN_BASES[n] = got
    return got


_ACTIONS: dict[tuple[str, str], tuple[tuple[tuple[int, ...], ...], ...]] = {}


def _action(src_shape: str, dst_shape: str) -> tuple:
    """``t[a][b][k]``: the index in ``_MONO[(src_shape, dst_shape)]`` of
    ``a . m_k . b^-1``, for the ``a``-th automorphism of the target and the
    ``b``-th of the source; built on first use of the shape pair."""
    got = _ACTIONS.get((src_shape, dst_shape))
    if got is None:
        maps = _MONO[(src_shape, dst_shape)]
        index = {m: k for k, m in enumerate(maps)}
        inverses = []
        for b in _AUTS[src_shape]:
            inv = [0] * len(b)
            for x, y in enumerate(b):
                inv[y] = x
            inverses.append(inv)
        got = tuple(
            tuple(tuple(index[tuple([a[m[x]] for x in inv])] for m in maps)
                  for inv in inverses)
            for a in _AUTS[dst_shape])
        _ACTIONS[(src_shape, dst_shape)] = got
    return got


def _orbit_step(table: tuple, reach, k: int) -> set[int] | None:
    """The automorphisms of the next fiber that reach the least prefix
    through cover index ``k`` and ``table = _action(...)``, from ``reach``
    of this fiber; None if some reachable pair gives a smaller index."""
    nxt = set()
    for a in reach:
        for b, row in enumerate(table[a]):
            image = row[k]
            if image < k:
                return None
            if image == k:
                nxt.add(b)
    return nxt


def _walk(shapes: Sequence[str], maps: dict, p: int,
          reach) -> Iterator[tuple[int, dict | None]]:
    """The cover indices from position ``p`` on, depth first in
    lexicographic order, below a prefix whose orbit step left ``reach``.
    Yields ``(size, None)`` for each subtree of ``size`` candidates whose
    root index is not orbit-least, and ``(1, maps)`` for each least
    candidate, whose ``maps[(i, j)]`` (the reindexing from fiber ``j`` to
    fiber ``i``, filled in as each prefix is entered) holds until resumed."""
    last = len(shapes) - 1
    if p == last:
        yield 1, maps
        return
    table = _action(shapes[p + 1], shapes[p])
    below = math.prod(len(_MONO[(shapes[q + 1], shapes[q])])
                      for q in range(p + 1, last))
    for k, cover in enumerate(_MONO[(shapes[p + 1], shapes[p])]):
        nxt = _orbit_step(table, reach, k)
        if nxt is None:
            yield below, None
            continue
        maps[(p, p + 1)] = _interned_map(shapes[p + 1], shapes[p], cover)
        for i in range(p):
            lower = maps[(i, p)].idx_table
            maps[(i, p + 1)] = _interned_map(shapes[p + 1], shapes[i],
                                             tuple(lower[x] for x in cover))
        if p + 1 == last:
            yield 1, maps
        else:
            yield from _walk(shapes, maps, p + 1, nxt)


def enumerate_doctrines(max_base: int = 3, max_fiber: int = 3,
                        min_fiber: int = 1,
                        filter_expr: FilterExpr | str | None = None,
                        budget: int = 100_000,
                        max_emit: int | None = None,
                        stats: dict | None = None) -> Iterator[Doctrine]:
    """Pairwise non-isomorphic doctrines over thin chain bases.

    Candidates are a base, a fiber shape per object and a cover map per
    consecutive pair, in lexicographic order of the cover indices; one is
    emitted exactly when it is the least member of its orbit under the
    fibers' automorphisms (orderly generation).  An orbit never leaves its
    base and shape assignment, each ``_MONO`` list is in lexicographic
    order and the candidates of one assignment come in lexicographic order,
    so the least member of an orbit is also the first one met: every
    doctrine is emitted once, under the name of its first candidate.

    The cover indices of an assignment are walked depth first: whether a
    prefix is orbit-least depends on the prefix alone, so its orbit step and
    composite reindexing tables are computed once for its whole subtree,
    and a subtree whose root is not least is skipped whole.

    ``budget`` caps the raw candidates examined, a skipped subtree counting
    as all its candidates (a budget that ends inside one stops at exactly
    ``budget``); ``max_emit`` is checked first.  ``stats`` (if given) is
    filled with candidate/emitted counts and whether the budget ran out;
    when a doctrine is yielded, its candidates count is the one in its name.
    """
    _init_shapes()
    env_budget = os.environ.get("DOCTRINELAB_BUDGET")
    if env_budget:
        if not env_budget.isdecimal():
            raise ParseError("DOCTRINELAB_BUDGET must be a non-negative integer,"
                             f" not {env_budget!r}")
        budget = min(budget, int(env_budget))
    if isinstance(filter_expr, str):
        filter_expr = parse_filter(filter_expr)
    shapes = fiber_shapes(max_fiber, min_fiber)
    counters = stats if stats is not None else {}
    counters.update({"candidates": 0, "emitted": 0, "budget_exhausted": False})
    for n in range(1, max_base + 1):
        base = chain_base(n)
        objs = base.objects
        arrows = [(a.name, (base.obj_index(a.dom), base.obj_index(a.cod)))
                  for a in base.arrows.values()]
        for shape_assign in itertools.product(shapes, repeat=n):
            fibers = {o: _SHAPES[s] for o, s in zip(objs, shape_assign)}
            maps = {(i, i): _interned_map(s, s, tuple(range(len(_SHAPES[s]))))
                    for i, s in enumerate(shape_assign)}
            for size, got in _walk(shape_assign, maps, 0,
                                   range(len(_AUTS[shape_assign[0]]))):
                if max_emit is not None and counters["emitted"] >= max_emit:
                    return
                if counters["candidates"] + size > budget:
                    counters["candidates"] = budget
                    counters["budget_exhausted"] = True
                    return
                counters["candidates"] += size
                if got is None:
                    continue
                d = Doctrine(base, fibers, {name: got[ij] for name, ij in arrows},
                             name=f"enum-{n}-{counters['candidates']}")
                if filter_expr is not None and not filter_expr.evaluate(d):
                    continue
                counters["emitted"] += 1
                yield d
