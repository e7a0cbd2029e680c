"""Derived constructions: existential quantification from equality,
implication from comprehension and Pi, co-comprehension from negation,
graphs, the order-reversed dual doctrine, and the eaco/heaco pipeline that
manufactures a tripos on the dual.
"""

from __future__ import annotations

from .doctrine import Doctrine, is_existential, is_sigma_doctrine, memoized
from .logic import (ac_check, cocomprehension_class, cocomprehension_squares,
                    cocomprehension_table, comprehension_table, find_equality,
                    is_elementary, is_full_cocomprehension, is_full_comprehension,
                    is_higher_order, is_tripos, negation, validate_witness)
from .poset import MonotoneMap
from .verdicts import StructureMissing, Verdict, combine

__all__ = [
    "derived_sigma",
    "derived_implication_tables",
    "cocomp_from_negation",
    "graph",
    "dualize",
    "eaco_compat",
    "eaco_compat_all",
    "is_eaco",
    "is_heaco",
    "heaco_to_tripos",
]


def derived_sigma(d: Doctrine, f: str, alpha: str) -> str:
    """Left adjoint along any arrow, computed from the equality predicate:
    the image of ``alpha`` is the projection-quantified graph formula."""
    eq = find_equality(d)
    if eq is None:
        raise StructureMissing("derived sigma needs an elementary doctrine")
    if not is_existential(d):
        raise StructureMissing("derived sigma needs an existential doctrine")
    base = d.base
    a, b = base.dom(f), base.cod(f)
    row = base.products[(a, b)]
    fiber = d.fibers[row.obj]
    f_times_id = base.times(f, base.identity[b])
    graph_part = fiber.index[d.star(f_times_id, eq[b])]
    alpha_part = fiber.index[d.star(row.proj1, alpha)]
    adj = d.sigma(row.proj2)
    if adj is None:
        raise StructureMissing(f"no left adjoint along projection {row.proj2}")
    return adj.target.elements[adj.idx_table[fiber.ops.meet[graph_part][alpha_part]]]


def derived_implication_tables(d: Doctrine) -> dict[str, list[list[int]]] | None:
    """``out[obj][i][j]``, the index of ``i -> j`` on each window fiber: the
    Pi along the comprehension of ``i`` of the restriction of ``j``; None
    when some witness or adjoint is missing."""
    table = comprehension_table(d)
    out: dict[str, list[list[int]]] = {}
    for obj in d.base.window:
        rows = out[obj] = []
        for phi in d.fibers[obj].elements:
            w = table.get((obj, phi))
            if w is None:
                return None
            adj = d.pi(w)
            if adj is None:
                return None
            rows.append(list(map(adj.idx_table.__getitem__,
                                 d.reindex[w].idx_table)))
    return out


def cocomp_from_negation(d: Doctrine, obj: str, alpha: str) -> str:
    """The co-comprehension arrow of ``alpha`` as the comprehension arrow of
    its negation."""
    neg = negation(d)
    if neg is None:
        raise StructureMissing("no negation table")
    w = comprehension_table(d).get((obj, neg[obj][alpha]))
    if w is None:
        raise StructureMissing(
            f"no comprehension witness for the negation of {alpha} over {obj}")
    if not validate_witness(d, obj, alpha, w, dual=True):
        raise StructureMissing(
            f"comprehension of the negation of {alpha} fails the"
            " co-comprehension universal property")
    return w


def graph(d: Doctrine, f: str) -> str:
    """The graph of ``f: X -> A``: the codomain equality predicate pulled
    back along ``f x id``; an element of the fiber over X x A."""
    eq = find_equality(d)
    if eq is None:
        raise StructureMissing("graphs need an elementary doctrine")
    base = d.base
    a = base.cod(f)
    if a not in eq:
        raise StructureMissing(f"no equality predicate over {a}")
    return d.star(base.times(f, base.identity[a]), eq[a])


def dualize(d: Doctrine) -> Doctrine:
    """Order-reversed fibers, identical reindexing tables."""
    fibers = {o: p.reversed() for o, p in d.fibers.items()}
    reindex = {}
    for n, m in d.reindex.items():
        arr = d.base.arrows[n]
        reindex[n] = MonotoneMap(fibers[arr.cod], fibers[arr.dom], m.idx_table)
    source = dict(d.source)
    source["dual"] = not source.get("dual", False)
    suffix = "^op"
    name = d.name[:-len(suffix)] if d.name.endswith(suffix) else d.name + suffix
    return Doctrine(d.base, fibers, reindex, name=name, source=source)


# -- eaco / heaco --------------------------------------------------------------

def _choice_value(d: Doctrine, eps: dict[tuple[str, str, str], str],
                  w: str) -> str | None:
    """<epsilon, id>* of the graph of a co-comprehension arrow ``w``, with
    ``eps`` the ``{(gamma, a, psi): arrow}`` table of ``ac_check``; when the
    domain is stable initial the bottom-assignment left adjoint evaluates the
    projection-quantified graph instead."""
    base = d.base
    u, b = base.dom(w), base.cod(w)
    g = graph(d, w)
    if base.is_stable_initial(u):
        return d.bottom(b)
    # a holding ac_check has an entry for every window b and every u that is
    # not stable initial
    e = eps[(b, u, d.star(base.swap(b, u), g))]
    return d.star(base.pair(e, base.identity[b]), g)


def eaco_compat(d: Doctrine, f: str, alpha: str) -> Verdict:
    """The choice-versus-substitution equation for one arrow and predicate."""
    eq = is_elementary(d)
    if not eq:
        return Verdict.not_applicable(f"not elementary: {eq.reason or 'refuted'}")
    cocomp = is_full_cocomprehension(d)
    if not cocomp:
        return Verdict.not_applicable("no full co-comprehension")
    ac, eps = ac_check(d)
    if not ac:
        return Verdict.not_applicable(f"AC does not hold: {ac.reason or 'refuted'}")
    base = d.base
    a = base.cod(f)
    table = cocomprehension_table(d)
    w_a = table.get((a, alpha))
    pulled = d.star(f, alpha)
    w_x = table.get((base.dom(f), pulled))
    if w_a is None or w_x is None:
        return Verdict.not_applicable("missing co-comprehension witness")
    lhs_val = _choice_value(d, eps, w_a)
    rhs_val = _choice_value(d, eps, w_x)
    if lhs_val is None or rhs_val is None:
        return Verdict.not_applicable("no epsilon witness for a graph")
    lhs = d.star(f, lhs_val)
    if lhs != rhs_val:
        return Verdict.refuted(kind="eaco_compat", arrow=f, alpha=alpha,
                               lhs=lhs, rhs=rhs_val)
    return Verdict.holds(d.window_descriptor)


@memoized
def eaco_compat_all(d: Doctrine) -> Verdict:
    for f in d.base.window_arrows:
        for alpha in d.fibers[d.base.cod(f)].elements:
            v = eaco_compat(d, f, alpha)
            if not v:
                return v
    return Verdict.holds(d.window_descriptor)


def _eaco_clauses(d: Doctrine) -> list[tuple[str, Verdict]]:
    return [("elementary", is_elementary(d)),
            ("full_cocomprehension", is_full_cocomprehension(d)),
            ("ac", ac_check(d)[0]),
            ("compatibility", eaco_compat_all(d))]


@memoized
def is_eaco(d: Doctrine) -> Verdict:
    """Elementary, full co-comprehension, AC, and the compatibility equation."""
    return combine(d.window_descriptor, *(v for _, v in _eaco_clauses(d)))


@memoized
def is_heaco(d: Doctrine) -> Verdict:
    return combine(d.window_descriptor, is_eaco(d), is_higher_order(d))


def heaco_to_tripos(d: Doctrine) -> tuple[Doctrine, Verdict]:
    """The dual of a heaco, with the verdict that it is a tripos with full
    comprehension; the restricted Beck-Chevalley condition over the
    co-comprehension class is re-verified directly so a failure localizes."""
    clauses = _eaco_clauses(d) + [("higher_order", is_higher_order(d))]
    failed = [name for name, v in clauses if not v]
    dual = dualize(d)
    if failed:
        return dual, Verdict.not_applicable(
            "heaco checklist failed at: " + ", ".join(failed))
    restricted = is_sigma_doctrine(d, cocomprehension_class(d), restricted=True,
                                   squares=cocomprehension_squares(d))
    return dual, combine(d.window_descriptor,
                         restricted,
                         is_tripos(dual),
                         is_full_comprehension(dual))
