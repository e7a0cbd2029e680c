"""Independent re-evaluation of Refuted counterexample payloads.

Every Refuted verdict carries the ids needed to re-derive the violation from
primitives (table lookups, order tests, fresh adjoint computation); this
module re-runs that derivation.  ``recheck(d, verdict)`` returns True when
the payload still witnesses a genuine violation on the instance.

On a built window, ``compose_table`` holds no composites: each one looked up
is computed from the arrow tables, which compose as functions by
construction; on an explicit instance it is read from the parsed table.
"""

from __future__ import annotations

from functools import partial

from .doctrine import Doctrine
from .poset import left_adjoint, right_adjoint
from .verdicts import Verdict

__all__ = ["recheck"]


def _fresh_adjoint(d: Doctrine, which: str, f: str):
    fn = left_adjoint if which == "sigma" else right_adjoint
    return fn(d.reindex[f])


def _meet(d: Doctrine, obj: str, a: str, b: str, join: bool = False) -> str | None:
    """The meet (join) of ``a`` and ``b`` in fiber(obj), read from the fiber
    order: the greatest element below (least above) both; None if none."""
    fiber = d.fibers[obj]
    masks, extremum = ((fiber.uppers, fiber.least_of_upset) if join
                       else (fiber.lowers, fiber.greatest_of_downset))
    m = extremum(masks[fiber.index[a]] & masks[fiber.index[b]])
    return None if m is None else fiber.elements[m]


def _pseudocomplement(d: Doctrine, obj: str, beta: str) -> str | None:
    """``beta -> bottom``: the greatest element whose meet with ``beta`` is
    the bottom."""
    ops = d.fibers[obj].ops
    if ops.meet is None or ops.bottom is None:
        return None
    return _heyting_implication(d, obj, beta, ops.bottom)


def recheck(d: Doctrine, verdict: Verdict) -> bool:
    """Does the counterexample payload re-evaluate to a violation?"""
    if not verdict.is_refuted or not verdict.counterexample:
        return False
    p = dict(verdict.counterexample)
    kind = p.get("kind")
    base = d.base
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise KeyError(f"no recheck handler for counterexample kind {kind!r}")
    return handler(d, base, p)


def _h_identity_law(d, base, p):
    i = base.identity[p["object"]]
    f = p["arrow"]
    got = base.compose_table.get((i, f)) if base.cod(f) == p["object"] \
        else base.compose_table.get((f, i))
    return got != f


def _h_associativity(d, base, p):
    left = base.compose(p["h"], base.compose(p["g"], p["f"]))
    right = base.compose(base.compose(p["h"], p["g"]), p["f"])
    return left != right


def _h_functor_identity(d, base, p):
    return d.star(base.identity[p["object"]], p["element"]) != p["element"]


def _h_functor_composition(d, base, p):
    via_parts = d.star(p["f"], d.star(p["g"], p["element"]))
    return via_parts != d.star(p["composite"], p["element"])


def _h_not_monotone(d, base, p):
    a, b = p["pair"]
    arr = base.arrows[p["arrow"]]
    return (d.fibers[arr.cod].leq(a, b)
            and not d.fibers[arr.dom].leq(d.star(p["arrow"], a),
                                          d.star(p["arrow"], b)))


def _h_op_not_preserved(op):
    """``op(d, obj, a, b)`` is the operation in fiber(obj)."""
    def h(d, base, p):
        f = p["arrow"]
        arr = base.arrows[f]
        x, y = p["pair"]
        xy = op(d, arr.cod, x, y)
        of_images = op(d, arr.dom, d.star(f, x), d.star(f, y))
        return (xy is not None and of_images is not None
                and d.star(f, xy) != of_images)
    return h


def _h_bound_not_preserved(d, base, p):
    arr = base.arrows[p["arrow"]]
    so = d.fibers[arr.cod].ops
    to = d.fibers[arr.dom].ops
    return (d.star(p["arrow"], so.top) != to.top
            or d.star(p["arrow"], so.bottom) != to.bottom)


def _h_not_monic(d, base, p):
    g, h = p["pair"]
    return g != h and base.compose(p["arrow"], g) == base.compose(p["arrow"], h)


def _h_not_initial(d, base, p):
    return len(base.hom(p["object"], p["target"])) != 1


def _h_unstable_initial(d, base, p):
    row = base.products[(p["factor"], p["object"])]
    return row.obj != p["object"] and base.find_iso(row.obj, p["object"]) is None


def _h_square_not_commuting(d, base, p):
    s = p["square"]
    return (base.compose_table.get((s["f"], s["to_f"]))
            != base.compose_table.get((s["g"], s["to_g"])))


def _h_square_not_limiting(d, base, p):
    # a commuting window cone (y, u, v) over the cospan that does not factor
    # through the square's apex exactly once
    s = p["square"]
    y, u, v = p["cone"]
    fu = base.compose_table.get((s["f"], u))
    cone = (y in base.window and base.dom(u) == y == base.dom(v)
            and fu is not None and fu == base.compose_table.get((s["g"], v)))
    return cone and sum(base.compose_table.get((s["to_f"], k)) == u
                        and base.compose_table.get((s["to_g"], k)) == v
                        for k in base.hom(y, s["apex"])) != 1


def _h_beck_chevalley(d, base, p):
    sq = p["square"]
    which = p["which"]
    adj_f = _fresh_adjoint(d, which, sq["f"])
    adj_g = _fresh_adjoint(d, which, sq["to_g"])
    if adj_f is None or adj_g is None:
        return False
    gamma = p["gamma"]
    lhs = d.star(sq["g"], adj_f.table[gamma])
    rhs = adj_g.table[d.star(sq["to_f"], gamma)]
    return lhs != rhs


def _h_frobenius(d, base, p):
    f = p["arrow"]
    adj = _fresh_adjoint(d, "sigma", f)
    if adj is None:
        return False
    arr = base.arrows[f]
    inner = _meet(d, arr.dom, p["alpha"], d.star(f, p["beta"]))
    rhs = _meet(d, arr.cod, p["beta"], adj.table[p["alpha"]])
    return inner is not None and rhs is not None and adj.table[inner] != rhs


def _h_no_equality_predicate(d, base, p):
    a = p["object"]
    return all(_h_declared_delta_invalid(d, base, {"object": a, "delta": delta})
               for delta in d.fibers[base.products[(a, a)].obj].elements)


def _h_not_substitutive(d, base, p):
    from .logic import find_equality
    eq = find_equality(d)
    if eq is None:
        return False
    a = p["object"]
    row = base.products[(a, a)]
    lhs = _meet(d, row.obj, d.star(row.proj1, p["psi"]), eq[a])
    rhs = _meet(d, row.obj, d.star(row.proj2, p["psi"]), eq[a])
    return lhs != rhs


def _h_comprehension_not_full(d, base, p):
    wa, wb = p["arrows"]
    factors = any(base.compose(wb, k) == wa
                  for k in base.hom(base.dom(wa), base.dom(wb)))
    fiber = d.fibers[p["object"]]
    if p["kind"] == "comprehension_not_full":
        return factors and not fiber.leq(p["alpha"], p["beta"])
    return factors and not fiber.leq(p["beta"], p["alpha"])


def _h_negation_not_natural(d, base, p):
    arr = base.arrows[p["arrow"]]
    n_cod = _pseudocomplement(d, arr.cod, p["beta"])
    n_dom = _pseudocomplement(d, arr.dom, d.star(p["arrow"], p["beta"]))
    return (n_cod is not None and n_dom is not None
            and d.star(p["arrow"], n_cod) != n_dom)


def _h_not_classical(d, base, p):
    n1 = _pseudocomplement(d, p["object"], p["alpha"])
    if n1 is None:
        return False
    n2 = _pseudocomplement(d, p["object"], n1)
    return n2 != p["alpha"]


def _h_implication_axiom(axiom):
    def h(d, base, p):
        fiber = d.fibers[p["object"]]
        if axiom == "a":
            return not fiber.leq(p["phi"], p["value"])
        if axiom == "b":
            return not fiber.leq(p["lhs"], p["rhs"])
        if axiom == "c":
            return (fiber.leq(p["gamma"], p["value"])
                    and fiber.leq(p["gamma"], p["phi"])
                    and not fiber.leq(p["gamma"], p["psi"]))
        return (fiber.leq(p["phi"], p["psi"])
                and not fiber.leq(p["gamma"], p["value"]))
    return h


def _heyting_implication(d, obj, a, b):
    """``a -> b`` in fiber(obj): the greatest ``c`` with ``c meet a <= b``,
    by a scan of the fiber order; None where a meet or that ``c`` is
    missing."""
    fiber = d.fibers[obj]
    ia, ib = fiber.index[a], fiber.index[b]
    mask = 0
    for c in range(len(fiber)):
        m = fiber.greatest_of_downset(fiber.lowers[c] & fiber.lowers[ia])
        if m is None:
            return None
        if fiber.leq_idx(m, ib):
            mask |= 1 << c
    g = fiber.greatest_of_downset(mask)
    return None if g is None else fiber.elements[g]


def _derived_implication(d, obj, a, b):
    """``a -> b`` as Pi along a comprehension of ``a`` of the restriction of
    ``b``: a fresh witness search and a fresh adjoint; None without them."""
    base = d.base
    for x in base.window:
        for m in base.hom(x, obj):
            if _universal(d, base, obj, a, m, False):
                adj = _fresh_adjoint(d, "pi", m)
                return None if adj is None else adj.table[d.star(m, b)]
    return None


def _stability_sides(d, base, p, impl):
    """``f*(x -> y)`` and ``f*x -> f*y``."""
    f = p["arrow"]
    arr = base.arrows[f]
    x, y = p["pair"]
    xy = impl(d, arr.cod, x, y)
    return (None if xy is None else d.star(f, xy),
            impl(d, arr.dom, d.star(f, x), d.star(f, y)))


def _pi_exchange_sides(d, base, p, impl):
    """``Pi(p*alpha -> beta)`` and ``alpha -> Pi(beta)`` along the
    projection ``p``."""
    proj = p["projection"]
    arr = base.arrows[proj]
    adj = _fresh_adjoint(d, "pi", proj)
    if adj is None:
        return None, None
    inner = impl(d, arr.dom, d.star(proj, p["alpha"]), p["beta"])
    return (None if inner is None else adj.table[inner],
            impl(d, arr.cod, p["alpha"], adj.table[p["beta"]]))


def _h_implication_law(sides):
    """The payload's ``lhs`` and ``rhs`` are both sides of the law, re-derived
    for the fiber order's implication or for the comprehension-derived one
    (the two tables the checks run on), and they differ."""
    def h(d, base, p):
        for impl in (_heyting_implication, _derived_implication):
            lhs, rhs = sides(d, base, p, impl)
            if (lhs is not None and rhs is not None and lhs != rhs
                    and (lhs, rhs) == (p["lhs"], p["rhs"])):
                return True
        return False
    return h


def _h_ac_no_witness(d, base, p):
    gamma, a = p["Gamma"], p["A"]
    row = base.products[(gamma, a)]
    adj = _fresh_adjoint(d, "sigma", row.proj1)
    if adj is None:
        return False
    target = adj.table[p["psi"]]
    return not any(
        d.star(base.pair(base.identity[gamma], e), p["psi"]) == target
        for e in base.hom(gamma, a))


def _h_choice_not_maximal(d, base, p):
    gamma = p["Gamma"]
    via_h = d.star(base.pair(base.identity[gamma], p["h"]), p["psi"])
    via_eps = d.star(base.pair(base.identity[gamma], p["epsilon"]), p["psi"])
    return not d.fibers[gamma].leq(via_h, via_eps)


def _h_eaco_compat(d, base, p):
    from .constructions import eaco_compat
    return eaco_compat(d, p["arrow"], p["alpha"]).is_refuted


def _universal(d, base, a, alpha, m, dual) -> bool:
    """Is ``m`` a comprehension (co-comprehension, if dual) of ``alpha``
    over ``a``: it pulls ``alpha`` back to the top (bottom), and every window
    arrow that does so factors through it exactly once?"""
    def bound(obj):
        fiber = d.fibers[obj]
        full = (1 << len(fiber)) - 1
        i = (fiber.least_of_upset(full) if dual
             else fiber.greatest_of_downset(full))
        return None if i is None else fiber.elements[i]
    if d.star(m, alpha) != bound(base.dom(m)):
        return False
    for x in base.window:
        for f in base.hom(x, a):
            if d.star(f, alpha) == bound(x) and len(
                    [k for k in base.hom(x, base.dom(m))
                     if base.compose_table.get((m, k)) == f]) != 1:
                return False
    return True


def _h_no_witness(dual):
    def h(d, base, p):
        a, alpha = p["object"], p["alpha"]
        return not any(_universal(d, base, a, alpha, m, dual)
                       for x in base.window for m in base.hom(x, a))
    return h


def _h_declared_witness_invalid(dual):
    def h(d, base, p):
        return not _universal(d, base, p["object"], p["alpha"], p["arrow"], dual)
    return h


def _h_no_weak_power_object(d, base, p):
    a = p["object"]
    return not any(_power_covers(d, base, a, power, mem)
                   for power in {*base.window, *base.power_pool}
                   if (a, power) in base.products
                   for mem in d.fibers[base.products[(a, power)].obj].elements)


def _h_image_of_top(d, base, p):
    adj = _fresh_adjoint(d, "sigma", p["arrow"])
    if adj is None:
        return False
    top = d.fibers[base.dom(p["arrow"])].ops.top
    return adj.table[top] != p["alpha"]


def _h_arrow_into_initial_not_iso(d, base, p):
    return not base.is_iso(p["arrow"])


def _h_initial_fiber_not_singleton(d, base, p):
    return len(d.fibers[p["object"]]) != 1


def _h_no_finite_joins(d, base, p):
    ops = d.fibers[p["object"]].ops
    return ops.join is None or ops.bottom is None


def _h_biconditional(d, base, p):
    from .theorems import flag_check
    left = flag_check(p["left"])(d)
    right = flag_check(p["right"])(d)
    return (left.status == p["left_status"] and right.status == p["right_status"]
            and bool(left) != bool(right))


def _h_checkers_disagree(d, base, p):
    from .logic import is_tripos, is_tripos_via_characterization
    return bool(is_tripos(d)) != bool(is_tripos_via_characterization(d))


def _h_not_a_product(d, base, p):
    row = base.products[tuple(p["pair"])]
    return any(sum(base.compose_table.get((row.proj1, h)) == f
                   and base.compose_table.get((row.proj2, h)) == g
                   for h in base.hom(x, row.obj)) != 1
               for x in base.window
               for f in base.hom(x, row.left) for g in base.hom(x, row.right))


def _h_declared_delta_invalid(d, base, p):
    # delta is an equality predicate iff, over every window X, the left
    # adjoint of reindexing along <id, p2>: XA -> (XA)A sends psi to
    # <p1, p2>* psi meet <p2, p3>* delta
    a, delta = p["object"], p["delta"]
    for x in base.window:
        row = base.products[(x, a)]
        triple = base.products[(row.obj, a)]
        q1 = triple.proj1
        left = _fresh_adjoint(d, "sigma",
                              base.pair(base.identity[row.obj], row.proj2))
        if left is None or d.fibers[triple.obj].ops.meet is None:
            return True
        pi23 = base.pair(base.compose(row.proj2, q1), triple.proj2)
        if any(left.table[psi]
               != _meet(d, triple.obj, d.star(q1, psi), d.star(pi23, delta))
               for psi in d.fibers[row.obj].elements):
            return True
    return False


def _h_declared_epsilon_invalid(d, base, p):
    gamma, psi = p["Gamma"], p["psi"]
    adj = _fresh_adjoint(d, "sigma", base.products[(gamma, p["A"])].proj1)
    graph = base.pair(base.identity[gamma], p["arrow"])
    return adj is None or d.star(graph, psi) != adj.table[psi]


def _h_declared_negation_invalid(d, base, p):
    # the payload names the object; the table is the declared one
    fiber = d.fibers[p["object"]]
    ops = fiber.ops
    if ops.meet is None or ops.bottom is None:
        return True
    return any(fiber.leq(alpha, neg)
               != (_meet(d, p["object"], alpha, beta) == ops.bottom)
               for beta, neg in d.declared["negation"][p["object"]].items()
               for alpha in fiber.elements)


def _power_covers(d, base, a, power, mem) -> bool:
    """Does every relation over ``a x y``, for each window ``y``, arise as
    ``(id_a x c)* mem`` for some ``c: y -> power``?"""
    for y in base.window:
        row = base.products.get((a, y))
        if row is None:
            return False
        reached = {d.star(base.times(base.identity[a], c), mem)
                   for c in base.hom(y, power)}
        if not reached.issuperset(d.fibers[row.obj].elements):
            return False
    return True


def _h_declared_power_object_invalid(d, base, p):
    a = p["object"]
    return not _power_covers(d, base, a, p["power"],
                             d.declared["power_objects"][a]["membership"])


_HANDLERS = {
    "identity_law": _h_identity_law,
    "associativity": _h_associativity,
    "functor_identity": _h_functor_identity,
    "functor_composition": _h_functor_composition,
    "not_monotone": _h_not_monotone,
    "meet_not_preserved": _h_op_not_preserved(_meet),
    "join_not_preserved": _h_op_not_preserved(partial(_meet, join=True)),
    "implication_not_preserved": _h_op_not_preserved(_heyting_implication),
    "bound_not_preserved": _h_bound_not_preserved,
    "not_monic": _h_not_monic,
    "not_initial": _h_not_initial,
    "unstable_initial": _h_unstable_initial,
    "square_not_commuting": _h_square_not_commuting,
    "square_not_limiting": _h_square_not_limiting,
    "implication_axiom_a": _h_implication_axiom("a"),
    "implication_axiom_b": _h_implication_axiom("b"),
    "implication_axiom_c": _h_implication_axiom("c"),
    "implication_axiom_d": _h_implication_axiom("d"),
    "beck_chevalley": _h_beck_chevalley,
    "frobenius": _h_frobenius,
    "no_equality_predicate": _h_no_equality_predicate,
    "not_substitutive": _h_not_substitutive,
    "comprehension_not_full": _h_comprehension_not_full,
    "cocomprehension_not_full": _h_comprehension_not_full,
    "negation_not_natural": _h_negation_not_natural,
    "not_classical": _h_not_classical,
    "implication_not_stable": _h_implication_law(_stability_sides),
    "implication_pi_exchange": _h_implication_law(_pi_exchange_sides),
    "ac_no_witness": _h_ac_no_witness,
    "choice_not_maximal": _h_choice_not_maximal,
    "eaco_compat": _h_eaco_compat,
    "no_comprehension_witness": _h_no_witness(False),
    "no_cocomprehension_witness": _h_no_witness(True),
    "no_weak_power_object": _h_no_weak_power_object,
    "image_of_top": _h_image_of_top,
    "arrow_into_initial_not_iso": _h_arrow_into_initial_not_iso,
    "initial_fiber_not_singleton": _h_initial_fiber_not_singleton,
    "no_finite_joins": _h_no_finite_joins,
    "biconditional": _h_biconditional,
    "tripos_checkers_disagree": _h_checkers_disagree,
    "not_a_product": _h_not_a_product,
    "declared_delta_invalid": _h_declared_delta_invalid,
    "declared_comprehension_invalid": _h_declared_witness_invalid(False),
    "declared_cocomprehension_invalid": _h_declared_witness_invalid(True),
    "declared_epsilon_invalid": _h_declared_epsilon_invalid,
    "declared_negation_invalid": _h_declared_negation_invalid,
    "declared_power_object_invalid": _h_declared_power_object_invalid,
}
