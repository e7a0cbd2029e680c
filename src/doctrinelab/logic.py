"""Logical structure over a doctrine: equality predicates, comprehension and
co-comprehension, negation, implication axioms, weak power objects, the
epsilon-style axiom of choice, and the two tripos checkers.

Search-based witnesses are chosen deterministically: candidate arrows in
canonical order (smallest domain first, then arrow id), candidate fiber
elements in fiber order.  A failed search is conclusive (Refuted) when the
candidate pool is fully known, and NotApplicable when the pool is truncated
by the window.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .doctrine import (Doctrine, has_bottoms, has_tops, is_pi_doctrine,
                       is_primary, is_propositional, is_sigma_doctrine,
                       memoized)
from .fincat import ArrowClass, Square, _unique_squares
from .poset import _unpreserved
from .verdicts import Verdict, combine

__all__ = [
    "find_equality",
    "is_elementary",
    "check_substitutive",
    "comprehension",
    "comprehension_table",
    "has_comprehension",
    "is_full_comprehension",
    "comprehension_class",
    "comprehension_squares",
    "cocomprehension",
    "cocomprehension_table",
    "has_cocomprehension",
    "is_full_cocomprehension",
    "cocomprehension_class",
    "cocomprehension_squares",
    "negation",
    "has_negation",
    "is_classical",
    "implication_axioms",
    "heyting_implication_tables",
    "weak_power_object",
    "is_higher_order",
    "ac_check",
    "epsilon",
    "is_tripos",
    "is_tripos_via_characterization",
    "declared_checks",
]


def _search_failure(d: Doctrine, reason: str, **payload) -> Verdict:
    if d.base.presentation.truncated:
        return Verdict.not_applicable(f"window: {reason}")
    return Verdict.refuted(kind=reason, **payload)


# -- equality predicates ------------------------------------------------------

def _delta_validates(d: Doctrine, a: str, delta: str) -> bool:
    """Adjunction test for a candidate equality predicate over ``a``."""
    base = d.base
    for x in base.window:
        row = base.products[(x, a)]
        triple = base.products[(row.obj, a)]
        p_obj, t_obj = row.obj, triple.obj
        pf, tf = d.fibers[p_obj], d.fibers[t_obj]
        ops = tf.ops
        if ops.meet is None:
            return False
        q1 = triple.proj1
        pi23 = base.pair(base.compose(row.proj2, q1), triple.proj2)
        mono = base.pair(base.identity[p_obj], row.proj2)  # id_X x Delta_A
        pi23_star = d.reindex[pi23]
        r = d.reindex[mono].idx_table
        meet_delta = ops.meet[pi23_star.idx_table[pi23_star.source.index[delta]]]
        # L(psi) = <pi1,pi2>*psi  meet  <pi2,pi3>*delta
        for psi, q1_psi in enumerate(d.reindex[q1].idx_table):
            li = meet_delta[q1_psi]
            for phi, r_phi in enumerate(r):
                if tf.leq_idx(li, phi) != pf.leq_idx(psi, r_phi):
                    return False
    return True


def equality_candidates(d: Doctrine, a: str) -> list[str]:
    """All fiber elements over AxA that validate the adjunction for ``a``."""
    base = d.base
    row_aa = base.products[(a, a)]
    fiber_aa = d.fibers[row_aa.obj]
    diag_star = d.reindex[base.diagonal(a)].idx_table
    fiber_a, top_a = d.fibers[a], d.top(a)
    above_top = None if top_a is None else fiber_a.uppers[fiber_a.index[top_a]]
    out = []
    for delta, image in zip(fiber_aa.elements, diag_star):
        if above_top is not None and not above_top >> image & 1:
            continue  # reflexivity is necessary whenever a top exists
        if _delta_validates(d, a, delta):
            out.append(delta)
    return out


@memoized
def _equality(d: Doctrine) -> tuple[Verdict, dict[str, str] | None]:
    """The elementary verdict with ``{obj: delta}``, the first equality
    predicate per window object, when every one has some."""
    primary = is_primary(d)
    if not primary:
        return (primary if primary.is_refuted else Verdict.not_applicable(
            f"not primary: {primary.reason}"), None)
    delta = {}
    for a in d.base.window:
        candidates = equality_candidates(d, a)
        if not candidates:
            # candidate pool is the full fiber, each rejection is a
            # window counterexample, so absence is conclusive
            return Verdict.refuted(kind="no_equality_predicate", object=a), None
        delta[a] = candidates[0]
    return Verdict.holds(d.window_descriptor), delta


def find_equality(d: Doctrine) -> dict[str, str] | None:
    """``{obj: delta}``, the chosen equality predicate per window object, or
    None; the memo's own table: do not mutate it."""
    return _equality(d)[1]


def is_elementary(d: Doctrine) -> Verdict:
    return _equality(d)[0]


def check_substitutive(d: Doctrine, delta: Mapping[str, str]) -> Verdict:
    """Is each ``delta[obj]`` substitutive: does meeting it with a predicate
    pulled back along either projection give the same element?"""
    base = d.base
    for a in base.window:
        if a not in delta:
            return Verdict.not_applicable(f"no equality predicate over {a}")
        row = base.products[(a, a)]
        ops = d.fibers[row.obj].ops
        if ops.meet is None:
            return Verdict.not_applicable(f"no meets in fiber({row.obj})")
        names = d.fibers[row.obj].elements
        meet_delta = ops.meet[d.fibers[row.obj].index[delta[a]]]
        p2_star = d.reindex[row.proj2].idx_table
        for psi, p1_psi in enumerate(d.reindex[row.proj1].idx_table):
            lhs, rhs = meet_delta[p1_psi], meet_delta[p2_star[psi]]
            if lhs != rhs:
                return Verdict.refuted(kind="not_substitutive", object=a,
                                       psi=d.fibers[a].elements[psi],
                                       lhs=names[lhs], rhs=names[rhs])
    return Verdict.holds(d.window_descriptor)


# -- comprehension and co-comprehension ---------------------------------------

def _bound(d: Doctrine, obj: str, dual: bool) -> str | None:
    ops = d.fibers[obj].ops
    return ops.bottom if dual else ops.top


def _kind(dual: bool) -> str:
    return "cocomprehension" if dual else "comprehension"


def _matching(d: Doctrine, a: str, alpha: str, dual: bool) -> list[str]:
    """Window arrows into ``a`` along which ``alpha`` becomes the top (the
    bottom, if dual): the cone the universal property quantifies over."""
    base = d.base
    return [f for f in base.window_arrows_into(a)
            if d.star(f, alpha) == _bound(d, base.dom(f), dual)]


def _is_universal(d: Doctrine, arrow: str, alpha: str, dual: bool,
                  matching: list[str]) -> bool:
    """The (co-)comprehension universal property of ``arrow``: ``alpha``
    becomes the top (bottom) along it, and every arrow of ``matching``
    factors through it uniquely."""
    base = d.base
    dm = base.dom(arrow)
    return d.star(arrow, alpha) == _bound(d, dm, dual) and all(
        sum(base.compose(arrow, k) == f for k in base.hom(base.dom(f), dm)) == 1
        for f in matching)


def comprehension(d: Doctrine, a: str, alpha: str) -> str | None:
    """The chosen comprehension arrow of ``alpha`` over window object ``a``."""
    return comprehension_table(d).get((a, alpha))


def validate_witness(d: Doctrine, obj: str, alpha: str, arrow: str,
                     dual: bool = False) -> bool:
    """Does ``arrow`` satisfy the (co-)comprehension universal property for
    ``alpha`` over ``obj``?"""
    return _is_universal(d, arrow, alpha, dual, _matching(d, obj, alpha, dual))


def cocomprehension(d: Doctrine, a: str, alpha: str) -> str | None:
    """The chosen co-comprehension arrow of ``alpha`` over window object ``a``."""
    return cocomprehension_table(d).get((a, alpha))


@memoized
def _witness_table(d: Doctrine, dual: bool) -> dict[tuple[str, str], str]:
    out = {}
    for a in d.base.window:
        if _bound(d, a, dual) is None:
            continue
        for alpha in d.fibers[a].elements:
            matching = _matching(d, a, alpha, dual)
            arrow = next((m for m in matching
                          if _is_universal(d, m, alpha, dual, matching)), None)
            if arrow is not None:
                out[(a, alpha)] = arrow
    return out


def comprehension_table(d: Doctrine) -> dict[tuple[str, str], str]:
    """``{(obj, alpha): arrow}``, the chosen comprehension arrows; the memo's
    own table: do not mutate it."""
    return _witness_table(d, False)


def cocomprehension_table(d: Doctrine) -> dict[tuple[str, str], str]:
    """``{(obj, alpha): arrow}``, the chosen co-comprehension arrows; the
    memo's own table: do not mutate it."""
    return _witness_table(d, True)


@memoized
def _has_witnesses(d: Doctrine, dual: bool) -> Verdict:
    name = "co-comprehension" if dual else "comprehension"
    bounds = has_bottoms(d) if dual else has_tops(d)
    if not bounds:
        return Verdict.not_applicable(
            f"{name} needs {'bottoms' if dual else 'tops'}: {bounds.reason}")
    table = _witness_table(d, dual)
    for a in d.base.window:
        for alpha in d.fibers[a].elements:
            if (a, alpha) not in table:
                return _search_failure(d, f"no_{_kind(dual)}_witness",
                                       object=a, alpha=alpha)
    return Verdict.holds(d.window_descriptor)


def has_comprehension(d: Doctrine) -> Verdict:
    return _has_witnesses(d, False)


def has_cocomprehension(d: Doctrine) -> Verdict:
    return _has_witnesses(d, True)


@memoized
def _fullness(d: Doctrine, dual: bool) -> Verdict:
    exists = has_cocomprehension(d) if dual else has_comprehension(d)
    if not exists:
        return exists
    table = _witness_table(d, dual)
    kind = _kind(dual)
    base = d.base
    for a in base.window:
        fiber = d.fibers[a]
        for alpha in fiber.elements:
            wa = table[(a, alpha)]
            for beta in fiber.elements:
                wb = table[(a, beta)]
                factors = any(base.compose(wb, k) == wa
                              for k in base.hom(base.dom(wa), base.dom(wb)))
                # co-comprehension is contravariant: {alpha} through {beta}
                # forces beta <= alpha
                expected = fiber.leq(beta, alpha) if dual else fiber.leq(alpha, beta)
                if factors and not expected:
                    return Verdict.refuted(kind=f"{kind}_not_full",
                                           object=a, alpha=alpha, beta=beta,
                                           arrows=[wa, wb])
                got = d.star(wa, beta) == _bound(d, base.dom(wa), dual)
                if expected != got:
                    return Verdict.refuted(kind=f"{kind}_order_law",
                                           object=a, alpha=alpha, beta=beta)
    return Verdict.holds(d.window_descriptor)


def is_full_comprehension(d: Doctrine) -> Verdict:
    return _fullness(d, False)


def is_full_cocomprehension(d: Doctrine) -> Verdict:
    return _fullness(d, True)


def _witness_class(d: Doctrine, dual: bool) -> ArrowClass:
    table = _witness_table(d, dual)
    members = sorted(set(table.values()),
                     key=d.base.arrow_order.__getitem__)
    return ArrowClass(_kind(dual), tuple(members))


def comprehension_class(d: Doctrine) -> ArrowClass:
    return _witness_class(d, False)


def cocomprehension_class(d: Doctrine) -> ArrowClass:
    return _witness_class(d, True)


@memoized
def _witness_squares(d: Doctrine, dual: bool) -> tuple[Square, ...]:
    """The canonical square of each witness pulled back along each window
    arrow; its limiting property is a separate verifiable invariant."""
    table = _witness_table(d, dual)
    base = d.base
    squares = []
    for (a, alpha), w in sorted(table.items()):
        for f in base.window_arrows_into(a):
            x = base.dom(f)
            pulled = table.get((x, d.star(f, alpha)))
            if pulled is None:
                continue
            via = base.compose(f, pulled)
            qs = [k for k in base.hom(base.dom(pulled), base.dom(w))
                  if base.compose(w, k) == via]
            if len(qs) != 1:
                continue
            squares.append(Square(apex=base.dom(pulled), to_f=qs[0],
                                  to_g=pulled, f=w, g=f))
    return _unique_squares(squares)


def comprehension_squares(d: Doctrine) -> tuple[Square, ...]:
    return _witness_squares(d, False)


def cocomprehension_squares(d: Doctrine) -> tuple[Square, ...]:
    return _witness_squares(d, True)


# -- negation -----------------------------------------------------------------

def negation(d: Doctrine) -> dict[str, dict[str, str]] | None:
    """``{obj: {element: negation}}`` on every window fiber when negation
    holds, else None; the memo's own table: do not mutate it."""
    verdict, table = _negation_impl(d)
    return table if verdict else None


def has_negation(d: Doctrine) -> Verdict:
    return _negation_impl(d)[0]


def _pseudocomplement(fiber, beta: int) -> int | None:
    """The index of the greatest element whose meet with the ``beta``-th is
    the bottom, if any; the fiber must have meets and a bottom."""
    bottom = fiber.index[fiber.ops.bottom]
    mask = 0
    for c, m in enumerate(fiber.ops.meet[beta]):
        if m == bottom:
            mask |= 1 << c
    return fiber.greatest_of_downset(mask)


@memoized
def _negation_impl(d: Doctrine) -> tuple[Verdict, dict[str, dict[str, str]] | None]:
    primary = is_primary(d)
    if not primary:
        return (primary if primary.is_refuted else Verdict.not_applicable(
            f"negation needs a primary doctrine: {primary.reason}"), None)
    bottoms = has_bottoms(d)
    if not bottoms:
        return (Verdict.not_applicable(
            f"negation needs bottoms: {bottoms.reason}"), None)
    rows: dict[str, list[int]] = {}
    tables: dict[str, dict[str, str]] = {}
    for a in d.base.window:
        fiber = d.fibers[a]
        names = fiber.elements
        row = rows[a] = []
        for beta in range(len(fiber)):
            neg = _pseudocomplement(fiber, beta)
            if neg is None:
                return (Verdict.not_applicable(
                    f"no pseudocomplement for {names[beta]} in fiber({a})"), None)
            row.append(neg)
        tables[a] = {e: names[neg] for e, neg in zip(names, row)}
    for f in d.base.window_arrows:
        a = d.base.arrows[f]
        star = d.reindex[f].idx_table
        neg_cod, neg_dom = rows[a.cod], rows[a.dom]
        for beta, neg in enumerate(neg_cod):
            if star[neg] != neg_dom[star[beta]]:
                names = d.fibers[a.dom].elements
                return (Verdict.refuted(
                    kind="negation_not_natural", arrow=f,
                    beta=d.fibers[a.cod].elements[beta],
                    reindexed_negation=names[star[neg]],
                    negation_of_reindexed=names[neg_dom[star[beta]]]), None)
    return Verdict.holds(d.window_descriptor), tables


@memoized
def is_classical(d: Doctrine) -> Verdict:
    verdict, table = _negation_impl(d)
    if not verdict:
        return verdict if verdict.is_refuted else Verdict.not_applicable(
            f"no negation: {verdict.reason}")
    for a in d.base.window:
        for alpha in d.fibers[a].elements:
            nn = table[a][table[a][alpha]]
            if nn != alpha:
                return Verdict.refuted(kind="not_classical", object=a,
                                       alpha=alpha, double_negation=nn)
    return Verdict.holds(d.window_descriptor)


# -- implication --------------------------------------------------------------

def heyting_implication_tables(d: Doctrine) -> dict[str, list[list[int]]] | None:
    """Fiberwise Heyting implication rows on every scope fiber, if available."""
    out = {}
    for o in d.scope_objects:
        impl = d.fibers[o].ops.heyting_implication
        if impl is None:
            return None
        out[o] = impl
    return out


def implication_axioms(d: Doctrine,
                       impl: Mapping[str, Sequence[Sequence[int]]]) -> Verdict:
    """Stability under reindexing, the exchange law with Pi along projections,
    and the four pointwise axioms, over the fibers the tables cover.
    ``impl[o][i][j]`` is the index of ``i -> j`` in fiber ``o``.

    A fiber's own ``ops.heyting_implication`` needs no scan of a-d: it is the
    greatest ``c`` with ``c & a <= b`` (``poset._implication_rows``), so
    ``c <= a -> b`` iff ``c & a <= b``, and meets alone prove a: ``p & q <= p``;
    b: ``(g -> (p -> q)) & (g -> p) & g <= (p -> q) & p <= q``; c: ``g <= p``,
    ``g <= p -> q`` give ``g = g & p <= q``; d: ``p <= q`` gives ``g & p <= q``."""
    covered = set(impl)
    base = d.base
    for f in base.window_arrows:
        a = base.arrows[f]
        if a.dom not in covered or a.cod not in covered:
            continue
        bad = _unpreserved(d.reindex[f], impl[a.cod], impl[a.dom])
        if bad is not None:
            pair, lhs, rhs = bad
            return Verdict.refuted(kind="implication_not_stable", arrow=f,
                                   pair=pair, lhs=lhs, rhs=rhs)
    for row in base.first_level_rows:
        if row.obj not in covered:
            continue
        for proj, factor in ((row.proj2, row.right), (row.proj1, row.left)):
            if factor not in covered:
                continue
            adj = d.pi(proj)
            if adj is None:
                return Verdict.not_applicable(f"no Pi along projection {proj}")
            pi = adj.idx_table
            names = d.fibers[factor].elements
            for alpha, p_alpha in enumerate(d.reindex[proj].idx_table):
                for beta, pb in enumerate(pi):
                    lhs = pi[impl[row.obj][p_alpha][beta]]
                    rhs = impl[factor][alpha][pb]
                    if lhs != rhs:
                        return Verdict.refuted(
                            kind="implication_pi_exchange", projection=proj,
                            alpha=names[alpha],
                            beta=d.fibers[row.obj].elements[beta],
                            lhs=names[lhs], rhs=names[rhs])
    for o in sorted(covered, key=base.obj_index):
        fiber = d.fibers[o]
        tab = impl[o]
        if tab is fiber.ops.heyting_implication:
            continue
        names, up = fiber.elements, fiber.uppers
        n = len(names)
        for phi in range(n):
            for psi in range(n):
                if not up[phi] >> tab[psi][phi] & 1:
                    return Verdict.refuted(kind="implication_axiom_a", object=o,
                                           phi=names[phi], psi=names[psi],
                                           value=names[tab[psi][phi]])
                if up[phi] >> psi & 1:
                    for gamma in range(n):
                        if not up[gamma] >> tab[phi][psi] & 1:
                            return Verdict.refuted(kind="implication_axiom_d",
                                                   object=o, phi=names[phi],
                                                   psi=names[psi],
                                                   gamma=names[gamma],
                                                   value=names[tab[phi][psi]])
        for gamma in range(n):
            tab_gamma = tab[gamma]
            for phi in range(n):
                tab_phi, rhs_row = tab[phi], tab[tab_gamma[phi]]
                below_phi = up[gamma] >> phi & 1
                for psi in range(n):
                    lhs = tab_gamma[tab_phi[psi]]
                    rhs = rhs_row[tab_gamma[psi]]
                    if not up[lhs] >> rhs & 1:
                        return Verdict.refuted(kind="implication_axiom_b",
                                               object=o, gamma=names[gamma],
                                               phi=names[phi], psi=names[psi],
                                               lhs=names[lhs], rhs=names[rhs])
                    if (up[gamma] >> tab_phi[psi] & 1 and below_phi
                            and not up[gamma] >> psi & 1):
                        return Verdict.refuted(kind="implication_axiom_c",
                                               object=o, gamma=names[gamma],
                                               phi=names[phi], psi=names[psi],
                                               value=names[tab_phi[psi]])
    return Verdict.holds(d.window_descriptor)


# -- weak power objects -------------------------------------------------------

def _power_covers(d: Doctrine, a: str, p: str, mem: str | None = None) -> bool:
    """Does every ``phi`` over ``a x y``, for every window ``y``, have a
    classifying arrow ``chi: y -> p`` with ``(id_a x chi)* mem = phi``?

    Each image ``(id_a x chi)* mem`` lies in the fiber over ``a x y``, so
    they cover it exactly when there are as many distinct ones as it has
    elements.  With ``mem`` None only the counting bound is tested: ``y ->
    p`` has at least as many arrows as the fiber has elements.  Each ``chi``
    classifies one ``phi``, so where the bound fails the answer is false
    for every ``mem``."""
    base = d.base
    id_a = base.identity[a]
    for y in base.window:
        row_y = base.products.get((a, y))
        if row_y is None:
            return False
        hom = base.hom(y, p)
        images = len(hom) if mem is None else len(
            {d.star(base.times(id_a, c), mem) for c in hom})
        if images < len(d.fibers[row_y.obj]):
            return False
    return True


@memoized
def weak_power_object(d: Doctrine, a: str) -> dict[str, str] | None:
    """``{"power": p, "membership": mem}``, the first weak power object of
    ``a`` in the window and power pool, or None; the memo's own record: do
    not mutate it.

    A candidate ``p`` that fails the counting bound ``_power_covers(d, a,
    p)`` is skipped without trying a membership.  That is exact: it covers
    for no ``mem``, so the first ``(p, mem)`` found is the one the unpruned
    search finds."""
    base = d.base
    pool = list(dict.fromkeys(list(base.window) + list(base.power_pool)))
    pool.sort(key=base.obj_index)
    for p in pool:
        row = base.products.get((a, p))
        if row is None or not _power_covers(d, a, p):
            continue
        for mem in d.fibers[row.obj].elements:
            if _power_covers(d, a, p, mem):
                return {"power": p, "membership": mem}
    return None


@memoized
def is_higher_order(d: Doctrine) -> Verdict:
    for a in d.base.window:
        if weak_power_object(d, a) is None:
            return _search_failure(d, "no_weak_power_object", object=a)
    return Verdict.holds(d.window_descriptor)


# -- axiom of choice ----------------------------------------------------------

def _chooses(d: Doctrine, gamma: str, e: str, psi: str, target: str) -> bool:
    """The epsilon test: does ``<id, e>* psi`` reach ``target``, the
    quantified ``psi``?"""
    base = d.base
    return d.star(base.pair(base.identity[gamma], e), psi) == target


def _epsilon_search(d: Doctrine, gamma: str, a: str, psi: str,
                    target: str) -> str | None:
    return next((e for e in d.base.hom(gamma, a)
                 if _chooses(d, gamma, e, psi, target)), None)


@memoized
def ac_check(d: Doctrine) -> tuple[Verdict, dict[tuple[str, str, str], str]]:
    """The axiom of choice, with ``{(gamma, a, psi): arrow}``, the epsilon
    witnesses found before the first failure (all of them when it holds);
    the memo's own table: do not mutate it."""
    base = d.base
    entries: dict[tuple[str, str, str], str] = {}
    initials = set(base.stable_initials)
    for a in base.window:
        if a in initials:
            continue
        for gamma in base.window:
            row = base.products[(gamma, a)]
            adj = d.sigma(row.proj1)
            if adj is None:
                return (Verdict.not_applicable(
                    f"sigma missing along projection {row.proj1}"), entries)
            for psi in d.fibers[row.obj].elements:
                target = adj.table[psi]
                found = _epsilon_search(d, gamma, a, psi, target)
                if found is None:
                    return (Verdict.refuted(
                        kind="ac_no_witness", Gamma=gamma, A=a, psi=psi,
                        sigma_psi=target,
                        candidates=len(base.hom(gamma, a))), entries)
                entries[(gamma, a, psi)] = found
    return Verdict.holds(d.window_descriptor), entries


def epsilon(d: Doctrine, gamma: str, a: str, psi: str) -> str | None:
    """The chosen witness arrow for one relation, independent of ac_check."""
    base = d.base
    if base.is_stable_initial(a):
        return None
    adj = d.sigma(base.products[(gamma, a)].proj1)
    if adj is None:
        return None
    return _epsilon_search(d, gamma, a, psi, adj.table[psi])


# -- triposes -----------------------------------------------------------------

@memoized
def is_tripos(d: Doctrine) -> Verdict:
    """Propositional + Sigma- and Pi-doctrine + equality by the adjoint-free
    characterization + weak power objects.

    The equality needs no search once the doctrine is propositional: for
    each window object X, whose product row (X, X) the parser requires,
    there is a delta in fiber(X x X) with
    ``top <= Delta*(alpha)  iff  delta <= alpha``.  X x X
    is then a first-level product carrier, so the diagonal X -> X x X is a
    scope arrow and ``is_propositional`` has made reindexing along it a
    Heyting map.  The alpha with ``top <= Delta*(alpha)`` are those sent
    to top: a set that holds top (top is preserved), is closed under binary
    meets (meets are preserved) and is up-closed (reindexing is monotone).
    In a finite lattice such a set is the principal filter of the meet of
    its elements, and that meet is delta."""
    prop = is_propositional(d)
    if not prop:
        return prop if prop.is_refuted else Verdict.not_applicable(
            f"not propositional: {prop.reason}")
    for part in [is_sigma_doctrine(d), is_pi_doctrine(d)]:
        if not part:
            return part
    ho = is_higher_order(d)
    if not ho:
        return ho
    return Verdict.holds(d.window_descriptor)


@memoized
def is_tripos_via_characterization(d: Doctrine) -> Verdict:
    """Pi-doctrine + implicational (Heyting tables) + higher order."""
    tables = heyting_implication_tables(d)
    if tables is None:
        return Verdict.not_applicable(
            "no implication tables: fibers are not Heyting algebras")
    return combine(d.window_descriptor,
                   is_pi_doctrine(d),
                   implication_axioms(d, tables),
                   is_higher_order(d))


# -- declared witnesses ---------------------------------------------------------

def declared_checks(d: Doctrine) -> list[tuple[str, Verdict]]:
    """Each witness the instance file declares, checked by the test its
    search uses; one labelled verdict per declared entry."""
    out: list[tuple[str, Verdict]] = []
    declared = d.declared
    window = d.window_descriptor
    base = d.base

    def record(label: str, ok: bool, kind: str, **payload) -> None:
        out.append((label, Verdict.holds(window) if ok else
                    Verdict.refuted(kind=f"declared_{kind}_invalid", **payload)))

    for a, delta in sorted(declared.get("delta", {}).items()):
        record(f"declared delta[{a}]", _delta_validates(d, a, delta), "delta",
               object=a, delta=delta)
    for dual in (False, True):
        key = _kind(dual)
        for a, table in sorted(declared.get(key, {}).items()):
            for alpha, arrow in sorted(table.items()):
                record(f"declared {key}[{a},{alpha}]",
                       validate_witness(d, a, alpha, arrow, dual),
                       key, object=a, alpha=alpha, arrow=arrow)
    for rec in declared.get("epsilon", []):
        gamma, a, psi, arrow = rec["gamma"], rec["a"], rec["psi"], rec["arrow"]
        adj = d.sigma(base.products[(gamma, a)].proj1)
        ok = adj is not None and _chooses(d, gamma, arrow, psi, adj.table[psi])
        record(f"declared epsilon[{gamma},{a},{psi}]", ok, "epsilon",
               Gamma=gamma, A=a, psi=psi, arrow=arrow)
    for a, table in sorted(declared.get("negation", {}).items()):
        fiber = d.fibers[a]
        ok = (fiber.ops.meet is not None and fiber.ops.bottom is not None
              and all(_pseudocomplement(fiber, fiber.index[beta])
                      == fiber.index.get(neg, -1)
                      for beta, neg in table.items()))
        record(f"declared negation[{a}]", ok, "negation", object=a)
    for a, rec in sorted(declared.get("power_objects", {}).items()):
        ok = _power_covers(d, a, rec["power"], rec["membership"])
        record(f"declared power_object[{a}]", ok, "power_object",
               object=a, power=rec["power"])
    return out
