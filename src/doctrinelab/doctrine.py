"""Doctrines: a base category with one finite poset per object and
contravariant monotone reindexing, plus the structural classification
predicates (primary, propositional, Sigma/Pi with Beck-Chevalley, Frobenius,
existential).

Every per-doctrine result is memoized in the doctrine by :func:`memoized`:
the key is the function plus its positional arguments, so callers pass
arguments in one canonical form (public checks with defaults resolve them
before calling a memoized core).  The theorem harness re-queries the same
predicates many times, and verdicts embed the window descriptor, so cached
results are never silently over-claimed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .fincat import (_MISSING, ArrowClass, FinCategory, Square,
                     _unique_squares, memoized, tables_compose)
from .poset import (FinPoset, MonotoneMap, _composes_to, _monotone_break,
                    _unpreserved, left_adjoint, right_adjoint)
from .verdicts import ShapeMismatch, Verdict, combine

__all__ = [
    "Doctrine",
    "validate_doctrine",
    "is_primary",
    "has_tops",
    "has_bottoms",
    "is_propositional",
    "is_sigma_doctrine",
    "is_pi_doctrine",
    "frobenius",
    "is_existential",
    "bc_squares",
]

_EXPLICIT = MappingProxyType({"kind": "explicit"})
_NO_WITNESSES = MappingProxyType({})


class Doctrine:
    """A finite doctrine: base category, fibers, reindexing.  It keeps the
    ``fibers``, ``reindex``, ``source`` and ``declared`` mappings handed to
    it, as :class:`FinCategory` keeps ``compose``: the caller must not change
    them afterwards.  An omitted ``source`` or ``declared`` is one shared
    read-only mapping, ``{"kind": "explicit"}`` or ``{}``."""

    def __init__(self, base: FinCategory, fibers: Mapping[str, FinPoset],
                 reindex: Mapping[str, MonotoneMap], name: str = "doctrine",
                 source: Mapping | None = None,
                 declared: Mapping | None = None):
        self.base, self.fibers, self.reindex = base, fibers, reindex
        self.name = name
        self.source = source or _EXPLICIT
        self.declared = declared or _NO_WITNESSES
        self._cache: dict = {}

    def star(self, f: str, element: str) -> str:
        """Reindex a single fiber element along the arrow ``f``, by name."""
        m = self.reindex[f]
        return m.target.elements[m.idx_table[m.source.index[element]]]

    def cached(self, key, compute: Callable):
        got = self._cache.get(key, _MISSING)
        if got is _MISSING:
            got = self._cache[key] = compute()
        return got

    @property
    def window_descriptor(self) -> str:
        return self.base.window_descriptor

    @property
    def scope_objects(self) -> tuple[str, ...]:
        return self.base.scope_objects

    @property
    def scope_arrows(self) -> tuple[str, ...]:
        return self.base.scope_arrows

    def sigma(self, f: str) -> MonotoneMap | None:
        """Left adjoint to reindexing along ``f``, if it exists."""
        return self.cached(("sigma", f), lambda: left_adjoint(self.reindex[f]))

    def pi(self, f: str) -> MonotoneMap | None:
        """Right adjoint to reindexing along ``f``, if it exists."""
        return self.cached(("pi", f), lambda: right_adjoint(self.reindex[f]))

    def top(self, obj: str) -> str | None:
        return self.fibers[obj].ops.top

    def bottom(self, obj: str) -> str | None:
        return self.fibers[obj].ops.bottom

    def __repr__(self) -> str:
        return f"Doctrine({self.name!r}, {self.base!r})"


@memoized
def validate_doctrine(d: Doctrine) -> Verdict:
    """Functoriality and monotonicity of the reindexing over all tables.

    Shape problems (missing or misplaced reindex maps) raise
    :class:`ShapeMismatch`; law violations are Refuted with the offending
    arrows and element.

    Once ``id* = id``, it is enough that each generator's ``g*`` is
    monotone and ``f* g* = (g f)*`` for each arrow ``f`` into ``dom(g)``.
    In a built window every arrow but an identity is a generator or ``g a``,
    ``g`` a generator and ``a`` born earlier, and the table composes
    functions, so it is associative.  By induction on that decomposition,
    ``(h f)* = (g (a f))* = (a f)* g* = f* a* g* = f* h*`` for every pair,
    and ``h* = a* g*`` is monotone.  An explicit base's generators are all
    its arrows.  If the proof fails, or a fiber has over 256 elements,
    every arrow and pair is scanned.
    """
    base = d.base
    for o in base.objects:
        if o not in d.fibers:
            raise ShapeMismatch(f"no fiber for object {o}")
    for n, a in base.arrows.items():
        m = d.reindex.get(n)
        if m is None:
            raise ShapeMismatch(f"no reindex map for arrow {n}")
        if m.source is not d.fibers[a.cod] and not m.source.same_order(d.fibers[a.cod]):
            raise ShapeMismatch(f"reindex({n}) source is not fiber({a.cod})")
        if m.target is not d.fibers[a.dom] and not m.target.same_order(d.fibers[a.dom]):
            raise ShapeMismatch(f"reindex({n}) target is not fiber({a.dom})")
    for o in base.objects:
        m = d.reindex[base.identity[o]]
        i = next((i for i, k in enumerate(m.idx_table) if k != i), None)
        if i is not None:
            return Verdict.refuted(kind="functor_identity", object=o,
                                   element=m.source.elements[i],
                                   image=m.target.elements[m.idx_table[i]])
    maps = [d.reindex[n] for n in base.arrows]
    luts = [m._translation for m in maps]
    gens, (g, f, gf) = base.generators
    if None not in luts and all(_monotone_break(maps[i]) is None for i in gens) \
            and tables_compose((f, g, gf), [m._idx_bytes for m in maps], luts):
        return Verdict.holds(d.window_descriptor)
    for n, a in base.arrows.items():
        m = d.reindex[n]
        bad = _monotone_break(m)
        if bad is not None:
            src, tgt, it = m.source, m.target, m.idx_table
            i, j = bad
            return Verdict.refuted(
                kind="not_monotone", arrow=n,
                pair=[src.elements[i], src.elements[j]],
                images=[tgt.elements[it[i]], tgt.elements[it[j]]])
    for (g, f), gf in base.compose_table.items():
        mg, mf, mgf = d.reindex[g], d.reindex[f], d.reindex[gf]
        if _composes_to(mg, mf, mgf):
            continue
        for i, k in enumerate(mgf.idx_table):
            parts = mf.idx_table[mg.idx_table[i]]
            if parts != k:
                return Verdict.refuted(kind="functor_composition", f=f, g=g,
                                       composite=gf,
                                       element=mg.source.elements[i],
                                       via_composite=mgf.target.elements[k],
                                       via_parts=mf.target.elements[parts])
    return Verdict.holds(d.window_descriptor)


@memoized
def _has_bounds(d: Doctrine, bound: str) -> Verdict:
    """Does every scope fiber have a ``"top"`` (``"bottom"``) element?"""
    for o in d.scope_objects:
        if getattr(d.fibers[o].ops, bound) is None:
            return Verdict.not_applicable(f"no {bound} element in fiber({o})")
    return Verdict.holds(d.window_descriptor)


def has_tops(d: Doctrine) -> Verdict:
    return _has_bounds(d, "top")


def has_bottoms(d: Doctrine) -> Verdict:
    return _has_bounds(d, "bottom")


@memoized
def is_primary(d: Doctrine) -> Verdict:
    """Do all scope fibers have binary meets, preserved by reindexing?"""
    for o in d.scope_objects:
        if d.fibers[o].ops.meet is None:
            return Verdict.not_applicable(f"no meets in fiber({o})")
    for n in d.scope_arrows:
        a = d.base.arrows[n]
        bad = _unpreserved(d.reindex[n], d.fibers[a.cod].ops.meet,
                           d.fibers[a.dom].ops.meet)
        if bad is not None:
            pair, image, expected = bad
            return Verdict.refuted(kind="meet_not_preserved", arrow=n,
                                   pair=pair, image_of_meet=image,
                                   meet_of_images=expected)
    return Verdict.holds(d.window_descriptor)


@memoized
def is_propositional(d: Doctrine) -> Verdict:
    """Are all scope fibers Heyting algebras, with reindexing a Heyting hom?"""
    for o in d.scope_objects:
        if not d.fibers[o].ops.is_heyting:
            return Verdict.not_applicable(f"fiber({o}) is not a Heyting algebra")
    for n in d.scope_arrows:
        a = d.base.arrows[n]
        m = d.reindex[n]
        so = d.fibers[a.cod].ops
        to = d.fibers[a.dom].ops
        top, bottom = d.star(n, so.top), d.star(n, so.bottom)
        if top != to.top or bottom != to.bottom:
            return Verdict.refuted(kind="bound_not_preserved", arrow=n,
                                   top=[top, to.top], bottom=[bottom, to.bottom])
        for opname, s_op, t_op in (("meet", so.meet, to.meet),
                                   ("join", so.join, to.join),
                                   ("implication", so.heyting_implication,
                                    to.heyting_implication)):
            bad = _unpreserved(m, s_op, t_op)
            if bad is not None:
                pair, image, expected = bad
                return Verdict.refuted(kind=f"{opname}_not_preserved", arrow=n,
                                       pair=pair, image_of_op=image,
                                       op_of_images=expected)
    return Verdict.holds(d.window_descriptor)


@memoized
def bc_squares(d: Doctrine) -> tuple[Square, ...]:
    """The window pullback squares of the projection class, over which
    Beck-Chevalley is quantified by default: the product-table squares, plus
    the window pullbacks of window-arrow projections found by search.  The
    class is stable under them by construction: the pullback of the
    projection of a row ``(l, r)`` onto ``l`` along ``h: y -> l`` is
    ``proj1`` of the row ``(y, r)``, which is a member, and the other side
    is the same.  They depend on the base alone, so the base computes them
    once for every doctrine over it."""
    base = d.base
    return base.cached("bc_squares", lambda: _unique_squares(
        (*base.canonical_projection_squares(),
         *base._window_pullbacks(base.projection_class()))))


@memoized
def _quantifier_doctrine(d: Doctrine, side: str, cls: ArrowClass,
                         restricted: bool,
                         squares: tuple[Square, ...] | None) -> Verdict:
    """Adjoints on ``side`` (``"sigma"`` or ``"pi"``) along every member of
    the class, with (restricted) Beck-Chevalley over the squares: if None,
    the projection class's :func:`bc_squares`; any other class raises."""
    if squares is None and cls != d.base.projection_class():
        raise TypeError(f"class {cls.name} is given without its squares")
    adjoint = d.sigma if side == "sigma" else d.pi
    for f in cls.members:
        if adjoint(f) is None:
            return Verdict.not_applicable(f"{side} adjoint missing at {f}")
    for s in squares if squares is not None else bc_squares(d):
        adj_f, adj_g = adjoint(s.f), adjoint(s.to_g)
        if adj_f is None:
            return Verdict.not_applicable(f"{side} adjoint missing at {s.f}")
        if adj_g is None:
            return Verdict.not_applicable(f"{side} adjoint missing at {s.to_g}")
        h_star = d.reindex[s.g]
        k_star = d.reindex[s.to_f].idx_table
        dom_fiber = d.fibers[d.base.dom(s.f)]
        if restricted:
            gammas = sorted(set(d.reindex[s.f].idx_table))
        else:
            gammas = range(len(dom_fiber))
        for gamma in gammas:
            lhs = h_star.idx_table[adj_f.idx_table[gamma]]
            rhs = adj_g.idx_table[k_star[gamma]]
            if lhs != rhs:
                return Verdict.refuted(kind="beck_chevalley", which=side,
                                       arrow_class=cls.name,
                                       restricted=restricted, square=s.fields(),
                                       gamma=dom_fiber.elements[gamma],
                                       lhs=h_star.target.elements[lhs],
                                       rhs=adj_g.target.elements[rhs])
    return Verdict.holds(d.window_descriptor)


def is_sigma_doctrine(d: Doctrine, cls: ArrowClass | None = None,
                      restricted: bool = False,
                      squares: Iterable[Square] | None = None) -> Verdict:
    """Left adjoints along the class with (restricted) Beck-Chevalley."""
    return _quantifier_doctrine(d, "sigma", cls or d.base.projection_class(),
                                restricted,
                                None if squares is None else tuple(squares))


def is_pi_doctrine(d: Doctrine, cls: ArrowClass | None = None,
                   restricted: bool = False,
                   squares: Iterable[Square] | None = None) -> Verdict:
    """Right adjoints along the class with (restricted) Beck-Chevalley."""
    return _quantifier_doctrine(d, "pi", cls or d.base.projection_class(),
                                restricted,
                                None if squares is None else tuple(squares))


def frobenius(d: Doctrine, cls: ArrowClass | None = None) -> Verdict:
    """Sigma_f(alpha and f*beta) = beta and Sigma_f(alpha) over the class."""
    return _frobenius(d, cls or d.base.projection_class())


@memoized
def _frobenius(d: Doctrine, cls: ArrowClass) -> Verdict:
    primary = is_primary(d)
    if not primary:
        return primary if primary.is_refuted else Verdict.not_applicable(
            f"not primary: {primary.reason}")
    for f in cls.members:
        adj = d.sigma(f)
        if adj is None:
            return Verdict.not_applicable(f"sigma adjoint missing at {f}")
        a = d.base.arrows[f]
        dom_ops = d.fibers[a.dom].ops
        cod_ops = d.fibers[a.cod].ops
        if dom_ops.meet is None or cod_ops.meet is None:
            return Verdict.not_applicable(f"no meets around {f}")
        f_star, sigma = d.reindex[f].idx_table, adj.idx_table
        for alpha, meet_alpha in enumerate(dom_ops.meet):
            for beta, f_beta in enumerate(f_star):
                lhs = sigma[meet_alpha[f_beta]]
                rhs = cod_ops.meet[beta][sigma[alpha]]
                if lhs != rhs:
                    names = d.fibers[a.cod].elements
                    return Verdict.refuted(kind="frobenius", arrow=f,
                                           alpha=d.fibers[a.dom].elements[alpha],
                                           beta=names[beta], lhs=names[lhs],
                                           rhs=names[rhs])
    return Verdict.holds(d.window_descriptor)


@memoized
def is_existential(d: Doctrine) -> Verdict:
    """Sigma-doctrine over projections satisfying Frobenius reciprocity."""
    return combine(d.window_descriptor, is_primary(d), is_sigma_doctrine(d),
                   frobenius(d))
