"""Finite cartesian base categories with explicit tables and a quantification window.

A :class:`FinCategory` always holds explicit finite data (objects, arrows,
a total composition table over composable pairs, chosen products).  The
``window`` is the subset of objects over which universally quantified checks
range; for genuinely finite bases it is all objects, for windows into an
ambient infinite category (finite sets, finite spaces) it is the declared
generation bound and verdicts carry its descriptor.

Concrete windows are materialized by :class:`ConcreteBuilder`, which closes a
generator set under composition and under pairing into the chosen products.
Arrows of concrete categories are tabulated functions, so composites are
deduplicated extensionally and the composition table is total by
construction.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from functools import cached_property, wraps
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .poset import FinPoset
from .verdicts import (MalformedCategory, StructureMissing, Verdict,
                       WindowExceeded)

__all__ = [
    "Arrow",
    "Product",
    "Square",
    "ArrowClass",
    "Presentation",
    "FinCategory",
    "ConcreteBuilder",
    "MAX_ARROWS",
    "MAX_POINTS",
]

# The builder materialises the whole window category, so no builder holds
# more arrows than this.  PS(2,0), the largest catalog base, has 534; PS(3,0)
# is refused at its 4,097th.
MAX_ARROWS = 4096
# The builder holds arrow images as bytes, so no carrier has more points.
MAX_POINTS = 256

# marks a key never computed: None is a result the memo must keep
_MISSING = object()


def memoized(fn: Callable) -> Callable:
    """Memoize ``fn(owner, *args)`` through ``owner.cached`` under the key
    ``(fn, *args)``; the owner is a doctrine or a base category."""
    @wraps(fn)
    def call(owner, *args):
        return owner.cached((fn, *args), lambda: fn(owner, *args))
    return call


class Arrow:
    __slots__ = ("name", "dom", "cod")

    def __init__(self, name: str, dom: str, cod: str):
        self.name, self.dom, self.cod = name, dom, cod


class Product:
    """A chosen binary product: carrier with its two projections."""
    __slots__ = ("left", "right", "obj", "proj1", "proj2")

    def __init__(self, left: str, right: str, obj: str, proj1: str, proj2: str):
        self.left, self.right, self.obj = left, right, obj
        self.proj1, self.proj2 = proj1, proj2


class _Value:
    """Records with equal fields compare and hash equal: they are memo keys."""
    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Square(_Value):
    """Commuting square around a chosen pullback of ``f`` along ``g``::

        apex --to_g--> dom(g)
          |               |
        to_f              g
          |               |
        dom(f) --f--> cod(f)=cod(g)
    """
    __slots__ = ("apex", "to_f", "to_g", "f", "g")

    def __init__(self, apex: str, to_f: str, to_g: str, f: str, g: str):
        self.apex, self.to_f, self.to_g, self.f, self.g = apex, to_f, to_g, f, g

    def fields(self) -> dict[str, str]:
        """The square as a counterexample payload, fields in order."""
        return dict(zip(self.__slots__, self._key()))


def _unique_squares(squares: Iterable[Square]) -> tuple[Square, ...]:
    """One square per ``(f, g, to_f, to_g)``, the first seen, in key order."""
    uniq: dict[tuple, Square] = {}
    for s in squares:
        uniq.setdefault((s.f, s.g, s.to_f, s.to_g), s)
    return tuple(uniq[k] for k in sorted(uniq))


class ArrowClass(_Value):
    """A class of arrows given by chosen representative members."""
    __slots__ = ("name", "members")

    def __init__(self, name: str, members: tuple[str, ...]):
        self.name, self.members = name, members


class Presentation:
    __slots__ = ("kind", "spec", "truncated")

    def __init__(self, kind: str, spec: tuple, truncated: bool = False):
        self.kind, self.spec, self.truncated = kind, spec, truncated

    def descriptor(self) -> str:
        if not self.spec:
            return self.kind
        return f"{self.kind}({','.join(str(s) for s in self.spec)})"


def tables_compose(columns: tuple[Sequence[int], Sequence[int], Sequence[int]],
                   images: Sequence[bytes], luts: Sequence[bytes]) -> bool:
    """Is ``images[f].translate(luts[g]) == images[gf]`` for every row
    ``(g, f, gf)`` of the arrow-index ``columns``?  Reindexing maps compose
    the other way round, so their columns are passed as ``(f, g, gf)``."""
    return all(images[f].translate(luts[g]) == images[gf]
               for g, f, gf in zip(*columns))


class ComposeColumns(Mapping):
    """The composition table of a built window, read-only, an entry for each
    of its ``count`` composable pairs.  A lookup computes ``g`` after ``f``,
    ``images[f].translate(luts[g])``, and names it through ``hom[dom][cod]``
    (image -> index); a pair that does not compose is missing, as from a
    ``dict``.  A walk of every entry tabulates ``columns_of`` every arrow
    afresh and keeps nothing: most checks only look composites up.  ``gens``
    are the indices of the generators the window was closed over."""
    __slots__ = ("_count", "_names", "_arrows", "_images", "_luts", "_hom", "gens")

    def __init__(self, count: int, gens: Collection[int], names: Sequence[str],
                 arrows: Mapping[str, Arrow], images: Mapping[str, bytes],
                 luts: Mapping[str, bytes],
                 hom: Mapping[str, Mapping[str, Mapping[bytes, int]]]):
        self._count, self.gens, self._names = count, gens, names
        self._arrows, self._images, self._luts, self._hom = arrows, images, luts, hom

    def columns_of(self, outer: Collection[int]) -> tuple:
        """The ``array('H')`` columns ``(g, f, gf)`` of arrow indices of the
        composable pairs with ``g`` in ``outer``, ``f`` in arrow order and
        ``g`` in arrow order within it."""
        arrows, hom = self._arrows.values(), self._hom
        # per object: the arrows out of it, their padded images, codomains
        out_of = {o: (array("H"), [], []) for o in hom}
        for i, a in enumerate(arrows):
            if i in outer:
                gs, luts, cods = out_of[a.dom]
                gs.append(i)
                luts.append(self._luts[a.name])
                cods.append(a.cod)
        count = sum(len(out_of[a.cod][0]) for a in arrows)
        # sized at once: a column grown row by row is over-allocated
        columns = tuple(array("H", [0]) * count for _ in range(3))
        g_col, f_col, gf_col = columns
        end = 0
        for f, a in enumerate(arrows):
            gs, luts, cods = out_of[a.cod]
            row = slice(end, end + len(gs))
            end = row.stop
            g_col[row] = gs
            f_col[row] = array("H", [f]) * len(gs)
            gf_col[row] = array("H", map(dict.__getitem__,
                                         map(hom[a.dom].__getitem__, cods),
                                         map(self._images[a.name].translate, luts)))
        return columns

    def __getitem__(self, key: tuple[str, str]) -> str:
        g, f = key
        ag, af = self._arrows.get(g), self._arrows.get(f)
        if ag is None or af is None or af.cod != ag.dom:
            raise KeyError(key)
        return self._names[self._hom[af.dom][ag.cod][
            self._images[f].translate(self._luts[g])]]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return map(itemgetter(0), self.items())

    def values(self) -> Iterator[str]:
        return map(itemgetter(1), self.items())

    def items(self) -> Iterator[tuple[tuple[str, str], str]]:
        name = self._names.__getitem__
        g, f, gf = (map(name, column)
                    for column in self.columns_of(range(len(self._names))))
        return zip(zip(g, f), gf)


class FinCategory:
    """Objects, arrows, composition, chosen products, and the window.

    Every result that depends on the base alone is memoized in it by
    :func:`memoized`, so the doctrines over one base share it.

    The ``compose`` table is handed over: the category keeps it as
    ``compose_table`` and the caller must not change it afterwards.  It is a
    ``dict`` or, from :class:`ConcreteBuilder`, :class:`ComposeColumns`
    indexed by the order of ``arrows``.  A ``dict``'s entries ``(g, f) ->
    gf`` are mapped at once, which checks their names, to three columns
    ``(g, f, gf)`` of the indices of their arrows in ``arrows``.
    ``generators`` holds the indices of a built window's generators, or of
    every arrow, and as columns the entries whose ``g`` is one.
    """

    def __init__(self, objects: Sequence[str], arrows: Iterable[Arrow],
                 identity: Mapping[str, str],
                 compose: dict[tuple[str, str], str] | ComposeColumns,
                 window: Sequence[str] | None = None,
                 products: Mapping[tuple[str, str], Product] | None = None,
                 terminal: str | None = None,
                 presentation: Presentation = Presentation("explicit", ()),
                 sizes: Mapping[str, int] | None = None,
                 power_pool: Sequence[str] | None = None,
                 tables: Mapping[str, tuple[int, ...]] | None = None):
        self.objects = tuple(objects)
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        if len(self._obj_index) != len(self.objects):
            raise MalformedCategory("duplicate object ids")
        self.arrows: dict[str, Arrow] = {}
        for a in arrows:
            if a.dom not in self._obj_index or a.cod not in self._obj_index:
                raise MalformedCategory(f"arrow {a.name} references undeclared object")
            if a.name in self.arrows:
                raise MalformedCategory(f"duplicate arrow id {a.name}")
            self.arrows[a.name] = a
        self.identity = dict(identity)
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or i not in self.arrows:
                raise MalformedCategory(f"missing identity for {o}")
            if self.arrows[i].dom != o or self.arrows[i].cod != o:
                raise MalformedCategory(f"identity of {o} is not an endo-arrow")
        # kept, not copied: the table of a built window is its largest
        # structure, and every caller builds a fresh one
        self.compose_table = compose
        if not isinstance(compose, ComposeColumns):
            index = {n: i for i, n in enumerate(self.arrows)}.__getitem__
            try:
                self._columns = (tuple(map(index, map(itemgetter(0), compose))),
                                 tuple(map(index, map(itemgetter(1), compose))),
                                 tuple(map(index, compose.values())))
            except KeyError:
                for (g, f), gf in compose.items():
                    if g not in self.arrows or f not in self.arrows or gf not in self.arrows:
                        raise MalformedCategory(f"composition entry ({g},{f}) "
                                                "references unknown arrow") from None
        self.window = tuple(window) if window is not None else self.objects
        self.power_pool = tuple(power_pool) if power_pool is not None else self.window
        for kind, objs in (("window", self.window), ("power-pool", self.power_pool)):
            for o in objs:
                if o not in self._obj_index:
                    raise MalformedCategory(f"{kind} object {o} undeclared")
        self.products: dict[tuple[str, str], Product] = dict(products or {})
        self.terminal_obj = terminal
        self.presentation = presentation
        self.sizes = dict(sizes) if sizes else None
        self.tables = dict(tables) if tables is not None else None
        self._cache: dict = {}

    @cached_property
    def generators(self) -> tuple[Collection[int], tuple]:
        comp = self.compose_table
        if isinstance(comp, ComposeColumns):
            return comp.gens, comp.columns_of(comp.gens)
        return range(len(self.arrows)), self._columns

    # -- basic structure ---------------------------------------------------

    def cached(self, key, compute: Callable):
        got = self._cache.get(key, _MISSING)
        if got is _MISSING:
            got = self._cache[key] = compute()
        return got

    def obj_index(self, o: str) -> int:
        return self._obj_index[o]

    def dom(self, name: str) -> str:
        return self.arrows[name].dom

    def cod(self, name: str) -> str:
        return self.arrows[name].cod

    @cached_property
    def arrow_order(self) -> dict[str, int]:
        key = lambda n: (self._obj_index[self.arrows[n].dom],
                         self._obj_index[self.arrows[n].cod], n)
        return {n: i for i, n in enumerate(sorted(self.arrows, key=key))}

    def sort_arrows(self, names: Iterable[str]) -> list[str]:
        order = self.arrow_order
        return sorted(names, key=order.__getitem__)

    @cached_property
    def _hom(self) -> dict[tuple[str, str], tuple[str, ...]]:
        buckets: dict[tuple[str, str], list[str]] = {}
        for n, a in self.arrows.items():
            buckets.setdefault((a.dom, a.cod), []).append(n)
        return {k: tuple(self.sort_arrows(v)) for k, v in buckets.items()}

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    @cached_property
    def _into(self) -> dict[str, tuple[str, ...]]:
        buckets: dict[str, list[str]] = {o: [] for o in self.objects}
        for n, a in self.arrows.items():
            buckets[a.cod].append(n)
        return {k: tuple(self.sort_arrows(v)) for k, v in buckets.items()}

    def arrows_into(self, o: str) -> tuple[str, ...]:
        return self._into[o]

    @cached_property
    def window_arrows(self) -> tuple[str, ...]:
        ws = set(self.window)
        names = [n for n, a in self.arrows.items() if a.dom in ws and a.cod in ws]
        return tuple(self.sort_arrows(names))

    @memoized
    def window_arrows_into(self, o: str) -> tuple[str, ...]:
        ws = set(self.window)
        return tuple(n for n in self.arrows_into(o) if self.arrows[n].dom in ws)

    def compose(self, g: str, f: str) -> str:
        """g after f.  Raises on a missing composite of a composable pair."""
        got = self.compose_table.get((g, f))
        if got is None:
            if self.cod(f) != self.dom(g):
                raise ValueError(f"{g} and {f} are not composable")
            raise MalformedCategory(f"incomplete table: ({g}) o ({f}) missing")
        return got

    @cached_property
    def window_descriptor(self) -> str:
        return (f"{self.presentation.descriptor()};window={len(self.window)}obj/"
                f"{len(self.arrows)}arr")

    # -- validation --------------------------------------------------------

    def validate(self) -> Verdict:
        """Identity and associativity laws over the materialized tables.

        A built window holds them by construction: each entry ``(g, f)`` is
        by definition the arrow of ``hom[dom f][cod g]`` whose image is
        ``images[f].translate(lut[g])``, so its endpoints are right; an
        identity's image is the identity function; ``h(gf)`` and ``(hg)f``
        have one image, so they are one arrow.  Only closure could fail, and
        reading the generator columns looks up every "generator after arrow"
        composite, which closes the window (:meth:`ConcreteBuilder.close`).

        On an explicit base every composable triple is scanned.  Missing,
        wrong-ended or non-composable entries raise
        :class:`MalformedCategory`; law violations come back as Refuted with
        the offending triple.
        """
        if isinstance(self.compose_table, ComposeColumns):
            self.generators  # looks every "generator after arrow" up
            return Verdict.holds(self.window_descriptor)
        arrows, comp = self.arrows, self.compose_table
        names = list(arrows)
        into: dict[str, list[int]] = {o: [] for o in self.objects}
        outof: dict[str, list[int]] = {o: [] for o in self.objects}
        for i, a in enumerate(arrows.values()):
            into[a.cod].append(i)
            outof[a.dom].append(i)
        dom = [a.dom for a in arrows.values()]
        cod = [a.cod for a in arrows.values()]
        # as many entries as composable pairs, each composable, right endpoints?
        pairs = sum(len(into[o]) * len(outof[o]) for o in self.objects)
        if pairs != len(comp) or not all(
                cod[f] == dom[g] and dom[gf] == dom[f] and cod[gf] == cod[g]
                for g, f, gf in zip(*self._columns)):
            for f, a_f in arrows.items():
                for g_i in outof[a_f.cod]:
                    g = names[g_i]
                    gf = comp.get((g, f))
                    if gf is None:
                        raise MalformedCategory(f"incomplete table: ({g}) o ({f}) missing")
                    if arrows[gf].dom != a_f.dom or arrows[gf].cod != arrows[g].cod:
                        raise MalformedCategory(
                            f"composite ({g}) o ({f}) has wrong endpoints")
            # every composable pair is right, so some entry does not compose
            g, f = next(k for k in comp if arrows[k[1]].cod != arrows[k[0]].dom)
            raise MalformedCategory(f"entry ({g}) o ({f}) does not compose")
        for o in self.objects:
            i = self.identity[o]
            # id after f, then g after id
            for a, c in ([(names[f_i], comp[(i, names[f_i])]) for f_i in into[o]]
                         + [(names[g_i], comp[(names[g_i], i)]) for g_i in outof[o]]):
                if c != a:
                    return Verdict.refuted(kind="identity_law", object=o,
                                           arrow=a, composite=c)
        n_arr = len(names)
        table = [[-1] * n_arr for _ in range(n_arr)]
        for g_i, f_i, gf_i in zip(*self._columns):
            table[g_i][f_i] = gf_i
        # h(gf) = (hg)f for all f as one row comparison per composable
        # (g, h): the row of g holds its composites gf with every f into its
        # domain; h after the row of g must be the row of hg
        pick = {o: itemgetter(*fs) for o, fs in into.items()}
        rows = [pick[self.arrows[g].dom](table[g_i])
                for g_i, g in enumerate(names)]
        after = [itemgetter(*[table[g_i][f_i] for f_i in into[self.arrows[g].dom]])
                 for g_i, g in enumerate(names)]
        if all(after[g_i](table[h_i]) == rows[table[h_i][g_i]]
               for g_i, g in enumerate(names)
               for h_i in outof[self.arrows[g].cod]):
            return Verdict.holds(self.window_descriptor)
        # some triple fails: the first one, in (f, g, h) order
        for f_i, f in enumerate(names):
            cf = self.arrows[f].cod
            for g_i in outof[cf]:
                gf_i = table[g_i][f_i]
                cg = self.arrows[names[g_i]].cod
                for h_i in outof[cg]:
                    if table[h_i][gf_i] != table[table[h_i][g_i]][f_i]:
                        return Verdict.refuted(
                            kind="associativity", f=f, g=names[g_i], h=names[h_i],
                            left=names[table[h_i][gf_i]],
                            right=names[table[table[h_i][g_i]][f_i]])
        return Verdict.holds(self.window_descriptor)

    # -- products ----------------------------------------------------------

    def product(self, a: str, b: str) -> Product:
        row = self.products.get((a, b))
        if row is None:
            raise WindowExceeded(f"no materialized product for ({a},{b})")
        if not self.presentation.truncated:
            bad = self._verify_product(row)
            if bad is not None:
                raise MalformedCategory(f"not a product: ({a},{b}): {bad}")
        return row

    def _mediators(self, q: str, p1: str, p2: str,
                   y: str, u: str, v: str) -> list[str]:
        """Arrows ``k: y -> q`` with ``p1 k = u`` and ``p2 k = v``."""
        return [k for k in self.hom(y, q)
                if self.compose_table.get((p1, k)) == u
                and self.compose_table.get((p2, k)) == v]

    @memoized
    def _verify_product(self, row: Product) -> str | None:
        cones = ((x, f, g) for x in self.window
                 for f in self.hom(x, row.left) for g in self.hom(x, row.right))
        for x, f, g in cones:
            n = len(self._mediators(row.obj, row.proj1, row.proj2, x, f, g))
            if n != 1:
                return f"{n} mediators for ({f},{g})"
        return None

    def verify_products(self) -> Verdict:
        """The universal property of every chosen product row against window
        cones; a truncated window is not checked, its cones are incomplete."""
        if not self.presentation.truncated:
            for key in sorted(self.products):
                bad = self._verify_product(self.products[key])
                if bad is not None:
                    return Verdict.refuted(kind="not_a_product", pair=list(key),
                                           detail=bad)
        return Verdict.holds(self.window_descriptor)

    @memoized
    def pair(self, f: str, g: str) -> str:
        """The unique mediating arrow into the chosen product of the codomains."""
        af, ag = self.arrows[f], self.arrows[g]
        if af.dom != ag.dom:
            raise ValueError(f"pair({f},{g}): domains differ")
        row = self.product(af.cod, ag.cod)
        ms = self._mediators(row.obj, row.proj1, row.proj2, af.dom, f, g)
        if not ms:
            raise MalformedCategory(f"not a product: no mediator for ({f},{g})")
        if len(ms) > 1:
            raise MalformedCategory(f"not a product: mediator for ({f},{g}) not unique")
        return ms[0]

    def terminal(self) -> str:
        if self.terminal_obj is None:
            raise StructureMissing("no terminal object declared")
        return self.terminal_obj

    def diagonal(self, a: str) -> str:
        return self.pair(self.identity[a], self.identity[a])

    @memoized
    def times(self, f: str, g: str) -> str:
        """f x g between the chosen products of the endpoints."""
        row = self.product(self.dom(f), self.dom(g))
        return self.pair(self.compose(f, row.proj1), self.compose(g, row.proj2))

    def swap(self, a: str, b: str) -> str:
        row = self.product(a, b)
        return self.pair(row.proj2, row.proj1)

    # -- isomorphisms, monics, initials -------------------------------------

    def find_iso(self, a: str, b: str) -> str | None:
        """An isomorphism a -> b within the window tables, or None."""
        return next((u for u in self.hom(a, b) if self.is_iso(u)), None)

    def is_iso(self, f: str) -> bool:
        a = self.arrows[f]
        for v in self.hom(a.cod, a.dom):
            if (self.compose_table.get((v, f)) == self.identity[a.dom]
                    and self.compose_table.get((f, v)) == self.identity[a.cod]):
                return True
        return False

    def is_monic(self, f: str) -> Verdict:
        af = self.arrows[f]
        for x in self.window:
            hom = self.hom(x, af.dom)
            for i, g in enumerate(hom):
                fg = self.compose(f, g)
                for h in hom[i + 1:]:
                    if self.compose(f, h) == fg:
                        return Verdict.refuted(kind="not_monic", arrow=f,
                                               pair=[g, h], composite=fg)
        return Verdict.holds(self.window_descriptor)

    def is_stable_initial(self, a: str) -> Verdict:
        for x in self.window:
            hom = self.hom(a, x)
            if len(hom) != 1:
                return Verdict.refuted(kind="not_initial", object=a, target=x,
                                       arrows=list(hom))
        for x in self.window:
            row = self.products.get((x, a))
            if row is None:
                raise WindowExceeded(f"no product ({x},{a}) to test stability")
            if row.obj != a and self.find_iso(row.obj, a) is None:
                return Verdict.refuted(kind="unstable_initial", object=a,
                                       factor=x, product=row.obj)
        return Verdict.holds(self.window_descriptor)

    @cached_property
    def stable_initials(self) -> tuple[str, ...]:
        return tuple(o for o in self.window if self.is_stable_initial(o))

    # -- pullbacks -----------------------------------------------------------

    @memoized
    def pullback(self, f: str, g: str) -> Square | None:
        """A limiting square over the cospan ``f, g``, if the window holds one.

        Mediating-arrow existence and uniqueness are verified against every
        competitor cone with a window apex.
        """
        af, ag = self.arrows[f], self.arrows[g]
        if af.cod != ag.cod:
            raise ValueError("pullback needs a cospan (equal codomains)")
        cones = list(self._cones(f, g, self.window))
        return next((Square(apex=q, to_f=p1, to_g=p2, f=f, g=g)
                     for q, p1, p2 in self._cones(f, g, self.objects)
                     if all(len(self._mediators(q, p1, p2, *c)) == 1
                            for c in cones)), None)

    def _cones(self, f: str, g: str,
               apexes: Iterable[str]) -> Iterator[tuple[str, str, str]]:
        """Commuting cones ``(y, u, v)``, ``f u = g v``, with apex in ``apexes``."""
        for y in apexes:
            for u in self.hom(y, self.dom(f)):
                fu = self.compose(f, u)
                for v in self.hom(y, self.dom(g)):
                    if self.compose(g, v) == fu:
                        yield y, u, v

    def verify_square_is_pullback(self, s: Square) -> Verdict:
        """Checks commutation plus window-limiting property of a given square."""
        if self.compose(s.f, s.to_f) != self.compose(s.g, s.to_g):
            return Verdict.refuted(kind="square_not_commuting", square=s.fields())
        for y, u, v in self._cones(s.f, s.g, self.window):
            ms = self._mediators(s.apex, s.to_f, s.to_g, y, u, v)
            if len(ms) != 1:
                return Verdict.refuted(kind="square_not_limiting", square=s.fields(),
                                       cone=[y, u, v], mediators=ms)
        return Verdict.holds(self.window_descriptor)

    # -- projections and arrow classes ---------------------------------------

    @cached_property
    def first_level_rows(self) -> tuple[Product, ...]:
        """Product rows whose factors are window or power-pool objects."""
        scope = set(self.window) | set(self.power_pool)
        rows = [r for (a, b), r in sorted(self.products.items())
                if a in scope and b in scope]
        return tuple(rows)

    @cached_property
    def scope_objects(self) -> tuple[str, ...]:
        """Window objects plus first-level product carriers: the fibers the
        quantified logic actually touches (triple carriers join only through
        the equality-predicate adjunction)."""
        seen = list(self.window)
        for r in self.first_level_rows:
            if r.obj not in seen:
                seen.append(r.obj)
        return tuple(sorted(seen, key=self.obj_index))

    @cached_property
    def scope_arrows(self) -> tuple[str, ...]:
        scope = set(self.scope_objects)
        names = [n for n, a in self.arrows.items()
                 if a.dom in scope and a.cod in scope]
        return tuple(self.sort_arrows(names))

    @memoized
    def projection_class(self) -> ArrowClass:
        members: list[str] = []
        seen = set()
        for r in self.first_level_rows:
            for p in (r.proj1, r.proj2):
                if p not in seen:
                    seen.add(p)
                    members.append(p)
        return ArrowClass("Prj", tuple(self.sort_arrows(members)))

    def class_contains(self, cls: ArrowClass, f: str) -> bool:
        """Membership up to isomorphism over the codomain."""
        if f in cls.members:
            return True
        af = self.arrows[f]
        for m in cls.members:
            am = self.arrows[m]
            if am.cod != af.cod:
                continue
            for j in self.hom(af.dom, am.dom):
                if self.is_iso(j) and self.compose(m, j) == f:
                    return True
        return False

    @memoized
    def canonical_projection_squares(self) -> tuple[Square, ...]:
        """Each chosen projection pulled back along every window arrow into
        its codomain, with the apex taken from the product table."""
        squares: list[Square] = []
        for r in self.first_level_rows:
            for h in self.window_arrows_into(r.left):
                y = self.dom(h)
                apex_row = self.products.get((y, r.right))
                if apex_row is None:
                    continue
                squares.append(Square(apex=apex_row.obj,
                                      to_f=self.times(h, self.identity[r.right]),
                                      to_g=apex_row.proj1, f=r.proj1, g=h))
            for h in self.window_arrows_into(r.right):
                y = self.dom(h)
                apex_row = self.products.get((r.left, y))
                if apex_row is None:
                    continue
                squares.append(Square(apex=apex_row.obj,
                                      to_f=self.times(self.identity[r.left], h),
                                      to_g=apex_row.proj2, f=r.proj2, g=h))
        return _unique_squares(squares)

    def _window_pullbacks(self, cls: ArrowClass) -> Iterator[Square]:
        """The pullback of each window-arrow member along each window arrow
        into its codomain, where the window holds one."""
        window_arrows = set(self.window_arrows)
        for f in cls.members:
            if f in window_arrows:
                for h in self.window_arrows_into(self.cod(f)):
                    s = self.pullback(f, h)
                    if s is not None:
                        yield s

    @memoized
    def is_pullback_stable(self, cls: ArrowClass) -> Verdict:
        """Is the class closed under the window pullbacks that exist?

        The projection class is, by construction: the pullback of the
        projection of a row ``(l, r)`` onto ``l`` along ``h: y -> l`` is
        ``proj1`` of the row ``(y, r)``, which is a member, and the other
        side is the same."""
        if cls == self.projection_class():
            return Verdict.holds(self.window_descriptor)
        for s in self._window_pullbacks(cls):
            if not self.class_contains(cls, s.to_g):
                return Verdict.refuted(kind="class_not_stable", member=s.f,
                                       along=s.g, pulled_back=s.to_g,
                                       arrow_class=cls.name,
                                       members=list(cls.members))
        return Verdict.holds(self.window_descriptor)

    # -- subobjects ------------------------------------------------------------

    def subobject_poset(self, a: str) -> FinPoset:
        """Window monics into ``a`` modulo mutual factorization, ordered by
        factorization; class representative is the least arrow id."""
        monics = [m for m in self.window_arrows_into(a) if self.is_monic(m)]
        factors: dict[str, set[str]] = {}
        for m in monics:
            factors[m] = set()
            for m2 in monics:
                if any(self.compose(m2, k) == m
                       for k in self.hom(self.dom(m), self.dom(m2))):
                    factors[m].add(m2)
        reps: dict[str, str] = {}
        for m in monics:
            cls = [m2 for m2 in monics if m2 in factors[m] and m in factors[m2]]
            reps[m] = self.sort_arrows(cls)[0]
        elements = sorted(set(reps.values()), key=self.arrow_order.__getitem__)
        leq = [(r1, r2) for r1 in elements for r2 in elements if r2 in factors[r1]]
        return FinPoset(elements, leq)

    def __repr__(self) -> str:
        return (f"FinCategory({len(self.objects)} objects, {len(self.arrows)} arrows, "
                f"window={len(self.window)})")


class ConcreteBuilder:
    """Materializes a window category whose arrows are tabulated functions.

    Generators (all functions between window objects for a finite-sets
    window, all continuous maps for a spaces window) are closed under
    composition and under pairing of window-domain cospans into the declared
    product rows; the chosen structural arrows (projections, swaps, ``f x g``,
    and the diagonal pairing into each iterated row) are injected explicitly
    so that nothing with a large domain is ever fully enumerated.  The
    composition table computes each composite looked up from the images
    (:class:`ComposeColumns`) and holds the category laws by construction.

    No builder holds more than ``MAX_ARROWS`` arrows: :class:`WindowExceeded`
    is raised once the distinct generators exceed it and at the first arrow
    beyond it.  It is also raised for a carrier of more than ``MAX_POINTS``
    points, as each arrow's image is held as ``bytes``.
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.carriers: dict[str, int] = {}
        self.window: list[str] = []
        self.power_pool: list[str] = []
        self.order: list[str] = []
        self.rows: dict[tuple[str, str], str] = {}
        self.terminal: str | None = None
        self._gens: dict[tuple[str, str, bytes], None] = {}

    def add_object(self, name: str, size: int, window: bool = False,
                   pool: bool = False) -> str:
        if size > MAX_POINTS:
            raise WindowExceeded(
                f"{self.presentation.descriptor()} needs a carrier of {size} "
                f"points; the builder's limit is {MAX_POINTS}")
        if name in self.carriers:
            if self.carriers[name] != size:
                raise ValueError(f"object {name} redeclared with different size")
        else:
            self.carriers[name] = size
            self.order.append(name)
        if window and name not in self.window:
            self.window.append(name)
        if pool and name not in self.power_pool:
            self.power_pool.append(name)
        return name

    def add_arrow(self, dom: str, cod: str, images: Sequence[int]) -> None:
        """A generator, ``images[p]`` the image of point ``p``."""
        m = self.carriers.get(cod)
        if m is None or len(images) != self.carriers.get(dom) or any(
                not 0 <= p < m for p in images):
            raise ValueError(f"arrow {self._name(dom, cod, images)} is not a "
                             "function between declared carriers")
        self._gens[(dom, cod, bytes(images))] = None
        if len(self._gens) > MAX_ARROWS:
            raise self._exceeded(f"more than {MAX_ARROWS}")

    def declare_product(self, left: str, right: str, carrier: str) -> None:
        """Point coding of the carrier is (i, j) -> i * |right| + j."""
        if self.carriers[carrier] != self.carriers[left] * self.carriers[right]:
            raise ValueError(f"carrier {carrier} has wrong size for {left}x{right}")
        self.rows[(left, right)] = carrier

    def _name(self, dom: str, cod: str, images: Sequence[int]) -> str:
        return f"{dom}>{cod}:{','.join(map(str, images))}"

    def _exceeded(self, count: str) -> WindowExceeded:
        return WindowExceeded(f"{self.presentation.descriptor()} needs {count} "
                              f"arrows; the builder's limit is {MAX_ARROWS}")

    def close(self) -> FinCategory:
        """The window category.  Each arrow's image is ``bytes``, and ``g``
        after ``f`` is ``images[f].translate(lut[g])``, ``lut[g]`` being the
        image of ``g`` padded to a 256-byte translation table.

        The generators are every arrow born before the closure but the
        identities (the added arrows, projections and structural
        injections) and every pairing born in it.  Each arrow is a composite
        of generators, so the arrows are closed under composition once they
        are closed under "generator after arrow": ``h`` after ``f`` with
        ``h = g_k ... g_1`` is ``g_k`` after ... ``g_1`` after ``f``.
        """
        # hom[dom][cod] maps an image to the index of its arrow
        hom: dict[str, dict[str, dict[bytes, int]]] = {
            o: {c: {} for c in self.order} for o in self.order}
        names: list[str] = []
        arrows: dict[str, Arrow] = {}
        images: dict[str, bytes] = {}
        lut: dict[str, bytes] = {}
        # rows are lists: tuples freed together when close returns would
        # stay allocated in the interpreter's tuple free list
        by_dom: dict[str, list[list]] = {o: [] for o in self.order}
        by_cod: dict[str, list[list]] = {o: [] for o in self.order}
        gens_by_dom: dict[str, list[list]] = {o: [] for o in self.order}
        gens: set[int] = set()

        def intern(dom: str, cod: str, img: bytes, gen: bool = True) -> int:
            known = hom[dom][cod]
            i = known.get(img)
            if i is None:
                i = len(names)
                if i == MAX_ARROWS:
                    raise self._exceeded(f"more than {MAX_ARROWS}")
                name = self._name(dom, cod, img)
                known[img] = i
                names.append(name)
                arrows[name] = Arrow(name, dom, cod)
                images[name] = img
                lut[name] = padded = img.ljust(256, b"\0")
                by_dom[dom].append([i, cod, img])
                by_cod[cod].append([i, dom, img])
                if gen:
                    gens.add(i)
                    gens_by_dom[dom].append([i, cod, padded])
            return i

        identity = {o: names[intern(o, o, bytes(range(self.carriers[o])), False)]
                    for o in self.order}
        for key in self._gens:
            intern(*key)
        products: dict[tuple[str, str], Product] = {}
        for (a, b), carrier in self.rows.items():
            nb, size = self.carriers[b], self.carriers[carrier]
            products[(a, b)] = Product(
                a, b, carrier,
                names[intern(carrier, a, bytes(p // nb for p in range(size)))],
                names[intern(carrier, b, bytes(p % nb for p in range(size)))])

        def pair(dom: str, c1: str, img1: bytes, c2: str, img2: bytes) -> None:
            row = self.rows.get((c1, c2))
            if row is not None:
                nb = self.carriers[c2]
                intern(dom, row, bytes(x * nb + y for x, y in zip(img1, img2)))

        # Structural injections with non-window domains, each a pairing of
        # arrows out of a product: f x g, swaps, and the <id, p2> : XA ->
        # (XA)xA and p2 x id : (XA)xA -> AxA of the equality-predicate functor.
        window_set = set(self.window)
        scope = window_set | set(self.power_pool)
        scoped = [a for a in arrows.values() if a.dom in scope and a.cod in scope]
        for f in scoped:
            for g in scoped:
                row = products.get((f.dom, g.dom))
                if row is not None:
                    pair(row.obj, f.cod, images[row.proj1].translate(lut[f.name]),
                         g.cod, images[row.proj2].translate(lut[g.name]))
        for row in products.values():
            pair(row.obj, row.right, images[row.proj2], row.left, images[row.proj1])
        for row in products.values():
            triple = products.get((row.obj, row.right))
            if triple is not None:
                pair(row.obj, row.obj, images[identity[row.obj]],
                     row.right, images[row.proj2])
                pair(triple.obj, row.right,
                     images[triple.proj1].translate(lut[row.proj2]),
                     row.right, images[triple.proj2])
        # arrows are reached in the order they are born (the loop reaches
        # those born inside it too), and every row is in that order, so each
        # pair of a generator and an arrow, and each pair out of a window
        # object, is taken once, when the later of its two arrows is reached
        for i, name in enumerate(names):
            a, img = arrows[name], images[name]
            for g, c, g_lut in gens_by_dom[a.cod]:
                if g > i:
                    break
                intern(a.dom, c, img.translate(g_lut), False)
            for f, d, f_img in by_cod[a.dom] if i in gens else ():
                if f >= i:
                    break
                intern(d, a.cod, f_img.translate(lut[name]), False)
            for g, c, other in by_dom[a.dom] if a.dom in window_set else ():
                if g > i:
                    break
                pair(a.dom, a.cod, img, c, other)
                pair(a.dom, c, other, a.cod, img)

        count = sum(len(by_cod[o]) * len(by_dom[o]) for o in self.order)
        return FinCategory(self.order, arrows.values(), identity,
                           ComposeColumns(count, gens, names, arrows, images, lut, hom),
                           window=[o for o in self.order if o in window_set],
                           products=products,
                           terminal=self.terminal,
                           presentation=self.presentation,
                           sizes=dict(self.carriers),
                           power_pool=list(self.power_pool) or None,
                           tables={n: tuple(img) for n, img in images.items()})
