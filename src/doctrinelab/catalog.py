"""Built-in doctrine instances.

* ``PS(m,d)`` -- finite sets up to size ``m`` with all functions, fibers the
  powersets, reindexing by preimage; ``d`` power-closure steps add the
  powerset carriers to the candidate pool for power-object searches.
* ``SIER`` -- the empty, one-point and Sierpinski spaces with all continuous
  maps; fibers the open-set frames, reindexing by preimage.
* ``TRIV`` -- singleton fibers over the PS(1,1) base.
* ``SL3`` -- the 3-chain meet-semilattice as a thin base; fiber over U is the
  lattice of down-sets of the principal ideal of U.

Every constructor returns a validated, immutable doctrine; instances are
cached per id so the classification memo is shared across a session.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import fincat
from .doctrine import Doctrine
from .fincat import ConcreteBuilder, FinCategory, Arrow, Presentation, Product
from .poset import FinPoset, MonotoneMap, _monotone_maps
from .verdicts import InvalidTopology

__all__ = [
    "powerset_finset",
    "openset_space",
    "trivial_fiber",
    "semilattice_category",
    "subsets_over_semilattice",
    "SIERPINSKI_SPACES",
    "CATALOG",
    "catalog_ids",
    "instance",
]

_POWERSET_FIBERS: dict[int, FinPoset] = {}
_SINGLETON_FIBER = FinPoset(("t",), [("t", "t")], validate=False)


def _powerset_fiber(size: int) -> FinPoset:
    got = _POWERSET_FIBERS.get(size)
    if got is None:
        got = _POWERSET_FIBERS[size] = _mask_fiber(range(1 << size))
    return got


def _mask_fiber(masks: Sequence[int]) -> FinPoset:
    """Poset of the given point-set masks ordered by inclusion."""
    elements = tuple(f"e{m}" for m in masks)
    uppers = []
    for m in masks:
        u = 0
        for j, m2 in enumerate(masks):
            if m & ~m2 == 0:
                u |= 1 << j
        uppers.append(u)
    return FinPoset(elements, (), validate=False, _masks=tuple(uppers))


def _preimage_maps(base: FinCategory, fibers: Mapping[str, FinPoset],
                   masks: Mapping[str, Sequence[int]]) -> dict[str, MonotoneMap]:
    """Preimage along the function of each arrow (``base.tables``), where
    ``masks[o]`` are the point sets of ``fibers[o]`` in index order (all
    subsets, or the opens)."""
    index = {o: {m: i for i, m in enumerate(ms)} for o, ms in masks.items()}
    reindex = {}
    for n, arr in base.arrows.items():
        points = [0] * base.sizes[arr.cod]  # the preimage of each point
        for x, y in enumerate(base.tables[n]):
            points[y] |= 1 << x
        pre = [0]  # the preimage of every mask, by doubling over the points
        for bit in points:
            pre += [m | bit for m in pre]
        try:
            table = [index[arr.dom][pre[mb]] for mb in masks[arr.cod]]
        except KeyError as exc:
            raise InvalidTopology(f"preimage {exc.args[0]} not an admissible "
                                  "fiber element") from None
        reindex[n] = MonotoneMap(fibers[arr.cod], fibers[arr.dom], table)
    return reindex


def powerset_finset(max_size: int, power_depth: int = 0) -> Doctrine:
    """The powerset doctrine over a window of finite sets.

    Every object is added before any arrow, so the builder raises
    :class:`WindowExceeded` for a carrier of more than ``fincat.MAX_POINTS``
    points before any quadratic work; it raises it too when the window needs
    more than ``fincat.MAX_ARROWS`` arrows.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    b = ConcreteBuilder(Presentation(
        "finset", (max_size, power_depth), truncated=True))
    window = range(max_size + 1)
    for s in window:
        b.add_object(f"S{s}", s, window=True)
    pool: set[int] = set()
    for _ in range(power_depth):
        # the builder refuses a carrier above its limit; its powerset need
        # not be formed
        step = {1 << s for s in (*window, *pool) if s <= fincat.MAX_POINTS}
        if step <= pool:
            break
        pool |= step
    for s in sorted(pool):
        b.add_object(f"S{s}", s, pool=True)
    scope = sorted({*window, *pool})
    rows = {(a, c) for a in scope for c in scope}
    # triple carriers for the equality functor
    rows |= {(x * a, a) for x in window for a in window}
    for s in sorted({a * c for a, c in rows}):
        b.add_object(f"S{s}", s)
    # all functions between scope sets (window-to-window generators plus the
    # power-pool candidates for chi searches)
    for a in scope:
        for c in scope:
            # the image of 0 varies fastest
            for img in product(range(c), repeat=a):
                b.add_arrow(f"S{a}", f"S{c}", img[::-1])
    for a, c in sorted(rows):
        b.declare_product(f"S{a}", f"S{c}", f"S{a * c}")
    b.terminal = "S1"
    base = b.close()

    fibers = {o: _powerset_fiber(base.sizes[o]) for o in base.objects}
    reindex = _preimage_maps(
        base, fibers, {o: range(1 << base.sizes[o]) for o in base.objects})
    return Doctrine(base, fibers, reindex, name=f"PS({max_size},{power_depth})",
                    source={"kind": "catalog", "id": f"PS({max_size},{power_depth})",
                            "dual": False})


SIERPINSKI_SPACES: Mapping[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = {
    "E": ((), ((),)),
    "U": (("u",), ((), ("u",))),
    "S": (("a", "b"), ((), ("a",), ("a", "b"))),
}


def _validate_topology(name: str, points: Sequence[str],
                       opens: Sequence[Sequence[str]]) -> list[int]:
    index = {p: i for i, p in enumerate(points)}
    if len(index) != len(points):
        raise InvalidTopology(f"{name}: duplicate points")
    masks = []
    for op in opens:
        m = 0
        for p in op:
            if p not in index:
                raise InvalidTopology(f"{name}: open set mentions unknown point {p}")
            m |= 1 << index[p]
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise InvalidTopology(f"{name}: duplicate open sets")
    full = (1 << len(points)) - 1
    mset = set(masks)
    if 0 not in mset or full not in mset:
        raise InvalidTopology(f"{name}: topology must contain the empty and full sets")
    for m1 in masks:
        for m2 in masks:
            if m1 | m2 not in mset or m1 & m2 not in mset:
                raise InvalidTopology(f"{name}: not closed under union/intersection")
    return sorted(masks)


def _specialization(points: Sequence[str], masks: Sequence[int]) -> list[int]:
    """uppers[i] = mask of points in every open set containing point i."""
    n = len(points)
    uppers = []
    for i in range(n):
        u = (1 << n) - 1
        for m in masks:
            if m >> i & 1:
                u &= m
        uppers.append(u | 1 << i)
    return uppers


def _upset_masks(uppers: Sequence[int]) -> list[int]:
    n = len(uppers)
    out = []
    for m in range(1 << n):
        ok = True
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            if uppers[i] & ~m:
                ok = False
                break
            mm &= mm - 1
        if ok:
            out.append(m)
    return out


def _product_uppers(ua: Sequence[int], ub: Sequence[int]) -> list[int]:
    """The specialization order of the product topology, in the builder's
    point coding (i, j) -> i * |b| + j."""
    na, nb = len(ua), len(ub)
    out = []
    for p in range(na * nb):
        i, j = p // nb, p % nb
        m = 0
        for q in range(na * nb):
            if ua[i] >> (q // nb) & 1 and ub[j] >> (q % nb) & 1:
                m |= 1 << q
        out.append(m)
    return out


def openset_space(spaces: Mapping[str, tuple[Sequence[str], Sequence[Sequence[str]]]],
                  name: str = "opens") -> Doctrine:
    """Open-set doctrine over the given finite spaces and all continuous maps.

    The window is exactly the named spaces; pairwise products and the triple
    carriers are materialized with the product topology (continuity between
    finite spaces is monotonicity for the specialization orders).

    Raises :class:`WindowExceeded` from the builder when the window needs
    more than ``fincat.MAX_ARROWS`` arrows or a carrier of more than
    ``fincat.MAX_POINTS`` points.
    """
    names = list(spaces)
    uppers: dict[str, list[int]] = {}
    npoints: dict[str, int] = {}
    for nm in names:
        points, opens = spaces[nm]
        masks = _validate_topology(nm, points, opens)
        uppers[nm] = _specialization(points, masks)
        npoints[nm] = len(points)

    order = sorted(names, key=lambda nm: (npoints[nm], nm))
    rows = ([(a, c) for a in order for c in order]
            + [(f"({x}x{a})", a) for x in order for a in order])

    b = ConcreteBuilder(Presentation(
        "opens", tuple((nm, npoints[nm]) for nm in order), truncated=True))
    for nm in order:
        b.add_object(nm, npoints[nm], window=True)

    for src in order:
        for dst in order:
            for img in _monotone_maps(uppers[src], uppers[dst]):
                b.add_arrow(src, dst, img)

    for a, c in rows:
        nm = f"({a}x{c})"
        uppers[nm] = _product_uppers(uppers[a], uppers[c])
        b.add_object(nm, len(uppers[nm]))
        b.declare_product(a, c, nm)
    for nm in order:
        if npoints[nm] == 1:
            b.terminal = nm
            break
    base = b.close()

    masks = {o: _upset_masks(uppers[o]) for o in base.objects}
    fibers = {o: _mask_fiber(masks[o]) for o in base.objects}
    reindex = _preimage_maps(base, fibers, masks)
    return Doctrine(base, fibers, reindex, name=name,
                    source={"kind": "catalog", "id": name, "dual": False})


def trivial_fiber(base: FinCategory, name: str = "TRIV") -> Doctrine:
    """All fibers singletons; every law collapses."""
    fibers = {o: _SINGLETON_FIBER for o in base.objects}
    reindex = {n: MonotoneMap.identity(_SINGLETON_FIBER) for n in base.arrows}
    return Doctrine(base, fibers, reindex, name=name,
                    source={"kind": "catalog", "id": name, "dual": False})


def semilattice_category(elements: Sequence[str],
                         leq: Iterable[tuple[str, str]],
                         kind: str = "semilattice") -> tuple[FinCategory, FinPoset]:
    """A finite meet-semilattice as a thin base: products are meets."""
    order = FinPoset(elements, leq)
    ops = order.ops
    if ops.meet is None:
        raise ValueError("not a meet-semilattice: some binary meet is missing")
    objs = list(order.elements)
    arrows = []
    identity = {}
    arrow_name = {}
    for i, v in enumerate(objs):
        for j, u in enumerate(objs):
            if order.leq_idx(i, j):
                n = f"{v}>{u}"
                arrows.append(Arrow(n, v, u))
                arrow_name[(v, u)] = n
                if v == u:
                    identity[v] = n
    compose = {}
    for a in arrows:
        for g in arrows:
            if g.dom == a.cod:
                compose[(g.name, a.name)] = arrow_name[(a.dom, g.cod)]
    products = {}
    for v, meets in zip(objs, ops.meet):
        for u, k in zip(objs, meets):
            m = objs[k]
            products[(v, u)] = Product(v, u, m, arrow_name[(m, v)],
                                       arrow_name[(m, u)])
    base = FinCategory(objs, arrows, identity, compose,
                       products=products, terminal=ops.top,
                       presentation=Presentation(kind, tuple(objs)))
    return base, order


def subsets_over_semilattice(elements: Sequence[str],
                             leq: Iterable[tuple[str, str]],
                             name: str = "SL") -> Doctrine:
    """Down-set fibers over a finite meet-semilattice viewed as a thin base."""
    base, order = semilattice_category(elements, leq, kind="downsets")
    objs = list(order.elements)

    idx = order.index
    downsets = _upset_masks(order.lowers)
    downset_masks: dict[str, list[int]] = {}
    fibers = {}
    for u in objs:
        ideal = order.lowers[idx[u]]
        # nonempty down-sets: the empty predicate admits no comprehension
        # arrow over a thin base (no object has an empty principal ideal);
        # those inside the ideal are its down-sets, as it is down-closed
        masks = [m for m in downsets if m and not m & ~ideal]
        downset_masks[u] = masks
        fibers[u] = _mask_fiber(masks)
    index = {u: {m: i for i, m in enumerate(masks)}
             for u, masks in downset_masks.items()}
    reindex = {}
    for a in base.arrows.values():
        ideal_v = order.lowers[idx[a.dom]]
        table = [index[a.dom][m & ideal_v] for m in downset_masks[a.cod]]
        reindex[a.name] = MonotoneMap(fibers[a.cod], fibers[a.dom], table)
    return Doctrine(base, fibers, reindex, name=name,
                    source={"kind": "catalog", "id": name, "dual": False})


# only the canonical spelling of each id, so that no id builds a second copy
_PS_RE = re.compile(r"PS\(([1-9][0-9]*),(0|[1-9][0-9]*)\)")
_CACHE: dict[str, Doctrine] = {}


CATALOG: Mapping[str, str] = {
    "PS(2,0)": "finite sets up to size 2, powerset fibers",
    "PS(1,1)": "finite sets up to size 1 with one powerset step",
    "SIER": "empty, point and Sierpinski spaces, open-set fibers",
    "TRIV": "singleton fibers over the PS(1,1) base",
    "SL3": "3-chain semilattice base, nonempty down-set fibers",
}


def catalog_ids() -> list[str]:
    return list(CATALOG)


def instance(cid: str) -> Doctrine:
    """Build (and cache) a catalog instance by id."""
    got = _CACHE.get(cid)
    if got is not None:
        return got
    m = _PS_RE.fullmatch(cid)
    if m:
        d = powerset_finset(int(m.group(1)), int(m.group(2)))
    elif cid == "SIER":
        d = openset_space(SIERPINSKI_SPACES, name="SIER")
    elif cid == "TRIV":
        d = trivial_fiber(instance("PS(1,1)").base, name="TRIV")
    elif cid == "SL3":
        d = subsets_over_semilattice(
            ("L0", "L1", "L2"),
            [("L0", "L1"), ("L1", "L2"), ("L0", "L2")], name="SL3")
    else:
        raise KeyError(f"unknown catalog id {cid!r}")
    _CACHE[cid] = d
    return d
