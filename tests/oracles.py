"""Independent set-theoretic oracles for the finite-sets instances.

Everything here computes directly on function tuples and subset bitmasks,
bypassing the package's adjoint/search machinery, so oracle agreement tests
genuinely cross two routes.  Conventions shared with the catalog naming:
object ``S{n}`` is {0..n-1}, fiber element ``e{m}`` is the subset with mask
``m``, arrow ``S{a}>S{b}:i0,i1,...`` is the function x -> ix, products code
(i, j) as i * |B| + j.
"""

from itertools import product as iproduct


def arrow_name(dom: int, cod: int, images) -> str:
    return f"S{dom}>S{cod}:{','.join(map(str, images))}"


def parse_arrow(name: str):
    head, imgs = name.split(":")
    dom, cod = head.split(">")
    images = tuple(int(t) for t in imgs.split(",")) if imgs else ()
    return int(dom[1:]), int(cod[1:]), images


def all_functions(dom: int, cod: int):
    if dom == 0:
        yield ()
        return
    if cod == 0:
        return
    yield from iproduct(range(cod), repeat=dom)


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def preimage(images, mask_cod: int) -> int:
    return mask_of(x for x, y in enumerate(images) if mask_cod >> y & 1)


def direct_image(images, mask_dom: int) -> int:
    return mask_of(images[x] for x in points_of(mask_dom))


def forall_image(images, cod: int, mask_dom: int) -> int:
    """{y : every preimage point of y lies in the subset}."""
    return mask_of(y for y in range(cod)
                   if all(mask_dom >> x & 1
                          for x, fy in enumerate(images) if fy == y))


def complement(size: int, mask: int) -> int:
    return ((1 << size) - 1) & ~mask


def pair_code(i: int, j: int, nb: int) -> int:
    return i * nb + j


def pair_decode(p: int, nb: int):
    return p // nb, p % nb


def named(poset, rows):
    """A binary-operation table of index rows as a dict from name pairs to
    names, in row-major order, for comparison with name-level oracles."""
    names = poset.elements
    return {(names[i], names[j]): names[k]
            for i, row in enumerate(rows) for j, k in enumerate(row)}


def reference_lattice_ops(p) -> dict:
    """Every lattice table of the poset ``p`` at once, by name, with
    ``is_heyting``: the body ``poset.lattice_ops`` had before its tables
    were computed on first read."""
    from doctrinelab.poset import _implication_rows, _op_rows

    n = len(p.elements)
    full = (1 << n) - 1
    top = p.greatest_of_downset(full) if n else None
    bottom = p.least_of_upset(full) if n else None
    join = _op_rows(p.uppers, p._principal_filters.get)
    meet = _op_rows(p.lowers, p._principal_ideals.get)
    impl = None if meet is None else _implication_rows(p, meet)
    top_e = p.elements[top] if top is not None else None
    bot_e = p.elements[bottom] if bottom is not None else None
    tables = {"meet": meet, "join": join, "top": top_e, "bottom": bot_e,
              "heyting_implication": impl}
    tables["is_heyting"] = None not in tables.values()
    return tables


def reference_close(b):
    """The category of the builder ``b`` with a dict composition table: the
    body ``ConcreteBuilder.close`` had before it closed over generators,
    composing every composable pair when the later of its two arrows is
    reached.  It reads ``fincat.MAX_ARROWS`` when it runs."""
    from doctrinelab import fincat
    from doctrinelab.fincat import Arrow, FinCategory, Product

    hom = {o: {c: {} for c in b.order} for o in b.order}
    names, arrows, images, lut = [], {}, {}, {}
    by_dom = {o: [] for o in b.order}
    by_cod = {o: [] for o in b.order}
    compose = {}

    def intern(dom, cod, img):
        known = hom[dom][cod]
        i = known.get(img)
        if i is None:
            i = len(names)
            if i == fincat.MAX_ARROWS:
                raise b._exceeded(f"more than {fincat.MAX_ARROWS}")
            name = b._name(dom, cod, img)
            known[img] = i
            names.append(name)
            arrows[name] = Arrow(name, dom, cod)
            images[name] = img
            lut[name] = padded = img.ljust(256, b"\0")
            by_dom[dom].append((i, cod, padded))
            by_cod[cod].append((i, dom, img))
        return i

    identity = {o: names[intern(o, o, bytes(range(b.carriers[o])))]
                for o in b.order}
    for key in b._gens:
        intern(*key)
    products = {}
    for (x, y), carrier in b.rows.items():
        ny, size = b.carriers[y], b.carriers[carrier]
        products[(x, y)] = Product(
            x, y, carrier,
            names[intern(carrier, x, bytes(p // ny for p in range(size)))],
            names[intern(carrier, y, bytes(p % ny for p in range(size)))])
    window_set = set(b.window)
    scope = window_set | set(b.power_pool)
    scoped = [n for n in list(arrows)
              if arrows[n].dom in scope and arrows[n].cod in scope]
    for f in scoped:
        for g in scoped:
            src = b.rows.get((arrows[f].dom, arrows[g].dom))
            dst = b.rows.get((arrows[f].cod, arrows[g].cod))
            if src is None or dst is None:
                continue
            nb_src = b.carriers[arrows[g].dom]
            nb_dst = b.carriers[arrows[g].cod]
            intern(src, dst, bytes(
                images[f][p // nb_src] * nb_dst + images[g][p % nb_src]
                for p in range(b.carriers[src])))
    for (x, y), carrier in list(b.rows.items()):
        if (y, x) in b.rows:
            nx, ny = b.carriers[x], b.carriers[y]
            intern(carrier, b.rows[(y, x)],
                   bytes((p % ny) * nx + p // ny for p in range(b.carriers[carrier])))
    for (x, a), carrier in list(b.rows.items()):
        triple = b.rows.get((carrier, a))
        if triple is None:
            continue
        na = b.carriers[a]
        intern(carrier, triple,
               bytes(p * na + p % na for p in range(b.carriers[carrier])))
        square = b.rows.get((a, a))
        if square is not None:
            intern(triple, square, bytes(((t // na) % na) * na + t % na
                                         for t in range(b.carriers[triple])))
    for i, name in enumerate(names):
        a, img, then = arrows[name], images[name], lut[name]
        for g, c, g_lut in by_dom[a.cod]:
            if g > i:
                break
            compose[(names[g], name)] = names[intern(a.dom, c, img.translate(g_lut))]
        for f, d, f_img in by_cod[a.dom]:
            if f >= i:
                break
            compose[(name, names[f])] = names[intern(d, a.cod, f_img.translate(then))]
        if a.dom in window_set:
            for g, c, _ in by_dom[a.dom]:
                if g > i:
                    break
                other = images[names[g]]
                for c1, img1, c2, img2 in ((a.cod, img, c, other),
                                           (c, other, a.cod, img)):
                    row = b.rows.get((c1, c2))
                    if row is not None:
                        nb = b.carriers[c2]
                        intern(a.dom, row, bytes(x * nb + y
                                                 for x, y in zip(img1, img2)))
    return FinCategory(b.order, arrows.values(), identity, compose,
                       window=[o for o in b.order if o in window_set],
                       products=products, terminal=b.terminal,
                       presentation=b.presentation, sizes=dict(b.carriers),
                       power_pool=list(b.power_pool) or None,
                       tables={n: tuple(img) for n, img in images.items()})


def reference_power_covers(d, a, p, mem) -> bool:
    """The membership scan without the counting argument: every ``phi``
    over ``a x y`` is looked for among the images ``(id_a x c)* mem``."""
    base = d.base
    for y in base.window:
        row_y = base.products.get((a, y))
        if row_y is None or not all(
                any(d.star(base.times(base.identity[a], c), mem) == phi
                    for c in base.hom(y, p))
                for phi in d.fibers[row_y.obj].elements):
            return False
    return True


def reference_weak_power_object(d, a):
    """The first ``(p, mem)`` of the pool that covers, every candidate
    tried, with no memo."""
    base = d.base
    pool = list(dict.fromkeys(list(base.window) + list(base.power_pool)))
    pool.sort(key=base.obj_index)
    for p in pool:
        row = base.products.get((a, p))
        if row is None:
            continue
        for mem in d.fibers[row.obj].elements:
            if reference_power_covers(d, a, p, mem):
                return {"power": p, "membership": mem}
    return None


def reference_fullness(d, dual):
    """Full (co-)comprehension with the converse order law checked beside
    the definition: for each pair ``(alpha, beta)``, a factorisation of the
    witnesses against the order refutes fullness, and then ``w_alpha*``
    sending ``beta`` to the bound exactly when ``alpha <= beta`` (``beta <=
    alpha``, if dual) is checked as a law of its own."""
    from doctrinelab import logic
    from doctrinelab.verdicts import Verdict

    exists = logic.has_cocomprehension(d) if dual else logic.has_comprehension(d)
    if not exists:
        return exists
    table = (logic.cocomprehension_table(d) if dual
             else logic.comprehension_table(d))
    kind = "cocomprehension" if dual else "comprehension"
    base = d.base
    for a in base.window:
        fiber = d.fibers[a]
        for alpha in fiber.elements:
            wa = table[(a, alpha)]
            dom = base.dom(wa)
            bound = d.bottom(dom) if dual else d.top(dom)
            for beta in fiber.elements:
                wb = table[(a, beta)]
                factors = any(base.compose(wb, k) == wa
                              for k in base.hom(dom, base.dom(wb)))
                expected = (fiber.leq(beta, alpha) if dual
                            else fiber.leq(alpha, beta))
                if factors and not expected:
                    return Verdict.refuted(kind=f"{kind}_not_full", object=a,
                                           alpha=alpha, beta=beta,
                                           arrows=[wa, wb])
                if expected != (d.star(wa, beta) == bound):
                    return Verdict.refuted(kind=f"{kind}_order_law", object=a,
                                           alpha=alpha, beta=beta)
    return Verdict.holds(d.window_descriptor)
