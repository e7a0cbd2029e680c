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
