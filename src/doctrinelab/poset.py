"""Finite posets, lattice operations, monotone maps, Galois-connection adjoints.

Fibers of a doctrine are instances of :class:`FinPoset`.  The order is held
as per-element bitmasks so that meets, joins and adjoints reduce to integer
arithmetic; an up-closed (down-closed) subset has a least (greatest) element
exactly when its mask coincides with a principal filter (ideal), which is a
single dictionary lookup.

Monotone maps and lattice operations are stored only as integer index
tables: ``MonotoneMap.idx_table`` holds the index of each source element's
image, and the meet, join and Heyting-implication tables of
:class:`LatticeOps` are rows of indices, each computed on first read.  The
checks walk these tables (implication by bitmask rows, monotonicity on Hasse
covers, composites of reindexing maps by byte-table translation); element
names appear only in documents, reports and counterexample payloads.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "FinPoset",
    "MonotoneMap",
    "LatticeOps",
    "lattice_ops",
    "left_adjoint",
    "right_adjoint",
]


class FinPoset:
    """Immutable finite poset over string element ids."""

    __slots__ = ("elements", "index", "uppers", "lowers", "__dict__")

    def __init__(self, elements: Iterable[str], leq: Iterable[tuple[str, str]],
                 validate: bool = True, _masks: tuple[int, ...] | None = None):
        self.elements: tuple[str, ...] = tuple(elements)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if len(self.index) != n:
            raise ValueError("duplicate element ids")
        if _masks is not None:
            uppers = list(_masks)
        else:
            uppers = [1 << i for i in range(n)]
            for a, b in leq:
                ia, ib = self.index[a], self.index[b]
                uppers[ia] |= 1 << ib
        self.uppers: tuple[int, ...] = tuple(uppers)
        lowers = [0] * n
        for i in range(n):
            m = uppers[i]
            while m:
                j = (m & -m).bit_length() - 1
                lowers[j] |= 1 << i
                m &= m - 1
        self.lowers: tuple[int, ...] = tuple(lowers)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.elements)
        for i in range(n):
            if not self.uppers[i] >> i & 1:
                raise ValueError(f"order not reflexive at {self.elements[i]}")
            m = self.uppers[i]
            acc = 0
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                acc |= self.uppers[j]
                mm &= mm - 1
            if acc != m:
                raise ValueError(f"order not transitive at {self.elements[i]}")
            for j in range(n):
                if i != j and (m >> j & 1) and (self.uppers[j] >> i & 1):
                    raise ValueError(
                        f"order not antisymmetric: {self.elements[i]} ~ {self.elements[j]}")

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: str, b: str) -> bool:
        return bool(self.uppers[self.index[a]] >> self.index[b] & 1)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.uppers[i] >> j & 1)

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every ``(i, j)`` with ``j`` covering ``i``, above it with nothing
        strictly between (the Hasse diagram), in index order."""
        strict = [m & ~(1 << i) for i, m in enumerate(self.uppers)]
        pairs = []
        for i, m in enumerate(strict):
            covers = m
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                covers &= ~strict[j]
                mm &= mm - 1
            pairs.extend((i, j) for j in range(covers.bit_length())
                         if covers >> j & 1)
        return tuple(pairs)

    @cached_property
    def _cover_codes(self) -> bytes:
        """The cover pairs as native 16-bit ``i | j << 8`` (at most 256 elements)."""
        return b"".join((i | j << 8).to_bytes(2, sys.byteorder)
                        for i, j in self.cover_pairs)

    @cached_property
    def _principal_filters(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.uppers)}

    @cached_property
    def _principal_ideals(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.lowers)}

    def least_of_upset(self, mask: int) -> int | None:
        """Least element of an up-closed subset given as a bitmask."""
        return self._principal_filters.get(mask)

    def greatest_of_downset(self, mask: int) -> int | None:
        """Greatest element of a down-closed subset given as a bitmask."""
        return self._principal_ideals.get(mask)

    def pairs(self) -> Iterable[tuple[str, str]]:
        for i, a in enumerate(self.elements):
            m = self.uppers[i]
            while m:
                j = (m & -m).bit_length() - 1
                yield a, self.elements[j]
                m &= m - 1

    def reversed(self) -> "FinPoset":
        """The opposite order on the same elements."""
        return FinPoset(self.elements, (), validate=False, _masks=self.lowers)

    @cached_property
    def ops(self) -> "LatticeOps":
        return lattice_ops(self)

    def same_order(self, other: "FinPoset") -> bool:
        return self.elements == other.elements and self.uppers == other.uppers

    def __repr__(self) -> str:
        return f"FinPoset({len(self.elements)} elements)"


class LatticeOps:
    """Partial lattice structure of a poset, each table computed on first read
    and present only when the defining universal property holds for every
    required argument.  A table is index rows, ``meet[i][j]`` being the index
    of the meet of elements ``i`` and ``j``; ``top``, ``bottom`` are names."""
    __slots__ = ("poset", "__dict__")

    def __init__(self, poset: FinPoset):
        self.poset = poset

    @cached_property
    def meet(self) -> list[list[int]] | None:
        return _op_rows(self.poset.lowers, self.poset._principal_ideals.get)

    @cached_property
    def join(self) -> list[list[int]] | None:
        return _op_rows(self.poset.uppers, self.poset._principal_filters.get)

    @cached_property
    def top(self) -> str | None:
        i = self.poset.greatest_of_downset((1 << len(self.poset)) - 1)
        return None if i is None else self.poset.elements[i]

    @cached_property
    def bottom(self) -> str | None:
        i = self.poset.least_of_upset((1 << len(self.poset)) - 1)
        return None if i is None else self.poset.elements[i]

    @cached_property
    def heyting_implication(self) -> list[list[int]] | None:
        meet = self.meet
        return None if meet is None else _implication_rows(self.poset, meet)

    @property
    def is_heyting(self) -> bool:
        return (self.meet is not None and self.join is not None
                and self.top is not None and self.bottom is not None
                and self.heyting_implication is not None)


def _op_rows(masks: tuple[int, ...], extremum) -> list[list[int]] | None:
    """``rows[i][j] = extremum(masks[i] & masks[j])``: meets from the down-set
    masks, joins from the up-set masks; None if one is missing."""
    rows = []
    for mi in masks:
        row = [extremum(mi & mj) for mj in masks]
        if None in row:
            return None
        rows.append(row)
    return rows


def _implication_rows(p: FinPoset, meet: list[list[int]]) -> list[list[int]] | None:
    """``a -> b``, the greatest ``c`` with ``meet(c, a) <= b``, row by row:
    ``below[m]`` starts as the ``c`` with ``meet(c, a) = m``; walking ``b``
    upwards, the ``c`` with ``meet(c, a) <= b`` are those and the ones
    already collected at the lower covers of ``b``."""
    n = len(p.elements)
    lower_covers: list[list[int]] = [[] for _ in range(n)]
    for i, j in p.cover_pairs:
        lower_covers[j].append(i)
    upwards = sorted(range(n), key=lambda b: p.lowers[b].bit_count())
    bits = [1 << c for c in range(n)]
    greatest = p._principal_ideals.get
    rows = []
    for a in range(n):
        below = [0] * n
        for c in range(n):
            below[meet[c][a]] |= bits[c]
        for b in upwards:
            s = below[b]
            for j in lower_covers[b]:
                s |= below[j]
            below[b] = s
        row = [greatest(s) for s in below]
        if None in row:
            return None
        rows.append(row)
    return rows


def lattice_ops(p: FinPoset) -> LatticeOps:
    return LatticeOps(p)


class MonotoneMap:
    """A monotone function between finite posets: ``idx_table[i]`` is the
    index in ``target`` of the image of the ``i``-th element of ``source``.
    Monotonicity is not checked here; ``validate_doctrine`` checks it."""

    __slots__ = ("source", "target", "idx_table", "__dict__")

    def __init__(self, source: FinPoset, target: FinPoset,
                 idx_table: Iterable[int]):
        self.source = source
        self.target = target
        self.idx_table: tuple[int, ...] = tuple(idx_table)

    @classmethod
    def from_names(cls, source: FinPoset, target: FinPoset,
                   table: Mapping[str, str]) -> "MonotoneMap":
        """The map sending each source element ``e`` to ``table[e]``."""
        return cls(source, target, (target.index[table[e]] for e in source.elements))

    @cached_property
    def table(self) -> dict[str, str]:
        """The map by element names, for documents, reports and payloads."""
        names = self.target.elements
        return {e: names[i] for e, i in zip(self.source.elements, self.idx_table)}

    @cached_property
    def _idx_bytes(self) -> bytes:
        """``idx_table`` as bytes; only for a target of at most 256 elements."""
        return bytes(self.idx_table)

    @cached_property
    def _translation(self) -> bytes | None:
        """``idx_table`` as a ``bytes.translate`` table; None when the source
        or the target has more than 256 elements."""
        if len(self.source) > 256 or len(self.target) > 256:
            return None
        return self._idx_bytes.ljust(256, b"\0")

    @classmethod
    def identity(cls, p: FinPoset) -> "MonotoneMap":
        return cls(p, p, range(len(p)))

    def __repr__(self) -> str:
        return f"MonotoneMap({len(self.source)}->{len(self.target)})"


def _monotone_break(m: MonotoneMap) -> tuple[int, int] | None:
    """The first source pair ``i <= j``, in index order, whose images are not
    ordered in the target, as indices; None when ``m`` is monotone.

    The target order is transitive, so the Hasse covers of the source decide
    whether such a pair exists; only then is the whole order scanned.
    """
    it, up, table = m.idx_table, m.target.uppers, m._translation
    if table is not None:  # each distinct pair of images of a cover, once
        codes = set(memoryview(m.source._cover_codes.translate(table)).cast("H"))
        if all(up[c & 255] >> (c >> 8) & 1 for c in codes):
            return None
    elif all(up[it[i]] >> it[j] & 1 for i, j in m.source.cover_pairs):
        return None
    for i, mask in enumerate(m.source.uppers):
        while mask:
            j = (mask & -mask).bit_length() - 1
            if not up[it[i]] >> it[j] & 1:
                return i, j
            mask &= mask - 1
    return None


def _monotone_maps(ups: Sequence[int],
                   upd: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every monotone map between two finite orders given by their
    ``uppers`` masks, as index tables in lexicographic order: ``img`` with
    ``upd[img[i]]`` holding ``img[j]`` whenever ``ups[i]`` holds ``j``."""
    pairs = [(i, j) for i, up in enumerate(ups) for j in range(len(ups))
             if up >> j & 1]
    return (img for img in product(range(len(upd)), repeat=len(ups))
            if all(upd[img[i]] >> img[j] & 1 for i, j in pairs))


def _composes_to(first: MonotoneMap, then: MonotoneMap,
                composite: MonotoneMap) -> bool:
    """Is ``then`` after ``first`` equal to ``composite``?  The maps must
    chain: ``first.target``, ``then.source`` and ``composite.target``,
    ``then.target`` have the same elements.  When the middle and last posets
    have at most 256 elements the index tables compare as bytes, by one
    ``bytes.translate``; otherwise as tuples."""
    table = then._translation
    if table is not None:
        return first._idx_bytes.translate(table) == composite._idx_bytes
    return (tuple(map(then.idx_table.__getitem__, first.idx_table))
            == composite.idx_table)


def _adjoint(u: MonotoneMap, side: str) -> MonotoneMap | None:
    """The ``"left"`` or ``"right"`` adjoint of ``u: B -> A``, or None.

    ``L(a)`` is the least element of the up-closed set ``{b : a <= u(b)}``
    and ``R(a)`` the greatest of the down-closed ``{b : u(b) <= a}``; each
    exists iff the set is a principal filter (ideal).
    """
    A, B = u.target, u.source
    it = u.idx_table
    # the images u(b) may take: above a (left), below a (right)
    if side == "left":
        allowed, extremum = A.uppers, B.least_of_upset
    else:
        allowed, extremum = A.lowers, B.greatest_of_downset
    table = []
    for region in allowed:
        mask = 0
        for ib, image in enumerate(it):
            if region >> image & 1:
                mask |= 1 << ib
        best = extremum(mask)
        if best is None:
            return None
        table.append(best)
    return MonotoneMap(A, B, table)


def left_adjoint(u: MonotoneMap) -> MonotoneMap | None:
    """The left adjoint L of ``u: B -> A``, i.e. ``L(a) <= b  iff  a <= u(b)``,
    or None when some least element is missing."""
    return _adjoint(u, "left")


def right_adjoint(u: MonotoneMap) -> MonotoneMap | None:
    """The right adjoint R of ``u: B -> A``: ``b <= R(a)  iff  u(b) <= a``."""
    return _adjoint(u, "right")


def _unpreserved(m: MonotoneMap, s_op: Sequence[Sequence[int]],
                 t_op: Sequence[Sequence[int]]) -> tuple | None:
    """The first ``(pair, image of op, op of images)``, as element names, at
    which ``m`` fails to carry the binary operation rows ``s_op`` to
    ``t_op``, or None.  Pairs are scanned row by row in index order."""
    it, s, t = m.idx_table, m.source.elements, m.target.elements
    for x, row in enumerate(s_op):
        of_images = t_op[it[x]]
        for y, xy in enumerate(row):
            if it[xy] != of_images[it[y]]:
                return [s[x], s[y]], t[it[xy]], t[of_images[it[y]]]
    return None
