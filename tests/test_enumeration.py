"""Orderly generation in the enumerator against the full-product reference.

The reference is the minimisation the enumerator used before orderly
generation: every candidate is re-encoded under every tuple of fiber
automorphisms, the least encoding is its key, and a candidate is emitted
when its key has not been seen.  It runs over all the group elements, so it
is slow but direct.
"""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrinelab import theorems


@functools.cache
def reference_key(shapes, covers):
    """Least encoding of the cover tables over the product of the fibers'
    automorphism groups (cached, so that reference runs over many budgets
    cost one minimisation per candidate)."""
    best = None
    for auts in itertools.product(*(theorems._AUTS[s] for s in shapes)):
        invs = []
        for a in auts:
            inv = [0] * len(a)
            for i, v in enumerate(a):
                inv[v] = i
            invs.append(tuple(inv))
        encoded = tuple(
            tuple(auts[i][covers[i][invs[i + 1][x]]]
                  for x in range(len(covers[i])))
            for i in range(len(covers)))
        if best is None or encoded < best:
            best = encoded
    return best


def reference_enumeration(max_base, max_fiber, budget, max_emit=None,
                          min_fiber=1):
    """(name, shapes, covers) of each emitted doctrine, the candidates
    examined when each base was finished, and the enumerator's ``stats``
    where it stops, by deduplicating keys one candidate at a time."""
    shapes = theorems.fiber_shapes(max_fiber, min_fiber)
    emitted, candidates_after, seen = [], {}, set()
    candidates = 0

    def stop(exhausted):
        return emitted, candidates_after, {
            "candidates": candidates, "emitted": len(emitted),
            "budget_exhausted": exhausted}

    for n in range(1, max_base + 1):
        for assign in itertools.product(shapes, repeat=n):
            options = [theorems._MONO[(assign[i + 1], assign[i])]
                       for i in range(n - 1)]
            for covers in itertools.product(*options):
                if max_emit is not None and len(emitted) >= max_emit:
                    return stop(False)
                if candidates >= budget:
                    return stop(True)
                candidates += 1
                key = (n, assign, reference_key(assign, covers))
                if key in seen:
                    continue
                seen.add(key)
                emitted.append((f"enum-{n}-{candidates}", assign, covers))
        candidates_after[n] = candidates
    return stop(False)


def emitted_sequence(**kwargs):
    shape_of = {id(p): sid for sid, p in theorems._SHAPES.items()}
    out = []
    for d in theorems.enumerate_doctrines(**kwargs):
        objs = d.base.objects
        shapes = tuple(shape_of[id(d.fibers[o])] for o in objs)
        covers = tuple(d.reindex[d.base.hom(objs[i], objs[i + 1])[0]].idx_table
                       for i in range(len(objs) - 1))
        out.append((d.name, shapes, covers))
    return out


@pytest.fixture(scope="module")
def criterion_8_reference():
    # criterion 8's space; its window-3 part is finished before the first
    # 10,000 doctrines are reached, so it also holds the window-3 space
    return reference_enumeration(max_base=4, max_fiber=3, budget=500_000,
                                 max_emit=10_000)


def test_window_3_matches_reference(criterion_8_reference):
    reference, candidates_after, _ = criterion_8_reference
    stats = {}
    got = emitted_sequence(max_base=3, max_fiber=3, budget=1_000_000,
                           stats=stats)
    assert got == [e for e in reference if len(e[1]) <= 3]
    assert stats == {"candidates": 30_712, "emitted": 9_986,
                     "budget_exhausted": False}
    assert candidates_after[3] == 30_712


def test_criterion_8_space_matches_reference(criterion_8_reference):
    reference, _, reference_stats = criterion_8_reference
    stats = {}
    got = emitted_sequence(max_base=4, max_fiber=3, budget=500_000,
                           max_emit=10_000, stats=stats)
    assert len(reference) == 10_000
    assert got == reference
    assert stats == reference_stats


def assert_matches_reference(max_base=3, max_fiber=3, min_fiber=1,
                             budget=1_000_000, max_emit=None):
    """Names, shapes, covers and the whole ``stats`` dict agree with the
    per-candidate reference."""
    reference, _, reference_stats = reference_enumeration(
        max_base, max_fiber, budget, max_emit, min_fiber)
    stats = {}
    got = emitted_sequence(max_base=max_base, max_fiber=max_fiber,
                           min_fiber=min_fiber, budget=budget,
                           max_emit=max_emit, stats=stats)
    assert got == reference
    assert stats == reference_stats


def orbit_least(shapes, ks) -> bool:
    """Whether the cover indices ``ks`` are orbit-least, decided as the walk
    decides it: ``_orbit_step`` chained position by position from every
    automorphism of the first fiber."""
    reach = range(len(theorems._AUTS[shapes[0]]))
    for i, k in enumerate(ks):
        reach = theorems._orbit_step(theorems._action(shapes[i + 1], shapes[i]),
                                     reach, k)
        if reach is None:
            return False
    return True


def space_boundaries(min_fiber):
    """The window-3 space's size, the candidates before its last base, and
    (candidates before it, its size) of the first subtree of more than one
    candidate that the walk skips whole: a three-object assignment whose
    first cover index is not orbit-least."""
    shapes = theorems.fiber_shapes(3, min_fiber)
    count, before_last, subtree = 0, None, None
    for n in (1, 2, 3):
        if n == 3:
            before_last = count
        for assign in itertools.product(shapes, repeat=n):
            sizes = [len(theorems._MONO[(assign[i + 1], assign[i])])
                     for i in range(n - 1)]
            if n == 3 and subtree is None:
                subtree = next(
                    ((count + k * sizes[1], sizes[1]) for k in range(sizes[0])
                     if sizes[1] > 1
                     and not orbit_least(assign[:2], (k,))), None)
            count += math.prod(sizes)
    return count, before_last, subtree


@pytest.mark.parametrize("min_fiber", [1, 2])
@pytest.mark.parametrize("where", ["zero", "one", "last_base", "subtree_start",
                                   "inside_subtree", "subtree_end",
                                   "space_minus_one", "space"])
def test_budget_boundaries_match_reference(min_fiber, where):
    total, before_last, (start, size) = space_boundaries(min_fiber)
    if min_fiber == 1:
        assert total == 30_712
    budget = {"zero": 0, "one": 1, "last_base": before_last,
              "subtree_start": start, "inside_subtree": start + 1,
              "subtree_end": start + size, "space_minus_one": total - 1,
              "space": total}[where]
    assert_matches_reference(min_fiber=min_fiber, budget=budget)


@pytest.mark.parametrize("min_fiber", [1, 2])
@pytest.mark.parametrize("max_emit", [0, 1, 7, 100, 1_000, 9_986, 9_987])
def test_max_emit_matches_reference(min_fiber, max_emit):
    assert_matches_reference(min_fiber=min_fiber, max_emit=max_emit)


def test_max_emit_is_checked_before_budget():
    # the budget ends at the candidate of the 100th doctrine: the enumerator
    # stops on max_emit, with the budget not exhausted
    reference, _, _ = reference_enumeration(3, 3, 1_000_000, max_emit=100)
    last = int(reference[-1][0].rsplit("-", 1)[1])
    assert_matches_reference(max_emit=100, budget=last)
    assert_matches_reference(max_emit=101, budget=last)


@pytest.mark.parametrize("filter_expr", [None, "full_comp&!classical"])
def test_each_doctrine_is_yielded_when_it_is_found(filter_expr):
    stats = {}
    for i, d in enumerate(theorems.enumerate_doctrines(
            max_base=3, max_fiber=3, budget=1_000_000,
            filter_expr=filter_expr, stats=stats)):
        assert stats["candidates"] == int(d.name.rsplit("-", 1)[1])
        assert stats["emitted"] == i + 1


def test_the_window_4_enumeration_is_lazy():
    stats = {}
    doctrines = theorems.enumerate_doctrines(max_base=4, max_fiber=4,
                                             budget=10_000_000, stats=stats)
    assert next(doctrines).name == "enum-1-1"
    assert stats == {"candidates": 1, "emitted": 1, "budget_exhausted": False}
    d = next(d for d in doctrines if len(d.base.objects) == 4)
    assert d.name == "enum-4-30713"
    assert stats["candidates"] == 30_713
    doctrines.close()


@st.composite
def candidates(draw):
    shapes = theorems.fiber_shapes()
    assign = tuple(draw(st.lists(st.sampled_from(shapes), min_size=1,
                                 max_size=4)))
    ks = tuple(draw(st.integers(0, len(theorems._MONO[(assign[i + 1],
                                                       assign[i])]) - 1))
               for i in range(len(assign) - 1))
    return assign, ks


@given(candidates())
@settings(max_examples=300, deadline=None)
def test_orbit_least_matches_reference(candidate):
    assign, ks = candidate
    covers = tuple(theorems._MONO[(assign[i + 1], assign[i])][k]
                   for i, k in enumerate(ks))
    least = reference_key(assign, covers) == covers
    assert orbit_least(assign, ks) == least
