"""Orderly generation in the enumerator against the full-product reference.

The reference is the minimisation the enumerator used before orderly
generation: every candidate is re-encoded under every tuple of fiber
automorphisms, the least encoding is its key, and a candidate is emitted
when its key has not been seen.  It runs over all the group elements, so it
is slow but direct.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrinelab import theorems


def reference_key(shapes, covers):
    """Least encoding of the cover tables over the product of the fibers'
    automorphism groups."""
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


def reference_enumeration(max_base, max_fiber, budget, max_emit):
    """(name, shapes, covers) of each emitted doctrine, and the candidates
    examined when each base was finished, by deduplicating keys."""
    shapes = theorems.fiber_shapes(max_fiber)
    emitted, candidates_after, seen = [], {}, set()
    candidates = 0
    for n in range(1, max_base + 1):
        for assign in itertools.product(shapes, repeat=n):
            options = [theorems._MONO[(assign[i + 1], assign[i])]
                       for i in range(n - 1)]
            for covers in itertools.product(*options):
                if len(emitted) >= max_emit or candidates >= budget:
                    return emitted, candidates_after
                candidates += 1
                key = (n, assign, reference_key(assign, covers))
                if key in seen:
                    continue
                seen.add(key)
                emitted.append((f"enum-{n}-{candidates}", assign, covers))
        candidates_after[n] = candidates
    return emitted, candidates_after


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
    reference, candidates_after = criterion_8_reference
    stats = {}
    got = emitted_sequence(max_base=3, max_fiber=3, budget=1_000_000,
                           stats=stats)
    assert got == [e for e in reference if len(e[1]) <= 3]
    assert stats == {"candidates": 30_712, "emitted": 9_986,
                     "budget_exhausted": False}
    assert candidates_after[3] == 30_712


def test_criterion_8_space_matches_reference(criterion_8_reference):
    reference, _ = criterion_8_reference
    got = emitted_sequence(max_base=4, max_fiber=3, budget=500_000,
                           max_emit=10_000)
    assert len(reference) == 10_000
    assert got == reference


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
    assert theorems._orbit_least(assign, ks) == least
