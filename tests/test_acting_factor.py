"""Which factor a triple or pair orbit count walks.

G is transitive on every factor of X_P1 x X_P2 (x X_P3), so the
diagonal G-orbits are the P-orbits on the product of the other factors
for any one factor's P.  count_triple_orbits walks the factor with the
smallest flag variety, the first of them on a tie, and nothing else.
These tests check that the count depends neither on the order of the
factors nor on the factor that acts (against union-find on the product
of the others), that only the smallest factor is walked, once, and that
orbit fusion makes no copy of the generators' permutations.
"""

import itertools
import tracemalloc

import pytest

import dflag.orbits
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.flags import flag_count
from dflag.groups import ParabolicSpec, gl, sp
from dflag.orbits import (
    _generators,
    _orbit_count,
    _parabolic_roots,
    _Speller,
    _walk_flags,
    count_triple_orbits,
)
from dflag.weyl import bruhat_double_cosets
from point_action import reference_orbits

GL3_PROPER = [C((2, 1)), C((1, 2)), C((1, 1, 1))]


def _specs(group, shapes):
    return [ParabolicSpec(group, shape) for shape in shapes]


def _word_perms(group, shape, q, targets):
    """The point permutations of the words in G's letters for the
    matrices ``targets``, on X_P = group/shape."""
    speller = _Speller(group, q, _walk_flags(group, shape, q)[2])
    return [speller.word_for(t).perm for t in targets]


def _count_acting(group, shapes, acting, q):
    """The orbit count with the factor ``acting`` acting, whatever its
    size: the other factors are walked under its parabolic, and their
    product is searched by union-find."""
    targets = _generators(group, _parabolic_roots(group, shapes[acting]), q)
    spaces = [
        (flag_count(group, s, q), _word_perms(group, s, q, targets))
        for k, s in enumerate(shapes)
        if k != acting
    ]
    return reference_orbits(spaces)[1]


def _orderings_agree(group, shapes, q):
    counts = {
        order: count_triple_orbits(group, _specs(group, order), q)
        for order in set(itertools.permutations(shapes))
    }
    assert len(set(counts.values())) == 1, (shapes, q, counts)
    return next(iter(counts.values()))


@pytest.mark.parametrize("q", [2, 3])
def test_every_ordering_of_every_gl3_triple_agrees(q):
    for shapes in itertools.combinations_with_replacement(GL3_PROPER, 3):
        count = _orderings_agree(gl(3), shapes, q)
        for acting in range(3):  # any factor's parabolic may act
            assert _count_acting(gl(3), shapes, acting, q) == count, (shapes, acting)


@pytest.mark.parametrize(
    "group, shapes, qs",
    [
        (gl(4), (C((2, 2)), C((1, 1, 1, 1)), C((3, 1))), (3,)),
        (gl(4), (C((1, 3)), C((2, 2)), C((3, 1))), (3,)),
        (gl(4), (C((2, 1, 1)), C((1, 1, 2)), C((3, 1))), (3,)),  # the two largest tie
        (sp(2), (SC((1,), 2), SC((1, 1), 0), SC((2,), 0)), (3,)),
        (gl(3), (C((2, 1)), C((1, 2))), (2, 3)),
        (gl(4), (C((2, 2)), C((1, 1, 1, 1))), (2, 3)),
        (gl(4), (C((2, 1, 1)), C((1, 1, 2))), (2, 3)),
        (sp(2), (SC((1,), 2), SC((2,), 0)), (3,)),
    ],
    ids=[
        "gl4-2,2;B;3,1",
        "gl4-1,3;2,2;3,1",
        "gl4-tie",
        "sp4-1,2,1;B;2,2",
        "pair-gl3-2,1;1,2",
        "pair-gl4-2,2;B",
        "pair-gl4-tie",
        "pair-sp4-1,2,1;2,2",
    ],
)
def test_orderings_agree(group, shapes, qs):
    for q in qs:
        _orderings_agree(group, shapes, q)


def _walked_shapes(monkeypatch, group, shapes, q):
    """The shapes count_triple_orbits walks, in order, and the number of
    generator sets it counts on them; each orbit search is skipped."""
    walked, searched = [], []
    original = dflag.orbits._walk_flags

    def recording(group, shape, q):
        walked.append(shape)
        return original(group, shape, q)

    monkeypatch.setattr(dflag.orbits, "_walk_flags", recording)
    monkeypatch.setattr(dflag.orbits, "_orbit_count", lambda size, perms: searched.append(size) or 0)
    count_triple_orbits(group, _specs(group, shapes), q)
    return walked, len(searched)


def test_the_smallest_variety_is_walked_once_and_nothing_else_is(monkeypatch):
    borel4 = C((1, 1, 1, 1))
    # the P_(2,2) x B double cosets, one generator set each, act on the
    # 40 points of X_(3,1)
    walked, searched = _walked_shapes(monkeypatch, gl(4), [C((2, 2)), borel4, C((3, 1))], 3)
    assert walked == [C((3, 1))]
    assert searched == bruhat_double_cosets(*_specs(gl(4), [C((2, 2)), borel4])).count == 6
    # on a tie the first of the smallest is walked
    walked, _ = _walked_shapes(monkeypatch, gl(4), [C((2, 2)), C((1, 3)), C((3, 1))], 3)
    assert walked == [C((1, 3))]
    # three Borels tie: the first X_B is walked once
    walked, searched = _walked_shapes(monkeypatch, gl(4), [borel4] * 3, 3)
    assert (walked, searched) == ([borel4], 24)
    # a pair walks its smaller factor under the other's parabolic
    walked, searched = _walked_shapes(monkeypatch, gl(4), [borel4, C((2, 2))], 3)
    assert (walked, searched) == ([C((2, 2))], 1)


def test_one_factor_fusion_copies_no_permutation():
    """Orbit fusion on one space under its generators' permutations
    stays under 64 bytes per point, measured by tracemalloc.  Its own
    memory is a seen byte per point and, for the largest orbit, a list
    slot (8 bytes) and an int object (32 bytes) per point: the GL_4
    full flags over F_3 are one orbit under GL_4's letters.  A scaled
    copy of each of the 3 letters' permutations would add 40 bytes per
    point each."""
    perms = [w.perm for w in _walk_flags(gl(4), C((1, 1, 1, 1)), 3)[2].values()]
    total = len(perms[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        orbits = _orbit_count(total, perms)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (total, orbits, len(perms)) == (2080, 1, 3)
    assert peak / total < 64, peak / total
