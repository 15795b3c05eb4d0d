"""Which parabolic acts in a triple or pair orbit count.

G is transitive on every factor of X_P1 x X_P2 (x X_P3), so the
diagonal G-orbits are the P-orbits on the product of the other factors
for any one factor's P.  count_triple_orbits lets the factor with the
largest flag variety act, the first of them on a tie.  These tests
check that the count depends neither on the order of the factors nor
on the factor that acts, that the acting factor is never walked, and
that one-factor fusion makes no copy of the generators' permutations.
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
    _parabolic_targets,
    _product_orbits,
    _walk_flags,
    _word_perms,
    count_triple_orbits,
)

GL3_PROPER = [C((2, 1)), C((1, 2)), C((1, 1, 1))]


def _specs(group, shapes):
    return [ParabolicSpec(group, shape) for shape in shapes]


def _count_acting(group, shapes, acting, q):
    """The orbit count with the factor ``acting`` acting, whatever its
    size: the other factors are walked under its parabolic."""
    targets = _parabolic_targets(group, shapes[acting], q)
    spaces = [
        (flag_count(group, s, q), _word_perms(group, q, _walk_flags(group, s, q)[2], targets))
        for k, s in enumerate(shapes)
        if k != acting
    ]
    return _product_orbits(spaces)[1]


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
    """The shapes count_triple_orbits walks, in order; the orbit search
    on their product is skipped."""
    walked = []
    original = dflag.orbits._walk_flags

    def recording(group, shape, q):
        walked.append(shape)
        return original(group, shape, q)

    monkeypatch.setattr(dflag.orbits, "_walk_flags", recording)
    monkeypatch.setattr(dflag.orbits, "_product_orbits", lambda spaces: (0, 0))
    count_triple_orbits(group, _specs(group, shapes), q)
    return walked


def test_the_largest_variety_acts_and_is_not_walked(monkeypatch):
    borel4 = C((1, 1, 1, 1))
    walked = _walked_shapes(monkeypatch, gl(4), [C((2, 2)), borel4, C((3, 1))], 3)
    assert walked == [C((2, 2)), C((3, 1))]
    # on a tie the first of the largest acts, and the rest are walked
    walked = _walked_shapes(monkeypatch, gl(4), [C((2, 1, 1)), C((1, 1, 2)), C((3, 1))], 3)
    assert walked == [C((1, 1, 2)), C((3, 1))]
    # three Borels tie: factors 2 and 3 are left, and their one X_B is
    # walked once
    walked = _walked_shapes(monkeypatch, gl(4), [borel4] * 3, 3)
    assert walked == [borel4]


def test_one_factor_fusion_copies_no_permutation():
    """Orbit fusion on one space under its generators' permutations
    stays under 64 bytes per point, measured by tracemalloc.  Its own
    memory is a seen byte per point and, for the largest orbit, a list
    slot (8 bytes) and an int object (32 bytes) per point: the GL_4
    full flags over F_3 are one orbit under GL_4's letters.  A scaled
    copy of each of the 3 letters' permutations would add 40 bytes per
    point each."""
    perms = [w.perm for w in _walk_flags(gl(4), C((1, 1, 1, 1)), 3)[2].values()]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total, orbits = _product_orbits([(len(perms[0]), perms)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (total, orbits, len(perms)) == (2080, 1, 3)
    assert peak / total < 64, peak / total
