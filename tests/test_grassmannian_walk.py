"""A flag variety of one subspace is walked as its own subspaces.

X_P with one break (type A) or one isotropic dimension (type C), other
than the lines, is a Grassmannian: its point k is the subspace k, so
the one walk of its subspaces moves each subspace once per letter
straight into the point index, and no walk of flags follows.  Each
letter's permutation is compared with the reference action of its
matrix (point_action.py).  The walk of a Grassmannian and the walk of
flags of several subspaces both stop with CrossCheckError when they
pass the closed-form count, or fall short of it.  The walk of flags
keeps a bounded number of bytes per point.
"""

import tracemalloc

import pytest

import dflag.orbits
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import CrossCheckError
from dflag.flags import flag_count
from dflag.groups import gl, sp
from dflag.orbits import _letters, _line_perm, _lines, _walk_flags
from point_action import PointAction

GRASSMANNIANS = [
    (gl(4), C((2, 2)), 3, 130),  # Gr(2,4)/F_3
    (gl(5), C((3, 2)), 2, 155),  # Gr(3,5)/F_2
    (sp(2), SC((2,), 0), 3, 40),  # LGr(2,4)/F_3
    (sp(3), SC((3,), 0), 2, 135),  # LGr(3,6)/F_2
]


@pytest.mark.parametrize(
    "group, shape, q, count",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-F{case[2]}") for case in GRASSMANNIANS],
)
def test_a_grassmannian_is_walked_as_its_subspaces(monkeypatch, group, shape, q, count):
    real = dflag.orbits._orbit
    walks = []  # whether each walk sorted its elements, as subspaces

    def recording(*args, sort):
        walks.append(sort)
        return real(*args, sort=sort)

    monkeypatch.setattr(dflag.orbits, "_orbit", recording)
    assert flag_count(group, shape, q) == count
    subspaces, points, letters = _walk_flags(group, shape, q)
    assert walks == [True]  # the subspaces, and no flag walk
    assert points == tuple((k,) for k in range(count))
    assert len(subspaces) == len(set(subspaces)) == count
    assert list(letters) == list(_letters(group, q))
    ref = PointAction(group, shape, q)
    for word in letters.values():
        assert tuple(word.perm) == ref.perm(word.mat)


# E_12(1) is not symplectic for the anti-diagonal form, so as a letter
# of Sp_4 it moves the walk off X_P
E12 = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(4)) for i in range(4))


@pytest.mark.parametrize(
    "shape, reached",
    [
        # without x+-, Sp_4's letters lie in the Siegel Levi, which fixes
        # span(e_1, e_2): the walk of LGr(2,4) stops at its first point,
        pytest.param(SC((2,), 0), "Sp4/2,2 over F_3 has 1 of its 40", id="lagrangians"),
        # and the Borel's walk at the 4 flags inside span(e_1, e_2)
        pytest.param(SC((1, 1), 0), "Sp4/1,1,1,1 over F_3 has 4 of its 160", id="borel"),
    ],
)
def test_both_walks_audit_their_count(monkeypatch, shape, reached):
    real = _letters
    count = flag_count(sp(2), shape, 3)

    def levi_only(group, q):
        return {name: m for name, m in real(group, q).items() if name not in ("x+", "x-")}

    monkeypatch.setattr(dflag.orbits, "_letters", levi_only)
    with pytest.raises(CrossCheckError, match=f"base flag of {reached} points"):
        _walk_flags(sp(2), shape, 3)
    monkeypatch.setattr(dflag.orbits, "_letters", lambda group, q: {**real(group, q), "e12": E12})
    with pytest.raises(CrossCheckError, match=f"over F_3 passes its {count} points"):
        _walk_flags(sp(2), shape, 3)


def test_the_flag_walk_keeps_few_bytes_per_point():
    """The walk of the Sp_6 full flags over F_3 (58,240 points), its
    letters alone kept, measured by tracemalloc after the line table
    and the letters' line permutations are built.  It peaked at 216
    bytes per point and kept 70 on CPython 3.11 (x86-64): a point's
    slot in each of the 4 letters' permutations and its id are kept,
    its tuple of subspace ids and the index of the points only during
    the walk.  Keeping the point tuples too adds about 80 bytes per
    point and breaks the second bound."""
    group, shape, q = sp(3), SC((1, 1, 1), 0), 3
    _lines(group.dim, q)
    for m in _letters(group, q).values():
        _line_perm(m, q)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        letters = _walk_flags(group, shape, q)[2]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (points,) = {len(word.perm) for word in letters.values()}
    assert points == flag_count(group, shape, q) == 58240
    assert (peak - before) / points < 248, (peak - before) / points
    assert (kept - before) / points < 96, (kept - before) / points
