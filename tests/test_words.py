"""Every acting generator is a word in G's letters, composed on points.

The library moves subspaces only while it walks X_P under the letters;
each generator of Q, or of a triple's P1, gets its permutation of the
points by composing the letters'.  The reference maps each word's
matrix directly, through its lines, subspaces and points
(point_action.py), and every word built along the way, the memoized
ones included, must agree with it.
"""

import pytest

from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import CrossCheckError
from dflag.groups import gl, sp
from dflag.orbits import (
    _k_targets,
    _generators,
    _letters,
    _parabolic_roots,
    _primitive_root,
    _Speller,
    _unit_matrix_with,
    _walk_flags,
)
from dflag.pairs import KParabolicSpec, SymmetricPairSpec
from point_action import PointAction
from test_fforacle import _every_shape


def _check_words(group, shape, q, targets):
    """Spell ``targets`` on X_P; compare every word with the reference."""
    ref = PointAction(group, shape, q)
    letters = _walk_flags(group, shape, q)[2]
    speller = _Speller(group, q, letters)
    words = [speller.word_for(t) for t in targets]
    assert [w.mat for w in words] == targets
    checked = [*letters.values(), *speller.memo.values(), *words]
    for w in checked:
        assert tuple(w.perm) == ref.perm(w.mat)
    return len(checked)


def _k_shapes(pair):
    """Every Q of the pair: each factor's shapes, the whole factor included."""
    shapes = [[()]]
    for factor in pair.k_factors:
        group = (gl if factor.family == "gl" else sp)(factor.rank)
        shapes = [s + [shape] for s in shapes for shape in _every_shape(group)]
    return [KParabolicSpec(pair, tuple(s[1:])) for s in shapes]


K_CASES = [
    ("AIII:1,2", C((1, 1, 1)), (2, 3, 5)),
    ("AIII:2,2", C((1, 1, 1, 1)), (2, 3)),
    ("AIII:2,2", C((1, 3)), (5,)),  # X_P is the lines
    ("AII:4", C((1, 1, 1, 1)), (2, 3)),
    ("AII:4", C((2, 2)), (5,)),
    ("CI:2", SC((1, 1), 0), (2, 3, 5)),
    ("CI:3", SC((1,), 4), (3,)),
    ("CII:1,1", SC((1, 1), 0), (2, 3, 5)),
    ("CII:1,2", SC((1,), 4), (2, 3)),
    ("CII:1,2", SC((3,), 0), (2,)),
]


@pytest.mark.parametrize(
    "token, P, q",
    [pytest.param(t, P, q, id=f"{t}-{P}-F{q}") for t, P, qs in K_CASES for q in qs],
)
def test_every_word_for_Q_moves_points_as_its_matrix(token, P, q):
    pair = SymmetricPairSpec.parse(token)
    checked = 0
    for Q in _k_shapes(pair):
        checked += _check_words(pair.group, P, q, _k_targets(pair, Q, q))
    assert checked > len(_k_shapes(pair)) * len(_letters(pair.group, q))


TRIPLE_CASES = [
    (gl(3), C((1, 1, 1)), (2, 3, 5)),
    (gl(4), C((2, 2)), (2, 3)),
    (sp(2), SC((1, 1), 0), (2, 3, 5)),
    (sp(3), SC((1,), 4), (2,)),
]


@pytest.mark.parametrize(
    "group, walked, q",
    [pytest.param(g, w, q, id=f"{g}-{w}-F{q}") for g, w, qs in TRIPLE_CASES for q in qs],
)
def test_every_word_for_P1_moves_points_as_its_matrix(group, walked, q):
    shapes = _every_shape(group)
    for shape in shapes:
        targets = _generators(group, _parabolic_roots(group, shape), q)
        _check_words(group, walked, q, targets)


SP_TORUS_CASES = [
    (sp(1), SC((1,), 0), (3, 5)),  # the lines of F_q^2
    (sp(2), SC((1, 1), 0), (3, 5)),
    (sp(3), SC((3,), 0), (3,)),  # the Lagrangian Grassmannian
]


@pytest.mark.parametrize(
    "group, walked, q",
    [pytest.param(g, w, q, id=f"{g}-{w}-F{q}") for g, w, qs in SP_TORUS_CASES for q in qs],
)
def test_sp_torus_words_move_points_as_their_matrices(group, walked, q):
    # Sp_2n has no torus letter: diag(z at i, z^-1 at its mirror) is
    # spelled in the SL_2 of the long root 2e_i; the memoized words on
    # the way (each torus(i), the cycles) are checked with it
    n, dim, z = group.n, group.dim, _primitive_root(q)
    assert "d" not in _letters(group, q)
    targets = [
        _unit_matrix_with(dim, {(i, i): z, (dim - 1 - i, dim - 1 - i): pow(z, -1, q)}, q)
        for i in range(n)
    ]
    assert _check_words(group, walked, q, targets) >= len(_letters(group, q)) + 2 * n


def test_sp_parabolics_take_the_torus_and_every_root():
    # the Borel of Sp_4 over F_3: 2 torus elements and the 4 positive roots
    targets = _generators(sp(2), _parabolic_roots(sp(2), SC((1, 1), 0)), 3)
    assert len(targets) == 2 + 4
    pair = SymmetricPairSpec.parse("CII:1,1")
    assert len(_k_targets(pair, KParabolicSpec.parse(pair, "2;2"), 3)) == 2 + 2 + 2


def test_a_word_that_misses_its_matrix_is_a_cross_check_error():
    # give the cycle letter the matrix of its inverse: every conjugate
    # by it lands on the wrong root, and the audit of the word's matrix
    # catches it, though the letter still permutes the points
    letters = _walk_flags(gl(3), C((1, 1, 1)), 2)[2]
    c = letters["c"]
    wrong = {**letters, "c": c._replace(mat=tuple(zip(*c.mat)))}
    speller = _Speller(gl(3), 2, wrong)
    e23 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    assert _Speller(gl(3), 2, letters).word_for(e23).mat == e23
    with pytest.raises(CrossCheckError, match="letters of GL3 over F_2 does not give its matrix"):
        speller.word_for(e23)
