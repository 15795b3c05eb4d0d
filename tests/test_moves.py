"""The sparse move of a matrix against the dense matrix-vector product.

The reference multiplies the matrix into each echelon row of a subspace
and reduces the result with ``gfq.rref``.  ``apply_to_flag`` maps a flag
one subspace at a time, so comparing the two on every distinct subspace
of a flag variety compares them on every point of it.
"""

import pytest

import dflag.flags
import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import CrossCheckError
from dflag.flags import apply_to_flag, enumerate_flags, matrix_move
from dflag.groups import GroupFamily, ParabolicSpec, gl, sp
from dflag.orbits import _flag_orbit, _k_blocks, _letters, _line_perm, _lines, _parabolic_targets
from dflag.pairs import SymmetricPairSpec


def _dense_image(g, sub, q):
    return gfq.rref(
        [tuple(sum(x * y for x, y in zip(row, v)) % q for row in g) for v in sub], q
    )


def _standard_parabolics(group):
    if group.family is GroupFamily.GENERAL_LINEAR:
        shapes = [C((1, 1, 1, 1)), C((2, 1, 1)), C((1, 2, 1)), C((1, 1, 2)), C((2, 2)),
                  C((3, 1)), C((1, 3)), C((4,))]
    else:
        shapes = [SC((1, 1), 0), SC((2,), 0), SC((1,), 2), SC((), 4)]
    return [ParabolicSpec(group, shape) for shape in shapes]


def _embedded(token, q):
    """Every letter of every factor of K, embedded in G."""
    blocks = _k_blocks(SymmetricPairSpec.parse(token))
    return [embed(m, q) for factor, embed in blocks for m in _letters(factor, q).values()]


def _matrices(group, pairs, q):
    """Every letter of group, every generator of its Standard
    parabolics, and the _k_blocks embeddings of ``pairs``."""
    mats = list(_letters(group, q).values())
    for token in pairs:
        mats += _embedded(token, q)
    for P in _standard_parabolics(group):
        mats += _parabolic_targets(group, P.shape, q)
    return sorted(set(mats))


SPACES = [
    (gl(4), C((1, 1, 1, 1)), ("AIII:2,2",)),
    (sp(2), SC((1, 1), 0), ("CI:2", "CII:1,1")),
]


def _check_moves(group, shape, mats, q):
    pts = enumerate_flags(group, shape, q)
    subs = sorted({sub for pt in pts for sub in pt})
    for g in mats:
        move = matrix_move(g, q)
        for sub in subs:
            assert apply_to_flag(move, (sub,), q) == (_dense_image(g, sub, q),)
        assert apply_to_flag(move, pts[-1], q) == tuple(_dense_image(g, s, q) for s in pts[-1])


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("group, shape, pairs", SPACES)
def test_move_matches_the_dense_product(group, shape, pairs, q):
    _check_moves(group, shape, _matrices(group, pairs, q), q)


@pytest.mark.parametrize("q", [2, 3])
def test_cii_1_2_embeddings_move_like_the_dense_product(q):
    # CII:1,2 embeds into Sp_6, so its embeddings act on the lines of F_q^6
    _check_moves(sp(3), SC((1,), 4), _embedded("CII:1,2", q), q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_generators_are_monomial_up_to_two_entries(q):
    mats = _embedded("CII:1,2", q)
    for group, _, pairs in SPACES:
        mats += _matrices(group, pairs, q)
    for g in mats:
        assert len(matrix_move(g, q).extras) <= 2


def test_a_zero_diagonal_takes_a_matching():
    # the 4-cycle and an anti-diagonal matrix have no nonzero diagonal entry
    cycle = _letters(gl(4), 3)["c"]
    flip = tuple(tuple(int(i + j == 3) * (i + 1) for j in range(4)) for i in range(4))
    for g in (cycle, flip):
        move = matrix_move(g, 5)
        assert move.extras == ()
        assert all(g[i][j] == a for i, (j, a) in enumerate(move.monomial))


def test_a_move_that_drops_an_entry_is_refused(monkeypatch):
    real = dflag.flags._sparse_parts

    def dropped(g):
        move = real(g)
        return move._replace(extras=move.extras[:-1])

    monkeypatch.setattr(dflag.flags, "_sparse_parts", dropped)
    x = _letters(sp(2), 3)["u"]
    assert len(real(x).extras) == 2
    with pytest.raises(CrossCheckError, match="misses column"):
        matrix_move(x, 3)


@pytest.mark.parametrize(
    "g",
    [
        ((1, 1), (1, 1)),  # singular, with a transversal
        ((1, 0), (1, 0)),  # singular, without one
        ((0, 0), (1, 1)),  # a zero row
    ],
)
def test_a_singular_matrix_is_refused(g):
    with pytest.raises(CrossCheckError, match="singular"):
        matrix_move(g, 3)


def test_each_letter_moves_each_line_once(monkeypatch):
    group, shape, q = sp(2), SC((1, 1), 0), 3
    vecs, _ = _lines(group.dim, q)
    assert len(vecs) == 40  # the lines of F_3^4
    moved = []
    real = dflag.orbits.move_vector

    def counted(move, v):
        moved.append((move, v))
        return real(move, v)

    monkeypatch.setattr(dflag.orbits, "move_vector", counted)
    _flag_orbit.cache_clear()
    _line_perm.cache_clear()
    try:
        # the walk's 40 lines and 40 Lagrangian planes, none of them moved
        assert len(_flag_orbit(group, shape, q).subspaces) == 80
        letters = _letters(group, q).values()
        assert len(letters) == 4  # u, c, x+ and x-: 4 x 40 line moves
        assert sorted(moved) == sorted((matrix_move(g, q), v) for g in letters for v in vecs)
    finally:
        _flag_orbit.cache_clear()
        _line_perm.cache_clear()
