"""The line permutation of a matrix against the dense matrix-vector product.

``_line_perm`` builds each matrix's permutation of the lines of F_q^dim
from the row-sparse product ``gfq.mat_mul`` of the rows of the matrix
that differ from the identity's with the lines' coordinate rows, and
looks each image up by its base-q code.  The reference multiplies the
matrix into each line's normalized vector and reduces the image with
``gfq.rref``; every line is checked, so the two agree on every point of
every flag variety.  ``apply_to_flag`` is the same dense product on a
whole flag.  The row-sparse product itself is checked against the dense
one of point_action.py.
"""

import itertools
import random
from functools import lru_cache

import pytest

import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import CrossCheckError
from dflag.flags import apply_to_flag, enumerate_flags
from dflag.groups import GroupFamily, ParabolicSpec, all_roots, gl, sp
from dflag.orbits import (
    _generators,
    _k_targets,
    _letters,
    _line_perm,
    _lines,
    _parabolic_roots,
    _root_element,
    _torus_element,
    _walk_flags,
)
from dflag.pairs import SymmetricPairSpec
from point_action import dense_mat_mul
from test_k_reference import _reference_blocks
from test_words import _k_shapes


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
    """Every letter of every factor of K, embedded in G by the reference."""
    blocks = _reference_blocks(SymmetricPairSpec.parse(token))
    return [embed(m, q) for factor, embed in blocks for m in _letters(factor, q).values()]


def _matrices(group, pairs, q):
    """Every letter of group, every generator of its Standard
    parabolics, and the embedded letters of K for ``pairs``."""
    mats = list(_letters(group, q).values())
    for token in pairs:
        mats += _embedded(token, q)
    for P in _standard_parabolics(group):
        mats += _generators(group, _parabolic_roots(group, P.shape, q), q)
    return sorted(set(mats))


SPACES = [
    (gl(4), C((1, 1, 1, 1)), ("AIII:2,2",)),
    (sp(2), SC((1, 1), 0), ("CI:2", "CII:1,1")),
]


def _check_line_perms(group, shape, mats, q):
    vecs, _ = _lines(group.dim, q)
    lines = [(v,) for v in vecs]
    index = {line: i for i, line in enumerate(lines)}
    pt = enumerate_flags(group, shape, q)[-1]
    for g in mats:
        perm = _line_perm(g, q)
        assert list(perm) == [index[_dense_image(g, line, q)] for line in lines]
        assert apply_to_flag(g, pt, q) == tuple(_dense_image(g, s, q) for s in pt)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("group, shape, pairs", SPACES)
def test_line_perm_matches_the_dense_product(group, shape, pairs, q):
    _check_line_perms(group, shape, _matrices(group, pairs, q), q)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize(
    "group", [gl(n) for n in range(1, 7)] + [sp(n) for n in range(1, 4)], ids=str
)
def test_the_row_sparse_product_of_group_elements_is_the_dense_one(group, q):
    # every letter, root element and torus element, and their pairwise
    # products
    torus = [_torus_element(group, i, q) for i in range(group.n)] if q > 2 else []
    roots = [_root_element(group, b, q) for b in sorted(all_roots(group))]
    mats = [*_letters(group, q).values(), *roots, *torus]
    for a, b in itertools.product(mats, repeat=2):
        assert gfq.mat_mul(a, b, q) == dense_mat_mul(a, b, q), (a, b)


def _random_rows(rng, count, width, q):
    """``count`` rows of ``width`` entries: zero rows, rows with a single
    1, rows with a single other entry and dense rows, in random turn."""
    rows = []
    for _ in range(count):
        row = [0] * width
        kind = rng.randrange(4)
        if kind in (1, 2):
            row[rng.randrange(width)] = 1 if kind == 1 else rng.randrange(1, q)
        elif kind == 3:
            row = [rng.randrange(q) for _ in range(width)]
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_row_sparse_product_of_random_blocks_is_the_dense_one(q):
    # d x d matrices times d x d matrices and d x N coordinate blocks
    rng = random.Random(q)
    for d in range(1, 7):
        for width in (d, 1, 13, 364):
            for _ in range(20):
                a, b = _random_rows(rng, d, d, q), _random_rows(rng, d, width, q)
                assert gfq.mat_mul(a, b, q) == dense_mat_mul(a, b, q), (a, b)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("token, shape", [("CII:1,2", SC((1,), 4)), ("CI:2", SC((1, 1), 0))])
def test_k_targets_permute_lines_like_the_dense_product(token, shape, q):
    # every generator of every Q, as the library builds it from G's
    # roots: CII:1,2's act on the lines of F_q^6, CI:2's on those of F_q^4
    pair = SymmetricPairSpec.parse(token)
    targets = {t for Q in _k_shapes(pair) for t in _k_targets(pair, Q, q)}
    _check_line_perms(pair.group, shape, sorted(targets), q)


@pytest.mark.parametrize(
    "group, shape", [(sp(3), SC((1,), 4)), (gl(6), C((1, 5)))], ids=["Sp6", "GL6"]
)
def test_every_letter_in_dimension_6_over_f5_matches_the_dense_product(group, shape):
    assert len(_lines(group.dim, 5)[0]) == 3906  # the lines of F_5^6
    _check_line_perms(group, shape, list(_letters(group, 5).values()), 5)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_code_table_names_the_line_of_every_vector(dim, q):
    vecs, code = _lines(dim, q)
    index = {v: i for i, v in enumerate(vecs)}
    assert len(code) == q**dim and code[0] == -1  # the zero vector has no line
    # product lists the vectors in the order of their base-q codes
    for c, v in enumerate(itertools.product(range(q), repeat=dim)):
        if any(v):
            (line,) = gfq.rref((v,), q)
            assert code[c] == index[line], v


@pytest.mark.parametrize(
    "g",
    [
        ((1, 1), (1, 1)),  # singular, without a zero row or column
        ((1, 0), (1, 0)),  # a zero column: e_2 goes to 0
        ((0, 0), (1, 1)),  # a zero row
    ],
)
def test_a_singular_matrix_is_refused(g):
    _line_perm.cache_clear()
    try:
        with pytest.raises(CrossCheckError, match="singular over F_3"):
            _line_perm(g, 3)
    finally:
        _line_perm.cache_clear()


def test_each_letter_line_permutation_is_built_once(monkeypatch):
    group, shape, q = sp(2), SC((1, 1), 0), 3
    vecs, _ = _lines(group.dim, q)
    assert len(vecs) == 40  # the lines of F_3^4
    built = []
    real = _line_perm.__wrapped__

    def counted(mat, q):
        built.append(mat)
        return real(mat, q)

    monkeypatch.setattr(dflag.orbits, "_line_perm", lru_cache(maxsize=64)(counted))
    # the walk's 40 lines and 40 Lagrangian planes, none of them moved
    subspaces, _, _ = _walk_flags(group, shape, q)
    assert len(subspaces) == 80
    letters = _letters(group, q).values()
    assert len(letters) == 4  # u, c, x+ and x-
    assert sorted(built) == sorted(letters)
