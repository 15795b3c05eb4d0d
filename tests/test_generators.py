"""Root elements and the generator sets of parabolics, written out.

Every acting generator other than a letter is named by its root, and
``_root_entries`` is the one map between roots and matrix entries.
The references here spell each root element and each generator set
out by hand, from the rules they follow, and compare them with what
``_root_element``, ``_generators`` with ``_parabolic_roots``, and
``_k_targets`` build.
Those rules are the library's own, so each K-parabolic's generator set,
and each group's letters, are also certified by the order of the group
they generate, from closed forms alone.
"""

import itertools
import math

import pytest

from dflag import gfq
from dflag.compositions import Composition as C
from dflag.errors import CrossCheckError
from dflag.flags import flag_count, symplectic_gram
from dflag.groups import GroupFamily, ParabolicSpec, all_roots, gl, parabolic_root_set, sp
from dflag.orbits import (
    _generators,
    _k_targets,
    _letters,
    _parabolic_roots,
    _root_element,
    _root_entries,
)
from dflag.pairs import PairKind, SymmetricPairSpec
from test_bruhat_split import _group_order, _line_order, _scalars
from test_fforacle import _every_shape
from test_k_reference import _reference_blocks
from test_words import _k_shapes

QS = (2, 3, 5)


def _matrix(dim, entries, q):
    """The identity with ``entries`` ({(i, j): value}) written in, mod q."""
    return tuple(
        tuple(entries.get((i, j), int(i == j)) % q for j in range(dim)) for i in range(dim)
    )


def _least_primitive_root(q):
    return next(g for g in range(2, q) if len({pow(g, e, q) for e in range(q - 1)}) == q - 1)


def _reference_sp_root_element(n, alpha, q):
    """x_alpha(1) of Sp_2n for the anti-diagonal form: coefficient 2 at
    one coordinate is the long root at (i, mirror i); (1, -1) is
    e_i - e_j at (i, j) and -1 at (mirror j, mirror i); (1, 1) is
    e_i + e_j at (i, mirror j) and (j, mirror i); a negative root is the
    transpose of its positive one."""
    dim = 2 * n
    mirror = dim - 1
    negative = next(c for c in alpha if c) < 0
    support = [(i, -c if negative else c) for i, c in enumerate(alpha) if c]
    coeffs = [c for _, c in support]
    if coeffs == [2]:
        ((i, _),) = support
        entries = {(i, mirror - i): 1}
    elif coeffs == [1, -1]:
        (i, _), (j, _) = support
        entries = {(i, j): 1, (mirror - j, mirror - i): -1}
    else:
        assert coeffs == [1, 1], alpha
        (i, _), (j, _) = support
        entries = {(i, mirror - j): 1, (j, mirror - i): 1}
    if negative:
        entries = {(b, a): c for (a, b), c in entries.items()}
    return _matrix(dim, entries, q)


def _is_symplectic(m, n, q):
    j = symplectic_gram(n, q)
    return gfq.mat_mul(gfq.mat_mul(gfq.transpose(m), j, q), m, q) == j


# ----------------------------------------------------------- root elements


@pytest.mark.parametrize("q", QS)
def test_sp_root_elements_match_the_written_out_reference(q):
    for n in range(1, 5):
        roots = sorted(all_roots(sp(n)))
        assert len(roots) == 2 * n * n
        for b in roots:
            expected = _reference_sp_root_element(n, b, q)
            assert _is_symplectic(expected, n, q), b
            assert _root_element(sp(n), b, q) == expected, (n, b)


@pytest.mark.parametrize("q", QS)
def test_gl_root_elements_are_the_elementary_matrices(q):
    for n in range(2, 7):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert _root_element(gl(n), (i, j), q) == _matrix(n, {(i - 1, j - 1): 1}, q)


@pytest.mark.parametrize("group", [gl(n) for n in range(1, 7)] + [sp(n) for n in range(1, 5)])
def test_the_root_table_lists_each_entry_off_the_diagonal_once(group):
    table = _root_entries(group)
    assert set(table) == all_roots(group)
    entries = [e for es in table.values() for e in es]
    assert sorted(entries) == list(itertools.permutations(range(group.dim), 2))
    for b, es in table.items():
        assert list(es) == sorted(es)  # row order
        one = group.family is GroupFamily.GENERAL_LINEAR or 2 in map(abs, b)  # GL or a long root
        assert len(es) == (1 if one else 2), b


def test_a_non_root_is_a_cross_check_error():
    with pytest.raises(CrossCheckError, match="not a root of GL3"):
        _root_element(gl(3), (1, 1), 3)
    with pytest.raises(CrossCheckError, match="not a root of Sp4"):
        _root_element(sp(2), (1, 0), 3)


# ---------------------------------------------------------- generator sets


def _gl_rule(r, shape, q, boundary=None):
    """The torus (q > 2), E_(k,k+1)(1) for every simple root k but
    ``boundary``, E_(k+1,k)(1) for every simple root k of the Levi;
    indices 1-based; a whole GL_r too."""
    torus = [_matrix(r, {(i, i): _least_primitive_root(q)}, q) for i in range(r)] if q > 2 else []
    simple = [_matrix(r, {(k - 1, k): 1}, q) for k in range(1, r) if k != boundary]
    levi = [_matrix(r, {(k, k - 1): 1}, q) for k in range(1, r) if k not in shape.breaks()]
    return set(torus + simple + levi)


def _sp_rule(n, shape, q):
    """The torus (q > 2) and x_b(1) for every root b of the parabolic."""
    dim, torus = 2 * n, []
    if q > 2:
        z = _least_primitive_root(q)
        mirrored = [{(i, i): z, (dim - 1 - i, dim - 1 - i): pow(z, -1, q)} for i in range(n)]
        torus = [_matrix(dim, entries, q) for entries in mirrored]
    roots = parabolic_root_set(ParabolicSpec(sp(n), shape))
    return set(torus) | {_reference_sp_root_element(n, b, q) for b in roots}


def _rule(group, shape, q):
    if group.family is GroupFamily.GENERAL_LINEAR:
        return _gl_rule(group.n, shape, q)
    return _sp_rule(group.n, shape, q)


@pytest.mark.parametrize("q", QS)
def test_parabolic_generators_follow_the_rules(q):
    checked = 0
    for group in [gl(n) for n in range(1, 6)] + [sp(n) for n in range(1, 4)]:
        for shape in _every_shape(group):
            targets = _generators(group, _parabolic_roots(group, shape), q)
            assert set(targets) == _rule(group, shape, q), (group, shape)
            checked += 1
    assert checked == (1 + 2 + 4 + 8 + 16) + (2 + 4 + 8)


PAIRS = (
    [f"AIII:{p},{n - p}" for n in range(2, 5) for p in range(1, n)]
    + ["AII:2", "AII:4"]
    + [f"CI:{n}" for n in range(1, 5)]
    + [f"CII:{p},{n - p}" for n in range(2, 5) for p in range(1, n)]
)


@pytest.mark.parametrize("token", PAIRS)
@pytest.mark.parametrize("q", QS)
def test_k_parabolic_generators_follow_the_rules(token, q):
    # AIII's Q: the rule for Q1 ++ Q2 without the simple root at the
    # block boundary; CI's whole K, GL_n: its letters, embedded; every
    # other Q: each factor's rule, embedded
    pair = SymmetricPairSpec.parse(token)
    for Q in _k_shapes(pair):
        if token.startswith("AIII"):
            first, second = Q.factors
            expected = _gl_rule(pair.group.n, C(first.parts + second.parts), q, boundary=pair.p)
        elif pair.kind is PairKind.CI and not Q.factors[0].is_proper:
            ((group, embed),) = _reference_blocks(pair)
            expected = {embed(m, q) for m in _letters(group, q).values()}
        else:
            expected = {
                embed(m, q)
                for (group, embed), shape in zip(_reference_blocks(pair), Q.factors)
                for m in _rule(group, shape, q)
            }
        assert set(_k_targets(pair, Q, q)) == expected, Q


# Schreier-Sims runs on the lines of F_q^dim; this cap on their number,
# fixed by running time, keeps every pair at q = 2 and leaves out Sp_6
# and Sp_8 over F_3 (364 and 3,280 lines, up to 7 s a pair)
ORDER_LINES_CAP = 255


def _lines_of(group, q):
    return (q**group.dim - 1) // (q - 1)


@pytest.mark.parametrize(
    "group, q",
    [
        (group, q)
        for group in [gl(n) for n in range(1, 7)] + [sp(n) for n in range(1, 5)]
        for q in QS
        if _lines_of(group, q) <= ORDER_LINES_CAP
    ],
    ids=str,
)
def test_the_letters_generate_the_whole_group(group, q):
    # the image of G(F_q) on the lines of F_q^dim is G(F_q) over its
    # scalars, so the letters generate G(F_q) exactly when their image
    # has that order; the cases are chosen by their number of lines
    # alone, with the cap above: 23 of GL_1-GL_6 and Sp_2-Sp_8 at q = 2, 3, 5
    order = _line_order(group, list(_letters(group, q).values()), q)
    assert order == _group_order(group, q) // _scalars(group, q)


@pytest.mark.parametrize(
    "token, q",
    [
        (t, q)
        for t in PAIRS
        for q in (2, 3)
        if _lines_of(SymmetricPairSpec.parse(t).group, q) <= ORDER_LINES_CAP
    ],
)
def test_k_parabolic_generators_have_the_order_of_Q(token, q):
    # the image of Q(F_q) on the lines of F_q^dim is Q(F_q) over the
    # scalars of G inside it, which act trivially: F_q^* for AIII, +-1
    # for CI, CII and AII (the -1 of GL_n, of Sp_2p x Sp_2q, of Sp_2n);
    # |Q(F_q)| is the product over K's factors of the factor's order
    # over its flag count
    pair = SymmetricPairSpec.parse(token)
    scalars = q - 1 if pair.kind is PairKind.AIII else math.gcd(2, q - 1)
    for Q in _k_shapes(pair):
        size = math.prod(
            _group_order(group, q) // flag_count(group, shape, q)
            for (group, _), shape in zip(_reference_blocks(pair), Q.factors)
        )
        assert _line_order(pair.group, _k_targets(pair, Q, q), q) == size // scalars, str(Q)
