"""No finite row of the MWZ tables, and no FiniteProven verdict on a
double flag variety, breaks a dimension count.

If G has finitely many orbits on X = X_1 x X_2 x X_3, one of them is
dense: X is irreducible, and it is the union of the finitely many orbit
closures.  A dense orbit G/H has the dimension of X, so
sum dim X_i = dim G - dim H.  In GL_n the scalars fix every point of
every flag variety, so H contains them and dim H >= 1; the centre of
Sp_2n is finite.  So a finite triple needs

    sum dim X_i <= dim G - c,

with dim G = n^2 and c = 1 for GL_n, and dim G = 2n^2 + n and c = 0
for Sp_2n.  dim X_P is the number of roots outside P, read from
groups.all_roots and groups.parabolic_root_set.  The bound needs
neither the tables nor the oracle, so a row that wrongly calls a triple
finite, GL_4 B;B;B (18 > 15) for one, fails here.

The same argument bounds a double flag variety X_P x Z_Q = G/P x K/Q:
if K has finitely many orbits on it, one is dense, so

    dim X_P + dim Z_Q <= dim K - c,

where c = 1 for AIII, whose K = GL_p x GL_q holds G's scalars, and
c = 0 for the other pairs, whose K meets G's centre in a finite group
(CI's GL_n holds diag(t, ..., t, 1/t, ..., 1/t), which moves X_P).
dim Z_Q is summed over K's factors, from parabolic_root_set for GL_r
and Sp_2r.  AI's K = SO_n has no root set here: a parabolic Q of K
with Levi L has dim Q = dim L + dim U and dim K = dim L + 2 dim U, its
nilradical U and the opposite one having one dimension each per root
outside L, so dim K/Q = dim U = (dim K - dim L) / 2.  For the
palindromic shape (a_1, ..., a_k) of Q, L is GL_(a_i) for each pair of
mirrored blocks i < k + 1 - i, times SO_m for a middle block m.
"""

import itertools

from dflag.classify import Status, classify_double_flag, mwz_classify_A, mwz_classify_C
from dflag.groups import ParabolicSpec, all_roots, gl, parabolic_root_set, sp
from dflag.pairs import KParabolicSpec, PairKind, SymmetricPairSpec
from test_fforacle import _every_shape


def _dims(group):
    """dim X_P for each proper shape of group."""
    roots = len(all_roots(group))
    return {
        shape: roots - len(parabolic_root_set(ParabolicSpec(group, shape)))
        for shape in _every_shape(group)
        if shape.is_proper
    }


def test_no_finite_mwz_row_breaks_the_dimension_bound():
    cases = [(gl(n), n * n - 1, mwz_classify_A) for n in range(2, 8)]
    cases += [(sp(n), 2 * n * n + n, mwz_classify_C) for n in range(1, 5)]
    triples = finite = 0
    for group, bound, classify in cases:
        dims = _dims(group)
        for triple in itertools.combinations_with_replacement(dims, 3):
            triples += 1
            if classify(*triple).finite:
                finite += 1
                total = sum(dims[s] for s in triple)
                assert total <= bound, (str(group), [str(s) for s in triple], total, bound)
    # every unordered triple of proper shapes of GL_2..GL_7 and Sp_2..Sp_8
    assert (triples, finite) == (50_686, 9_814)


# Chosen by rank alone: the type A pairs up to GL_5 and the type C pairs
# up to Sp_6, AIII and CII with p <= q.
PAIRS = (
    [f"AIII:{p},{n - p}" for n in range(2, 6) for p in range(1, n // 2 + 1)]
    + [f"AI:{n}" for n in range(2, 6)]
    + ["AII:2", "AII:4"]
    + [f"CI:{n}" for n in range(1, 4)]
    + [f"CII:{p},{n - p}" for n in range(2, 4) for p in range(1, n // 2 + 1)]
)


def _dim(group, shape) -> int:
    """dim G/P for the Standard parabolic of ``shape``, G = P allowed."""
    return len(all_roots(group)) - len(parabolic_root_set(ParabolicSpec(group, shape)))


def _so_dim(m: int) -> int:
    return m * (m - 1) // 2


def _factor_dims(factor):
    """(dim of a factor of K, [(shape, dim of its flag variety) for each
    of its shapes]); SO_n's as in the module docstring."""
    if factor.family != "so":
        group = (gl if factor.family == "gl" else sp)(factor.rank)
        return len(all_roots(group)) + group.n, [(s, _dim(group, s)) for s in _every_shape(group)]
    n, dims = factor.rank, []
    for shape in _every_shape(gl(n)):
        if shape.is_palindromic:
            half, mid = divmod(shape.length, 2)
            levi = sum(a * a for a in shape.parts[:half]) + mid * _so_dim(shape.parts[half])
            dims.append((shape, (_so_dim(n) - levi) // 2))
    return _so_dim(n), dims


def test_no_finite_verdict_breaks_the_dimension_bound():
    inputs = finite = 0
    for token in PAIRS:
        pair = SymmetricPairSpec.parse(token)
        c = int(pair.kind is PairKind.AIII)
        factors = [_factor_dims(f) for f in pair.k_factors]
        dim_k = sum(d for d, _ in factors)
        qs = list(itertools.product(*(dims for _, dims in factors)))
        for shape in _every_shape(pair.group):
            P = ParabolicSpec(pair.group, shape)
            dim_x = _dim(pair.group, shape)
            for choice in qs:
                inputs += 1
                Q = KParabolicSpec(pair, tuple(s for s, _ in choice))
                if classify_double_flag(pair, P, Q)[0].status is Status.FINITE_PROVEN:
                    finite += 1
                    dim_z = sum(d for _, d in choice)
                    assert dim_x + dim_z <= dim_k - c, (token, str(P), str(Q), dim_x + dim_z)
    assert (inputs, finite) == (596, 472)
