"""No finite row of the MWZ tables breaks a dimension count.

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
"""

import itertools

from dflag.classify import mwz_classify_A, mwz_classify_C
from dflag.groups import ParabolicSpec, all_roots, gl, parabolic_root_set, sp
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
