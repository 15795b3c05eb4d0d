"""Triple orbit counts over the Bruhat decomposition of one pair.

count_triple_orbits walks its smallest factor X_k and sums, over the
double cosets P_i w P_j of the other two, the orbits on X_k of
H_w = P_i cap wP_jw^-1, generated by _coset_targets.  Two checks stand
apart from the library's words and walks:

- the coset-sum certificate: P_i acts on X_j with one orbit per w, of
  size |P_i| / |H_w|, so the sum over w is |X_j| exactly when each
  generated H_w is the whole stabilizer (a smaller one gives a larger
  quotient).  The orders are those of the images on the lines of
  F_q^dim, by Schreier-Sims; G's scalars lie in every one of these
  groups and act trivially, so the quotients are unchanged;
- the count itself against union-find on the product of the two
  smaller factors, acted on by the largest factor's parabolic through
  the direct action of its matrices (point_action.py).
"""

import itertools
import math

import pytest

from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.flags import flag_count
from dflag.groups import GroupFamily, ParabolicSpec, gl, sp, whole_group
from dflag.orbits import (
    _coset_targets,
    _generators,
    _line_perm,
    _parabolic_roots,
    count_triple_orbits,
)
from point_action import PointAction, reference_orbits
from schreier_sims import order

GROUPS = [gl(2), gl(3), gl(4), sp(1), sp(2)]
PROPER = {
    gl(2): [C((1, 1))],
    gl(3): [C((2, 1)), C((1, 2)), C((1, 1, 1))],
    gl(4): [C(s) for s in ((3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1))],
    sp(1): [SC((1,), 0)],
    sp(2): [SC((1,), 2), SC((2,), 0), SC((1, 1), 0)],
}
# the reference walks the product of the two smaller factors by
# union-find over tuples; this cap on it was fixed before any count
PRODUCT_CAP = 6_000


def _group_order(group, q):
    """|G(F_q)|, from the closed forms."""
    n = group.n
    if group.family is GroupFamily.GENERAL_LINEAR:
        return math.prod(q**n - q**k for k in range(n))
    return q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))


def _scalars(group, q):
    """|G(F_q) cap scalars|: F_q^* in GL_n, +-1 in Sp_2n."""
    if group.family is GroupFamily.GENERAL_LINEAR:
        return q - 1
    return math.gcd(2, q - 1)


def _line_order(group, mats, q):
    """The order of the image on the lines of the group ``mats`` generate."""
    return order([_line_perm(m, q) for m in mats], (q**group.dim - 1) // (q - 1))


def test_schreier_sims_orders_of_projective_groups():
    cases = [(gl(3), 3, 5_616), (sp(2), 3, 25_920), (gl(2), 2, 6), (sp(3), 2, 1_451_520)]
    for group, q, expected in cases:
        whole = _generators(group, _parabolic_roots(group, whole_group(group).shape, q), q)
        assert _line_order(group, whole, q) == expected == _group_order(group, q) // _scalars(group, q)
    assert order([], 5) == 1
    assert order([(1, 0, 2), (1, 2, 0)], 3) == 6


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_parabolic_orders_match_the_closed_form(group, q):
    for shape in PROPER[group]:
        got = _line_order(group, _generators(group, _parabolic_roots(group, shape, q), q), q)
        expected = _group_order(group, q) // flag_count(group, shape, q) // _scalars(group, q)
        assert got == expected, (str(group), str(shape), q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_coset_orders_add_up_to_the_other_variety(group, q):
    for si, sj in itertools.combinations_with_replacement(PROPER[group], 2):
        Pi, Pj = ParabolicSpec(group, si), ParabolicSpec(group, sj)
        p_order = _line_order(group, _generators(group, _parabolic_roots(group, si, q), q), q)
        total = sum(
            p_order // _line_order(group, mats, q) for mats in _coset_targets(group, Pi, Pj, q)
        )
        assert total == flag_count(group, sj, q), (str(group), str(si), str(sj), q)


def _reference_count(group, shapes, q):
    """The orbit count with the largest factor's parabolic acting on the
    product of the other two, by union-find."""
    sizes = [flag_count(group, s, q) for s in shapes]
    acting = sizes.index(max(sizes))
    targets = _generators(group, _parabolic_roots(group, shapes[acting], q), q)
    spaces = [PointAction(group, s, q).space(targets) for k, s in enumerate(shapes) if k != acting]
    return reference_orbits(spaces)[1]


def _capped_triples():
    for group in GROUPS:
        for shapes in itertools.combinations_with_replacement(PROPER[group], 3):
            for q in (2, 3):
                sizes = sorted(flag_count(group, s, q) for s in shapes)
                if sizes[0] * sizes[1] <= PRODUCT_CAP:
                    yield group, shapes, q


def test_bruhat_count_matches_the_product_reference():
    checked = 0
    for group, shapes, q in _capped_triples():
        specs = [ParabolicSpec(group, s) for s in shapes]
        got = count_triple_orbits(group, specs, q)
        assert got == _reference_count(group, shapes, q), (str(group), [str(s) for s in shapes], q)
        checked += 1
    assert checked == 133  # of the 212 unordered triples at q = 2, 3


def test_the_whole_group_pair_has_one_orbit():
    # X_G is one point, so X_G x X_G has one orbit under any generators
    for group in [gl(n) for n in range(1, 5)] + [sp(1), sp(2)]:
        whole = whole_group(group)
        for q in (2, 3, 5):
            assert count_triple_orbits(group, [whole, whole], q) == 1, (str(group), q)
