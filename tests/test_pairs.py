import pytest

from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import ParseError
from dflag.groups import ParabolicSpec, borel, gl, sp, whole_group
from dflag.pairs import (
    KParabolicSpec,
    PairKind,
    SymmetricPairSpec,
    intersect_with_K,
    is_theta_stable,
    k_parabolic_of_split,
    theta_on_parabolic,
    whole_K,
)


def test_parse_tokens():
    aiii = SymmetricPairSpec.parse("AIII:2,3")
    assert aiii.kind is PairKind.AIII and (aiii.p, aiii.q) == (2, 3)
    assert aiii.group == gl(5)
    ci = SymmetricPairSpec.parse("CI", ambient_dim=4)
    assert ci.group == sp(2)
    ai = SymmetricPairSpec.parse("AI:4")
    assert ai.group == gl(4)
    with pytest.raises(ParseError):
        SymmetricPairSpec.parse("AIII:3")
    with pytest.raises(ParseError):
        SymmetricPairSpec.parse("BX:1,1")
    with pytest.raises(ParseError):
        SymmetricPairSpec.parse("AII")  # no rank available


def test_pair_validation():
    with pytest.raises(ValueError):
        SymmetricPairSpec(PairKind.AII, gl(3))  # odd rank
    with pytest.raises(ValueError):
        SymmetricPairSpec(PairKind.AIII, gl(4), 1, 2)  # p + q != n
    with pytest.raises(ValueError):
        SymmetricPairSpec(PairKind.CI, gl(4))  # wrong family


def test_theta_fixes_inner_classes():
    pair = SymmetricPairSpec.parse("AIII:2,2")
    P = ParabolicSpec(gl(4), Composition((3, 1)))
    assert theta_on_parabolic(pair, P) == P
    ci = SymmetricPairSpec.parse("CI:2")
    siegel = ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
    assert theta_on_parabolic(ci, siegel) == siegel


def test_theta_reverses_for_outer_types():
    ai = SymmetricPairSpec.parse("AI:4")
    P = ParabolicSpec(gl(4), Composition((3, 1)))
    assert theta_on_parabolic(ai, P).shape == Composition((1, 3))
    # involution on class representatives
    twice = theta_on_parabolic(ai, theta_on_parabolic(ai, P))
    assert twice.shape == P.shape


def test_theta_stability_by_kind():
    # inner involutions preserve every standard parabolic
    assert is_theta_stable(SymmetricPairSpec.parse("AIII:1,1"), borel(gl(2)))
    assert is_theta_stable(SymmetricPairSpec.parse("CII:1,1"), borel(sp(2)))
    # AI/AII: stable exactly for palindromic shapes (anti-diagonal forms)
    aii = SymmetricPairSpec.parse("AII:4")
    assert is_theta_stable(aii, ParabolicSpec(gl(4), Composition((2, 2))))
    assert is_theta_stable(aii, ParabolicSpec(gl(4), Composition((1, 2, 1))))
    assert not is_theta_stable(aii, ParabolicSpec(gl(4), Composition((1, 3))))
    ai = SymmetricPairSpec.parse("AI:4")
    assert not is_theta_stable(ai, ParabolicSpec(gl(4), Composition((3, 1))))


def test_intersect_whole_group_gives_K():
    pair = SymmetricPairSpec.parse("AIII:2,1")
    Q = intersect_with_K(pair, whole_group(gl(3)))
    assert Q == whole_K(pair)
    assert [f.parts for f in Q.factors] == [(2,), (1,)]


def test_intersect_borel_aiii():
    pair = SymmetricPairSpec.parse("AIII:1,1")
    Q = intersect_with_K(pair, borel(gl(2)))
    assert [f.parts for f in Q.factors] == [(1,), (1,)]


def test_intersect_block_splitting():
    pair = SymmetricPairSpec.parse("AIII:2,2")
    Q = intersect_with_K(pair, ParabolicSpec(gl(4), Composition((3, 1))))
    assert [f.parts for f in Q.factors] == [(2,), (1, 1)]


def test_intersect_ci_siegel_is_whole_K():
    ci = SymmetricPairSpec.parse("CI:2")
    siegel = ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
    assert intersect_with_K(ci, siegel) == whole_K(ci)


def test_intersect_ci_line_stabilizer():
    ci = SymmetricPairSpec.parse("CI:2")
    P = ParabolicSpec(sp(2), SymplecticComposition((1,), 2))
    Q = intersect_with_K(ci, P)
    assert Q.factors[0].parts == (1, 1)


def test_intersect_cii_borel():
    cii = SymmetricPairSpec.parse("CII:1,1")
    Q = intersect_with_K(cii, borel(sp(2)))
    assert [f.full_parts for f in Q.factors] == [(1, 1), (1, 1)]


def test_intersect_aii_palindrome():
    aii = SymmetricPairSpec.parse("AII:4")
    Q = intersect_with_K(aii, ParabolicSpec(gl(4), Composition((1, 2, 1))))
    assert Q.factors[0].full_parts == (1, 2, 1)


def test_intersect_rejects_unstable():
    ai = SymmetricPairSpec.parse("AI:4")
    with pytest.raises(ValueError):
        intersect_with_K(ai, ParabolicSpec(gl(4), Composition((3, 1))))


def test_kparabolic_parse_and_keys():
    pair = SymmetricPairSpec.parse("AIII:2,2")
    Q = KParabolicSpec.parse(pair, "1,1;2")
    assert Q.conjugacy_key() == (("gl", (1, 1)), ("gl", (2,)))
    # GL factors compare up to reordering parts
    pair35 = SymmetricPairSpec.parse("AIII:2,3")
    a = KParabolicSpec.parse(pair35, "1,1;2,1")
    b = KParabolicSpec.parse(pair35, "1,1;1,2")
    assert a.conjugacy_key() == b.conjugacy_key()
    with pytest.raises(ParseError):
        KParabolicSpec.parse(pair, "1,1")  # missing second factor


def test_kparabolic_ai_requires_palindrome():
    ai = SymmetricPairSpec.parse("AI:3")
    KParabolicSpec.parse(ai, "1,1,1")
    with pytest.raises(ParseError):
        KParabolicSpec.parse(ai, "2,1")


def test_every_entry_point_checks_membership():
    from dflag.classify import (
        finiteness_via_intersection,
        finiteness_via_triple,
        summary_lookup,
    )
    from dflag.orbits import count_K_orbits

    pair = SymmetricPairSpec.parse("AIII:1,2")
    other = SymmetricPairSpec.parse("AIII:2,1")
    P = borel(gl(3))
    foreign_P = borel(gl(4))
    Q = whole_K(pair)
    for check in (theta_on_parabolic, is_theta_stable):
        with pytest.raises(ValueError, match="does not live in"):
            check(pair, foreign_P)
    for check in (
        finiteness_via_triple,
        finiteness_via_intersection,
        summary_lookup,
        lambda pair, P, Q: count_K_orbits(pair, P, Q, 2),
    ):
        with pytest.raises(ValueError, match="does not live in"):
            check(pair, foreign_P, Q)
        with pytest.raises(ValueError, match="different pair"):
            check(other, P, Q)


def test_k_factors_are_one_shared_table():
    first, again = SymmetricPairSpec.parse("CII:1,2"), SymmetricPairSpec.parse("CII:1,2")
    assert first.k_factors is again.k_factors
    plus, minus = first.k_factors
    assert (plus.family, plus.rank, plus.coords) == ("sp", 1, (0, 5))
    assert (minus.family, minus.rank, minus.coords) == ("sp", 2, (1, 2, 3, 4))
    (ci,) = SymmetricPairSpec.parse("CI:3").k_factors
    assert (ci.family, ci.rank, ci.coords) == ("gl", 3, (0, 1, 2))
    (ai,) = SymmetricPairSpec.parse("AI:3").k_factors
    assert ai.family == "so"


def test_k_parabolic_of_split():
    ci = SymmetricPairSpec.parse("CI:3")
    # one isotropic line split 1 + 0, then a 2-step split 0 + 1 (middle 2)
    Q = k_parabolic_of_split(ci, (1, 0), (0, 1))
    assert str(Q) == "1,1,1"
    aiii = SymmetricPairSpec.parse("AIII:2,2")
    assert str(k_parabolic_of_split(aiii, (1, 1, 0), (0, 1, 1))) == "1,1;1,1"
    with pytest.raises(ValueError):
        # the Sp_2 factor of CII:1,2 holds no isotropic plane
        k_parabolic_of_split(SymmetricPairSpec.parse("CII:1,2"), (2,), (0,))
