import pytest

from dflag.compositions import Composition, SymplecticComposition
from dflag.groups import ParabolicSpec, borel, gl, sp
from dflag.weyl import (
    WeylElement,
    bruhat_double_cosets,
    enumerate_weyl,
    twisted_involutions,
    weyl_order,
)


def test_enumerate_orders():
    assert len(enumerate_weyl(gl(4))) == 24
    assert len(enumerate_weyl(sp(2))) == 8 == weyl_order(sp(2))
    assert len(enumerate_weyl(sp(3))) == 48


def test_weyl_element_validation():
    with pytest.raises(ValueError):
        WeylElement(gl(3), (1, 1, 2))
    with pytest.raises(ValueError):
        WeylElement(gl(2), (-1, 2))  # signs are type C only
    w = WeylElement(sp(2), (-2, 1))
    assert w.inverse().values == (2, -1)


def test_gl2_borel_cosets():
    result = bruhat_double_cosets(borel(gl(2)), borel(gl(2)))
    assert result.count == 2
    assert [w.values for w in result.representatives] == [(1, 2), (2, 1)]


def test_gl3_contingency_example():
    P = ParabolicSpec(gl(3), Composition((2, 1)))
    P2 = ParabolicSpec(gl(3), Composition((1, 2)))
    assert bruhat_double_cosets(P, P2).count == 2


def test_sp4_siegel_cosets():
    siegel = ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
    assert bruhat_double_cosets(siegel, siegel).count == 3


def test_borel_borel_recovers_group_order():
    for group in (gl(2), gl(3), gl(4), sp(1), sp(2), sp(3)):
        assert bruhat_double_cosets(borel(group), borel(group)).count == weyl_order(
            group
        )


def _comps(n):
    out = []
    for cuts in range(1 << (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return out


def test_double_coset_symmetry():
    for n in (3, 4):
        specs = [ParabolicSpec(gl(n), Composition(c)) for c in _comps(n)]
        for P in specs:
            for P2 in specs:
                assert (
                    bruhat_double_cosets(P, P2).count
                    == bruhat_double_cosets(P2, P).count
                )


def test_representatives_have_minimal_length():
    P = ParabolicSpec(gl(4), Composition((2, 2)))
    P2 = ParabolicSpec(gl(4), Composition((1, 3)))
    result = bruhat_double_cosets(P, P2)
    lengths = [w.length() for w in result.representatives]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0


def test_rejects_opposite_orientation():
    from dflag.groups import Orientation

    P = ParabolicSpec(gl(2), Composition((1, 1)), Orientation.OPPOSITE)
    with pytest.raises(ValueError):
        bruhat_double_cosets(P, borel(gl(2)))


def test_twisted_involutions_identity_matches_involutions():
    for n, expected in [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26)]:
        assert len(twisted_involutions(gl(n))) == expected


def test_telephone_recurrence():
    values = [len(twisted_involutions(gl(n))) for n in range(1, 7)]
    for i in range(2, len(values)):
        n = i + 1
        assert values[i] == values[i - 1] + (n - 1) * values[i - 2]


def test_twisted_involutions_flip():
    flipped = twisted_involutions(gl(3), "flip")
    assert len(flipped) == 4
    assert {w.values for w in flipped} == {(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}


def test_twisted_involutions_type_c_identity_only():
    involutions = twisted_involutions(sp(2))
    assert all(w.values == w.inverse().values for w in involutions)
    with pytest.raises(ValueError):
        twisted_involutions(sp(2), "flip")


def test_rejects_non_automorphism():
    with pytest.raises(ValueError):
        twisted_involutions(gl(4), {1: 2, 2: 1, 3: 3})


def test_rejects_an_unknown_diagram_action():
    with pytest.raises(ValueError, match="unknown diagram action 'swap'"):
        twisted_involutions(gl(3), "swap")
    assert twisted_involutions(gl(3), None) == twisted_involutions(gl(3), "identity")


def test_non_unique_minimal_representative_raises(monkeypatch):
    import dflag.weyl
    from dflag.errors import CrossCheckError

    # with every length 0, a double coset of more than one element has
    # no unique minimum
    monkeypatch.setattr(dflag.weyl, "_length", lambda group, w: 0)
    P = ParabolicSpec(gl(3), Composition((2, 1)))
    with pytest.raises(CrossCheckError, match="not unique"):
        bruhat_double_cosets(P, P)
