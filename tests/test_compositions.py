import pytest
from hypothesis import given
from hypothesis import strategies as st

from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import ParseError


def test_parse_and_measure():
    c = Composition.parse("2,1,1")
    assert c.size == 4
    assert c.length == 3
    assert c.breaks() == (2, 3)


def test_rejects_bad_parts():
    with pytest.raises(ParseError):
        Composition.parse("2,0,1")
    with pytest.raises(ParseError):
        Composition.parse("")
    with pytest.raises(ValueError):
        Composition(())


def test_sorted_key_does_not_mutate():
    c = Composition((1, 3, 2))
    assert c.sorted_key() == (3, 2, 1)
    assert c.parts == (1, 3, 2)


def test_predicates():
    assert Composition((3, 1)).is_mirabolic
    assert Composition((1, 3)).is_mirabolic
    assert not Composition((2, 2)).is_mirabolic
    assert Composition((2, 2)).is_maximal
    assert not Composition((4,)).is_proper


def test_symplectic_parse_palindrome():
    s = SymplecticComposition.parse("1,2,1")
    assert s.left == (1,)
    assert s.middle == 2
    assert s.full_parts == (1, 2, 1)
    assert s.breaks() == (1,)
    assert s.n == 2


def test_symplectic_rejects_non_palindrome():
    with pytest.raises(ParseError):
        SymplecticComposition.parse("2,1,1")
    with pytest.raises(ParseError):
        SymplecticComposition.parse("1,3,1")  # odd middle


def test_symplectic_siegel_and_borel():
    siegel = SymplecticComposition.parse("2,2")
    assert siegel.is_siegel and siegel.is_maximal
    borel = SymplecticComposition((1, 1), 0)
    assert borel.full_parts == (1, 1, 1, 1)
    assert not borel.is_maximal


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_composition_roundtrip(parts):
    c = Composition(tuple(parts))
    assert Composition.parse(str(c)) == c


@given(st.lists(st.integers(1, 5), min_size=0, max_size=3), st.integers(0, 3))
def test_symplectic_roundtrip(left, half_middle):
    if not left and half_middle == 0:
        return
    s = SymplecticComposition(tuple(left), 2 * half_middle)
    again = SymplecticComposition.from_full(s.full_parts)
    assert again == s
    assert SymplecticComposition.parse(str(s)) == s
    assert s.size % 2 == 0
