import itertools

import pytest

from dflag.compositions import Composition, SymplecticComposition
from dflag.groups import (
    GroupFamily,
    Orientation,
    ParabolicSpec,
    _simple_support,
    all_roots,
    borel,
    gl,
    is_positive_root,
    is_product_open,
    parabolic_root_set,
    positive_roots,
    sp,
    whole_group,
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


def _sp_shapes(n):
    shapes = [SymplecticComposition((), 2 * n)]
    for d in range(1, n + 1):
        for left in _comps(d):
            shapes.append(SymplecticComposition(left, 2 * (n - d)))
    return shapes


def test_gl2_borel_root_set():
    assert parabolic_root_set(borel(gl(2))) == {(1, -1)}


def test_gl2_whole_group_both_roots():
    for orientation in Orientation:
        P = ParabolicSpec(gl(2), Composition((2,)), orientation)
        assert parabolic_root_set(P) == {(1, -1), (-1, 1)}


def test_gl3_2_1_levi_plus_nilradical():
    P = ParabolicSpec(gl(3), Composition((2, 1)))
    assert parabolic_root_set(P) == {(1, -1, 0), (-1, 1, 0), (1, 0, -1), (0, 1, -1)}


def test_borel_root_set_is_positive_system():
    for group in (gl(3), gl(4), sp(2), sp(3)):
        assert parabolic_root_set(borel(group)) == positive_roots(group)


def test_root_set_sizes_split_levi_nilradical():
    # a GL_n shape with parts k_i has sum k_i (k_i - 1) Levi roots and
    # sum_(i<j) k_i k_j nilradical roots, and the standard / opposite
    # specs have equal sizes
    for n in range(2, 5):
        for parts in _comps(n):
            P = ParabolicSpec(gl(n), Composition(parts))
            opp = ParabolicSpec(gl(n), Composition(parts), Orientation.OPPOSITE)
            rp = parabolic_root_set(P)
            levi = {r for r in rp if tuple(-c for c in r) in rp}
            assert len(levi) == sum(k * (k - 1) for k in parts)
            assert len(rp - levi) == sum(a * b for a, b in itertools.combinations(parts, 2))
            assert len(parabolic_root_set(opp)) == len(rp)


def _simple_roots(group):
    """[a_1, ..., a_r]: a_k = e_k - e_(k+1) for k < n, and a_n = 2e_n in
    Sp_2n."""
    n = group.n
    simple = [tuple(int(a == k) - int(a == k + 1) for a in range(n)) for k in range(n - 1)]
    if group.family is GroupFamily.SYMPLECTIC:
        simple.append((0,) * (n - 1) + (2,))
    return simple


def _simple_coefficients(group, root):
    """The coefficients c_1, ..., c_r of ``root`` in the simple roots:
    c_k is the sum of the first k coordinates for k < n, and in Sp_2n
    c_n is half the sum of all."""
    c = [sum(root[:k]) for k in range(1, group.n)]
    if group.family is GroupFamily.SYMPLECTIC:
        c.append(sum(root) // 2)
    return c


@pytest.mark.parametrize(
    "group", [gl(n) for n in range(1, 8)] + [sp(n) for n in range(1, 6)], ids=str
)
def test_positivity_and_support_follow_the_simple_root_expansion(group):
    # a root is positive when its coefficients in the simple roots are
    # all >= 0, and its support is where they are nonzero
    roots, n, simple = all_roots(group), group.n, _simple_roots(group)
    assert len(roots) == (n * (n - 1) if group.family is GroupFamily.GENERAL_LINEAR else 2 * n * n)
    for root in roots:
        c = _simple_coefficients(group, root)
        assert tuple(sum(x * a[m] for x, a in zip(c, simple)) for m in range(n)) == root
        assert all(x >= 0 for x in c) or all(x <= 0 for x in c), root
        assert is_positive_root(root) == all(x >= 0 for x in c), root
        assert _simple_support(group, root) == {k for k, x in enumerate(c, 1) if x}, root


def test_siegel_root_set_count():
    # Siegel parabolic of Sp_4: 4 positive + 2 Levi-negative roots
    P = ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
    assert len(parabolic_root_set(P)) == 5
    assert len(all_roots(sp(2))) == 8


def test_product_open_examples():
    P2 = ParabolicSpec(gl(4), Composition((1, 1, 2)))
    P3 = ParabolicSpec(gl(4), Composition((2, 2)), Orientation.OPPOSITE)
    assert is_product_open(P2, P3)
    assert not is_product_open(borel(gl(3)), borel(gl(3)))
    A = ParabolicSpec(gl(3), Composition((2, 1)))
    B = ParabolicSpec(gl(3), Composition((1, 2)))
    assert not is_product_open(A, B)


def test_product_open_with_opposite_always():
    for n in range(2, 5):
        for parts in _comps(n):
            P = ParabolicSpec(gl(n), Composition(parts))
            opp = ParabolicSpec(gl(n), Composition(parts), Orientation.OPPOSITE)
            assert is_product_open(P, opp)
    for rank in (1, 2, 3):
        for shape in _sp_shapes(rank):
            P = ParabolicSpec(sp(rank), shape)
            opp = ParabolicSpec(sp(rank), shape, Orientation.OPPOSITE)
            assert is_product_open(P, opp)


def test_product_open_rejects_mixed_groups():
    with pytest.raises(ValueError):
        is_product_open(borel(gl(2)), borel(gl(3)))


def test_parabolic_spec_validation():
    with pytest.raises(ValueError):
        ParabolicSpec(gl(3), Composition((2, 2)))
    with pytest.raises(ValueError):
        ParabolicSpec(sp(2), Composition((2, 2)))
    with pytest.raises(ValueError):
        ParabolicSpec(gl(4), SymplecticComposition((2,), 0))


def test_whole_group_and_borel_flags():
    assert whole_group(gl(3)).is_proper is False
    assert borel(sp(2)).is_borel
    assert not ParabolicSpec(sp(2), SymplecticComposition((1,), 2)).is_borel
