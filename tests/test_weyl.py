import itertools

import pytest

from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import CrossCheckError
from dflag.groups import ParabolicSpec, borel, gl, sp
from dflag.weyl import (
    WeylElement,
    _parabolic_order,
    bruhat_double_cosets,
    enumerate_weyl,
    twisted_involutions,
    weyl_order,
)
from test_fforacle import _every_shape


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


# ------------------------------------------- the closure reference


def _compose(u, v):
    """(u o v)(i) = u(v(i)), with u(-i) = -u(i)."""
    return tuple(u[i - 1] if i > 0 else -u[-i - 1] for i in v)


def _levi_reflections(P):
    """One-line forms of the simple reflections of P's Levi: s_i swaps i
    and i + 1, and s_n of type C changes the sign of n."""
    n, out = P.group.n, []
    for i in sorted(set(P.group.simple_indices) - P.excluded_simples()):
        w = list(range(1, n + 1))
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[n - 1] = -n
        out.append(tuple(w))
    return out


def _closure(w, left, right):
    """The double coset of w: its closure under left multiplication by
    ``left`` and right multiplication by ``right``."""
    orbit, stack = {w}, [w]
    while stack:
        u = stack.pop()
        for v in [_compose(s, u) for s in left] + [_compose(u, s) for s in right]:
            if v not in orbit:
                orbit.add(v)
                stack.append(v)
    return orbit


def _reference_representatives(P, P2):
    """The least element of each double coset, each coset closed in
    full, sorted by (length, one-line form); the minimum is unique."""
    group, left, right = P.group, _levi_reflections(P), _levi_reflections(P2)
    length = {w: WeylElement(group, w).length() for w in enumerate_weyl(group)}
    seen, reps = set(), []
    for w in enumerate_weyl(group):
        if w not in seen:
            orbit = _closure(w, left, right)
            seen |= orbit
            least = min(length[u] for u in orbit)
            minima = [u for u in orbit if length[u] == least]
            assert len(minima) == 1, sorted(orbit)
            reps.append(minima[0])
    return sorted(reps, key=lambda u: (length[u], u))


def _standard_specs(group):
    return [ParabolicSpec(group, shape) for shape in _every_shape(group)]


SMALL_GROUPS = [gl(n) for n in range(1, 6)] + [sp(n) for n in range(1, 4)]


def test_descents_give_the_closure_representatives():
    pairs = 0
    for group in SMALL_GROUPS:
        specs = _standard_specs(group)
        assert len(specs) == 2 ** len(group.simple_indices)
        for P, P2 in itertools.product(specs, repeat=2):
            got = [w.values for w in bruhat_double_cosets(P, P2).representatives]
            assert got == _reference_representatives(P, P2), (str(P), str(P2))
            pairs += 1
    assert pairs == 425


def test_parabolic_orders_are_the_closure_sizes():
    for group in SMALL_GROUPS:
        for P in _standard_specs(group):
            indices = set(group.simple_indices) - P.excluded_simples()
            size = len(_closure(tuple(range(1, group.n + 1)), _levi_reflections(P), []))
            assert _parabolic_order(group, indices) == size, str(P)
        assert _parabolic_order(group, group.simple_indices) == weyl_order(group)


def test_a_broken_descent_check_trips_the_partition_audit(monkeypatch):
    import dflag.weyl

    ascends, simple_root = dflag.weyl._ascends, dflag.weyl._simple_root
    P = ParabolicSpec(gl(3), Composition((2, 1)))
    siegel = ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
    # the condition of the first simple root of each side dropped
    monkeypatch.setattr(dflag.weyl, "_ascends", lambda w, roots: ascends(w, list(roots)[1:]))
    for Q in (P, siegel):
        with pytest.raises(CrossCheckError, match="double cosets of"):
            bruhat_double_cosets(Q, Q)
    monkeypatch.setattr(dflag.weyl, "_ascends", ascends)
    # e_1 - e_3 taken for the simple root a_1 of GL_3
    monkeypatch.setattr(
        dflag.weyl, "_simple_root", lambda g, i: (1, 0, -1) if i == 1 else simple_root(g, i)
    )
    message = r"3 representatives hold 10 of the 6 elements of W\(GL3\)"
    with pytest.raises(CrossCheckError, match=message):
        bruhat_double_cosets(P, P)
