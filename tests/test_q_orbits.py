"""K-orbits on X_P x Z_Q, counted as Q-orbits on X_P.

The reference below is the walk over the whole product X_P x Z_Q, with
each of K's generators acting on X_P through its embedding, on its own
factor of Z_Q, and trivially on the other factors.  The library walks
X_P alone under generators of Q, most of them words in K's generators,
so the two must agree on every (P, Q) at every field.
"""

import itertools

import pytest

import dflag.cli
import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import CrossCheckError
from dflag.groups import GroupFamily, ParabolicSpec, borel
from dflag.orbits import (
    _count_K_orbits_full,
    _generators,
    _k_blocks,
    _perm_for,
    _product_orbits,
    _Space,
    _space_points,
    count_K_orbits,
)
from dflag.pairs import KParabolicSpec, SymmetricPairSpec


def _compositions(n):
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield Composition(tuple(parts + [run]))


def _symplectic_shapes(n):
    """Every shape of Sp_2n, the whole group included."""
    yield SymplecticComposition((), 2 * n)
    for d in range(1, n + 1):
        for c in _compositions(d):
            yield SymplecticComposition(c.parts, 2 * (n - d))


def _shapes(family, rank):
    return list(_compositions(rank) if family == "gl" else _symplectic_shapes(rank))


def _every_input(token):
    pair = SymmetricPairSpec.parse(token)
    family = "gl" if pair.group.family is GroupFamily.GENERAL_LINEAR else "sp"
    Ps = [ParabolicSpec(pair.group, s) for s in _shapes(family, pair.group.n)]
    Qs = list(itertools.product(*(_shapes(f.family, f.rank) for f in pair.k_factors)))
    return [(pair, P, KParabolicSpec(pair, Q)) for P in Ps for Q in Qs]


def _full_product_walk(pair, P, Q, q):
    """(points, orbits) of K on X_P x Z_Q, walking the whole product."""
    blocks = _k_blocks(pair)
    ambient, per_factor = [], [[] for _ in blocks]
    for i, (group, embed) in enumerate(blocks):
        for m in _generators(group, q):
            ambient.append(embed(m, q))
            for j, mats in enumerate(per_factor):
                mats.append(m if j == i else None)
    spaces = [_Space.flags(pair.group, P.standard_form().shape, q, ambient)]
    for (group, _), shape, mats in zip(blocks, Q.factors, per_factor):
        pts, _ = _space_points(group, shape, q)
        identity = tuple(range(len(pts)))
        perms = [identity if m is None else _perm_for(group, shape, q, m) for m in mats]
        spaces.append(_Space(list(pts), perms))
    return _product_orbits(spaces)


CASES = [
    (token, q)
    for token in ("AIII:1,1", "AIII:1,2", "AII:2", "CI:1", "CI:2", "CII:1,1")
    for q in (2, 3)
] + [("AIII:2,2", 2), ("AII:4", 2), ("AIII:1,3", 2)]  # GL_3 has Levi words


@pytest.mark.parametrize("token, q", CASES)
def test_q_orbits_on_X_P_match_the_full_product(token, q):
    inputs = _every_input(token)
    assert len(inputs) >= 2
    for pair, P, Q in inputs:
        expected = _full_product_walk(pair, P, Q, q)
        assert _count_K_orbits_full(pair, P, Q, q, 10**7) == expected, (str(P), str(Q))


def _with_inverse_cycle(real):
    """_generators with the cycle c replaced by c^-1, which still
    generates GL_n but breaks every word built from c."""

    def patched(group, q):
        gens = real(group, q)
        if group.family is GroupFamily.GENERAL_LINEAR and group.n >= 2:
            gens[1] = gfq.mat_inv(gens[1], q)
        return gens

    return patched


def test_a_wrong_word_is_a_cross_check_error(monkeypatch, capsys):
    pair = SymmetricPairSpec.parse("AIII:1,3")
    P = borel(pair.group)
    whole = KParabolicSpec.parse(pair, "1;3")
    Q = KParabolicSpec.parse(pair, "1;1,1,1")
    expected = count_K_orbits(pair, P, whole, 2)
    monkeypatch.setattr(dflag.orbits, "_generators", _with_inverse_cycle(_generators))
    # K's own generators need no word and still generate
    assert count_K_orbits(pair, P, whole, 2) == expected
    with pytest.raises(CrossCheckError, match="does not give its matrix"):
        count_K_orbits(pair, P, Q, 2)
    argv = ["probe-orbits", "--pair", "AIII:1,3", "--p", "1,1,1,1", "--q", "1;1,1,1", "--qlist", "2"]
    assert dflag.cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("CROSS-CHECK DISAGREEMENT") and "parse error" not in err


def test_only_K_generators_act_and_only_on_X_P(monkeypatch):
    pair = SymmetricPairSpec.parse("AIII:2,2")
    P = borel(pair.group)
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    q = 3
    dflag.orbits._space_points.cache_clear()
    dflag.orbits._perm_for.cache_clear()
    dims = []  # per call, the length of the vectors moved
    real = dflag.orbits.apply_to_flag

    def counted(move, flag, q):
        dims.append(len(flag[0][0]))
        return real(move, flag, q)

    monkeypatch.setattr(dflag.orbits, "apply_to_flag", counted)
    count_K_orbits(pair, P, Q, q)
    pts, _ = _space_points(pair.group, P.shape, q)
    subspaces = {sub for pt in pts for sub in pt}
    n_gens = sum(len(_generators(group, q)) for group, _ in _k_blocks(pair))
    assert (n_gens, len(subspaces)) == (6, 210)
    assert len(dims) == n_gens * len(subspaces) == 1260
    assert set(dims) == {4}  # vectors of F_3^4, none of Z_Q's F_3^2
