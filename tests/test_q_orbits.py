"""K-orbits on X_P x Z_Q, counted as Q-orbits on X_P.

The reference below is the walk over the whole product X_P x Z_Q, with
each of K's generators acting on X_P through its embedding, on its own
factor of Z_Q, and trivially on the other factors.  The library walks
X_P alone under generators of Q, most of them words in K's generators,
so the two must agree on every (P, Q) at every field.
"""

import itertools
import sys

import pytest

import dflag.cli
import dflag.flags
import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import CrossCheckError
from dflag.flags import flag_count
from dflag.groups import GroupFamily, ParabolicSpec, borel, gl
from dflag.orbits import (
    _count_K_orbits_full,
    _flag_orbit,
    _generators,
    _k_blocks,
    _line_perm,
    _lines,
    _perm_for,
    _product_orbits,
    _Space,
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
        pts = _flag_orbit(group, shape, q).points
        identity = tuple(range(len(pts)))
        perms = [identity if m is None else _perm_for(group, shape, q, m) for m in mats]
        spaces.append(_Space(pts, perms))
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


def _refuse_everywhere(monkeypatch, name):
    """Make every dflag module's reference to flags.<name> fail."""
    real = getattr(dflag.flags, name)

    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "dflag" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fail)


def _clear_caches():
    _flag_orbit.cache_clear()
    _line_perm.cache_clear()


def test_only_K_generators_act_and_only_on_lines(monkeypatch):
    # each matrix moves each line of F_3^4 once, and nothing moves a
    # subspace: G's 3 generators build X_P, and K's 6 add 4 more, since
    # GL_2 x 1 shares E_12(1) and diag(z, 1, 1, 1) with G
    pair = SymmetricPairSpec.parse("AIII:2,2")
    P = borel(pair.group)
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    q = 3
    _clear_caches()
    moved = []  # (move, vector) per vector moved
    real = dflag.orbits.move_vector

    def counted(move, v):
        moved.append((move, v))
        return real(move, v)

    monkeypatch.setattr(dflag.orbits, "move_vector", counted)
    _refuse_everywhere(monkeypatch, "apply_to_flag")
    try:
        count_K_orbits(pair, P, Q, q)
    finally:
        _clear_caches()
    vecs, _ = _lines(4, q)
    moves = {move for move, _ in moved}
    assert (len(moved), len(moves), len(vecs)) == (280, 7, 40)
    assert sorted(moved) == sorted((move, v) for move in moves for v in vecs)
    assert {len(v) for _, v in moved} == {4}  # vectors of F_3^4, none of Z_Q's F_3^2


def test_row_reduction_only_audits_matrices(monkeypatch):
    # no subspace is row reduced, so the rref calls do not depend on P
    pair = SymmetricPairSpec.parse("AIII:2,2")
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    _refuse_everywhere(monkeypatch, "apply_to_flag")
    real = gfq.rref
    callers = []

    def counted(rows, q):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(rows, q)

    monkeypatch.setattr(gfq, "rref", counted)
    calls = []
    for shape in ((1, 1, 1, 1), (2, 2)):
        _clear_caches()
        callers.clear()
        try:
            count_K_orbits(pair, ParabolicSpec(pair.group, Composition(shape)), Q, 3)
        finally:
            _clear_caches()
        assert set(callers) == {"matrix_move", "mat_inv"}
        calls.append(len(callers))
    assert calls[0] == calls[1]


def test_a_walk_past_its_count_stops(monkeypatch):
    # X = P^3(F_3): one subspace of one line per point, so each point
    # walked looks up one line per generator
    group, shape, q = gl(4), Composition((1, 3)), 3
    count = flag_count(group, shape, q)
    assert count == 40
    lookups = []

    class Counted(tuple):
        def __getitem__(self, i):
            lookups.append(i)
            return tuple.__getitem__(self, i)

    real = _line_perm
    monkeypatch.setattr(dflag.orbits, "_line_perm", lambda m, q: Counted(real(m, q)))
    n_gens = len(_generators(group, q))
    for low in (count - 1, 1):
        monkeypatch.setattr(dflag.orbits, "flag_count", lambda *args: low)
        _flag_orbit.cache_clear()
        lookups.clear()
        try:
            with pytest.raises(CrossCheckError, match=f"passes its {low} points"):
                _flag_orbit(group, shape, q)
        finally:
            _flag_orbit.cache_clear()
        assert 0 < len(lookups) <= (low + 1) * n_gens
