"""K-orbits on X_P x Z_Q, counted as Q-orbits on X_P.

The reference below is the walk over the whole product X_P x Z_Q, with
each of K's generators acting on X_P through its embedding, on its own
factor of Z_Q, and trivially on the other factors.  The library walks
X_P alone under generators of Q, words in G's letters, so the two must
agree on every (P, Q) at every field.
"""

import itertools
import sys
import tracemalloc
from functools import lru_cache

import pytest

import dflag.cli
import dflag.flags
import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import CrossCheckError
from dflag.flags import flag_count
from dflag.groups import GroupFamily, ParabolicSpec, borel, gl, sp
from dflag.orbits import (
    _k_targets,
    _letters,
    _line_perm,
    _Speller,
    _unit_matrix_with,
    _walk_flags,
    count_K_orbits,
    growth_probe,
)
from dflag.pairs import KParabolicSpec, SymmetricPairSpec, whole_K
from point_action import PointAction, mat_inv, reference_orbits
from test_k_reference import _reference_blocks


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
    blocks = _reference_blocks(pair)
    ambient, per_factor = [], [[] for _ in blocks]
    for i, (group, embed) in enumerate(blocks):
        for m in _letters(group, q).values():
            ambient.append(embed(m, q))
            for j, mats in enumerate(per_factor):
                mats.append(m if j == i else None)
    spaces = [PointAction(pair.group, P.standard_form().shape, q).space(ambient)]
    for (group, _), shape, mats in zip(blocks, Q.factors, per_factor):
        action = PointAction(group, shape, q)
        identity = tuple(range(len(action.points)))
        perms = [identity if m is None else action.perm(m) for m in mats]
        spaces.append((len(action.points), perms))
    return reference_orbits(spaces)


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
        got = growth_probe(pair, P, Q, (q,), 10**7).entries
        assert got == ((q, *expected),), (str(P), str(Q))


def _with_inverse_cycle(real):
    """_letters with the cycle c replaced by c^-1, which still
    generates G but breaks every word built from c."""

    def patched(group, q):
        letters = real(group, q)
        if "c" in letters:
            letters["c"] = mat_inv(letters["c"], q)
        return letters

    return patched


def test_a_wrong_word_is_a_cross_check_error(monkeypatch, capsys):
    aiii = SymmetricPairSpec.parse("AIII:1,3")
    P = borel(aiii.group)
    ci = SymmetricPairSpec.parse("CI:2")
    expected = count_K_orbits(ci, borel(ci.group), whole_K(ci), 2)
    monkeypatch.setattr(dflag.orbits, "_letters", _with_inverse_cycle(_letters))
    _clear_caches()
    try:
        # CI's whole K acts through G's letters, which need no word
        assert count_K_orbits(ci, borel(ci.group), whole_K(ci), 2) == expected
        # AIII's whole K is Q1 x Q2 of shape (1, 3): words built from c
        for Q in ("1;3", "1;1,1,1"):
            with pytest.raises(CrossCheckError, match="does not give its matrix"):
                count_K_orbits(aiii, P, KParabolicSpec.parse(aiii, Q), 2)
        argv = ["probe-orbits", "--pair", "AIII:1,3", "--p", "1,1,1,1", "--q", "1;1,1,1", "--qlist", "2"]
        assert dflag.cli.main(argv) == 3
    finally:
        _clear_caches()
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
    _line_perm.cache_clear()


def test_only_G_letters_move_lines(monkeypatch):
    # each of G's 3 letters is turned once into a permutation of the
    # lines of F_3^4, and nothing else is: Q's generators are words in
    # the letters
    pair = SymmetricPairSpec.parse("AIII:2,2")
    P = borel(pair.group)
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    q = 3
    _clear_caches()
    built = []  # each matrix given an uncached line permutation
    real = _line_perm.__wrapped__

    def counted(mat, q):
        built.append(mat)
        return real(mat, q)

    monkeypatch.setattr(dflag.orbits, "_line_perm", lru_cache(maxsize=64)(counted))
    _refuse_everywhere(monkeypatch, "apply_to_flag")
    try:
        count_K_orbits(pair, P, Q, q)
    finally:
        _clear_caches()
    assert len(built) == 3
    assert sorted(built) == sorted(_letters(pair.group, q).values())
    assert {len(m) for m in built} == {4}  # matrices on F_3^4, none on Z_Q's F_3^2


def _row_reductions(monkeypatch):
    """The names of the callers of gfq.rref, from now on."""
    real = gfq.rref
    callers = []

    def counted(rows, q):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(rows, q)

    monkeypatch.setattr(gfq, "rref", counted)
    return callers


@pytest.mark.parametrize(
    "token, p, q_shapes",
    [
        ("AIII:2,2", "1,1,1,1", "1,1;1,1"),
        ("AIII:2,2", "2,2", "1,1;1,1"),
        ("CI:3", "1,4,1", "1,1,1"),
        ("CI:3", "1,4,1", "3"),  # Q = K: G's letters and a torus element
        ("CII:1,2", "1,4,1", "2;1,2,1"),
    ],
)
def test_row_reduction_only_audits_matrices(monkeypatch, token, p, q_shapes):
    # no subspace is row reduced and no generator inverts a matrix, so a
    # count row reduces nothing, whatever P and whatever the pair
    _refuse_everywhere(monkeypatch, "apply_to_flag")
    callers = _row_reductions(monkeypatch)
    _clear_caches()
    try:
        _count(token, p, q_shapes, 3)
    finally:
        _clear_caches()
    assert callers == []


def _speller(group, shape, q):
    return _Speller(group, q, _walk_flags(group, shape, q)[2])


def _count(token, p, q_shapes, q):
    pair = SymmetricPairSpec.parse(token)
    shape = SymplecticComposition if pair.group.family is GroupFamily.SYMPLECTIC else Composition
    P = ParabolicSpec(pair.group, shape.parse(p))
    return count_K_orbits(pair, P, KParabolicSpec.parse(pair, q_shapes), q)


# each composition is one pass over the points; no word inverts a
# permutation, which would take a loop in Python over the points: a
# root element's inverse is its (q-1)-th power, and c^-k = c^(n-k)
PASS_CASES = [
    ("Sp6-torus-F3", lambda: _speller(sp(3), SymplecticComposition((1,), 4), 3).torus(2), 5),
    ("Sp6-torus-F5", lambda: _speller(sp(3), SymplecticComposition((1,), 4), 5).torus(2), 7),
    (
        "GL4-E21-F3",
        lambda: _speller(gl(4), Composition((1, 3)), 3).word_for(
            _unit_matrix_with(4, {(1, 0): 1}, 3)
        ),
        18,
    ),
    ("AIII:2,2-Q2;2-F3", lambda: _count("AIII:2,2", "1,1,1,1", "2;2", 3), 22),
    ("AIII:3,3-P1,5-F3", lambda: _count("AIII:3,3", "1,5", "1,1,1;1,2", 3), 42),
    ("CII:1,2-Siegel-F3", lambda: _count("CII:1,2", "3,3", "1,1;1,2,1", 3), 14),
    ("AII:4-P1,2,1-Q2,2-F3", lambda: _count("AII:4", "1,2,1", "2,2", 3), 26),
]


# (torus elements, root elements) of Q over F_3: one torus element per
# class of coordinates its Levi joins, none for a symplectic block, so a
# Borel Q keeps all of them; the simple roots and the Levi's negatives
GENERATOR_CASES = [
    ("AIII:2,2", "2;2", (2, 4)),
    ("AIII:2,2", "1,1;1,1", (4, 2)),
    ("CII:1,2", "1,1;1,2,1", (2, 4)),
    ("CII:1,2", "1,1;1,1,1,1", (3, 3)),
    ("AII:4", "2,2", (1, 3)),
]


@pytest.mark.parametrize("token, q_shapes, sizes", GENERATOR_CASES)
def test_counts_take_their_pinned_generators(token, q_shapes, sizes):
    pair = SymmetricPairSpec.parse(token)
    targets = _k_targets(pair, KParabolicSpec.parse(pair, q_shapes), 3)
    # the root elements have 1s on the diagonal, the torus elements not
    torus = [m for m in targets if any(row[k] != 1 for k, row in enumerate(m))]
    assert (len(torus), len(targets) - len(torus)) == sizes


@pytest.mark.parametrize("spell, passes", [pytest.param(s, n, id=i) for i, s, n in PASS_CASES])
def test_words_take_their_pinned_passes_and_no_inverse(monkeypatch, spell, passes):
    assert not hasattr(_Speller, "inverse")
    real = _Speller.times
    counted = []

    def times(self, *words):
        counted.append(len(words) - 1)
        return real(self, *words)

    monkeypatch.setattr(_Speller, "times", times)
    callers = _row_reductions(monkeypatch)
    spell()
    assert sum(counted) == passes
    # nothing inverts a matrix: the package has no inverse, and nothing
    # row reduces
    assert not hasattr(gfq, "mat_inv")
    assert callers == []


def test_no_walk_outlives_its_count():
    # CI:3 with P = B and Q = B of GL_3 walks the 58,240 full isotropic
    # flags of F_3^6, whose letters alone take over 3 MB; after the
    # count, tracemalloc finds under 1 MB kept, the line permutations
    # built for it included
    pair = SymmetricPairSpec.parse("CI:3")
    P = borel(pair.group)
    assert flag_count(pair.group, P.shape, 3) == 58240
    _clear_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count_K_orbits(pair, P, KParabolicSpec.parse(pair, "1,1,1"), 3)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        _clear_caches()
    assert kept < 2**20, kept


class _Counted(tuple):
    """A line permutation that records each lookup."""

    lookups: list = []

    def __getitem__(self, i):
        self.lookups.append(i)
        return tuple.__getitem__(self, i)


def test_a_walk_past_its_count_stops(monkeypatch):
    # X = the planes of F_3^3: one subspace of 4 lines per point, so each
    # point walked looks up at most 4 lines per letter
    group, shape, q = gl(3), Composition((2, 1)), 3
    count = flag_count(group, shape, q)
    assert count == 13
    real = _line_perm
    monkeypatch.setattr(dflag.orbits, "_line_perm", lambda m, q: _Counted(real(m, q)))
    n_letters = len(_letters(group, q))
    for low in (count - 1, 1):
        monkeypatch.setattr(dflag.orbits, "flag_count", lambda *args: low)
        _Counted.lookups.clear()
        with pytest.raises(CrossCheckError, match=f"passes its {low} points"):
            _walk_flags(group, shape, q)
        assert 0 < len(_Counted.lookups) <= (low + 1) * n_letters * 4


def test_a_level_past_the_count_stops_the_flag_walk(monkeypatch):
    # X = the flags plane < hyperplane of F_3^4 (520 points) has the
    # levels 2 and 3; X maps onto each, so the walk of the 130 planes
    # stops as soon as it passes the count, 4 lines per plane and letter
    group, shape, q = gl(4), Composition((2, 1, 1)), 3
    assert flag_count(group, shape, q) == 520
    real = _line_perm
    monkeypatch.setattr(dflag.orbits, "_line_perm", lambda m, q: _Counted(real(m, q)))
    n_letters = len(_letters(group, q))
    for low in (10, 1):
        monkeypatch.setattr(dflag.orbits, "flag_count", lambda *args: low)
        _Counted.lookups.clear()
        with pytest.raises(CrossCheckError, match=f"passes its {low} points"):
            _walk_flags(group, shape, q)
        assert 0 < len(_Counted.lookups) <= (low + 1) * n_letters * 4


def test_each_level_of_a_full_flag_is_walked_once(monkeypatch):
    # the full flags of F_3^4: each of the 130 planes (4 lines) and the
    # 40 hyperplanes (13 lines) is moved once per letter, and the lines
    # level is the letters' line permutations, with no line looked up
    group, shape, q = gl(4), Composition((1, 1, 1, 1)), 3
    real = _line_perm
    monkeypatch.setattr(dflag.orbits, "_line_perm", lambda m, q: _Counted(real(m, q)))
    _Counted.lookups.clear()
    subspaces, points, _ = _walk_flags(group, shape, q)
    assert len(points) == 2080
    assert len(subspaces) == 40 + 130 + 40
    assert len(_letters(group, q)) == 3
    assert len(_Counted.lookups) == (130 * 4 + 40 * 13) * 3 == 3120


def test_the_lines_are_not_walked(monkeypatch):
    # X = P^3(F_3) is the lines of F_3^4: each letter's line permutation
    # is its point permutation, and no line is looked up
    group, shape, q = gl(4), Composition((1, 3)), 3
    real = _line_perm
    monkeypatch.setattr(dflag.orbits, "_line_perm", lambda m, q: _Counted(real(m, q)))
    _Counted.lookups.clear()
    subspaces, points, letters = _walk_flags(group, shape, q)
    assert points == subspaces == tuple((i,) for i in range(40))
    for name, m in _letters(group, q).items():
        assert letters[name] == (m, real(m, q))
    assert _Counted.lookups == []
    monkeypatch.setattr(dflag.orbits, "flag_count", lambda *args: 39)
    with pytest.raises(CrossCheckError, match="GL4/1,3 over F_3 passes its 39 points"):
        _walk_flags(group, shape, q)
