import ast
import itertools
import random
import sys
from pathlib import Path

import pytest

import dflag.orbits
from dflag import gfq
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import BudgetExceededError, CrossCheckError, UnsupportedPairError
from dflag.flags import (
    apply_to_flag,
    enumerate_flags,
    flag_count,
    gaussian_binomial,
    symplectic_gram,
)
from dflag.groups import GroupFamily, ParabolicSpec, borel, gl, sp, whole_group
from dflag.orbits import (
    _check_permutations,
    _is_permutation,
    _letters,
    _line_perm,
    _lines,
    _orbit_count,
    _walk_flags,
    count_K_orbits,
    count_triple_orbits,
    growth_probe,
)
from dflag.pairs import KParabolicSpec, SymmetricPairSpec, whole_K
from dflag.weyl import bruhat_double_cosets
from point_action import PointAction, identity, mat_inv, reference_orbits
from test_k_reference import _reference_blocks


# ------------------------------------------------------------------ gfq


def test_rref_canonical():
    rows = ((2, 1, 0), (1, 1, 0))
    reduced = gfq.rref(rows, 3)
    assert reduced == ((1, 0, 0), (0, 1, 0))
    # proportional rows collapse: (1,2,0) = 2*(2,1,0) mod 3
    assert gfq.rref(((2, 1, 0), (1, 2, 0)), 3) == ((1, 2, 0),)
    assert gfq.rref(((0, 0),), 2) == ()


def test_mat_inv():
    a = ((1, 1), (0, 1))
    inv = mat_inv(a, 5)
    assert gfq.mat_mul(a, inv, 5) == identity(2)
    with pytest.raises(ValueError):
        mat_inv(((1, 1), (2, 2)), 3)


def test_mat_inv_of_every_2x2_over_F3():
    for entries in itertools.product(range(3), repeat=4):
        a = (entries[:2], entries[2:])
        if (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % 3:
            assert gfq.mat_mul(a, mat_inv(a, 3), 3) == identity(2)
        else:
            with pytest.raises(ValueError, match="matrix is singular"):
                mat_inv(a, 3)


def test_prime_guard():
    with pytest.raises(ValueError):
        enumerate_flags(gl(2), C((1, 1)), 7)


# ------------------------------------------------------------- flag counts


def test_projective_line():
    assert len(enumerate_flags(gl(2), C((1, 1)), 2)) == 3


def test_full_flags_gl3():
    assert len(enumerate_flags(gl(3), C((1, 1, 1)), 2)) == 21


def test_isotropic_lines_sp4():
    # every line is isotropic for a symplectic form
    assert len(enumerate_flags(sp(2), SC((1,), 2), 2)) == 15


def test_lagrangian_grassmannian_sp4():
    assert len(enumerate_flags(sp(2), SC((2,), 0), 2)) == 15
    assert len(enumerate_flags(sp(2), SC((2,), 0), 3)) == 40


def test_counts_match_closed_forms():
    for n, shape, q in [
        (3, C((2, 1)), 2),
        (3, C((1, 1, 1)), 3),
        (4, C((2, 2)), 2),
        (4, C((1, 3)), 3),
    ]:
        assert len(enumerate_flags(gl(n), shape, q)) == flag_count(gl(n), shape, q)
    for rank, shape, q in [(2, SC((1, 1), 0), 2), (2, SC((1,), 2), 3), (3, SC((2,), 2), 2)]:
        assert len(enumerate_flags(sp(rank), shape, q)) == flag_count(
            sp(rank), shape, q
        )


def test_enumeration_audit_raises(monkeypatch):
    # the walk audits itself against flag_count as orbits reads it
    real = dflag.orbits.flag_count
    monkeypatch.setattr(dflag.orbits, "flag_count", lambda *args: real(*args) + 1)
    with pytest.raises(CrossCheckError):
        enumerate_flags(gl(3), C((1, 2)), 2)
    with pytest.raises(CrossCheckError):
        enumerate_flags(sp(2), SC((2,), 0), 3)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(3, 3, 5) == 1


def test_flag_count_caches_are_bounded():
    for cached in (gaussian_binomial, symplectic_gram):
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0


def test_budget_exceeded_carries_count():
    with pytest.raises(BudgetExceededError) as info:
        enumerate_flags(gl(4), C((1, 1, 1, 1)), 3, budget=100)
    assert info.value.size == 2080


def test_refusal_comes_before_any_walk(monkeypatch):
    def never(*args):
        raise AssertionError("walked a space over budget")

    monkeypatch.setattr(dflag.orbits, "_walk_flags", never)
    monkeypatch.setattr(dflag.orbits, "_lines", never)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_flags(gl(4), C((1, 1, 1, 1)), 3, budget=100)
    assert info.value.size == 2080


def test_one_refusal_for_a_space_over_budget():
    # the enumeration and the product check refuse a space in one wording
    from dflag.orbits import _check_budget

    messages = []
    for refuse in (
        lambda: enumerate_flags(sp(2), SC((1, 1), 0), 3, budget=100),
        lambda: _check_budget([(gl(2), C((1, 1))), (sp(2), SC((1, 1), 0))], 3, 100),
    ):
        with pytest.raises(BudgetExceededError) as info:
            refuse()
        messages.append(str(info.value))
    assert messages == ["Sp4/1,1,1,1 has 160 points over F_3, budget 100"] * 2


# ------------------------------------------------------------ generators


def _closure(gens, dim, q):
    """Every product of the generators, by breadth-first multiplication."""
    seen = {identity(dim)}
    frontier = list(seen)
    while frontier:
        frontier = [gfq.mat_mul(g, m, q) for m in frontier for g in gens]
        frontier = [m for m in set(frontier) if m not in seen]
        seen.update(frontier)
    return sorted(seen)


def _unit(dim, entries):
    return tuple(
        tuple(entries.get((i, j), int(i == j)) for j in range(dim)) for i in range(dim)
    )


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gl_generators_reach_every_cyclic_simple_root(n, q):
    # <E_(k,k+1) for k mod n> is SL_n, and the diagonal letter's
    # determinant generates F_q^*: the proof in the _letters docstring
    letters = _letters(gl(n), q)
    gens = list(letters.values())
    assert list(letters) == ["u", "c"][: 2 * (n >= 2)] + ["d"][: q > 2]
    if n >= 2:
        e12, cycle = gens[:2]
        conj = e12
        for k in range(n):
            assert conj == _unit(n, {(k, (k + 1) % n): 1})
            conj = gfq.mat_mul(gfq.mat_mul(cycle, conj, q), mat_inv(cycle, q), q)
    if q > 2:
        z = gens[-1][0][0]
        assert gens[-1] == _unit(n, {(0, 0): z})
        assert len({pow(z, k, q) for k in range(1, q)}) == q - 1


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sp_letters_are_the_siegel_levi_and_the_long_roots(n, q):
    # each letter is symplectic; the first are GL_n's letters m but d
    # as diag(m, m^-T mirrored), the last two x_(+-2e_n)(1): the root
    # subgroups generate Sp_2n, so its torus needs no letter of its own
    dim = 2 * n
    j = symplectic_gram(n, q)
    letters = _letters(sp(n), q)
    for g in letters.values():
        assert gfq.mat_mul(gfq.mat_mul(gfq.transpose(g), j, q), g, q) == j
    gl_letters = {name: m for name, m in _letters(gl(n), q).items() if name != "d"}
    assert list(letters) == list(gl_letters) + ["x+", "x-"]
    flip = [[int(a + b == n - 1) for b in range(n)] for a in range(n)]
    for name, m in gl_letters.items():
        dual = gfq.mat_mul(gfq.mat_mul(flip, gfq.transpose(mat_inv(m, q)), q), flip, q)
        g = letters[name]
        assert tuple(row[:n] for row in g[:n]) == m
        assert tuple(row[n:] for row in g[n:]) == dual
        assert not any(g[a][b] for a in range(dim) for b in range(dim) if (a < n) != (b < n))
    for name, (a, b) in (("x+", (n - 1, n)), ("x-", (n, n - 1))):
        assert letters[name] == _unit(dim, {(a, b): 1})


def test_generators_close_to_small_groups():
    # |GL_2(F_3)| = 48, |GL_3(F_2)| = 168, |Sp_2(F_3)| = 24, |Sp_2(F_5)| = 120,
    # |Sp_4(F_2)| = 720; Sp_2's letters are x+- alone
    cases = [(gl(2), 3, 48), (gl(3), 2, 168), (sp(1), 3, 24), (sp(1), 5, 120), (sp(2), 2, 720)]
    for group, q, order in cases:
        assert len(_closure(list(_letters(group, q).values()), group.dim, q)) == order


def test_symplectic_gram_antidiagonal():
    j = symplectic_gram(2, 3)
    assert j[0][3] == 1 and j[3][0] == 2  # -1 mod 3


# ------------------------------------------------------------ orbit counts


def test_orbit_walk_on_hand_built_space():
    # one generator with cycles (0) (1 2) (3 4 5): orbits of sizes 1, 2, 3
    space = (6, [(0, 2, 1, 4, 5, 3)])
    assert _orbit_count(*space) == 3
    assert reference_orbits([space]) == (6, 3)


def test_non_bijective_generator_raises():
    collapsing = (0, 0, 1)
    with pytest.raises(CrossCheckError):
        _check_permutations(3, [[collapsing]])
    fine = (1, 2, 0)
    with pytest.raises(CrossCheckError):  # every generator is checked, not only the first
        _check_permutations(3, [[fine, collapsing]])
    out_of_range = (1, 2)
    with pytest.raises(CrossCheckError):
        _check_permutations(2, [[out_of_range]])
    # -1 would mark the last point: (-1, 0) marks both points of 2
    negative = (-1, 0)
    with pytest.raises(CrossCheckError, match="does not permute a space of 2 points"):
        _check_permutations(2, [[negative]])


def test_each_permutation_is_checked_once_before_any_orbit_is_counted(monkeypatch):
    # GL_4 B;B;B at q = 3 sums over 24 double cosets; their generators
    # are 10 distinct words, the letters' and the memoized ones
    borels = [borel(gl(4))] * 3
    checked, counted = [], []
    real_check, real_count = dflag.orbits._is_permutation, dflag.orbits._orbit_count

    def check(perm, size):
        checked.append(perm)
        return real_check(perm, size)

    def count(size, perms):
        counted.append(len(checked))
        return real_count(size, perms)

    monkeypatch.setattr(dflag.orbits, "_is_permutation", check)
    monkeypatch.setattr(dflag.orbits, "_orbit_count", count)
    assert count_triple_orbits(gl(4), borels, 3, budget=10**9) == 2469
    assert len(checked) == len({id(p) for p in checked}) == 10
    assert counted == [10] * 24  # every check came first
    # the last of them fails: nothing is counted
    checked.clear()
    counted.clear()

    def last_fails(perm, size):
        return check(perm, size) and len(checked) < 10

    monkeypatch.setattr(dflag.orbits, "_is_permutation", last_fails)
    with pytest.raises(CrossCheckError, match="does not permute"):
        count_triple_orbits(gl(4), borels, 3, budget=10**9)
    assert (len(checked), counted) == (10, [])


def test_the_bijection_check_takes_a_byte_per_point():
    # a set of the points would take about 32 bytes each
    import tracemalloc

    size = 200_000
    perm = list(range(size))[::-1]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _is_permutation(perm, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * size


def _product_space(spaces):
    """The product of ``spaces`` as one space: point (i, j, ...) has the
    mixed-radix index i * s2 * s3 ... + j * s3 ... + ..."""
    size, perms = spaces[0]
    for s, ps in spaces[1:]:
        perms = [[a * s + b for a in pa for b in pb] for pa, pb in zip(perms, ps, strict=True)]
        size *= s
    return size, perms


def test_product_orbits_match_reference_union_find():
    # the orbit walk on a product, folded here into one space, against
    # union-find over its tuples
    rng = random.Random(20261018)
    for trial in range(60):
        n_factors = 1 + trial % 3
        n_gens = rng.randint(0, 3)
        spaces = []
        for _ in range(n_factors):
            size = rng.randint(1, 7)
            perms = []
            for _ in range(n_gens):
                perm = list(range(size))
                rng.shuffle(perm)
                perms.append(tuple(perm))
            spaces.append((size, perms))
        size, perms = _product_space(spaces)
        assert (size, _orbit_count(size, perms)) == reference_orbits(spaces)


def _rref_points(group, shape, q):
    """The points of the orbit-built X_P in rref, through their lines."""
    subspaces, points, _ = _walk_flags(group, shape, q)
    vecs, _ = _lines(group.dim, q)
    subs = [gfq.rref([vecs[i] for i in sub], q) for sub in subspaces]
    return [tuple(subs[s] for s in pt) for pt in points]


def _compositions(d):
    for k in range(d):
        for cuts in itertools.combinations(range(1, d), k):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (d,)))


def _every_shape(group):
    """Every shape of GL_n or Sp_2n, the whole group included."""
    if group.family is GroupFamily.GENERAL_LINEAR:
        return [C(c) for c in _compositions(group.n)]
    return [SC((), group.dim)] + [
        SC(c, group.dim - 2 * d) for d in range(1, group.n + 1) for c in _compositions(d)
    ]


@pytest.mark.parametrize("q", [2, 3])
def test_the_walked_letters_and_the_points_are_one_walk(q):
    # the walk gives the letters with its permutations of its points,
    # the same on every walk, and enumerate_flags writes those points
    # in rref
    for group in (gl(2), gl(3), gl(4), sp(1), sp(2)):
        letters = _letters(group, q)
        for shape in _every_shape(group):
            _, points, walked = _walk_flags(group, shape, q)
            words = _walk_flags(group, shape, q)[2]
            assert words == walked
            assert list(words) == list(letters)
            assert [w.mat for w in words.values()] == list(letters.values())
            assert all(len(w.perm) == len(points) for w in words.values())
            assert enumerate_flags(group, shape, q) == sorted(_rref_points(group, shape, q))


@pytest.mark.parametrize("q", [2, 3])
def test_walked_letter_permutations_match_per_flag_action(q):
    # the walk's record of each letter, and the lines' permutations
    # where X_P is the lines, against apply_to_flag on every point
    cases = [
        (gl(4), C((1, 1, 1, 1))),
        (gl(4), C((1, 3))),
        (sp(2), SC((1, 1), 0)),
        (sp(2), SC((1,), 2)),
    ]
    for group, shape in cases:
        flags = enumerate_flags(group, shape, q)
        index = {pt: i for i, pt in enumerate(_rref_points(group, shape, q))}
        letters = _walk_flags(group, shape, q)[2]
        assert list(letters) == list(_letters(group, q))
        for word in letters.values():
            plain = [None] * len(flags)
            for pt in flags:
                plain[index[pt]] = index[apply_to_flag(word.mat, pt, q)]
            assert list(word.perm) == plain


def test_kgb_counts_match_clans():
    from dflag.clans import enumerate_clans

    for p, q in [(1, 1), (2, 1)]:
        pair = SymmetricPairSpec.parse(f"AIII:{p},{q}")
        count = count_K_orbits(pair, borel(gl(p + q)), whole_K(pair), 2)
        assert count == len(enumerate_clans(p, q))


def test_point_times_flag_is_transitive():
    pair = SymmetricPairSpec.parse("AIII:1,1")
    Q = KParabolicSpec.parse(pair, "1;1")
    assert count_K_orbits(pair, whole_group(gl(2)), Q, 3) == 1


def test_pair_counts_equal_bruhat():
    P1 = ParabolicSpec(gl(3), C((2, 1)))
    P2 = ParabolicSpec(gl(3), C((1, 2)))
    expected = bruhat_double_cosets(P1, P2).count
    for q in (2, 3):
        assert count_triple_orbits(gl(3), [P1, P2], q) == expected == 2


def test_triple_full_flags_grow():
    counts = [count_triple_orbits(gl(3), [borel(gl(3))] * 3, q) for q in (2, 3)]
    assert counts[0] < counts[1]


def test_opposite_normalization():
    from dflag.groups import Orientation

    P = ParabolicSpec(gl(3), C((2, 1)))
    opp = ParabolicSpec(gl(3), C((1, 2)), Orientation.OPPOSITE)
    assert count_triple_orbits(gl(3), [borel(gl(3)), P], 2) == count_triple_orbits(
        gl(3), [borel(gl(3)), opp], 2
    )


def test_growth_probe_examples():
    pair = SymmetricPairSpec.parse("AIII:2,2")
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    report = growth_probe(pair, borel(gl(4)), Q)
    assert report.hint == "Growing"
    assert report.entries[0][1] == 315 * 9
    assert report.entries[1][1] == 2080 * 16

    pair12 = SymmetricPairSpec.parse("AIII:1,2")
    Q12 = KParabolicSpec.parse(pair12, "1;1,1")
    report = growth_probe(pair12, borel(gl(3)), Q12)
    assert report.hint == "Bounded"

    pair11 = SymmetricPairSpec.parse("AIII:1,1")
    report = growth_probe(pair11, borel(gl(2)), whole_K(pair11))
    assert report.hint == "Bounded"
    assert [orb for _, _, orb in report.entries] == [3, 3]


def test_growth_probe_needs_a_field(monkeypatch):
    # with no field counted, "Bounded" would be a hint with no data; the
    # input is refused before any budget check or walk
    def fail(*args):
        raise AssertionError("counted or charged with no field")

    monkeypatch.setattr(dflag.orbits, "_check_budget", fail)
    monkeypatch.setattr(dflag.orbits, "_count_orbits", fail)
    pair = SymmetricPairSpec.parse("AIII:1,1")
    with pytest.raises(ValueError, match="at least one field"):
        growth_probe(pair, borel(gl(2)), whole_K(pair), (), budget=0)


def test_growth_probe_refuses_a_repeated_field(monkeypatch):
    # F_3 twice would count one field twice and call it "Bounded"; the
    # input is refused before any budget check or walk
    def fail(*args):
        raise AssertionError("counted or charged a repeated field")

    monkeypatch.setattr(dflag.orbits, "_check_budget", fail)
    monkeypatch.setattr(dflag.orbits, "_count_orbits", fail)
    pair = SymmetricPairSpec.parse("AIII:1,1")
    with pytest.raises(ValueError, match=r"each once: \[3, 2, 3\]"):
        growth_probe(pair, borel(gl(2)), whole_K(pair), (3, 2, 3))


def test_cii_counts_are_field_stable():
    cii = SymmetricPairSpec.parse("CII:1,1")
    Q = KParabolicSpec.parse(cii, "1,1;1,1")
    P = ParabolicSpec(sp(2), SC((1,), 2))
    report = growth_probe(cii, P, Q, q_list=(2, 3, 5))
    assert report.hint == "Bounded"
    assert [orb for _, _, orb in report.entries] == [8, 8, 8]


def test_ci_characteristic_two_splitting():
    """Documented caveat: CI orbit counts can split between q = 2 and odd
    q because point stabilizers in K = GL_n may be disconnected (square
    classes collapse in characteristic 2).  The complex count is finite;
    the odd-characteristic counts agree with each other."""
    ci = SymmetricPairSpec.parse("CI:2")
    P = ParabolicSpec(sp(2), SC((1,), 2))
    Q = whole_K(ci)
    counts = {q: count_K_orbits(ci, P, Q, q) for q in (2, 3, 5)}
    assert counts[2] == 4  # the square classes of F_2 collapse
    assert counts[3] == counts[5] == 5
    report = growth_probe(ci, P, Q, q_list=(3, 5))
    assert report.hint == "Bounded"


def test_type_c_triple_counts_stabilize_at_odd_q():
    P = ParabolicSpec(sp(2), SC((1,), 2))
    counts = {q: count_triple_orbits(sp(2), [P, P, P], q) for q in (3, 5)}
    assert counts[3] == counts[5] == 18


def test_symplectic_audits_raise(monkeypatch):
    import dflag.orbits

    monkeypatch.setattr(dflag.orbits, "_is_symplectic", lambda *args: False)
    ci = SymmetricPairSpec.parse("CI:2")
    with pytest.raises(CrossCheckError):
        count_K_orbits(ci, borel(sp(2)), whole_K(ci), 3)
    for token in ("CII:1,1", "CII:1,2"):  # CII:1,2 and AII:4: Sp_4 root elements
        cii = SymmetricPairSpec.parse(token)
        with pytest.raises(CrossCheckError):
            count_K_orbits(cii, borel(cii.group), whole_K(cii), 3)
    aii = SymmetricPairSpec.parse("AII:4")
    with pytest.raises(CrossCheckError):
        count_K_orbits(aii, borel(gl(4)), whole_K(aii), 3)
    P = ParabolicSpec(sp(2), SC((1,), 2))
    for q in (2, 3):  # Sp_4's letters, or P1's root elements
        with pytest.raises(CrossCheckError):
            count_triple_orbits(sp(2), [P, P], q)


def test_a_matrix_that_leaves_X_P_is_a_cross_check_error(monkeypatch):
    # E_12(1) is not symplectic for the anti-diagonal form: as a letter
    # of Sp_4 it moves a Lagrangian plane of F_3^4 off the Lagrangian
    # planes, and the walk passes their count
    e12 = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(4)) for i in range(4))
    lagrangian = SC.from_full((2, 2))
    real_letters = dflag.orbits._letters
    monkeypatch.setattr(
        dflag.orbits, "_letters", lambda group, q: {**real_letters(group, q), "e12": e12}
    )
    with pytest.raises(CrossCheckError, match="base flag of Sp4/2,2 over F_3 passes its 40"):
        _walk_flags(sp(2), lagrangian, 3)
    # E_12(1) with e_1 sent to 0 is singular: as a letter it sends a line
    # of F_3^4 to 0, and its line permutation is refused
    degenerate = tuple((0,) + row[1:] for row in e12)
    monkeypatch.setattr(
        dflag.orbits, "_letters", lambda group, q: {**real_letters(group, q), "e12": degenerate}
    )
    _line_perm.cache_clear()
    try:
        with pytest.raises(CrossCheckError, match="4x4 matrix to act by is singular over F_3"):
            _walk_flags(sp(2), lagrangian, 3)
    finally:
        _line_perm.cache_clear()


def test_ai_oracle_unsupported():
    ai = SymmetricPairSpec.parse("AI:3")
    with pytest.raises(UnsupportedPairError):
        count_K_orbits(ai, borel(gl(3)), KParabolicSpec.parse(ai, "1,1,1"), 2)


def test_aii_oracle_supported():
    aii = SymmetricPairSpec.parse("AII:4")
    Q = KParabolicSpec.parse(aii, "1,2,1")
    P = ParabolicSpec(gl(4), C((2, 2)))
    report = growth_probe(aii, P, Q)
    assert report.hint == "Bounded"


def test_orbit_count_is_generator_set_invariant():
    # diagonal GL_2(F_2) on P^1 x P^1: 2 orbits (Bruhat), whether counted
    # with the small generating set or with every group element
    small = list(_letters(gl(2), 2).values())
    full = _closure(small, 2, 2)
    counts = []
    for gens in (small, full):
        spaces = [PointAction(gl(2), C((1, 1)), 2).space(gens) for _ in range(2)]
        _, orbits = reference_orbits(spaces)
        counts.append(orbits)
    assert counts == [2, 2]
    borel2 = ParabolicSpec(gl(2), C((1, 1)))
    assert count_triple_orbits(gl(2), [borel2, borel2], 2) == 2


# |K factor(F_q)| by (factor, q): the closure below must reach all of it
ORDERS = {
    ("Sp2", 2): 6, ("Sp4", 2): 720, ("GL1", 2): 1, ("GL2", 2): 6, ("GL3", 2): 168,
    ("GL1", 3): 2, ("GL2", 3): 48,
}


@pytest.mark.parametrize(
    "token, P, Q, q",
    [
        pytest.param("CII:1,1", SC((1, 1), 0), "1,1;1,1", 2, id="CII:1,1-P0-1,1;1,1"),
        pytest.param("AII:4", C((2, 2)), "1,2,1", 2, id="AII:4-P1-1,2,1"),
        ("AIII:1,2", C((1, 1, 1)), "1;1,1", 2),
        ("AIII:1,3", C((1, 1, 1, 1)), "1;2,1", 2),  # a Levi word, E_21
        ("CI:1", SC((1,), 0), "1", 3),
        ("CI:2", SC((1, 1), 0), "1,1", 3),  # the torus words matter at q = 3
        ("CI:2", SC((1,), 2), "1,1", 3),
    ],
)
def test_k_orbits_match_the_whole_group(token, P, Q, q):
    # every element of K(F_q), not just the generators, acting on X_P x Z_Q
    pair = SymmetricPairSpec.parse(token)
    Q = KParabolicSpec.parse(pair, Q)
    blocks = _reference_blocks(pair)
    elements = [[]]  # per element of K: (factor matrix, embedding) per factor
    for group, embed in blocks:
        factor = _closure(list(_letters(group, q).values()), group.dim, q)
        assert len(factor) == ORDERS[str(group), q]
        elements = [e + [(m, embed(m, q))] for e in elements for m in factor]
    ambient = []
    for e in elements:
        g = identity(pair.group.dim)
        for _, big in e:
            g = gfq.mat_mul(g, big, q)
        ambient.append(g)
    spaces = [PointAction(pair.group, P, q).space(ambient)]
    for i, ((group, _), shape) in enumerate(zip(blocks, Q.factors)):
        spaces.append(PointAction(group, shape, q).space([e[i][0] for e in elements]))
    _, orbits = reference_orbits(spaces)
    assert orbits == count_K_orbits(pair, ParabolicSpec(pair.group, P), Q, q)


def test_no_assert_in_the_oracle():
    # audits raise CrossCheckError, which python -O keeps, in every module
    import dflag

    modules = sorted(Path(dflag.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"assert in {path.name} at lines {lines}"


def _outside_imports(tree: ast.AST) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_runtime_imports_only_the_standard_library():
    # the package declares no dependencies
    import dflag

    modules = sorted(Path(dflag.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        names = _outside_imports(ast.parse(path.read_text()))
        assert names == [], f"{path.name} imports {names}"
    # the check itself sees each spelling of an outside import
    for source in ("import numpy", "import numpy.linalg as la", "from numpy import array"):
        assert _outside_imports(ast.parse(source)) == [source.split()[1]], source
    assert _outside_imports(ast.parse("from . import gfq\nimport itertools")) == []


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines of functools.cache, and of lru_cache with maxsize None."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return lines


def test_every_cache_is_bounded():
    import dflag

    modules = sorted(Path(dflag.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        lines = _unbounded_caches(ast.parse(path.read_text()))
        assert lines == [], f"unbounded cache in {path.name} at lines {lines}"
    # the check itself sees each spelling of an unbounded cache
    for source in (
        "from functools import cache",
        "import functools\n@functools.cache\ndef f(): pass",
        "@lru_cache(maxsize=None)\ndef f(): pass",
        "@functools.lru_cache(None)\ndef f(): pass",
    ):
        assert _unbounded_caches(ast.parse(source)), source
    assert _unbounded_caches(ast.parse("@lru_cache(maxsize=8)\ndef f(): pass")) == []
