"""Cross-module invariants: the classification tables against the
finite-field oracle, and clan counts at both small primes.

In type A the stabilizer of any tuple of flags is the unit group of the
endomorphism algebra of the configuration, hence connected, so orbit
counts of finite-type triples are literally equal across fields; for
infinite types they grow.  The sweeps below check both directions,
exhaustively at ranks 3 and 4, and at rank 5 on every triple whose
planned walk fits a cap: a triple count walks only its smallest factor,
once per Bruhat double coset of the other two.
"""

import itertools

from dflag.clans import enumerate_clans
from dflag.classify import mwz_classify_A
from dflag.compositions import Composition as C
from dflag.flags import DEFAULT_BUDGET, flag_count
from dflag.groups import ParabolicSpec, borel, gl
from dflag.orbits import count_K_orbits, count_triple_orbits
from dflag.pairs import SymmetricPairSpec, whole_K
from dflag.weyl import bruhat_double_cosets


def _proper_comps(n):
    out = []
    for cuts in range(1 << (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        if len(parts) >= 2:
            out.append(tuple(parts))
    return out


def _sweep(n, triples, budget=DEFAULT_BUDGET):
    checked = 0
    for shapes in triples:
        specs = [ParabolicSpec(gl(n), C(s)) for s in shapes]
        counts = [count_triple_orbits(gl(n), specs, q, budget) for q in (2, 3)]
        finite = mwz_classify_A(*(C(s) for s in shapes)).finite
        if finite:
            assert counts[0] == counts[1], (n, shapes, counts)
        else:
            assert counts[0] < counts[1], (n, shapes, counts)
        checked += 1
    return checked


def test_mwz_exhaustive_versus_oracle_rank3():
    shapes = _proper_comps(3)
    checked = _sweep(3, itertools.product(shapes, repeat=3))
    assert checked == len(shapes) ** 3


def test_mwz_exhaustive_versus_oracle_rank4():
    # every unordered triple of proper shapes, finite and infinite
    triples = list(itertools.combinations_with_replacement(_proper_comps(4), 3))
    assert len(triples) == 84
    assert _sweep(4, triples) == 84


# the points a rank 5 sweep may walk per triple, summed over q = 2, 3;
# fixed before any count was run
WALK_CAP = 1_000
# the budget charges the product of the factors after the first, not
# the walk (ROADMAP item 8), and refuses some triples whose walk is
# small (30,453,280 points > 10^7); this one lies above every product of
# two flag varieties of GL_5 over F_3, so the walk cap alone selects
RANK5_BUDGET = 10**11


def _planned_walk(n, shapes):
    """The points count_triple_orbits walks at q = 2 and 3, from closed
    forms and double coset counts: the smallest factor X_k, the first
    on a tie, once per double coset of the other two."""
    specs = [ParabolicSpec(gl(n), C(s)) for s in shapes]
    total = 0
    for q in (2, 3):
        sizes = [flag_count(gl(n), P.shape, q) for P in specs]
        k = sizes.index(min(sizes))
        total += bruhat_double_cosets(*specs[:k], *specs[k + 1 :]).count * sizes[k]
    return total


def test_mwz_versus_oracle_rank5_by_planned_cost():
    triples = [
        shapes
        for shapes in itertools.combinations_with_replacement(_proper_comps(5), 3)
        if _planned_walk(5, shapes) <= WALK_CAP
    ]
    assert len(triples) == 73
    assert _sweep(5, triples, RANK5_BUDGET) == 73


def test_mwz_oracle_spot_checks_rank5():
    finite_triples = [
        ((3, 2), (4, 1), (4, 1)),  # maximal shapes: D row
        ((2, 2, 1), (4, 1), (4, 1)),  # lengths (3, 2, 2): D row
    ]
    for shapes in finite_triples:
        specs = [ParabolicSpec(gl(5), C(s)) for s in shapes]
        counts = [count_triple_orbits(gl(5), specs, q) for q in (2, 3)]
        assert mwz_classify_A(*(C(s) for s in shapes)).finite
        assert counts[0] == counts[1], (shapes, counts)


def test_clan_counts_at_both_primes():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        pair = SymmetricPairSpec.parse(f"AIII:{p},{q}")
        expected = len(enumerate_clans(p, q))
        for field in (2, 3):
            got = count_K_orbits(pair, borel(gl(p + q)), whole_K(pair), field)
            assert got == expected, (p, q, field)
