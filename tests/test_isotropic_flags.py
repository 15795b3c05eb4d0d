"""The constructive enumeration of isotropic flags against a brute-force
reference.

The reference lists every k-subspace of F_q^{2n} as an echelon matrix,
keeps those on which the anti-diagonal form vanishes, and chains them
level by level: a flag ending in V extends by W exactly when V is one of
the subspaces of W.  It shares no code with ``dflag.flags`` beyond the
canonical form ``gfq.rref``.
"""

import itertools
from collections import defaultdict
from functools import lru_cache
from operator import mul

import pytest

from dflag import gfq
from dflag.compositions import SymplecticComposition as SC
from dflag.flags import _subspaces, enumerate_flags
from dflag.groups import sp


def _symplectic_shapes(n):
    shapes = [SC((), 2 * n)]
    for d in range(1, n + 1):
        for cuts in itertools.product((False, True), repeat=d - 1):
            left, run = [], 1
            for cut in cuts:
                if cut:
                    left.append(run)
                    run = 0
                run += 1
            left.append(run)
            shapes.append(SC(tuple(left), 2 * (n - d)))
    return shapes


@lru_cache(maxsize=None)
def _all_subspaces(dim, k, q):
    """Every k-subspace of F_q^dim as its reduced echelon matrix."""
    out = []
    for pivots in itertools.combinations(range(dim), k):
        slots = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, dim) if c not in pivots]
        template = [[int(c == p) for c in range(dim)] for p in pivots]
        for values in itertools.product(range(q), repeat=len(slots)):
            rows = [row[:] for row in template]
            for (r, c), v in zip(slots, values):
                rows[r][c] = v
            out.append(tuple(map(tuple, rows)))
    return out


def _form(u, v, n, q):
    dim = 2 * n
    return sum(u[i] * v[dim - 1 - i] - u[dim - 1 - i] * v[i] for i in range(n)) % q


def _isotropic(rows, n, q):
    return all(_form(u, v, n, q) == 0 for u, v in itertools.combinations(rows, 2))


@lru_cache(maxsize=None)
def _isotropic_subspaces(n, k, q):
    return [w for w in _all_subspaces(2 * n, k, q) if _isotropic(w, n, q)]


@lru_cache(maxsize=None)
def _faces(w, k, q):
    """The k-subspaces of the row space of the echelon matrix w, as c w
    for each k-subspace c of F_q^dim(w).  A product of two reduced
    echelon matrices of full rank is one, so each face is canonical."""
    cols = list(zip(*w))
    return [
        tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in coeffs)
        for coeffs in _all_subspaces(len(w), k, q)
    ]


def _reference_flags(n, dims, q):
    flags, prev = [()], 0
    for d in dims:
        ends = defaultdict(list)
        for flag in flags:
            ends[flag[-1] if flag else ()].append(flag)
        new = []
        for w in _isotropic_subspaces(n, d, q):
            for v in _faces(w, prev, q):
                new.extend(flag + (w,) for flag in ends.get(v, ()))
        flags, prev = new, d
    return sorted(flags)


CASES = [(n, q) for q in (2, 3) for n in (1, 2, 3)] + [(n, 5) for n in (1, 2)]


@pytest.mark.parametrize("n,q", CASES)
def test_enumeration_matches_brute_force(n, q):
    subs, steps = set(), set()  # over every shape, each checked once below
    for shape in _symplectic_shapes(n):
        flags = enumerate_flags(sp(n), shape, q)
        assert flags == _reference_flags(n, shape.isotropic_dims(), q), shape
        for flag in flags:
            subs.update(flag)
            steps.update(zip(flag, flag[1:]))
    for sub in subs:
        assert gfq.rref(sub, q) == sub
        assert _isotropic(sub, n, q)
    for small, big in steps:
        assert gfq.rref(big + small, q) == big


def test_symplectic_enumeration_lists_no_plain_subspaces():
    _subspaces.cache_clear()
    enumerate_flags(sp(3), SC((1, 2), 0), 3)
    assert _subspaces.cache_info().misses == 0
