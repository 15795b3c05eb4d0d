"""The walked flag varieties of GL_n and Sp_2n against a brute-force
reference.

``dflag.enumerate_flags`` lists the points of the orbit walk of
``dflag.orbits``.  The reference lists every k-subspace of F_q^dim as an
echelon matrix, keeps for Sp_2n those on which the anti-diagonal form
vanishes, and chains them level by level: a flag ending in V extends by
W exactly when V is one of the subspaces of W.  It shares no code with
dflag beyond the canonical form ``gfq.rref``.
"""

import itertools
from collections import defaultdict
from functools import lru_cache
from operator import mul

import pytest

from dflag import gfq
from dflag.flags import enumerate_flags
from dflag.groups import GroupFamily, gl, sp
from test_fforacle import _every_shape


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


def _reference_flags(group, dims, q):
    symplectic = group.family is GroupFamily.SYMPLECTIC
    flags, prev = [()], 0
    for d in dims:
        ends = defaultdict(list)
        for flag in flags:
            ends[flag[-1] if flag else ()].append(flag)
        new = []
        if symplectic:
            levels = _isotropic_subspaces(group.n, d, q)
        else:
            levels = _all_subspaces(group.dim, d, q)
        for w in levels:
            for v in _faces(w, prev, q):
                new.extend(flag + (w,) for flag in ends.get(v, ()))
        flags, prev = new, d
    return sorted(flags)


CASES = [(g, q) for g in (gl(2), gl(3), gl(4), sp(1), sp(2), sp(3)) for q in (2, 3)]
CASES += [(sp(1), 5), (sp(2), 5)]


@pytest.mark.parametrize("group, q", [pytest.param(g, q, id=f"{g}-F{q}") for g, q in CASES])
def test_enumeration_matches_brute_force(group, q):
    symplectic = group.family is GroupFamily.SYMPLECTIC
    shapes = _every_shape(group)
    assert len(set(shapes)) == 2 ** (group.n - 1 + symplectic)
    subs, steps = set(), set()  # over every shape, each checked once below
    for shape in shapes:
        dims = shape.breaks()
        flags = enumerate_flags(group, shape, q)
        assert flags == _reference_flags(group, dims, q), shape
        for flag in flags:
            subs.update(flag)
            steps.update(zip(flag, flag[1:]))
    for sub in subs:
        assert gfq.rref(sub, q) == sub
        assert not symplectic or _isotropic(sub, group.n, q)
    for small, big in steps:
        assert gfq.rref(big + small, q) == big
