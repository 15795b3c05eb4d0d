"""Orbit counting over F_q by closure under generators.

Spaces are lists of canonical points; each generator is converted once
into a permutation of the point indices, acting on each distinct
subspace of the points only once.  Orbit fusion on a product of spaces
is then pure integer work: every factor after the first is folded into
one permutation per generator, and each orbit is walked from a list
that grows while it is read.  Every permutation is checked to be a
bijection, and the sum of orbit sizes is audited against the total
point count on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import gfq
from .errors import BudgetExceededError, CrossCheckError, UnsupportedPairError
from .flags import (
    DEFAULT_BUDGET,
    apply_to_flag,
    budgeted_flag_count,
    enumerate_flags,
    flag_count,
    matrix_move,
    symplectic_gram,
)
from .groups import (
    GroupDatum,
    GroupFamily,
    ParabolicSpec,
    gl,
    parabolic_root_set,
    sp,
)
from .gfq import Mat
from .pairs import KFactor, KParabolicSpec, SymmetricPairSpec, check_membership

__all__ = [
    "OrbitCountReport",
    "count_K_orbits",
    "check_triple_budget",
    "count_triple_orbits",
    "growth_probe",
]


@lru_cache(maxsize=None)
def _space_points(group: GroupDatum, shape, q: int):
    """Canonical point list and index of one flag variety, shared across
    orbit computations."""
    count = flag_count(group, shape, q)
    pts = enumerate_flags(group, shape, q, budget=count)
    return tuple(pts), {pt: i for i, pt in enumerate(pts)}


@lru_cache(maxsize=512)
def _perm_for(group: GroupDatum, shape, q: int, mat: Mat):
    """The permutation of the point indices induced by mat, acting through
    its move.  Nested flags share their lower subspaces, so each distinct
    subspace is moved once."""
    pts, index = _space_points(group, shape, q)
    move = matrix_move(mat, q)
    images = {}
    for pt in pts:
        for sub in pt:
            if sub not in images:
                images[sub] = apply_to_flag(move, (sub,), q)[0]
    image = images.__getitem__
    return tuple(index[tuple(map(image, pt))] for pt in pts)


@dataclass
class _Space:
    """A finite G-set with each generator realized as a permutation."""

    points: list
    perms: list

    @classmethod
    def flags(cls, group: GroupDatum, shape, q: int, mats: list[Mat | None]):
        pts, _ = _space_points(group, shape, q)
        identity_perm = None
        perms = []
        for m in mats:
            if m is None:
                if identity_perm is None:
                    identity_perm = tuple(range(len(pts)))
                perms.append(identity_perm)
            else:
                perms.append(_perm_for(group, shape, q, m))
        return cls(list(pts), perms)


def _check_budget(factors, q: int, budget: int) -> None:
    """Refuse a product of flag varieties from their closed-form sizes,
    before any of them is enumerated: first a factor over the budget,
    then the product."""
    total = 1
    for group, shape in factors:
        total *= budgeted_flag_count(group, shape, q, budget)
    if total > budget:
        raise BudgetExceededError(
            f"product has {total} points, budget {budget}", total, budget
        )


def _product_orbits(spaces: list[_Space]) -> tuple[int, int]:
    """(total points, orbit count) for the diagonal action on the product.

    The factors after the first are folded into one permutation per
    generator of their product, so point (i, j) has index i * s2 + j.
    Each orbit is walked forwards only, from a list that grows while it
    is read.  That finds the whole orbit because every generator is a
    bijection of a finite set (its inverse is one of its powers), which
    is checked first.
    """
    for space in spaces:
        everything = set(range(len(space.points)))
        for perm in space.perms:
            if len(perm) != len(everything) or set(perm) != everything:
                raise CrossCheckError(
                    f"a generator does not permute a space of {len(everything)} points"
                )
    first, rest = spaces[0], spaces[1:]
    s2 = 1
    folded = [(0,)] * len(first.perms)
    for space in rest:
        size = len(space.points)
        folded = [
            [a * size + b for a in pa for b in pb]
            for pa, pb in zip(folded, space.perms, strict=True)
        ]
        s2 *= size
    gens = [
        ([a * s2 for a in pa], pb)
        for pa, pb in zip(first.perms, folded, strict=True)
    ]
    total = len(first.points) * s2
    seen = bytearray(total)
    orbits = orbit_total = 0
    for start in range(total):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = 1
        orbit = [start]
        for x in orbit:
            i = x // s2
            j = x - i * s2
            for scaled, pb in gens:
                y = scaled[i] + pb[j]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit_total += len(orbit)
    if orbit_total != total:
        raise CrossCheckError(
            f"orbit sizes add up to {orbit_total}, the product has {total} points"
        )
    return total, orbits


def _embed_block(m: Mat, coords, dim: int, big: Mat | None = None) -> Mat:
    """big (the identity by default) with m written on the rows and
    columns ``coords``."""
    big = [list(r) for r in (big or gfq.identity(dim))]
    for a, i in enumerate(coords):
        for b, j in enumerate(coords):
            big[i][j] = m[a][b]
    return tuple(tuple(r) for r in big)


def _is_symplectic(m: Mat, n: int, q: int) -> bool:
    j = symplectic_gram(n, q)
    return gfq.mat_mul(gfq.mat_mul(gfq.transpose(m), j, q), m, q) == j


def _checked_symplectic(m: Mat, n: int, q: int) -> Mat:
    """m itself, after auditing that it lies in Sp_2n(F_q)."""
    if not _is_symplectic(m, n, q):
        raise CrossCheckError(f"a generator built for Sp_{2 * n}(F_{q}) is not symplectic")
    return m


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = (x * g) % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


def _generators(group: GroupDatum, q: int) -> list[Mat]:
    """A small set of matrices that generates group(F_q), q prime.

    GL_n: E_12(1), the n-cycle c with c e_k = e_(k+1), and for q > 2
    diag(z, 1, ..., 1) with z a primitive root.  The conjugates
    c^k E_12 c^-k are E_(k+1,k+2)(1) for every k, indices taken mod n:
    the root elements of the simple roots and of the lowest root
    e_n - e_1.  Commutators of E_(n,1) with the simple ones give every
    E_ij(1), whose powers are all elementary matrices over F_q, so the
    set generates SL_n.  The diagonal element's determinant z generates
    F_q^*, which gives GL_n (over F_2, GL_n = SL_n).

    Sp_2n: x_(+-a)(1) for the simple roots a = e_i - e_(i+1) and 2 e_n.
    Over F_q, q prime, x_a(1) generates the root subgroup X_a, and
    x_a(1) x_-a(-1) x_a(1) lifts the reflection s_a, so the group holds
    X_b for every root b; these generate Sp_2n(F_q) in every
    characteristic, F_2 included (Steinberg, Lectures on Chevalley
    Groups, section 3).
    """
    n = group.n
    if group.family is GroupFamily.SYMPLECTIC:
        simple = [tuple(int(k == i) - int(k == i + 1) for k in range(n)) for i in range(n - 1)]
        simple.append(tuple(2 * int(k == n - 1) for k in range(n)))
        return [
            _sp_root_element(n, tuple(sign * c for c in alpha), q)
            for alpha in simple
            for sign in (1, -1)
        ]
    gens: list[Mat] = []
    if n >= 2:
        gens.append(_unit_matrix_with(n, {(0, 1): 1}, q))
        gens.append(tuple(tuple(int(i == (j + 1) % n) for j in range(n)) for i in range(n)))
    if q > 2:
        gens.append(_unit_matrix_with(n, {(0, 0): _primitive_root(q)}, q))
    return gens


def _k_blocks(pair: SymmetricPairSpec):
    """(group, embedding into G) for each factor of K, in the order of
    the factors of Q; embed(m, q) is the image of a factor matrix m."""
    blocks = []
    for factor in pair.k_factors:
        if factor.family == "so":
            raise UnsupportedPairError(
                "orbit counting over F_q is not implemented for AI pairs "
                "(orthogonal groups degenerate in characteristic 2)"
            )
        group = (gl if factor.family == "gl" else sp)(factor.rank)
        blocks.append((group, _embedding(pair.group, factor)))
    return blocks


def _embedding(group: GroupDatum, factor: KFactor):
    """m placed on the factor's coordinates.  CI's GL_n also acts by
    the contragredient m^{-T} on their mirror images, which the
    anti-diagonal form pairs with them; every image in Sp_2n is audited."""
    n, dim, coords = group.n, group.dim, factor.coords
    if group.family is GroupFamily.GENERAL_LINEAR:
        return lambda m, q: _embed_block(m, coords, dim)

    def embed(m: Mat, q: int) -> Mat:
        big = _embed_block(m, coords, dim)
        if factor.family == "gl":
            dual = gfq.transpose(gfq.mat_inv(m, q))
            big = _embed_block(dual, [dim - 1 - c for c in coords], dim, big)
        return _checked_symplectic(big, n, q)

    return embed


def count_K_orbits(
    pair: SymmetricPairSpec,
    P: ParabolicSpec,
    Q: KParabolicSpec,
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Orbits of K(F_q) acting diagonally on X_P(F_q) x Z_Q(F_q)."""
    _, orbits = _count_K_orbits_full(pair, P, Q, q, budget)
    return orbits


def _orbit_factors(pair, P, Q, q) -> list:
    """(group, shape) of X_P and of each K-factor of Z_Q, after checking
    the input."""
    gfq.check_prime(q)
    check_membership(pair, P, Q)
    P = P.standard_form()
    z_factors = [(group, shape) for (group, _), shape in zip(_k_blocks(pair), Q.factors)]
    return [(P.group, P.shape)] + z_factors


def _count_K_orbits_full(pair, P, Q, q, budget) -> tuple[int, int]:
    """(points, orbits): each generator of a K-factor moves X_P through
    its embedding, its own factor of Z_Q, and no other factor."""
    factors = _orbit_factors(pair, P, Q, q)
    blocks = _k_blocks(pair)
    ambient, per_factor = [], [[] for _ in blocks]
    for i, (group, embed) in enumerate(blocks):
        for m in _generators(group, q):
            ambient.append(embed(m, q))
            for j, mats in enumerate(per_factor):
                mats.append(m if j == i else None)
    return _count_orbits(factors, [ambient, *per_factor], q, budget)


def _count_orbits(factors, mats, q: int, budget: int) -> tuple[int, int]:
    """(points, orbits) on the product of the flag varieties ``factors``,
    each a (group, shape), after the budget check; mats[i] lists the
    matrix by which each generator acts on factor i (None: trivially)."""
    _check_budget(factors, q, budget)
    spaces = [
        _Space.flags(group, shape, q, m) for (group, shape), m in zip(factors, mats, strict=True)
    ]
    return _product_orbits(spaces)


def _parabolic_generators(P: ParabolicSpec, q: int) -> list[Mat]:
    """Generators of P(F_q) for a Standard parabolic: one root-subgroup
    element per root of Lie(P) plus torus generators.

    P is the product of its torus and root subgroups, so this set
    certainly generates; no commutator relations are relied on.
    """
    group = P.group
    n = group.n
    dim = group.dim
    gens: list[Mat] = []
    if q > 2:
        prim = _primitive_root(q)
        for i in range(n):
            if group.family is GroupFamily.GENERAL_LINEAR:
                gens.append(_unit_matrix_with(n, {(i, i): prim}, q))
            else:
                entries = {(i, i): prim, (dim - 1 - i, dim - 1 - i): pow(prim, -1, q)}
                gens.append(_checked_symplectic(_unit_matrix_with(dim, entries, q), n, q))
    for alpha in sorted(parabolic_root_set(P)):
        gens.append(_root_element(group, alpha, q))
    return gens


def _unit_matrix_with(dim: int, entries: dict, q: int) -> Mat:
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for (i, j), v in entries.items():
        m[i][j] = v % q
    return tuple(tuple(r) for r in m)


def _root_element(group: GroupDatum, alpha, q: int) -> Mat:
    """x_alpha(1) as a matrix in the fixed realization."""
    if group.family is GroupFamily.GENERAL_LINEAR:
        i, j = alpha
        return _unit_matrix_with(group.n, {(i - 1, j - 1): 1}, q)
    return _sp_root_element(group.n, alpha, q)


def _sp_root_element(n: int, alpha, q: int) -> Mat:
    """x_alpha(1) in Sp_2n for the anti-diagonal form.

    The primary matrix position is read off the epsilon coordinates;
    the paired correction coefficient is found by search over F_q.
    """
    dim = 2 * n
    support = [(i, c) for i, c in enumerate(alpha) if c]
    negative = support[0][1] < 0
    vec = tuple(-c for c in alpha) if negative else alpha
    support = [(i, c) for i, c in enumerate(vec) if c]
    coeffs = [c for _, c in support]
    if coeffs == [2]:
        (i, _), = support
        positions = [(i, dim - 1 - i)]
    elif coeffs == [1, -1]:
        (i, _), (j, _) = support
        positions = [(i, j), (dim - 1 - j, dim - 1 - i)]
    elif coeffs == [1, 1]:
        (i, _), (j, _) = support
        positions = [(i, dim - 1 - j), (j, dim - 1 - i)]
    else:
        raise CrossCheckError(f"{alpha} is not a root of Sp_{dim}")
    if negative:
        positions = [(b, a) for a, b in positions]
    if len(positions) == 1:
        return _checked_symplectic(_unit_matrix_with(dim, {positions[0]: 1}, q), n, q)
    first, second = positions
    for corr in range(q):
        m = _unit_matrix_with(dim, {first: 1, second: corr}, q)
        if _is_symplectic(m, n, q):
            return m
    raise CrossCheckError(f"no symplectic root element for {alpha}")


def _triple_specs(group: GroupDatum, parabolics: list[ParabolicSpec], q: int):
    """The parabolics in Standard form, after checking the input."""
    gfq.check_prime(q)
    if len(parabolics) not in (2, 3):
        raise ValueError("need two or three parabolic specs")
    if any(P.group != group for P in parabolics):
        raise ValueError("all parabolics must share the group")
    specs = [P.standard_form() for P in parabolics]
    if not specs[0].is_standard:
        raise ValueError("first parabolic must normalize to Standard")
    return specs


def check_triple_budget(
    group: GroupDatum,
    parabolics: list[ParabolicSpec],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Raise BudgetExceededError, from closed-form sizes alone, where
    count_triple_orbits with the same arguments would; lets a caller
    refuse a list of fields before counting any of them."""
    _, *rest = _triple_specs(group, parabolics, q)
    _check_budget([(group, P.shape) for P in rest], q, budget)


def count_triple_orbits(
    group: GroupDatum,
    parabolics: list[ParabolicSpec],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Orbits of diagonal G(F_q) on X_{P1} x ... x X_{Pk} (k = 2 or 3).

    G is transitive on the first factor, so this equals the number of
    P1(F_q)-orbits on the product of the remaining factors, which is
    what gets enumerated.  For a pair this is the Bruhat double coset
    count, independent of q.
    """
    first, *rest = _triple_specs(group, parabolics, q)
    gens = _parabolic_generators(first, q)
    factors = [(group, P.shape) for P in rest]
    _, orbits = _count_orbits(factors, [gens] * len(factors), q, budget)
    return orbits


@dataclass(frozen=True)
class OrbitCountReport:
    """Counts per field size plus a boundedness hint.

    The hint is an empirical signal, never a proof: Bounded means the
    counts agree across the sampled fields, Growing that they strictly
    increase.
    """

    entries: tuple[tuple[int, int, int], ...]  # (q, points, orbits)
    hint: str

    def rows(self):
        return [{"q": q, "points": pts, "orbits": orb} for q, pts, orb in self.entries]


def growth_probe(
    pair: SymmetricPairSpec,
    P: ParabolicSpec,
    Q: KParabolicSpec,
    q_list=(2, 3),
    budget: int = DEFAULT_BUDGET,
) -> OrbitCountReport:
    """Count orbits at each field size and classify the trend.

    Every field is checked against the budget before any is counted.
    Entries keep the order of ``q_list``; the trend is judged in order
    of field size."""
    for q in q_list:
        _check_budget(_orbit_factors(pair, P, Q, q), q, budget)
    entries = []
    for q in q_list:
        points, orbits = _count_K_orbits_full(pair, P, Q, q, budget)
        entries.append((q, points, orbits))
    by_size = sorted(entries)
    counts = [orb for _, _, orb in by_size]
    if all(c == counts[0] for c in counts):
        hint = "Bounded"
    elif all(a <= b for a, b in zip(counts, counts[1:])):
        hint = "Growing"
    else:
        raise CrossCheckError(
            f"orbit counts decrease along {[q for q, _, _ in by_size]}: {counts}"
        )
    return OrbitCountReport(tuple(entries), hint)
