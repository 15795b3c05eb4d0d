"""Orbit counting over F_q by walks over generator permutations.

Every count is one parabolic acting on the remaining flag varieties.
The triple count lets P1 act on X_P2 (x X_P3), since G is transitive
on X_P1.  The K-orbits on X_P x Z_Q match the Q-orbits on X_P one to
one, since K is transitive on Z_Q = K/Q, so only X_P is walked; the
points column is still |X_P x Z_Q|, from the closed forms.

Matrices act on lines.  Each matrix is turned once into a permutation
of the N = (q^dim - 1)/(q - 1) lines of F_q^dim: every normalized
vector (first nonzero entry 1) goes through the matrix's move and its
image is rescaled to lead with 1.  A flag variety X_P is built as the
orbit of its base flag, span(e_1, ..., e_d) for each break (or
isotropic dimension) d, under G's generators: a subspace is an
interned id for the sorted tuple of its line ids (a frozenset would
take about four times the memory), and a point is the tuple of its
subspaces' ids.  The walk raises CrossCheckError as soon as it passes
the closed-form count of X_P, and again if it falls short of it.  X_P
maps onto the lines or onto a Grassmannian of F_q^dim unless it is a
single point, so N <= |X_P| and the budget already checked on |X_P|
bounds the line table too; a single point is never given one.  A
matrix then permutes the points of X_P with one lookup per subspace
and one per point, and nothing is row reduced per subspace.

Orbit fusion on a product of spaces is pure integer work: every factor
after the first is folded into one permutation per generator, and each
orbit is walked from a list that grows while it is read.  Every
permutation is checked to be a bijection, and the sum of orbit sizes
is audited against the total point count on every call.

Both parabolics, Q in K and P1 in G, are Standard and act through the
same generators.  In type A such a parabolic is generated by the Borel
B = T U and the root subgroups X_-a of the simple roots a of its Levi
(commutators of these give the Levi's other negative roots), and U by
the simple root subgroups, because [I + E_ij, I + E_jk] = I + E_ik over
every field, F_2 included; over F_p every X_a is generated by x_a(1).
These generators are words in the group's own generators (see
_gl_parabolic_words), so their permutations of the lines are composed
from those of the group's generators, integer work only, and every
word's matrix is audited against the matrix it stands for.  In type C
each generator is a matrix acting directly: the Levi's blocks take
their own generators and the unipotent radical the root element x_b(1)
of every radical root b.  The simple radical roots would not suffice:
over F_2 the type C commutator relations lose their factor 2, and the
unipotent radical of the Borel of Sp_4(F_2), of order 16, is not
generated by two elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import gfq
from .errors import BudgetExceededError, CrossCheckError, UnsupportedPairError
from .flags import (
    DEFAULT_BUDGET,
    budgeted_flag_count,
    flag_count,
    matrix_move,
    move_vector,
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


@lru_cache(maxsize=4)
def _lines(dim: int, q: int):
    """The normalized vectors of F_q^dim, one per line, and the index of
    each: the line ids."""
    vecs = [
        (0,) * lead + (1,) + rest
        for lead in range(dim)
        for rest in itertools.product(range(q), repeat=dim - lead - 1)
    ]
    return tuple(vecs), {v: i for i, v in enumerate(vecs)}


@lru_cache(maxsize=64)
def _line_perm(mat: Mat, q: int) -> tuple[int, ...]:
    """The permutation of the line ids of F_q^dim induced by mat: each
    normalized vector is moved once and its image rescaled."""
    dim = len(mat)
    vecs, index = _lines(dim, q)
    move = matrix_move(mat, q)
    inverse = [0] + [pow(a, -1, q) for a in range(1, q)]  # a zero image finds no line
    perm = []
    try:
        for v in vecs:
            w = [x % q for x in move_vector(move, v)]
            lead = next(filter(None, w), 0)
            if lead != 1:
                w = [x * inverse[lead] % q for x in w]
            perm.append(index[tuple(w)])
    except KeyError:
        raise CrossCheckError(f"the image of a line of F_{q}^{dim} is not a line") from None
    return tuple(perm)


class _Orbit(NamedTuple):
    """A flag variety as the orbit of its base flag: its subspaces, as
    sorted tuples of line ids, with their ids, and its points, as tuples
    of subspace ids, with their indices."""

    name: str
    subspaces: tuple[tuple[int, ...], ...]
    subspace_ids: dict[tuple[int, ...], int]
    points: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]


@lru_cache(maxsize=8)
def _flag_orbit(group: GroupDatum, shape, q: int) -> _Orbit:
    """X_P, walked from its base flag under _generators(group, q), each
    subspace moved once per generator.  Only the walked factors are
    built (X_P, or the last factors of a triple), so a few entries
    suffice."""
    name = f"{group}/{shape} over F_{q}"
    count = flag_count(group, shape, q)
    if group.family is GroupFamily.SYMPLECTIC:
        dims = shape.isotropic_dims()
    else:
        dims = shape.breaks()
    subspaces, gens = [], []
    if dims:
        vecs, _ = _lines(group.dim, q)
        subspaces = [tuple(i for i, v in enumerate(vecs) if not any(v[d:])) for d in dims]
        gens = [(_line_perm(m, q).__getitem__, {}) for m in _generators(group, q)]
    subspace_ids = {lines: sid for sid, lines in enumerate(subspaces)}
    base = tuple(range(len(dims)))
    points, index = [base], {base: 0}
    for pt in points:
        for image, memo in gens:
            moved = []
            for sid in pt:
                tid = memo.get(sid)
                if tid is None:
                    lines = tuple(sorted(map(image, subspaces[sid])))
                    tid = subspace_ids.get(lines)
                    if tid is None:  # a new subspace makes a new point
                        tid = subspace_ids[lines] = len(subspaces)
                        subspaces.append(lines)
                    memo[sid] = tid
                moved.append(tid)
            moved = tuple(moved)
            if moved not in index:
                if len(points) == count:
                    raise CrossCheckError(
                        f"the orbit of the base flag of {name} passes its {count} points"
                    )
                index[moved] = len(points)
                points.append(moved)
    if len(points) != count:
        raise CrossCheckError(
            f"the orbit of the base flag of {name} has {len(points)} of its {count} points"
        )
    return _Orbit(name, tuple(subspaces), subspace_ids, tuple(points), index)


def _point_perm(orbit: _Orbit, lines: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of the points of ``orbit`` induced by the line
    permutation ``lines``: one lookup per subspace, one per point."""
    image, ids, index = lines.__getitem__, orbit.subspace_ids, orbit.index
    try:
        subs = [ids[tuple(sorted(map(image, sub)))] for sub in orbit.subspaces]
    except KeyError:
        raise CrossCheckError(
            f"the image of a subspace of {orbit.name} is not one of its subspaces"
        ) from None
    move = subs.__getitem__
    try:
        return tuple([index[tuple(map(move, pt))] for pt in orbit.points])
    except KeyError:
        raise CrossCheckError(
            f"the image of a point of {orbit.name} is not one of its points"
        ) from None


def _perm_for(group: GroupDatum, shape, q: int, mat: Mat) -> tuple[int, ...]:
    """The permutation of the points of X_P induced by mat."""
    return _point_perm(_flag_orbit(group, shape, q), _line_perm(mat, q))


@dataclass
class _Space:
    """A finite G-set with each generator realized as a permutation."""

    points: list
    perms: list

    @classmethod
    def flags(cls, group: GroupDatum, shape, q: int, mats: list[Mat]):
        points = _flag_orbit(group, shape, q).points
        return cls(points, [_perm_for(group, shape, q, m) for m in mats])


def _check_budget(factors, q: int, budget: int) -> int:
    """The size of a product of flag varieties, from their closed forms;
    refused before any of them is walked: first a factor over the
    budget, then the product."""
    total = 1
    for group, shape in factors:
        total *= budgeted_flag_count(group, shape, q, budget)
    if total > budget:
        raise BudgetExceededError(
            f"product has {total} points, budget {budget}", total, budget
        )
    return total


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
    """Orbits of K(F_q) acting diagonally on X_P(F_q) x Z_Q(F_q).

    K is transitive on Z_Q = K/Q and Q is the stabilizer of its base
    flag, so these are counted as the Q(F_q)-orbits on X_P, under the
    generators of Q described in the module docstring.  The budget is
    still checked against the whole product."""
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
    """(|X_P x Z_Q|, orbits), walking X_P alone under Q's generators."""
    factors = _orbit_factors(pair, P, Q, q)
    total = _check_budget(factors, q, budget)
    orbit = _flag_orbit(*factors[0], q)
    if not orbit.subspaces:  # X_G is one point; its lines are not bounded by the budget
        return total, 1
    perms = [
        _point_perm(orbit, w.perm)
        for (kgroup, embed), kshape in zip(_k_blocks(pair), Q.factors)
        for w in _parabolic_words(kgroup, kshape, q, embed)
    ]
    _, orbits = _product_orbits([_Space(orbit.points, perms)])
    return total, orbits


def _parabolic_words(group: GroupDatum, shape, q: int, embed) -> list[_Word]:
    """Generators of the Standard parabolic of ``shape`` in group(F_q),
    each with its permutation of the lines of G's natural module, on
    which it acts through embed(m, q): words in _generators(group, q) in
    type A, matrices in type C (see the module docstring)."""
    gens = _generators(group, q)
    if shape.is_proper and group.family is GroupFamily.SYMPLECTIC:
        gens = _sp_parabolic_generators(group.n, shape, q)
    words = [_Word(m, _line_perm(embed(m, q), q)) for m in gens]
    if shape.is_proper and group.family is GroupFamily.GENERAL_LINEAR:
        words = _gl_parabolic_words(shape, words, q)
    return words


class _Word(NamedTuple):
    """An element of a parabolic: its matrix and its permutation of the
    lines of G's natural module."""

    mat: Mat
    perm: tuple[int, ...]


def _times(a: _Word, b: _Word, q: int) -> _Word:
    """The word ab, which acts as a after b."""
    return _Word(gfq.mat_mul(a.mat, b.mat, q), tuple(map(a.perm.__getitem__, b.perm)))


def _inverse(a: _Word, q: int) -> _Word:
    perm = [0] * len(a.perm)
    for i, j in enumerate(a.perm):
        perm[j] = i
    return _Word(gfq.mat_inv(a.mat, q), tuple(perm))


def _gl_parabolic_words(shape, gens: list[_Word], q: int) -> list[_Word]:
    """Generators of the Standard parabolic of ``shape`` in GL_r(F_q), as
    words in the words ``gens`` of _generators(gl(r), q): u = E_12(1),
    the cycle c and, for q > 2, d = diag(z, 1, ..., 1).  Indices 1-based:

    * the torus, c^i d c^-i = diag(z at i+1), for q > 2;
    * every positive simple root, E_(i+1,i+2)(1) = c^i u c^-i;
    * the negative of each simple root of the Levi (k not a break of
      ``shape``), E_(k+1,k)(1) = c^(k-1) E_21 c^-(k-1).  E_21 comes from
      E_(r,1) = c^(r-1) u c^-(r-1) and E_(j,1) = [E_(j,j+1), E_(j+1,1)]
      for j = r-1, ..., 2, with [a, b] = a b a^-1 b^-1.

    Each word's matrix is audited against the matrix it stands for.
    """
    r = shape.size
    u, c, *torus = gens
    powers = [None, c]  # powers[k] = c^k
    while len(powers) < r:
        powers.append(_times(c, powers[-1], q))
    inverses = [None] + [_inverse(w, q) for w in powers[1:]]

    def conj(k: int, w: _Word) -> _Word:
        return w if k == 0 else _times(_times(powers[k], w, q), inverses[k], q)

    words = []  # (word, the matrix it must be)
    if torus:
        z = _primitive_root(q)
        words += [(conj(i, torus[0]), _unit_matrix_with(r, {(i, i): z}, q)) for i in range(r)]
    simple = [conj(i, u) for i in range(r - 1)]
    words += [(w, _unit_matrix_with(r, {(i, i + 1): 1}, q)) for i, w in enumerate(simple)]
    breaks = shape.breaks()
    levi = [k for k in range(1, r) if k not in breaks]
    if levi:
        e = conj(r - 1, u)
        for j in range(r - 1, 1, -1):
            a = simple[j - 1]
            e = _times(_times(a, e, q), _times(_inverse(a, q), _inverse(e, q), q), q)
        words += [(conj(k - 1, e), _unit_matrix_with(r, {(k, k - 1): 1}, q)) for k in levi]
    for w, expected in words:
        if w.mat != expected:
            raise CrossCheckError(
                f"a word for a generator of a parabolic of GL_{r}(F_{q}) "
                "does not give its matrix"
            )
    return [w for w, _ in words]


def _sp_parabolic_generators(n: int, shape, q: int) -> list[Mat]:
    """Generators of the Standard parabolic of ``shape`` in Sp_2n(F_q).

    The Levi's come from _generators: each GL block with its
    contragredient on the mirrored coordinates, the middle Sp block in
    place.  The unipotent radical takes x_b(1) for every radical root b,
    which generates it over every F_q, F_2 included.
    """
    group = sp(n)
    gens, start = [], 0
    for size in shape.left:
        block = KFactor("gl", size, tuple(range(start, start + size)))
        embed = _embedding(group, block)
        gens += [embed(m, q) for m in _generators(gl(size), q)]
        start += size
    if shape.middle:
        rank = shape.middle // 2
        embed = _embedding(group, KFactor("sp", rank, tuple(range(start, 2 * n - start))))
        gens += [embed(m, q) for m in _generators(sp(rank), q)]
    roots = parabolic_root_set(ParabolicSpec(group, shape))
    radical = sorted(b for b in roots if tuple(-c for c in b) not in roots)
    return gens + [_sp_root_element(n, b, q) for b in radical]


def _unit_matrix_with(dim: int, entries: dict, q: int) -> Mat:
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for (i, j), v in entries.items():
        m[i][j] = v % q
    return tuple(tuple(r) for r in m)


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
    what gets walked.  For a pair this is the Bruhat double coset
    count, independent of q.
    """
    first, *rest = _triple_specs(group, parabolics, q)
    _check_budget([(group, P.shape) for P in rest], q, budget)
    walked = [_flag_orbit(group, P.shape, q) for P in rest]
    walked = [orbit for orbit in walked if orbit.subspaces]  # X_G factors are single points
    if not walked:
        return 1
    lines = [w.perm for w in _parabolic_words(group, first.shape, q, lambda m, q: m)]
    spaces = [_Space(orbit.points, [_point_perm(orbit, p) for p in lines]) for orbit in walked]
    _, orbits = _product_orbits(spaces)
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
