"""Orbit counting over F_q by walks over generator permutations.

Every count walks one flag variety, once, and sums the orbit counts
on it of one or more generated subgroups.  The K-orbits on X_P x Z_Q
are the Q-orbits on X_P, as K is transitive on Z_Q = K/Q; the points
column is still |X_P x Z_Q|, from the closed forms.  A pair's G-orbits
are one parabolic's orbits on the other flag variety, and a triple's
are summed over Bruhat double cosets (count_triple_orbits).

Each group has a fixed set of letters that generates it (_letters has
the proofs): u, c and the torus letter d for GL_n; u and c on the
Siegel Levi and the long root elements x+- for Sp_2n, whose torus is
spelled from its root subgroups.  Only a letter is turned into a
permutation of the N = (q^dim - 1)/(q - 1) lines of F_q^dim, the one
place where an orbit count applies a matrix to a vector.  The images
of all N line vectors are the row-sparse product (gfq.mat_mul) of the
letter's rows that differ from the identity's with the coordinate rows
of the line vectors; each such row moves the identity's base-q codes,
and each code then looks its line id up in a table of q^dim entries.
Sp_6's four letters differ from the identity in 10 of their 24 rows.
X_P is walked level by level, a level being a jump dimension d of its
flags (shape.breaks()), and then as flags, by one breadth-first walk
(_orbit) whose element is a tuple of ids that each move maps by one
lookup.  A level is the orbit of
span(e_1, ..., e_d) under the letters, the only place where a matrix
moves a subspace: a subspace is the sorted tuple of its line ids (a
frozenset would take about four times the memory), moved by the
letters' line permutations.  The lines (d = 1) are not walked, as the
line permutations move them.  X_P maps onto each level, so a level
past |X_P| stops the walk.  A one-level X_P is its level, point k
being (k,).  Otherwise each level gets a range of subspace ids, each
letter one permutation of them, and a point is the tuple of its
subspaces' ids, walked by integer lookups alone.  Either way the walk
(_walk_flags) records each letter's permutation of the points, and
raises CrossCheckError as soon as it passes the closed-form count of
X_P, and again if it falls short of it.  A count keeps only the
letters with these permutations, as no count reads a point; no walk
outlives its count.
N <= |X_P| unless X_P is a single point, so the budget already checked
on |X_P| bounds the lines too, and their code table of
q^dim = (q - 1) N + 1 entries; a single point is never given either.

Every acting generator is a word in G's letters (_Speller): its
permutation of the points is composed from the letters', and its
matrix, multiplied from theirs, is audited against the generator's
own; a mismatch raises CrossCheckError.  No permutation is inverted:
every inverse a word takes is a power of an element of known order
over F_q, q prime (a root element has order q, the n-cycle c order n),
so a word is a product of powers, each composed once per count and
memoized on its matrix and exponent.  One speller serves all the
generator sets of a count, so each word is composed once.  A generator
other than a letter is named by its root, in the one encoding of
groups for both families: a vector in the epsilon coordinates, the
weight of coordinate i minus that of j for the matrix entry (i, j).
_root_entries, the one map between roots and matrix entries, builds it
and reads it back.  _generators makes every generator set from a list
of roots: x_b(1) for each root b, after one torus element for each
class of coordinates its Levi roots join, none for a class of type C,
which holds its torus; it has the proof.  A Standard parabolic is
generated from the roots of _parabolic_roots: its simple roots and the
negatives of its Levi's, which suffice in type A and outside
characteristic 2, but every root of an Sp parabolic over F_2; it has
the proof.  For AIII, CI and CII theta is conjugation by a diagonal
matrix (pairs), so K contains G's torus and every root subgroup of a
parabolic Q of K is one of G's: Q is generated from the roots of each
factor's parabolic, carried into G by the factor's coordinates, whose
weights are G's (_carried_root).  AII's K = Sp_n is a subgroup of GL_n
as it stands.  CI's whole K, GL_n, acts through G's u and c and a torus
element.  No generator is built by inverting a matrix.

Orbit fusion (_orbit_count) is pure integer work: each orbit is walked
from a list that grows while it is read.  Every permutation is checked
to be a bijection once per count, before any orbit is counted
(_check_permutations), and the sum of orbit sizes is audited against
the point count on every call.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from . import gfq
from ._value import Value
from .errors import BudgetExceededError, CrossCheckError, UnsupportedPairError
from .flags import (
    DEFAULT_BUDGET,
    budgeted_flag_count,
    flag_count,
    symplectic_gram,
)
from .groups import (
    GroupDatum,
    GroupFamily,
    ParabolicSpec,
    _entry_root,
    _simple_root,
    _weights,
    gl,
    parabolic_root_set,
    sp,
)
from .gfq import Mat
from .pairs import KFactor, KParabolicSpec, PairKind, SymmetricPairSpec, check_membership
from .weyl import _root_image, bruhat_double_cosets

__all__ = [
    "OrbitCountReport",
    "count_K_orbits",
    "check_triple_budget",
    "count_triple_orbits",
    "growth_probe",
]


@lru_cache(maxsize=4)
def _lines(dim: int, q: int):
    """The normalized vectors of F_q^dim, one per line, their index
    being the line ids, and the code table: entry c is the line id of
    the vector whose base-q digits are c (first coordinate most
    significant), -1 for the zero vector."""
    vecs = [
        (0,) * lead + (1,) + rest
        for lead in range(dim)
        for rest in itertools.product(range(q), repeat=dim - lead - 1)
    ]
    code = array("i", [-1])  # the zero vector
    scaled = {b: [0] for b in range(1, q)}  # scaled[b][t]: b times the tail t, digit by digit
    for k in range(dim):  # codes a q^k + t, t < q^k: (a, t) is on the line of (1, t / a)
        start = (q**dim - q ** (k + 1)) // (q - 1)  # the id of the line of (1, 0, ..., 0), k zeros
        for a in range(1, q):
            code.extend([start + t for t in scaled[pow(a, -1, q)]])
        if k + 1 < dim:  # one digit more, in front
            heads = {b: [b * x % q * q**k for x in range(q)] for b in scaled}
            scaled = {b: [h + t for h in heads[b] for t in s] for b, s in scaled.items()}
    return tuple(vecs), code


@lru_cache(maxsize=4)
def _line_rows(dim: int, q: int):
    """(coords, codes): the coordinate rows of the line vectors of
    _lines, one entry per line, and the base-q code of each vector, the
    identity's codes."""
    vecs, _ = _lines(dim, q)
    codes = tuple(
        q ** (dim - 1 - lead) + t for lead in range(dim) for t in range(q ** (dim - lead - 1))
    )
    return tuple(zip(*vecs)), codes


@lru_cache(maxsize=64)
def _line_perm(mat: Mat, q: int) -> tuple[int, ...]:
    """The permutation of the line ids of F_q^dim induced by mat.  The
    images of all line vectors are the row-sparse product of mat with
    their coordinate rows (gfq.mat_mul), made only for the rows of mat
    that differ from the identity's: each such row moves the base-q
    codes of the identity by its image row less the coordinate row it
    replaces.  Each code then looks its line id up in the code table of
    _lines.  A singular mat sends some line to 0, whose code has no
    line id."""
    dim = len(mat)
    _, code = _lines(dim, q)
    coords, codes = _line_rows(dim, q)
    moved = [i for i, row in enumerate(mat) if any(x != (i == j) for j, x in enumerate(row))]
    images = gfq.mat_mul([mat[i] for i in moved], coords, q)
    for i, image in zip(moved, images):
        weight = q ** (dim - 1 - i)
        codes = [c + (y - x) * weight for c, y, x in zip(codes, image, coords[i])]
    perm = tuple(map(code.__getitem__, codes))
    if min(perm) < 0:
        raise CrossCheckError(f"a {dim}x{dim} matrix to act by is singular over F_{q}")
    return perm


def _letters(group: GroupDatum, q: int) -> dict[str, Mat]:
    """The letters of group(F_q), q prime, by name: a fixed set of
    matrices that generates it.

    GL_n: u = E_12(1) and the n-cycle c with c e_k = e_(k+1) for n >= 2,
    and d = diag(z, 1, ..., 1) with z a primitive root for q > 2.  The
    conjugates c^k u c^-k are E_(k+1,k+2)(1) for every k, indices taken
    mod n: the root elements of the simple roots and of the lowest root
    e_n - e_1.  Commutators of E_(n,1) with the simple ones give every
    E_ij(1), whose powers are all elementary matrices over F_q, so the
    letters generate SL_n.  The determinant z of d generates F_q^*,
    which gives GL_n (over F_2, GL_n = SL_n).

    Sp_2n: u = x_(e_1 - e_2)(1) and the n-cycle c on e_1..e_n and on
    their mirror images for n >= 2, then x+ = x_(2e_n)(1) and
    x- = x_(-2e_n)(1).  u and c are the images of GL_n's u and c in the
    Siegel Levi, where m acts as m on e_1..e_n and as m^-T on their
    mirrors, as CI's K does, so they give x_(e_i - e_j)(1), the image
    of E_ij(1), for every i != j.  c permutes e_1..e_n cyclically and
    their mirrors with them, so its powers conjugate x+- to
    x_(+-2e_i)(1) for every i.  One
    commutator gives e_i + e_j:
    [x_(e_i - e_j)(1), x_(2e_j)(1)] = x_(e_i + e_j)(1) x_(2e_i)(1), and
    [x_(-2e_j)(1), x_(e_j - e_i)(1)] = x_(-e_i - e_j)(1) x_(-2e_i)(1)^-1.
    So the letters give x_b(1) for every root b.  Over F_q, q prime,
    x_b(1) generates the root subgroup X_b, and the root subgroups
    generate Sp_2n(F_q) in every characteristic, F_2 included
    (Steinberg, Lectures on Chevalley Groups, section 3).  So GL_n's d,
    its only letter outside SL_n, is not needed: the torus lies in the
    SL_2s of the long roots (_Speller.torus), and Sp_2's letters are
    x+- alone.
    """
    n, dim = group.n, group.dim
    letters = {}
    if n >= 2:  # c e_k = e_(k+1) for k < n, and in Sp_2n likewise on their mirrors
        letters["u"] = _root_element(group, _simple_root(group, 1), q)
        step = [(k + 1) % n if k < n else dim - 1 - (dim - k) % n for k in range(dim)]
        letters["c"] = tuple(tuple(int(i == step[j]) for j in range(dim)) for i in range(dim))
    if group.family is GroupFamily.SYMPLECTIC:
        for name, sign in (("x+", 1), ("x-", -1)):
            letters[name] = _root_element(group, (0,) * (n - 1) + (2 * sign,), q)
        if not all(_is_symplectic(m, n, q) for m in letters.values()):
            raise CrossCheckError(f"a letter built for Sp_{dim}(F_{q}) is not symplectic")
    elif q > 2:
        letters["d"] = _torus_element(group, 0, q)
    return letters


class _Word(NamedTuple):
    """An element of G: its matrix and its permutation of the points of
    a walked X_P."""

    mat: Mat
    perm: Sequence[int]


def _walk_flags(group: GroupDatum, shape, q: int):
    """(subspaces, points, letters): X_P walked from its base flag under
    _letters(group, q), each level once, then the flags if there are
    two or more levels, and the letters by name, each with its
    permutation of the points."""
    name = f"{group}/{shape} over F_{q}"
    count = flag_count(group, shape, q)
    dims = shape.breaks()
    letters = _letters(group, q)
    if not dims:  # X_G is one point; its lines are not bounded by the budget
        return (), ((),), {k: _Word(m, (0,)) for k, m in letters.items()}
    line_perms = [_line_perm(m, q) for m in letters.values()]
    vecs, _ = _lines(group.dim, q)
    levels = []
    for d in dims:
        if d > 1:  # the subspaces: sorted tuples of line ids
            base = tuple(i for i, v in enumerate(vecs) if not any(v[d:]))
            levels.append(_orbit(name, count, base, line_perms, sort=True))
        elif len(vecs) > count:  # X_P maps onto every level
            raise _passed(name, count)
        else:  # the lines, which the line permutations already move
            levels.append((tuple(zip(range(len(vecs)))), line_perms))
    if len(levels) == 1:  # X_P is its level
        (subspaces, perms), = levels
        points = tuple(zip(range(len(subspaces))))
    else:  # each level a range of subspace ids, each letter one permutation of them
        subspaces, start, moves = [], [], [[] for _ in letters]
        for subs, level_perms in levels:
            start.append(len(subspaces))
            for move, perm in zip(moves, level_perms):
                move += [start[-1] + k for k in perm]
            subspaces += subs
        subspaces = tuple(subspaces)
        points, perms = _orbit(name, count, tuple(start), moves, sort=False)
    if len(points) != count:
        raise CrossCheckError(
            f"the orbit of the base flag of {name} has {len(points)} of its {count} points"
        )
    return subspaces, points, dict(zip(letters, map(_Word, letters.values(), perms)))


def _orbit(name: str, count: int, base: tuple, moves: list, sort: bool):
    """(elements, permutations) of the orbit of ``base``, a tuple of two
    or more ids, under ``moves``, each a sequence that maps ids to ids:
    element k is the k-th found, moved once per move by one lookup of
    its ids, which are sorted if ``sort`` (a subspace is the set of its
    lines; a flag's levels keep their order).  An orbit past ``count``
    stops the walk."""
    elements, index = [base], {base: 0}
    perms = [[] for _ in moves]
    steps = list(zip(moves, perms))
    for element in elements:
        image = itemgetter(*element)  # a tuple, as there are two or more ids
        for move, perm in steps:
            moved = tuple(sorted(image(move))) if sort else image(move)
            k = index.get(moved)
            if k is None:
                if len(elements) == count:
                    raise _passed(name, count)
                k = index[moved] = len(elements)
                elements.append(moved)
            perm.append(k)
    return tuple(elements), perms


def _passed(name: str, count: int) -> CrossCheckError:
    return CrossCheckError(f"the orbit of the base flag of {name} passes its {count} points")


def _memo(method):
    """A word-building method of _Speller, memoized in its speller."""

    def memoized(self, *args):
        key = (method.__name__, *args)
        word = self.memo.get(key)
        if word is None:
            word = self.memo[key] = method(self, *args)
        return word

    return memoized


class _Speller:
    """Words in G's letters on the points of one walked X_P, composed on
    demand, each root element named by its root.  The root e_i - e_j
    names E_ij(1) in GL_n and x_(e_i - e_j)(1) in Sp_2n, both spelled as
    E_ij(1) = c^(i-1) E_(1,1+k) c^(n-i+1) for k = j - i mod n, with
    E_(1,2) = u and E_(1,1+k) = [E_(1,k), E_(k,k+1)].  In GL_n
    diag(z at i) = c^(i-1) d c^(n-i+1); in Sp_2n the other roots are
    spelled as in the proof in _letters, and the torus from the long
    roots (torus).

    No permutation is inverted: every inverse taken is of an element of
    known order over F_q, q prime, and so one of its powers.  A root
    element x_b(1) has order q, so x_b(1)^-1 = x_b(1)^(q-1), and
    c^-k = c^(n-k).  Each power is memoized on (its word's matrix, the
    exponent), so an inverse spelled for a commutator, or for Sp's
    torus, serves a target entry q - 1 too."""

    def __init__(self, group: GroupDatum, q: int, letters: dict[str, _Word]):
        self.group, self.q, self.letters = group, q, letters
        self.by_matrix = {w.mat: w for w in self.letters.values()}
        z = _primitive_root(q) if q > 2 else 1
        self.log = {pow(z, e, q): e for e in range(q - 1)}  # z^e -> e
        self.memo: dict = {}

    def times(self, *words: _Word) -> _Word:
        """The product, which acts as its last word first."""
        mat, perm = words[-1]
        for w in reversed(words[:-1]):
            mat = gfq.mat_mul(w.mat, mat, self.q)
            perm = map(w.perm.__getitem__, perm)
        return _Word(mat, list(perm))

    def power(self, w: _Word, e: int) -> _Word:
        """w^e for e > 0, by halving e: one composition per power not
        yet memoized."""
        if e == 1:
            return w
        key = (w.mat, e)
        word = self.memo.get(key)
        if word is None:
            if e % 2:
                word = self.times(w, self.power(w, e - 1))
            else:
                half = self.power(w, e // 2)
                word = self.times(half, half)
            self.memo[key] = word
        return word

    def commutator(self, a: _Word, b: _Word) -> _Word:
        """a b a^-1 b^-1, for root elements a and b."""
        q = self.q
        return self.times(a, b, self.power(a, q - 1), self.power(b, q - 1))

    def conj(self, k: int, w: _Word) -> _Word:
        """c^k w c^-k, for 0 <= k < n."""
        if k == 0:
            return w
        c = self.letters["c"]
        return self.times(self.power(c, k), w, self.power(c, self.group.n - k))

    @_memo
    def elementary(self, i: int, j: int) -> _Word:
        """E_ij(1) of GL_n, or x_(e_i - e_j)(1) of Sp_2n, 0-based."""
        k = (j - i) % self.group.n
        if i:
            return self.conj(i, self.elementary(0, k))
        if k == 1:
            return self.letters["u"]
        return self.commutator(self.elementary(0, k - 1), self.elementary(k - 1, k))

    @_memo
    def torus(self, i: int) -> _Word:
        """diag(z at i) of GL_n, or diag(z at i, z^-1 at its mirror) of
        Sp_2n, 0-based.  The latter is h(z) = w(z) w(1)^-1 in the SL_2
        of the long root 2e_i, where w(t) = x(t) y(-1/t) x(t) with
        x(t) = x_(2e_i)(t) = x^t and y(t) = x_(-2e_i)(t) = y^t, so
        w(1)^-1 = x^(q-1) y x^(q-1) and
        h(z) = x^z y^(-1/z) x^(z-1) y x^(q-1).  It is spelled once, for
        i = n-1 with the letters x = x+ and y = x-, and conjugated by
        c^(i+1) for every other i, as the long roots are."""
        if self.group.family is GroupFamily.GENERAL_LINEAR:
            return self.conj(i, self.letters["d"])
        n, q = self.group.n, self.q
        if i != n - 1:
            return self.conj(i + 1, self.torus(n - 1))
        x, y, z = self.letters["x+"], self.letters["x-"], _primitive_root(q)
        return self.times(
            self.power(x, z),
            self.power(y, -pow(z, -1, q) % q),
            self.power(x, z - 1),
            y,
            self.power(x, q - 1),
        )

    @_memo
    def root(self, b: tuple[int, ...]) -> _Word:
        """x_b(1) for a root b of G, in the encoding of groups."""
        n = self.group.n
        (i, a), *rest = [(i, c) for i, c in enumerate(b) if c]
        if not rest:
            return self.conj((i + 1) % n, self.letters["x+" if a > 0 else "x-"])
        ((j, c),) = rest
        if a != c:
            return self.elementary(i, j) if a > 0 else self.elementary(j, i)
        short = self.root(tuple(a * (int(k == i) - int(k == j)) for k in range(n)))
        long_i, long_j = (self.root(tuple(2 * a * int(k == x) for k in range(n))) for x in (i, j))
        if a > 0:
            return self.times(self.commutator(short, long_j), self.power(long_i, self.q - 1))
        return self.times(self.commutator(long_j, short), long_i)

    def word_for(self, target: Mat) -> _Word:
        """The word for ``target``, audited against it: a letter; a
        product of commuting root elements x_b(c), one for each root b
        whose first entry (_root_entries) holds c != 0 in ``target``, as
        E_ij(c) in GL_n or a single x_b(c) in Sp_2n; or else a torus
        element of G."""
        word = self.by_matrix.get(target)
        if word is None:
            parts = [
                self.power(self.root(b), target[i][j])
                for b, ((i, j), *_) in _root_entries(self.group).items()
                if target[i][j]
            ]
            if not parts:
                parts = [
                    self.power(self.torus(i), self.log[target[i][i]])
                    for i in range(self.group.n)
                    if target[i][i] != 1
                ]
            word = parts[0] if len(parts) == 1 else self.times(*parts)
        if word.mat != target:
            raise CrossCheckError(
                f"a word in the letters of {self.group} over F_{self.q} does not give its matrix"
            )
        return word


def _count_orbits(group: GroupDatum, shape, q: int, target_sets: list) -> int:
    """The sum of the orbit counts on X_P = group/shape, walked once, of
    the subgroups of G(F_q) that the matrix lists ``target_sets``
    generate.  Each matrix acts as its word in G's letters, all spelled
    by one speller; X_G is one point.  The size is the closed form,
    which the walk audits.  Every permutation is checked before any
    orbit is counted."""
    speller = _Speller(group, q, _walk_flags(group, shape, q)[2])
    size = flag_count(group, shape, q)
    perm_sets = [[speller.word_for(t).perm for t in targets] for targets in target_sets]
    _check_permutations(size, perm_sets)
    return sum(_orbit_count(size, perms) for perms in perm_sets)


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


def _is_permutation(perm: Sequence[int], size: int) -> bool:
    """Whether perm lists each of 0..size-1 once, checked with one byte
    of marks per point."""
    if len(perm) != size or min(perm) < 0 or max(perm) >= size:
        return False
    marks = bytearray(size)
    for x in perm:
        marks[x] = 1
    return 0 not in marks


def _check_permutations(size: int, perm_sets: list) -> None:
    """Raise CrossCheckError unless every permutation in ``perm_sets``
    permutes ``size`` points.  A memoized word reaches many sets (a
    triple's root words, once per double coset), so each distinct list
    is checked once."""
    checked = set()
    for perm in itertools.chain.from_iterable(perm_sets):
        if id(perm) not in checked:
            if not _is_permutation(perm, size):
                raise CrossCheckError(f"a generator does not permute a space of {size} points")
            checked.add(id(perm))


def _orbit_count(size: int, perms: list) -> int:
    """Orbits, on ``size`` points, of the group generated by ``perms``,
    one permutation per generator.  Each orbit is walked forwards only,
    from a list that grows while it is read: every generator must be a
    bijection of a finite set (_check_permutations), so its inverse is
    one of its powers."""
    seen = bytearray(size)
    orbits = orbit_total = 0
    for start in range(size):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = 1
        orbit = [start]
        for x in orbit:
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit_total += len(orbit)
    if orbit_total != size:
        raise CrossCheckError(f"orbit sizes add up to {orbit_total}, the space has {size} points")
    return orbits


def _is_symplectic(m: Mat, n: int, q: int) -> bool:
    j = symplectic_gram(n, q)
    return gfq.mat_mul(gfq.mat_mul(gfq.transpose(m), j, q), m, q) == j


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


def _k_groups(pair: SymmetricPairSpec) -> list[GroupDatum]:
    """The group of each factor of K, in the order of the factors of Q."""
    if pair.kind is PairKind.AI:
        raise UnsupportedPairError(
            "orbit counting over F_q is not implemented for AI pairs "
            "(orthogonal groups degenerate in characteristic 2)"
        )
    return [(gl if f.family == "gl" else sp)(f.rank) for f in pair.k_factors]


@lru_cache(maxsize=16)
def _root_entries(group: GroupDatum) -> dict:
    """Each root of group, in the encoding of groups, with the matrix
    entries (i, j), 0-based, that carry it, in row order: the pairs of
    coordinates whose weights differ by the root (groups._entry_root).
    A root of GL_n, and a long root +-2e_i of Sp_2n, sits at one entry;
    a short root of Sp_2n at two, mirrored through the anti-diagonal."""
    entries: dict = {}
    for i, j in itertools.permutations(range(group.dim), 2):
        entries.setdefault(_entry_root(group, i, j), []).append((i, j))
    return {b: tuple(e) for b, e in entries.items()}


def _root_element(group: GroupDatum, b, q: int) -> Mat:
    """x_b(1) in group(F_q): 1 at the first entry of the root b and, for
    a short root of Sp_2n, the coefficient +-1 at its second entry that
    makes the matrix symplectic for the anti-diagonal form."""
    entries = _root_entries(group).get(b)
    if entries is None:
        raise CrossCheckError(f"{b} is not a root of {group}")
    first, *second = entries
    for c in (1, q - 1):
        m = _unit_matrix_with(group.dim, {first: 1, **dict.fromkeys(second, c)}, q)
        if group.family is GroupFamily.GENERAL_LINEAR or _is_symplectic(m, group.n, q):
            return m
    raise CrossCheckError(f"no symplectic root element for {b}")


def _torus_element(group: GroupDatum, i: int, q: int) -> Mat:
    """diag(z at i) in GL_n, or diag(z at i, z^-1 at its mirror) in
    Sp_2n, 0-based, z the least primitive root mod q: coordinate k is
    scaled by z to the e_i-coordinate of its weight."""
    z = _primitive_root(q)
    scaled = [(k, w[i]) for k, w in enumerate(_weights(group)) if w[i]]
    return _unit_matrix_with(group.dim, {(k, k): pow(z, e, q) for k, e in scaled}, q)


def _generators(group: GroupDatum, roots, q: int) -> list[Mat]:
    """One torus element diag(z at c) of group(F_q) (_torus_element)
    for each class of coordinates joined by the Levi roots of ``roots``
    (the roots b whose -b is listed too) but a class whose Levi roots
    include a long pair +-2e_i, c being the class's first coordinate,
    for q > 2 (over F_2 the torus is trivial); then x_b(1) for each
    root b of ``roots``.

    With x_b(1) for the roots b, these generate what the whole torus T
    and the x_b(1) do.  The Levi roots of a class are the roots, or the
    simple roots and their negatives (_parabolic_roots), of a factor of
    a Levi subgroup of G on the class's coordinates, split of type A or
    C.  Over F_q their root subgroups, which x_b(1) generates over F_p,
    generate its derived group (Steinberg, Lectures on Chevalley
    Groups, section 3): an SL_k, whose torus is GL_k's with determinant
    1, or an Sp_2k, which holds the whole torus of its coordinates.
    With SL_k, diag(z at c) gives every determinant, z being a
    primitive root, so the elements of all classes give T."""
    listed = set(roots)
    classes = {k: {k} for k in range(group.n)}  # coordinate -> its class
    long = set()
    for b in roots:
        if tuple(-c for c in b) in listed:
            support = [k for k, c in enumerate(b) if c]
            if len(support) == 1:  # +-2e_k
                long.update(support)
            joined = set().union(*(classes[k] for k in support))
            classes.update(dict.fromkeys(joined, joined))
    firsts = sorted({min(c) for c in classes.values() if not c & long}) if q > 2 else []
    torus = [_torus_element(group, c, q) for c in firsts]
    return torus + [_root_element(group, b, q) for b in roots]


def _parabolic_roots(group: GroupDatum, shape, q: int) -> list:
    """Roots b such that x_b(1), with the torus elements of _generators,
    generate the Standard parabolic P of ``shape`` in group(F_q), q
    prime: the simple roots and -a for each simple root a of the Levi
    (not a break), but every root of P for Sp_2n over F_2.

    P is its Levi L times the unipotent radical U of the Borel's
    positive roots outside L's.  L's derived group is generated by the
    root subgroups of its simple roots and their negatives, and over
    F_p x_b(1) generates X_b.  Outside characteristic 2 the simple root
    subgroups generate the Borel's unipotent radical, which holds U
    (Steinberg, Lectures on Chevalley Groups, section 3).  In type A
    that holds over every field, since [I + E_ij, I + E_jl] = I + E_il.
    In type C over F_2 the commutator relations lose their factor 2,
    and the unipotent radical of the Borel of Sp_4(F_2), of order 16,
    is not generated by two elements, so every root of P is used.
    """
    if group.family is GroupFamily.SYMPLECTIC and q == 2:
        return sorted(parabolic_root_set(ParabolicSpec(group, shape)))
    simple = [_simple_root(group, k) for k in group.simple_indices]
    levi = [tuple(-c for c in b) for k, b in enumerate(simple, 1) if k not in shape.breaks()]
    return simple + levi


def _k_targets(pair: SymmetricPairSpec, Q: KParabolicSpec, q: int) -> list[Mat]:
    """Generators of Q, as matrices of G (see the module docstring)."""
    groups, group = _k_groups(pair), pair.group
    if pair.kind is PairKind.AII:  # K = Sp_n is a subgroup of GL_n as it stands
        return _generators(groups[0], _parabolic_roots(groups[0], Q.factors[0], q), q)
    if pair.kind is PairKind.CI and not Q.factors[0].is_proper:  # GL_n's letters u, c and d
        torus = [_torus_element(group, 0, q)] if q > 2 else []
        return [m for name, m in _letters(group, q).items() if name in ("u", "c")] + torus
    roots = [
        _carried_root(group, factor, b)
        for factor, factor_group, shape in zip(pair.k_factors, groups, Q.factors)
        for b in _parabolic_roots(factor_group, shape, q)
    ]
    return _generators(group, roots, q)


def _carried_root(group: GroupDatum, factor: KFactor, b: tuple) -> tuple:
    """The root b of a factor of K as a root of G, by the factor's
    coordinates: the factor's coordinate k < rank has weight e_k, and is
    G's coordinate coords[k] < n, of weight e_coords[k], so b's
    epsilon_k is G's epsilon_coords[k]."""
    carried = dict(zip(factor.coords, b))
    return tuple(carried.get(k, 0) for k in range(group.n))


def _coset_targets(group: GroupDatum, Pi: ParabolicSpec, Pj: ParabolicSpec, q: int) -> list:
    """Generators of H_w = P_i cap wP_jw^-1 in group(F_q), q prime, for
    each minimal w of W_Pi\\W/W_Pj (weyl.bruhat_double_cosets): those
    of _generators for the roots of Phi(P_i) cap w.Phi(P_j), with Phi
    from groups.parabolic_root_set, which give the torus T with them.
    The G-orbits on X_i x X_j x X_k are the sum over w of the H_w-orbits
    on X_k, since:

    1. G(F_q) has a split BN-pair, so it is the disjoint union of the
       P_i(F_q) w P_j(F_q) (Bruhat over F_q): the G-orbits on X_i x X_j
       are those of the points (P_i, wP_j), one per w.
    2. The G-orbits on the triple over that of (P_i, wP_j) are the
       orbits on X_k of its stabilizer P_i(F_q) cap wP_j(F_q)w^-1.
    3. H_w contains the torus T, which w normalizes, and is its Levi
       part L_i cap wL_jw^-1, split of types A and C, times its
       unipotent radical (Carter, Finite Groups of Lie Type, 2.8).  Over
       F_q the Levi part is generated by T and its root subgroups
       (Steinberg, as in _letters), the radical is the product of its
       root subgroups, and over F_p x_b(1) generates X_b.  w.Phi(P_j)
       (weyl._root_image) is the root set of wP_jw^-1.
    4. Every root of H_w is used, not only those that give the rest by
       commutators: over F_2 the type C commutator relations lose their
       factor 2 (see _parabolic_roots).
    """
    phi_i, phi_j = parabolic_root_set(Pi), parabolic_root_set(Pj)
    return [
        _generators(group, sorted(phi_i & {_root_image(w.values, b) for b in phi_j}), q)
        for w in bruhat_double_cosets(Pi, Pj).representatives
    ]


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
    ((_, _, orbits),) = growth_probe(pair, P, Q, (q,), budget).entries
    return orbits


def _orbit_factors(pair, P, Q, q) -> list:
    """(group, shape) of X_P and of each K-factor of Z_Q, after checking
    the input."""
    gfq.check_prime(q)
    check_membership(pair, P, Q)
    P = P.standard_form()
    return [(P.group, P.shape), *zip(_k_groups(pair), Q.factors)]


def _unit_matrix_with(dim: int, entries: dict, q: int) -> Mat:
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for (i, j), v in entries.items():
        m[i][j] = v % q
    return tuple(tuple(r) for r in m)


def _triple_specs(group: GroupDatum, parabolics: list[ParabolicSpec], q: int):
    """The parabolics in Standard form, after checking the input."""
    gfq.check_prime(q)
    if len(parabolics) not in (2, 3):
        raise ValueError("need two or three parabolic specs")
    if any(P.group != group for P in parabolics):
        raise ValueError("all parabolics must share the group")
    return [P.standard_form() for P in parabolics]


def check_triple_budget(
    group: GroupDatum,
    parabolics: list[ParabolicSpec],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Raise BudgetExceededError, from closed-form sizes alone, where
    count_triple_orbits with the same arguments would; lets a caller
    refuse a list of fields before counting any of them.

    The budget is charged with the product of the factors after the
    first.  The work, cosets x |X_k| for the walked factor X_k, is never
    more than the product of the two smallest factors, so the budget
    bounds it from above."""
    _, *rest = _triple_specs(group, parabolics, q)
    _check_budget([(group, P.shape) for P in rest], q, budget)


def count_triple_orbits(
    group: GroupDatum,
    parabolics: list[ParabolicSpec],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Orbits of diagonal G(F_q) on X_{P1} x ... x X_{Pk} (k = 2 or 3).

    The factor X_k with the smallest flag_count, the first on a tie, is
    walked once, chosen from the closed forms.  G is transitive on each
    factor, so a pair's orbits are those of the other parabolic on X_k
    (the Bruhat double coset count, independent of q), and a triple's
    are summed over the double cosets of the other two (_coset_targets).
    The budget is checked as in check_triple_budget.
    """
    specs = _triple_specs(group, parabolics, q)
    _check_budget([(group, P.shape) for P in specs[1:]], q, budget)
    sizes = [flag_count(group, P.shape, q) for P in specs]
    walked = specs.pop(sizes.index(min(sizes)))
    if len(specs) == 1:
        target_sets = [_generators(group, _parabolic_roots(group, specs[0].shape, q), q)]
    else:
        target_sets = _coset_targets(group, *specs, q)
    return _count_orbits(group, walked.shape, q, target_sets)


class OrbitCountReport(Value):
    """Counts per field size plus a boundedness hint.

    The hint is an empirical signal, never a proof: Bounded means the
    counts agree across the sampled fields, Growing that they strictly
    increase.
    """

    __slots__ = ("entries", "hint")

    def __init__(
        self,
        entries: tuple[tuple[int, int, int], ...],  # (q, points, orbits)
        hint: str,
    ):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "hint", hint)

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
    of field size.  A ``q_list`` that is empty or repeats a field size
    raises ValueError: no count, or one field's, supports a hint."""
    if not q_list or len(set(q_list)) < len(q_list):
        raise ValueError(f"growth_probe needs at least one field size, each once: {list(q_list)}")
    fields = [(q, _orbit_factors(pair, P, Q, q)) for q in q_list]
    totals = [_check_budget(factors, q, budget) for q, factors in fields]
    entries = [
        (q, total, _count_orbits(*factors[0], q, [_k_targets(pair, Q, q)]))
        for (q, factors), total in zip(fields, totals)
    ]
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
