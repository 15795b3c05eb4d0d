"""Flag varieties over small prime fields: point counts and points.

A flag point is a tuple of nested subspaces, each in canonical reduced
row echelon form.  For Sp_2n the symplectic form is the anti-diagonal
one (coordinate i pairs with 2n+1-i, signs +1 on the first half) and
flags consist of isotropic subspaces.

Closed-form point counts are Gaussian binomial products; they are used
to enforce the enumeration budget up front (which thereby bounds the
work as well as the output) and to audit the enumerations.  The points
themselves come from the orbit walk dflag.orbits._walk_flags, of
which an orbit count keeps only the letters' permutations of the
points, and only while it counts; enumerate_flags walks again and
writes the points in rref.  apply_to_flag is the dense action of a matrix on
a flag.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import gfq
from .compositions import Composition, SymplecticComposition
from .errors import BudgetExceededError, CrossCheckError
from .groups import GroupDatum, GroupFamily
from .gfq import Mat

__all__ = [
    "DEFAULT_BUDGET",
    "gaussian_binomial",
    "flag_count",
    "budgeted_flag_count",
    "enumerate_flags",
    "symplectic_gram",
    "apply_to_flag",
]

DEFAULT_BUDGET = 10**7

FlagPoint = tuple[Mat, ...]


@lru_cache(maxsize=1024)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise CrossCheckError(f"[{n} choose {k}]_{q} is not an integer")
    return num // den


def _gl_flag_count(n: int, dims: tuple[int, ...], q: int) -> int:
    count, prev = 1, 0
    for d in dims + (n,):
        count *= gaussian_binomial(n - prev, d - prev, q)
        prev = d
    return count


def _iso_subspace_count(n: int, m: int, q: int) -> int:
    """Isotropic m-subspaces of a 2n-dimensional symplectic space."""
    count = gaussian_binomial(n, m, q)
    for i in range(m):
        count *= q ** (n - i) + 1
    return count


def _sp_flag_count(n: int, dims: tuple[int, ...], q: int) -> int:
    count, prev = 1, 0
    for d in dims:
        count *= _iso_subspace_count(n - prev, d - prev, q)
        prev = d
    return count


def flag_count(group: GroupDatum, shape, q: int) -> int:
    """|G/P| over F_q, in closed form."""
    gfq.check_prime(q)
    kind = Composition if group.family is GroupFamily.GENERAL_LINEAR else SymplecticComposition
    if not isinstance(shape, kind):
        raise ValueError(f"{group} needs a {kind.__name__}, got {shape!r}")
    count = _gl_flag_count if kind is Composition else _sp_flag_count
    return count(group.n, shape.breaks(), q)


@lru_cache(maxsize=16)
def symplectic_gram(n: int, q: int) -> Mat:
    """Gram matrix of the anti-diagonal form on F_q^{2n}."""
    dim = 2 * n
    rows = []
    for i in range(1, dim + 1):
        row = [0] * dim
        row[dim - i] = 1 if i <= n else (-1) % q
        rows.append(tuple(row))
    return tuple(rows)


def budgeted_flag_count(group: GroupDatum, shape, q: int, budget: int) -> int:
    """flag_count, or BudgetExceededError (carrying it) when it exceeds
    the budget."""
    count = flag_count(group, shape, q)
    if count > budget:
        raise BudgetExceededError(
            f"{group}/{shape} has {count} points over F_{q}, budget {budget}",
            count,
            budget,
        )
    return count


def enumerate_flags(
    group: GroupDatum, shape, q: int, budget: int = DEFAULT_BUDGET
) -> list[FlagPoint]:
    """All F_q-points of G/P in canonical form, sorted: the points of the
    orbit walk ``orbits._walk_flags``, each subspace row reduced from
    its lines.

    Raises BudgetExceededError (carrying the closed-form count) before
    anything is walked; the walk raises CrossCheckError if it does not
    reach the closed-form count exactly.
    """
    from . import orbits  # orbits imports this module

    budgeted_flag_count(group, shape, q, budget)
    subspaces, points, _ = orbits._walk_flags(group, shape, q)
    vecs, _ = orbits._lines(group.dim, q)
    subs = [gfq.rref([vecs[i] for i in sub], q) for sub in subspaces]
    return sorted(tuple(subs[s] for s in pt) for pt in points)


def apply_to_flag(g: Mat, flag: FlagPoint, q: int) -> FlagPoint:
    """Image of a flag under g (acting on column vectors), one dense
    product per echelon row."""
    return tuple(
        gfq.rref([tuple(sum(map(mul, row, v)) for row in g) for v in sub], q) for sub in flag
    )
