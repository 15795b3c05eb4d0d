"""Exact linear algebra over the prime fields F_2, F_3, F_5.

Field elements are plain ints in range(q); vectors and matrices are
tuples (of tuples) so they can be dict keys.  rref is the reduced row
echelon form with zero rows dropped, unique per row space: it names the
subspaces that flags.enumerate_flags lists and the images that the
dense reference flags.apply_to_flag returns.  The orbit counts
(dflag.orbits) never reduce a subspace, naming one by the ids of its
lines, and never invert a matrix: each matrix they act by is built
from its roots, or is a letter, and its inverses are its powers.
"""

from __future__ import annotations

from operator import mul

__all__ = [
    "check_prime",
    "mat_mul",
    "identity",
    "rref",
    "transpose",
]

SUPPORTED_PRIMES = (2, 3, 5)

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def check_prime(q: int) -> int:
    if q not in SUPPORTED_PRIMES:
        raise ValueError(f"field size must be one of {SUPPORTED_PRIMES}, got {q}")
    return q


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat, q: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) % q for col in bt) for row in a
    )


def rref(rows, q: int) -> Mat:
    """Reduced row echelon form with zero rows dropped."""
    work = [list(r) for r in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, m) if work[r][col] % q != 0), None
        )
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = pow(work[pivot_row][col], -1, q)
        work[pivot_row] = [(x * inv) % q for x in work[pivot_row]]
        for r in range(m):
            if r != pivot_row and work[r][col] % q:
                factor = work[r][col]
                work[r] = [
                    (x - factor * y) % q for x, y in zip(work[r], work[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == m:
            break
    return tuple(tuple(r) for r in work[:pivot_row] if any(r))

