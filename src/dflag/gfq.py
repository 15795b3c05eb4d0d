"""Exact linear algebra over the prime fields F_2, F_3, F_5.

Field elements are plain ints in range(q); vectors and matrices are
tuples (of tuples) so they can be dict keys.  rref is the reduced row
echelon form with zero rows dropped, unique per row space: it names the
subspaces that flags.enumerate_flags lists and the images that the
dense reference flags.apply_to_flag returns.  The orbit counts
(dflag.orbits) never reduce a subspace, naming one by the ids of its
lines, and never invert a matrix: each matrix they act by is built
from its roots, or is a letter, and its inverses are its powers.
mat_mul is row-sparse, as those matrices are: a row with a single 1
copies a row, and any other row combines only its nonzero entries.  It
is their one product, both the audit of each word's matrix and, with a
block of coordinate rows, the images of the lines under a letter.
"""

from __future__ import annotations

__all__ = [
    "check_prime",
    "mat_mul",
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


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat, q: int) -> Mat:
    """a b over F_q, for a with as many columns as b has rows, one row
    of a at a time: a row whose only nonzero entry is a 1 at j is row j
    of b, any other row the mod-q combination of the rows of b at its
    nonzero entries (zeros for a zero row).  b may be a block of
    coordinate rows, one column per vector."""
    zero = (0,) * len(b[0])
    out = []
    for row in a:
        terms = [(x, b[j]) for j, x in enumerate(row) if x]
        if len(terms) == 1 and terms[0][0] == 1:
            out.append(tuple(terms[0][1]))  # b's own row, if a tuple
        else:
            combined = zero
            for x, b_row in terms:
                combined = [(s + x * y) % q for s, y in zip(combined, b_row)]
            out.append(tuple(combined))
    return tuple(out)


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

