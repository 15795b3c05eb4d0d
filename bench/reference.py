"""Reference computations the benchmark checks dflag's outputs against.

Nothing here imports dflag.  Each formula is derived another way than
the library's own: flag counts from group orders rather than from
products of Gaussian binomials, double cosets as integer matrices
rather than as Weyl group cosets, and the MWZ rows and the AIII Borel
table transcribed from their published statements.

Shapes are plain tuples of block sizes.  A symplectic shape is the full
palindrome, e.g. (1, 2, 1) for the isotropic-line stabilizer of Sp_4.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def _q_factorial(n: int, q: int) -> int:
    """prod_{i=1..n} (q^i - 1)."""
    out = 1
    for i in range(1, n + 1):
        out *= q**i - 1
    return out


def q_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    return _q_factorial(n, q) // (_q_factorial(k, q) * _q_factorial(n - k, q))


def gl_flag_points(parts, q: int) -> int:
    """|GL_n(F_q) / P(F_q)| for the parabolic with blocks ``parts``.

    |G/P| = |G| / |P|; the q-power of |P| equals that of |G| because P
    contains the Borel, so only the (q^i - 1) factors remain.
    """
    value = _q_factorial(sum(parts), q)
    for a in parts:
        value //= _q_factorial(a, q)
    return value


def sp_flag_points(full_parts, q: int) -> int:
    """|Sp_2n(F_q) / P(F_q)|, the isotropic flags of shape ``full_parts``.

    The Levi of P is GL_{a_1} x ... x GL_{a_k} x Sp_{2m} for left parts
    a_i and middle part 2m, so |G/P| = prod_{i<=n} (q^{2i} - 1) divided
    by the (q^i - 1) products of the GL blocks and prod_{i<=m} (q^{2i} - 1).
    """
    parts = tuple(full_parts)
    if parts != parts[::-1]:
        raise ValueError(f"not a palindrome: {parts}")
    half = len(parts) // 2
    left = parts[:half]
    middle = parts[half] if len(parts) % 2 else 0
    n = sum(parts) // 2

    def sp_order_part(m):
        out = 1
        for i in range(1, m + 1):
            out *= q ** (2 * i) - 1
        return out

    value = sp_order_part(n)
    for a in left:
        value //= _q_factorial(a, q)
    return value // sp_order_part(middle // 2)


def k_flag_points(pair: str, factors, q: int) -> int:
    """|K(F_q) / Q(F_q)| for the K-parabolic with the given factor shapes."""
    kind = pair.split(":")[0]
    if kind in ("AIII", "CI"):
        count = 1
        for shape in factors:
            count *= gl_flag_points(shape, q)
        return count
    if kind in ("CII", "AII"):
        count = 1
        for shape in factors:
            count *= sp_flag_points(shape, q)
        return count
    raise ValueError(f"no F_q model for the K-flags of {pair}")


def clan_count(p: int, q: int) -> int:
    """(p, q)-clans: sum_k n! / (2^k k! (p-k)! (q-k)!), n = p + q.

    k counts the matched pairs of equal natural numbers; the remaining
    p - k signs + and q - k signs - fill the other positions.
    """
    n = p + q
    return sum(
        math.factorial(n)
        // (2**k * math.factorial(k) * math.factorial(p - k) * math.factorial(q - k))
        for k in range(min(p, q) + 1)
    )


def matrix_count(rows, cols) -> int:
    """Nonnegative integer matrices with the given row and column sums.

    These index the double cosets W_P1 \\ S_n / W_P2 of the parabolics
    with block sizes ``rows`` and ``cols`` (one matrix entry per pair of
    blocks: how many indices the two blocks share).
    """

    @lru_cache(maxsize=None)
    def fill(i: int, remaining: tuple[int, ...]) -> int:
        if i == len(rows):
            return 1 if not any(remaining) else 0
        total = 0
        for row in _vectors_with_sum(rows[i], remaining):
            total += fill(i + 1, tuple(r - x for r, x in zip(remaining, row)))
        return total

    if sum(rows) != sum(cols):
        return 0
    return fill(0, tuple(cols))


def _vectors_with_sum(total: int, bounds):
    if not bounds:
        if total == 0:
            yield ()
        return
    for x in range(min(total, bounds[0]) + 1):
        for rest in _vectors_with_sum(total - x, bounds[1:]):
            yield (x,) + rest


# MWZ rows of finite type for GL_n.  A triple matches a row when some
# assignment of its three shapes to the slots (a, b, c) satisfies the
# row's condition; only lengths and the multiset of parts matter.
def _rows_a(n, a, b, c):
    la, lb, lc = len(a), len(b), len(c)
    if la != 2:
        return
    if sorted(a) == sorted((1, n - 1)):
        short, long_ = sorted((lb, lc))
        yield f"S_{{{short},{long_}}}"
    if lb == 2:
        yield f"D_{lc + 2}"
    if lb == 3:
        if lc in (3, 4, 5):
            yield f"E_{lc + 3}"
        if n >= 4 and sorted(a) == sorted((2, n - 2)):
            yield f"E^{{(a)}}_{lc + 3}"
        if 1 in b:
            yield f"E^{{(b)}}_{lc + 3}"


# MWZ rows of finite type for Sp_2n, over full palindromes.  Length 2
# means the Siegel shape (n, n); the "pencil" is (1, 2n - 2, 1).
def _rows_c(n, a, b, c):
    la, lb, lc = len(a), len(b), len(c)
    pencil = (1, 2 * n - 2, 1)
    if la == 2 and lb == 2:
        yield f"SpD_{lc + 2}"
    if la == 2 and lb == 3:
        if lc in (3, 4, 5):
            yield f"SpE_{lc + 3}"
        if tuple(b) == pencil and lc >= 3:
            yield f"SpE^{{(b)}}_{lc + 3}"
    if la == 3 and lb == 3 and tuple(a) == pencil and tuple(b) == pencil and lc >= 3:
        yield f"SpY_{{4,{lc}}}"


def mwz_rows(family: str, triple) -> set[str]:
    """Labels of the MWZ rows matching a triple of proper shapes.

    Empty means the triple flag variety is not of finite type.
    """
    shapes = [tuple(s) for s in triple]
    if any(len(s) < 2 for s in shapes):
        raise ValueError(f"improper shape in {shapes}")
    size = sum(shapes[0])
    if family == "A":
        rows, n = _rows_a, size
    elif family == "C":
        rows, n = _rows_c, size // 2
    else:
        raise ValueError(family)
    found = set()
    for a, b, c in itertools.permutations(shapes):
        found.update(rows(n, a, b, c))
    return found


def aiii_borel_finite(p: int, q: int, q1, q2) -> bool:
    """The five-case table: X_B x Z_{Q1 x Q2} of AIII(p, q), p <= q, has
    finitely many K-orbits exactly in cases (i)-(v).

    (i) Q = K; (ii) Q1 = GL_p, Q2 mirabolic; (iii) p = 1;
    (iv) p = 2, Q1 = GL_2, Q2 maximal; (v) Q1 mirabolic, Q2 = GL_q.
    """
    if not 1 <= p <= q:
        raise ValueError("the table needs 1 <= p <= q")
    whole1, whole2 = len(q1) == 1, len(q2) == 1
    mirabolic1 = len(q1) == 2 and 1 in q1
    mirabolic2 = len(q2) == 2 and 1 in q2
    return (
        (whole1 and whole2)
        or (whole1 and mirabolic2)
        or p == 1
        or (p == 2 and whole1 and len(q2) == 2)
        or (mirabolic1 and whole2)
    )


def compositions(n: int):
    """All ordered compositions of n, as tuples."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        out.extend((first,) + rest for rest in compositions(n - first))
    return out


def symplectic_shapes(n: int):
    """All full palindromes of Sp_2n shapes, Sp_2n itself included."""
    out = []
    for d in range(n + 1):
        for left in compositions(d):
            middle = (2 * (n - d),) if d < n else ()
            out.append(left + middle + left[::-1])
    return out
