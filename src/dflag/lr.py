"""Littlewood-Richardson combinatorics for GL branching.

One enumerator, _lattice_fillings, lists the semistandard fillings of
a skew shape whose reverse reading word is a lattice word; c^lam_{mu,nu}
counts the fillings of lam/mu with content nu.  Cells are visited in
reverse reading order (rows top to bottom, each row right to left),
which lets the lattice condition prune the search as it goes.  Tensor
products go through the disconnected skew shape lam * mu (lam to the
right of mu's first row, mu below it) and the identity
s_{lam * mu} = s_lam s_mu.

Everything is exact integer arithmetic on plain tuples; the coefficient
is memoized.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod

from ._value import Value
from .compositions import Composition
from .errors import CrossCheckError
from .groups import GroupFamily, Orientation, ParabolicSpec
from .pairs import SymmetricPairSpec, theta_on_parabolic

__all__ = [
    "Partition",
    "LRDecomposition",
    "lr_coefficient",
    "restrict_to_levi",
    "tensor_decompose",
    "weyl_dim_gl",
    "highest_weight_of_parabolic",
    "spherical_probe_restriction",
    "spherical_probe_tensor",
    "RestrictionProbeResult",
    "TensorProbeResult",
]

Parts = tuple[int, ...]


def _normalize(parts) -> Parts:
    """Strip trailing zeros and validate weak decrease."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not weakly decreasing: {parts}")
    return parts


class Partition(Value):
    """A weakly decreasing tuple of nonnegative integers.

    >>> Partition.parse("3,2,1").size
    6
    >>> Partition((2, 1)).scale(3)
    Partition(parts=(6, 3))
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Parts):
        object.__setattr__(self, "parts", _normalize(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if not text or text == "0":
            return cls(())
        return cls(tuple(int(t) for t in text.split(",")))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def scale(self, k: int) -> "Partition":
        return Partition(tuple(k * p for p in self.parts))

    def contains(self, other: "Partition") -> bool:
        if other.rows > self.rows:
            return False
        return all(a >= b for a, b in zip(self.parts, other.parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def _lattice_fillings(outer: Parts, inner: Parts, max_entry: int, content_bound=None):
    """Yield the contents of all LR fillings of outer/inner with entries
    <= max_entry, optionally bounded above by ``content_bound``.

    A filling assigns to each skew cell a value so that rows weakly
    increase, columns strictly increase, and the reverse reading word is
    a lattice word.  The yielded content tuples have length max_entry.
    """
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    if any(inner[r] > outer[r] for r in range(rows)):
        return
    cells = []  # reverse reading order
    for r in range(rows):
        for c in range(outer[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    if not cells:
        yield (0,) * max_entry
        return

    grid = [[0] * outer[r] for r in range(rows)]
    counts = [0] * (max_entry + 1)

    def fill(idx: int):
        if idx == len(cells):
            yield tuple(counts[1:])
            return
        r, c = cells[idx]
        lo, hi = 1, max_entry
        if c + 1 < outer[r]:  # right neighbour already placed
            hi = min(hi, grid[r][c + 1])
        if r > 0 and inner[r - 1] <= c < outer[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)  # strict down a column
        for v in range(lo, hi + 1):
            # lattice: every prefix has at least as many (v-1)'s as v's
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            if content_bound is not None and counts[v] + 1 > content_bound[v - 1]:
                continue
            grid[r][c] = v
            counts[v] += 1
            yield from fill(idx + 1)
            counts[v] -= 1
            grid[r][c] = 0

    yield from fill(0)


@lru_cache(maxsize=4096)
def _lr_cached(outer: Parts, inner1: Parts, inner2: Parts) -> int:
    target = inner2
    return sum(
        1
        for content in _lattice_fillings(outer, inner1, len(inner2), inner2)
        if content == target
    )


def lr_coefficient(outer: Partition, inner1: Partition, inner2: Partition) -> int:
    """The Littlewood-Richardson coefficient c^outer_{inner1, inner2}.

    Size mismatches give 0 by convention.

    >>> lr_coefficient(Partition((3, 2, 1)), Partition((2, 1)), Partition((2, 1)))
    2
    """
    if outer.size != inner1.size + inner2.size:
        return 0
    if not outer.contains(inner1) or not outer.contains(inner2):
        return 0
    if inner2.rows == 0:
        return 1 if outer == inner1 else 0
    return _lr_cached(outer.parts, inner1.parts, inner2.parts)


class LRDecomposition(Value):
    """A multiplicity map; keys are Partitions or pairs of Partitions."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[object, int], ...]):
        if any(m < 1 for _, m in terms):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, data: dict) -> "LRDecomposition":
        items = sorted(data.items(), key=lambda kv: _term_key(kv[0]))
        return cls(tuple(items))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for _, m in self.terms)

    def multiplicity(self, key) -> int:
        return self.as_dict().get(key, 0)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


def _term_key(key):
    if isinstance(key, Partition):
        return (key.parts,)
    return tuple(k.parts for k in key)


def _subpartitions(bound: Parts, max_rows: int):
    """All partitions contained in ``bound`` with at most max_rows rows."""
    rows = min(len(bound), max_rows)

    def rec(r: int, prev: int, acc: tuple[int, ...]):
        if r == rows:
            yield acc
            return
        for v in range(min(bound[r], prev), -1, -1):
            yield from rec(r + 1, v, acc + (v,))

    yield from rec(0, bound[0] if rows else 0, ())


def restrict_to_levi(lam: Partition, p: int, q: int) -> LRDecomposition:
    """Decompose the GL_{p+q} irreducible of highest weight lam over
    GL_p x GL_q: all pairs (mu, nu) with c^lam_{mu nu} > 0.

    >>> len(restrict_to_levi(Partition((1,)), 1, 1))
    2
    """
    if lam.rows > p + q:
        raise ValueError(f"{lam} needs more than p + q = {p + q} rows")
    counts = Counter(_restriction_terms(lam.parts, p, q))
    return LRDecomposition.from_dict(
        {(Partition(mu), Partition(nu)): m for (mu, nu), m in counts.items()}
    )


def _restriction_terms(lam: Parts, p: int, q: int):
    """(mu, content) for each LR filling of lam/mu with entries <= q,
    mu over the partitions in lam with at most p rows: each (mu, nu) of
    the restriction of V_lam to GL_p x GL_q, c^lam_{mu nu} times.  Both
    are tuples of fixed length, so equal terms are equal tuples."""
    for mu in _subpartitions(lam, p):
        for content in _lattice_fillings(lam, mu, q):
            yield mu, content


def _product_shape(lam: Parts, mu: Parts) -> tuple[Parts, Parts]:
    """(outer, inner) of the skew shape lam * mu: lam to the right of
    mu's first row, mu below it, the two sharing no column.  Its LR
    fillings with entries <= n have as contents the nu of V_lam (x) V_mu
    over GL_n, each c^nu_{lam mu} times, since s_{lam * mu} = s_lam s_mu."""
    width = mu[0] if mu else 0
    outer = tuple(width + p for p in lam) + mu
    return outer, (width,) * len(lam)


def _first_repeat(contents):
    """The first content met twice, or None."""
    seen = set()
    for content in contents:
        if content in seen:
            return content
        seen.add(content)
    return None


def tensor_decompose(lam: Partition, mu: Partition, n: int) -> LRDecomposition:
    """V_lam (x) V_mu for GL_n: all nu with at most n rows and
    c^nu_{lam mu} > 0, counted as the contents of the LR fillings of
    lam * mu (a probe's witness is the first nu met twice among them).

    >>> tensor_decompose(Partition((1,)), Partition((1,)), 2).as_dict()
    {Partition(parts=(1, 1)): 1, Partition(parts=(2,)): 1}
    """
    if lam.rows > n or mu.rows > n:
        raise ValueError("weights need more rows than the rank allows")
    fillings = _lattice_fillings(*_product_shape(lam.parts, mu.parts), n)
    return LRDecomposition.from_dict(Counter(map(Partition, fillings)))


def weyl_dim_gl(lam: Partition, n: int) -> int:
    """Dimension of the GL_n irreducible with highest weight lam.

    >>> weyl_dim_gl(Partition((2, 1)), 3)
    8
    """
    if lam.rows > n:
        raise ValueError(f"{lam} has more than {n} rows")
    full = lam.parts + (0,) * (n - lam.rows)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    top = prod(full[i] - full[j] + j - i for i, j in pairs)
    bottom = prod(j - i for i, j in pairs)
    value, rest = divmod(top, bottom)
    if rest:
        raise CrossCheckError(
            f"Weyl dimension of {lam} for GL_{n} is not integral: {top}/{bottom}"
        )
    return value


def highest_weight_of_parabolic(P: ParabolicSpec) -> Partition:
    """The dominant weight whose line stabilizer is P: the sum of the
    fundamental weights at the composition's break points.

    >>> from .groups import gl
    >>> highest_weight_of_parabolic(ParabolicSpec(gl(4), Composition((2, 2))))
    Partition(parts=(1, 1))
    """
    if P.group.family is not GroupFamily.GENERAL_LINEAR:
        raise ValueError("highest weights are implemented for type A only")
    if P.orientation is not Orientation.STANDARD:
        raise ValueError("highest weights take a Standard parabolic")
    breaks = P.shape.breaks()
    n = P.group.n
    return Partition(tuple(sum(1 for d in breaks if d >= j) for j in range(1, n + 1)))


class RestrictionProbeResult(Value):
    __slots__ = ("multiplicity_free", "k_max", "first_failure", "witness")

    def __init__(
        self,
        multiplicity_free: bool,
        k_max: int,
        first_failure: int | None = None,
        witness: object = None,
    ):
        object.__setattr__(self, "multiplicity_free", multiplicity_free)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.multiplicity_free


class TensorProbeResult(Value):
    __slots__ = ("multiplicity_free", "k_max", "l_max", "first_failure", "witness")

    def __init__(
        self,
        multiplicity_free: bool,
        k_max: int,
        l_max: int,
        first_failure: tuple[int, int] | None = None,
        witness: object = None,
    ):
        object.__setattr__(self, "multiplicity_free", multiplicity_free)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "l_max", l_max)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.multiplicity_free


def spherical_probe_restriction(
    P: ParabolicSpec, p: int, q: int, k_max: int = 4
) -> RestrictionProbeResult:
    """Check that V_{k lam(P)} restricted to GL_p x GL_q is multiplicity
    free for all 0 <= k <= k_max.

    A truncated sweep, not a proof: the bound used is part of the
    result.  (Duality makes the restriction multiplicities of V_{k lam}
    and its contragredient agree for GL, so probing V_{k lam} itself
    loses nothing.)
    """
    if p + q != P.group.n:
        raise ValueError(f"p + q must equal {P.group.n}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lam = highest_weight_of_parabolic(P)
    for k in range(0, k_max + 1):
        repeat = _first_repeat(_restriction_terms(lam.scale(k).parts, p, q))
        if repeat is not None:
            mu, nu = repeat
            return RestrictionProbeResult(False, k_max, k, (Partition(mu), Partition(nu)))
    return RestrictionProbeResult(True, k_max)


def spherical_probe_tensor(
    P: ParabolicSpec,
    pair: SymmetricPairSpec,
    k_max: int = 4,
    l_max: int = 4,
) -> TensorProbeResult:
    """Check that V_{k lam} (x) V_{l lam^theta} is multiplicity free for
    all k <= k_max, l <= l_max, where lam^theta comes from theta(P).

    Sweeps in increasing k + l so small failures surface first; the
    witness is the first nu met twice among the LR fillings of
    (k lam) * (l lam^theta).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    lam = highest_weight_of_parabolic(P)
    lam_theta = highest_weight_of_parabolic(theta_on_parabolic(pair, P))
    n = P.group.n
    for total in range(0, k_max + l_max + 1):
        for k in range(0, min(total, k_max) + 1):
            l = total - k
            if l > l_max:
                continue
            shape = _product_shape(lam.scale(k).parts, lam_theta.scale(l).parts)
            witness = _first_repeat(_lattice_fillings(*shape, n))
            if witness is not None:
                return TensorProbeResult(False, k_max, l_max, (k, l), Partition(witness))
    return TensorProbeResult(True, k_max, l_max)
