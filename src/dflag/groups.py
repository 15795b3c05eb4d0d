"""Group data, parabolic specifications, and root-set computations.

One root encoding serves both families: a root is a length-n integer
vector in the epsilon coordinates, n the rank.  Coordinate k, 0-based,
of the natural module has the torus weight wt(k) = e_k for k < n, and
in Sp_2n its mirror coordinate 2n-1-k has wt = -e_k (_weights).  Every
root is wt(i) - wt(j) for two coordinates i != j, the weight of the
matrix entry (i, j): e_i - e_j in GL_n, and +-e_i +- e_j (i < j) or
+-2 e_i in Sp_2n.  Positive roots have positive leading nonzero
coordinate.  The simple root a_i, 1-based, is wt(i-1) - wt(i):
e_i - e_(i+1) for i < n, and 2 e_n in type C (_simple_root).

A Standard parabolic contains the fixed upper-triangular Borel; its
Lie algebra consists of all positive roots plus the negative roots
supported away from the composition's break points.  Opposite swaps the
roles of positive and negative.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import permutations
from operator import sub

from ._value import Value
from .compositions import Composition, SymplecticComposition

__all__ = [
    "GroupFamily",
    "GroupDatum",
    "Orientation",
    "ParabolicSpec",
    "all_roots",
    "positive_roots",
    "parabolic_root_set",
    "is_product_open",
]

Root = tuple[int, ...]
RootSet = frozenset[Root]


class GroupFamily(Enum):
    GENERAL_LINEAR = "GL"
    SYMPLECTIC = "Sp"


class GroupDatum(Value):
    """GL_n acting on C^n, or Sp_2n acting on C^{2n} (``n`` is the rank)."""

    __slots__ = ("family", "n")

    def __init__(self, family: GroupFamily, n: int):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        """Dimension of the natural module."""
        if self.family is GroupFamily.GENERAL_LINEAR:
            return self.n
        return 2 * self.n

    @property
    def simple_indices(self) -> range:
        """Indices of simple roots: 1..n-1 for GL_n, 1..n for Sp_2n."""
        if self.family is GroupFamily.GENERAL_LINEAR:
            return range(1, self.n)
        return range(1, self.n + 1)

    def __str__(self) -> str:
        return f"{self.family.value}{self.dim}"


def gl(n: int) -> GroupDatum:
    return GroupDatum(GroupFamily.GENERAL_LINEAR, n)


def sp(n: int) -> GroupDatum:
    """Sp_2n, given by its rank n."""
    return GroupDatum(GroupFamily.SYMPLECTIC, n)


class Orientation(Enum):
    STANDARD = "standard"
    OPPOSITE = "opposite"


class ParabolicSpec(Value):
    __slots__ = ("group", "shape", "orientation")

    def __init__(
        self,
        group: GroupDatum,
        shape: Composition | SymplecticComposition,
        orientation: Orientation = Orientation.STANDARD,
    ):
        if group.family is GroupFamily.GENERAL_LINEAR:
            if not isinstance(shape, Composition):
                raise ValueError("GL parabolics take a Composition")
        else:
            if not isinstance(shape, SymplecticComposition):
                raise ValueError("Sp parabolics take a SymplecticComposition")
        if shape.size != group.dim:
            raise ValueError(f"shape size {shape.size} != module dimension {group.dim}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "orientation", orientation)

    @property
    def is_standard(self) -> bool:
        return self.orientation is Orientation.STANDARD

    @property
    def is_proper(self) -> bool:
        return self.shape.is_proper

    @property
    def is_borel(self) -> bool:
        return self.excluded_simples() == frozenset(self.group.simple_indices)

    def standard_form(self) -> "ParabolicSpec":
        """The conjugate Standard spec: an Opposite one is conjugate to the
        Standard spec of the reversed composition in type A and of the
        same shape in type C."""
        if self.is_standard:
            return self
        if isinstance(self.shape, Composition):
            return ParabolicSpec(self.group, self.shape.reversed_())
        return ParabolicSpec(self.group, self.shape)

    def excluded_simples(self) -> frozenset[int]:
        """Simple roots removed from the Levi: the flag's jump dimensions
        (an isotropic jump at d < n excludes alpha_d, a Lagrangian step
        the long simple root alpha_n)."""
        return frozenset(self.shape.breaks())

    def __str__(self) -> str:
        tag = "" if self.is_standard else "opposite "
        return f"{tag}{self.shape} of {self.group}"


def borel(group: GroupDatum) -> ParabolicSpec:
    if group.family is GroupFamily.GENERAL_LINEAR:
        return ParabolicSpec(group, Composition((1,) * group.n))
    return ParabolicSpec(group, SymplecticComposition((1,) * group.n, 0))


def whole_group(group: GroupDatum) -> ParabolicSpec:
    if group.family is GroupFamily.GENERAL_LINEAR:
        return ParabolicSpec(group, Composition((group.n,)))
    return ParabolicSpec(group, SymplecticComposition((), 2 * group.n))


@lru_cache(maxsize=32)
def _weights(group: GroupDatum) -> tuple[Root, ...]:
    """wt(k) for each coordinate k, 0-based, of the natural module: e_k
    for k < n, and -e_(2n-1-k) for the mirror coordinates of Sp_2n."""
    n, mirror = group.n, group.dim - 1
    return tuple(
        tuple(int(a == k) if k < n else -int(a == mirror - k) for a in range(n))
        for k in range(group.dim)
    )


def _entry_root(group: GroupDatum, i: int, j: int) -> Root:
    """wt(i) - wt(j): the root whose root space holds the matrix entry
    (i, j), 0-based, i != j."""
    weights = _weights(group)
    return tuple(map(sub, weights[i], weights[j]))


@lru_cache(maxsize=32)
def all_roots(group: GroupDatum) -> RootSet:
    return frozenset(_entry_root(group, i, j) for i, j in permutations(range(group.dim), 2))


def is_positive_root(root: Root) -> bool:
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=32)
def positive_roots(group: GroupDatum) -> RootSet:
    return frozenset(filter(is_positive_root, all_roots(group)))


def _simple_root(group: GroupDatum, i: int) -> Root:
    """The simple root a_i, 1-based: wt(i-1) - wt(i), which is
    e_i - e_(i+1) for i < n, and 2e_n in type C."""
    return _entry_root(group, i - 1, i)


def _simple_support(group: GroupDatum, root: Root) -> frozenset[int]:
    """Indices of simple roots appearing in the expansion of ``root``."""
    v = root if is_positive_root(root) else tuple(-c for c in root)
    support = [i for i, c in enumerate(v, start=1) if c]
    first, last = support[0], support[-1]
    if v[last - 1] < 0:
        return frozenset(range(first, last))  # e_i - e_j = a_i + ... + a_(j-1)
    return frozenset(range(first, group.n + 1))  # e_i + e_j and 2e_i reach the long root


def parabolic_root_set(P: ParabolicSpec) -> RootSet:
    """Roots whose root space lies in Lie(P).

    Standard: all positive roots plus the Levi's negative roots.
    Opposite: all negative roots plus the Levi's positive roots.
    """
    excluded = P.excluded_simples()
    want_positive = P.is_standard
    out = set()
    for root in all_roots(P.group):
        if is_positive_root(root) == want_positive:
            out.add(root)
        elif not (_simple_support(P.group, root) & excluded):
            out.add(root)
    return frozenset(out)


def is_product_open(P2: ParabolicSpec, P3: ParabolicSpec) -> bool:
    """True iff Lie(P2) + Lie(P3) = Lie(G), i.e. P2 P3 is open in G."""
    if P2.group != P3.group:
        raise ValueError(f"mismatched groups {P2.group} and {P3.group}")
    return parabolic_root_set(P2) | parabolic_root_set(P3) == all_roots(P2.group)
