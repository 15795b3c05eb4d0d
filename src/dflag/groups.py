"""Group data, parabolic specifications, and root-set computations.

Root encodings:

* type A (GL_n): a root is a pair ``(i, j)`` with ``i != j``, 1-based,
  standing for e_i - e_j.  Positive roots have ``i < j``.
* type C (Sp_2n): a root is a length-n integer vector in the epsilon
  coordinates, one of +-e_i +- e_j (i < j) or +-2 e_i.  Positive roots
  have positive leading nonzero coordinate.

A Standard parabolic contains the fixed upper-triangular Borel; its
Lie algebra consists of all positive roots plus the negative roots
supported away from the composition's break points.  Opposite swaps the
roles of positive and negative.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

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
def all_roots(group: GroupDatum) -> RootSet:
    n = group.n
    if group.family is GroupFamily.GENERAL_LINEAR:
        return frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    roots: set[Root] = set()
    for i in range(n):
        for sign in (2, -2):
            v = [0] * n
            v[i] = sign
            roots.add(tuple(v))
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    roots.add(tuple(v))
    return frozenset(roots)


def is_positive_root(group: GroupDatum, root: Root) -> bool:
    if group.family is GroupFamily.GENERAL_LINEAR:
        return root[0] < root[1]
    for c in root:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


@lru_cache(maxsize=32)
def positive_roots(group: GroupDatum) -> RootSet:
    return frozenset(r for r in all_roots(group) if is_positive_root(group, r))


def _simple_support(group: GroupDatum, root: Root) -> frozenset[int]:
    """Indices of simple roots appearing in the expansion of ``root``."""
    n = group.n
    if group.family is GroupFamily.GENERAL_LINEAR:
        i, j = root
        return frozenset(range(min(i, j), max(i, j)))
    v = root if is_positive_root(group, root) else tuple(-c for c in root)
    support = [i + 1 for i, c in enumerate(v) if c]
    if len(support) == 2:
        i, j = support
        if v[i - 1] == 1 and v[j - 1] == -1:
            return frozenset(range(i, j))  # e_i - e_j = a_i + ... + a_{j-1}
        return frozenset(range(i, n + 1))  # e_i + e_j reaches the long root
    (i,) = support
    return frozenset(range(i, n + 1))  # 2 e_i reaches the long root


def parabolic_root_set(P: ParabolicSpec) -> RootSet:
    """Roots whose root space lies in Lie(P).

    Standard: all positive roots plus the Levi's negative roots.
    Opposite: all negative roots plus the Levi's positive roots.
    """
    excluded = P.excluded_simples()
    want_positive = P.is_standard
    out = set()
    for root in all_roots(P.group):
        if is_positive_root(P.group, root) == want_positive:
            out.add(root)
        elif not (_simple_support(P.group, root) & excluded):
            out.add(root)
    return frozenset(out)


def is_product_open(P2: ParabolicSpec, P3: ParabolicSpec) -> bool:
    """True iff Lie(P2) + Lie(P3) = Lie(G), i.e. P2 P3 is open in G."""
    if P2.group != P3.group:
        raise ValueError(f"mismatched groups {P2.group} and {P3.group}")
    return parabolic_root_set(P2) | parabolic_root_set(P3) == all_roots(P2.group)
