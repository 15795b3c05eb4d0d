"""Symmetric pairs, the theta action on parabolics, and K-parabolics.

Fixed matrix realizations (the natural module always carries the
standard basis; Sp_2n uses the anti-diagonal symplectic form pairing
coordinates i and 2n+1-i):

* AIII(p,q): theta = conjugation by diag(I_p, -I_q); K = GL_p x GL_q
  block-diagonal on the first p and last q coordinates.
* AI: theta(g) = S (g^T)^{-1} S^{-1} for S the anti-diagonal symmetric
  form; K = SO_n split.
* AII: theta(g) = J (g^T)^{-1} J^{-1} for J the anti-diagonal
  symplectic form; K = Sp_n (even n).
* CI: theta = conjugation by diag(I_n, -I_n) inside Sp_2n; K = GL_n on
  the +1 eigenspace spanned by e_1..e_n.
* CII(p,q): theta = conjugation by the diagonal sign matrix whose +1
  coordinates are {1..p} and {2n-p+1..2n}; K = Sp_2p x Sp_2q.

Conjugation by a diagonal torus element fixes every standard root
subgroup, so for AIII, CI and CII every Standard or Opposite parabolic
spec is theta-stable.  For AI and AII theta sends the standard P_shape
to the standard parabolic of the reversed shape, so a spec is
theta-stable exactly when its shape is palindromic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .compositions import Composition, SymplecticComposition
from .errors import ParseError
from .groups import GroupDatum, GroupFamily, ParabolicSpec, gl, sp, whole_group

__all__ = [
    "PairKind",
    "SymmetricPairSpec",
    "KFactor",
    "KParabolicSpec",
    "theta_on_parabolic",
    "is_theta_stable",
    "intersect_with_K",
    "k_parabolic_of_split",
    "check_membership",
    "whole_K",
]


class PairKind(Enum):
    AI = "AI"
    AII = "AII"
    AIII = "AIII"
    CI = "CI"
    CII = "CII"


@dataclass(frozen=True)
class SymmetricPairSpec:
    kind: PairKind
    group: GroupDatum
    p: int = 0
    q: int = 0
    # K's simple factors, from a table shared by equal pairs
    k_factors: tuple[KFactor, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, group = self.kind, self.group
        if kind in (PairKind.AI, PairKind.AII, PairKind.AIII):
            if group.family is not GroupFamily.GENERAL_LINEAR:
                raise ValueError(f"{kind.value} needs a general linear group")
        else:
            if group.family is not GroupFamily.SYMPLECTIC:
                raise ValueError(f"{kind.value} needs a symplectic group")
        if kind is PairKind.AII and group.n % 2 != 0:
            raise ValueError("AII needs even ambient rank")
        if kind in (PairKind.AIII, PairKind.CII):
            if self.p < 1 or self.q < 1 or self.p + self.q != group.n:
                raise ValueError(
                    f"{kind.value} needs p, q >= 1 with p + q = {group.n}"
                )
        elif self.p or self.q:
            raise ValueError(f"{kind.value} takes no (p, q) datum")
        object.__setattr__(self, "k_factors", _k_factor_table(kind, group.n, self.p, self.q))

    @classmethod
    def parse(cls, token: str, ambient_dim: int | None = None) -> "SymmetricPairSpec":
        """Parse AIII:p,q, CII:p,q, and AI / AII / CI.

        The parameter-free kinds take their rank from ``ambient_dim``
        (the dimension of the natural module, so 2n for CI) or from an
        explicit suffix like AI:4 or CI:2.
        """
        token = token.strip()
        name, _, rest = token.partition(":")
        name = name.strip().upper()
        try:
            kind = PairKind(name)
        except ValueError as exc:
            raise ParseError(f"unknown pair kind {name!r}") from exc
        values: list[int] = []
        if rest.strip():
            try:
                values = [int(t.strip()) for t in rest.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad pair parameters in {token!r}") from exc
        if kind in (PairKind.AIII, PairKind.CII):
            if len(values) != 2:
                raise ParseError(f"{kind.value} takes p,q: {token!r}")
            p, q = values
            group = gl(p + q) if kind is PairKind.AIII else sp(p + q)
            return cls(kind, group, p, q)
        if len(values) == 1:
            n = values[0]
        elif not values and ambient_dim is not None:
            if kind is PairKind.CI:
                if ambient_dim % 2 != 0:
                    raise ParseError(f"CI needs an even ambient dimension, got {ambient_dim}")
                n = ambient_dim // 2
            else:
                n = ambient_dim
        else:
            raise ParseError(f"{kind.value} needs a rank (e.g. {kind.value}:4): {token!r}")
        group = gl(n) if kind is not PairKind.CI else sp(n)
        return cls(kind, group)

    @property
    def is_inner(self) -> bool:
        """Whether theta is conjugation by a diagonal matrix."""
        return self.kind in (PairKind.AIII, PairKind.CI, PairKind.CII)

    def __str__(self) -> str:
        if self.kind in (PairKind.AIII, PairKind.CII):
            return f"{self.kind.value}:{self.p},{self.q}"
        return f"{self.kind.value}:{self.group.n}"


KShape = Composition | SymplecticComposition


@dataclass(frozen=True)
class KFactor:
    """One simple factor of K: GL_rank, Sp_2rank or (for AI) SO_rank.

    ``coords`` are the coordinates of G's natural module it acts on,
    0-based; its flag shapes have size ``len(coords)``.  CI's GL_n acts
    on e_1..e_n and dually on the mirrored half.
    """

    family: str  # "gl", "sp" or "so"
    rank: int
    coords: tuple[int, ...]


_SHAPE_TYPES = {"gl": Composition, "so": Composition, "sp": SymplecticComposition}


@lru_cache(maxsize=64)
def _k_factor_table(kind: PairKind, n: int, p: int, q: int) -> tuple[KFactor, ...]:
    """K's simple factors, the one on theta's +1 eigenspace first."""
    if kind is PairKind.AIII:
        return (KFactor("gl", p, tuple(range(p))), KFactor("gl", q, tuple(range(p, n))))
    if kind is PairKind.CII:
        dim = 2 * n
        plus = (*range(p), *range(dim - p, dim))
        return (KFactor("sp", p, plus), KFactor("sp", q, tuple(range(p, dim - p))))
    everything = tuple(range(n))
    if kind is PairKind.AII:
        return (KFactor("sp", n // 2, everything),)
    return (KFactor("so" if kind is PairKind.AI else "gl", n, everything),)


@dataclass(frozen=True)
class KParabolicSpec:
    """A parabolic of K, one shape per simple factor of K.

    AIII: (Composition of p, Composition of q).
    CII:  (SymplecticComposition of 2p, SymplecticComposition of 2q).
    AI:   a single palindromic Composition of n (an SO_n flag shape).
    AII:  a single SymplecticComposition of n (K = Sp_n, even n).
    CI:   a single Composition of n (K = GL_n).
    """

    pair: SymmetricPairSpec
    factors: tuple[KShape, ...]

    def __post_init__(self):
        table = self.pair.k_factors
        if len(self.factors) != len(table):
            raise ValueError(f"{self.pair.kind.value} needs {len(table)} factor shape(s)")
        for shape, factor in zip(self.factors, table):
            typ = _SHAPE_TYPES[factor.family]
            if not isinstance(shape, typ):
                raise ValueError(f"{self.pair.kind.value} factor needs {typ.__name__}")
            if shape.size != len(factor.coords):
                raise ValueError(
                    f"{self.pair.kind.value} factor size {shape.size}, "
                    f"expected {len(factor.coords)}"
                )
            if factor.family == "so" and not shape.is_palindromic:
                raise ValueError(f"{self.pair.kind.value} flag shapes must be palindromic")

    @classmethod
    def parse(cls, pair: SymmetricPairSpec, text: str) -> "KParabolicSpec":
        """Factors separated by ';', each a comma-separated shape."""
        chunks = [c for c in (t.strip() for t in text.split(";")) if c]
        # the factors of each K share one shape type
        typ = _SHAPE_TYPES[pair.k_factors[0].family]
        shapes = tuple(typ.parse(c) for c in chunks)
        try:
            return cls(pair, shapes)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def conjugacy_key(self):
        """Hashable key identifying the K-conjugacy class.

        GL factors are unordered (sort parts); Sp and SO factors are
        determined by their isotropic flag dimensions, i.e. by the
        shape itself.
        """
        keys = []
        for factor, shape in zip(self.pair.k_factors, self.factors):
            if factor.family == "gl":
                keys.append(("gl", shape.sorted_key()))
            elif factor.family == "so":
                keys.append(("so", shape.parts))
            else:
                keys.append(("sp", shape.full_parts))
        return tuple(keys)

    @property
    def is_whole_K(self) -> bool:
        return all(not f.is_proper for f in self.factors)

    def __str__(self) -> str:
        return ";".join(str(f) for f in self.factors)


def whole_K(pair: SymmetricPairSpec) -> KParabolicSpec:
    """Q = K itself (the point flag variety), cut out by P' = G."""
    return intersect_with_K(pair, whole_group(pair.group))


def check_membership(
    pair: SymmetricPairSpec, P: ParabolicSpec, Q: KParabolicSpec | None = None
) -> None:
    """Raise ValueError unless P is a parabolic of the pair's G and Q,
    when given, a parabolic of its K."""
    if P.group != pair.group:
        raise ValueError(f"{P} does not live in {pair}")
    if Q is not None and Q.pair != pair:
        raise ValueError(f"{Q} belongs to a different pair")


def theta_on_parabolic(pair: SymmetricPairSpec, P: ParabolicSpec) -> ParabolicSpec:
    """A spec in the conjugacy class of theta(P).

    Inner involutions (AIII, CI, CII) fix every class.  For AI and AII
    the class of theta(P) is the opposite parabolic's, represented as
    the same orientation with reversed composition.
    """
    check_membership(pair, P)
    if pair.is_inner:
        return P
    return ParabolicSpec(P.group, P.shape.reversed_(), P.orientation)


def is_theta_stable(pair: SymmetricPairSpec, P: ParabolicSpec) -> bool:
    """Whether the fixed matrix realization of P is preserved by theta."""
    check_membership(pair, P)
    if pair.is_inner:
        return True
    return P.shape.is_palindromic


def _drop_zeros(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(filter(None, parts))


def k_parabolic_of_split(
    pair: SymmetricPairSpec, plus: tuple[int, ...], minus: tuple[int, ...]
) -> KParabolicSpec:
    """K meet P' for a theta-stable P' whose i-th block (the i-th
    isotropic step in type C) has plus[i] dimensions on the coordinates
    of K's first factor, theta's +1 eigenspace, and minus[i] on the rest.
    For AI and AII that factor is all of K, so minus is all zeros.

    In type C every step comes with its mirror under the form.  An Sp
    factor sees its own part of both, around its Levi; CI's GL_n, on a
    Lagrangian, sees the -1 part of each step through its mirror, after
    the middle.  Raises ValueError for a split that does not fit K.
    """
    in_sp = pair.group.family is GroupFamily.SYMPLECTIC
    shapes = []
    for factor, own, other in zip(pair.k_factors, (plus, minus), (minus, plus)):
        if factor.family != "sp":
            if in_sp:
                own = own + (factor.rank - sum(own) - sum(other),) + other[::-1]
            shapes.append(Composition(_drop_zeros(own)))
        elif in_sp:
            left = _drop_zeros(own)
            shapes.append(SymplecticComposition(left, 2 * (factor.rank - sum(left))))
        else:
            shapes.append(SymplecticComposition.from_full(own))
    return KParabolicSpec(pair, tuple(shapes))


def intersect_with_K(pair: SymmetricPairSpec, P: ParabolicSpec) -> KParabolicSpec:
    """The K-parabolic Q = K intersected with P, in factor-shape form.

    Requires a theta-stable spec.  Orientation does not matter: the
    Opposite spec meets K in the opposite K-parabolic of the same class.
    """
    if not is_theta_stable(pair, P):
        raise ValueError(f"{P} is not theta-stable for {pair}")
    # the standard realization's blocks (isotropic steps) fill the
    # coordinates in order; count those on K's first factor
    shape = P.shape
    blocks = shape.parts if isinstance(shape, Composition) else shape.left
    first = set(pair.k_factors[0].coords)
    plus, start = [], 0
    for size in blocks:
        plus.append(len(first.intersection(range(start, start + size))))
        start += size
    minus = tuple(size - x for size, x in zip(blocks, plus))
    return k_parabolic_of_split(pair, tuple(plus), minus)
