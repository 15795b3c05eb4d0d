"""Weyl groups of GL_n and Sp_2n as (signed) permutations.

Elements are stored in one-line notation: ``w[i-1]`` is the image of i,
1-based.  For Sp_2n values carry signs, with w(-i) = -w(i) implied, so
a tuple like (-2, 1) is the signed permutation sending 1 to -2 and 2
to 1.  Length is computed as the number of positive roots sent to
negative ones, which is convention-proof for both families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import CrossCheckError
from .groups import (
    GroupDatum,
    GroupFamily,
    ParabolicSpec,
    is_positive_root,
    positive_roots,
)

__all__ = [
    "WeylElement",
    "enumerate_weyl",
    "weyl_order",
    "bruhat_double_cosets",
    "DoubleCosetResult",
    "twisted_involutions",
]

OneLine = tuple[int, ...]


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element with its ambient group for length queries."""

    group: GroupDatum
    values: OneLine

    def __post_init__(self):
        n = self.group.n
        if len(self.values) != n or sorted(abs(v) for v in self.values) != list(
            range(1, n + 1)
        ):
            raise ValueError(f"not a one-line notation for rank {n}: {self.values}")
        if self.group.family is GroupFamily.GENERAL_LINEAR and any(
            v < 0 for v in self.values
        ):
            raise ValueError("sign data is only allowed in type C")

    def inverse(self) -> "WeylElement":
        return WeylElement(self.group, _inverse(self.values))

    def length(self) -> int:
        return _length(self.group, self.values)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


def _apply(w: OneLine, i: int) -> int:
    """Image of +-i under w."""
    return w[i - 1] if i > 0 else -w[-i - 1]


def _compose(u: OneLine, v: OneLine) -> OneLine:
    """(u o v)(i) = u(v(i))."""
    return tuple(_apply(u, vi) for vi in v)


def _inverse(w: OneLine) -> OneLine:
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        if wi > 0:
            out[wi - 1] = i
        else:
            out[-wi - 1] = -i
    return tuple(out)


def _root_image(w: OneLine, root, family: GroupFamily):
    if family is GroupFamily.GENERAL_LINEAR:
        i, j = root
        return (w[i - 1], w[j - 1])
    out = [0] * len(w)
    for pos, coeff in enumerate(root, start=1):
        if coeff:
            img = w[pos - 1]
            out[abs(img) - 1] += coeff if img > 0 else -coeff
    return tuple(out)


@lru_cache(maxsize=4096)
def _length(group: GroupDatum, w: OneLine) -> int:
    return sum(
        1
        for alpha in positive_roots(group)
        if not is_positive_root(group, _root_image(w, alpha, group.family))
    )


@lru_cache(maxsize=16)
def enumerate_weyl(group: GroupDatum) -> tuple[OneLine, ...]:
    """All elements in a fixed deterministic order."""
    n = group.n
    perms = itertools.permutations(range(1, n + 1))
    if group.family is GroupFamily.GENERAL_LINEAR:
        return tuple(perms)
    out = []
    for perm in perms:
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(s * v for s, v in zip(signs, perm)))
    return tuple(sorted(out))


def weyl_order(group: GroupDatum) -> int:
    import math

    n = group.n
    order = math.factorial(n)
    if group.family is GroupFamily.SYMPLECTIC:
        order <<= n
    return order


def _simple_gens(group: GroupDatum, levi_indices) -> list[OneLine]:
    """One-line forms of the simple reflections with the given indices."""
    n = group.n
    gens = []
    for i in levi_indices:
        w = list(range(1, n + 1))
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            if group.family is not GroupFamily.SYMPLECTIC:
                raise ValueError(f"no simple root {i} in type A rank {n}")
            w[n - 1] = -n
        gens.append(tuple(w))
    return gens


def _levi_simple_indices(P: ParabolicSpec):
    return sorted(set(P.group.simple_indices) - P.excluded_simples())


@dataclass(frozen=True)
class DoubleCosetResult:
    count: int
    representatives: tuple[WeylElement, ...]


def bruhat_double_cosets(P: ParabolicSpec, P2: ParabolicSpec) -> DoubleCosetResult:
    """W_P \\ W / W_P2 by exhaustive fusion, with the unique minimal-length
    representative of each double coset.

    >>> from .groups import gl, borel
    >>> bruhat_double_cosets(borel(gl(2)), borel(gl(2))).count
    2
    """
    if P.group != P2.group:
        raise ValueError("parabolic specs live in different groups")
    if not (P.is_standard and P2.is_standard):
        raise ValueError("double cosets require Standard parabolics")
    group = P.group
    left = _simple_gens(group, _levi_simple_indices(P))
    right = _simple_gens(group, _levi_simple_indices(P2))
    seen: set[OneLine] = set()
    reps = []
    for w in enumerate_weyl(group):
        if w in seen:
            continue
        # close the double coset under left/right multiplication
        orbit = {w}
        stack = [w]
        while stack:
            u = stack.pop()
            for s in left:
                v = _compose(s, u)
                if v not in orbit:
                    orbit.add(v)
                    stack.append(v)
            for s in right:
                v = _compose(u, s)
                if v not in orbit:
                    orbit.add(v)
                    stack.append(v)
        seen |= orbit
        min_len = min(_length(group, u) for u in orbit)
        minima = [u for u in orbit if _length(group, u) == min_len]
        if len(minima) != 1:
            raise CrossCheckError(f"minimal representative not unique in {sorted(orbit)}")
        reps.append(minima[0])
    reps.sort(key=lambda u: (_length(group, u), u))
    return DoubleCosetResult(len(reps), tuple(WeylElement(group, u) for u in reps))


def _is_flip(group: GroupDatum, action) -> bool:
    """Whether ``action`` (None, "identity" or "flip") is the diagram
    flip; type C has no diagram automorphism but the identity."""
    if action in (None, "identity"):
        return False
    if action != "flip":
        raise ValueError(f"unknown diagram action {action!r}")
    if group.family is not GroupFamily.GENERAL_LINEAR:
        raise ValueError("the diagram flip only exists in type A")
    return True


def _flip(w: OneLine) -> OneLine:
    """Conjugation by the longest element of S_n (the type A diagram flip)."""
    n = len(w)
    return tuple(n + 1 - w[n - i - 1] for i in range(n))


def twisted_involutions(group: GroupDatum, action="identity") -> tuple[WeylElement, ...]:
    """All v in W with theta(v) = v^{-1}, theta acting through the diagram.

    >>> from .groups import gl
    >>> len(twisted_involutions(gl(3)))
    4
    """
    theta = _flip if _is_flip(group, action) else (lambda w: w)
    out = [w for w in enumerate_weyl(group) if theta(w) == _inverse(w)]
    return tuple(WeylElement(group, w) for w in sorted(out))
