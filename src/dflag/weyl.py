"""Weyl groups of GL_n and Sp_2n as (signed) permutations.

Elements are stored in one-line notation: ``w[i-1]`` is the image of i,
1-based.  For Sp_2n values carry signs, with w(-i) = -w(i) implied, so
a tuple like (-2, 1) is the signed permutation sending 1 to -2 and 2
to 1.  A root, in the one encoding of groups for both families, is
moved by sending its epsilon coordinate e_k to +-e_|w(k)|
(_root_image).  Length is computed as the number of positive roots
sent to negative ones, which is convention-proof for both families.

The double cosets W_P \\ W / W_P2 are found by the descents of their
minimal representatives, no double coset being closed, and audited by
their sizes (bruhat_double_cosets).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from ._value import Value
from .errors import CrossCheckError
from .groups import (
    GroupDatum,
    GroupFamily,
    ParabolicSpec,
    _simple_root,
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


class WeylElement(Value):
    """A Weyl group element with its ambient group for length queries."""

    __slots__ = ("group", "values")

    def __init__(self, group: GroupDatum, values: OneLine):
        n = group.n
        if len(values) != n or sorted(abs(v) for v in values) != list(range(1, n + 1)):
            raise ValueError(f"not a one-line notation for rank {n}: {values}")
        if group.family is GroupFamily.GENERAL_LINEAR and any(v < 0 for v in values):
            raise ValueError("sign data is only allowed in type C")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.group, _inverse(self.values))

    def length(self) -> int:
        return _length(self.group, self.values)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


def _inverse(w: OneLine) -> OneLine:
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        if wi > 0:
            out[wi - 1] = i
        else:
            out[-wi - 1] = -i
    return tuple(out)


def _root_image(w: OneLine, root):
    """w(root), w acting on the epsilon coordinates: e_k to +-e_|w(k)|."""
    out = [0] * len(w)
    for img, coeff in zip(w, root):
        if coeff:
            out[abs(img) - 1] += coeff if img > 0 else -coeff
    return tuple(out)


def _length(group: GroupDatum, w: OneLine) -> int:
    return sum(1 for alpha in positive_roots(group) if not is_positive_root(_root_image(w, alpha)))


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
    return _parabolic_order(group, group.simple_indices)


def _parabolic_order(group: GroupDatum, indices) -> int:
    """|W_I| for a set I of simple indices: the product over the runs of
    consecutive indices in I, (r + 1)! for a run of r roots of type A
    and 2^r r! for the run that ends at type C's long root a_n."""
    order, run = 1, 0
    for i in range(1, group.n + 1):
        if i in indices:
            run += 1
        else:
            order, run = order * math.factorial(run + 1), 0
    return order * math.factorial(run) << run


def _levi_roots(P: ParabolicSpec) -> dict:
    """The simple roots of P's Levi, each mapped to its index."""
    excluded = P.excluded_simples()
    return {_simple_root(P.group, i): i for i in P.group.simple_indices if i not in excluded}


def _ascends(w: OneLine, roots) -> bool:
    """Whether w sends every root of ``roots`` to a positive root."""
    return all(is_positive_root(_root_image(w, a)) for a in roots)


class DoubleCosetResult(Value):
    __slots__ = ("count", "representatives")

    def __init__(self, count: int, representatives: tuple[WeylElement, ...]):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "representatives", representatives)


def bruhat_double_cosets(P: ParabolicSpec, P2: ParabolicSpec) -> DoubleCosetResult:
    """W_P \\ W / W_P2, with the minimal-length representative of each
    double coset, sorted by (length, one-line form).

    w is the minimal element of W_P w W_P2 exactly when w^-1(a) > 0 for
    every simple root a of P's Levi and w(b) > 0 for every simple root b
    of P2's Levi (Carter, Finite Groups of Lie Type, 2.7), so the
    representatives are one filter over W.  The filter is audited: the
    double cosets of the representatives must partition W
    (_check_partition).

    >>> from .groups import gl, borel
    >>> bruhat_double_cosets(borel(gl(2)), borel(gl(2))).count
    2
    """
    if P.group != P2.group:
        raise ValueError("parabolic specs live in different groups")
    if not (P.is_standard and P2.is_standard):
        raise ValueError("double cosets require Standard parabolics")
    group, left, right = P.group, _levi_roots(P), _levi_roots(P2)
    reps = [
        w
        for w in enumerate_weyl(group)
        if _ascends(_inverse(w), left) and _ascends(w, right)
    ]
    _check_partition(group, left, right, reps)
    reps.sort(key=lambda u: (_length(group, u), u))
    return DoubleCosetResult(len(reps), tuple(WeylElement(group, u) for u in reps))


def _check_partition(group: GroupDatum, left: dict, right: dict, reps) -> None:
    """Raise CrossCheckError unless the double cosets W_I w W_J of the
    representatives ``reps`` hold |W| elements in all, I and J being the
    simple roots ``left`` and ``right`` (each mapped to its index).  For
    the minimal w, W_I cap wW_Jw^-1 is W_K, K the roots a of I with
    w^-1(a) in J (Kilmoyer; Carter, 2.7), so W_I w W_J has
    |W_I| |W_J| / |W_K| elements."""
    product = _parabolic_order(group, left.values()) * _parabolic_order(group, right.values())
    total = 0
    for w in reps:
        w_inv = _inverse(w)
        k = [i for a, i in left.items() if _root_image(w_inv, a) in right]
        total += product // _parabolic_order(group, k)
    if total != weyl_order(group):
        raise CrossCheckError(
            f"the double cosets of {len(reps)} representatives hold {total} "
            f"of the {weyl_order(group)} elements of W({group})"
        )


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
