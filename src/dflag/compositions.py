"""Compositions encoding parabolic block structures.

A parabolic subgroup of GL_n is encoded by a composition of n (ordered
block sizes); a parabolic of Sp_2n by a palindromic composition of 2n
whose optional middle part is even.  Only the left half plus the middle
is stored for the symplectic case; the palindrome is rebuilt on demand.
"""

from __future__ import annotations

from ._value import Value
from .errors import ParseError

__all__ = ["Composition", "SymplecticComposition", "parse_parts"]


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse "2,1,1" into (2, 1, 1), rejecting non-positive entries."""
    items = [t.strip() for t in text.split(",") if t.strip() != ""]
    if not items:
        raise ParseError(f"empty composition: {text!r}")
    try:
        parts = tuple(int(t) for t in items)
    except ValueError as exc:
        raise ParseError(f"bad composition token in {text!r}") from exc
    if any(p < 1 for p in parts):
        raise ParseError(f"composition parts must be positive: {text!r}")
    return parts


class Composition(Value):
    """An ordered sequence of positive block sizes.

    >>> Composition((2, 1, 1)).size
    4
    >>> Composition.parse("3,1").length
    2
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if len(parts) < 1 or any(p < 1 for p in parts):
            raise ValueError(f"invalid composition {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        return cls(parse_parts(text))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def is_proper(self) -> bool:
        """Proper means the parabolic is not the whole group."""
        return self.length >= 2

    @property
    def is_maximal(self) -> bool:
        """A proper maximal parabolic: exactly two blocks."""
        return self.length == 2

    @property
    def is_mirabolic(self) -> bool:
        """Stabilizer of a line or hyperplane: two blocks, one of size 1."""
        return self.length == 2 and 1 in self.parts

    def sorted_key(self) -> tuple[int, ...]:
        """Parts sorted descending; conjugacy classes of GL-parabolics
        are compared with this key, never by mutating the input."""
        return tuple(sorted(self.parts, reverse=True))

    def reversed_(self) -> "Composition":
        return Composition(tuple(reversed(self.parts)))

    @property
    def is_palindromic(self) -> bool:
        return self.parts == tuple(reversed(self.parts))

    def breaks(self) -> tuple[int, ...]:
        """Proper partial sums (the flag's jump dimensions)."""
        acc, out = 0, []
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class SymplecticComposition(Value):
    """Block sizes of a parabolic of Sp_2n: palindrome with even middle.

    ``left`` holds the sizes of the isotropic flag steps; ``middle`` is
    the (possibly zero) even size of the symplectic Levi factor.

    >>> SymplecticComposition.parse("1,2,1").full_parts
    (1, 2, 1)
    >>> SymplecticComposition.parse("2,2").isotropic_dims()
    (2,)
    """

    __slots__ = ("left", "middle")

    def __init__(self, left: tuple[int, ...], middle: int):
        if any(p < 1 for p in left):
            raise ValueError(f"invalid left parts {left}")
        if middle < 0 or middle % 2 != 0:
            raise ValueError(f"middle part must be even and >= 0, got {middle}")
        if not left and middle == 0:
            raise ValueError("empty symplectic composition")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "middle", middle)

    @classmethod
    def from_full(cls, parts: tuple[int, ...]) -> "SymplecticComposition":
        if parts != tuple(reversed(parts)):
            raise ValueError(f"not palindromic: {parts}")
        half = len(parts) // 2
        left = parts[:half]
        middle = parts[half] if len(parts) % 2 == 1 else 0
        if len(parts) % 2 == 1 and middle % 2 != 0:
            raise ValueError(f"odd middle part in {parts}")
        return cls(left, middle)

    @classmethod
    def parse(cls, text: str) -> "SymplecticComposition":
        parts = parse_parts(text)
        try:
            return cls.from_full(parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @property
    def full_parts(self) -> tuple[int, ...]:
        mid = (self.middle,) if self.middle else ()
        return self.left + mid + tuple(reversed(self.left))

    @property
    def size(self) -> int:
        return 2 * sum(self.left) + self.middle

    @property
    def n(self) -> int:
        return self.size // 2

    @property
    def length(self) -> int:
        return len(self.full_parts)

    @property
    def is_proper(self) -> bool:
        return self.length >= 2

    @property
    def is_siegel(self) -> bool:
        """Stabilizer of a Lagrangian: shape (n, n)."""
        return len(self.left) == 1 and self.middle == 0

    @property
    def is_maximal(self) -> bool:
        """Stabilizer of a single isotropic subspace: (m, 2n-2m, m) or Siegel."""
        return len(self.left) == 1

    def isotropic_dims(self) -> tuple[int, ...]:
        """Dimensions of the isotropic flag steps, all <= n."""
        acc, out = 0, []
        for p in self.left:
            acc += p
            out.append(acc)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.full_parts)
