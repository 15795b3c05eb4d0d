"""Clans of signature (p, q).

A clan is a length p+q sequence of '+', '-' and paired labels; it
records the GL_p x GL_q orbit of a full flag in C^{p+q}.  Pair labels
are canonical: pairs are numbered 1, 2, ... by first occurrence, so
clan equality is plain sequence equality.
"""

from __future__ import annotations

import itertools

from ._value import Value

__all__ = ["Clan", "enumerate_clans"]


class Clan(Value):
    """Symbols are '+', '-' (strings) or positive ints for pair labels."""

    __slots__ = ("symbols", "p", "q")

    def __init__(self, symbols: tuple, p: int, q: int):
        plus = sum(1 for s in symbols if s == "+")
        minus = sum(1 for s in symbols if s == "-")
        labels = [s for s in symbols if isinstance(s, int)]
        if len(symbols) != p + q:
            raise ValueError("clan length must be p + q")
        if plus - minus != p - q:
            raise ValueError("signature mismatch: (#+) - (#-) != p - q")
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise ValueError("every pair label must occur exactly twice")
        # canonical numbering by first occurrence
        order = []
        for s in symbols:
            if isinstance(s, int) and s not in order:
                order.append(s)
        if order != list(range(1, len(order) + 1)):
            raise ValueError(f"pair labels not canonical: {symbols}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.symbols) + ")"


def _matchings(positions: tuple[int, ...]):
    """Perfect matchings of an even set of positions."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for k, partner in enumerate(rest):
        for sub in _matchings(rest[:k] + rest[k + 1 :]):
            yield ((first, partner),) + sub


def enumerate_clans(p: int, q: int) -> list[Clan]:
    """All clans of signature (p, q), in a deterministic order.

    >>> [str(c) for c in enumerate_clans(1, 1)]
    ['(+,-)', '(-,+)', '(1,1)']
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"bad signature ({p}, {q})")
    n = p + q
    out = []
    for k in range(0, min(p, q) + 1):
        for paired in itertools.combinations(range(n), 2 * k):
            signed = [i for i in range(n) if i not in set(paired)]
            for matching in _matchings(paired):
                for plus_positions in itertools.combinations(signed, p - k):
                    symbols: list = ["-"] * n
                    for i in plus_positions:
                        symbols[i] = "+"
                    label = 0
                    starts = sorted(matching, key=min)
                    for a, b in starts:
                        label += 1
                        symbols[a] = symbols[b] = label
                    out.append(Clan(tuple(symbols), p, q))
    out.sort(key=lambda c: tuple(str(s) for s in c.symbols))
    return out
