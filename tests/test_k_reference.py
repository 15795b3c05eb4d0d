"""Pins what K is and what K meets P' in, against per-kind reference code.

The reference below spells out, pair kind by pair kind, the theta-stable
candidates of the triple criterion, Q = K, Q = K meet P for a Standard
theta-stable P, and the embedding of each factor of K into G.  It uses
only compositions and matrix arithmetic, so the library's one table of
K's factors is checked against an independent description.  The library
embeds no factor: it builds Q's generators from G's roots, and the
tests that let K act, or check those generators, embed its factors by
_reference_blocks.
"""

import itertools

import pytest

from dflag import gfq
from dflag.classify import _triple_candidates
from dflag.compositions import Composition, SymplecticComposition
from dflag.errors import UnsupportedPairError
from dflag.groups import ParabolicSpec, gl, sp
from dflag.orbits import _k_groups
from dflag.pairs import (
    KParabolicSpec,
    PairKind,
    SymmetricPairSpec,
    intersect_with_K,
    is_theta_stable,
    whole_K,
)
from point_action import mat_inv


def _pairs(max_a, max_c, aii=(2, 4, 6)):
    tokens = []
    for n in range(2, max_a + 1):
        tokens += [f"AIII:{p},{n - p}" for p in range(1, n)]
    tokens += [f"AI:{n}" for n in range(1, max_a + 1)]
    tokens += [f"AII:{n}" for n in aii]
    tokens += [f"CI:{n}" for n in range(1, max_c + 1)]
    for n in range(2, max_c + 1):
        tokens += [f"CII:{p},{n - p}" for p in range(1, n)]
    return [SymmetricPairSpec.parse(t) for t in tokens]


def _compositions(n):
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield tuple(parts + [run])


def _symplectic_shapes(n):
    shapes = [
        SymplecticComposition(left, 2 * (n - d))
        for d in range(1, n + 1)
        for left in _compositions(d)
    ]
    return sorted(shapes, key=lambda s: s.full_parts)


def _nonzero(parts):
    return tuple(x for x in parts if x)


def _fmt(b, c):
    return " ".join(f"{x}+{y}" for x, y in zip(b, c))


def _reference_key(pair, factors):
    """K-conjugacy key: GL factors up to the order of their blocks, SO and
    Sp factors by their whole (palindromic) shape."""
    if pair.kind is PairKind.AI:
        return (("so", factors[0].parts),)
    if pair.kind in (PairKind.AIII, PairKind.CI):
        return tuple(("gl", tuple(sorted(f.parts, reverse=True))) for f in factors)
    return tuple(("sp", f.full_parts) for f in factors)


def _reference_candidates(pair):
    kind, n, p, q = pair.kind, pair.group.n, pair.p, pair.q
    out = []
    if kind is PairKind.AIII:
        for shape in _compositions(n):
            if len(shape) < 2:
                continue
            for b in itertools.product(*(range(x + 1) for x in shape)):
                if sum(b) != p:
                    continue
                c = tuple(x - y for x, y in zip(shape, b))
                factors = (Composition(_nonzero(b)), Composition(_nonzero(c)))
                out.append((shape, _fmt(b, c), _reference_key(pair, factors), shape))
    elif kind in (PairKind.AI, PairKind.AII):
        for shape in _compositions(n):
            if len(shape) < 2 or shape != shape[::-1]:
                continue
            if kind is PairKind.AI:
                factor = Composition(shape)
            else:
                factor = SymplecticComposition.from_full(shape)
            out.append((shape, "", _reference_key(pair, (factor,)), shape))
    else:
        for shape in _symplectic_shapes(n):
            for b in itertools.product(*(range(x + 1) for x in shape.left)):
                c = tuple(x - y for x, y in zip(shape.left, b))
                if kind is PairKind.CI:
                    parts = _nonzero(b + (shape.middle // 2,) + c[::-1])
                    factors = (Composition(parts),)
                elif sum(b) > p or sum(c) > q:
                    continue
                else:
                    factors = (
                        SymplecticComposition(_nonzero(b), 2 * (p - sum(b))),
                        SymplecticComposition(_nonzero(c), 2 * (q - sum(c))),
                    )
                key = _reference_key(pair, factors)
                out.append((shape.full_parts, _fmt(b, c), key, shape))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def _reference_whole_K(pair):
    kind, n, p, q = pair.kind, pair.group.n, pair.p, pair.q
    if kind is PairKind.AIII:
        return KParabolicSpec(pair, (Composition((p,)), Composition((q,))))
    if kind is PairKind.CII:
        return KParabolicSpec(
            pair, (SymplecticComposition((), 2 * p), SymplecticComposition((), 2 * q))
        )
    if kind is PairKind.AII:
        return KParabolicSpec(pair, (SymplecticComposition((), n),))
    return KParabolicSpec(pair, (Composition((n,)),))


def _cut(parts, at):
    """Block by block, the sizes before and after coordinate ``at``."""
    before, start = [], 0
    for part in parts:
        before.append(max(0, min(start + part, at) - min(start, at)))
        start += part
    return tuple(before), tuple(x - y for x, y in zip(parts, before))


def _reference_intersection(pair, P):
    kind, n, p, q = pair.kind, pair.group.n, pair.p, pair.q
    if kind is PairKind.AIII:
        b, c = _cut(P.shape.parts, p)
        return KParabolicSpec(pair, (Composition(_nonzero(b)), Composition(_nonzero(c))))
    if kind is PairKind.AI:
        return KParabolicSpec(pair, (P.shape,))
    if kind is PairKind.AII:
        return KParabolicSpec(pair, (SymplecticComposition.from_full(P.shape.parts),))
    left = P.shape.left
    if kind is PairKind.CI:
        return KParabolicSpec(pair, (Composition(_nonzero(left + (n - sum(left),))),))
    b, c = _cut(left, p)
    return KParabolicSpec(
        pair,
        (
            SymplecticComposition(_nonzero(b), 2 * (p - sum(b))),
            SymplecticComposition(_nonzero(c), 2 * (q - sum(c))),
        ),
    )


def _standard_parabolics(group):
    if group.family.value == "GL":
        return [ParabolicSpec(group, Composition(c)) for c in _compositions(group.n)]
    shapes = [SymplecticComposition((), 2 * group.n)] + _symplectic_shapes(group.n)
    return [ParabolicSpec(group, s) for s in shapes]


def _placed(m, coords, dim):
    big = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for a, i in enumerate(coords):
        for b, j in enumerate(coords):
            big[i][j] = m[a][b]
    return tuple(tuple(r) for r in big)


def _reference_blocks(pair):
    """(factor group, embedding) per factor of K, in Q's factor order."""
    kind, n, p, q = pair.kind, pair.group.n, pair.p, pair.q
    if kind is PairKind.AIII:
        return [
            (gl(p), lambda m, f: _placed(m, range(p), n)),
            (gl(q), lambda m, f: _placed(m, range(p, n), n)),
        ]
    if kind is PairKind.CI:

        def hermitian(a, f):
            # diag(A, w A^-T w) for the anti-diagonal form, w the reversal
            w = tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n))
            dual = gfq.transpose(mat_inv(a, f))
            mirrored = gfq.mat_mul(gfq.mat_mul(w, dual, f), w, f)
            big = [[0] * (2 * n) for _ in range(2 * n)]
            for i in range(n):
                for j in range(n):
                    big[i][j] = a[i][j]
                    big[n + i][n + j] = mirrored[i][j]
            return tuple(tuple(r) for r in big)

        return [(gl(n), hermitian)]
    if kind is PairKind.CII:
        dim = 2 * n
        plus = [*range(p), *range(dim - p, dim)]
        return [
            (sp(p), lambda m, f: _placed(m, plus, dim)),
            (sp(q), lambda m, f: _placed(m, range(p, dim - p), dim)),
        ]
    return [(sp(n // 2), lambda m, f: m)]


def test_candidates_match_the_reference():
    pairs = _pairs(7, 4)
    total = 0
    for pair in pairs:
        got = _triple_candidates(pair)
        assert got == _reference_candidates(pair), str(pair)
        total += len(got)
    assert total > 2000


def test_whole_K_and_intersections_match_the_reference():
    checked = 0
    for pair in _pairs(5, 5, aii=(2, 4)):
        assert whole_K(pair) == _reference_whole_K(pair), str(pair)
        for P in _standard_parabolics(pair.group):
            if not is_theta_stable(pair, P):
                continue
            assert intersect_with_K(pair, P) == _reference_intersection(pair, P), (
                str(pair),
                str(P),
            )
            checked += 1
    assert checked > 300


def test_ai_has_no_embedding():
    with pytest.raises(UnsupportedPairError, match="AI pairs"):
        _k_groups(SymmetricPairSpec.parse("AI:3"))


@pytest.mark.parametrize(
    "token, factors, message",
    [
        ("AIII:1,2", ((1,),), "AIII needs 2 factor shape(s)"),
        ("AIII:1,2", ((1,), "2"), "AIII factor needs Composition"),
        ("AIII:1,2", ((1,), (1,)), "AIII factor size 1, expected 2"),
        ("AI:3", ((1, 2),), "AI flag shapes must be palindromic"),
        ("AII:4", ((4,),), "AII factor needs SymplecticComposition"),
        ("CI:2", ((1,),), "CI factor size 1, expected 2"),
        ("CII:1,2", ("1,1", (4,)), "CII factor needs SymplecticComposition"),
        ("CII:1,2", ("1,1", "1,1"), "CII factor size 2, expected 4"),
    ],
)
def test_factor_checks_keep_their_messages(token, factors, message):
    # a tuple stands for a Composition, a string for a symplectic shape
    pair = SymmetricPairSpec.parse(token)
    shapes = tuple(
        SymplecticComposition.parse(f) if isinstance(f, str) else Composition(f)
        for f in factors
    )
    with pytest.raises(ValueError) as info:
        KParabolicSpec(pair, shapes)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "token, text, parsed",
    [
        ("AIII:2,2", "1,1;2", "1,1;2"),
        ("AI:4", "1,2,1", "1,2,1"),
        ("AII:4", "2,2", "2,2"),
        ("CI:3", "2,1", "2,1"),
        ("CII:1,2", "2;1,2,1", "2;1,2,1"),
        ("CII:1,2", "2;1,2,1;2", "CII needs 2 factor shape(s)"),
        ("CII:1,2", "2;1,1,1", "odd middle part in (1, 1, 1)"),
        ("AIII:2,2", "2", "AIII needs 2 factor shape(s)"),
    ],
)
def test_parse_reads_each_factor_type(token, text, parsed):
    from dflag.errors import ParseError

    pair = SymmetricPairSpec.parse(token)
    try:
        got = str(KParabolicSpec.parse(pair, text))
    except ParseError as exc:
        got = str(exc)
    assert got == parsed
