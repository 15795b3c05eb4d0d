"""Finiteness classification for triple and double flag varieties.

``mwz_classify_A`` and ``mwz_classify_C`` decide finiteness of a triple
product of partial flag varieties for GL_n and Sp_2n by matching the
Magyar-Weymann-Zelevinsky tables.  Each table is a row generator: for
the shapes (a, b, c) in one slot assignment it yields the (family,
label) of every row they match, and one matcher (_mwz_match) tries the
six assignments of the triple and keeps the first of each label.  The
double-flag classifiers reduce the symmetric-pair problem to those
tables in two ways:

* via a theta-stable parabolic P' with K meet P' conjugate to Q, using
  the triple (P, theta(P), P'); for AIII, CI and CII one bounded
  recursion (_splits) enumerates how the blocks of P' split between
  K's first and last factor, and for AI and AII P' is palindromic;
* via a pair (P2, P3) whose intersection realizes Q inside K, using the
  triple (P1, P2, P3); when P1 is a Borel and P2 P3 is open in G this
  criterion is exact in both directions.

Unknown is a first-class outcome: except in the exact Borel case the
criteria are sufficient only, and nothing here guesses.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from operator import attrgetter, itemgetter

from ._value import Value
from .compositions import Composition, SymplecticComposition
from .errors import BudgetExceededError, CrossCheckError
from .groups import (
    GroupFamily,
    Orientation,
    ParabolicSpec,
    is_product_open,
)
from .pairs import (
    KParabolicSpec,
    PairKind,
    SymmetricPairSpec,
    _factor_key,
    _split_parts,
    check_membership,
    theta_on_parabolic,
)

__all__ = [
    "MatchedRow",
    "TripleFlagVerdict",
    "Status",
    "Witness",
    "DoubleFlagVerdict",
    "mwz_classify_A",
    "mwz_classify_C",
    "finiteness_via_triple",
    "finiteness_via_intersection",
    "classify_AIII_borel",
    "SummaryRow",
    "summary_lookup",
    "classify_double_flag",
]

SEARCH_CAP = 200_000


class MatchedRow(Value):
    """One classification-table row matching a triple, with the witness
    slot assignment (a permutation of the input positions)."""

    __slots__ = ("family", "label", "assignment")

    def __init__(self, family: str, label: str, assignment: tuple[int, int, int]):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "assignment", assignment)

    def __str__(self) -> str:
        return self.label


class TripleFlagVerdict(Value):
    __slots__ = ("finite", "matched_rows", "normalized_triple")

    def __init__(
        self,
        finite: bool,
        matched_rows: tuple[MatchedRow, ...],
        normalized_triple: tuple[tuple[int, ...], ...],
    ):
        if finite != bool(matched_rows):
            raise ValueError("finite must hold exactly when some row matches")
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "matched_rows", matched_rows)
        object.__setattr__(self, "normalized_triple", normalized_triple)

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.matched_rows)

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({r.family for r in self.matched_rows}))


def _mwz_match(triple, n: int, key, table) -> TripleFlagVerdict:
    """Match a triple of proper shapes of one size against ``table``,
    a generator of the (family, label) rows that (a, b, c, n) matches.

    Every slot assignment is tried, and each label keeps the first
    assignment that matches it; ``key`` gives the normalized shape."""
    sizes = [c.size for c in triple]
    if len(set(sizes)) != 1:
        raise ValueError(f"sizes differ: {sizes}")
    for c in triple:
        if not c.is_proper:
            raise ValueError(f"improper parabolic (P = G) rejected: {c}")
    rows: dict[str, MatchedRow] = {}
    for perm in itertools.permutations(range(3)):
        for family, label in table(*(triple[i] for i in perm), n):
            rows.setdefault(label, MatchedRow(family, label, perm))
    matched = tuple(sorted(rows.values(), key=attrgetter("label")))
    normalized = tuple(sorted(map(key, triple), key=lambda p: (len(p), p)))
    return TripleFlagVerdict(bool(matched), matched, normalized)


def _gl_rows(a, b, c, n: int):
    """The GL_n table; part order inside a composition never matters."""
    la, lb, lc = a.length, b.length, c.length
    if la != 2:
        return
    if a.sorted_key() == (n - 1, 1):
        q, r = sorted((lb, lc))
        yield "S_{q,r}", f"S_{{{q},{r}}}"
    if lb == 2:
        yield "D_{r+2}", f"D_{lc + 2}"
    if lb == 3:
        if 3 <= lc <= 5:
            yield f"E_{lc + 3}", f"E_{lc + 3}"
        if a.sorted_key() == (n - 2, 2) and n >= 4:
            yield "E^{(a)}_{r+3}", f"E^{{(a)}}_{lc + 3}"
        if 1 in b.parts:
            yield "E^{(b)}_{r+3}", f"E^{{(b)}}_{lc + 3}"


def _sp_rows(a, b, c, n: int):
    """The Sp_2n table.  Its extra conditions bind specific slots (a
    Siegel slot, a (1, 2n-2, 1) slot), and palindromes admit no inner
    reordering."""
    fa, fb, fc = a.full_parts, b.full_parts, c.full_parts
    la, lb, lc = len(fa), len(fb), len(fc)
    pencil = (1, 2 * n - 2, 1)  # for n = 1 no shape has a zero part
    if la == 2 and lb == 2:
        yield "SpD_{r+2}", f"SpD_{lc + 2}"
    if la == 2 and lb == 3:
        if 3 <= lc <= 5:
            yield f"SpE_{lc + 3}", f"SpE_{lc + 3}"
        if fb == pencil and lc >= 3:
            yield "SpE^{(b)}_{r+3}", f"SpE^{{(b)}}_{lc + 3}"
    if la == 3 and lb == 3 and fa == pencil and fb == pencil and lc >= 3:
        yield "SpY_{4,r}", f"SpY_{{4,{lc}}}"


def mwz_classify_A(
    lam: Composition, mu: Composition, nu: Composition
) -> TripleFlagVerdict:
    """Finiteness of the GL_n triple product for compositions lam, mu, nu."""
    return _mwz_match((lam, mu, nu), lam.size, Composition.sorted_key, _gl_rows)


def mwz_classify_C(
    lam: SymplecticComposition,
    mu: SymplecticComposition,
    nu: SymplecticComposition,
) -> TripleFlagVerdict:
    """Finiteness of the Sp_2n triple product."""
    return _mwz_match((lam, mu, nu), lam.n, attrgetter("full_parts"), _sp_rows)


class Status(Enum):
    FINITE_PROVEN = "FiniteProven"
    INFINITE_PROVEN = "InfiniteProven"
    UNKNOWN = "Unknown"


class Witness(Value):
    """The reduction that proves a double-flag verdict."""

    __slots__ = ("criterion", "details", "table_row", "citation")

    def __init__(
        self,
        criterion: str,  # "triple" | "intersection" | "flag-variety"
        details: tuple[tuple[str, str], ...],
        table_row: str | None = None,
        citation: str | None = None,
    ):
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "table_row", table_row)
        object.__setattr__(self, "citation", citation)

    def as_dict(self) -> dict:
        out = dict(self.details)
        if self.table_row is not None:
            out["table_row"] = self.table_row
        if self.citation is not None:
            out["citation"] = self.citation
        out["criterion"] = self.criterion
        return out


class DoubleFlagVerdict(Value):
    __slots__ = ("status", "witness")

    def __init__(self, status: Status, witness: Witness | None):
        if (status is Status.UNKNOWN) != (witness is None):
            raise ValueError("proven verdicts carry a witness; Unknown never does")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


def _compositions(n: int):
    """All ordered compositions of n."""
    for cuts in range(1 << (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        yield tuple(parts)


def _symplectic_shapes(n: int):
    """All proper symplectic shapes for Sp_2n, ordered deterministically."""
    shapes = []
    for d in range(1, n + 1):
        for left in _compositions(d):
            shapes.append(SymplecticComposition(left, 2 * (n - d)))
    shapes.sort(key=lambda s: s.full_parts)
    return shapes


def _splits(blocks: tuple[int, ...], cap_plus: int, cap_minus: int):
    """Every (plus, minus) with plus[i] + minus[i] = blocks[i], sum(plus)
    at most cap_plus and sum(minus) at most cap_minus.  The caps never
    sum to less than the blocks, so every branch is kept."""
    if not blocks:
        yield (), ()
        return
    head, rest = blocks[0], blocks[1:]
    for b in range(max(0, head - cap_minus), min(head, cap_plus) + 1):
        for plus, minus in _splits(rest, cap_plus - b, cap_minus - head + b):
            yield (b, *plus), (head - b, *minus)


def _fmt_split(b, c) -> str:
    return " ".join(map("{}+{}".format, b, c))


def _theta_stable_splits(pair: SymmetricPairSpec):
    """(descriptor, mwz shape, plus, minus) for each theta-stable P': for
    AIII, CI and CII a shape with each block (isotropic step in type C)
    split between theta's eigenspaces, for AI and AII a palindromic
    shape met whole."""
    n = pair.group.n
    if pair.group.family is GroupFamily.SYMPLECTIC:
        shapes = [(s.full_parts, s, s.left) for s in _symplectic_shapes(n)]
    else:
        shapes = [(s, s, s) for s in _compositions(n) if len(s) >= 2]
    if not pair.is_inner:
        for descriptor, shape, blocks in shapes:
            if blocks == blocks[::-1]:
                yield descriptor, shape, blocks, (0,) * len(blocks)
        return
    # a block's part in either eigenspace is at most the rank of K's
    # factor there (CI's GL_n acts on both); in AIII the caps sum to n
    caps = pair.k_factors[0].rank, pair.k_factors[-1].rank
    for descriptor, shape, blocks in shapes:
        for plus, minus in _splits(blocks, *caps):
            yield descriptor, shape, plus, minus


@lru_cache(maxsize=1024)
def _split_count(size: int, cap_plus: int, cap_minus: int) -> int:
    """How many splits _splits yields, summed over every composition of
    ``size`` taken as its blocks: the first block and its split, then
    the rest under the caps left (the empty split, for size 0)."""
    if not size:
        return 1
    return sum(
        _split_count(size - head, cap_plus - b, cap_minus - head + b)
        for head in range(1, size + 1)
        for b in range(max(0, head - cap_minus), min(head, cap_plus) + 1)
    )


def _candidate_count(pair: SymmetricPairSpec) -> int:
    """len(_triple_candidates(pair)), in closed form."""
    n = pair.group.n
    if not pair.is_inner:
        # the proper palindromic compositions of n
        return 2 ** (n // 2) - 1
    caps = pair.k_factors[0].rank, pair.k_factors[-1].rank
    if pair.group.family is GroupFamily.SYMPLECTIC:
        # the isotropic steps fill 1..n dimensions
        return sum(_split_count(d, *caps) for d in range(1, n + 1))
    # less the improper shape (n), which AIII's caps (p, q) split one way
    return _split_count(n, *caps) - 1


def _triple_candidates(pair: SymmetricPairSpec):
    """Theta-stable parabolic candidates with the K-parabolic each cuts
    out, as (descriptor, split descriptor, Q conjugacy key, mwz shape).

    Every entry describes a theta-stable member of the conjugacy class
    of the standard parabolic of that shape (the block splitting records
    which K-conjugate realization is used).  The key is read off the
    split's parts, with no K-parabolic built, and the search space is
    counted, and refused over SEARCH_CAP, before any split is made.
    """
    count = _candidate_count(pair)
    if count > SEARCH_CAP:
        raise BudgetExceededError(
            f"theta-stable search space has {count} candidates", count, SEARCH_CAP
        )
    families = [f.family for f in pair.k_factors]
    out = []
    inner = pair.is_inner
    for descriptor, shape, plus, minus in _theta_stable_splits(pair):
        split = _fmt_split(plus, minus) if inner else ""
        qkey = tuple(map(_factor_key, families, _split_parts(pair, plus, minus)))
        out.append((descriptor, split, qkey, shape))
    # the first matching candidate is reported as the witness, so keep
    # the search order lexicographic and independent of generation order
    out.sort(key=itemgetter(0, 1))
    return out


def _trivial_finite(reason: str) -> DoubleFlagVerdict:
    return DoubleFlagVerdict(
        Status.FINITE_PROVEN,
        Witness(
            "flag-variety",
            (("reduction", reason),),
            table_row=None,
            citation="finiteness of symmetric-subgroup orbits on flag varieties",
        ),
    )


def finiteness_via_triple(
    pair: SymmetricPairSpec, P: ParabolicSpec, Q: KParabolicSpec
) -> DoubleFlagVerdict:
    """Search for a theta-stable P' with K meet P' conjugate to Q such
    that the triple (P, theta(P), P') is of finite type.

    One-directional: absence of a witness yields Unknown.
    """
    check_membership(pair, P, Q)
    if not P.is_proper:
        return _trivial_finite("P = G, so the double flag variety is Z_Q")
    if Q.is_whole_K:
        # P' = G cuts out Q = K; the triple degenerates to the single
        # flag variety X_P, which always has finitely many K-orbits.
        return _trivial_finite("P' = G, so the double flag variety is X_P")
    target = Q.conjugacy_key()
    theta = theta_on_parabolic(pair, P).shape
    family = pair.group.family
    table = mwz_classify_A if family is GroupFamily.GENERAL_LINEAR else mwz_classify_C
    for descriptor, split, qkey, shape in _triple_candidates(pair):
        if qkey != target:
            continue
        # a type A candidate carries its shape as a bare tuple
        verdict = table(P.shape, theta, Composition(shape) if isinstance(shape, tuple) else shape)
        if verdict.finite:
            row = verdict.matched_rows[0]
            details = [("p_prime", ",".join(map(str, descriptor)))]
            if split:
                details.append(("splitting", split))
            return DoubleFlagVerdict(
                Status.FINITE_PROVEN,
                Witness(
                    "triple",
                    tuple(details),
                    table_row=row.label,
                    citation=f"{family.value} triple-flag table, row {row.family}",
                ),
            )
    return DoubleFlagVerdict(Status.UNKNOWN, None)


def finiteness_via_intersection(
    pair: SymmetricPairSpec, P1: ParabolicSpec, Q: KParabolicSpec
) -> DoubleFlagVerdict:
    """Reduce through a pair (P2, P3) with K meet P2 meet P3 realizing Q.

    The implemented families are the ones with a computable
    intersection: for AIII, P2 standard of shape (Q1, Q2) and P3 the
    opposite (p, q) parabolic; for CI and Q = K, the Siegel parabolic
    and its opposite.  In both P2 contains the Borel and P3 the opposite
    one, so their product is open in G.  When P1 is a Borel the verdict
    is exact in both directions; otherwise a non-finite triple yields
    Unknown.
    """
    check_membership(pair, P1, Q)
    if not P1.is_proper:
        return _trivial_finite("P = G, so the double flag variety is Z_Q")
    if pair.kind is PairKind.AIII:
        lam, mu = Q.factors
        shape2, shape3 = Composition(lam.parts + mu.parts), Composition((pair.p, pair.q))
        table = mwz_classify_A
    elif pair.kind is PairKind.CI and Q.is_whole_K:
        shape2 = shape3 = SymplecticComposition((pair.group.n,), 0)
        table = mwz_classify_C
    else:
        return DoubleFlagVerdict(Status.UNKNOWN, None)
    p2 = ParabolicSpec(pair.group, shape2)
    p3 = ParabolicSpec(pair.group, shape3, Orientation.OPPOSITE)
    if not is_product_open(p2, p3):
        raise CrossCheckError(f"the product of {shape2} and opposite {shape3} is not open")
    verdict = table(P1.shape, shape2, shape3)
    details = (("p2", str(shape2)), ("p3", f"opposite {shape3}"), ("product_open", "true"))
    if verdict.finite:
        row = verdict.matched_rows[0]
        return DoubleFlagVerdict(
            Status.FINITE_PROVEN,
            Witness("intersection", details, row.label, "triple-flag reduction"),
        )
    if P1.is_borel:
        return DoubleFlagVerdict(
            Status.INFINITE_PROVEN,
            Witness(
                "intersection",
                details,
                None,
                "exact Borel criterion: open product, triple not of finite type",
            ),
        )
    return DoubleFlagVerdict(Status.UNKNOWN, None)


def classify_AIII_borel(p: int, q: int, Q1: Composition, Q2: Composition) -> str:
    """The five-case table for X_B x Z_{Q1 x Q2} of AIII(p, q), q >= p.

    Returns 'i'..'v' or 'Infinite'.  Overlapping rows resolve to the
    most specific case (whole-group conditions before mirabolic ones).
    """
    if not (1 <= p <= q):
        raise ValueError(f"need q >= p >= 1, got p={p}, q={q}")
    if Q1.size != p or Q2.size != q:
        raise ValueError(f"Q1 must be a composition of {p}, Q2 of {q}")
    q1_whole, q2_whole = not Q1.is_proper, not Q2.is_proper
    if q1_whole and q2_whole:
        return "i"
    if p == 1:
        return "iii"
    if p == 2 and q1_whole and Q2.is_maximal:
        return "iv"
    if q1_whole and Q2.is_mirabolic:
        return "ii"
    if Q1.is_mirabolic and q2_whole:
        return "v"
    return "Infinite"


class SummaryRow(Value):
    __slots__ = ("kind", "row", "description")

    def __init__(self, kind: PairKind, row: int, description: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "description", description)

    @property
    def citation(self) -> str:
        return f"summary table {self.kind.value}, row {self.row}"


def _is_siegel_so(shape: Composition, n: int) -> bool:
    return n % 2 == 0 and shape.parts == (n // 2, n // 2)


def summary_lookup(
    pair: SymmetricPairSpec, P: ParabolicSpec, Q: KParabolicSpec
) -> list[SummaryRow]:
    """Rows of the per-pair summary tables covering (P, Q).

    An empty answer only means the tables do not cover the input; the
    tables are not exhaustive.
    """
    check_membership(pair, P, Q)
    kind = pair.kind
    n = pair.group.n
    shape = P.standard_form().shape
    rows: list[SummaryRow] = []
    if kind is PairKind.AI and n >= 3:
        if shape.is_maximal:
            rows.append(SummaryRow(kind, 1, "P maximal, Q arbitrary"))
        if shape.length == 3 and _is_siegel_so(Q.factors[0], n):
            rows.append(SummaryRow(kind, 2, "P of length 3, Q Siegel (n even)"))
    elif kind is PairKind.AII and n >= 4:
        (qf,) = Q.factors
        if shape.is_maximal:
            rows.append(SummaryRow(kind, 1, "P maximal, Q arbitrary"))
        if shape.length == 3 and qf.is_siegel:
            rows.append(SummaryRow(kind, 2, "P of length 3, Q Siegel"))
    elif kind is PairKind.AIII:
        q1, q2 = Q.factors
        if q1.is_mirabolic and not q2.is_proper:
            rows.append(SummaryRow(kind, 1, "P arbitrary, Q = (mirabolic, GL_q)"))
        if not q1.is_proper and q2.is_mirabolic:
            rows.append(SummaryRow(kind, 2, "P arbitrary, Q = (GL_p, mirabolic)"))
        if shape.is_maximal:
            rows.append(SummaryRow(kind, 3, "P maximal, Q arbitrary"))
        if shape.length == 3 and not q1.is_proper and q2.is_maximal:
            rows.append(SummaryRow(kind, 4, "P of length 3, Q = (GL_p, maximal)"))
        if shape.length == 3 and q1.is_maximal and not q2.is_proper:
            rows.append(SummaryRow(kind, 5, "P of length 3, Q = (maximal, GL_q)"))
        if pair.p == 1:
            rows.append(SummaryRow(kind, 6, "p = 1, Q = (GL_1, arbitrary)"))
        if pair.p == 2 and not q1.is_proper and q2.is_maximal:
            rows.append(SummaryRow(kind, 7, "p = 2, Q = (GL_2, maximal)"))
    elif kind is PairKind.CI and n >= 2:
        if shape.is_siegel:
            rows.append(SummaryRow(kind, 1, "P Siegel, Q arbitrary"))
        if shape.full_parts == (1, 2 * n - 2, 1):
            rows.append(SummaryRow(kind, 2, "P the isotropic-line stabilizer, Q arbitrary"))
    elif kind is PairKind.CII:
        q1, q2 = Q.factors
        if shape.is_siegel:
            rows.append(SummaryRow(kind, 1, "P Siegel, Q arbitrary"))
        if (
            len(shape.left) == 1
            and shape.middle > 0
            and q1.is_siegel
            and q2.is_siegel
        ):
            rows.append(
                SummaryRow(kind, 2, "P an isotropic-subspace stabilizer, Q Siegel x Siegel")
            )
    return rows


def classify_double_flag(
    pair: SymmetricPairSpec, P: ParabolicSpec, Q: KParabolicSpec
) -> tuple[DoubleFlagVerdict, list[SummaryRow]]:
    """Run both criteria and the summary tables, merging the results.

    Raises CrossCheckError if the criteria contradict each other or if
    a summary row covers an input neither criterion can prove finite.
    """
    by_intersection = finiteness_via_intersection(pair, P, Q)
    by_triple = finiteness_via_triple(pair, P, Q)
    statuses = {by_intersection.status, by_triple.status}
    if {Status.FINITE_PROVEN, Status.INFINITE_PROVEN} <= statuses:
        raise CrossCheckError(
            f"criteria disagree on {pair}, P={P}, Q={Q}: "
            f"{by_intersection.status.value} vs {by_triple.status.value}"
        )
    rows = summary_lookup(pair, P, Q)
    if by_triple.status is Status.FINITE_PROVEN:
        merged = by_triple
    elif by_intersection.status is not Status.UNKNOWN:
        merged = by_intersection
    else:
        merged = by_triple  # Unknown
    if rows and merged.status is not Status.FINITE_PROVEN:
        raise CrossCheckError(
            f"summary table covers {pair}, P={P}, Q={Q} but no criterion proves it"
        )
    return merged, rows
