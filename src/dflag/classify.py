"""Finiteness classification for triple and double flag varieties.

``mwz_classify_A`` and ``mwz_classify_C`` decide finiteness of a triple
product of partial flag varieties for GL_n and Sp_2n by matching the
Magyar-Weymann-Zelevinsky tables.  The double-flag classifiers reduce
the symmetric-pair problem to those tables in two ways:

* via a theta-stable parabolic P' with K meet P' conjugate to Q, using
  the triple (P, theta(P), P');
* via a pair (P2, P3) whose intersection realizes Q inside K, using the
  triple (P1, P2, P3); when P1 is a Borel and P2 P3 is open in G this
  criterion is exact in both directions.

Unknown is a first-class outcome: except in the exact Borel case the
criteria are sufficient only, and nothing here guesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

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
    check_membership,
    k_parabolic_of_split,
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


@dataclass(frozen=True)
class MatchedRow:
    """One classification-table row matching a triple, with the witness
    slot assignment (a permutation of the input positions)."""

    family: str
    label: str
    assignment: tuple[int, int, int]

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class TripleFlagVerdict:
    finite: bool
    matched_rows: tuple[MatchedRow, ...]
    normalized_triple: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.finite != bool(self.matched_rows):
            raise ValueError("finite must hold exactly when some row matches")

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.matched_rows)

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({r.family for r in self.matched_rows}))


def mwz_classify_A(
    lam: Composition, mu: Composition, nu: Composition
) -> TripleFlagVerdict:
    """Finiteness of the GL_n triple product for compositions lam, mu, nu.

    All slot assignments are tried; part order inside a composition
    never matters in type A.
    """
    triple = (lam, mu, nu)
    sizes = {c.size for c in triple}
    if len(sizes) != 1:
        raise ValueError(f"sizes differ: {[c.size for c in triple]}")
    n = sizes.pop()
    for c in triple:
        if not c.is_proper:
            raise ValueError(f"improper parabolic (P = G) rejected: {c}")
    rows: dict[str, MatchedRow] = {}
    for perm in itertools.permutations(range(3)):
        a, b, c = (triple[i] for i in perm)
        la, lb, lc = a.length, b.length, c.length
        if la != 2:
            continue
        if a.sorted_key() == (n - 1, 1):
            q, r = sorted((lb, lc))
            _add(rows, "S_{q,r}", f"S_{{{q},{r}}}", perm)
        if lb == 2:
            _add(rows, "D_{r+2}", f"D_{lc + 2}", perm)
        if lb == 3:
            if lc == 3:
                _add(rows, "E_6", "E_6", perm)
            if lc == 4:
                _add(rows, "E_7", "E_7", perm)
            if lc == 5:
                _add(rows, "E_8", "E_8", perm)
            if a.sorted_key() == (n - 2, 2) and n >= 4:
                _add(rows, "E^{(a)}_{r+3}", f"E^{{(a)}}_{lc + 3}", perm)
            if 1 in b.parts:
                _add(rows, "E^{(b)}_{r+3}", f"E^{{(b)}}_{lc + 3}", perm)
    matched = tuple(sorted(rows.values(), key=lambda r: r.label))
    normalized = tuple(
        sorted((c.sorted_key() for c in triple), key=lambda p: (len(p), p))
    )
    return TripleFlagVerdict(bool(matched), matched, normalized)


def _add(rows: dict, family: str, label: str, perm) -> None:
    rows.setdefault(label, MatchedRow(family, label, perm))


def mwz_classify_C(
    lam: SymplecticComposition,
    mu: SymplecticComposition,
    nu: SymplecticComposition,
) -> TripleFlagVerdict:
    """Finiteness of the Sp_2n triple product.

    The extra conditions bind specific slots (a Siegel slot, a
    (1, 2n-2, 1) slot), so all slot assignments are tried; palindromes
    admit no inner reordering.
    """
    triple = (lam, mu, nu)
    sizes = {c.size for c in triple}
    if len(sizes) != 1:
        raise ValueError(f"sizes differ: {[c.size for c in triple]}")
    n = sizes.pop() // 2
    for c in triple:
        if not c.is_proper:
            raise ValueError(f"improper parabolic (P = G) rejected: {c}")
    pencil = (1, 2 * n - 2, 1) if n >= 2 else None
    rows: dict[str, MatchedRow] = {}
    for perm in itertools.permutations(range(3)):
        a, b, c = (triple[i] for i in perm)
        fa, fb, fc = a.full_parts, b.full_parts, c.full_parts
        la, lb, lc = len(fa), len(fb), len(fc)
        if la == 2 and lb == 2:
            _add(rows, "SpD_{r+2}", f"SpD_{lc + 2}", perm)
        if la == 2 and lb == 3:
            if lc == 3:
                _add(rows, "SpE_6", "SpE_6", perm)
            if lc == 4:
                _add(rows, "SpE_7", "SpE_7", perm)
            if lc == 5:
                _add(rows, "SpE_8", "SpE_8", perm)
            if fb == pencil and lc >= 3:
                _add(rows, "SpE^{(b)}_{r+3}", f"SpE^{{(b)}}_{lc + 3}", perm)
        if la == 3 and lb == 3 and fa == pencil and fb == pencil and lc >= 3:
            _add(rows, "SpY_{4,r}", f"SpY_{{4,{lc}}}", perm)
    matched = tuple(sorted(rows.values(), key=lambda r: r.label))
    normalized = tuple(
        sorted((c.full_parts for c in triple), key=lambda p: (len(p), p))
    )
    return TripleFlagVerdict(bool(matched), matched, normalized)


class Status(Enum):
    FINITE_PROVEN = "FiniteProven"
    INFINITE_PROVEN = "InfiniteProven"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Witness:
    """The reduction that proves a double-flag verdict."""

    criterion: str  # "triple" | "intersection" | "flag-variety"
    details: tuple[tuple[str, str], ...]
    table_row: str | None = None
    citation: str | None = None

    def as_dict(self) -> dict:
        out = dict(self.details)
        if self.table_row is not None:
            out["table_row"] = self.table_row
        if self.citation is not None:
            out["citation"] = self.citation
        out["criterion"] = self.criterion
        return out


@dataclass(frozen=True)
class DoubleFlagVerdict:
    status: Status
    witness: Witness | None

    def __post_init__(self):
        if (self.status is Status.UNKNOWN) != (self.witness is None):
            raise ValueError("proven verdicts carry a witness; Unknown never does")


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


def _splittings(parts: tuple[int, ...], total_b: int):
    """All ways to write each part as b_i + c_i with sum(b) = total_b."""

    def rec(i: int, remaining: int, acc: tuple[int, ...]):
        if i == len(parts):
            if remaining == 0:
                yield acc
            return
        tail = sum(parts[i:])
        lo = max(0, remaining - (tail - parts[i]))
        hi = min(parts[i], remaining)
        for b in range(lo, hi + 1):
            yield from rec(i + 1, remaining - b, acc + (b,))

    yield from rec(0, total_b, ())


def _fmt_split(b, c) -> str:
    return " ".join(map("{}+{}".format, b, c))


def _theta_stable_splits(pair: SymmetricPairSpec):
    """(descriptor, mwz shape, plus, minus) for each theta-stable P': in
    type A a shape with each block split between theta's eigenspaces
    (AIII) or a palindromic shape met whole (AI, AII); in type C a shape
    with each isotropic step split."""
    n = pair.group.n
    if pair.group.family is GroupFamily.SYMPLECTIC:
        # a step's part in either eigenspace is isotropic there, so at
        # most the rank of K's factor on it (CI's GL_n acts on both)
        cap_plus, cap_minus = pair.k_factors[0].rank, pair.k_factors[-1].rank
        for shape in _symplectic_shapes(n):
            for b in itertools.product(*(range(x + 1) for x in shape.left)):
                c = tuple(x - y for x, y in zip(shape.left, b))
                if sum(b) <= cap_plus and sum(c) <= cap_minus:
                    yield shape.full_parts, shape, b, c
        return
    for shape in _compositions(n):
        if len(shape) < 2:
            continue
        if pair.is_inner:
            for b in _splittings(shape, pair.p):
                yield shape, shape, b, tuple(x - y for x, y in zip(shape, b))
        elif shape == tuple(reversed(shape)):
            yield shape, shape, shape, (0,) * len(shape)


def _triple_candidates(pair: SymmetricPairSpec):
    """Theta-stable parabolic candidates with the K-parabolic each cuts
    out, as (descriptor, split descriptor, Q conjugacy key, mwz shape).

    Every entry describes a theta-stable member of the conjugacy class
    of the standard parabolic of that shape (the block splitting records
    which K-conjugate realization is used).
    """
    out = []
    inner = pair.is_inner
    for descriptor, shape, plus, minus in _theta_stable_splits(pair):
        qc = k_parabolic_of_split(pair, plus, minus)
        split = _fmt_split(plus, minus) if inner else ""
        out.append((descriptor, split, qc.conjugacy_key(), shape))
    if len(out) > SEARCH_CAP:
        raise BudgetExceededError(
            f"theta-stable search space has {len(out)} candidates", len(out), SEARCH_CAP
        )
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
    type_a = pair.group.family is GroupFamily.GENERAL_LINEAR
    if type_a:
        p_shape = P.standard_form().shape
        theta_shape = (
            p_shape if pair.is_inner else p_shape.reversed_()
        )
    for descriptor, split, qkey, shape in _triple_candidates(pair):
        if qkey != target:
            continue
        if type_a:
            verdict = mwz_classify_A(p_shape, theta_shape, Composition(shape))
        else:
            verdict = mwz_classify_C(P.shape, P.shape, shape)
        if verdict.finite:
            row = verdict.matched_rows[0]
            details = [("p_prime", ",".join(str(x) for x in descriptor))]
            if split:
                details.append(("splitting", split))
            return DoubleFlagVerdict(
                Status.FINITE_PROVEN,
                Witness(
                    "triple",
                    tuple(details),
                    table_row=row.label,
                    citation=_triple_citation(pair, row.family),
                ),
            )
    return DoubleFlagVerdict(Status.UNKNOWN, None)


def _triple_citation(pair: SymmetricPairSpec, family: str) -> str:
    table = "GL" if pair.group.family is GroupFamily.GENERAL_LINEAR else "Sp"
    return f"{table} triple-flag table, row {family}"


def finiteness_via_intersection(
    pair: SymmetricPairSpec, P1: ParabolicSpec, Q: KParabolicSpec
) -> DoubleFlagVerdict:
    """Reduce through a pair (P2, P3) with K meet P2 meet P3 realizing Q.

    The implemented families are the ones with a computable
    intersection: for AIII, P2 standard of shape (Q1, Q2) and P3 the
    opposite (p, q) parabolic (their product is open in GL_n); for CI
    and Q = K, the Siegel parabolic and its opposite.  When P1 is a
    Borel and the product is open the verdict is exact in both
    directions; otherwise a non-finite triple yields Unknown.
    """
    check_membership(pair, P1, Q)
    kind = pair.kind
    if not P1.is_proper:
        return _trivial_finite("P = G, so the double flag variety is Z_Q")
    if kind is PairKind.AIII:
        lam, mu = Q.factors
        p2 = ParabolicSpec(pair.group, Composition(lam.parts + mu.parts))
        p3 = ParabolicSpec(
            pair.group, Composition((pair.p, pair.q)), Orientation.OPPOSITE
        )
        if not is_product_open(p2, p3):
            raise CrossCheckError(
                f"the product of {p2.shape} and opposite {p3.shape} is not open"
            )
        verdict = mwz_classify_A(
            P1.standard_form().shape, Composition(p2.shape.parts), Composition((pair.p, pair.q))
        )
        return _intersection_outcome(P1, p2, p3, verdict, True)
    if kind is PairKind.CI and Q.is_whole_K:
        n = pair.group.n
        siegel = SymplecticComposition((n,), 0)
        p2 = ParabolicSpec(pair.group, siegel)
        p3 = ParabolicSpec(pair.group, siegel, Orientation.OPPOSITE)
        verdict = mwz_classify_C(P1.shape, siegel, siegel)
        return _intersection_outcome(P1, p2, p3, verdict, is_product_open(p2, p3))
    return DoubleFlagVerdict(Status.UNKNOWN, None)


def _intersection_outcome(
    P1: ParabolicSpec,
    p2: ParabolicSpec,
    p3: ParabolicSpec,
    verdict: TripleFlagVerdict,
    open_pair: bool,
) -> DoubleFlagVerdict:
    details = (
        ("p2", str(p2.shape)),
        ("p3", f"opposite {p3.shape}"),
        ("product_open", "true" if open_pair else "false"),
    )
    if verdict.finite:
        row = verdict.matched_rows[0]
        return DoubleFlagVerdict(
            Status.FINITE_PROVEN,
            Witness("intersection", details, row.label, "triple-flag reduction"),
        )
    if P1.is_borel and open_pair:
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


BOREL_CASES = ("i", "ii", "iii", "iv", "v")


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


@dataclass(frozen=True)
class SummaryRow:
    kind: PairKind
    row: int
    description: str

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
    rows: list[SummaryRow] = []
    if kind is PairKind.AI and n >= 3:
        shape = P.standard_form().shape
        if shape.is_maximal:
            rows.append(SummaryRow(kind, 1, "P maximal, Q arbitrary"))
        if shape.length == 3 and _is_siegel_so(Q.factors[0], n):
            rows.append(SummaryRow(kind, 2, "P of length 3, Q Siegel (n even)"))
    elif kind is PairKind.AII and n >= 4:
        shape = P.standard_form().shape
        (qf,) = Q.factors
        if shape.is_maximal:
            rows.append(SummaryRow(kind, 1, "P maximal, Q arbitrary"))
        if shape.length == 3 and qf.is_siegel:
            rows.append(SummaryRow(kind, 2, "P of length 3, Q Siegel"))
    elif kind is PairKind.AIII:
        shape = P.standard_form().shape
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
        if P.shape.is_siegel:
            rows.append(SummaryRow(kind, 1, "P Siegel, Q arbitrary"))
        if P.shape.full_parts == (1, 2 * n - 2, 1):
            rows.append(SummaryRow(kind, 2, "P the isotropic-line stabilizer, Q arbitrary"))
    elif kind is PairKind.CII:
        q1, q2 = Q.factors
        if P.shape.is_siegel:
            rows.append(SummaryRow(kind, 1, "P Siegel, Q arbitrary"))
        if (
            len(P.shape.left) == 1
            and P.shape.middle > 0
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
