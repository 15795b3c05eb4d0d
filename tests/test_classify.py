import itertools

import pytest

import dflag.classify
from dflag.classify import (
    Status,
    _candidate_count,
    _fmt_split,
    _theta_stable_splits,
    _triple_candidates,
    classify_AIII_borel,
    classify_double_flag,
    finiteness_via_intersection,
    finiteness_via_triple,
    mwz_classify_A,
    mwz_classify_C,
    summary_lookup,
)
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.errors import BudgetExceededError
from dflag.groups import ParabolicSpec, borel, gl, sp, whole_group
from dflag.pairs import KParabolicSpec, SymmetricPairSpec, k_parabolic_of_split, whole_K


def _comps(n):
    out = []
    for cuts in range(1 << (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return out


class TestMwzTypeA:
    def test_mirabolic_row(self):
        v = mwz_classify_A(C((3, 1)), C((1, 1, 1, 1)), C((1, 1, 1, 1)))
        assert v.finite
        assert "S_{4,4}" in v.labels()

    def test_three_maximal(self):
        v = mwz_classify_A(C((2, 2)), C((2, 2)), C((2, 2)))
        assert v.finite
        assert "D_4" in v.labels()

    def test_full_flags_rank3_infinite(self):
        v = mwz_classify_A(C((1, 1, 1)), C((1, 1, 1)), C((1, 1, 1)))
        assert not v.finite
        assert v.matched_rows == ()

    def test_e6_row(self):
        v = mwz_classify_A(C((2, 2)), C((2, 1, 1)), C((2, 1, 1)))
        assert v.finite
        assert "E_6" in v.labels()

    def test_e7_e8_rows(self):
        assert "E_7" in mwz_classify_A(
            C((3, 2)), C((2, 2, 1)), C((2, 1, 1, 1))
        ).labels()
        assert "E_8" in mwz_classify_A(
            C((3, 3)), C((2, 2, 2)), C((2, 1, 1, 1, 1))
        ).labels()

    def test_ea_row_needs_n_at_least_4(self):
        v = mwz_classify_A(C((2, 2)), C((2, 1, 1)), C((1, 1, 1, 1)))
        assert "E^{(a)}_7" in v.labels()
        # n = 3: (1, 2) sorted is (2, 1) = (n - 1, 1), so the S row matches
        # but the (n - 2, 2) row must not
        v3 = mwz_classify_A(C((1, 2)), C((1, 1, 1)), C((1, 1, 1)))
        assert all("(a)" not in lbl for lbl in v3.labels())

    def test_eb_row_part_one_any_position(self):
        for mu in [(1, 2, 2), (2, 1, 2), (2, 2, 1)]:
            v = mwz_classify_A(C((3, 2)), C(mu), C((1,) * 5))
            assert f"E^{{(b)}}_8" in v.labels()

    def test_slot_assignment_is_order_free(self):
        triple = (C((3, 1)), C((2, 2)), C((1, 1, 1, 1)))
        expected = mwz_classify_A(*triple).labels()
        for perm in itertools.permutations(triple):
            assert mwz_classify_A(*perm).labels() == expected

    def test_part_order_is_immaterial(self):
        a = mwz_classify_A(C((1, 3)), C((1, 1, 2)), C((2, 1, 1)))
        b = mwz_classify_A(C((3, 1)), C((2, 1, 1)), C((1, 2, 1)))
        assert a.labels() == b.labels()

    def test_rejects_size_mismatch_and_improper(self):
        with pytest.raises(ValueError):
            mwz_classify_A(C((2, 1)), C((2, 2)), C((2, 2)))
        with pytest.raises(ValueError):
            mwz_classify_A(C((4,)), C((2, 2)), C((2, 2)))


class TestMwzTypeC:
    def test_siegel_pair_row(self):
        v = mwz_classify_C(SC((2,), 0), SC((2,), 0), SC((1, 1), 0))
        assert v.finite
        assert "SpD_6" in v.labels()
        assert v.families() == ("SpD_{r+2}",)

    def test_spe6_row(self):
        v = mwz_classify_C(SC((2,), 0), SC((1,), 2), SC((1,), 2))
        assert v.finite
        assert "SpE_6" in v.labels()

    def test_spe7_spe8(self):
        v = mwz_classify_C(SC((3,), 0), SC((1,), 4), SC((2, 1), 0))
        assert "SpE_7" in v.labels()
        # (1,1,2,1,1) is the length-5 palindrome of size 6
        v = mwz_classify_C(SC((3,), 0), SC((1,), 4), SC((1, 1), 2))
        assert "SpE_8" in v.labels()

    def test_line_stabilizer_cube_is_finite_spy(self):
        # (1, 2n-2, 1) three times: the SpY row with r = 3; confirmed by
        # the F_q probe (18 orbits at q = 3 and q = 5; see the oracle
        # suite for the characteristic-2 splitting)
        v = mwz_classify_C(SC((1,), 2), SC((1,), 2), SC((1,), 2))
        assert v.finite
        assert v.labels() == ("SpY_{4,3}",)

    def test_spd_has_no_condition_on_third(self):
        v = mwz_classify_C(SC((3,), 0), SC((3,), 0), SC((2,), 2))
        assert v.finite
        assert "SpD_5" in v.labels()

    def test_speb_needs_r_at_least_3(self):
        v = mwz_classify_C(SC((3,), 0), SC((1,), 4), SC((2,), 2))
        assert "SpE^{(b)}_6" in v.labels()
        # r = 2 third slot: only the plain rows can match
        v = mwz_classify_C(SC((3,), 0), SC((1,), 4), SC((3,), 0))
        assert all("(b)" not in lbl for lbl in v.labels())

    def test_borel_cube_infinite(self):
        v = mwz_classify_C(SC((1, 1), 0), SC((1, 1), 0), SC((1, 1), 0))
        assert not v.finite

    def test_rejects_improper_and_size_mismatch(self):
        with pytest.raises(ValueError):
            mwz_classify_C(SC((), 4), SC((2,), 0), SC((2,), 0))
        with pytest.raises(ValueError):
            mwz_classify_C(SC((1,), 2), SC((3,), 0), SC((3,), 0))

    def test_slot_assignment_is_order_free(self):
        triple = (SC((2,), 0), SC((1,), 2), SC((1, 1), 0))
        expected = mwz_classify_C(*triple).labels()
        for perm in itertools.permutations(triple):
            assert mwz_classify_C(*perm).labels() == expected


class TestFinitenessViaTriple:
    def test_aiii_maximal_P_any_Q(self):
        pair = SymmetricPairSpec.parse("AIII:2,2")
        P = ParabolicSpec(gl(4), C((2, 2)))
        for q_text in ("2;2", "1,1;2", "1,1;1,1", "2;1,1"):
            Q = KParabolicSpec.parse(pair, q_text)
            v = finiteness_via_triple(pair, P, Q)
            assert v.status is Status.FINITE_PROVEN

    def test_aiii_maximal_uses_d_family(self):
        pair = SymmetricPairSpec.parse("AIII:2,2")
        P = ParabolicSpec(gl(4), C((3, 1)))
        Q = KParabolicSpec.parse(pair, "1,1;1,1")
        v = finiteness_via_triple(pair, P, Q)
        assert v.status is Status.FINITE_PROVEN
        assert "D_{r+2}" in v.witness.citation

    def test_aiii_mirabolic_Q_any_P(self):
        pair = SymmetricPairSpec.parse("AIII:2,3")
        Q = KParabolicSpec.parse(pair, "1,1;3")
        for shape in _comps(5):
            if len(shape) < 2:
                continue
            P = ParabolicSpec(gl(5), C(shape))
            v = finiteness_via_triple(pair, P, Q)
            assert v.status is Status.FINITE_PROVEN, shape
        deep = finiteness_via_triple(pair, borel(gl(5)), Q)
        assert "S_{q,r}" in deep.witness.citation

    def test_aii_unwitnessed_is_unknown(self):
        pair = SymmetricPairSpec.parse("AII:4")
        P = ParabolicSpec(gl(4), C((1, 2, 1)))
        Q = KParabolicSpec.parse(pair, "1,1,1,1")
        v = finiteness_via_triple(pair, P, Q)
        assert v.status is Status.UNKNOWN
        assert v.witness is None

    def test_improper_P_trivial(self):
        pair = SymmetricPairSpec.parse("AIII:2,2")
        v = finiteness_via_triple(pair, whole_group(gl(4)), whole_K(pair))
        assert v.status is Status.FINITE_PROVEN

    def test_whole_K_always_finite(self):
        pair = SymmetricPairSpec.parse("AII:4")
        v = finiteness_via_triple(pair, borel(gl(4)), whole_K(pair))
        assert v.status is Status.FINITE_PROVEN
        assert v.witness.criterion == "flag-variety"

    def test_ai_length3_with_siegel_Q(self):
        ai = SymmetricPairSpec.parse("AI:4")
        P = ParabolicSpec(gl(4), C((1, 2, 1)))
        Q = KParabolicSpec.parse(ai, "2,2")
        v = finiteness_via_triple(ai, P, Q)
        assert v.status is Status.FINITE_PROVEN

    def test_cii_isotropic_stabilizer_with_siegel_pair(self):
        cii = SymmetricPairSpec.parse("CII:1,2")
        P = ParabolicSpec(sp(3), SC((2,), 2))
        Q = KParabolicSpec.parse(cii, "1,1;2,2")
        v = finiteness_via_triple(cii, P, Q)
        assert v.status is Status.FINITE_PROVEN
        assert v.witness.table_row == "SpE_6"


class TestFinitenessViaIntersection:
    def test_exact_borel_matches_mwz(self):
        pair = SymmetricPairSpec.parse("AIII:2,2")
        Q = KParabolicSpec.parse(pair, "1,1;2")
        v = finiteness_via_intersection(pair, borel(gl(4)), Q)
        ref = mwz_classify_A(C((1, 1, 1, 1)), C((1, 1, 2)), C((2, 2)))
        assert (v.status is Status.FINITE_PROVEN) == ref.finite

    def test_hermitian_whole_K(self):
        ci = SymmetricPairSpec.parse("CI:2")
        v = finiteness_via_intersection(ci, borel(sp(2)), whole_K(ci))
        assert v.status is Status.FINITE_PROVEN
        pair = SymmetricPairSpec.parse("AIII:1,3")
        v = finiteness_via_intersection(pair, borel(gl(4)), whole_K(pair))
        assert v.status is Status.FINITE_PROVEN

    def test_borel_borel_infinite_proven(self):
        pair = SymmetricPairSpec.parse("AIII:2,2")
        Q = KParabolicSpec.parse(pair, "1,1;1,1")
        v = finiteness_via_intersection(pair, borel(gl(4)), Q)
        assert v.status is Status.INFINITE_PROVEN
        assert dict(v.witness.details)["product_open"] == "true"

    def test_non_borel_non_finite_is_unknown(self):
        # the reduction triple (P1, (1,1,1,1,1), (2,3)) has length pattern
        # (4, 5, 2) for this P1 and matches no row, but only the Borel
        # case may conclude infiniteness
        pair = SymmetricPairSpec.parse("AIII:2,3")
        Q = KParabolicSpec.parse(pair, "1,1;1,1,1")
        P = ParabolicSpec(gl(5), C((2, 1, 1, 1)))
        v = finiteness_via_intersection(pair, P, Q)
        assert v.status is Status.UNKNOWN
        borel_v = finiteness_via_intersection(pair, borel(gl(5)), Q)
        assert borel_v.status is Status.INFINITE_PROVEN

    def test_matches_borel_table_up_to_rank_6(self):
        for p in range(1, 4):
            for q in range(p, 7 - p):
                pair = SymmetricPairSpec.parse(f"AIII:{p},{q}")
                B = borel(gl(p + q))
                for s1 in _comps(p):
                    for s2 in _comps(q):
                        case = classify_AIII_borel(p, q, C(s1), C(s2))
                        Q = KParabolicSpec(pair, (C(s1), C(s2)))
                        v = finiteness_via_intersection(pair, B, Q)
                        assert (case != "Infinite") == (
                            v.status is Status.FINITE_PROVEN
                        ), (p, q, s1, s2, case, v.status)
                        if case == "Infinite":
                            assert v.status is Status.INFINITE_PROVEN


class TestBorelTable:
    def test_case_iii(self):
        assert classify_AIII_borel(1, 5, C((1,)), C((1, 1, 1, 1, 1))) == "iii"

    def test_case_iv_beats_mirabolic(self):
        assert classify_AIII_borel(2, 3, C((2,)), C((2, 1))) == "iv"

    def test_infinite(self):
        assert classify_AIII_borel(3, 3, C((3,)), C((1, 1, 1))) == "Infinite"

    def test_case_i_ii_v(self):
        assert classify_AIII_borel(3, 3, C((3,)), C((3,))) == "i"
        assert classify_AIII_borel(3, 3, C((3,)), C((1, 2))) == "ii"
        assert classify_AIII_borel(3, 3, C((2, 1)), C((3,))) == "v"

    def test_rejects_p_greater_than_q(self):
        with pytest.raises(ValueError):
            classify_AIII_borel(3, 2, C((3,)), C((2,)))


class TestSummaryLookup:
    def test_aii_maximal(self):
        pair = SymmetricPairSpec.parse("AII:4")
        P = ParabolicSpec(gl(4), C((2, 2)))
        rows = summary_lookup(pair, P, KParabolicSpec.parse(pair, "1,2,1"))
        assert [r.row for r in rows] == [1]
        assert rows[0].citation == "summary table AII, row 1"

    def test_ci_siegel(self):
        ci = SymmetricPairSpec.parse("CI:2")
        P = ParabolicSpec(sp(2), SC((2,), 0))
        rows = summary_lookup(ci, P, KParabolicSpec.parse(ci, "1,1"))
        assert [r.row for r in rows] == [1]

    def test_ai_borel_not_covered(self):
        ai = SymmetricPairSpec.parse("AI:3")
        rows = summary_lookup(ai, borel(gl(3)), KParabolicSpec.parse(ai, "1,1,1"))
        assert rows == []

    def test_aiii_multiple_rows(self):
        pair = SymmetricPairSpec.parse("AIII:1,2")
        P = ParabolicSpec(gl(3), C((2, 1)))
        Q = KParabolicSpec.parse(pair, "1;2")
        rows = summary_lookup(pair, P, Q)
        assert {r.row for r in rows} >= {3, 6}

    def test_cii_isotropic_with_siegels(self):
        cii = SymmetricPairSpec.parse("CII:1,2")
        P = ParabolicSpec(sp(3), SC((2,), 2))
        Q = KParabolicSpec.parse(cii, "1,1;2,2")
        rows = summary_lookup(cii, P, Q)
        assert [r.row for r in rows] == [2]


def _k_specs(pair):
    """A catalog of K-parabolic specs for sweep tests."""
    from dflag.pairs import PairKind

    kind = pair.kind
    if kind is PairKind.AIII:
        return [
            KParabolicSpec(pair, (C(a), C(b)))
            for a in _comps(pair.p)
            for b in _comps(pair.q)
        ]
    if kind is PairKind.CI:
        return [KParabolicSpec(pair, (C(c),)) for c in _comps(pair.group.n)]
    if kind is PairKind.AI:
        n = pair.group.n
        return [
            KParabolicSpec(pair, (C(c),))
            for c in _comps(n)
            if c == tuple(reversed(c))
        ]
    if kind is PairKind.AII:
        n = pair.group.n
        return [
            KParabolicSpec(pair, (SC.from_full(c),))
            for c in _comps(n)
            if c == tuple(reversed(c)) and (len(c) % 2 == 0 or c[len(c) // 2] % 2 == 0)
        ]
    sps = []
    for d in range(0, pair.p + 1):
        for left in _comps(d) if d else [()]:
            sps.append(SC(left, 2 * (pair.p - d)))
    sqq = []
    for d in range(0, pair.q + 1):
        for left in _comps(d) if d else [()]:
            sqq.append(SC(left, 2 * (pair.q - d)))
    return [KParabolicSpec(pair, (a, b)) for a in sps for b in sqq]


def _g_parabolics(pair):
    group = pair.group
    if group.family.value == "GL":
        return [ParabolicSpec(group, C(c)) for c in _comps(group.n)]
    shapes = [SC((), 2 * group.n)]
    for d in range(1, group.n + 1):
        for left in _comps(d):
            shapes.append(SC(left, 2 * (group.n - d)))
    return [ParabolicSpec(group, s) for s in shapes]


def test_summary_rows_always_proven():
    # a nonempty summary lookup must be backed by a proving criterion
    tokens = ["AIII:1,2", "AIII:2,2", "AIII:1,3", "AI:4", "AII:4", "CI:2", "CII:1,1", "CII:1,2"]
    covered = 0
    for token in tokens:
        pair = SymmetricPairSpec.parse(token)
        for P in _g_parabolics(pair):
            for Q in _k_specs(pair):
                verdict, rows = classify_double_flag(pair, P, Q)
                if rows:
                    covered += 1
                    assert verdict.status is Status.FINITE_PROVEN, (token, str(P), str(Q))
    assert covered > 50


def test_verdict_invariants():
    from dflag.classify import DoubleFlagVerdict, Witness

    with pytest.raises(ValueError):
        DoubleFlagVerdict(Status.UNKNOWN, Witness("triple", ()))
    with pytest.raises(ValueError):
        DoubleFlagVerdict(Status.FINITE_PROVEN, None)


def test_non_open_intersection_product_raises(monkeypatch):
    import dflag.classify
    from dflag.errors import CrossCheckError

    monkeypatch.setattr(dflag.classify, "is_product_open", lambda p2, p3: False)
    pair = SymmetricPairSpec.parse("AIII:2,2")
    Q = KParabolicSpec.parse(pair, "1,1;1,1")
    with pytest.raises(CrossCheckError, match="not open"):
        dflag.classify.finiteness_via_intersection(pair, borel(gl(4)), Q)


# ---------------------------------------------------- theta-stable search


def _search_pairs():
    """AIII and AI up to rank 7, AII:2, 4, 6, CI and CII up to rank 5,
    each (p, q) with p <= q: 32 pairs."""
    tokens = [f"AIII:{p},{n - p}" for n in range(2, 8) for p in range(1, n // 2 + 1)]
    tokens += [f"AI:{n}" for n in range(2, 8)] + [f"AII:{n}" for n in (2, 4, 6)]
    tokens += [f"CI:{n}" for n in range(1, 6)]
    tokens += [f"CII:{p},{n - p}" for n in range(2, 6) for p in range(1, n // 2 + 1)]
    return [SymmetricPairSpec.parse(t) for t in tokens]


def _key_of_shapes(spec):
    """A K-conjugacy key read off the shapes themselves: a GL factor's
    parts in any order, an SO factor's flag and an Sp factor's full
    palindrome as they are."""
    keys = []
    for factor, shape in zip(spec.pair.k_factors, spec.factors):
        if factor.family == "gl":
            keys.append(("gl", shape.sorted_key()))
        elif factor.family == "so":
            keys.append(("so", shape.parts))
        else:
            keys.append(("sp", shape.full_parts))
    return tuple(keys)


def _candidates_through_specs(pair):
    """The search with one validated KParabolicSpec built per split, its
    key read through conjugacy_key and checked against its shapes."""
    out = []
    for descriptor, shape, plus, minus in _theta_stable_splits(pair):
        spec = k_parabolic_of_split(pair, plus, minus)
        key = spec.conjugacy_key()
        assert key == _key_of_shapes(spec), (str(pair), str(spec))
        out.append((descriptor, _fmt_split(plus, minus) if pair.is_inner else "", key, shape))
    return sorted(out, key=lambda c: (c[0], c[1]))


def test_candidates_match_the_spec_path():
    pairs = _search_pairs()
    assert len(pairs) == 32
    total = 0
    for pair in pairs:
        got = _triple_candidates(pair)
        assert got == _candidates_through_specs(pair), str(pair)
        total += len(got)
    assert total > 3000


def test_the_search_is_counted_in_closed_form():
    for pair in _search_pairs():
        assert _candidate_count(pair) == len(_triple_candidates(pair)), str(pair)


def test_a_lowered_cap_refuses_before_any_split(monkeypatch):
    pair = SymmetricPairSpec.parse("AIII:3,3")
    size = len(_triple_candidates(pair))

    def never(*args):
        raise AssertionError("a split was made")

    monkeypatch.setattr(dflag.classify, "SEARCH_CAP", size - 1)
    monkeypatch.setattr(dflag.classify, "_theta_stable_splits", never)
    monkeypatch.setattr(dflag.classify, "_split_parts", never)
    with pytest.raises(BudgetExceededError, match=f"search space has {size} candidates") as err:
        finiteness_via_triple(pair, borel(gl(6)), KParabolicSpec.parse(pair, "1,2;3"))
    assert (err.value.size, err.value.budget) == (size, size - 1)
    monkeypatch.undo()
    monkeypatch.setattr(dflag.classify, "SEARCH_CAP", size)
    assert len(_triple_candidates(pair)) == size
    # at the real cap, a pair whose search would never end is refused
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError, match="has 4145895935 candidates"):
        _triple_candidates(SymmetricPairSpec.parse("AIII:10,10"))
