"""End-to-end checks of the known finite families at slightly larger
rank: classifier verdict, summary-table row, and oracle confirmation.

CI probes run at odd field sizes (the characteristic-2 square-class
caveat; see test_fforacle).
"""

from dflag.classify import Status, classify_double_flag
from dflag.compositions import Composition as C
from dflag.compositions import SymplecticComposition as SC
from dflag.groups import ParabolicSpec, borel, gl, sp
from dflag.orbits import growth_probe
from dflag.pairs import KParabolicSpec, SymmetricPairSpec


def _assert_finite_and_bounded(pair, P, Q, q_list, expect_row=None):
    verdict, rows = classify_double_flag(pair, P, Q)
    assert verdict.status is Status.FINITE_PROVEN
    if expect_row is not None:
        assert expect_row in {r.row for r in rows}
    report = growth_probe(pair, P, Q, q_list=q_list)
    assert report.hint == "Bounded", report.entries
    return verdict, report


def test_cii_rank3_isotropic_stabilizer_with_siegel_pair():
    pair = SymmetricPairSpec.parse("CII:1,2")
    P = ParabolicSpec(sp(3), SC((2,), 2))
    Q = KParabolicSpec.parse(pair, "1,1;2,2")
    verdict, _ = _assert_finite_and_bounded(pair, P, Q, (2, 3), expect_row=2)
    assert verdict.witness.table_row == "SpE_6"


def test_cii_rank3_siegel_any_Q():
    pair = SymmetricPairSpec.parse("CII:1,2")
    P = ParabolicSpec(sp(3), SC((3,), 0))
    Q = KParabolicSpec.parse(pair, "1,1;1,2,1")
    _assert_finite_and_bounded(pair, P, Q, (2, 3), expect_row=1)


def test_ci_rank3_line_stabilizer_any_Q():
    pair = SymmetricPairSpec.parse("CI:3")
    P = ParabolicSpec(sp(3), SC((1,), 4))
    for q_text in ("3", "1,2"):
        Q = KParabolicSpec.parse(pair, q_text)
        _assert_finite_and_bounded(pair, P, Q, (3, 5), expect_row=2)


def test_ci_rank3_siegel_any_Q():
    # the counts the benchmark's ci-3-siegel cases store for q = 3
    pair = SymmetricPairSpec.parse("CI:3")
    P = ParabolicSpec(sp(3), SC((3,), 0))
    for q_text, orbits in (("3", 16), ("2,1", 40), ("1,2", 40), ("1,1,1", 76)):
        Q = KParabolicSpec.parse(pair, q_text)
        _, report = _assert_finite_and_bounded(pair, P, Q, (3, 5), expect_row=1)
        assert [orb for _, _, orb in report.entries] == [orbits, orbits], q_text


def test_aii_maximal_P_any_Q():
    pair = SymmetricPairSpec.parse("AII:4")
    P = ParabolicSpec(gl(4), C((2, 2)))
    for q_text in ("1,2,1", "2,2", "1,1,1,1", "4"):
        Q = KParabolicSpec.parse(pair, q_text)
        _assert_finite_and_bounded(pair, P, Q, (2, 3), expect_row=1)


def test_aii_length3_with_siegel_Q():
    pair = SymmetricPairSpec.parse("AII:4")
    P = ParabolicSpec(gl(4), C((1, 2, 1)))
    Q = KParabolicSpec.parse(pair, "2,2")
    _assert_finite_and_bounded(pair, P, Q, (2, 3), expect_row=2)


def test_ai_non_palindromic_P_uses_reversed_shape():
    # theta(P) has the reversed composition; the triple criterion must
    # still find the (2,2)-shaped theta-stable witness, and the
    # length-3 summary row covers the input
    pair = SymmetricPairSpec.parse("AI:4")
    P = ParabolicSpec(gl(4), C((2, 1, 1)))
    Q = KParabolicSpec.parse(pair, "2,2")
    verdict, rows = classify_double_flag(pair, P, Q)
    assert verdict.status is Status.FINITE_PROVEN
    assert verdict.witness.as_dict()["p_prime"] == "2,2"
    assert [r.row for r in rows] == [2]
    # a deep non-palindromic P is not covered by the summary tables and
    # has no theta-stable witness: Unknown, honestly
    deep = ParabolicSpec(gl(4), C((1, 1, 2)))
    q_borel = KParabolicSpec.parse(pair, "1,1,1,1")
    verdict2, rows2 = classify_double_flag(pair, deep, q_borel)
    assert verdict2.status is Status.UNKNOWN
    assert rows2 == []


def test_aiii_mirabolic_family_deep_P():
    pair = SymmetricPairSpec.parse("AIII:2,3")
    P = ParabolicSpec(gl(5), C((1, 1, 1, 2)))
    Q = KParabolicSpec.parse(pair, "2;1,2")
    verdict, rows = classify_double_flag(pair, P, Q)
    # Q2 = (1,2) is mirabolic: summary row 2, proven via the S family
    assert verdict.status is Status.FINITE_PROVEN
    assert 2 in {r.row for r in rows}
    report = growth_probe(pair, P, Q, q_list=(2, 3))
    assert report.hint == "Bounded"
