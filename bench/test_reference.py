"""The benchmark's reference computations against hand-checked values.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

from reference import (
    aiii_borel_finite,
    clan_count,
    compositions,
    gl_flag_points,
    k_flag_points,
    matrix_count,
    mwz_rows,
    q_binomial,
    sp_flag_points,
    symplectic_shapes,
)


def test_q_binomial():
    assert q_binomial(4, 2, 2) == 35  # lines of P^3(F_2): 15 points, 35 lines
    assert q_binomial(4, 2, 3) == 130
    assert q_binomial(3, 1, 5) == 31
    assert q_binomial(5, 0, 3) == q_binomial(5, 5, 3) == 1
    assert q_binomial(3, 4, 2) == 0


def test_gl_flag_points():
    assert gl_flag_points((1, 1), 2) == 3  # P^1(F_2)
    assert gl_flag_points((1, 1, 1), 2) == 21  # 7 points x 3 lines through each
    assert gl_flag_points((1, 1, 1, 1), 3) == 4 * 13 * 40
    assert gl_flag_points((2, 3), 3) == q_binomial(5, 2, 3) == 1210
    assert gl_flag_points((4,), 5) == 1


def test_isotropic_flag_points():
    # Lagrangians of a 2n-dimensional symplectic space: prod (q^i + 1)
    assert sp_flag_points((1, 1), 3) == 4  # every line of F_3^2
    assert sp_flag_points((2, 2), 3) == 4 * 10 == 40
    assert sp_flag_points((3, 3), 5) == 6 * 26 * 126 == 19656
    # every line of F_q^4 is isotropic
    assert sp_flag_points((1, 2, 1), 5) == q_binomial(4, 1, 5) == 156
    # full isotropic flags of Sp_4(F_2): 15 points, each on 3 Lagrangians
    assert sp_flag_points((1, 1, 1, 1), 2) == 45
    assert sp_flag_points((4,), 3) == 1


def test_k_flag_points():
    assert k_flag_points("AIII:2,2", [(1, 1), (2,)], 3) == 4
    assert k_flag_points("CII:1,2", [(1, 1), (1, 2, 1)], 3) == 4 * 40
    assert k_flag_points("CI:3", [(2, 1)], 3) == 13


def test_clan_count():
    assert clan_count(1, 1) == 3
    assert clan_count(2, 1) == 6
    assert clan_count(2, 2) == 21
    assert clan_count(4, 4) == 2835
    assert clan_count(0, 5) == 1


def test_matrix_count():
    n = 4
    assert matrix_count((1,) * n, (1,) * n) == 24  # permutation matrices
    assert matrix_count((2, 2), (2, 2)) == 3
    assert matrix_count((1, 2), (2, 1)) == 2
    assert matrix_count((3,), (1, 2)) == 1
    assert matrix_count((2, 2), (1, 1, 1, 1)) == 6  # C(4, 2)
    assert matrix_count((1, 2), (1, 1)) == 0


def test_mwz_rows_type_a():
    assert mwz_rows("A", [(1, 1, 1), (2, 1), (1, 1, 1)]) == {"E_6", "E^{(b)}_6", "S_{3,3}"}
    assert mwz_rows("A", [(2, 2), (2, 2), (1, 1, 1, 1)]) == {"D_6"}
    assert mwz_rows("A", [(2, 2), (1, 1, 2), (1, 1, 1, 1)]) == {
        "E_7",
        "E^{(a)}_7",
        "E^{(b)}_7",
    }
    assert mwz_rows("A", [(1, 1, 1, 1)] * 3) == set()
    assert mwz_rows("A", [(2, 2), (1, 2, 1), (1, 2, 1)]) == {
        "E_6",
        "E^{(a)}_6",
        "E^{(b)}_6",
    }
    assert mwz_rows("A", [(3, 3), (2, 2, 2), (2, 2, 2)]) == {"E_6"}
    assert mwz_rows("A", [(3, 3), (2, 2, 2), (1, 1, 1, 1, 1, 1)]) == set()


def test_mwz_rows_type_c():
    siegel, pencil = (2, 2), (1, 2, 1)
    assert mwz_rows("C", [siegel, siegel, (1, 1, 1, 1)]) == {"SpD_6"}
    assert mwz_rows("C", [siegel, pencil, pencil]) == {"SpE_6", "SpE^{(b)}_6"}
    assert mwz_rows("C", [pencil, pencil, pencil]) == {"SpY_{4,3}"}
    assert mwz_rows("C", [pencil, pencil, (1, 1, 1, 1)]) == {"SpY_{4,4}"}
    assert mwz_rows("C", [(1, 1, 1, 1)] * 3) == set()
    assert mwz_rows("C", [(3, 3), (3, 3), (3, 3)]) == {"SpD_4"}


def test_aiii_borel_table():
    whole, mirabolic = (2,), (1, 1)
    assert aiii_borel_finite(2, 2, whole, whole)  # (i)
    assert aiii_borel_finite(2, 3, whole, (1, 2))  # (ii)
    assert aiii_borel_finite(1, 3, (1,), (1, 1, 1))  # (iii)
    assert aiii_borel_finite(2, 4, whole, (2, 2))  # (iv)
    assert aiii_borel_finite(2, 2, mirabolic, whole)  # (v)
    assert not aiii_borel_finite(2, 2, mirabolic, mirabolic)
    assert not aiii_borel_finite(3, 3, whole, (1, 1, 1))
    assert not aiii_borel_finite(3, 4, whole, (2, 2))


def test_shape_lists():
    assert len(compositions(6)) == 32
    assert symplectic_shapes(1) == [(2,), (1, 1)]
    assert len(symplectic_shapes(3)) == 8
