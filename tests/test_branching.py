"""Branching tests, cross-checked against an independent symmetric
function oracle: Schur polynomials expanded as sums of semistandard
tableau monomials, with products decomposed greedily along the
lex-leading term.  That route never touches the lattice-word machinery
under test.
"""

import pytest

from dflag.classify import _compositions
from dflag.compositions import Composition as C
from dflag.groups import Orientation, ParabolicSpec, borel, gl, sp
from dflag.lr import (
    Partition,
    highest_weight_of_parabolic,
    lr_coefficient,
    restrict_to_levi,
    spherical_probe_restriction,
    spherical_probe_tensor,
    tensor_decompose,
    weyl_dim_gl,
)
from dflag.pairs import SymmetricPairSpec, theta_on_parabolic

P = Partition


# ---------------------------------------------------------------- oracle


def _ssyt_contents(shape, nvars):
    """Contents (as exponent tuples) of all SSYT of ``shape`` with
    entries <= nvars, one per tableau."""
    rows = len(shape)
    if rows == 0:
        yield (0,) * nvars
        return
    grid = [[0] * shape[r] for r in range(rows)]
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    content = [0] * (nvars + 1)

    def fill(idx):
        if idx == len(cells):
            yield tuple(content[1:])
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            content[v] += 1
            yield from fill(idx + 1)
            content[v] -= 1
            grid[r][c] = 0

    yield from fill(0)


def _schur_poly(shape, nvars):
    poly = {}
    for mono in _ssyt_contents(shape, nvars):
        poly[mono] = poly.get(mono, 0) + 1
    return poly


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _schur_expand(poly, nvars):
    """Greedy expansion of a symmetric polynomial into Schur terms."""
    residual = dict(poly)
    out = {}
    while residual:
        lead = max(k for k, v in residual.items() if v)
        coeff = residual[lead]
        shape = tuple(x for x in lead)
        assert all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1)), lead
        out[tuple(x for x in shape if x)] = coeff
        for mono, c in _schur_poly(shape, nvars).items():
            residual[mono] = residual.get(mono, 0) - coeff * c
        residual = {k: v for k, v in residual.items() if v}
    return out


def _oracle_tensor(lam, mu, n):
    prod = _poly_mul(_schur_poly(lam, n), _schur_poly(mu, n))
    return _schur_expand(prod, n)


# ------------------------------------------------------- lr coefficient


def test_pieri_single_box():
    assert lr_coefficient(P((2,)), P((1,)), P((1,))) == 1


def test_skew_column_case():
    assert lr_coefficient(P((2, 1)), P((1,)), P((1, 1))) == 1


def test_pinned_multiplicity_two():
    assert lr_coefficient(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2


def test_size_mismatch_is_zero():
    assert lr_coefficient(P((3,)), P((1,)), P((1,))) == 0


def _partitions_up_to(size, max_rows=4):
    out = [()]
    for total in range(1, size + 1):
        def rec(remaining, max_part, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            if len(acc) == max_rows:
                return
            for part in range(min(remaining, max_part), 0, -1):
                rec(remaining - part, part, acc + [part])

        rec(total, total, [])
    return out


def test_lr_symmetry_exhaustive():
    parts = [p for p in _partitions_up_to(4)]
    for lam_p in _partitions_up_to(6):
        lam = P(lam_p)
        for mu_p in parts:
            for nu_p in parts:
                if sum(mu_p) + sum(nu_p) != lam.size:
                    continue
                assert lr_coefficient(lam, P(mu_p), P(nu_p)) == lr_coefficient(
                    lam, P(nu_p), P(mu_p)
                )


def test_tensor_matches_schur_oracle():
    parts = _partitions_up_to(4)
    cases = [
        (lam, mu, n)
        for n in range(1, 5)
        for lam in parts
        for mu in parts
        if len(lam) <= n and len(mu) <= n
    ]
    assert len(cases) == 371
    for lam, mu, n in cases:
        mine = tensor_decompose(P(lam), P(mu), n)
        assert {k.parts: v for k, v in mine} == _oracle_tensor(lam, mu, n), (lam, mu, n)
        # lam * mu and mu * lam are different skew shapes
        assert mine == tensor_decompose(P(mu), P(lam), n), (lam, mu, n)


def test_restriction_matches_schur_oracle():
    # s_lam(x1..xp, y1..yq) = sum c^lam_{mu nu} s_mu(x) s_nu(y)
    for lam, p, q in [((2, 1), 2, 2), ((2, 2), 2, 1), ((3, 1), 1, 2)]:
        lhs = _schur_poly(lam, p + q)
        rhs = {}
        for (mu, nu), c in restrict_to_levi(P(lam), p, q):
            for ma, ca in _schur_poly(mu.parts, p).items():
                for mb, cb in _schur_poly(nu.parts, q).items():
                    key = ma + mb
                    rhs[key] = rhs.get(key, 0) + c * ca * cb
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, (lam, p, q)


# ------------------------------------------------------------ restriction


def test_standard_rep_splits():
    dec = restrict_to_levi(P((1,)), 1, 1)
    assert dec.as_dict() == {
        (P((1,)), P(())): 1,
        (P(()), P((1,))): 1,
    }


def test_adjoint_weight_six_pairs():
    dec = restrict_to_levi(P((2, 1)), 2, 2)
    assert len(dec) == 6
    assert dec.is_multiplicity_free
    audit = sum(
        c * weyl_dim_gl(mu, 2) * weyl_dim_gl(nu, 2) for (mu, nu), c in dec
    )
    assert audit == weyl_dim_gl(P((2, 1)), 4) == 20


def test_adjoint_weight_audit_rank3():
    dec = restrict_to_levi(P((2, 1)), 2, 1)
    audit = sum(
        c * weyl_dim_gl(mu, 2) * weyl_dim_gl(nu, 1) for (mu, nu), c in dec
    )
    assert audit == weyl_dim_gl(P((2, 1)), 3) == 8


def test_staircase_restriction_not_free():
    dec = restrict_to_levi(P((3, 2, 1)), 2, 2)
    assert dec.multiplicity((P((2, 1)), P((2, 1)))) == 2
    assert not dec.is_multiplicity_free


def test_restriction_row_bound():
    with pytest.raises(ValueError):
        restrict_to_levi(P((1, 1, 1)), 1, 1)


# ----------------------------------------------------------------- tensor


def test_square_of_standard():
    dec = tensor_decompose(P((1,)), P((1,)), 2)
    assert dec.as_dict() == {P((2,)): 1, P((1, 1)): 1}


def test_adjoint_square_multiplicity():
    dec = tensor_decompose(P((2, 1)), P((2, 1)), 3)
    assert dec.multiplicity(P((3, 2, 1))) == 2


def test_pieri_products_multiplicity_free():
    for lam_p in _partitions_up_to(6):
        lam = P(lam_p)
        for k in range(1, 5):
            dec = tensor_decompose(lam, P((k,)), 4)
            assert dec.is_multiplicity_free, (lam_p, k)


def test_tensor_dimension_audit():
    for lam_p, mu_p, n in [
        ((2, 1), (2, 1), 3),
        ((2, 2), (1, 1), 4),
        ((3, 1), (2,), 4),
        ((1, 1, 1), (2, 1), 3),
    ]:
        lam, mu = P(lam_p), P(mu_p)
        dec = tensor_decompose(lam, mu, n)
        total = sum(c * weyl_dim_gl(nu, n) for nu, c in dec)
        assert total == weyl_dim_gl(lam, n) * weyl_dim_gl(mu, n)


# ------------------------------------------------------------- dimensions


def test_weyl_dims():
    assert weyl_dim_gl(P((1,)), 3) == 3
    assert weyl_dim_gl(P((2, 1)), 3) == 8
    assert weyl_dim_gl(P(()), 5) == 1
    assert weyl_dim_gl(P((4,)), 2) == 5


def _partitions(size, rows, largest=None):
    """Partitions of ``size`` into at most ``rows`` parts, each at most
    ``largest``."""
    if size == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, rows - 1, first):
            yield (first,) + rest


def test_weyl_dims_match_the_fraction_formula():
    # the product of (lam_i - lam_j + j - i) / (j - i), in exact fractions
    from fractions import Fraction

    checked = 0
    for n in range(1, 7):
        for size in range(9):
            for parts in _partitions(size, n):
                full = parts + (0,) * (n - len(parts))
                value = Fraction(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        value *= Fraction(full[i] - full[j] + j - i, j - i)
                assert value.denominator == 1
                assert weyl_dim_gl(P(parts), n) == value, (parts, n)
                checked += 1
    assert checked == 252


# --------------------------------------------------------- highest weight


def test_highest_weights():
    assert highest_weight_of_parabolic(
        ParabolicSpec(gl(4), C((2, 2)))
    ) == P((1, 1))
    assert highest_weight_of_parabolic(
        ParabolicSpec(gl(3), C((1, 1, 1)))
    ) == P((2, 1))
    assert highest_weight_of_parabolic(
        ParabolicSpec(gl(4), C((1, 3)))
    ) == P((1,))


def test_highest_weight_rejects_non_type_a():
    from dflag.compositions import SymplecticComposition

    with pytest.raises(ValueError):
        highest_weight_of_parabolic(
            ParabolicSpec(sp(2), SymplecticComposition((2,), 0))
        )
    with pytest.raises(ValueError):
        highest_weight_of_parabolic(
            ParabolicSpec(gl(3), C((2, 1)), Orientation.OPPOSITE)
        )


# ----------------------------------------------------------------- probes


def test_probe_restriction_pieri_pair():
    r = spherical_probe_restriction(ParabolicSpec(gl(3), C((1, 2))), 1, 2, 6)
    assert r.multiplicity_free


def test_probe_restriction_borel_fails_at_one():
    r = spherical_probe_restriction(borel(gl(4)), 2, 2, 3)
    assert not r.multiplicity_free
    assert r.first_failure == 1
    assert r.witness == (P((2, 1)), P((2, 1)))


def test_probe_restriction_rank2_torus():
    r = spherical_probe_restriction(borel(gl(2)), 1, 1, 6)
    assert r.multiplicity_free


def test_probe_tensor_rectangles():
    pair = SymmetricPairSpec.parse("AIII:2,2")
    t = spherical_probe_tensor(ParabolicSpec(gl(4), C((2, 2))), pair, 3, 3)
    assert t.multiplicity_free


def test_probe_tensor_borel_ai_fails(
):
    t = spherical_probe_tensor(borel(gl(3)), SymmetricPairSpec.parse("AI:3"), 2, 2)
    assert not t.multiplicity_free
    assert t.first_failure == (1, 1)
    assert t.witness == P((3, 2, 1))


def test_probe_tensor_stops_at_the_first_repeat():
    # the probe's early exit against full decompositions in its (k, l) order
    sweep = sorted(((k, l) for k in range(3) for l in range(3)), key=sum)
    probes = 0
    for n in range(2, 6):
        for pair in map(SymmetricPairSpec.parse, (f"AIII:1,{n - 1}", f"AI:{n}")):
            for shape in _compositions(n):
                Pn = ParabolicSpec(gl(n), C(shape))
                lam = highest_weight_of_parabolic(Pn)
                lam_theta = highest_weight_of_parabolic(theta_on_parabolic(pair, Pn))
                failure = dec = None
                for k, l in sweep:
                    dec = tensor_decompose(lam.scale(k), lam_theta.scale(l), n)
                    if not dec.is_multiplicity_free:
                        failure = (k, l)
                        break
                probe = spherical_probe_tensor(Pn, pair, 2, 2)
                probes += 1
                assert probe.multiplicity_free == (failure is None), (pair, shape)
                assert probe.first_failure == failure, (pair, shape)
                if failure is not None:
                    assert dec.multiplicity(probe.witness) >= 2, (pair, shape)
    assert probes == 60


def test_probe_tensor_refuses_a_bound_below_one():
    Pn, pair = borel(gl(3)), SymmetricPairSpec.parse("AI:3")
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            spherical_probe_tensor(Pn, pair, k_max, 2)
    for l_max in (0, -1):
        with pytest.raises(ValueError, match="l_max must be >= 1"):
            spherical_probe_tensor(Pn, pair, 2, l_max)


def test_probe_tensor_mirabolic():
    pair = SymmetricPairSpec.parse("AIII:1,3")
    t = spherical_probe_tensor(ParabolicSpec(gl(4), C((1, 3))), pair, 1, 1)
    assert t.multiplicity_free


def test_non_integral_weyl_dimension_raises(monkeypatch):
    import math

    import dflag.lr
    from dflag.errors import CrossCheckError

    # adding 1 to both products of the formula leaves 3/2 for GL_2
    monkeypatch.setattr(dflag.lr, "prod", lambda xs: math.prod(xs) + 1)
    with pytest.raises(CrossCheckError, match="not integral"):
        weyl_dim_gl(Partition((1,)), 2)
