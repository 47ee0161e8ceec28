"""Circle spectra, Chebyshev/Adams operations, SU(3) parities, Chern-Simons."""

import math
import random
from fractions import Fraction

import pytest

from finvariant.exactnum import EpsPoly
from finvariant.geometry import (ExtForm, adams_psi_poly,
                                 chebyshev, chern_simons_traces,
                                 chern_simons_volume_coefficients, circle_xi,
                                 connection_matrix, cs_integral,
                                 etasigma_parity_values, ext_d, hp1_index,
                                 nu2_xi_values, su2_tensor, su3_dim, su3_kernel_parity,
                                 su3_psi_twist_kernel_parity,
                                 su3_restrict_su2, volume3_multiple,
                                 _dy_forms, _norm_shell)


# ---------------------------------------------------------------------------
# Circle


def test_circle_xi_values():
    assert circle_xi(3, 1) == EpsPoly.linear(3, Fraction(1, 2), -1)
    assert circle_xi(3, 2) == EpsPoly.linear(3, Fraction(1, 2), -2)
    assert circle_xi(3, -1) == EpsPoly.linear(3, Fraction(1, 2), 1)


def test_circle_xi_rejects_untwisted():
    with pytest.raises(ValueError):
        circle_xi(3, 0)


# ---------------------------------------------------------------------------
# Chebyshev / Adams


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_chebyshev_small_values():
    assert chebyshev("T", 0) == chebyshev("U", 0) == (1,)
    assert chebyshev("T", 2) == (-1, 0, 2)
    assert adams_psi_poly(0) == (2,)
    assert adams_psi_poly(2) == (-2, 0, 1)
    assert chebyshev("U", 1) == (0, 2)


def test_second_kind_difference_identity():
    # U_d - U_{d-2} = 2 T_d
    for d in range(2, 51):
        u, u2 = chebyshev("U", d), chebyshev("U", d - 2)
        lhs = tuple(a - b for a, b in zip(u, u2 + (0, 0)))
        assert lhs == tuple(2 * c for c in chebyshev("T", d))


def test_multiple_angle_numeric():
    rng = random.Random(6)
    t5 = chebyshev("T", 5)
    for _ in range(50):
        t = rng.uniform(0, 2 * math.pi)
        assert abs(2 * math.cos(5 * t) - 2 * _horner(t5, math.cos(t))) < 1e-12


def test_adams_poly_integer_and_character():
    # exact rational Horner on the dyadic input keeps the only error at the
    # cos() call, amplified at most quadratically in d
    rng = random.Random(8)
    for d in range(0, 21):
        poly = adams_psi_poly(d)
        assert all(isinstance(c, int) for c in poly)
        for _ in range(5):
            t = rng.uniform(0, 2 * math.pi)
            value = _horner(poly, Fraction(2 * math.cos(t)))
            assert abs(float(value) - 2 * math.cos(d * t)) < 1e-12


def _taylor_exp(c, order):
    return [Fraction(c) ** k / math.factorial(k) for k in range(order + 1)]


def _taylor_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def test_adams_poly_realizes_power_operation_on_characters():
    # evaluating the integer polynomial on the character e^x + e^-x must give
    # e^(dx) + e^(-dx) exactly, order by order in the formal variable
    order = 10
    ch = [x + y for x, y in zip(_taylor_exp(1, order), _taylor_exp(-1, order))]
    for d in (2, 3, 5, 7):
        acc = [Fraction(0)] * (order + 1)
        for c in reversed(adams_psi_poly(d)):
            acc = _taylor_mul(acc, ch, order)
            acc[0] += c
        expected = [x + y for x, y in zip(_taylor_exp(d, order),
                                          _taylor_exp(-d, order))]
        assert acc == expected


def _su2_dim(decomp):
    return sum(k * v for k, v in decomp.items())


def test_su2_tensor_clebsch_gordan():
    assert su2_tensor({2: 1}, {4: 1}) == {3: 1, 5: 1}
    assert su2_tensor({1: 1}, {4: 2, 7: 1}) == {4: 2, 7: 1}  # unit
    rng = random.Random(15)
    for _ in range(30):
        a = {rng.randint(1, 6): rng.randint(1, 3) for _ in range(2)}
        b = {rng.randint(1, 6): rng.randint(1, 3) for _ in range(2)}
        assert _su2_dim(su2_tensor(a, b)) == _su2_dim(a) * _su2_dim(b)


# ---------------------------------------------------------------------------
# SU(3)


def test_su3_dim():
    assert su3_dim(0, 0) == 1
    assert su3_dim(1, 0) == 3
    assert su3_dim(1, 1) == 8
    for k in range(11):
        assert su3_dim(k, k) == (k + 1) ** 3


def test_su3_branching_adjoint():
    # the 8-dimensional module restricts to V3 + 2 V2 + V1
    assert su3_restrict_su2(1, 1) == {3: 1, 2: 2, 1: 1}


def test_su3_branching_dimension_consistency():
    for m in range(5):
        for n in range(5):
            branch = su3_restrict_su2(m, n)
            assert _su2_dim(branch) == su3_dim(m, n)


def test_norm_shell_contains_real_line():
    for k in range(11):
        assert (k, k) in set(_norm_shell(k))


def test_norm_shell_matches_brute_force():
    for k in range(9):
        target = 3 * (k + 1) ** 2
        box = 3 * (k + 1) + 2
        brute = sorted((m, n) for m in range(box) for n in range(box)
                       if (m + 1) ** 2 + (m + 1) * (n + 1) + (n + 1) ** 2 == target)
        assert sorted(_norm_shell(k)) == brute


def test_norm_shell_off_diagonal_pairs_at_k6():
    # k = 6 is the first case with conjugate-pair solutions; their branchings
    # coincide, so the pair contributes an even kernel dimension
    shell = sorted(_norm_shell(6))
    assert shell == [(1, 10), (6, 6), (10, 1)]
    assert su3_restrict_su2(1, 10) == su3_restrict_su2(10, 1)
    assert su3_kernel_parity(6) == 1  # (6+1) mod 2, pairs discarded


def test_su3_kernel_parity_matches_claim():
    # the enumeration is the oracle; the congruence (k+1) mod 2 is the claim
    for k in range(11):
        assert su3_kernel_parity(k) == (k + 1) % 2


def test_su3_twist_parity_odd():
    for d in (1, 3, 5, 7, 9):
        assert su3_psi_twist_kernel_parity(d) == 1
    # d = 3 decomposes through k = 1 and k = 0
    assert su3_psi_twist_kernel_parity(3) == (
        su3_kernel_parity(1) + su3_kernel_parity(0)) % 2


def test_su3_twist_parity_rejects_even():
    with pytest.raises(ValueError):
        su3_psi_twist_kernel_parity(4)


# ---------------------------------------------------------------------------
# Quaternionic plane


def test_hp1_index():
    assert hp1_index(1) == 1
    assert hp1_index(2) == 4
    for d in range(1, 10):
        assert hp1_index(d) == d * d
        assert hp1_index(d) % 2 == d % 2  # = d^3 mod 2


# ---------------------------------------------------------------------------
# Exterior calculus / Chern-Simons


def test_connection_matrix_skew():
    omega = connection_matrix()
    for a in range(5):
        for b in range(5):
            assert not omega[a][b] + omega[b][a]


def test_sphere_constraint_closed():
    # y1^2 + y2^2 + y3^2 = 1 as 0-forms, and its differential 2 sum y_i dy_i vanishes
    y = [ExtForm.y(i) for i in range(3)]
    assert sum((y[i].wedge(y[i]) for i in range(3)), ExtForm()) == ExtForm.const(1)
    dys = _dy_forms()
    acc = ExtForm()
    for i in range(3):
        acc = acc + dys[i].wedge(y[i].wedge(ExtForm.const(2)))
    assert not acc


def test_d_squared_vanishes_on_coframe():
    for a in range(5):
        assert not ext_d(ext_d(ExtForm.basis(a)))


def test_d_squared_vanishes_on_function_and_products():
    # one witness per degree 0..3 (degree >= 4 lands in zero spaces)
    f = ExtForm.y(0).wedge(ExtForm.y(2))
    assert not ext_d(ext_d(f))
    two_form = ExtForm.basis(0).wedge(ExtForm.basis(3)).wedge(ExtForm.y(1))
    assert not ext_d(ext_d(two_form))
    three_form = ExtForm.basis(1).wedge(ExtForm.basis(2)).wedge(
        ExtForm.basis(4)).wedge(ExtForm.y(0))
    assert not ext_d(ext_d(three_form))


def test_wedge_antisymmetry():
    a = ExtForm.basis(1)
    b = ExtForm.basis(3)
    assert not a.wedge(b) + b.wedge(a)
    assert not a.wedge(a)
    # a 0-form commutes with a 1-form, and a constant 0-form scales
    f = ExtForm.y(2) + ExtForm.const(Fraction(1, 3))
    assert f.wedge(b) == b.wedge(f) != ExtForm()
    assert ExtForm.const(-2).wedge(a) == a.scale(-2)


def test_wedge_associative():
    a = ExtForm.basis(0).wedge(ExtForm.y(0)) + ExtForm.basis(2)
    b = ExtForm.basis(1) + ExtForm.basis(3).wedge(ExtForm.y(2))
    c = ExtForm.basis(4).wedge(ExtForm.y(1)) + ExtForm.basis(1)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_chern_simons_traces():
    tr_wdw, tr_www = chern_simons_traces()
    assert volume3_multiple(tr_wdw) == 12
    assert volume3_multiple(tr_www) == -6
    assert chern_simons_volume_coefficients() == (Fraction(12), Fraction(-6))


def test_volume_multiple_rejects_stray_components():
    stray = ExtForm.basis(0).wedge(ExtForm.basis(2)).wedge(ExtForm.basis(3))
    with pytest.raises(ValueError):
        volume3_multiple(stray)


def test_cs_integral_is_d_twelfths():
    for d in range(1, 13):
        assert cs_integral(d) == Fraction(d, 12)


# ---------------------------------------------------------------------------
# Example tables


def test_nu2_values():
    values = nu2_xi_values(3, 12)
    assert values[12] == EpsPoly.rational(3, -1)
    assert values[1] == EpsPoly.rational(3, Fraction(-1, 12))


def test_etasigma_values_odd_support_only():
    values = etasigma_parity_values(3, 9)
    assert values[3] == EpsPoly.rational(3, 1)
    assert 2 not in values
    assert set(values) == {1, 3, 5, 7, 9}
