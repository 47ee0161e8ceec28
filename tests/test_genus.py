"""Genus expansion series, the weight-two combination, and the numeric oracles."""

import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from finvariant import cli
from finvariant.exactnum import CycNum, EpsPoly, bernoulli
from finvariant.genus import (PoleError, _Product,
                              ell_expansion, ell_function, ell_quaternionic,
                              g2, g_hat,
                              g_tilde, g_tilde_level1, numeric_taylor,
                              series_value, weight_constant)
from finvariant.qseries import QSeries, divisor_sum, is_integral_series
from reference import (DivergenceError, cyc_galois, cyc_inverse, cyc_mul, is_n_integral,
                       psi_numeric, series_rows, sigma, to_complex, twisted_divisor_sum)


def test_g_hat_level3_weight1():
    f = g_hat(3, 1, 5)
    assert f.coefficient(0) == EpsPoly(3, (CycNum(3, [Fraction(1, 6), Fraction(1, 3)]),))
    # q^1: zeta - zeta^2 = 1 + 2*zeta
    assert f.coefficient(1) == EpsPoly(3, (CycNum(3, [1, 2]),))


def test_g_hat_level2_weight1_vanishes():
    assert not g_hat(2, 1, 40)


def test_weight2_constant_any_level():
    for level in (2, 3, 5, 7):
        assert g_hat(level, 2, 3).coefficient(0) == EpsPoly.rational(
            level, Fraction(1, 12))
        assert weight_constant(level, 2) == Fraction(1, 12)


def test_g_tilde_level3_weight2_first_coefficients():
    f = g_tilde(3, 2, 5)
    assert f.coefficient(0) == EpsPoly(3, ())
    assert f.coefficient(1) == EpsPoly.rational(3, 1)
    assert f.coefficient(2) == EpsPoly.rational(3, 3)


def test_g_tilde_constant_term_always_zero():
    for level, k in ((2, 2), (3, 1), (3, 4), (5, 3)):
        assert not g_tilde(level, k, 6).coefficient(0)


@pytest.mark.parametrize("level", [2, 3, 5, 12])
@pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
def test_level1_is_sigma_sum(level, k):
    f = g_tilde_level1(level, k, 100)
    for n in range(1, 100):
        assert f.coefficient(n) == EpsPoly.rational(level, sigma(n, k - 1))
    assert not f.coefficient(0)


def test_ell_expansion_structure():
    exp = ell_expansion(3, 5, 8)
    # x^1 coefficient at q^1 equals zeta - zeta^2 = 1 + 2*zeta
    x1 = exp.x_coefficient(1)
    assert x1.coefficient(1) == EpsPoly(3, (CycNum(3, [1, 2]),))
    # x^2 coefficient has constant term 1/12 (weight-2 Bernoulli value)
    assert exp.x_coefficient(2).coefficient(0) == EpsPoly.rational(3, Fraction(1, 12))
    # odd weights >= 3 have vanishing constant term
    for k in (3, 5):
        assert not exp.x_coefficient(k).coefficient(0)
        assert bernoulli(k) == 0


def test_twist_table_collapses_to_weight_one():
    # summing the twist pair (-zeta^(-n/d), +zeta^(n/d)) at ch = 1 over d | n
    # reproduces the q^n-coefficient of the constant-free weight-one series
    gt1 = g_tilde(3, 1, 12)
    ones = series_rows(3, 12, [0] + [1] * 11)
    assert (gt1.den, gt1.parts) == twisted_divisor_sum(3, ones, -1, 1)


def test_quaternionic_entry0_is_g2():
    for level in (2, 3):
        entries = ell_quaternionic(level, 1, 12)
        g1 = g_hat(level, 1, 12)
        assert entries[0] == g1 * g1 - g_hat(level, 2, 12) * 2
        assert entries[0] == g2(level, 12)


def test_quaternionic_entry0_constant_level3():
    # c1^2 - 2*c2 = zeta/(1-zeta)^2 + 1/12 = -1/4, and -1/4 - 1/12 is 3-integral
    value = g2(3, 3).coefficient(0).coefficient(0)
    assert value == CycNum.from_rational(3, Fraction(-1, 4))
    z, one_minus_z = (0, 1), (1, -1)
    ratio = cyc_mul(3, z, cyc_inverse(3, cyc_mul(3, one_minus_z, one_minus_z)))  # z/(1-z)^2
    assert value.coords == (ratio[0] + Fraction(1, 12), ratio[1])
    assert is_n_integral(3, 12 * value.den, [12 * value.ints[0] - value.den, 12 * value.ints[1]])


def test_quaternionic_entry1_level_collapse():
    # entry 1 must equal minus the classical weight-four series, any level
    for level in (2, 3):
        entries = ell_quaternionic(level, 1, 30)
        classical = g_tilde_level1(level, 4, 30) + Fraction(1, 240)
        assert not entries[1] + classical


def test_quaternionic_higher_entries_match_classical_series():
    # entry j (j >= 1) is -2/(2j)! times the classical weight-(2j+2) series,
    # independent of the level
    import math as _math
    for level in (2, 3):
        entries = ell_quaternionic(level, 2, 16)
        for j in (1, 2):
            k = 2 * j + 2
            classical = g_tilde_level1(level, k, 16) - bernoulli(k) / (2 * k)
            assert entries[j] == classical * Fraction(-2, _math.factorial(2 * j))


def _quaternionic_cauchy(level, c2_order, prec):
    """-(x^(2j+2) coefficient of Ell(x)Ell(-x)) for j <= c2_order, as the full
    Cauchy product of the x-coefficients with their odd powers negated."""
    exp = ell_expansion(level, 2 * c2_order + 2, prec)
    plus = [QSeries.one(level, prec)] + [exp.x_coefficient(k)
                                         for k in range(1, 2 * c2_order + 3)]
    minus = [-c if k % 2 else c for k, c in enumerate(plus)]
    entries = []
    for j in range(c2_order + 1):
        deg = 2 * j + 2
        acc = QSeries.zero(level, prec)
        for i in range(deg + 1):
            acc = acc + plus[i] * minus[deg - i]
        entries.append(-acc)
    return entries


@pytest.mark.parametrize("level", range(2, 13))
def test_quaternionic_entries_match_full_cauchy_product(level):
    for c2_order in range(4):
        got = ell_quaternionic(level, c2_order, 10)
        want = _quaternionic_cauchy(level, c2_order, 10)
        assert [(f.den, f.parts) for f in got] == [(f.den, f.parts) for f in want]


def test_g2_congruence_all_supported_levels():
    for level in (2, 3, 4, 5, 6):
        assert is_integral_series(g2(level, 30) - Fraction(1, 12))


def test_g2_level2_is_minus_two_ghat2():
    assert g2(2, 20) == -(g_hat(2, 2, 20) * 2)


def test_g_hat_coefficients_integral_beyond_constant():
    for level in range(2, 13):
        for k in range(1, 9):
            f = g_hat(level, k, 30)
            for n in range(1, 30):
                c = f.coefficient(n).coefficient(0)
                assert is_n_integral(level, c.den, c.ints)


def test_conjugation_symmetry_of_divisor_sums():
    # swapping zeta -> zeta^-1 multiplies the (-1)^k-weighted sum by (-1)^k
    for level in (3, 5):
        for k in (1, 2, 3):
            sign = 1 if k % 2 == 0 else -1
            powers = QSeries(level, 15, [0] + [d ** (k - 1) for d in range(1, 15)])
            f = divisor_sum(powers, minus=1, plus=sign)
            deg = len(f.parts[0]) // 15
            for n in range(15):
                ints = f.parts[0][n * deg:(n + 1) * deg]
                assert cyc_galois(level, ints, -1) == tuple(sign * x for x in ints)


# ---------------------------------------------------------------------------
# Numeric oracles


TAU = 0.31j


def _src_phi(tau, x):
    # Phi(tau, x) as ell_function evaluates it: a fresh genus._Product of tau
    return _Product(tau)(x)


def test_phi_is_odd():
    rng = random.Random(31)
    for _ in range(10):
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(_src_phi(TAU, x) + _src_phi(TAU, -x)) < 1e-12


def test_ell_numeric_normalization():
    ell = ell_function(3, TAU)
    for x in (1e-5, 1e-5j):
        assert abs(ell(x) - 1.0) < 1e-3


def test_ell_numeric_pole_detection():
    ell = ell_function(3, TAU)
    with pytest.raises(PoleError):
        ell(2j * cmath.pi)
    with pytest.raises(PoleError):
        ell(2j * cmath.pi * (1 + TAU))


def _reference_phi(tau, x):
    # the triple product as one loop that rebuilds q^n and (1-q^n)^2 per call,
    # run to the proven tail: the first n with |q^n| max(|e^x|, |e^-x|) < 2^-60
    q = cmath.exp(2j * cmath.pi * tau)
    acc = cmath.exp(x / 2) - cmath.exp(-x / 2)
    ex, emx = cmath.exp(x), cmath.exp(-x)
    tail = 2.0 ** -60 / max(abs(ex), abs(emx))
    qn = 1 + 0j
    while True:
        qn *= q
        if abs(qn) < tail:
            return acc
        acc *= (1 - qn * ex) * (1 - qn * emx) / (1 - qn) ** 2


def _reference_ell(level, tau, x):
    shift = 2j * cmath.pi / level
    return (x * _reference_phi(tau, x - shift)
            / (_reference_phi(tau, x) * _reference_phi(tau, -shift)))


_TAYLOR_POINTS = [0.4 * cmath.exp(2j * cmath.pi * j / 64) for j in range(64)]


def test_numeric_genus_bit_identical_to_direct_loop():
    # sharing the x-independent factors must not move a single bit, so the
    # comparison is ==, against a direct evaluation rather than stored values
    for tau in (0.31j, 0.05 + 0.4j, 0.2 + 0.25j):
        for x in _TAYLOR_POINTS:
            assert _src_phi(tau, x) == _reference_phi(tau, x)
        for level in (2, 3, 5, 7):
            ell = ell_function(level, tau)
            for x in _TAYLOR_POINTS:
                assert ell(x) == _reference_ell(level, tau, x)


def test_far_tail_matches_direct_loop():
    # at Im tau = 0.01 and 0.002 (|q| ~ 0.94 and 0.987) the proven tail lies
    # about 670 and 3,300 factors out; no count stops the product before it
    for tau in (0.01j, 0.002j):
        for x in _TAYLOR_POINTS[::8]:
            assert _src_phi(tau, x) == _reference_phi(tau, x)
        for level in (2, 3, 5):
            ell = ell_function(level, tau)
            for x in _TAYLOR_POINTS[::8]:
                assert ell(x) == _reference_ell(level, tau, x)


@pytest.mark.parametrize("tau", [complex(math.nan, math.nan), 1e-300j, 1e-9j])
def test_tau_refused_before_any_factor(tau):
    # a non-finite tau, and one whose product reaches its tail at x = 0 only
    # past 10^5 factors (|q| rounds to 1.0 at 1e-300i), is one ValueError
    # naming tau, raised before any factor is formed
    with pytest.raises(ValueError, match=re.escape(f"tau = {tau}")):
        _Product(tau)
    with pytest.raises(ValueError, match=re.escape(f"tau = {tau}")):
        series_value(g_hat(3, 2, 8), tau)


def test_shared_factors_grow_without_moving_a_bit():
    # one closure serves every x: taken by growing |Re x| each point extends
    # the shared factors, taken the other way each reads a prefix of them
    points = sorted(_TAYLOR_POINTS[::4] + [0.9, -1.3 + 0.2j, 1.6j],
                    key=lambda x: abs(x.real))
    for tau in (0.31j, 0.01j):
        for level in (2, 5):
            want = [_reference_ell(level, tau, x) for x in points]
            grow, shrink = ell_function(level, tau), ell_function(level, tau)
            assert [grow(x) for x in points] == want
            assert [shrink(x) for x in reversed(points)] == want[::-1]


def test_shared_product_keeps_signed_zeros():
    # +0.0 and -0.0 compare equal, so a product remembered by x must not hand
    # one point's value to the other: at tau = 50i no factor is applied and
    # Phi(0.5 - 0i) keeps the -0.0 imaginary part of e^(x/2) - e^(-x/2)
    def bits(z):
        return z, math.copysign(1, z.real), math.copysign(1, z.imag)

    for tau in (50j, 0.31j):
        shared = _Product(tau)
        for x in (complex(0.5, 0.0), complex(0.5, -0.0), complex(0.0, 0.3), complex(-0.0, 0.3)):
            assert bits(shared(x)) == bits(_reference_phi(tau, x))
    assert bits(_Product(50j)(complex(0.5, -0.0)))[2] == -1


def _reference_series_value(f, tau):
    # the sum over float(Fraction) coordinates, in the same order
    q = cmath.exp(2j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi / f.level)
    return sum((float(c) * z ** t * q ** n
                for n in range(f.prec)
                for t, c in enumerate(f.coefficient(n).coefficient(0).coords) if c), 0j)


@pytest.mark.parametrize("level", range(2, 8))
def test_series_value_bit_identical_to_fraction_sum(level):
    exp = ell_expansion(level, 8, 60)
    for k in range(1, 9):
        f = exp.x_coefficient(k)
        for tau in (0.31j, 0.05 + 0.4j):
            assert series_value(f, tau) == _reference_series_value(f, tau)


def _direct_dft(fn, order):
    # a_k = sum_j fn(0.4 e^(2 pi i j/64)) e^(-2 pi i j k/64) / (64 * 0.4^k), summed in j order
    values = [fn(x) for x in _TAYLOR_POINTS]
    out = []
    for k in range(order + 1):
        acc = 0j
        for j, v in enumerate(values):
            acc += v * cmath.exp(-2j * cmath.pi * j * k / 64)
        out.append(acc / (64 * 0.4 ** k))
    return out


@pytest.mark.parametrize("order", [4, 6, 8])
def test_numeric_taylor_bit_identical_to_direct_dft(order):
    for fn in (ell_function(3, TAU), ell_function(5, 0.05 + 0.4j), lambda x: 1 / (1 - x)):
        assert numeric_taylor(fn, order) == _direct_dft(fn, order)


@pytest.mark.parametrize("argv, levels, max_weight, prec", [
    ([], (2, 3), 6, 60),
    (["-N", "5", "-k", "8", "-p", "40"], (5,), 8, 40),
])
def test_oracle_output_bit_identical_to_direct_loops(capsys, argv, levels, max_weight, prec):
    # the whole --machine stdout against text built from this file's loops:
    # every product from fresh factors, a direct DFT and the Fraction-order sum
    lines, worst = [], 0.0
    for level in levels:
        exp = ell_expansion(level, max_weight, prec)
        for tau in (0.31j, 0.05 + 0.4j):
            coeffs = _direct_dft(lambda x: _reference_ell(level, tau, x), max_weight)
            for k in range(1, max_weight + 1):
                err = abs(coeffs[k] - _reference_series_value(exp.x_coefficient(k), tau))
                worst = max(worst, err)
                lines.append(f"oracle level={level} tau={tau} k={k} err={err:.3e}")
    lines += [f"oracle_max_err={worst:.3e}", "oracle_pass=true"]
    assert cli.main(["oracle", "--machine", *argv]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("series", [g_tilde_level1])
@pytest.mark.parametrize("k", [0, -1])
def test_level1_series_refuse_weight_below_one(series, k):
    with pytest.raises(ValueError, match="weight must be >= 1"):
        series(3, k, 5)


@pytest.mark.parametrize("series", [g_hat, g_tilde, g_tilde_level1])
@pytest.mark.parametrize("level, k, message", [
    (0, 2, "level must be >= 2"), (1, 2, "level must be >= 2"), (-3, 2, "level must be >= 2"),
    (3, 0, "weight must be >= 1"), (3, -1, "weight must be >= 1"),
])
def test_eisenstein_series_refuse_level_and_weight(series, level, k, message):
    with pytest.raises(ValueError, match=message):
        series(level, k, 5)


def test_numeric_genus_errors_and_origin():
    with pytest.raises(ValueError):
        ell_function(3, -TAU)
    ell = ell_function(3, TAU)
    for x in (2j * cmath.pi, 2j * cmath.pi * (1 + TAU), -2j * cmath.pi * TAU):
        with pytest.raises(PoleError):
            ell(x)
    for x in (0j, 1e-13, -1e-13j):
        assert ell(x) == 1 + 0j


def test_psi_is_odd_level2():
    # the root-of-unity weights are real at level 2, so the sum is odd
    rng = random.Random(41)
    for _ in range(10):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        if abs(x) < 0.05:
            continue
        assert abs(psi_numeric(2, TAU, x) + psi_numeric(2, TAU, -x)) < 1e-11


def test_psi_antisymmetry_conjugates_weights():
    # at higher level x -> -x swaps the weights zeta^n <-> zeta^-n, which for
    # real x and purely imaginary tau is complex conjugation
    rng = random.Random(43)
    for _ in range(10):
        x = rng.uniform(0.05, 0.5)
        lhs = psi_numeric(3, TAU, -x)
        rhs = -psi_numeric(3, TAU, x).conjugate()
        assert abs(lhs - rhs) < 1e-11


def test_psi_tends_to_coth_as_q_vanishes():
    # tiny |q|: tau high in the upper half plane
    tau = 6j
    x = 0.3 + 0.1j
    psi = psi_numeric(3, tau, x)
    coth_half = 0.5 / cmath.tanh(x / 2)
    assert abs(psi - coth_half) < 1e-14


def test_psi_divergence_region_rejected():
    with pytest.raises(DivergenceError):
        psi_numeric(3, 0.05j, 3.0)  # |q| ~ 0.73 > e^-3


def test_psi_plus_constant_matches_genus():
    # the proof identity psi(x) + c1 = Ell(x)/x at 20 random points
    rng = random.Random(59)
    for level in (2, 3):
        c = weight_constant(level, 1)
        c1 = to_complex(level, c.den, c.ints)
        checked = 0
        while checked < 20:
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(x) < 0.05:
                continue
            lhs = psi_numeric(level, TAU, x) + c1
            rhs = ell_function(level, TAU)(x) / x
            assert abs(lhs - rhs) < 1e-8
            checked += 1


def test_psi_plus_constant_matches_genus_far_down():
    # near the real axis both the psi sum and the product run thousands of
    # terms to their tails; the identity then holds to rounding
    for tau in (0.01j, 0.002j):
        for level in (2, 3):
            c = weight_constant(level, 1)
            c1 = to_complex(level, c.den, c.ints)
            ell = ell_function(level, tau)
            for x in (0.1j, 0.3j, 0.005 + 0.2j, -0.004 + 0.45j):
                assert abs(psi_numeric(level, tau, x) + c1 - ell(x) / x) < 1e-12


def test_taylor_oracle_matches_exact_series():
    # finite-difference Taylor extraction vs exact q-sums (small weight range;
    # the full sweep is the acceptance criterion)
    for level in (2, 3):
        exp = ell_expansion(level, 4, 50)
        coeffs = numeric_taylor(ell_function(level, TAU), 4)
        for k in range(1, 5):
            exact = series_value(exp.x_coefficient(k), TAU)
            assert abs(coeffs[k] - exact) < 1e-8
