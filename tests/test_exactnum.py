"""Exact scalar arithmetic: cyclotomic field, Bernoulli numbers, cyclotomic polynomials."""

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from conftest import random_cyc
from finvariant.exactnum import (CycNum, EpsPoly, LevelMismatchError,
                                 bernoulli, cyclotomic_poly,
                                 eisenstein_weight_one_constant, euler_phi)
from finvariant.qseries import QSeries, is_integral_series
from reference import is_n_integral, to_complex


def _n_integral(c):
    # membership in Z[zeta, 1/level] by the reference, which the library's
    # series integrality check must match on the one-term series c
    want = is_n_integral(c.level, c.den, c.ints)
    assert is_integral_series(QSeries(c.level, 1, (c,))) == want
    return want


def _complex(c):
    return to_complex(c.level, c.den, c.ints)


def test_rational_constructors_build_the_init_fields():
    # from_rational, EpsPoly.rational and EpsPoly.linear build the canonical
    # fields directly; they must be those of the general constructors
    def fields(c):
        return type(c.den), type(c.ints), c.level, c.den, c.ints

    def eps_fields(p):
        return type(p.coeffs), p.level, [fields(c) for c in p.coeffs]

    values = (0, 1, -3, 12, Fraction(0), Fraction(-5, 6), Fraction(9, 4), Fraction(4, 2))
    for level in (2, 3, 12):
        for v in values:
            assert fields(CycNum.from_rational(level, v)) == fields(CycNum(level, (v,)))
            assert (eps_fields(EpsPoly.rational(level, v))
                    == eps_fields(EpsPoly(level, [CycNum(level, (v,))])))
            for e in values:
                assert (eps_fields(EpsPoly.linear(level, v, e))
                        == eps_fields(EpsPoly(level, [CycNum(level, (v,)), CycNum(level, (e,))])))
    with pytest.raises(ValueError, match="level must be >= 2"):
        CycNum.from_rational(1, 1)


def test_zeta_root_of_unity_order():
    z = CycNum.zeta(3)
    assert z * z * z == CycNum.one(3)
    assert z * z * z == 1


def test_weight_one_constant_level3():
    # 1/2 + z/(1-z) at level 3 must come out as (1 + 2z)/6
    value = eisenstein_weight_one_constant(3)
    expected = CycNum(3, [Fraction(1, 6), Fraction(1, 3)])
    assert value == expected
    # float oracle at z = exp(2 pi i/3)
    z = cmath.exp(2j * cmath.pi / 3)
    oracle = 0.5 + z / (1 - z)
    assert abs(_complex(value) - oracle) < 1e-12


def test_weight_one_constant_level2_vanishes():
    assert not eisenstein_weight_one_constant(2)


@pytest.mark.parametrize("level", range(2, 61))
def test_weight_one_constant_matches_field_inverse(level):
    # the closed form without an inverse against 1/2 + z/(1 - z) from CycNum division
    z, one = CycNum.zeta(level), CycNum.one(level)
    expected = CycNum.from_rational(level, Fraction(1, 2)) + z / (one - z)
    value = eisenstein_weight_one_constant(level)
    assert (value.den, value.ints) == (expected.den, expected.ints)


def test_division_matches_float_oracle():
    rng = random.Random(11)
    for level in (3, 5, 8):
        for _ in range(20):
            a = random_cyc(rng, level)
            b = random_cyc(rng, level)
            if not b:
                continue
            exact = _complex(a / b)
            approx = _complex(a) / _complex(b)
            assert abs(exact - approx) < 1e-9


def test_is_n_integral_examples():
    assert not _n_integral(eisenstein_weight_one_constant(3))  # denominator 6
    assert _n_integral(CycNum.zeta(3) / 9)                    # 9 = 3^2
    assert _n_integral(CycNum.from_rational(2, Fraction(1, 2)))  # 2 | 2


def test_denominator_smoothness():
    # the check reads the denominator alone: is it level-smooth?
    assert _n_integral(CycNum.from_rational(6, Fraction(1, 8)))
    assert _n_integral(CycNum.from_rational(6, Fraction(1, 12)))
    assert not _n_integral(CycNum.from_rational(6, Fraction(1, 10)))
    assert _n_integral(CycNum.from_rational(3, Fraction(1, 1)))


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatchError):
        CycNum.one(3) + CycNum.one(5)


@pytest.mark.parametrize("build", [
    lambda level: CycNum(level, [1]),
    lambda level: CycNum.from_rational(level, 1),
    CycNum.zero,
    CycNum.one,
    CycNum.zeta,
], ids=["init", "from_rational", "zero", "one", "zeta"])
def test_level_below_two_rejected_on_every_route(build):
    with pytest.raises(ValueError):
        build(1)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycNum.one(3) / CycNum.zero(3)


def test_bernoulli_small():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(2) / 2 == Fraction(1, 12)  # anchor for the weight-2 constant
    assert bernoulli(3) == 0
    assert bernoulli(1) == Fraction(-1, 2)


def _bernoulli_akiyama_tanigawa(k: int) -> Fraction:
    # independent scheme: row-reduce the harmonic row k times
    row = [Fraction(1, j + 1) for j in range(k + 1)]
    for i in range(1, k + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    return row[0] if k != 1 else -row[0]


def test_bernoulli_vs_akiyama_tanigawa():
    assert bernoulli(12) == Fraction(-691, 2730)
    for k in (0, 2, 4, 6, 8, 10, 12, 14):
        assert bernoulli(k) == _bernoulli_akiyama_tanigawa(k)


def test_bernoulli_defining_recurrence():
    from math import comb
    for k in range(2, 41):
        assert sum(comb(k, j) * bernoulli(j) for j in range(k)) == 0


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_euler_phi_counts_units():
    for n in range(1, 301):
        assert euler_phi(n) == sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            euler_phi(n)


def test_cyclotomic_level12_numeric_roots():
    poly = cyclotomic_poly(12)
    assert len(poly) - 1 == euler_phi(12)
    for j in range(12):
        root = cmath.exp(2j * cmath.pi * j / 12)
        value = abs(sum(c * root ** i for i, c in enumerate(poly)))
        if gcd(j, 12) == 1:
            assert value < 1e-12
        else:
            assert value > 1e-3


def test_cyclotomic_product_over_divisors_is_power_minus_one():
    # prod_{d | n} Phi_d = x^n - 1; n = 105 is the first Phi_n with a coefficient -2
    for n in range(1, 121):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _conv(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_field_axioms_random():
    rng = random.Random(23)
    for level in (3, 5, 12):
        one = CycNum.one(level)
        for _ in range(60):
            a, b, c = (random_cyc(rng, level) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == one
                assert (1 / a) * a == one


def test_integrality_closure_properties():
    rng = random.Random(5)
    z = CycNum.zeta(3)
    for _ in range(40):
        coords = [Fraction(rng.randint(-9, 9), 3 ** rng.randint(0, 3)) for _ in range(2)]
        a = CycNum(3, coords)
        b = CycNum(3, [Fraction(rng.randint(-9, 9), 9) for _ in range(2)])
        assert _n_integral(a)
        assert _n_integral(a * z)
        assert _n_integral(a + b)


def test_galois_is_field_automorphism():
    rng = random.Random(3)
    for level in (3, 5):
        for _ in range(25):
            a, b = random_cyc(rng, level), random_cyc(rng, level)
            assert (a * b).galois(-1) == a.galois(-1) * b.galois(-1)
            assert (a + b).galois(-1) == a.galois(-1) + b.galois(-1)
            assert a.galois(-1).galois(-1) == a


def test_galois_requires_coprime_exponent():
    with pytest.raises(ValueError):
        CycNum.zeta(6).galois(2)


def test_eps_poly_trims_trailing_zeros():
    p = EpsPoly(3, (CycNum.one(3), CycNum.zero(3)))
    assert p.coeffs == (CycNum.one(3),) and p == EpsPoly.rational(3, 1)
    assert p.coefficient(1) == CycNum.zero(3)
    assert not EpsPoly(3, (CycNum.zero(3), CycNum.zero(3)))
    assert EpsPoly(3, (CycNum.zero(3), CycNum.zero(3))) == EpsPoly(3, ())


def test_eps_poly_is_a_value_without_arithmetic():
    xi = EpsPoly.linear(3, Fraction(1, 2), -2)  # 1/2 - 2*eps
    assert xi.coefficient(0) == CycNum.from_rational(3, Fraction(1, 2))
    assert xi.coefficient(1) == CycNum.from_rational(3, -2)
    assert xi.coefficient(2) == CycNum.zero(3) and xi.coefficient(-1) == CycNum.zero(3)
    z = CycNum.zeta(3)
    for op in (lambda: xi + xi, lambda: xi - 1, lambda: 2 * xi, lambda: xi * z,
               lambda: z * xi, lambda: z + xi, lambda: -xi, lambda: hash(xi)):
        with pytest.raises(TypeError):
            op()
    # the text the human-readable series output prints
    assert str(EpsPoly(3, ())) == "0"
    assert str(xi) == "1/2 + (-2)*eps"
    pure = EpsPoly(3, (CycNum.zero(3), CycNum(3, [1, Fraction(-2, 3)])))
    assert str(pure) == "(1 + -2/3*z)*eps"
    assert str(EpsPoly(5, (CycNum(5, [0, 0, 0, 7]), CycNum.zero(5),
                           CycNum(5, [Fraction(1, 3)])))) == "7*z^3 + (1/3)*eps^2"
    assert repr(xi) == "EpsPoly(3, ['1/2', '-2'])"


def test_rational_part():
    assert CycNum.from_rational(3, Fraction(7, 2)).rational_part() == Fraction(7, 2)
    assert CycNum.zeta(3).rational_part() is None


def test_inverse_matches_sympy_invert():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(41)
    for level in (3, 5, 7, 8, 12):
        modulus = sympy.cyclotomic_poly(level, x)
        for _ in range(6):
            a = random_cyc(rng, level)
            if not a:
                continue
            poly = sum(sympy.Rational(str(c)) * x ** i for i, c in enumerate(a.coords))
            inv = sympy.Poly(sympy.invert(poly, modulus, x), x).all_coeffs()[::-1]
            expected = [Fraction(str(c)) for c in inv]
            expected += [Fraction(0)] * (euler_phi(level) - len(expected))
            assert list(a.inverse().coords) == expected


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 121):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in expected)
    assert min(cyclotomic_poly(105)) == -2


# Reference arithmetic on Fraction coordinates, independent of CycNum's
# integer table and of cyclotomic_poly: a product is the schoolbook product
# reduced by long division by the cyclotomic polynomial, and zeta^m is x^m
# reduced the same way. Phi_n itself comes from long division of x^n - 1 by
# the Phi_d of its proper divisors.

def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _ref_cyclotomic(n):
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _conv(den, _ref_cyclotomic(d))
    rem = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    quot = [Fraction(0)] * (len(rem) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[k + i] -= quot[k] * c
    assert not any(rem) and all(c.denominator == 1 for c in quot)
    return tuple(int(c) for c in quot)


def _ref_reduce(level, poly):
    phi = _ref_cyclotomic(level)
    deg = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i in range(deg + 1):
                poly[k - deg + i] -= c * phi[i]
    return tuple(poly[:deg])


def _ref_mul(level, a, b):
    return _ref_reduce(level, _conv(a, b))


def _ref_galois(level, a, j):
    poly = [Fraction(0)] * level
    for i, x in enumerate(a):
        poly[i * j % level] += x
    return _ref_reduce(level, poly)


def _ref_inverse(level, a):
    others = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for j in range(2, level):
        if gcd(j, level) == 1:
            others = _ref_mul(level, others, _ref_galois(level, a, j))
    norm = _ref_mul(level, a, others)
    assert not any(norm[1:])
    return tuple(x / norm[0] for x in others)


@pytest.mark.parametrize("level", [3, 4, 5, 7, 8, 9, 12])
def test_integer_arithmetic_matches_fraction_reference(level):
    rng = random.Random(1000 + level)
    units = [j for j in range(1, level) if gcd(j, level) == 1]
    for _ in range(50):
        a, b = random_cyc(rng, level, 9, 8), random_cyc(rng, level, 9, 8)
        x, y = a.coords, b.coords
        assert (a + b).coords == tuple(p + q for p, q in zip(x, y))
        assert (a - b).coords == tuple(p - q for p, q in zip(x, y))
        assert (a * b).coords == _ref_mul(level, x, y)
        for j in units:
            assert a.galois(j).coords == _ref_galois(level, x, j)
        if a:
            assert a.inverse().coords == _ref_inverse(level, x)


def _assert_canonical(z):
    assert len(z.ints) == euler_phi(z.level)
    assert z.den > 0
    assert gcd(z.den, *z.ints) == 1
    if not z:
        assert z.den == 1


def test_canonical_form():
    rng = random.Random(17)
    for level in (3, 5, 12):
        zeros = [CycNum.zero(level), CycNum.from_rational(level, 0),
                 CycNum(level, [Fraction(0, 5)] * euler_phi(level))]
        for _ in range(30):
            a, b = random_cyc(rng, level), random_cyc(rng, level)
            zeros += [a - a, a * 0, (a + b) - b - a]
            for z in (a, a + b, a - b, a * b, -a, a * Fraction(6, 7), a.galois(-1),
                      a * a, CycNum.zeta(level, rng.randint(-9, 9)) / 6):
                _assert_canonical(z)
            if a:
                _assert_canonical(a.inverse())
                _assert_canonical(b / a)
        for z in zeros:
            _assert_canonical(z)
            assert not z and z == 0


def test_equality_and_hash_agree_across_routes():
    half = [CycNum(3, [Fraction(2, 4)]),
            CycNum(3, [Fraction(2, 4), 0]),
            CycNum.from_rational(3, Fraction(1, 2)),
            CycNum.one(3) / 2,
            CycNum.one(3) * 3 / 6,
            Fraction(1, 2) + CycNum.zero(3),
            CycNum.zeta(3) * Fraction(1, 2) - CycNum.zeta(3) + CycNum(3, [Fraction(1, 2), Fraction(1, 2)]),
            QSeries(3, 3, [Fraction(1, 6), Fraction(1, 2), CycNum.zeta(3) / 5])
            .coefficient(1).coefficient(0)]
    third_zeta = [CycNum(3, [0, Fraction(3, 9)]),
                  CycNum.zeta(3) * Fraction(1, 3),
                  CycNum.zeta(3, 4) / 3,
                  CycNum.zeta(3, 2).galois(2) / 3,
                  QSeries(3, 2, [Fraction(1, 7), CycNum.zeta(3) / 3])
                  .coefficient(1).coefficient(0)]
    for group in (half, third_zeta):
        for z in group:
            assert z == group[0]
            assert hash(z) == hash(group[0])
            assert (z.den, z.ints) == (group[0].den, group[0].ints)
    assert half[0] == Fraction(1, 2)
    assert half[0] != third_zeta[0]
