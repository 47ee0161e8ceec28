"""Truncated q-series ring, eps-splitting, integrality, divisor sums."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_integral_series, random_series
from finvariant.exactnum import CycNum, EpsPoly, LevelMismatchError, euler_phi
from finvariant.genus import g2, g_tilde_level1
from finvariant.qseries import EpsPartError, QSeries, divisor_sum, eps_split, is_integral_series
from reference import convolve, divisors, sigma


def test_difference_of_squares():
    one_plus_q = QSeries(3, 3, [1, 1])
    one_minus_q = QSeries(3, 3, [1, -1])
    assert one_plus_q * one_minus_q == QSeries(3, 3, [1, 0, -1])


def test_multiplicative_identity():
    rng = random.Random(2)
    one = QSeries.one(3, 6)
    for _ in range(10):
        f = random_series(rng, 3, 6)
        assert f * one == f


def test_geometric_square_coefficient():
    # (sum q^n)^2 has q^5-coefficient 6, frozen from the brute-force convolution
    ones = [1] * 8
    expected = convolve(ones, ones, 8)
    assert expected[5] == 6
    f = QSeries(3, 8, ones)
    square = f * f
    for n in range(8):
        assert square.coefficient(n) == EpsPoly.rational(3, expected[n])


def test_min_precision_rule():
    f = QSeries.one(3, 10)
    g = QSeries.one(3, 4)
    assert (f + g).prec == 4
    assert (f * g).prec == 4


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatchError):
        QSeries.one(3, 4) + QSeries.one(2, 4)


@pytest.mark.parametrize("build", [
    lambda level: QSeries(level, 3, [1]),
    lambda level: QSeries.zero(level, 3),
    lambda level: QSeries.one(level, 3),
    lambda level: QSeries._of(level, 3, 1, [[1]]),
    lambda level: divisor_sum(QSeries(level, 4, [0, 1, 1, 1])),
    lambda level: g_tilde_level1(level, 2, 5),
], ids=["init", "zero", "one", "_of", "divisor_sum", "g_tilde_level1"])
def test_level_below_two_rejected_on_every_route(build):
    with pytest.raises(ValueError):
        build(1)


def test_associativity_random():
    rng = random.Random(17)
    for _ in range(15):
        f = random_series(rng, 3, 5)
        g = random_series(rng, 3, 5)
        h = random_series(rng, 3, 5)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_is_integral_series_examples():
    sigma3 = QSeries(3, 50, [0] + [sigma(n, 3) for n in range(1, 50)])
    assert is_integral_series(sigma3)
    half_plus_q = QSeries(3, 4, [Fraction(1, 2), 1])
    assert not is_integral_series(half_plus_q)
    assert is_integral_series(g2(3, 30) - Fraction(1, 12))


@pytest.mark.parametrize("level", [3, 5, 12])
def test_is_integral_series_reads_the_last_slot(level):
    # one entry with a denominator prime to N, in the last slot of the row,
    # decides; an N-smooth one there does not, and the zero series is integral
    rng, prec, deg = random.Random(level), 8, euler_phi(level)
    base = random_integral_series(rng, level, prec)
    assert is_integral_series(base)

    def at_last_slot(x):
        return QSeries(level, prec, [0] * (prec - 1) + [CycNum(level, [0] * (deg - 1) + [x])])

    p = next(q for q in (7, 11, 13) if level % q)
    bumped = base + at_last_slot(Fraction(1, p))
    assert bumped.den % p == 0 and bumped.parts[0][-1] % p
    assert all(v % p == 0 for v in bumped.parts[0][:-1])
    assert not is_integral_series(bumped)
    assert is_integral_series(base + at_last_slot(Fraction(1, level)))
    for zero in (QSeries.zero(level, prec), base - base):
        assert not zero.parts and is_integral_series(zero)


def test_is_integral_rejects_eps_part():
    f = QSeries(3, 3, (EpsPoly.linear(3, 0, 1),))
    with pytest.raises(EpsPartError):
        is_integral_series(f)


def test_eps_split_definition():
    half_minus_eps = EpsPoly.linear(3, Fraction(1, 2), -1)
    one_minus_2eps = EpsPoly.linear(3, 1, -2)
    f = QSeries(3, 2, (half_minus_eps, one_minus_2eps))
    parts = eps_split(f)
    assert parts[0] == QSeries(3, 2, [Fraction(1, 2), 1])
    assert parts[1] == QSeries(3, 2, [-1, -2])


def test_eps_split_eps_free_and_pure():
    f = QSeries(3, 3, [1, 2, 3])
    assert eps_split(f) == [f]
    pure = f * EpsPoly.linear(3, 0, 1)
    parts = eps_split(pure)
    assert not parts[0]
    assert parts[1] == f


def _powers(level, prec, e):
    """The divisor-sum input sum_{d>=1} d^e q^d."""
    return QSeries(level, prec, [0] + [d ** e for d in range(1, prec)])


def test_divisor_weighted_first_coefficient():
    # n = 1 has the single divisor d = 1: zeta^-1 - zeta
    f = divisor_sum(_powers(3, 4, 0), minus=1, plus=-1)
    expected = CycNum.zeta(3, -1) - CycNum.zeta(3)
    assert f.coefficient(1) == EpsPoly(3, (expected,))
    assert f.coefficient(0) == EpsPoly(3, ())


def test_divisor_weighted_level2_odd_weight_vanishes():
    # zeta = -1 makes zeta^-j - zeta^j vanish identically
    assert not divisor_sum(_powers(2, 30, 0), minus=1, plus=-1)


def test_divisor_weighted_weight2_value():
    # n = 2: (zeta^-2+zeta^2)*1 + (zeta^-1+zeta)*2 = -3 at level 3
    f = divisor_sum(_powers(3, 4, 1), minus=1, plus=1)
    assert f.coefficient(2) == EpsPoly.rational(3, -3)


def test_divisor_weighted_real_at_level2():
    f = divisor_sum(_powers(2, 20, 2), minus=1, plus=1)
    for n in range(20):
        value = f.coefficient(n).coefficient(0)
        assert value.rational_part() is not None


def test_divisor_weighted_even_weight_rational_coefficients():
    # for even k the summands zeta^-j + zeta^j are conjugation-fixed, so
    # every coordinate outside the rational line vanishes
    f = divisor_sum(_powers(3, 25, 1), minus=1, plus=1)
    for n in range(25):
        assert f.coefficient(n).coefficient(0).rational_part() is not None


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(9)
    for k in (1, 3):
        for _ in range(40):
            m = rng.randint(1, 40)
            n = rng.randint(1, 40)
            if gcd(m, n) == 1:
                assert sigma(m * n, k) == sigma(m, k) * sigma(n, k)


def test_divisors_sorted_complete():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_equality_up_to_shared_precision():
    f = QSeries(3, 6, [1, 2, 3, 4, 5, 6])
    g = QSeries(3, 3, [1, 2, 3])
    assert f == g
    assert g == f
    h = QSeries(3, 3, [1, 2, 4])
    assert f != h


# ---------------------------------------------------------------------------
# Storage: integer rows over one denominator, in canonical form


def _assert_canonical(f: QSeries) -> None:
    assert f.den > 0
    assert gcd(f.den, *(x for part in f.parts for x in part)) == 1
    assert all(len(part) == f.prec * euler_phi(f.level) for part in f.parts)
    assert not f.parts or any(f.parts[-1])
    assert len(f.parts) <= 2


def _eps_series(rng, level, prec, eps_degree):
    return QSeries(level, prec, [
        EpsPoly(level, [CycNum(level, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                       for _ in range(euler_phi(level))])
                        for _ in range(eps_degree + 1)])
        for _ in range(prec)])


@pytest.mark.parametrize("level", (2, 3, 5, 12))
def test_storage_canonical_after_every_operation(level):
    rng = random.Random(400 + level)
    for _ in range(6):
        a = _eps_series(rng, level, rng.randint(1, 8), rng.randint(0, 1))
        b = _eps_series(rng, level, rng.randint(1, 8), rng.randint(0, 1))
        results = [a, a + b, a - b, a * eps_split(b)[0], eps_split(a)[0] * b,
                   a * Fraction(3, 4), a * 0, -a, a.truncate(rng.randint(1, a.prec)),
                   *eps_split(a)]
        for f in results:
            _assert_canonical(f)


@pytest.mark.parametrize("level", (2, 3, 5, 12))
def test_constructed_rows_are_canonical_without_reduction(level):
    # the constructor stores its rows with no gcd: over the lcm of the values'
    # own denominators they are already in lowest terms, for every value kind
    rng = random.Random(700 + level)
    deg = euler_phi(level)
    kinds = [lambda: rng.randint(-12, 12),
             lambda: Fraction(rng.choice((2, 4, 6, 9)), rng.choice((3, 9, 12))),
             lambda: CycNum(level, [Fraction(rng.randint(-4, 4) * 3, rng.choice((3, 9)))
                                    for _ in range(deg)]),
             lambda: EpsPoly.linear(level, Fraction(rng.randint(-4, 4), 6),
                                    Fraction(rng.randint(-4, 4), 4)),
             lambda: EpsPoly(level, (CycNum.zero(level), CycNum.zeta(level) * Fraction(2, 5)))]
    for _ in range(20):
        prec = rng.randint(1, 9)
        values = [rng.choice(kinds)() for _ in range(rng.randint(0, prec))]
        _assert_canonical(QSeries(level, prec, values))
    for scalar in (0, 3, Fraction(6, 4), Fraction(-1, 12), CycNum.zeta(level) * Fraction(4, 6)):
        _assert_canonical(QSeries(level, 5, (scalar,)))


def test_truncation_to_the_same_precision_is_the_series():
    f = QSeries(3, 4, [Fraction(1, 2), 1, 3, Fraction(1, 7)])
    assert f.truncate(4) is f


def test_truncation_that_shrinks_the_denominator():
    # the only entry with denominator 7 is cut off, so den drops from 14 to 2
    f = QSeries(3, 4, [Fraction(1, 2), 1, 3, Fraction(1, 7)])
    assert f.den == 14
    cut = f.truncate(3)
    direct = QSeries(3, 3, [Fraction(1, 2), 1, 3])
    assert cut.den == direct.den == 2 and cut.parts == direct.parts
    assert cut == direct


def test_scaling_round_trip_and_cancellation():
    rng = random.Random(41)
    f = _eps_series(rng, 5, 7, 1)
    assert (f * 3) * Fraction(1, 3) == f
    assert ((f * 3) * Fraction(1, 3)).parts == f.parts
    assert (f - f).parts == () and (f - f).den == 1


@pytest.mark.parametrize("level", (3, 5))
def test_scalar_on_the_left_defers_to_the_series(level):
    # CycNum operators return NotImplemented for a series and EpsPoly has
    # none, so Python falls back to the series' reflected operators; an eps
    # value multiplies the eps-free part, as two eps parts would leave eps^2
    rng = random.Random(90 + level)
    f = _eps_series(rng, level, 6, 1)
    for c in (CycNum.zeta(level), CycNum.zeta(level, 2) * Fraction(-2, 3),
              EpsPoly.linear(level, 0, 1),
              EpsPoly(level, (CycNum.one(level), CycNum.zeta(level)))):
        g = f if isinstance(c, CycNum) else eps_split(f)[0]
        assert c * g == g * c
        assert c + f == f + c
        assert c - f == -(f - c)
        assert (c * g).parts == (g * c).parts and (c + f).parts == (f + c).parts


def _scalar_part(level, c, e) -> CycNum:
    """The eps^e part of a rational, a CycNum or an EpsPoly."""
    if isinstance(c, EpsPoly):
        return c.coefficient(e)
    if e:
        return CycNum.zero(level)
    return c if isinstance(c, CycNum) else CycNum.from_rational(level, c)


def _scalars(rng, level):
    """One of each scalar kind a series adds: ints, Fractions, CycNums, EpsPolys."""
    deg = euler_phi(level)
    cyc = CycNum(level, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in range(deg)])
    return [0, rng.randint(1, 9), -rng.randint(1, 9), Fraction(rng.randint(-9, 9), 6),
            Fraction(-1, 12), cyc, CycNum.zeta(level, rng.randrange(level)) * Fraction(2, 5),
            EpsPoly(level, (cyc,)), EpsPoly.linear(level, Fraction(1, 3), Fraction(-3, 4)),
            EpsPoly(level, (CycNum.zero(level), cyc)), EpsPoly(level, ())]


@pytest.mark.parametrize("level", (2, 3, 5, 12))
def test_scalar_joins_at_q0_as_the_full_series_does(level):
    # f + c, c + f, f - c and c - f change only the q^0 slots; each equals,
    # den and parts, the sum with c padded into a full series, for every
    # scalar kind, eps parts on either side, results whose gcd exceeds 1
    # (read past q^0 or not) and results that cancel to zero
    rng = random.Random(1300 + level)
    series = [_eps_series(rng, level, rng.randint(1, 7), rng.randint(0, 1)) for _ in range(4)]
    series += [QSeries.zero(level, 3), QSeries(level, 4, [Fraction(1, 6), 2, Fraction(4, 3)]),
               QSeries(level, 2, [Fraction(1, 6), Fraction(1, 6)]),
               QSeries(level, 3, [EpsPoly.linear(level, Fraction(1, 2), Fraction(1, 4)), 3])]
    scalars = _scalars(rng, level) + [Fraction(1, 6), Fraction(-1, 6), Fraction(5, 6)]
    for f in series:
        for c in scalars:
            full = QSeries(level, f.prec, (c,))
            for got, want, s_f, s_c in ((f + c, f + full, 1, 1), (c + f, full + f, 1, 1),
                                        (f - c, f - full, 1, -1), (c - f, full - f, -1, 1)):
                assert (got.prec, got.den, got.parts) == (want.prec, want.den, want.parts), (f, c)
                _assert_canonical(got)
                # the value, in CycNum arithmetic, apart from the series kernels
                for n in range(f.prec):
                    for e in (0, 1):
                        value = f.coefficient(n).coefficient(e) * s_f
                        if n == 0:
                            value = value + _scalar_part(level, c, e) * s_c
                        assert got.coefficient(n).coefficient(e) == value
    assert (QSeries(level, 3, [Fraction(1, 6), 2, Fraction(4, 3)]) + Fraction(1, 6)).den == 3
    for c in scalars:
        full = QSeries(level, 5, (c,))
        assert not full - c and not c - full and (full - c).den == 1
    with pytest.raises(LevelMismatchError):
        QSeries.one(level, 3) + CycNum.zeta(level + 1)


@pytest.mark.parametrize("make", [
    lambda e: QSeries(5, 6, [e, 1]) * QSeries(5, 6, [2, e]),
    lambda e: QSeries(5, 6, [0, EpsPoly(5, [CycNum.one(5), e.coefficient(1), CycNum.zeta(5)])]),
], ids=["product", "construction"])
def test_eps_degree_two_rejected(make):
    # QSeries._store refuses an eps^2 part, whichever way the series is made:
    # the product of two eps-series, or an eps^2 coefficient given directly
    with pytest.raises(EpsPartError, match=r"^a series holds at most an eps\^1 part$"):
        make(EpsPoly.linear(5, Fraction(1, 2), -1))


def test_cyclotomic_scalar_times_eps_polynomial():
    # an eps value meets a scalar only inside a series: EpsPoly has no arithmetic
    z, e = CycNum.zeta(3), EpsPoly.linear(3, 0, 1)
    assert QSeries(3, 1, [e]) * z == QSeries(3, 1, [EpsPoly(3, (CycNum.zero(3), z))])
    assert z + QSeries(3, 1, [e]) == QSeries(3, 1, [EpsPoly(3, (z, CycNum.one(3)))])
    with pytest.raises(TypeError):
        z + "1/2"
    with pytest.raises(TypeError):
        "1/2" - z
    with pytest.raises(TypeError):
        e * "x"
