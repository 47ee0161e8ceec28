"""Differential tests of the integer series kernels against the integer oracles in reference.py.

Every result is compared through its rows (den, parts) with rows the
reference computes in plain integers: the series product against a
schoolbook convolution reduced by the reference Phi_N, the divisor sieve
(on both sides of its split) against direct enumeration of divisors(n) into
zeta-power slots, and sums, differences and rational multiples against an
integer row sum. No oracle calls CycNum, EpsPoly or QSeries arithmetic.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from finvariant import divcong, exactnum, qseries
from finvariant.exactnum import CycNum, EpsPoly, LevelMismatchError, euler_phi
from finvariant.genus import g_hat, g_tilde, weight_constant
from finvariant.qseries import EpsPartError, QSeries, divisor_sum
from reference import row_sum, series_product, series_rows, twisted_divisor_sum

LEVELS = (2, 3, 5, 7, 8, 12, 15)
# divisor-sum weights (minus, plus): one-sided, the g_tilde pairs (-1, -1) and
# (-1, 1), sign-paired classes j, -j with entries other than +-1, and unpaired
WEIGHTS = [(0, 0), (1, 0), (0, 1), (1, 1), (1, -1), (-1, -1), (-1, 1), (2, 2), (3, -3), (-2, 3)]
BIG = 2 ** 120


def _fraction(rng, big):
    if rng.random() < 0.25:
        return Fraction(0)
    if big:
        return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _cyc(rng, level, big=False):
    return CycNum(level, [_fraction(rng, big) for _ in range(euler_phi(level))])


def _eps_poly(rng, level, eps_degree, big=False):
    return EpsPoly(level, [_cyc(rng, level, big) for _ in range(eps_degree + 1)])


def _series(rng, level, prec, eps_degree=0, density=1.0, big=False):
    return QSeries(level, prec, [
        _eps_poly(rng, level, eps_degree, big) if rng.random() < density
        else EpsPoly(level, ()) for _ in range(prec)])


def _rows(f: QSeries):
    return f.den, f.parts


def _coords(c):
    """A rational, a CycNum or an EpsPoly as series_rows reads a value."""
    if isinstance(c, EpsPoly):
        return [x.coords for x in c.coeffs]
    return [c.coords] if isinstance(c, CycNum) else c


def _coefficient_series(level, prec, coeff) -> QSeries:
    """The divisor-sum input sum_{d=1}^{prec-1} coeff(d) q^d."""
    return QSeries(level, prec, [0] + [coeff(d) for d in range(1, prec)])


def _assert_product(a: QSeries, b: QSeries) -> None:
    got = a * b
    assert got.prec == min(a.prec, b.prec)
    assert _rows(got) == series_product(a.level, got.prec, _rows(a), _rows(b))


def _assert_divisor_sum(coeffs: QSeries, minus: int, plus: int) -> None:
    got = divisor_sum(coeffs, minus, plus)
    assert _rows(got) == twisted_divisor_sum(coeffs.level, _rows(coeffs), minus, plus)


@pytest.mark.parametrize("level", LEVELS)
def test_product_matches_convolution(level):
    # at most one factor carries an eps part: two would leave eps^2, which a series refuses
    rng = random.Random(1000 + level)
    for _ in range(6):
        eps_a = rng.choice((0, 0, 1))
        a = _series(rng, level, rng.randint(1, 14), eps_a)
        b = _series(rng, level, rng.randint(1, 14), 0 if eps_a else rng.choice((0, 1)))
        _assert_product(a, b)


@pytest.mark.parametrize("level", LEVELS)
def test_product_of_eps_parts_reaches_eps_squared(level):
    # the convolution of two eps-series has an eps^2 part, which the product
    # refuses; the eps-series times the eps-free part of the other still matches
    rng = random.Random(2000 + level)
    a = _series(rng, level, 9, eps_degree=1)
    b = _series(rng, level, 9, eps_degree=1)
    assert len(series_product(level, 9, _rows(a), _rows(b))[1]) == 3
    with pytest.raises(EpsPartError, match=r"^a series holds at most an eps\^1 part$"):
        a * b
    _assert_product(a, QSeries._of(level, 9, b.den, b.parts[:1]))


@pytest.mark.parametrize("level", (3, 5, 12))
def test_product_eps_part_cancels(level):
    # (1 + eps*q^3)(1 - eps*q^3) = 1 - eps^2*q^6: to O(q^6) the eps^1 part
    # cancels and the eps^2 part lies past the precision, so the product is 1
    prec = 6
    plus = QSeries(level, prec, [1, 0, 0, EpsPoly.linear(level, 0, 1)])
    minus = QSeries(level, prec, [1, 0, 0, EpsPoly.linear(level, 0, -1)])
    _assert_product(plus, minus)
    product = plus * minus
    assert product.is_eps_free() and product == QSeries.one(level, prec)


@pytest.mark.parametrize("level", LEVELS)
def test_product_sparse_zero_and_precision_one(level):
    rng = random.Random(3000 + level)
    zero = QSeries.zero(level, 7)
    dense = _series(rng, level, 11)
    sparse = _series(rng, level, 12, density=0.2)
    assert not dense * zero and (zero * dense).prec == 7
    _assert_product(dense, sparse)
    _assert_product(sparse, sparse)
    _assert_product(_series(rng, level, 1), dense)
    _assert_product(dense, _series(rng, level, 1, eps_degree=1))
    eps_only = QSeries(level, 5, [EpsPoly(level, (CycNum.zero(level), _cyc(rng, level)))] * 5)
    _assert_product(eps_only, dense)


@pytest.mark.parametrize("level", LEVELS)
def test_product_big_numerators_and_denominators(level):
    # entries above 2^100 of both signs exercise the slot width and negative digits
    rng = random.Random(4000 + level)
    a = _series(rng, level, 8, eps_degree=1, big=True)
    b = _series(rng, level, 10, big=True)
    _assert_product(a, b)
    mixed = _series(rng, level, 9)
    _assert_product(a, mixed)
    _assert_product(mixed, -mixed)


# slot widths in bytes on both sides of the 8-byte machine-word boundaries,
# and (level, prec, eps part on the first factor) shapes the product runs at
SLOT_WIDTHS = (1, 7, 8, 9, 15, 16, 17)
WIDTH_SHAPES = ((2, 5, True), (3, 4, False), (5, 3, True), (7, 2, False), (105, 1, False))


def _width_cases():
    """(width, shape, bits): factors with entries of at most `bits` bits give
    slots of `width` bytes, as the product sizes them: 2*bits plus the bit
    length of the term count plus 2 sign and carry bits, rounded up to bytes."""
    cases = []
    for width in SLOT_WIDTHS:
        for level, prec, eps in WIDTH_SHAPES:
            terms = prec * euler_phi(level)
            bits = (8 * width - 2 - terms.bit_length()) // 2
            if bits >= 1:
                cases.append((width, (level, prec, eps), bits))
    return cases


def _bounded_series(rng, level, prec, bits, eps):
    """Integer coefficients of at most `bits` bits, the first entry of each part at the bound."""
    top, deg = (1 << bits) - 1, euler_phi(level)
    parts = []
    for _ in range(2 if eps else 1):
        row = [rng.randint(-top, top) for _ in range(prec * deg)]
        row[0] = rng.choice((top, -top))
        parts.append(row)
    return QSeries(level, prec, [
        EpsPoly(level, [CycNum(level, row[n * deg:(n + 1) * deg]) for row in parts])
        for n in range(prec)])


def test_slot_widths_cover_every_word_boundary():
    assert {width for width, _, _ in _width_cases()} == set(SLOT_WIDTHS)
    assert {shape for _, shape, _ in _width_cases()} == set(WIDTH_SHAPES)


@pytest.mark.parametrize("width, shape, bits", _width_cases(),
                         ids=[f"{w}B-N{n}P{p}{'-eps' if e else ''}"
                              for w, (n, p, e), _ in _width_cases()])
def test_product_across_slot_widths(monkeypatch, width, shape, bits):
    level, prec, eps = shape
    rng = random.Random(width * 1000 + level)
    a = _bounded_series(rng, level, prec, bits, eps)
    b = _bounded_series(rng, level, prec, bits, False)
    widths = []
    pack = qseries._pack
    monkeypatch.setattr(qseries, "_pack", lambda *args: widths.append(args[-1]) or pack(*args))
    _assert_product(a, b)
    assert set(widths) == {width}
    if not eps:
        # a square packs its factor once and equals the product by an equal copy
        copy = QSeries._of(level, prec, a.den, a.parts)
        widths.clear()
        square = a * a
        assert widths == [width]
        assert square == a * copy
        assert _rows(square) == series_product(level, prec, _rows(a), _rows(copy))


def test_one_fold_serves_cycnum_and_series_products(monkeypatch):
    # CycNum's product is the q^0 coefficient of the series row product:
    # a wrong fold, put into the one shared function in place, changes both
    a, b = CycNum.zeta(5, 3), CycNum(5, [Fraction(1, 2), 0, 1, -3])
    f, g = QSeries(5, 3, [a, 1, b]), QSeries(5, 3, [b, a])
    right = (a * b, f * g, a.galois(3), weight_constant(5, 1))

    def no_fold(level, cols):
        return cols[:euler_phi(level)]

    monkeypatch.setattr(exactnum._fold, "__code__", no_fold.__code__)
    wrong = (a * b, f * g, a.galois(3), weight_constant(5, 1))
    assert all(x != y for x, y in zip(right, wrong))
    assert wrong[1].coefficient(0) == EpsPoly(5, (wrong[0],))
    assert right[1].coefficient(0) == EpsPoly(5, (right[0],))


@pytest.mark.parametrize("level", LEVELS + (105,))
@pytest.mark.parametrize("minus, plus", WEIGHTS)
def test_divisor_sum_matches_enumeration(level, minus, plus):
    # level 105 (Phi_105 has the coefficient -2, so zeta^48 has a coordinate 2)
    # runs at P <= 8 and without 120-bit entries, whose gcds at phi = 48 are slow
    rng = random.Random(5000 + 10 * level + 3 * minus + plus)
    prec = rng.randint(12, 24) if level < 100 else rng.randint(5, 8)
    kinds = {
        "rational": lambda: _fraction(rng, False),
        "cyclotomic": lambda: _cyc(rng, level),
        "eps": lambda: _eps_poly(rng, level, 1),
        "big": lambda: _eps_poly(rng, level, rng.randint(0, 1), big=True),
    }
    if level > 100:
        del kinds["big"]
    for make in kinds.values():
        table = {d: make() for d in range(1, prec)}
        _assert_divisor_sum(_coefficient_series(level, prec, table.__getitem__), minus, plus)


@pytest.mark.parametrize("level", (2, 5, 12))
def test_divisor_sum_sparse_and_tiny_precision(level):
    rng = random.Random(6000 + level)
    table = {d: (_cyc(rng, level) if d % 3 == 1 else 0) for d in range(1, 30)}
    for prec in (1, 2, 3, 30):
        _assert_divisor_sum(_coefficient_series(level, prec, table.__getitem__), 1, -1)
    assert not divisor_sum(QSeries.zero(level, 10), 1, 1)


def _linear_row(rng, level, d):
    """An EpsPoly.linear coefficient as xi-tables build it; its eps part is zero for d % 3 == 0."""
    return EpsPoly.linear(level, _fraction(rng, False),
                          0 if d % 3 == 0 else Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


@pytest.mark.parametrize("level", (5, 7, 15))
@pytest.mark.parametrize("minus, plus", WEIGHTS)
def test_divisor_sum_traffic_shapes(level, minus, plus):
    # the rows callers pass: rational EpsPoly.linear entries (xi-tables), ints
    # d^(k-1) (g_tilde), and 0 at even d with EpsPolys at odd d (quaternionic
    # reduced assembly), at precisions around the level where zeta^r is dense
    rng = random.Random(7000 + 10 * level + 3 * minus + plus)
    for prec in (level - 1, level, level + 1, 2 * level + 1):
        tables = [{d: _linear_row(rng, level, d) for d in range(1, prec)},
                  {d: _linear_row(rng, level, d) if d % 2 else 0 for d in range(1, prec)}]
        tables += [{d: d ** (k - 1) for d in range(1, prec)} for k in range(1, 9)]
        for table in tables:
            _assert_divisor_sum(_coefficient_series(level, prec, table.__getitem__), minus, plus)


# ---------------------------------------------------------------------------
# The divisor sieve on both sides of its split


def _split_rows(rng, level: int, prec: int) -> dict:
    """Integer coefficient rows (den, parts) of the shapes the callers pass."""
    deg = euler_phi(level)

    def rows(den, parts, coordinate):
        out = [[0] * (prec * deg) for _ in range(parts)]
        for d in range(1, prec):
            for e in range(parts):
                for t in range(deg):
                    out[e][d * deg + t] = coordinate(d, e, t)
        return den, out

    rows_of = {"int": rows(1, 1, lambda d, e, t: d ** 3 if t == 0 else 0)}
    rows_of["rational"] = rows(12, 1, lambda d, e, t: rng.randint(-30, 30) if t == 0 else 0)
    rows_of["eps_linear"] = rows(35, 2, lambda d, e, t: rng.randint(-9, 9) if t == 0 else 0)
    rows_of["dense_cyc"] = rows(rng.randint(1, 2 ** 40), 1,
                                lambda d, e, t: rng.randint(-2 ** 60, 2 ** 60))
    rows_of["odd_only"] = rows(6, 2, lambda d, e, t: rng.randint(-20, 20) if d % 2 else 0)
    return rows_of


def _split_precisions(classes: int) -> list[int]:
    """Precisions on both sides of the points where s = isqrt(classes * P) steps up."""
    out = {97, 150, 300}
    for target in (30, 120):
        m = isqrt(classes * target) + 1
        first = -(-m * m // classes)  # the least P with isqrt(classes * P) = m
        out.update((first - 1, first, first + 1))
    return sorted(out)


SPLIT_MAX = 300


@pytest.mark.parametrize("level", range(2, 14))
def test_divisor_sum_across_the_split(level):
    # every (minus, plus) weight, at precisions where the j <= s slices and the
    # d <= (P-1)//(s+1) class slices both run and where s steps; a sum to
    # O(q^P) is the reference's sum to O(q^SPLIT_MAX) cut at P, and a weight's
    # sum is minus times the zeta^(-j) sum plus plus times the zeta^j sum
    rng = random.Random(8000 + level)
    deg = euler_phi(level)
    for name, (den, parts) in _split_rows(rng, level, SPLIT_MAX).items():
        sums = {w: twisted_divisor_sum(level, (den, parts), *w) for w in ((0, 0), (1, 0), (0, 1))}
        for minus, plus in WEIGHTS:
            classes = level if minus or plus else 1
            terms = [(1, sums[0, 0])] if classes == 1 else [(minus, sums[1, 0]), (plus, sums[0, 1])]
            for prec in _split_precisions(classes):
                assert (prec - 1) // (isqrt(classes * prec) + 1) >= 1
                size = prec * deg
                got = divisor_sum(QSeries._of(level, prec, den, [p[:size] for p in parts]),
                                  minus, plus)
                assert _rows(got) == row_sum(size, terms), (name, minus, plus, prec)


# ---------------------------------------------------------------------------
# Scalars and short coefficient lists joining a series


@pytest.mark.parametrize("level", (2, 3, 7, 12))
def test_short_coefficient_lists_pad_with_zeros(level):
    # 0, 1, fewer than, exactly and more than prec coefficients, eps parts too
    rng = random.Random(9000 + level)
    for prec in (1, 2, 9):
        for count in (0, 1, prec - 1, prec, prec + 3):
            coeffs = [rng.choice((_fraction(rng, False), _cyc(rng, level),
                                  _eps_poly(rng, level, 1))) for _ in range(count)]
            padded = coeffs[:prec] + [0] * (prec - min(count, prec))
            got, want = QSeries(level, prec, coeffs), QSeries(level, prec, padded)
            assert _rows(got) == _rows(want)
            assert _rows(got) == series_rows(level, prec, [_coords(c) for c in padded])
            base = _series(rng, level, prec, eps_degree=1, density=0.5)
            for c in coeffs[:2]:
                scalar = series_rows(level, prec, [_coords(c)])
                assert _rows(base + c) == row_sum(prec * euler_phi(level),
                                                  [(1, _rows(base)), (1, scalar)])


@pytest.mark.parametrize("level", (2, 3, 4, 5, 7, 12))
@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_g_hat_is_g_tilde_plus_its_constant(level, k):
    # g_hat writes c_k into g_tilde's q^0 slots: field for field the series sum, also at
    # P = 1 (c_k over an empty sieve), odd k >= 3 (c_k = 0) and k = 2 (c_2 = 1/12 enters den)
    for prec in (1, 2, 30):
        hat, tilde = g_hat(level, k, prec), g_tilde(level, k, prec)
        s = tilde + weight_constant(level, k)
        assert (hat.level, hat.prec) == (level, prec)
        assert (hat.den, hat.parts) == (s.den, s.parts)
        assert hat.coefficient(0) == EpsPoly(level, (weight_constant(level, k),))
        assert tilde.coefficient(0) == EpsPoly(level, ())
        for n in range(1, prec):
            assert hat.coefficient(n) == tilde.coefficient(n)


# ---------------------------------------------------------------------------
# The linear-combination kernel: +, - and rational multiples


SUM_LEVELS = (2, 3, 5, 12)


def _scaled(a: QSeries, c: Fraction):
    return row_sum(a.prec * euler_phi(a.level), [(c, _rows(a))])


def _assert_sum_kernel(a: QSeries, b: QSeries, c: Fraction) -> None:
    prec = min(a.prec, b.prec)
    size = prec * euler_phi(a.level)
    for got, terms in ((a + b, [(1, _rows(a)), (1, _rows(b))]),
                       (a - b, [(1, _rows(a)), (-1, _rows(b))]),
                       (b - a, [(1, _rows(b)), (-1, _rows(a))])):
        assert got.prec == prec
        assert _rows(got) == row_sum(size, terms)
    for got in (a * c, c * a):
        assert got.prec == a.prec and _rows(got) == _scaled(a, c)


@pytest.mark.parametrize("level", SUM_LEVELS)
def test_sum_kernel_matches_coefficientwise(level):
    rng = random.Random(7000 + level)
    for _ in range(8):
        a = _series(rng, level, rng.randint(1, 14), rng.choice((0, 1)))
        b = _series(rng, level, rng.randint(1, 14), rng.choice((0, 0, 1)), density=0.6)
        _assert_sum_kernel(a, b, _fraction(rng, False))
    # integer scalars, zero and one
    a = _series(rng, level, 9, eps_degree=1)
    for c in (0, 1, -3):
        assert _rows(a * c) == _scaled(a, Fraction(c))


@pytest.mark.parametrize("level", SUM_LEVELS)
def test_sum_kernel_eps_part_cancels(level):
    # the eps^1 parts cancel to zero: the result must trim them
    rng = random.Random(7100 + level)
    a = _series(rng, level, 10, eps_degree=1)
    b = QSeries(level, 10, [EpsPoly(level, (_cyc(rng, level), a.coefficient(n).coefficient(1)))
                            for n in range(10)])
    diff = a - b
    assert diff.is_eps_free()
    assert all(len(diff.coefficient(n).coeffs) <= 1 for n in range(10))
    _assert_sum_kernel(a, b, Fraction(-2, 3))
    assert not a - a and all(not (a - a).coefficient(n).coeffs for n in range(10))
    assert not a * Fraction(0)


@pytest.mark.parametrize("level", SUM_LEVELS)
def test_sum_kernel_zero_unequal_and_big(level):
    rng = random.Random(7200 + level)
    zero = QSeries.zero(level, 6)
    dense = _series(rng, level, 11, eps_degree=1)
    _assert_sum_kernel(dense, zero, Fraction(5, 7))
    _assert_sum_kernel(zero, dense, Fraction(1))
    _assert_sum_kernel(zero, zero, Fraction(3))
    # entries above 2^100, both signs, mixed with small ones
    big = _series(rng, level, 8, eps_degree=1, big=True)
    _assert_sum_kernel(big, dense, Fraction(rng.randint(2 ** 100, 2 ** 101), 3 ** 70))
    _assert_sum_kernel(big, -big, _fraction(rng, True))
    # scalars coerce to a series with one coefficient
    assert _rows(dense + 2) == row_sum(11 * euler_phi(level),
                                       [(1, _rows(dense)), (1, series_rows(level, 11, [2]))])


def test_sum_kernel_level_mismatch():
    a, b = QSeries.one(3, 4), QSeries.one(5, 4)
    with pytest.raises(LevelMismatchError):
        a + b
    with pytest.raises(LevelMismatchError):
        a - b


def test_span_reduction_built_once_per_lattice(monkeypatch):
    lattice = divcong.make_lattice(3, 2, 12, gtilde=g_tilde(3, 2, 12))
    F = g_tilde(3, 2, 12) * Fraction(1, 4)
    G = QSeries.zero(3, 12)
    assert divcong.is_equivalent(F, G, lattice).equivalent
    inserts = []
    original = divcong._ColumnSpace.insert

    def counting(self, *args):
        inserts.append(args)
        return original(self, *args)

    monkeypatch.setattr(divcong._ColumnSpace, "insert", counting)
    eps_F = F + QSeries(3, 12, [EpsPoly.linear(3, 0, 1)]) * g_tilde(3, 2, 12)
    assert divcong.is_equivalent(eps_F, G, lattice).equivalent
    fifth = QSeries(3, 12, [0, Fraction(1, 5)])
    assert not divcong.is_equivalent(F + fifth, G, lattice).equivalent
    assert inserts == []


def test_kernels_match_oracles_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rationals = st.fractions(min_value=-(2 ** 70), max_value=2 ** 70, max_denominator=2 ** 40)

    @st.composite
    def series_pair(draw):
        level = draw(st.sampled_from(LEVELS))
        deg = euler_phi(level)

        def series(prec, max_parts):
            coeffs = []
            for _ in range(prec):
                parts = draw(st.lists(st.lists(rationals, min_size=deg, max_size=deg),
                                      max_size=max_parts))
                coeffs.append(EpsPoly(level, [CycNum(level, p) for p in parts]))
            return QSeries(level, prec, coeffs)

        # b is eps-free when a carries an eps part, so that a*b has no eps^2 part
        a = series(draw(st.integers(1, 6)), 2)
        return a, series(draw(st.integers(1, 6)), 2 if a.is_eps_free() else 1)

    # the drawn examples follow a hash of this source, so a kill that must
    # survive edits is pinned: minus = -plus at N >= 3 joins class -j to
    # class j with a sign (a `sub` twist group)
    pinned = (QSeries(5, 4, [1, CycNum(5, [0, 2, 0, -1]), Fraction(1, 3)]), QSeries(5, 2, [3, 1]))

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(series_pair(), st.sampled_from([(0, 0), (1, 0), (1, 1), (1, -1)]))
    @hypothesis.example(pinned, (1, -1))
    def check(pair, weights):
        a, b = pair
        _assert_product(a, b)
        coeff = lambda d: a.coefficient(d % a.prec)
        _assert_divisor_sum(_coefficient_series(a.level, b.prec + 3, coeff), *weights)

    check()
