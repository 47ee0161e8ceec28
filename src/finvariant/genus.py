"""Level-N Eisenstein-type series, the elliptic-genus expansion, and numeric oracles.

Exact side: the weight-k coefficient series G_hat of the level-N genus
expansion Ell(x) = 1 + sum_k G_hat_k x^k/(k-1)!, their constant-free parts
G_tilde, the quaternionic expansion, and the weight-two combination g2.

Numeric side: floating-point evaluation of the genus via the standard
triple-product form of the Jacobi-type Phi function, a circle-DFT Taylor
extraction and the value of an exact series at a point; `finv oracle`
compares the exact series against them with one product per tau per
command, shared by its levels: the product owns the x-independent factors
(q^n, (1-q^n)^2), extended when an x needs more of them, and memoises
Phi(tau, x) by x off the real and imaginary axes, so the Taylor points that
every level samples are evaluated once. Every product stops at its proven tail, the first n with
|q^n| max(|e^x|, |e^-x|) < 2^-60, and never at a count; a running minimum
of |q^n| kept beside the factors finds that n by one bisect. The DFT's
sample points and twiddles are constant tables, built once per process.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .exactnum import CycNum, _fold, bernoulli, euler_phi
from .qseries import QSeries, _linear_combination, divisor_sum, series_row


def weight_constant(level: int, k: int) -> CycNum:
    """Constant term c_k of G_hat_k: 1/2 + zeta/(1-zeta) for k = 1, B_k/k above.

    (zeta - 1) * sum_{j<N} j zeta^j = N, so c_1 = 1/2 - sum_{j<N} j zeta^(j+1) / N:
    one fold of the powers zeta^1 .. zeta^N, over the denominator 2N.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if k == 1:
        ints = [-2 * c for c in _fold(level, [0] + list(range(level)))]
        ints[0] += level
        return CycNum._of(level, 2 * level, ints)
    return CycNum.from_rational(level, bernoulli(k) / k)


def g_hat(level: int, k: int, prec: int) -> QSeries:
    """The weight-k coefficient series of the level-N genus expansion.

    G_hat_k = c_k - sum_{n>=1} (sum_{d|n} (zeta^(-n/d) + (-1)^k zeta^(n/d)) d^(k-1)) q^n.
    """
    return g_tilde(level, k, prec) + weight_constant(level, k)


def g_tilde(level: int, k: int, prec: int) -> QSeries:
    """G_hat_k with its constant term removed (starts at q^1)."""
    sign = 1 if k % 2 == 0 else -1
    return divisor_sum(_power_series(level, k, prec), minus=-1, plus=-sign)


def g_tilde_level1(level: int, k: int, prec: int) -> QSeries:
    """Constant-free classical Eisenstein series sum_{n>=1} sigma_(k-1)(n) q^n.

    Normalization: G_k = -B_k/(2k) + sum sigma_(k-1)(n) q^n, constant removed.
    Represented at the given cyclotomic level so it can join level-N arithmetic.
    """
    return divisor_sum(_power_series(level, k, prec))


def _power_series(level: int, k: int, prec: int) -> QSeries:
    """sum_{d>=1} d^(k-1) q^d: one slice of rational coordinates in the integer row.

    The level and weight checks of every Eisenstein series built on it.
    """
    if level < 2:
        raise ValueError("level must be >= 2")
    if k < 1:
        raise ValueError("weight must be >= 1")
    deg = euler_phi(level)
    row = [0] * (prec * deg)
    row[deg::deg] = [d ** (k - 1) for d in range(1, prec)]
    return QSeries._of(level, prec, 1, [row])


@dataclass(frozen=True)
class EllExpansion:
    """Taylor data of the genus: Ell(x) = 1 + sum_k g_hat[k-1] x^k/(k-1)!."""

    level: int
    x_order: int
    prec: int
    g_hat: tuple[QSeries, ...]

    def x_coefficient(self, k: int) -> QSeries:
        """Coefficient of x^k, i.e. g_hat_k / (k-1)!."""
        if not 1 <= k <= self.x_order:
            raise IndexError(f"x-order {k} outside 1..{self.x_order}")
        return self.g_hat[k - 1] * Fraction(1, math.factorial(k - 1))


def ell_expansion(level: int, x_order: int, prec: int) -> EllExpansion:
    """Assemble g_hat_k for k = 1..x_order with the 1/(k-1)! bookkeeping exposed."""
    if x_order < 1:
        raise ValueError("x_order must be >= 1")
    return EllExpansion(level, x_order, prec,
                        tuple(g_hat(level, k, prec) for k in range(1, x_order + 1)))


def ell_quaternionic(level: int, c2_order: int, prec: int) -> list[QSeries]:
    """x^2-power coefficients of (1 - Ell(x)Ell(-x)) / x^2.

    For a quaternionic line bundle with Chern roots +-x one has c2 = -x^2,
    so entry 0 is the weight-two combination g2 = G_hat_1^2 - 2 G_hat_2 and
    entry 1 collapses to minus the classical weight-four Eisenstein series,
    independent of the level.
    """
    if c2_order < 0:
        raise ValueError("c2_order must be >= 0")
    return _quaternionic_entries(ell_expansion(level, 2 * c2_order + 2, prec), c2_order)


def _quaternionic_entries(exp: EllExpansion, c2_order: int) -> list[QSeries]:
    """Entries 0 .. c2_order of `ell_quaternionic`, read from exp (x_order >= 2*c2_order + 2).

    Ell(x)Ell(-x) is even: with p_k the x^k coefficient, its x^D coefficient
    (D even) is 2 p_D + 2 sum_{0<i<D/2} (-1)^i p_i p_{D-i} + (-1)^(D/2) p_{D/2}^2,
    formed from the products of the G_hat_k, the middle one a square, and
    the factorials of p_k = G_hat_k/(k-1)! in one linear combination.
    """
    g, fact = exp.g_hat, math.factorial
    entries = []
    for j in range(c2_order + 1):
        d = 2 * j + 2
        terms = [((Fraction(-2, fact(d - 1)),), g[d - 1])]
        for i in range(1, d // 2 + 1):
            twice = 1 if 2 * i == d else 2
            terms.append(((Fraction(-twice * (-1) ** i, fact(i - 1) * fact(d - i - 1)),),
                          g[i - 1] * g[d - i - 1]))
        entries.append(_linear_combination(exp.level, exp.prec, terms))
    return entries


def g2(level: int, prec: int) -> QSeries:
    """The weight-two modular combination G_hat_1^2 - 2 G_hat_2, `ell_quaternionic` entry 0.

    Contract: g2 - 1/12 expands integrally over Z[zeta, 1/level].
    """
    return ell_quaternionic(level, 0, prec)[0]


# ---------------------------------------------------------------------------
# Numeric oracles


class PoleError(ArithmeticError):
    """Evaluation point lies on the pole lattice 2*pi*i*(Z + tau*Z)."""


def _check_tau(tau: complex) -> complex:
    """q of a finite tau with Im tau > 0 whose product reaches its tail at x = 0
    within _MAX_FACTORS factors: Im tau >= 60 ln 2 / (2 pi _MAX_FACTORS), about 6.6e-5."""
    if not cmath.isfinite(tau):
        raise ValueError(f"tau = {tau} is not finite")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if 2 * math.pi * tau.imag < -math.log(_TAIL) / _MAX_FACTORS:
        raise ValueError(f"tau = {tau}: its product needs over {_MAX_FACTORS} factors")
    return cmath.exp(2j * cmath.pi * tau)


def _on_pole_lattice(tau: complex, x: complex) -> bool:
    w = x / (2j * cmath.pi)
    v = w.imag / tau.imag if tau.imag else 0.0
    u = w.real - v * tau.real
    return abs(u - round(u)) < 1e-9 and abs(v - round(v)) < 1e-9


_TAIL, _MAX_FACTORS = 2.0 ** -60, 10 ** 5


class _Product:
    """The triple product Phi(tau, .) of one tau, memoised by x while it lives.

    It owns q and the factors (q^n, (1-q^n)^2) for n = 1, 2, ..., extended
    when an x's tail lies past their end, and beside them the running
    minimum of |q^n|, negated so that it ascends. Phi(tau, x) stops at its
    proven tail, the first n with |q^n| < t / max(|e^x|, |e^-x|), t = 2^-60:
    it is the first n whose running minimum is below the bound, one bisect.
    |q^m| only shrinks, so every factor m >= n has |q^m e^(+-x)| <= t |q|^(m-n)
    and the dropped factors change Phi by a relative O(t/(1-|q|)), far below
    the 2^-53 relative spacing of doubles.
    """

    def __init__(self, tau: complex):
        self.tau = tau
        self._q = _check_tau(tau)
        self._factors: list[tuple[complex, complex]] = []
        self._neg_min: list[float] = []
        self._memo: dict[complex, complex] = {}

    def __call__(self, x: complex) -> complex:
        # x with a zero part is not memoised: +0.0 and -0.0 compare equal
        # but may give values that differ in the sign of a zero part
        keyed = bool(x.real and x.imag)
        if keyed and x in self._memo:
            return self._memo[x]
        ex, emx = cmath.exp(x), cmath.exp(-x)
        tail = _TAIL / max(abs(ex), abs(emx))
        factors, neg_min, q = self._factors, self._neg_min, self._q
        qn = factors[-1][0] if factors else 1 + 0j
        while not neg_min or neg_min[-1] <= -tail:
            qn *= q
            factors.append((qn, (1 - qn) ** 2))
            neg_min.append(max(neg_min[-1], -abs(qn)) if neg_min else -abs(qn))
        acc = cmath.exp(x / 2) - cmath.exp(-x / 2)
        for qn, d in islice(factors, bisect_right(neg_min, -tail)):
            acc *= (1 - qn * ex) * (1 - qn * emx) / d
        if keyed:
            self._memo[x] = acc
        return acc


def _ell(level: int, phi: _Product) -> Callable[[complex], complex]:
    """The genus of `ell_function` at level N, read from the product phi of its tau."""
    tau, shift = phi.tau, 2j * cmath.pi / level
    phi_shift = phi(-shift)

    def ell(x: complex) -> complex:
        if _on_pole_lattice(tau, x) and abs(x) > 1e-9:
            raise PoleError(f"x = {x} lies on the pole lattice")
        if abs(x) < 1e-12:
            return 1.0 + 0j
        return x * phi(x - shift) / (phi(x) * phi_shift)

    return ell


def ell_function(level: int, tau: complex) -> Callable[[complex], complex]:
    """The floating-point genus x -> x * Phi(tau, x - 2*pi*i/N) / (Phi(tau, x) Phi(tau, -2*pi*i/N)).

    One product of tau, fresh per call, serves every call of the returned
    function: Phi(tau, -2*pi*i/N) is evaluated once, and its factors are
    extended when an x's tail lies further out. Each call evaluates the two
    x-dependent products to their proven tails, and raises PoleError when x
    sits on the pole lattice (away from the removable origin).
    """
    return _ell(level, _Product(tau))


_TAYLOR_RADIUS, _TAYLOR_SAMPLES = 0.4, 64


@lru_cache(maxsize=None)
def _circle(m: int, r: float, order: int) -> tuple[
        tuple[complex, ...], tuple[tuple[complex, ...], ...], tuple[float, ...]]:
    """Sample points r e^(2 pi i j/m), twiddles e^(-2 pi i j k/m) for k <= order, and m r^k."""
    points = tuple(r * cmath.exp(2j * cmath.pi * j / m) for j in range(m))
    twiddles = tuple(tuple(cmath.exp(-2j * cmath.pi * j * k / m) for j in range(m))
                     for k in range(order + 1))
    return points, twiddles, tuple(m * r ** k for k in range(order + 1))


def numeric_taylor(fn: Callable[[complex], complex], order: int) -> list[complex]:
    """Taylor coefficients a_0..a_order of an analytic fn via a circle DFT.

    Independent finite-difference-style extraction used by the oracle:
    a_k = (1/m) sum_j fn(r e^(2 pi i j/m)) e^(-2 pi i j k/m) / r^k,
    on m = 64 points of the circle of radius r = 0.4. The points, twiddles
    and scales are built once per process and order.
    """
    r, m = _TAYLOR_RADIUS, _TAYLOR_SAMPLES
    if m <= order:
        raise ValueError("need more samples than the requested order")
    points, twiddles, scales = _circle(m, r, order)
    values = [fn(x) for x in points]
    out = []
    for row, scale in zip(twiddles, scales):
        acc = 0j
        for v, w in zip(values, row):
            acc += v * w
        out.append(acc / scale)
    return out


def series_value(f: QSeries, tau: complex) -> complex:
    """Numeric value of an eps-free exact series at q = e^(2 pi i tau).

    Each coordinate is the integer quotient c / den, rounded once, as
    float(Fraction(c, den)) is; z^t and q^n are read from tables of powers.
    """
    q = _check_tau(tau)
    z = cmath.exp(2j * cmath.pi / f.level)
    row, den = series_row(f, f.prec)
    deg = len(row) // f.prec
    zt = [z ** t for t in range(deg)]
    qn = [q ** n for n in range(f.prec)]
    return sum((c / den * zt[i % deg] * qn[i // deg] for i, c in enumerate(row) if c), 0j)
