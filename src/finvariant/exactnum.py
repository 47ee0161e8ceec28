"""Exact scalar arithmetic: cyclotomic numbers, Bernoulli numbers, cyclotomic polynomials.

Everything here is immutable and exact. A rational scalar is an `int` or a
`fractions.Fraction`; `CycNum` is an element of Q(zeta_N) stored as integer
coordinates in the power basis 1, zeta, ..., zeta^(phi(N)-1) over one
denominator, the form a q-coefficient has inside a `QSeries`; `EpsPoly` is
the value c0 + c1*eps of a q-coefficient or xi-entry in a formal real
parameter eps, with CycNum parts and no arithmetic (eps is never given a
numeric value). `cyclotomic_poly` gives Phi_N as an integer coefficient
tuple, lowest degree first. Nothing here is floating point: the tests'
numeric oracles read a CycNum's (level, den, ints) themselves. CycNum sums run
on `_int_sum`, products on qseries' `_row_product` (imported in the call).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DataError(ValueError):
    """Input the library refuses: every refusal class derives from it; cli exits 3 on it."""


class LevelMismatchError(DataError):
    """Raised when combining cyclotomic values of different levels."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient of a positive integer: n times (1 - 1/p) over the primes p | n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _coprime_part(d: int, n: int) -> int:
    """The largest divisor of d >= 1 that is prime to n."""
    g = gcd(d, n)
    while g > 1:
        d //= g
        g = gcd(d, g)
    return d


# ---------------------------------------------------------------------------
# Bernoulli numbers


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2, so that B_2/2 = 1/12.

    Defining recurrence: sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1.
    """
    if k < 0:
        raise ValueError("bernoulli requires k >= 0")
    if k == 0:
        return _ONE
    if k > 1 and k % 2 == 1:
        return _ZERO
    acc = _ZERO
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial: integer coefficients, lowest degree first.

    For n > 1, Phi_n = prod over d | n of (1 - x^d)^mu(n/d). The product is
    taken modulo x^(phi(n)+1), where Phi_n fits whole: a factor 1 - x^d
    subtracts the row shifted up by d, its inverse adds the running row
    shifted by d.
    """
    if n < 1:
        raise ValueError("cyclotomic_poly requires n >= 1")
    if n == 1:
        return (-1, 1)
    size = euler_phi(n) + 1
    row = [1] + [0] * (size - 1)
    factors = [(n, 1)]  # (d, mu(n/d)) over the d with n/d squarefree
    for p in prime_factors(n):
        factors += [(d // p, -mu) for d, mu in factors]
    for d, mu in factors:
        if mu > 0:
            for i in range(size - 1, d - 1, -1):
                row[i] -= row[i - d]
        else:
            for i in range(d, size):
                row[i] += row[i - d]
    return tuple(row)


# ---------------------------------------------------------------------------
# Cyclotomic numbers


@lru_cache(maxsize=None)
def _zeta_powers(level: int) -> tuple[tuple[int, ...], ...]:
    """Row j: the integer power-basis coordinates of zeta^j, j = 0 .. level-1."""
    poly = cyclotomic_poly(level)
    rows = [(1,) + (0,) * (len(poly) - 2)]
    for _ in range(level - 1):
        # x * row: shift up one degree, then fold x^deg = -(lower terms) back in (monic)
        row = rows[-1]
        rows.append(tuple(s - row[-1] * c for s, c in zip((0,) + row[:-1], poly)))
    return tuple(rows)


def _fold(level: int, cols: list[Sequence[int]]) -> list[Sequence[int]]:
    """Columns s of zeta^s coordinates (one entry per value: a CycNum or a q-power) reduced
    modulo Phi_N, a +-1 entry of zeta^s (all but N = 105's 2, for N <= 120) as a row add,
    inline: through `_int_sum` the rows were identical and the series kernels 3.5-4% slower."""
    table = _zeta_powers(level)
    deg = len(table[0])
    out = cols[:deg]
    for s in range(deg, len(cols)):
        for t, r in enumerate(table[s % level]):
            if r == 1 or r == -1:
                out[t] = list(map(add if r == 1 else sub, out[t], cols[s]))
            elif r:
                out[t] = [x + r * y for x, y in zip(out[t], cols[s])]
    return out


def _int_sum(terms: Iterable[tuple[int, Sequence[int]]]) -> Optional[Sequence[int]]:
    """sum m*row over the (m, row) of terms, rows of one length (None for no terms): the one
    integer row add. A first row with m = 1 is taken as it is, a later m = +-1 is a row add."""
    acc = None
    for m, row in terms:
        if acc is None:
            acc = row if m == 1 else [m * x for x in row]
        elif m == 1 or m == -1:
            acc = list(map(add if m == 1 else sub, acc, row))
        else:
            acc = [x + m * y for x, y in zip(acc, row)]
    return acc


class CycNum:
    """Exact element of Q(zeta_level): power-basis coordinates ints[t]/den.

    The form is canonical: den > 0 and gcd(den, ints) = 1, so zero has
    den = 1. The power basis is an integral basis of the cyclotomic field,
    so membership in Z[zeta, 1/level] is a check on den alone.
    """

    __slots__ = ("level", "den", "ints")

    def __init__(self, level: int, coords: Sequence[Scalar]):
        if level < 2:
            raise ValueError("CycNum level must be >= 2")
        deg = euler_phi(level)
        if len(coords) > deg:
            raise ValueError("too many coordinates for level")
        # over the lcm of reduced denominators the row is in lowest terms
        den = lcm(*[c.denominator for c in coords])
        ints = [c.numerator * (den // c.denominator) for c in coords]
        self.level = level
        self.den = den
        self.ints = tuple(ints + [0] * (deg - len(ints)))

    @classmethod
    def _of(cls, level: int, den: int, ints: Sequence[int]) -> "CycNum":
        """The value with coordinates ints[t]/den (den > 0), put in canonical form."""
        g = gcd(den, *ints)
        z = object.__new__(cls)
        z.level = level
        z.den = den // g
        z.ints = tuple(ints) if g == 1 else tuple(x // g for x in ints)
        return z

    @classmethod
    def from_rational(cls, level: int, value: Scalar) -> "CycNum":
        """CycNum(level, (value,)), built in canonical form: a Scalar is in lowest terms."""
        if level < 2:
            raise ValueError("CycNum level must be >= 2")
        z = object.__new__(cls)
        z.level = level
        z.den = value.denominator
        z.ints = (value.numerator,) + (0,) * (euler_phi(level) - 1)
        return z

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "CycNum":
        return cls(level, _zeta_powers(level)[power % level])

    @classmethod
    def zero(cls, level: int) -> "CycNum":
        return cls(level, ())

    @classmethod
    def one(cls, level: int) -> "CycNum":
        return cls(level, (1,))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions, built on demand."""
        return tuple(Fraction(v, self.den) if v else _ZERO for v in self.ints)

    def _coerce(self, other) -> "CycNum":
        """other as a CycNum of this level, or NotImplemented for a type it cannot take."""
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.level, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatchError(f"level mismatch: {self.level} vs {other.level}")
        return other

    def __bool__(self) -> bool:
        return any(self.ints)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(self.level, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (self.level == other.level and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.level, self.den, self.ints))

    def _sum(self, other, sign: int, other_sign: int) -> "CycNum":
        """sign*self + other_sign*other over the lcm of the two denominators."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        den = lcm(self.den, o.den)
        return CycNum._of(self.level, den, _int_sum(((sign * (den // self.den), self.ints),
                                                     (other_sign * (den // o.den), o.ints))))

    def __add__(self, other: Union["CycNum", Scalar]) -> "CycNum":
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["CycNum", Scalar]) -> "CycNum":
        return self._sum(other, 1, -1)

    def __rsub__(self, other: Scalar) -> "CycNum":
        return self._sum(other, -1, 1)

    def __neg__(self) -> "CycNum":
        return CycNum._of(self.level, self.den, [-x for x in self.ints])

    def __mul__(self, other: Union["CycNum", Scalar]) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            return CycNum._of(self.level, self.den * other.denominator,
                              _int_sum(((other.numerator, self.ints),)))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        from .qseries import _row_product  # qseries builds on this module
        prod = _row_product(self.level, 1, (self.ints,), (o.ints,))[0]
        return CycNum._of(self.level, self.den * o.den, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Field inverse: den times the other Galois conjugates of ints, over their norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        num = CycNum._of(self.level, 1, self.ints)
        conjugates = [num.galois(j) for j in range(2, self.level) if gcd(j, self.level) == 1]
        others = reduce(mul, conjugates) if conjugates else CycNum.one(self.level)
        return others * Fraction(self.den, (num * others).ints[0])

    def __truediv__(self, other: Union["CycNum", Scalar]) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)  # raises for 0
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> "CycNum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return CycNum.from_rational(self.level, other) / self

    def galois(self, j: int) -> "CycNum":
        """Apply the Galois automorphism zeta -> zeta^j (requires gcd(j, level) = 1)."""
        if gcd(j, self.level) != 1:
            raise ValueError("galois exponent must be prime to the level")
        at = {i * j % self.level: c for i, c in enumerate(self.ints)}  # one power each
        cols = _fold(self.level, [[at.get(s, 0)] for s in range(self.level)])
        return CycNum._of(self.level, self.den, [c for c, in cols])

    def rational_part(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.ints[1:]):
            return None
        return Fraction(self.ints[0], self.den)

    def __repr__(self) -> str:
        return f"CycNum({self.level}, {[str(c) for c in self.coords]})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Values linear in the formal parameter eps


class EpsPoly:
    """The value c0 + c1*eps of a q-coefficient or xi-entry, CycNum parts c_j.

    eps stands for an arbitrary real in (0,1); it is never evaluated, and a
    value is only built, compared and printed: all arithmetic runs on the
    integer rows of a QSeries, which holds at most an eps^1 part.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[CycNum]):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        for c in cs:
            if c.level != level:
                raise LevelMismatchError("eps coefficient level mismatch")
        self.level = level
        self.coeffs: tuple[CycNum, ...] = tuple(cs)

    @classmethod
    def _of(cls, level: int, coeffs: tuple[CycNum, ...]) -> "EpsPoly":
        """The value of coeffs, CycNums of this level with a nonzero last entry."""
        v = object.__new__(cls)
        v.level = level
        v.coeffs = coeffs
        return v

    @classmethod
    def rational(cls, level: int, value: Scalar) -> "EpsPoly":
        c = CycNum.from_rational(level, value)
        return cls._of(level, (c,) if value else ())

    @classmethod
    def linear(cls, level: int, const: Scalar, eps_coeff: Scalar) -> "EpsPoly":
        """const + eps_coeff * eps with rational inputs, trailing zero parts dropped."""
        c, e = CycNum.from_rational(level, const), CycNum.from_rational(level, eps_coeff)
        return cls._of(level, (c, e) if eps_coeff else (c,) if const else ())

    def coefficient(self, j: int) -> CycNum:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return CycNum.zero(self.level)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsPoly):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"EpsPoly({self.level}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        parts = [str(c) if j == 0 else f"({c})*eps" + (f"^{j}" if j > 1 else "")
                 for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) or "0"
