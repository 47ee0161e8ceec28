"""Truncated q-power series over EpsPoly coefficients.

A QSeries stores the coefficients of q^0 .. q^(prec-1) exactly. Arithmetic
between series requires equal level and truncates to the smaller precision;
equality is coefficientwise up to the shared precision.

The hot loops run in integers. Each eps-part of a coefficient list is
split into integer power-basis rows over one common denominator
(`_int_parts`); the series product multiplies two such parts by Kronecker
substitution (one big-int product of the packed bivariate (q, zeta)
polynomials, see Harvey, JSC 2009), `divisor_sum` sieves the rows with
integer twist vectors, and the sum kernel `_linear_combination` adds
rational (eps-polynomial) multiples of series as integer rows; +, -,
rational scalar multiples and certificate replay are calls of it.
Fractions are built once per output coordinate (`_from_int_parts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul
from typing import Callable, Optional, Sequence

from .exactnum import (_ZERO, CycNum, EpsPoly, LevelMismatchError, Scalar, _reduction_table,
                       _zeta_power_coords, euler_phi)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def sigma(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over d | n."""
    return sum(d ** k for d in divisors(n))


def _as_eps(level: int, c) -> EpsPoly:
    """A rational, CycNum or EpsPoly as an EpsPoly of the given level."""
    if isinstance(c, (int, Fraction)):
        return EpsPoly.rational(level, c)
    if isinstance(c, CycNum):
        return EpsPoly.constant(c)
    return c


class QSeries:
    """Truncated q-expansion with EpsPoly coefficients sharing one level."""

    __slots__ = ("level", "prec", "coeffs")

    def __init__(self, level: int, prec: int, coeffs: Sequence[EpsPoly]):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        cs = list(coeffs)
        if len(cs) > prec:
            cs = cs[:prec]
        zero = EpsPoly.zero(level)
        while len(cs) < prec:
            cs.append(zero)
        for c in cs:
            if c.level != level:
                raise LevelMismatchError("series coefficient level mismatch")
        self.level = level
        self.prec = prec
        self.coeffs: tuple[EpsPoly, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec, ())

    @classmethod
    def one(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec, (EpsPoly.rational(level, 1),))

    @classmethod
    def from_rationals(cls, level: int, prec: int,
                       values: Sequence[Scalar]) -> "QSeries":
        return cls(level, prec,
                   tuple(EpsPoly.rational(level, v) for v in values))

    # -- structure ---------------------------------------------------------

    def coefficient(self, n: int) -> EpsPoly:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient q^{n} beyond precision {self.prec}")
        return self.coeffs[n]

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        return QSeries(self.level, prec, self.coeffs[:prec])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def eps_degree(self) -> int:
        """Largest eps-degree over all coefficients (-1 for the zero series)."""
        return max((c.eps_degree for c in self.coeffs), default=-1)

    def is_eps_free(self) -> bool:
        return all(c.is_eps_free() for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.level != other.level:
            return False
        p = min(self.prec, other.prec)
        return self.coeffs[:p] == other.coeffs[:p]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            if other.level != self.level:
                raise LevelMismatchError("series level mismatch")
            return other
        if isinstance(other, (int, Fraction, CycNum, EpsPoly)):
            return QSeries(self.level, self.prec, (_as_eps(self.level, other),))
        raise TypeError(f"cannot combine QSeries with {type(other)!r}")

    def __add__(self, other) -> "QSeries":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "QSeries":
        """self + sign*other through the integer sum kernel."""
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        return QSeries(self.level, p, _linear_combination(
            self.level, p, (((1,), self.coeffs), ((sign,), o.coeffs))))

    def __rsub__(self, other) -> "QSeries":
        return self._coerce(other) - self

    def __neg__(self) -> "QSeries":
        return QSeries(self.level, self.prec, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries(self.level, self.prec,
                           _linear_combination(self.level, self.prec, (((other,), self.coeffs),)))
        if isinstance(other, (CycNum, EpsPoly)):
            factor = _as_eps(self.level, other)
            return QSeries(self.level, self.prec,
                           tuple(c * factor for c in self.coeffs))
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        return QSeries(self.level, p,
                       _series_product(self.level, p, self.coeffs[:p], o.coeffs[:p]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QSeries":
        if exponent < 0:
            raise ValueError("negative series powers not supported")
        acc = QSeries.one(self.level, self.prec)
        for _ in range(exponent):
            acc = acc * self
        return acc

    def shift(self, offset: int) -> "QSeries":
        """Multiply by q^offset, truncating at the same precision."""
        if offset < 0:
            raise ValueError("negative shifts not supported")
        zero = EpsPoly.zero(self.level)
        return QSeries(self.level, self.prec,
                       (zero,) * offset + self.coeffs[: self.prec - offset])

    def __repr__(self) -> str:
        return f"QSeries(level={self.level}, prec={self.prec})"

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c:
                body = str(c)
                parts.append(body if n == 0 else f"({body})*q^{n}")
        return " + ".join(parts) if parts else "0"


class EpsPartError(ValueError):
    """Raised when an operation requires an eps-free series."""


@dataclass(frozen=True)
class IntegralityReport:
    integral: bool
    first_failure: Optional[int]

    def __bool__(self) -> bool:
        return self.integral


def relative_integrality_check(f: QSeries) -> IntegralityReport:
    """Coefficientwise Z[zeta,1/N]-integrality with the first failure reported."""
    if not f.is_eps_free():
        raise EpsPartError("integrality undefined for series with eps-part")
    for n, c in enumerate(f.coeffs):
        if not c.constant_part().is_n_integral():
            return IntegralityReport(False, n)
    return IntegralityReport(True, None)


def is_integral_series(f: QSeries) -> bool:
    """True iff every coefficient lies in Z[zeta, 1/level]."""
    return relative_integrality_check(f).integral


def eps_split(f: QSeries) -> list[QSeries]:
    """Write f = sum_j eps^j * result[j] with eps-free results.

    The list has length eps_degree + 1 (a single entry for eps-free input).
    """
    top = max(f.eps_degree(), 0)
    out = []
    for j in range(top + 1):
        out.append(QSeries(
            f.level, f.prec,
            tuple(EpsPoly.constant(c.coefficient(j)) for c in f.coeffs)))
    return out


# ---------------------------------------------------------------------------
# Integer kernels


IntRows = list[list[int]]


def _int_parts(coeffs: Sequence[Optional[EpsPoly]], deg: int) -> tuple[list[IntRows], int]:
    """Coefficients (None for zero) as integer rows per eps part over one denominator.

    Returns (parts, den): parts[e][n][t] is den times coordinate t of the
    eps^e coefficient of coeffs[n], and den is the least common denominator
    of all coordinates.
    """
    top = max((len(c.coeffs) for c in coeffs if c), default=0)
    den = lcm(*(x.denominator for c in coeffs if c for y in c.coeffs for x in y.coords))
    zero = [0] * deg
    return [[[x.numerator * (den // x.denominator) for x in c.coeffs[e].coords]
             if c and e < len(c.coeffs) else zero for c in coeffs]
            for e in range(top)], den


def _from_int_parts(level: int, parts: Sequence[IntRows], den: int,
                    count: int) -> tuple[EpsPoly, ...]:
    """The first count coefficients sum_e eps^e * parts[e][n] / den."""
    return tuple(
        EpsPoly(level, tuple(
            CycNum(level, [Fraction(v, den) if v else _ZERO for v in rows[n]])
            for rows in parts))
        for n in range(count))


def _linear_combination(level: int, prec: int,
                        terms: Sequence[tuple[Sequence[Scalar], Sequence[EpsPoly]]]
                        ) -> tuple[EpsPoly, ...]:
    """Coefficients of sum (s_0 + s_1*eps + ...) * coeffs to O(q^prec), in integers.

    Each term pairs rational scalars s_j, one per eps degree, with a
    coefficient sequence of length >= prec. Every term's rows are scaled to
    one common denominator and summed as integers.
    """
    deg = euler_phi(level)
    scaled = []
    for scalars, coeffs in terms:
        parts, den = _int_parts(coeffs[:prec], deg)
        if parts:
            scaled.append(([Fraction(s) for s in scalars], parts, den))
    total = lcm(*(den * s.denominator for scalars, _, den in scaled for s in scalars if s))
    top = max((len(scalars) + len(parts) - 1 for scalars, parts, _ in scaled), default=0)
    sums = [[0] * (prec * deg) for _ in range(top)]
    for scalars, parts, den in scaled:
        for i, s in enumerate(scalars):
            if s:
                m = s.numerator * (total // (den * s.denominator))
                for e, rows in enumerate(parts):
                    sums[i + e] = list(map(add, sums[i + e], [m * x for row in rows for x in row]))
    return _from_int_parts(level, [[flat[n * deg:(n + 1) * deg] for n in range(prec)]
                                   for flat in sums], total, prec)


def _pack(rows: IntRows, stride: int, width: int) -> int:
    """Signed rows as one int: entry t of row n in slot n*stride + t, width bytes a slot."""
    half = 1 << (8 * width - 1)
    pad = half.to_bytes(width, "little") * (stride - len(rows[0]))
    packed = b"".join(b"".join((v + half).to_bytes(width, "little") for v in row) + pad
                      for row in rows)
    return int.from_bytes(packed, "little") - _slot_offset(width, len(rows) * stride)


def _unpack(z: int, count: int, width: int) -> list[int]:
    """The low count slots of z as balanced (signed) digits, width bytes a slot."""
    half = 1 << (8 * width - 1)
    shifted = (z + _slot_offset(width, count)) & ((1 << (8 * width * count)) - 1)
    raw = shifted.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _slot_offset(width: int, count: int) -> int:
    """Half the slot range in each of count slots: shifts balanced digits to unsigned."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _series_product(level: int, prec: int, a: Sequence[EpsPoly],
                    b: Sequence[EpsPoly]) -> tuple[EpsPoly, ...]:
    """Coefficients of a*b to O(q^prec) by Kronecker substitution.

    Each eps part of a factor is packed into one int with 2*deg-1 slots per
    q-power, so the zeta-degree of a product term stays inside its q-power;
    eps part k of the product is the sum of the big-int products of parts i
    and k-i. Its slots are unpacked and reduced modulo the cyclotomic
    polynomial column by column.
    """
    deg = euler_phi(level)
    stride = 2 * deg - 1
    (parts_a, den_a), (parts_b, den_b) = _int_parts(a, deg), _int_parts(b, deg)
    if not parts_a or not parts_b:
        return _from_int_parts(level, (), 1, prec)
    big_a = max(abs(v) for rows in parts_a for row in rows for v in row)
    big_b = max(abs(v) for rows in parts_b for row in rows for v in row)
    terms = min(len(parts_a), len(parts_b)) * prec * deg
    width = (big_a.bit_length() + big_b.bit_length() + terms.bit_length() + 2 + 7) // 8
    packed_a = [_pack(rows, stride, width) for rows in parts_a]
    packed_b = [_pack(rows, stride, width) for rows in parts_b]
    out = []
    for k in range(len(parts_a) + len(parts_b) - 1):
        z = sum(packed_a[i] * packed_b[k - i]
                for i in range(max(0, k - len(parts_b) + 1), min(k, len(parts_a) - 1) + 1))
        digits = _unpack(z, prec * stride, width)
        # column s holds the zeta^s coordinate of every q-power; fold s >= deg down
        cols = [digits[s::stride] for s in range(stride)]
        for high, red in zip(cols[deg:], _reduction_table(level)):
            for t, r in enumerate(red):
                if r:
                    cols[t] = [x + r * y for x, y in zip(cols[t], high)]
        out.append([list(row) for row in zip(*cols[:deg])])
    return _from_int_parts(level, out, den_a * den_b, prec)


@lru_cache(maxsize=None)
def _twist_matrices(level: int, minus: int,
                    plus: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Multiplication by minus*zeta^(-j) + plus*zeta^j for j = 0 .. level-1, in integers.

    Entry j holds one column per output coordinate t: column t, row i is
    coordinate t of minus*zeta^(i-j) + plus*zeta^(i+j).
    """
    deg = euler_phi(level)
    matrices = []
    for j in range(level):
        rows = [[int(minus * x + plus * y) for x, y in zip(_zeta_power_coords(level, i - j),
                                                           _zeta_power_coords(level, i + j))]
                for i in range(deg)]
        matrices.append(tuple(zip(*rows)))
    return tuple(matrices)


def divisor_sum(level: int, prec: int, coeff: Callable[[int], object],
                minus: int = 0, plus: int = 0) -> QSeries:
    """The sieve sum_{n>=1} sum_{d*j=n} coeff(d) (minus*zeta^(-j) + plus*zeta^j) q^n.

    coeff(d) is a rational, CycNum or EpsPoly; the weight is 1 when
    minus = plus = 0. g_hat and the four assembly formulas are calls of it.
    coeff is evaluated once per d; each product coeff(d)*weight(j) is taken
    once per residue of j mod level, in integers.
    """
    values: list[Optional[EpsPoly]] = [None]
    for d in range(1, prec):
        c = coeff(d)
        if c:
            c = _as_eps(level, c)
            if c.level != level:
                raise LevelMismatchError("series coefficient level mismatch")
        values.append(c or None)
    deg = euler_phi(level)
    twists = _twist_matrices(level, minus, plus) if minus or plus else None
    parts, den = _int_parts(values, deg)
    sums = []
    for rows in parts:
        acc = [[0] * deg for _ in range(prec)]
        for d in range(1, prec):
            row = rows[d]
            if not any(row):
                continue
            top = (prec - 1) // d
            terms = [row] * level
            if twists is not None:
                for j in range(1, min(top, level) + 1):
                    terms[j % level] = [sum(map(mul, row, col)) for col in twists[j % level]]
            for j in range(1, top + 1):
                acc[d * j] = list(map(add, acc[d * j], terms[j % level]))
        sums.append(acc)
    return QSeries(level, prec, _from_int_parts(level, sums, den, prec))


def divisor_weighted_series(level: int, prec: int, weight: int,
                            sign: int) -> QSeries:
    """The double divisor sum sum_{n>=1} sum_{d|n} (zeta^(-n/d) + sign*zeta^(n/d)) d^(weight-1) q^n."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return divisor_sum(level, prec, lambda d: d ** (weight - 1), minus=1, plus=sign)
