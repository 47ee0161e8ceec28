"""Truncated q-power series over EpsPoly coefficients.

A QSeries stores the coefficients of q^0 .. q^(prec-1) exactly. Arithmetic
between series requires equal level and truncates to the smaller precision;
equality is coefficientwise up to the shared precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .exactnum import CycNum, EpsPoly, LevelMismatchError, Scalar


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
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        return QSeries(self.level, p,
                       tuple(a + b for a, b in zip(self.coeffs[:p], o.coeffs[:p])))

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        return QSeries(self.level, p,
                       tuple(a - b for a, b in zip(self.coeffs[:p], o.coeffs[:p])))

    def __rsub__(self, other) -> "QSeries":
        return self._coerce(other) - self

    def __neg__(self) -> "QSeries":
        return QSeries(self.level, self.prec, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, CycNum, EpsPoly)):
            factor = _as_eps(self.level, other)
            return QSeries(self.level, self.prec,
                           tuple(c * factor for c in self.coeffs))
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        zero = EpsPoly.zero(self.level)
        out = [zero] * p
        for i in range(p):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(p - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return QSeries(self.level, p, tuple(out))

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


@lru_cache(maxsize=None)
def _twist_weights(level: int, minus: int, plus: int) -> tuple[CycNum, ...]:
    """minus*zeta^(-j) + plus*zeta^j for j = 0 .. level-1."""
    return tuple(CycNum.zeta(level, -j) * minus + CycNum.zeta(level, j) * plus
                 for j in range(level))


def divisor_sum(level: int, prec: int, coeff: Callable[[int], object],
                minus: int = 0, plus: int = 0) -> QSeries:
    """The sieve sum_{n>=1} sum_{d*j=n} coeff(d) (minus*zeta^(-j) + plus*zeta^j) q^n.

    coeff(d) is a rational, CycNum or EpsPoly; the weight is 1 when
    minus = plus = 0. g_hat and the four assembly formulas are calls of it.
    """
    weights = _twist_weights(level, minus, plus) if minus or plus else None
    out: list = [None] * prec
    for d in range(1, prec):
        c = coeff(d)
        if not c:
            continue
        for n in range(d, prec, d):
            t = c if weights is None else c * weights[n // d % level]
            out[n] = t if out[n] is None else out[n] + t
    zero = EpsPoly.zero(level)
    return QSeries(level, prec, tuple(zero if t is None else _as_eps(level, t)
                                      for t in out))


def divisor_weighted_series(level: int, prec: int, weight: int,
                            sign: int) -> QSeries:
    """The double divisor sum sum_{n>=1} sum_{d|n} (zeta^(-n/d) + sign*zeta^(n/d)) d^(weight-1) q^n."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return divisor_sum(level, prec, lambda d: d ** (weight - 1), minus=1, plus=sign)
