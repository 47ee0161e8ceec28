"""Test-owned oracles: plain-Python references that share no code with finvariant.

Each function here recomputes a value the library computes another way, so a
test that compares the two checks the library against independent code. The
module imports nothing from `finvariant` (test_reference_imports_nothing_from_finvariant
pins that); a cyclotomic number enters as its (level, den, ints) coordinates,
the power-basis coordinates ints[t]/den.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import gcd

_TAIL = 2.0 ** -60


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


def to_complex(level: int, den: int, ints) -> complex:
    """Floating-point value of sum_t ints[t]/den * zeta^t, zeta = exp(2*pi*i/level)."""
    z = cmath.exp(2j * cmath.pi / level)
    acc = 0j
    zpow = 1 + 0j
    for v in ints:
        acc += v / den * zpow
        zpow *= z
    return acc


def is_n_integral(level: int, den: int, ints) -> bool:
    """True iff sum_t ints[t]/den * zeta^t lies in Z[zeta, 1/level].

    The power basis is an integral basis, so this asks whether the reduced
    denominator divides a power of level; exponent bit_length(den) covers
    every prime power dividing it.
    """
    den //= gcd(den, *ints)
    return pow(level, den.bit_length(), den) == 0


class DivergenceError(ArithmeticError):
    """Evaluation point outside the absolute-convergence region."""


def psi_numeric(level: int, tau: complex, x: complex) -> complex:
    """Direct evaluation of the coth-plus-lattice sum.

    psi(x) = coth(x/2)/2 + sum_{n>=1} [zeta^n q^n e^-x/(1-q^n e^-x)
                                       - zeta^-n q^n e^x/(1-q^n e^x)],
    absolutely convergent for |q| < min(|e^x|, |e^-x|). The sum stops at the
    first n with |q^n| max(|e^x|, |e^-x|) < t, t = 2^-60: every later term
    has both parts at most t |q|^(m-n) / (1-t), so the dropped terms sum to
    at most 2^-59 / ((1-|q|)(1-2^-60)) in absolute value.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(2j * cmath.pi * tau)
    if abs(q) >= math.exp(-abs(x.real)):
        raise DivergenceError("|q| >= min(|e^x|, |e^-x|): sum diverges")
    z = cmath.exp(2j * cmath.pi / level)
    ex, emx = cmath.exp(x), cmath.exp(-x)
    tail = _TAIL / max(abs(ex), abs(emx))
    acc = 0.5 / cmath.tanh(x / 2)
    qn = zn = 1 + 0j
    while abs(qn := qn * q) >= tail:
        zn *= z
        acc += zn * qn * emx / (1 - qn * emx)
        acc -= qn * ex / ((1 - qn * ex) * zn)
    return acc
