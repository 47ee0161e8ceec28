"""Test-owned oracles: plain-Python references that share no code with finvariant.

Each function here recomputes a value the library computes another way, so a
test that compares the two checks the library against independent code. The
module imports nothing from `finvariant`, and no other test module defines a
function of the same name (test_reference.py pins both). Values are plain
integers and Fractions:
- a cyclotomic number at level N is its power-basis coordinates, phi(N) of
  them, or (level, den, ints) with coordinates ints[t]/den;
- a series is its rows (den, parts), the form a QSeries stores: parts[e][n*phi(N) + t]
  is den times coordinate t of the eps^e part of the q^n coefficient, and the
  functions that return rows return them canonical (`canonical`), so they
  compare equal to a series' (den, parts) exactly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

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


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic on coordinate lists


def convolve(a, b, size: int | None = None) -> list:
    """The product of polynomials a and b, coefficients lowest first; its first
    `size` coefficients when size is given."""
    size = len(a) + len(b) - 1 if size is None else size
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest first: x^n - 1 divided by Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        divisor, quotient = cyclotomic(d), []
        while len(poly) >= len(divisor):  # Phi_d is monic
            lead = poly.pop()
            quotient.append(lead)
            shift = len(poly) + 1 - len(divisor)
            for i, c in enumerate(divisor[:-1]):
                poly[shift + i] -= lead * c
        assert not any(poly), f"Phi_{d} leaves a remainder in x^{n} - 1"
        poly = quotient[::-1]
    return tuple(poly)


def phi(level: int) -> int:
    """The degree of Phi_level: the number of power-basis coordinates at that level."""
    return len(cyclotomic(level)) - 1


def cyc_reduce(level: int, poly) -> tuple:
    """poly(zeta) in the power basis: poly's coefficients, lowest first, reduced mod Phi_level."""
    modulus = cyclotomic(level)
    deg = len(modulus) - 1
    v = list(poly) + [0] * (deg - len(poly))
    for s in range(len(v) - 1, deg - 1, -1):
        if c := v[s]:
            for i, m in enumerate(modulus):
                v[s - deg + i] -= c * m
    return tuple(v[:deg])


def cyc_mul(level: int, a, b) -> tuple:
    """The product of two cyclotomic numbers: the schoolbook product reduced modulo Phi_level."""
    return cyc_reduce(level, convolve(a, b))


def cyc_galois(level: int, a, j: int) -> tuple:
    """The image of a under zeta -> zeta^j."""
    poly = [0] * level
    for i, x in enumerate(a):
        poly[i * j % level] += x
    return cyc_reduce(level, poly)


def cyc_inverse(level: int, a) -> tuple:
    """1/a for a nonzero a: the product of its other Galois conjugates over the norm."""
    others = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for j in range(2, level):
        if gcd(j, level) == 1:
            others = cyc_mul(level, others, cyc_galois(level, a, j))
    norm = cyc_mul(level, a, others)
    assert not any(norm[1:])
    return tuple(x / norm[0] for x in others)


# ---------------------------------------------------------------------------
# Series as integer rows (den, parts)


def canonical(den: int, parts) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rows over den in lowest terms, trailing zero parts dropped: the form a series stores."""
    g = gcd(den, *chain.from_iterable(parts))
    rows = [tuple(p) if g == 1 else tuple(x // g for x in p) for p in parts]
    while rows and not any(rows[-1]):
        rows.pop()
    return den // g, tuple(rows)


def series_rows(level: int, prec: int, values):
    """The rows of sum_n values[n] q^n to O(q^prec): values past prec dropped, missing ones 0.

    A value is a rational or a list of eps parts, each a list of rational
    power-basis coordinates (missing coordinates are 0).
    """
    deg = phi(level)
    values = [[[v]] if isinstance(v, (int, Fraction)) else v for v in values[:prec]]
    den = lcm(1, *(Fraction(x).denominator for v in values for p in v for x in p))
    parts = [[0] * (prec * deg) for _ in range(max(map(len, values), default=0))]
    for n, v in enumerate(values):
        for e, p in enumerate(v):
            for t, x in enumerate(map(Fraction, p)):
                parts[e][n * deg + t] = x.numerator * (den // x.denominator)
    return canonical(den, parts)


def row_sum(size: int, terms):
    """The rows of sum s * series over the (s, (den, parts)) terms, each part cut to size ints."""
    terms = [(Fraction(s), den, parts) for s, (den, parts) in terms if s]
    total = lcm(1, *(den * s.denominator for s, den, _ in terms))
    out = [[0] * size for _ in range(max((len(p) for _, _, p in terms), default=0))]
    for s, den, parts in terms:
        m = s.numerator * (total // (den * s.denominator))
        for e, p in enumerate(parts):
            out[e] = [x + m * y for x, y in zip(out[e], p[:size])]
    return canonical(total, out)


def series_product(level: int, prec: int, a, b):
    """The rows of a*b to O(q^prec); an eps^2 part is kept.

    For each pair of eps parts, the zeta-polynomials of q^i and q^(n-i) are
    convolved, summed over i and reduced modulo Phi_level.
    """
    deg = phi(level)
    (den_a, parts_a), (den_b, parts_b) = a, b
    out = [[0] * (prec * deg) for _ in range(len(parts_a) + len(parts_b) - 1)]
    for e, x in enumerate(parts_a):
        for f, y in enumerate(parts_b):
            for n in range(prec):
                slots = [0] * (2 * deg - 1)
                for i in range(n + 1):
                    for k, c in enumerate(convolve(x[i * deg:(i + 1) * deg],
                                                   y[(n - i) * deg:(n - i + 1) * deg])):
                        slots[k] += c
                for t, c in enumerate(cyc_reduce(level, slots)):
                    out[e + f][n * deg + t] += c
    return canonical(den_a * den_b, out)


def twisted_divisor_sum(level: int, series, minus: int = 0, plus: int = 0):
    """The rows of sum_{n>=1} sum_{d | n} c(d) w(n/d) q^n, w(j) = minus*zeta^(-j) + plus*zeta^j.

    series is sum_d c(d) q^d (its q^0 term unread) and sets the precision;
    the weight is 1 when minus = plus = 0. Each pair d*j = n comes from
    divisors(n): coordinate t of c(d) goes to zeta-slot t - j times minus and
    slot t + j times plus (slot t when unweighted), and the N slots of each
    q^n are reduced modulo Phi_level.
    """
    deg = phi(level)
    den, parts = series
    out = []
    for part in parts:
        prec = len(part) // deg
        row = [0] * len(part)
        for n in range(1, prec):
            slots = [0] * level
            for d in divisors(n):
                j = n // d
                for t, c in enumerate(part[d * deg:(d + 1) * deg]):
                    if not c:
                        continue
                    if minus or plus:
                        slots[(t - j) % level] += minus * c
                        slots[(t + j) % level] += plus * c
                    else:
                        slots[t] += c
            row[n * deg:(n + 1) * deg] = cyc_reduce(level, slots)
        out.append(row)
    return canonical(den, out)


# ---------------------------------------------------------------------------
# Integer matrices and bases


def mat_mul(A, B) -> list[list]:
    """The matrix product A*B; B has len(A[0]) rows, and A*B as many columns as B's rows have."""
    width = len(B[0]) if B else 0
    return [[sum(row[k] * B[k][j] for k in range(len(B))) for j in range(width)] for row in A]


def _echelon(M) -> tuple[list[list[Fraction]], int]:
    """(rows, sign): the nonzero rows of a row echelon form of M, by Fraction
    elimination with row swaps, and the sign of those swaps."""
    m = [[Fraction(x) for x in row] for row in M]
    rank, sign = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for r in range(rank + 1, len(m)):
            if f := m[r][c] / m[rank][c]:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return m[:rank], sign


def rank(M) -> int:
    """The rank of a matrix given as rows."""
    return len(_echelon(M)[0])


def det(M) -> Fraction:
    """The determinant of a square matrix: the signed product of its echelon pivots."""
    rows, sign = _echelon(M)
    if len(rows) < len(M):
        return Fraction(0)
    return sign * math.prod((row[i] for i, row in enumerate(rows)), start=Fraction(1))


def is_hnf(H) -> bool:
    """True iff H is in column-style Hermite normal form.

    The nonzero columns come first; the pivot of each (its first nonzero
    row) is positive and lies below the previous pivot; in a pivot's row the
    entries to its right are zero and those to its left lie in [0, pivot).
    """
    ncols = len(H[0]) if H else 0
    last, seen_zero = -1, False
    for j in range(ncols):
        rows = [i for i in range(len(H)) if H[i][j]]
        if not rows:
            seen_zero = True
            continue
        r = rows[0]
        pivot = H[r][j]
        if seen_zero or r <= last or pivot <= 0:
            return False
        if any(H[r][k] for k in range(j + 1, ncols)):
            return False
        if not all(0 <= H[r][k] < pivot for k in range(j)):
            return False
        last = r
    return True


def dims(basis) -> dict[int, int]:
    """The number of entries of each weight 0..basis.maxweight in basis.entries."""
    return {w: sum(e.weight == w for e in basis.entries) for w in range(basis.maxweight + 1)}
