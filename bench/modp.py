"""Exact output checks by reduction modulo a prime.

Z[zeta_N, 1/D] maps into the field F_p by sending zeta_N to a primitive N-th
root of unity r mod p, for any prime p = 1 mod N that divides no denominator.
The map is a ring homomorphism, so every identity of series or cyclotomic
numbers survives it. The checks below recompute expected coefficients from
their defining formulas in F_p, with their own divisor sums, Bernoulli
numbers and convolutions, and so share no code with the library they check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# A 61-bit prime with p = 1 mod 2520, so F_p holds the N-th roots of unity
# for every N dividing 2520 (all levels the benchmark uses).
PRIME = 2305843009213700881


def _prime_divisors(n: int) -> list[int]:
    out, m, q = [], n, 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def root(level: int) -> int:
    """A primitive level-th root of unity in F_p."""
    if (PRIME - 1) % level:
        raise ValueError(f"F_p holds no primitive {level}-th root of unity")
    for g in range(2, 1000):
        r = pow(g, (PRIME - 1) // level, PRIME)
        if all(pow(r, level // q, PRIME) != 1 for q in _prime_divisors(level)):
            return r
    raise ValueError(f"no primitive {level}-th root found")


def rat(x: Fraction | int) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def zeta(level: int, j: int) -> int:
    return pow(root(level), j % level, PRIME)


def cyc(level: int, coords) -> int:
    """Image of a power-basis coordinate vector."""
    r = root(level)
    acc, rp = 0, 1
    for c in coords:
        acc = (acc + rat(c) * rp) % PRIME
        rp = rp * r % PRIME
    return acc


def coefficient_parts(series, n: int) -> tuple[tuple, tuple]:
    """Power-basis coordinates (eps^0 part, eps^1 part) of q^n in a library series.

    This is the one place that reads the library's coefficient objects.
    """
    c = series.coefficient(n)
    return tuple(c.coefficient(0).coords), tuple(c.coefficient(1).coords)


def image(series) -> tuple[list[int], list[int]]:
    """Images of the eps^0 and eps^1 parts of every coefficient."""
    level = series.level
    const, eps = [], []
    for n in range(series.prec):
        c0, c1 = coefficient_parts(series, n)
        const.append(cyc(level, c0))
        eps.append(cyc(level, c1))
    return const, eps


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, from the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0] if k != 1 else Fraction(-1, 2)


def ghat(level: int, k: int, prec: int, tilde: bool = False) -> list[int]:
    """Images of the coefficients of G_hat_k (or G_tilde_k) from the defining sum."""
    sign = 1 if k % 2 == 0 else -1
    if tilde:
        c0 = 0
    elif k == 1:
        r = root(level)
        c0 = (rat(Fraction(1, 2)) + r * pow(1 - r, -1, PRIME)) % PRIME
    else:
        c0 = rat(bernoulli(k) / k)
    out = [c0]
    for n in range(1, prec):
        acc = 0
        for d in divisors(n):
            j = n // d
            acc += (zeta(level, -j) + sign * zeta(level, j)) * pow(d, k - 1, PRIME)
        out.append(-acc % PRIME)
    return out


def convolve(a: list[int], b: list[int]) -> list[int]:
    p = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) % PRIME for n in range(p)]


def sigma(n: int, k: int) -> int:
    return sum(d ** k for d in divisors(n))


def is_n_integral(level: int, rows) -> bool:
    """Every coordinate has a denominator built from primes dividing the level."""
    primes = _prime_divisors(level)
    for row in rows:
        for x in row:
            den = Fraction(x).denominator
            for q in primes:
                while den % q == 0:
                    den //= q
            if den != 1:
                return False
    return True
