"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime budget is pinned here. Where a criterion needs a
second route, its independent oracle (the determinant, the matrix product and
the Hermite-form shape check) comes from reference.py, or is a numeric sample
inline, so the criteria never test the library against itself.
"""

import math
import random
import time
from fractions import Fraction

from conftest import random_cyc, random_integral_series, random_series
from finvariant.divcong import hnf, is_equivalent, make_lattice
from finvariant.exactnum import CycNum, EpsPoly
from finvariant.fassembly import (COMPLEX_FULL, COMPLEX_POSITIVE,
                                  QUATERNIONIC_KERNEL_PARITY, XiTable,
                                  assemble_complex, assemble_complex_reduced,
                                  assemble_quaternionic_reduced)
from finvariant.genus import (ell_expansion, ell_function, ell_quaternionic,
                              g2, g_tilde, g_tilde_level1, numeric_taylor,
                              series_value)
from finvariant.geometry import (adams_psi_poly, chebyshev,
                                 chern_simons_volume_coefficients, circle_xi,
                                 cs_integral, ext_d, ExtForm, su3_dim,
                                 su3_kernel_parity,
                                 su3_psi_twist_kernel_parity)
from finvariant.qseries import QSeries, is_integral_series
from reference import det, is_hnf, mat_mul


def _report(name: str, passed: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{name} {status} ({elapsed:.2f}s < {budget:g}s)")
    assert passed, f"{name} assertion failed"
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_a1_numeric_genus_oracle():
    """A1: Taylor coefficients of the numeric genus match the exact q-sums."""
    start = time.perf_counter()
    worst = 0.0
    for level in (2, 3):
        exp = ell_expansion(level, 6, 60)
        for tau in (0.31j, 0.05 + 0.4j):
            taylor = numeric_taylor(ell_function(level, tau), 6)
            for k in range(1, 7):
                exact = series_value(exp.x_coefficient(k), tau)
                worst = max(worst, abs(taylor[k] - exact))
    _report("A1", worst < 1e-8, time.perf_counter() - start, 5.0)


def test_a2_g2_congruence():
    """A2: g2 - 1/12 expands integrally to q^50 at levels 2, 3, 5, 6."""
    start = time.perf_counter()
    ok = all(is_integral_series(g2(level, 50) - Fraction(1, 12))
             for level in (2, 3, 5, 6))
    _report("A2", ok, time.perf_counter() - start, 1.0)


def test_a2b_level_collapse():
    """A2b: quaternionic entry 1 equals -(1/240 + sum sigma_3(n) q^n) exactly."""
    start = time.perf_counter()
    ok = True
    for level in (2, 3):
        entry1 = ell_quaternionic(level, 1, 30)[1]
        target = -(g_tilde_level1(level, 4, 30) + Fraction(1, 240))
        ok = ok and entry1 == target
    _report("A2b", ok, time.perf_counter() - start, 1.0)


def test_a3_circle_example():
    """A3: the circle assembly is equivalent to half the weight-one series,
    with the eps-part consumed exactly by the weight-two direction."""
    start = time.perf_counter()
    prec = 20
    entries = {d: circle_xi(3, d) for d in range(1, prec)}
    assembled = assemble_complex_reduced(
        XiTable(COMPLEX_POSITIVE, 3, 1, entries), prec)
    reference = g_tilde(3, 1, prec) * Fraction(1, 2)
    lattice = make_lattice(3, 2, prec, gtilde=g_tilde(3, 2, prec))
    res = is_equivalent(assembled.series, reference, lattice)
    ok = (res.equivalent
          and res.certificate.gtilde_eps_coeff == 1
          and res.certificate.replay(lattice) == assembled.series - reference)
    _report("A3", ok, time.perf_counter() - start, 1.0)


def test_a4_nu2_example():
    """A4: xi_d = -d/12 assembles to Gtilde_2/12 exactly, which is equivalent
    to half the squared weight-two series with a replayable certificate."""
    start = time.perf_counter()
    prec = 10
    entries = {d: EpsPoly.rational(3, Fraction(-d, 12)) for d in range(1, prec)}
    assembled = assemble_complex_reduced(
        XiTable(COMPLEX_POSITIVE, 3, 3, entries), prec)
    gt2 = g_tilde(3, 2, prec)
    exact = assembled.series == gt2 * Fraction(1, 12)
    F = gt2 * Fraction(1, 12)
    G = gt2 * gt2 * Fraction(1, 2)
    lattice = make_lattice(3, 4, prec, gtilde=g_tilde(3, 4, prec))
    res = is_equivalent(F, G, lattice)
    ok = (exact and res.equivalent
          and res.certificate.replay(lattice) == F - G)
    _report("A4", ok, time.perf_counter() - start, 2.0)


def test_a5_etasigma_example():
    """A5: the odd-divisor parity assembly equals half the sigma_3 sum up to
    integer shifts, checked to q^100."""
    start = time.perf_counter()
    prec = 100
    entries = {d: EpsPoly.rational(3, d ** 3 % 2) for d in range(1, prec, 2)}
    assembled = assemble_quaternionic_reduced(
        XiTable(QUATERNIONIC_KERNEL_PARITY, 3, 4, entries), prec)
    reference = g_tilde_level1(3, 4, prec) * Fraction(1, 2)
    diff = reference - assembled.series
    ok = is_integral_series(diff)
    # the halves of the even-divisor part are integers, coefficient by coefficient
    for n in range(1, prec):
        value = diff.coefficient(n).coefficient(0).rational_part()
        ok = ok and value is not None and value.denominator == 1
    _report("A5", ok, time.perf_counter() - start, 1.0)


def test_a6_chebyshev_adams():
    """A6: integer Adams polynomials, the second-kind difference identity to
    d = 50, and the sampled multiple-angle identity below 1e-12."""
    start = time.perf_counter()
    rng = random.Random(97)
    ok = True
    for d in range(2, 51):
        poly = adams_psi_poly(d)
        ok = ok and all(isinstance(c, int) for c in poly)
        u, u2 = chebyshev("U", d), chebyshev("U", d - 2)
        diff = tuple(a - b for a, b in zip(u, u2 + (0, 0)))
        ok = ok and diff == tuple(2 * c for c in chebyshev("T", d))
    for _ in range(50):
        d = rng.randint(1, 50)
        t = rng.uniform(0.1, 2 * math.pi)
        value = 0
        for c in reversed(adams_psi_poly(d)):
            value = value * Fraction(2 * math.cos(t)) + c
        ok = ok and abs(float(value) - 2 * math.cos(d * t)) < 1e-12
    _report("A6", ok, time.perf_counter() - start, 1.0)


def test_a7_su3_parities():
    """A7: the norm-shell enumeration reproduces parity (k+1) mod 2, twists
    are odd-dimensional, and the diagonal dimensions are perfect cubes."""
    start = time.perf_counter()
    ok = all(su3_kernel_parity(k) == (k + 1) % 2 for k in range(11))
    ok = ok and all(su3_psi_twist_kernel_parity(d) == 1 for d in (1, 3, 5, 7, 9))
    ok = ok and all(su3_dim(k, k) == (k + 1) ** 3 for k in range(11))
    _report("A7", ok, time.perf_counter() - start, 10.0)


def test_a8_chern_simons():
    """A8: symbolic traces 12*vol and -6*vol, nilpotent d, correction d/12."""
    start = time.perf_counter()
    c_wdw, c_www = chern_simons_volume_coefficients()
    ok = c_wdw == 12 and c_www == -6
    ok = ok and all(not ext_d(ext_d(ExtForm.basis(a))) for a in range(5))
    ok = ok and all(cs_integral(d) == Fraction(d, 12) for d in range(1, 13))
    _report("A8", ok, time.perf_counter() - start, 5.0)


def test_a9_even_l_torsion():
    """A9: for l = 2 and random rational (half-integer) tables, twice the
    assembled series is lattice-equivalent to zero at weight bound 3."""
    start = time.perf_counter()
    rng = random.Random(271)
    prec = 10
    lattice = make_lattice(3, 3, prec, gtilde=g_tilde(3, 3, prec))
    zero = QSeries.zero(3, prec)
    ok = True
    for _ in range(5):
        entries = {d: EpsPoly.rational(3, Fraction(rng.randint(-12, 12), 2))
                   for d in range(1, prec)}
        assembled = assemble_complex_reduced(
            XiTable(COMPLEX_POSITIVE, 3, 2, entries), prec)
        res = is_equivalent(assembled.series * 2, zero, lattice)
        ok = ok and res.equivalent
    _report("A9", ok, time.perf_counter() - start, 2.0)


def test_a10_trivial_bundle():
    """A10: constant tables assemble to exactly -e times the weight-one series."""
    start = time.perf_counter()
    rng = random.Random(13)
    ok = True
    for level in (2, 3):
        for _ in range(3):
            e = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            table = XiTable.constant(COMPLEX_FULL, level, 1, 11, e,
                                     both_signs=True)
            assembled = assemble_complex(table, 12)
            ok = ok and assembled.series == g_tilde(level, 1, 12) * (-e)
    _report("A10", ok, time.perf_counter() - start, 1.0)


def test_a11_property_suites():
    """A11: 1000 randomized cases each for field axioms, series ring axioms,
    Hermite normal form, and certificate replay; zero failures."""
    start = time.perf_counter()
    ok = True

    # field axioms (1000 random triples across levels)
    rng = random.Random(1009)
    one3, one5 = CycNum.one(3), CycNum.one(5)
    for i in range(1000):
        level, one = (3, one3) if i % 2 == 0 else (5, one5)
        a, b, c = (random_cyc(rng, level, 9, 6) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        if a:
            ok = ok and a * a.inverse() == one

    # series ring axioms
    rng = random.Random(2003)
    for _ in range(1000):
        f = random_series(rng, 3, 4, 5, 3)
        g = random_series(rng, 3, 4, 5, 3)
        h = random_series(rng, 3, 4, 5, 3)
        ok = ok and (f * g) * h == f * (g * h)
        ok = ok and f * (g + h) == f * g + f * h

    # Hermite normal form: A*U = H, |det U| = 1, echelon shape
    rng = random.Random(3001)
    for _ in range(1000):
        m, n = rng.randint(2, 5), rng.randint(2, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U = hnf(A)
        ok = ok and mat_mul(A, U) == H
        ok = ok and abs(det(U)) == 1
        ok = ok and is_hnf(H)

    # certificate replay on random lattice members
    rng = random.Random(4001)
    prec = 8
    lattice = make_lattice(3, 2, prec, gtilde=g_tilde(3, 2, prec))
    weight2 = lattice.basis.of_weight(2)[0].series
    gt2 = g_tilde(3, 2, prec)
    zero = QSeries.zero(3, prec)
    for _ in range(1000):
        member = (random_integral_series(rng, 3, prec)
                  + weight2 * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  + gt2 * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  + gt2 * EpsPoly.linear(3, 0, Fraction(rng.randint(-9, 9),
                                                        rng.randint(1, 9))))
        res = is_equivalent(member, zero, lattice)
        ok = ok and res.equivalent
        ok = ok and res.certificate.replay(lattice) == member

    _report("A11", ok, time.perf_counter() - start, 30.0)
