"""Shared helpers for randomized exact-arithmetic tests."""

from __future__ import annotations

import random
from fractions import Fraction

from finvariant.divcong import ModularBasis, build_basis
from finvariant.exactnum import CycNum, EpsPoly, euler_phi
from finvariant.genus import g_hat
from finvariant.qseries import QSeries


def random_fraction(rng: random.Random, max_num: int = 20,
                    max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_cyc(rng: random.Random, level: int, max_num: int = 20,
               max_den: int = 12) -> CycNum:
    deg = euler_phi(level)
    return CycNum(level, [random_fraction(rng, max_num, max_den)
                          for _ in range(deg)])


def random_series(rng: random.Random, level: int, prec: int,
                  max_num: int = 9, max_den: int = 4) -> QSeries:
    return QSeries(level, prec,
                   tuple(EpsPoly(level, (random_cyc(rng, level, max_num, max_den),))
                         for _ in range(prec)))


def random_integral_series(rng: random.Random, level: int, prec: int,
                           max_exp: int = 2) -> QSeries:
    """Random series with coefficients in Z[zeta, 1/level]."""
    deg = euler_phi(level)
    coeffs = []
    for _ in range(prec):
        coords = [Fraction(rng.randint(-9, 9), level ** rng.randint(0, max_exp))
                  for _ in range(deg)]
        coeffs.append(EpsPoly(level, (CycNum(level, coords),)))
    return QSeries(level, prec, tuple(coeffs))


def level5_user_basis(prec: int) -> ModularBasis:
    """A weight-2 basis at level 5, which has no built-in generators."""
    gens = [(1, "Ghat1", g_hat(5, 1, prec)), (2, "Ghat2", g_hat(5, 2, prec))]
    return build_basis(5, 2, prec, generators=gens, check_dims=False)
