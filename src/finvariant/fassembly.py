"""Assembly of f-invariant representatives from xi-tables, and the example pipelines.

The four assembly formulas take exact xi-values per twist power and produce
q-series starting at q^1.  Known representatives of the three nontrivial
examples are provided for comparison, and run_example wires table -> assembly
-> lattice verdict for each worked example.  EXAMPLES is the one example
table: keyed by the command-line names, it gives each example's lattice, which
run_example builds once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import geometry
from .divcong import EquivResult, ModularBasis, is_equivalent, make_lattice
from .exactnum import DataError, EpsPoly, Scalar, euler_phi
from .genus import g_tilde, g_tilde_level1
from .qseries import QSeries, divisor_sum, is_integral_series

COMPLEX_FULL = "complex_full"
COMPLEX_POSITIVE = "complex_positive"
QUATERNIONIC = "quaternionic"
QUATERNIONIC_KERNEL_PARITY = "quaternionic_kernel_parity"

_KINDS = (COMPLEX_FULL, COMPLEX_POSITIVE, QUATERNIONIC,
          QUATERNIONIC_KERNEL_PARITY)


class MissingTwistError(DataError):
    """A required twist index is absent from the table (no silent zero-fill)."""


@dataclass(frozen=True)
class XiTable:
    """Map from twist index to an exact xi-representative.

    Values are chosen representatives, not mod-Z classes; the lattice test
    downstream supplies the quotient. The kind decides which twists an
    assembly to precision P reads (see `series`); the rest are never read.
    """

    kind: str
    level: int
    l: int
    entries: Mapping[int, EpsPoly]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        for d in self.entries:
            if d == 0:
                raise ValueError("twist index 0 is not allowed")
            if d < 0 and self.kind != COMPLEX_FULL:
                raise ValueError(f"{self.kind} tables take positive indices only")

    def series(self, prec: int, sign: int = 1) -> QSeries:
        """sum_{d=1}^{prec-1} xi[sign*d] q^d, the row a divisor sum reads.

        The one reader of a table: an assembly reads the twists 0 < d < prec,
        with -d too for complex_full and odd d only for kernel parities (even
        d read as 0). The first absent one, d before -d, is a MissingTwistError.
        """
        both_signs = self.kind == COMPLEX_FULL
        step = 2 if self.kind == QUATERNIONIC_KERNEL_PARITY else 1
        row = [0] * prec
        for d in range(1, prec, step):
            if d not in self.entries:
                raise MissingTwistError(f"twist {d} missing (need support to {prec - 1})")
            if both_signs and -d not in self.entries:
                raise MissingTwistError(f"twist {-d} missing (need both signs)")
            row[d] = self.entries[sign * d]
        return QSeries(self.level, prec, row)

    @classmethod
    def constant(cls, kind: str, level: int, l: int, dmax: int,
                 value: Scalar, both_signs: bool = False) -> "XiTable":
        """Table with one constant rational value on 1..dmax (and negatives)."""
        v = EpsPoly.rational(level, value)
        ds = range(1, dmax + 1)
        entries = {}
        for d in ds:
            entries[d] = v
            if both_signs:
                entries[-d] = v
        return cls(kind, level, l, entries)


@dataclass(frozen=True)
class FRepresentative:
    """A representative series with its weight bound."""

    series: QSeries
    weight_bound: int

    def __post_init__(self):
        deg = euler_phi(self.series.level)
        if any(any(p[:deg]) for p in self.series.parts):  # the q^0 slots of each eps part
            raise ValueError("representative must have zero constant term")


def assemble_complex(xi: XiTable, prec: int) -> FRepresentative:
    """Full two-sided assembly over all twist powers.

    coefficient(q^n) = sum_{d|n} (zeta^(-n/d) xi[d] - zeta^(n/d) xi[-d]).
    Since -zeta^j = -zeta^(-(-j)), xi[-d] is sieved, negated, into the class
    -j of xi[d]'s divisor sum, and the sum of both is twisted by zeta^(-j)
    once: one series, with no difference of two.
    """
    if xi.kind != COMPLEX_FULL:
        raise ValueError("assemble_complex needs a complex_full table")
    series = divisor_sum(xi.series(prec), minus=1, negated=xi.series(prec, -1))
    return FRepresentative(series, xi.l + 1)


def assemble_complex_reduced(xi: XiTable, prec: int) -> FRepresentative:
    """One-sided assembly with the dimension-dependent sign.

    coefficient(q^n) = sum_{d|n} (zeta^(-n/d) + (-1)^(l+1) zeta^(n/d)) xi[d].
    """
    if xi.kind != COMPLEX_POSITIVE:
        raise ValueError("assemble_complex_reduced needs a complex_positive table")
    sign = 1 if (xi.l + 1) % 2 == 0 else -1
    series = divisor_sum(xi.series(prec), minus=1, plus=sign)
    return FRepresentative(series, xi.l + 1)


def assemble_quaternionic(xi: XiTable, prec: int) -> FRepresentative:
    """Level-independent assembly coefficient(q^n) = sum_{d|n} xi[d]."""
    if xi.kind != QUATERNIONIC:
        raise ValueError("assemble_quaternionic needs a quaternionic table")
    series = divisor_sum(xi.series(prec))
    return FRepresentative(series, xi.l + 1)


def assemble_quaternionic_reduced(parities: XiTable, prec: int) -> FRepresentative:
    """Kernel-parity assembly: half the odd-divisor sum, or zero.

    For l = 0 mod 4: coefficient(q^n) = (1/2) sum over odd d | n of the
    stored kernel parity; for l = 2 mod 4 the representative is zero. The 1/2
    enters the sieve's input as a doubled denominator, so the sum is the
    one series the sieve makes.
    """
    if parities.kind != QUATERNIONIC_KERNEL_PARITY:
        raise ValueError("assemble_quaternionic_reduced needs a kernel-parity table")
    if parities.l % 2:
        raise ValueError("kernel-parity reduction needs even l")
    if parities.l % 4 == 2:
        return FRepresentative(QSeries.zero(parities.level, prec), parities.l + 1)
    parity = parities.series(prec)
    halved = QSeries._of(parity.level, prec, 2 * parity.den, parity.parts)
    return FRepresentative(divisor_sum(halved), parities.l + 1)


# ---------------------------------------------------------------------------
# Known representatives


def known_representative(name: str, level: int, prec: int) -> FRepresentative:
    """Stored representatives of the worked examples.

    eta2 -> (1/2) Gtilde_1, weight bound 2 (any level >= 2);
    nu2 -> (1/2) Gtilde_2^2, weight bound 4 (odd level);
    etasigma -> (1/2) sum sigma_3(n) q^n, weight bound 5 (odd level).
    """
    if name == "eta2":
        series = g_tilde(level, 1, prec) * Fraction(1, 2)
        return FRepresentative(series, 2)
    if name not in ("nu2", "etasigma"):
        raise ValueError(f"unknown representative {name!r}")
    check_example(name, level)
    if name == "nu2":
        gt2 = g_tilde(level, 2, prec)
        return FRepresentative(gt2 * gt2 * Fraction(1, 2), 4)
    series = g_tilde_level1(level, 4, prec) * Fraction(1, 2)
    return FRepresentative(series, 5)


# ---------------------------------------------------------------------------
# Example pipelines


# each worked example by its command-line name: the weight bound of its
# indeterminacy lattice and whether that lattice carries the Gtilde direction
# of that weight, or None for an example decided without a lattice
EXAMPLES = {"trivial": None, "eta2": (2, True), "nu2": (4, True),
            "etasigma": (5, False), "su3": (5, False)}


@dataclass(frozen=True)
class ExampleReport:
    assembled: FRepresentative
    reference: FRepresentative
    verdict: bool
    equivalence: Optional[EquivResult]
    details: dict


def check_example(name: str, level: int) -> None:
    """Refuse an unknown example name, and an even level for an example defined at odd levels."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose from {tuple(EXAMPLES)}")
    if name in ("nu2", "etasigma", "su3") and level % 2 == 0:
        raise ValueError(f"{name} is defined at odd levels only")


def run_example(name: str, level: int, prec: int,
                e_invariant: Scalar = Fraction(1),
                basis: Optional[ModularBasis] = None) -> ExampleReport:
    """Build the example's xi-table, assemble, and compare against the reference.

    `basis` is the modular basis of the example's lattice, built when omitted.
    """
    check_example(name, level)

    if name == "trivial":
        xi = XiTable.constant(COMPLEX_FULL, level, 1, prec - 1,
                              e_invariant, both_signs=True)
        assembled = assemble_complex(xi, prec)
        expected = g_tilde(level, 1, prec) * (-Fraction(e_invariant))
        verdict = assembled.series == expected
        return ExampleReport(assembled, FRepresentative(expected, 2),
                             verdict, None, {"e_invariant": Fraction(e_invariant)})

    weight, with_gtilde = EXAMPLES[name]
    gtilde = g_tilde(level, weight, prec) if with_gtilde else None
    lattice = make_lattice(level, weight, prec, gtilde=gtilde, basis=basis)

    if name == "eta2":
        entries = {d: geometry.circle_xi(level, d) for d in range(1, prec)}
        xi = XiTable(COMPLEX_POSITIVE, level, 1, entries)
        assembled = assemble_complex_reduced(xi, prec)
        reference = known_representative("eta2", level, prec)
        eq = is_equivalent(assembled.series, reference.series, lattice)
        return ExampleReport(assembled, reference, eq.equivalent, eq, {"xi": "1/2 - d*eps"})

    if name == "nu2":
        entries = geometry.nu2_xi_values(level, prec - 1)
        xi = XiTable(COMPLEX_POSITIVE, level, 3, entries)
        assembled = assemble_complex_reduced(xi, prec)
        exact_form = g_tilde(level, 2, prec) * Fraction(1, 12)
        reference = known_representative("nu2", level, prec)
        eq = is_equivalent(assembled.series, reference.series, lattice)
        collapses = assembled.series == exact_form
        return ExampleReport(assembled, reference, eq.equivalent and collapses, eq,
                             {"xi": "-d/12", "collapses_to_twelfth_gtilde2": collapses})

    if name == "etasigma":
        entries = geometry.etasigma_parity_values(level, prec - 1)
        detail = {"parity": "d^2 mod 2 from the plane index"}
    else:
        # each kernel parity enumerated once: the table's k <= 10 and the twists' k < prec/2
        kernel = [geometry.su3_kernel_parity(k) for k in range(max(11, prec // 2))]
        entries = geometry._su3_parity_values(level, prec - 1, kernel)
        detail = {"parity": "enumerated kernel parities",
                  "parity_table": dict(enumerate(kernel[:11]))}
    table = XiTable(QUATERNIONIC_KERNEL_PARITY, level, 4, entries)
    assembled = assemble_quaternionic_reduced(table, prec)
    reference = known_representative("etasigma", level, prec)
    integral = is_integral_series(reference.series - assembled.series)
    eq = is_equivalent(assembled.series, reference.series, lattice)
    detail["difference_integral"] = integral
    return ExampleReport(assembled, reference, eq.equivalent and integral, eq, detail)
