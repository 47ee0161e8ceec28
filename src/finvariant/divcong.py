"""Modular-form bases, the divided-congruences lattice, and the equivalence decision.

Two series F, G of weight bound k at level N are declared equivalent when
F - G lies in the lattice

    span_Q{weight-0 forms} + span_Q{weight-k forms} + R*Gtilde_k
        + {series with coefficients in Z[zeta, 1/N]},

which is exactly the indeterminacy of the transfer formulas: rational
mixed-weight combinations that expand integrally are themselves integral
series, so intermediate weights impose no extra freedom.  The formal real
scalar in front of Gtilde_k may carry an eps-part, which is how the circle
example's eps-term is absorbed.

Membership is decided exactly: the rational span is eliminated by column
reduction, and what remains is a finitely generated Z[1/N]-module membership
problem, settled by a Hermite-normal-form solve plus a denominator-support
check.  A positive verdict always carries a replayable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactnum import (CycNum, EpsPoly, euler_phi,
                       is_denominator_n_smooth, prime_factors)
from .genus import g_hat
from .qseries import (EpsPartError, IntegralityReport, QSeries, eps_split,
                      is_integral_series, relative_integrality_check)

_ZERO = Fraction(0)


class BasisError(ValueError):
    """Generator set failed independence or dimension validation."""


class PrecisionError(ValueError):
    """Requested precision below the soundness policy."""


# Dimensions of the weight-k form spaces used to validate the built-in
# generator sets, k = 0..6.  Source: the classical free polynomial-ring
# structure of the level-2/3/4 form rings (generator weights (2,4), (1,3)
# and (1,2) respectively); confirmed independently by the rank saturation
# in build_basis at Sturm-bound precision.
DIM_TARGETS: dict[int, dict[int, int]] = {
    2: {0: 1, 1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 2},
    3: {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
    4: {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4},
}


def sturm_bound(level: int, k: int) -> int:
    """Precision threshold certifying vanishing of a weight-<=k expansion.

    ceil(k*mu/12) with mu = 3 at level 2 and N^2*prod(1 - p^-2) above.
    """
    if k <= 0:
        return 0
    if level == 2:
        mu = 3
    else:
        mu_frac = Fraction(level * level)
        for p in prime_factors(level):
            mu_frac *= 1 - Fraction(1, p * p)
        mu = int(mu_frac)
    return -(-k * mu // 12)


def policy_prec(level: int, k: int) -> int:
    """Minimum precision at which a false verdict counts as a proof."""
    return sturm_bound(level, k) + 5


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite normal form: returns (H, U) with A*U = H, U unimodular.

    H has its nonzero columns first, pivot entries positive with strictly
    increasing pivot rows, zeros to the right of each pivot in its row, and
    entries to the left reduced into [0, pivot).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    # rows 0..m-1 hold H and rows m.. hold U, so each column step acts on both
    rows = ([list(row) for row in matrix]
            + [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def col_swap(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]

    def col_axpy(dst, src, q):
        # column dst -= q * column src
        if q:
            for row in rows:
                row[dst] -= q * row[src]

    def col_negate(i):
        for row in rows:
            row[i] = -row[i]

    def col_combine(i, j, r):
        # act on columns (i, j) by a 2x2 unimodular matrix producing
        # gcd at H[r][i] and zero at H[r][j]
        a, b = rows[r][i], rows[r][j]
        g = math.gcd(a, b)
        x, y = _bezout(a, b)
        ag, bg = a // g, b // g
        for row in rows:
            vi, vj = row[i], row[j]
            row[i] = x * vi + y * vj
            row[j] = -bg * vi + ag * vj

    col = 0
    for row_idx in range(m):
        if col >= n:
            break
        h = rows[row_idx]
        pivot = next((j for j in range(col, n) if h[j]), None)
        if pivot is None:
            continue
        if pivot != col:
            col_swap(col, pivot)
        for j in range(col + 1, n):
            if h[j]:
                if h[j] % h[col] == 0:
                    col_axpy(j, col, h[j] // h[col])
                else:
                    col_combine(col, j, row_idx)
        if h[col] < 0:
            col_negate(col)
        p = h[col]
        for j in range(col):
            if h[j]:
                col_axpy(j, col, h[j] // p)
        col += 1
    return rows[:m], rows[m:]


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with a*x + b*y = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


# ---------------------------------------------------------------------------
# Modular bases


@dataclass(frozen=True)
class BasisEntry:
    weight: int
    series: QSeries
    label: str


@dataclass(frozen=True)
class ModularBasis:
    """Per-weight maximal independent sets of monomials in the generators."""

    level: int
    maxweight: int
    prec: int
    entries: tuple[BasisEntry, ...]
    dims: dict[int, int] = field(compare=False, default_factory=dict)

    def of_weight(self, w: int) -> list[BasisEntry]:
        return [e for e in self.entries if e.weight == w]


def default_generators(level: int, prec: int) -> list[tuple[int, str, QSeries]]:
    """Built-in generator sets for the supported levels.

    Validity is not assumed here: build_basis confirms the expected
    per-weight dimensions by exact rank computation.
    """
    if level == 2:
        return [(2, "Ghat2", g_hat(2, 2, prec)), (4, "Ghat4", g_hat(2, 4, prec))]
    if level == 3:
        return [(1, "Ghat1", g_hat(3, 1, prec)), (3, "Ghat3", g_hat(3, 3, prec))]
    if level == 4:
        return [(1, "Ghat1", g_hat(4, 1, prec)), (2, "Ghat2", g_hat(4, 2, prec))]
    raise BasisError(
        f"no built-in generators for level {level}; supply a basis file")


def series_to_vector(f: QSeries, prec: int) -> list[Fraction]:
    """Flatten an eps-free series to phi(N)*prec rational coordinates."""
    out: list[Fraction] = []
    for n in range(prec):
        c = f.coefficient(n)
        if not c.is_eps_free():
            raise EpsPartError("cannot flatten a series with eps-part")
        out.extend(c.constant_part().coords)
    return out


def vector_to_series(level: int, prec: int, vec: Sequence[Fraction]) -> QSeries:
    deg = euler_phi(level)
    coeffs = []
    for n in range(prec):
        coords = vec[n * deg:(n + 1) * deg]
        coeffs.append(EpsPoly.constant(CycNum(level, coords)))
    return QSeries(level, prec, tuple(coeffs))


class _ColumnSpace:
    """Mutually reduced column basis with combination tracking.

    Stored vectors have a 1 at their pivot coordinate and 0 at every other
    pivot, so reduction residuals vanish identically on all pivot rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self.vecs: list[list[Fraction]] = []
        self.combs: list[list[Fraction]] = []

    def reduce(self, vector: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        """Return (residual, combination) with vector = T*combination + residual."""
        r = list(vector)
        comb = [_ZERO] * self.ncols
        for p, vec, cb in zip(self.pivots, self.vecs, self.combs):
            c = r[p]
            if c:
                for i, x in enumerate(vec):
                    if x:
                        r[i] -= c * x
                for i, x in enumerate(cb):
                    if x:
                        comb[i] += c * x
        return r, comb

    def insert(self, col_index: int, vector: Sequence[Fraction]) -> None:
        r, comb = self.reduce(vector)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return
        scale = r[pivot]
        r = [x / scale for x in r]
        comb = [-x / scale for x in comb]
        comb[col_index] += Fraction(1) / scale
        # eliminate the new pivot from the stored vectors
        for vec, cb in zip(self.vecs, self.combs):
            c = vec[pivot]
            if c:
                for i, x in enumerate(r):
                    if x:
                        vec[i] -= c * x
                for i, x in enumerate(comb):
                    if x:
                        cb[i] -= c * x
        self.pivots.append(pivot)
        self.vecs.append(r)
        self.combs.append(comb)


# ---------------------------------------------------------------------------
# The indeterminacy lattice and the decision procedure


@dataclass(frozen=True)
class IndeterminacyLattice:
    """Weight-bound-k indeterminacy: free weight-0/weight-k spans, optional
    Gtilde_k direction, and all Z[zeta,1/N]-integral series."""

    level: int
    weight: int
    basis: ModularBasis
    gtilde: Optional[QSeries]
    prec: int

    @property
    def span_indices(self) -> list[int]:
        """Indices of basis entries entering the rational span (weights 0 and k)."""
        return [i for i, e in enumerate(self.basis.entries)
                if e.weight == 0 or e.weight == self.weight]

    def describe(self) -> str:
        g = "+R*Gtilde" if self.gtilde is not None else ""
        return (f"weight<={self.weight} lattice at level {self.level} "
                f"(free weights 0,{self.weight}; integral series{g})")


def build_basis(level: int, maxweight: int, prec: int,
                generators: Optional[list[tuple[int, str, QSeries]]] = None,
                check_dims: bool = True) -> ModularBasis:
    """All generator monomials of weight <= maxweight, rank-reduced per weight.

    Requires prec >= sturm_bound(level, maxweight) + 5 so that the exact rank
    computation certifies independence. Achieved dimensions are recorded and,
    for the built-in levels, validated against the dimension table.
    """
    need = policy_prec(level, maxweight)
    if prec < need:
        raise PrecisionError(
            f"prec {prec} below policy {need} for weight {maxweight} at level {level}")
    gens = default_generators(level, prec) if generators is None else generators
    for _, _, g in gens:
        if g.prec < prec:
            raise PrecisionError("generator precision below requested basis precision")

    entries: list[BasisEntry] = [BasisEntry(0, QSeries.one(level, prec), "1")]
    dims = {0: 1}
    for w in range(1, maxweight + 1):
        monomials = _weight_monomials(gens, w, level, prec)
        space = _ColumnSpace(len(monomials))
        kept: list[BasisEntry] = []
        for label, series in monomials:
            before = len(space.pivots)
            space.insert(len(kept), series_to_vector(series, prec))
            if len(space.pivots) > before:
                kept.append(BasisEntry(w, series, label))
        dims[w] = len(kept)
        entries.extend(kept)
        if check_dims and level in DIM_TARGETS and w in DIM_TARGETS[level]:
            expected = DIM_TARGETS[level][w]
            if dims[w] != expected:
                raise BasisError(
                    f"level {level} weight {w}: rank {dims[w]} != expected {expected}")
    return ModularBasis(level, maxweight, prec, tuple(entries), dims)


def _weight_monomials(gens, w, level, prec) -> list[tuple[str, QSeries]]:
    """Products of generators with total weight exactly w."""
    out: list[tuple[str, QSeries]] = []

    def rec(idx: int, remaining: int, label_parts: list[str], acc: QSeries):
        if remaining == 0:
            out.append(("*".join(label_parts) if label_parts else "1", acc))
            return
        if idx == len(gens):
            return
        weight, name, series = gens[idx]
        max_e = remaining // weight
        power = acc
        for e in range(max_e + 1):
            parts = label_parts + ([f"{name}^{e}" if e > 1 else name] if e else [])
            rec(idx + 1, remaining - e * weight, parts, power)
            if e < max_e:
                power = power * series
    rec(0, w, [], QSeries.one(level, prec))
    return out


@dataclass(frozen=True)
class EquivCertificate:
    """Witness of a positive verdict: F - G rebuilt from lattice directions.

    F - G = sum_i basis_coeffs[i] * basis[i] + (c0 + c1*eps) * gtilde + residual,
    with the residual an integral series.
    """

    level: int
    prec: int
    basis_coeffs: tuple[Fraction, ...]
    gtilde_coeff: Fraction
    gtilde_eps_coeff: Fraction
    residual: QSeries

    def replay(self, lattice: IndeterminacyLattice) -> QSeries:
        """Reconstruct the certified difference from its parts."""
        acc = QSeries.zero(self.level, self.prec)
        for coeff, entry in zip(self.basis_coeffs, lattice.basis.entries):
            if coeff:
                acc = acc + entry.series.truncate(min(self.prec, entry.series.prec)) * coeff
        if lattice.gtilde is not None and (self.gtilde_coeff or self.gtilde_eps_coeff):
            scalar = EpsPoly.linear(self.level, self.gtilde_coeff, self.gtilde_eps_coeff)
            acc = acc + lattice.gtilde.truncate(min(self.prec, lattice.gtilde.prec)) * scalar
        return acc + self.residual


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    certificate: Optional[EquivCertificate]
    false_is_proof: bool
    prec_used: int
    modulus: str

    def __bool__(self) -> bool:
        return self.equivalent


def make_lattice(level: int, weight: int, prec: int,
                 gtilde: Optional[QSeries] = None,
                 basis: Optional[ModularBasis] = None) -> IndeterminacyLattice:
    """Assemble the weight-bound lattice, building the basis if not supplied."""
    if basis is None:
        basis = build_basis(level, weight, max(prec, policy_prec(level, weight)))
    if basis.level != level:
        raise BasisError("basis level does not match lattice level")
    if basis.maxweight < weight:
        raise BasisError("basis maxweight below lattice weight bound")
    use_prec = min(prec, basis.prec)
    if gtilde is not None:
        use_prec = min(use_prec, gtilde.prec)
    return IndeterminacyLattice(level, weight, basis, gtilde, use_prec)


def is_equivalent(F: QSeries, G: QSeries,
                  lattice: IndeterminacyLattice) -> EquivResult:
    """Decide F == G modulo the indeterminacy lattice; certify positive verdicts.

    The eps^1-part of F - G must be an exact rational multiple of Gtilde
    (the formal parameter is a transcendental real, so nothing else in the
    lattice can absorb it); the eps^0-part is a rational-span-plus-integral
    membership, solved exactly. A false verdict is marked as proof only when
    the working precision meets the Sturm-bound policy.
    """
    if F.level != lattice.level or G.level != lattice.level:
        raise BasisError("series level does not match lattice")
    prec = min(F.prec, G.prec, lattice.prec)
    sound = prec >= policy_prec(lattice.level, lattice.weight)
    modulus = lattice.describe()
    diff = (F - G).truncate(prec)
    parts = eps_split(diff)
    if len(parts) > 2:
        raise EpsPartError("eps-degree >= 2 unsupported by the lattice")

    def negative() -> EquivResult:
        return EquivResult(False, None, sound, prec, modulus)

    c1 = Fraction(0)
    if len(parts) == 2 and parts[1]:
        if lattice.gtilde is None:
            return negative()
        space = _ColumnSpace(1)
        space.insert(0, series_to_vector(lattice.gtilde.truncate(prec), prec))
        r, comb = space.reduce(series_to_vector(parts[1], prec))
        if any(r):
            return negative()
        c1 = comb[0]

    solved = _integral_span_solve(parts[0], lattice, prec)
    if solved is None:
        return negative()
    span_coeffs, residual_vec = solved

    basis_coeffs = [_ZERO] * len(lattice.basis.entries)
    span_idx = lattice.span_indices
    for pos, idx in enumerate(span_idx):
        basis_coeffs[idx] = span_coeffs[pos]
    c0 = span_coeffs[len(span_idx)] if lattice.gtilde is not None else _ZERO
    residual = vector_to_series(lattice.level, prec, residual_vec)
    cert = EquivCertificate(lattice.level, prec, tuple(basis_coeffs), c0, c1, residual)
    if not is_integral_series(residual):
        raise AssertionError("non-integral certificate residual (internal error)")
    replayed = cert.replay(lattice)
    if replayed != diff:
        raise AssertionError("certificate replay mismatch (internal error)")
    return EquivResult(True, cert, sound, prec, modulus)


def _integral_span_solve(series: QSeries, lattice: IndeterminacyLattice,
                         prec: int) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """Solve series = sum a_j * span_j + w with w integral over Z[zeta,1/N].

    Returns (a, w-vector) or None. Exact: after eliminating the rational span
    by column reduction, membership of the residual in the projected
    Z[1/N]-unit lattice is decided by an HNF solve whose solution must have
    denominators supported on primes dividing N.
    """
    level = lattice.level
    dim = euler_phi(level) * prec
    span_series = [lattice.basis.entries[i].series for i in lattice.span_indices]
    if lattice.gtilde is not None:
        span_series.append(lattice.gtilde)

    space = _ColumnSpace(len(span_series))
    for j, s in enumerate(span_series):
        space.insert(j, series_to_vector(s.truncate(min(prec, s.prec)), prec))

    v = series_to_vector(series, prec)
    r_v, comb_v = space.reduce(v)
    if not any(r_v):
        # already in the rational span: residual zero
        return comb_v, [_ZERO] * dim

    pivot_set = set(space.pivots)
    free_rows = [i for i in range(dim) if i not in pivot_set]
    if not free_rows:
        return None  # full column space yet nonzero residual: impossible

    # The projected unit-vector lattice on the free rows, scaled by denom:
    # column i is e_i for a free row i and -vecs[k] for pivot row i = p_k.
    denom = math.lcm(*(x.denominator for vec in space.vecs for x in vec),
                     *(r_v[row].denominator for row in free_rows))
    A = []
    for row in free_rows:
        a = [0] * dim
        a[row] = denom
        for p, vec in zip(space.pivots, space.vecs):
            a[p] = -int(vec[row] * denom)
        A.append(a)
    u = [int(r_v[row] * denom) for row in free_rows]

    H, U = hnf(A)
    x = _solve_echelon(H, u)
    if x is None:
        return None
    nf = 1
    for c in x:
        d = c.denominator
        if not is_denominator_n_smooth(d, level):
            return None
        while nf % d:
            nf *= level
    scaled = [c * nf for c in x]
    if any(c.denominator != 1 for c in scaled):
        raise AssertionError("scaled HNF solution not integral (internal error)")
    xn = [c.numerator for c in scaled]
    w = [Fraction(sum(a * b for a, b in zip(row, xn)), nf) for row in U]

    # a-coefficients: solve span * a = v - w through the reduced column space
    target = [vi - wi for vi, wi in zip(v, w)]
    r_t, comb_t = space.reduce(target)
    if any(r_t):
        raise AssertionError("residual not in span after lattice solve (internal error)")
    return comb_t, w


def _solve_echelon(H: list[list[int]], u: list[int]) -> Optional[list[Fraction]]:
    """Solve H*x = u over Q for a column-echelon H (zero columns allowed)."""
    m = len(H)
    ncols = len(H[0]) if m else 0
    pivots: list[tuple[int, int]] = []  # (row, col)
    for j in range(ncols):
        row = next((i for i in range(m) if H[i][j]), None)
        if row is None:
            break
        pivots.append((row, j))
    x = [_ZERO] * len(pivots)
    residue = [Fraction(c) for c in u]
    for idx, (row, col) in enumerate(pivots):
        c = residue[row] / H[row][col]
        x[idx] = c
        if c:
            for i in range(m):
                if H[i][col]:
                    residue[i] -= c * H[i][col]
    if any(residue):
        return None
    return x


__all__ = [
    "BasisEntry", "BasisError", "DIM_TARGETS", "EquivCertificate",
    "EquivResult", "IndeterminacyLattice", "IntegralityReport",
    "ModularBasis", "PrecisionError", "build_basis", "default_generators",
    "hnf", "is_equivalent", "is_integral_series", "make_lattice",
    "policy_prec", "relative_integrality_check", "series_to_vector",
    "sturm_bound", "vector_to_series",
]
