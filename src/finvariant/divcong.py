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

Membership is decided exactly and in integers, in one pass over rows: F - G is
read as integer rows per eps degree over one denominator, the rational span is
eliminated by fraction-free column reduction over one denominator, built once
per lattice (Bareiss, Math. Comp. 1968; Cohen, GTM 138 sec. 2.2), and what
remains is a congruence system in s <= dim(span) unknowns at the primes p not
dividing N.  A span combination has p-valuation at least -v_p(vden), vden the
span vectors' common denominator, so a residual holding a higher power of p
in its denominator than vden does is no member (the valuation gate).  Past
the gate the system lives modulo M, the part of vden prime to N, which by the
Chinese remainder theorem settles every such p at once with no factoring;
its matrix depends on the lattice alone, up to a unit.  So when M > 1 the
span's free rows are brought once per lattice to a lower-triangular echelon
form modulo M (Howell's form: Storjohann-Mulders, ESA 1998; Cohen, GTM 138
sec. 2.4), and each decision is one forward pass over its rows, one
divisibility test per row.  A positive verdict always carries a replayable
certificate; its s+1 coefficients are the only rationals the decision forms,
its residual the only series, and its replay is checked against the rows of
F - G as an integer identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

from .exactnum import DataError, LevelMismatchError, _coprime_part, prime_factors
from .genus import g_hat
from .qseries import QSeries, _row_sum, is_integral_series, series_row

_ZERO = Fraction(0)


class BasisError(DataError):
    """Generator set failed independence or dimension validation."""


class PrecisionError(DataError):
    """Requested precision below the basis precision policy."""


# Weights k of the built-in generators Ghat_k, and the dimensions of the
# weight-k form spaces used to validate them, k = 0..6.  Source: the classical
# free polynomial-ring structure of the level-2/3/4 form rings on those
# generators; confirmed independently by the rank saturation in build_basis at
# Sturm-bound precision.
_GENERATOR_WEIGHTS: dict[int, tuple[int, ...]] = {2: (2, 4), 3: (1, 3), 4: (1, 2)}
DIM_TARGETS: dict[int, dict[int, int]] = {
    2: {0: 1, 1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 2},
    3: {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
    4: {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4},
}


def sturm_bound(level: int, k: int) -> int:
    """Precision threshold certifying vanishing of a weight-<=k expansion.

    ceil(k*mu/12) with mu = N^2*prod(1 - p^-2) = prod p^(2e-2)*(p^2 - 1).
    """
    if k <= 0:
        return 0
    mu = level * level
    for p in prime_factors(level):
        mu = mu // (p * p) * (p * p - 1)
    return -(-k * mu // 12)


def policy_prec(level: int, k: int) -> int:
    """Sturm bound + 5: the least basis precision, which `build_basis` enforces. It proves no
    verdict: at N = 3, k = 6 a sum of weights 1-5 reads true at P = 9 = policy_prec(3, 6) and
    false at 14."""
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

    def step(i, j, a, b, c, d):
        # (col_i, col_j) <- (a*col_i + b*col_j, c*col_i + d*col_j)
        for row in rows:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    col = 0
    for h in rows[:m]:
        if col == n:
            break
        # one Bezout step clears each nonzero entry; past a zero pivot it is
        # a signed swap, so no pivot search is needed
        for j in range(col + 1, n):
            if h[j]:
                step(col, j, *_bezout(h[col], h[j]))
        if not h[col]:
            continue
        if h[col] < 0:
            for row in rows:
                row[col] = -row[col]
        for j in range(col):
            step(j, col, 1, -(h[j] // h[col]), 0, 1)
        col += 1
    return rows[:m], rows[m:]


def _bezout(a: int, b: int) -> tuple[int, int, int, int]:
    """The unimodular (x, y; -b/g, a/g) taking the pair (a, b), not both 0, to (g, 0).

    a*x + b*y = g = +-gcd(a, b), so the determinant is exactly 1.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t, -b // old_r, a // old_r


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

    def of_weight(self, w: int) -> list[BasisEntry]:
        return [e for e in self.entries if e.weight == w]


def default_generators(level: int, prec: int, maxweight=None) -> list[tuple[int, str, QSeries]]:
    """Built-in generator sets for the supported levels, of weight <= maxweight if given.

    Validity is not assumed here: build_basis confirms the expected
    per-weight dimensions by exact rank computation.
    """
    if level not in _GENERATOR_WEIGHTS:
        raise BasisError(f"no built-in generators for level {level}; supply a basis file")
    return [(k, f"Ghat{k}", g_hat(level, k, prec)) for k in _GENERATOR_WEIGHTS[level]
            if maxweight is None or k <= maxweight]


class _ColumnSpace:
    """Mutually reduced column basis with combination tracking, in integers.

    Stored vector k is vecs[k]/den: it holds den at its pivot pivots[k] and 0
    at every other pivot, so reduction residuals vanish identically on all
    pivot rows. combs[k]/den writes it as a combination of the inserted
    columns. The rows are canonical: den > 0 and gcd(den, every entry) = 1.
    vden is the least common denominator of the vectors alone. form holds the
    free rows of the vectors times vden in echelon form modulo the part of
    vden prime to N; the first decision that needs it builds it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.den = self.vden = 1
        self.pivots: list[int] = []
        self.vecs: list[list[int]] = []
        self.combs: list[list[int]] = []
        self.form: Optional[_EchelonForm] = None

    def reduce(self, num: Sequence[int], den: int) -> tuple[list[int], list[int], int]:
        """(r, comb, d) with num/den = sum_j comb[j]/d * column_j + r/d, d = den*self.den."""
        r = [self.den * x for x in num]
        comb = [0] * self.ncols
        for p, vec, cb in zip(self.pivots, self.vecs, self.combs):
            c = num[p]
            if c:
                r = [x - c * y for x, y in zip(r, vec)]
                comb = [x + c * y for x, y in zip(comb, cb)]
        return r, comb, den * self.den

    def insert(self, col_index: int, num: Sequence[int], den: int) -> bool:
        """Add num/den as column col_index; False, storing nothing, if it lies in the span."""
        r, comb, d = self.reduce(num, den)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        # the new vector is r/s: column col_index minus comb/d, times d/s
        s = r[pivot]
        comb = [-x for x in comb]
        comb[col_index] += d
        if s < 0:
            s, r, comb = -s, [-x for x in r], [-x for x in comb]
        # over den*s: eliminate the new pivot from the stored rows, then divide by the gcd
        for k, (vec, cb) in enumerate(zip(self.vecs, self.combs)):
            c = vec[pivot]
            self.vecs[k] = [s * x - c * y for x, y in zip(vec, r)]
            self.combs[k] = [s * x - c * y for x, y in zip(cb, comb)]
        self.pivots.append(pivot)
        self.vecs.append([self.den * x for x in r])
        self.combs.append([self.den * x for x in comb])
        g = math.gcd(self.den * s, *chain(*self.vecs, *self.combs))
        self.den = self.den * s // g
        if g > 1:
            self.vecs = [[x // g for x in vec] for vec in self.vecs]
            self.combs = [[x // g for x in cb] for cb in self.combs]
        self.vden = self.den // math.gcd(self.den, *chain(*self.vecs))
        return True


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

    @cached_property
    def span_indices(self) -> tuple[int, ...]:
        """Indices of basis entries entering the rational span (weights 0 and k)."""
        return tuple(i for i, e in enumerate(self.basis.entries)
                     if e.weight == 0 or e.weight == self.weight)

    @cached_property
    def describe(self) -> str:
        """The lattice in words, as `EquivResult.modulus` reports it."""
        g = "+R*Gtilde" if self.gtilde is not None else ""
        return (f"weight<={self.weight} lattice at level {self.level} "
                f"(free weights 0,{self.weight}; integral series{g})")

    @cached_property
    def _space(self) -> _ColumnSpace:
        """The reduced column space, to O(q^prec), of the span series (weights
        0 and k, then Gtilde); built once per lattice. A lower precision is a
        lattice at that precision."""
        span = [self.basis.entries[i].series for i in self.span_indices]
        if self.gtilde is not None:
            span.append(self.gtilde)
        space = _ColumnSpace(len(span))
        for j, series in enumerate(span):
            space.insert(j, *series_row(series, self.prec))
        return space


def build_basis(level: int, maxweight: int, prec: int,
                generators: Optional[list[tuple[int, str, QSeries]]] = None,
                check_dims: bool = True) -> ModularBasis:
    """All generator monomials of weight <= maxweight, rank-reduced per weight.

    Requires prec >= sturm_bound(level, maxweight) + 5 so that the exact rank
    computation certifies independence, and generators at `level` of weight
    >= 1 and precision >= prec; each monomial is one product. Achieved
    dimensions are recorded and, for the built-in levels, validated against
    the dimension table.
    """
    need = policy_prec(level, maxweight)
    if prec < need:
        raise PrecisionError(
            f"prec {prec} below policy {need} for weight {maxweight} at level {level}")
    gens = default_generators(level, prec, maxweight) if generators is None else generators
    for weight, name, g in gens:
        if g.level != level:
            raise LevelMismatchError(f"generator {name} has level {g.level}, not {level}")
        if weight < 1:
            raise BasisError(f"generator {name} has weight {weight} < 1")
        if g.prec < prec:
            raise PrecisionError("generator precision below requested basis precision")

    entries: list[BasisEntry] = [BasisEntry(0, QSeries.one(level, prec), "1")]
    built: dict[int, dict[tuple[int, ...], QSeries]] = {}
    for w in range(1, maxweight + 1):
        monomials = _weight_monomials(gens, w, prec, built)
        space = _ColumnSpace(len(monomials))
        kept: list[BasisEntry] = []
        for label, series in monomials:
            if space.insert(len(kept), *series_row(series, prec)):
                kept.append(BasisEntry(w, series, label))
        entries.extend(kept)
        if check_dims and level in DIM_TARGETS and w in DIM_TARGETS[level]:
            expected = DIM_TARGETS[level][w]
            if len(kept) != expected:
                raise BasisError(
                    f"level {level} weight {w}: rank {len(kept)} != expected {expected}")
    return ModularBasis(level, maxweight, prec, tuple(entries))


def dependent_entry(basis: ModularBasis) -> Optional[BasisEntry]:
    """The first entry in the rational span of the earlier entries of its weight, or None."""
    spaces: dict[int, _ColumnSpace] = {}
    for j, entry in enumerate(basis.entries):
        space = spaces.setdefault(entry.weight, _ColumnSpace(len(basis.entries)))
        if not space.insert(j, *series_row(entry.series, basis.prec)):
            return entry
    return None


def _weight_monomials(gens, w, prec, built) -> list[tuple[str, QSeries]]:
    """The weight-w monomials as (label, series), lexicographic in the exponents.

    `built` maps each weight below w to {exponents: series} and gains weight w.
    A generator's own monomial is it truncated to prec; any other is generator
    j times the monomial with its last nonzero exponent, at j, lowered by one.
    """
    new: dict[tuple[int, ...], QSeries] = {}
    for j, (weight, _, g) in enumerate(gens):
        unit = tuple(int(i == j) for i in range(len(gens)))
        if weight == w:
            new[unit] = g.truncate(prec)
        for lower, f in built.get(w - weight, {}).items():
            if not any(lower[j + 1:]):
                new[tuple(map(sum, zip(lower, unit)))] = f * g
    built[w] = dict(sorted(new.items()))
    return [("*".join(f"{name}^{e}" if e > 1 else name
                      for (_, name, _), e in zip(gens, exps) if e), f)
            for exps, f in built[w].items()]


@dataclass(frozen=True)
class EquivCertificate:
    """Witness of a positive verdict: F - G rebuilt from lattice directions.

    F - G = sum_i basis_coeffs[i] * basis[i] + (c0 + c1*eps) * gtilde + residual,
    with the residual an integral series.
    """

    basis_coeffs: tuple[Fraction, ...]
    gtilde_coeff: Fraction
    gtilde_eps_coeff: Fraction
    residual: QSeries

    def replay(self, lattice: IndeterminacyLattice) -> QSeries:
        """Reconstruct the certified difference from its parts, in one integer sum."""
        return QSeries._of(self.residual.level, *self._rows(lattice))

    def _rows(self, lattice: IndeterminacyLattice) -> tuple[int, int, list[Sequence[int]]]:
        """(prec, den, rows): the replayed difference as the `_row_sum` of its parts."""
        terms = [((coeff,), entry.series)
                 for coeff, entry in zip(self.basis_coeffs, lattice.basis.entries) if coeff]
        if lattice.gtilde is not None and (self.gtilde_coeff or self.gtilde_eps_coeff):
            terms.append(((self.gtilde_coeff, self.gtilde_eps_coeff), lattice.gtilde))
        terms.append(((1,), self.residual))
        prec = min(series.prec for _, series in terms)
        return (prec, *_row_sum(self.residual.level, prec, terms))


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    certificate: Optional[EquivCertificate]
    prec_used: int
    modulus: str


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

    F - G is read once, at the working precision, as integer rows per eps
    degree over one denominator (`_row_sum`). The eps^1 row must be an exact
    rational multiple of Gtilde (the formal parameter is a transcendental
    real, so nothing else in the lattice can absorb it); the eps^0 row is a
    rational-span-plus-integral membership, solved exactly. A false verdict is
    a proof at any precision P, because a member stays a member when truncated;
    a true one holds to O(q^P) (see `policy_prec`). The certified residual is
    the one series a decision builds; the replay is checked against the rows
    of F - G as an integer identity.
    """
    if F.level != lattice.level or G.level != lattice.level:
        raise BasisError("series level does not match lattice")
    prec = min(F.prec, G.prec, lattice.prec)
    modulus = lattice.describe
    den, rows = _row_sum(lattice.level, prec, (((1,), F), ((-1,), G)))

    def negative() -> EquivResult:
        return EquivResult(False, None, prec, modulus)

    c1 = _ZERO
    if len(rows) == 2:
        # e/den = c1 * g/gden exactly when every cross product e*g[p] - g*e[p]
        # vanishes, p the first nonzero entry of g (none for a zero Gtilde)
        e = rows[1]
        g, gden = series_row(lattice.gtilde, prec) if lattice.gtilde is not None else ((), 1)
        p = next((i for i, x in enumerate(g) if x), None)
        if p is None or any(x * g[p] != y * e[p] for x, y in zip(e, g)):
            return negative()
        c1 = Fraction(e[p] * gden, den * g[p])

    # pivots of a reduction at lattice.prec may lie beyond a lower precision
    at_prec = lattice if prec == lattice.prec else replace(lattice, prec=prec)
    solved = _integral_span_solve(rows[0], den, at_prec._space, lattice.level)
    if solved is None:
        return negative()
    span_coeffs, residual_row, d = solved

    basis_coeffs = [_ZERO] * len(lattice.basis.entries)
    span_idx = lattice.span_indices
    for pos, idx in enumerate(span_idx):
        basis_coeffs[idx] = Fraction(span_coeffs[pos], d)
    c0 = Fraction(span_coeffs[len(span_idx)], d) if lattice.gtilde is not None else _ZERO
    residual = QSeries._of(lattice.level, prec, d, (residual_row,))
    cert = EquivCertificate(tuple(basis_coeffs), c0, c1, residual)
    if not is_integral_series(residual):
        raise AssertionError("non-integral certificate residual (internal error)")
    # replay rebuilds F - G from the span coefficients and the residual, so
    # it also shows that F - G - residual lies in the span: replay/rden ==
    # rows/den, eps degree by eps degree
    _, rden, replayed = cert._rows(lattice)
    if [[x * den for x in row] for row in replayed] != [[x * rden for x in row] for row in rows]:
        raise AssertionError("certificate replay mismatch (internal error)")
    return EquivResult(True, cert, prec, modulus)


def _integral_span_solve(num: Sequence[int], den: int, space: _ColumnSpace,
                         level: int) -> Optional[tuple[list[int], list[int], int]]:
    """Solve v = num/den = sum a_j * span_j + w with w integral over Z[zeta,1/N].

    Returns integer rows (a, w) over one denominator d as (a, w, d), or None.
    The reduction v = sum c_k*vecs_k + r_v leaves r_v zero on every pivot
    row, where vecs_k is 1 at its own pivot and 0 at the others; so v is a
    member exactly when some t in Z^s makes w = r_v + sum t_k*vecs_k integral
    on the free rows. At a prime p not dividing N, sum t_k*vecs_k has
    p-valuation at least -v_p(vden), so a free-row entry of r_v of lower
    valuation stays non-integral for every t: if the part of
    D = lcm(vden, den(r_v)) prime to N exceeds that of vden, v is no member.
    Otherwise, scaled by D, membership is the system A*(D/vden)*t == b over
    Z/M, M the part of D (and of vden) prime to N, where A, the free rows of
    the vectors times vden, depends on the lattice alone and D/vden is a unit
    mod M. So A is brought to echelon form modulo M once per lattice
    (`_EchelonForm`, when M > 1), and each decision is one pass over its
    rows. Then a = c - sum t_k*combs_k.
    """
    w, a, d = space.reduce(num, den)
    lcd = math.lcm(space.vden, d // math.gcd(d, *w))
    modulus = _coprime_part(lcd, level)
    if modulus != _coprime_part(space.vden, level):
        return None
    if modulus > 1:
        pivots = set(space.pivots)
        rows = [i for i in range(len(w)) if i not in pivots]
        if space.form is None:
            space.form = _EchelonForm(
                [[vec[i] * space.vden // space.den for vec in space.vecs] for i in rows], modulus)
        t = space.form.solve([-(w[i] * lcd // d) for i in rows])
        if t is None:
            return None
        # the system's matrix is the form's times lcd/vden, a unit mod M
        unit = pow(lcd // space.vden, -1, modulus)
        # a stored row over space.den is den times that row over d = den*space.den
        for tk, vec, cb in zip((x * unit % modulus for x in t), space.vecs, space.combs):
            if tk:
                w = [x + tk * den * y for x, y in zip(w, vec)]
                a = [x - tk * den * y for x, y in zip(a, cb)]
    return a, w, d


class _EchelonForm:
    """An integer m x s matrix A in lower echelon form modulo M, for solving A*t == b.

    Column i of W is cols[i][:m]: 0 above row i and g_i at row i, where g_i
    divides M (M itself on a row no column reaches). cols[i][m:] is its
    combination of A's columns, mod M. For every i, the vectors of A's image
    mod M that vanish above row i are the combinations of columns i.. of W
    (Howell's property: Storjohann-Mulders, ESA 1998; Cohen, GTM 138
    sec. 2.4), so one pass over the rows, one divisibility test each,
    settles A*t == b.
    """

    def __init__(self, matrix: Sequence[Sequence[int]], modulus: int):
        m, s = len(matrix), len(matrix[0])
        self.modulus = modulus
        self.cols: list[list[int]] = []
        # the working columns: m entries, then s coefficients, all mod M
        live = [[row[k] % modulus for row in matrix] + [int(j == k) for j in range(s)]
                for k in range(s)]
        for i in range(m):
            if not any(any(col[i:m]) for col in live):
                # no working column reaches rows i..: each gives M*e_k, since
                # gcd(0, M) = M and _bezout(0, M) gives x = 0
                self.cols += [[0] * k + [modulus] + [0] * (m + s - k - 1) for k in range(i, m)]
                break
            # Bezout steps merge row i of every working column (0 above it) into the first
            first = live[0]
            for j in range(1, s):
                if live[j][i]:
                    a, b, c, d = _bezout(first[i], live[j][i])
                    head, tail = first[i:], live[j][i:]
                    first[i:] = [(a * x + b * y) % modulus for x, y in zip(head, tail)]
                    live[j][i:] = [(c * x + d * y) % modulus for x, y in zip(head, tail)]
            # x*entry == g (mod M) with gcd(x, M/g) = 1: x*first and the
            # (M/g)-multiple, which vanishes at row i, span what first did
            g = math.gcd(first[i], modulus)
            x = _bezout(first[i], modulus)[0]
            self.cols.append([0] * i + [g] + [x * y % modulus for y in first[i + 1:]])
            live[0] = [0] * (i + 1) + [modulus // g * y % modulus for y in first[i + 1:]]

    def solve(self, rhs: Sequence[int]) -> Optional[list[int]]:
        """A t with A*t == rhs (mod M), entries in [0, M), or None, in one pass:
        row i's remainder must be a multiple y of g_i, and y*(column i) is taken off."""
        res = [b % self.modulus for b in rhs] + [0] * (len(self.cols[0]) - len(rhs))
        for i, col in enumerate(self.cols):
            y, r = divmod(res[i] % self.modulus, col[i])
            if r:
                return None
            if y:
                res = [b - y * c for b, c in zip(res, col)]
        return [-b % self.modulus for b in res[len(rhs):]]


__all__ = [
    "BasisEntry", "BasisError", "DIM_TARGETS", "EquivCertificate",
    "EquivResult", "IndeterminacyLattice", "ModularBasis", "PrecisionError",
    "build_basis", "default_generators", "dependent_entry", "hnf",
    "is_equivalent", "make_lattice", "policy_prec", "sturm_bound",
]
