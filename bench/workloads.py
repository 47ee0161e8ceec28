"""The three workloads: job lists built from a seed, and their output checks.

Each workload is a fixed list of jobs that the harness runs in order, one at
a time, as one round. A job calls finvariant's public API (or, for ``tour``,
the CLI's ``main``) and returns its output; a separate check, run after the
round, decides whether that output is right without calling the code under
test. Jobs look up library functions on the package at call time, so the
tracer's wrappers see every call.

The seed fixes the random data (series coefficients, xi-values, lattice
combinations, e-invariants) and the order of the jobs. The sizes of the
jobs (levels, precisions, lattices) are fixed, so that every seed asks for
about the same amount of work and the timings of different seeds compare.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import finvariant as fv
from finvariant import cli, fassembly, geometry

import modp


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # a defect of the program that this job shows on purpose; it still
    # counts as a failed job
    known_defect: bool = False


class Workload:
    def __init__(self, jobs: list[Job], start_round: Callable[[], None] = lambda: None,
                 close: Callable[[], None] = lambda: None):
        self.jobs = jobs
        self.start_round = start_round
        self.close = close


def phi(level: int) -> int:
    return sum(1 for j in range(1, level + 1) if math.gcd(j, level) == 1)


def rand_fraction(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_integral(rng: random.Random, level: int) -> Fraction:
    """A random element of Z[1/level]."""
    return Fraction(rng.randint(-9, 9), level ** rng.randint(0, 2))


def make_series(level: int, const: list[list[Fraction]],
                eps: list[list[Fraction]] | None = None):
    """A library series from per-coefficient power-basis coordinates."""
    coeffs = []
    for n, c0 in enumerate(const):
        parts = [fv.CycNum(level, c0)]
        if eps is not None:
            parts.append(fv.CycNum(level, eps[n]))
        coeffs.append(fv.EpsPoly(level, parts))
    return fv.QSeries(level, len(const), coeffs)


def flat(series, prec: int) -> list[Fraction]:
    """The eps^0 coordinates of q^0 .. q^(prec-1), concatenated."""
    out: list[Fraction] = []
    for n in range(prec):
        out.extend(modp.coefficient_parts(series, n)[0])
    return out


def unflat(vec: list[Fraction], level: int) -> list[list[Fraction]]:
    deg = phi(level)
    return [list(vec[i:i + deg]) for i in range(0, len(vec), deg)]


def images_equal(series, const: list[int], eps: list[int] | None = None) -> bool:
    got_const, got_eps = modp.image(series)
    if eps is None:
        eps = [0] * len(const)
    return got_const == const and got_eps == eps


# ---------------------------------------------------------------------------
# series: the scalar and series kernel


# (level, precisions) of the G_hat/G_tilde jobs: P from 100 to 300, lower
# at the levels whose larger phi(N) makes each coefficient dearer
SERIES_EIS_GRID = ((3, (100, 150, 200, 250, 300)), (4, (100, 150, 200, 250, 300)),
                   (5, (100, 125, 150, 175, 200)), (12, (100, 125, 150, 175, 200)),
                   (7, (100, 110, 120, 135, 150)))

# (level, precision, count) of the dense random products, phi(N) = 2, 4, 6.
# The 20 products at N = 5, P = 38 are the slowest fifth of the round and
# alike in cost, so the 90th latency percentile falls inside that group
# rather than between two unlike jobs; every other job takes at most about
# two thirds of their time.
SERIES_PRODUCTS = ((3, 36, 4), (4, 36, 3), (6, 36, 3), (5, 22, 3), (8, 22, 2), (12, 22, 2),
                   (7, 15, 2), (9, 15, 1), (5, 38, 20))


def setup_series(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    jobs: list[Job] = []

    # the grid alternates G_hat and G_tilde and cycles the weight, so that
    # every seed runs the same sizes
    grid = [(level, prec) for level, precs in SERIES_EIS_GRID for prec in precs]
    for i, (level, prec) in enumerate(grid):
        k, tilde = 1 + (i // 2) % 4, i % 2 == 1
        expected = modp.ghat(level, k, prec, tilde)
        if tilde:
            run = lambda l=level, k=k, p=prec: fv.g_tilde(l, k, p)
        else:
            run = lambda l=level, k=k, p=prec: fv.g_hat(l, k, p)
        jobs.append(Job(f"{'g_tilde' if tilde else 'g_hat'}.N{level}P{prec}", run,
                        lambda out, e=expected: images_equal(out, e)))

    for level, prec, count in SERIES_PRODUCTS:
        deg = phi(level)
        for _ in range(count):
            a = make_series(level, [[rand_fraction(rng) for _ in range(deg)] for _ in range(prec)])
            b = make_series(level, [[rand_fraction(rng) for _ in range(deg)] for _ in range(prec)])
            expected = modp.convolve(modp.image(a)[0], modp.image(b)[0])
            jobs.append(Job(f"product.N{level}P{prec}", lambda a=a, b=b: a * b,
                            lambda out, e=expected: images_equal(out, e)))

    for level in (3, 4, 5):
        for prec in (24, 36):
            jobs.append(Job(f"g2.N{level}P{prec}", lambda l=level, p=prec: fv.g2(l, p),
                            lambda out, l=level, p=prec: _check_g2(out, l, p)))

    for level in (2, 3, 4, 6):
        jobs.append(Job(f"ell_quaternionic.N{level}",
                        lambda l=level: fv.genus.ell_quaternionic(l, 1, 20),
                        lambda out, l=level: _check_quaternionic(out, l, 20)))

    for level in (3, 4, 5, 7):
        jobs.extend(_assembly_jobs(rng, level, 64))

    rng.shuffle(jobs)
    return Workload(jobs)


def _check_g2(out, level: int, prec: int) -> bool:
    g1 = modp.ghat(level, 1, prec)
    g2 = modp.ghat(level, 2, prec)
    expected = [(x - 2 * y) % modp.PRIME for x, y in zip(modp.convolve(g1, g1), g2)]
    if not images_equal(out, expected):
        return False
    # g2 - 1/12 is integral over Z[zeta, 1/N]
    const = [list(modp.coefficient_parts(out, n)[0]) for n in range(prec)]
    const[0][0] -= Fraction(1, 12)
    return modp.is_n_integral(level, const)


def _check_quaternionic(out, level: int, prec: int) -> bool:
    """Entry 1 equals -E4 = -(1/240 + sum sigma_3(n) q^n); entry 0 is g2."""
    deg = phi(level)
    target = [Fraction(-1, 240)] + [Fraction(-modp.sigma(n, 3)) for n in range(1, prec)]
    for n in range(prec):
        c0, c1 = modp.coefficient_parts(out[1], n)
        if list(c0) != [target[n]] + [Fraction(0)] * (deg - 1) or any(c1):
            return False
    g1 = modp.ghat(level, 1, prec)
    g2 = modp.ghat(level, 2, prec)
    expected = [(x - 2 * y) % modp.PRIME for x, y in zip(modp.convolve(g1, g1), g2)]
    return images_equal(out[0], expected)


def _xi_image(level: int, xi: dict[int, tuple[Fraction, Fraction]]):
    return {d: (modp.rat(c), modp.rat(e)) for d, (c, e) in xi.items()}


def _assembly_expected(kind: str, level: int, l: int, prec: int, xi):
    """Images of the assembled series from the four formulas' definitions."""
    img = _xi_image(level, xi)
    sign = 1 if (l + 1) % 2 == 0 else -1
    const, eps = [0], [0]
    for n in range(1, prec):
        acc = [0, 0]
        for d in modp.divisors(n):
            j = n // d
            for part in (0, 1):
                if kind == fassembly.COMPLEX_FULL:
                    term = modp.zeta(level, -j) * img[d][part] - modp.zeta(level, j) * img[-d][part]
                elif kind == fassembly.COMPLEX_POSITIVE:
                    term = (modp.zeta(level, -j) + sign * modp.zeta(level, j)) * img[d][part]
                elif kind == fassembly.QUATERNIONIC:
                    term = img[d][part]
                else:
                    term = img[d][part] * modp.rat(Fraction(1, 2)) if d % 2 else 0
                acc[part] += term
        const.append(acc[0] % modp.PRIME)
        eps.append(acc[1] % modp.PRIME)
    return const, eps


_ASSEMBLE = {
    fassembly.COMPLEX_FULL: "assemble_complex",
    fassembly.COMPLEX_POSITIVE: "assemble_complex_reduced",
    fassembly.QUATERNIONIC: "assemble_quaternionic",
    fassembly.QUATERNIONIC_KERNEL_PARITY: "assemble_quaternionic_reduced",
}


def _assembly_jobs(rng: random.Random, level: int, prec: int) -> list[Job]:
    jobs = []
    for kind, l in ((fassembly.COMPLEX_FULL, 1), (fassembly.COMPLEX_POSITIVE, 1),
                    (fassembly.COMPLEX_POSITIVE, 2), (fassembly.QUATERNIONIC, 3),
                    (fassembly.QUATERNIONIC_KERNEL_PARITY, 4)):
        ds = list(range(1, prec))
        if kind == fassembly.COMPLEX_FULL:
            ds += [-d for d in ds]
        if kind == fassembly.QUATERNIONIC_KERNEL_PARITY:
            xi = {d: (Fraction(rng.randint(0, 1)), Fraction(0)) for d in ds}
        else:
            xi = {d: (rand_fraction(rng), rand_fraction(rng)) for d in ds}
        table = fv.XiTable(kind, level, l,
                           {d: fv.EpsPoly.linear(level, c, e) for d, (c, e) in xi.items()})
        expected = _assembly_expected(kind, level, l, prec, xi)
        name = _ASSEMBLE[kind]
        jobs.append(Job("assemble",
                        lambda t=table, n=name: getattr(fv, n)(t, prec),
                        lambda out, e=expected: images_equal(out.series, *e)))

    # a constant table assembles to -e * Gtilde_1 (acceptance identity)
    e_inv = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    const_table = fv.XiTable.constant(fassembly.COMPLEX_FULL, level, 1, prec - 1,
                                      e_inv, both_signs=True)
    expected = [(-modp.rat(e_inv) * x) % modp.PRIME for x in modp.ghat(level, 1, prec, True)]
    jobs.append(Job("assemble_constant",
                    lambda t=const_table: fv.assemble_complex(t, prec),
                    lambda out, e=expected: images_equal(out.series, e)))

    # the circle example's table 1/2 - d*eps, built inside the job
    circle = {d: (Fraction(1, 2), Fraction(-d)) for d in range(1, prec)}
    expected = _assembly_expected(fassembly.COMPLEX_POSITIVE, level, 1, prec, circle)

    def run_circle(level=level):
        entries = {d: geometry.circle_xi(level, d) for d in range(1, prec)}
        table = fv.XiTable(fassembly.COMPLEX_POSITIVE, level, 1, entries)
        return fv.assemble_complex_reduced(table, prec)

    jobs.append(Job("assemble_circle", run_circle,
                    lambda out, e=expected: images_equal(out.series, *e)))
    return jobs


# ---------------------------------------------------------------------------
# decide: lattice verdicts against prebuilt lattices

# (level, weight bound, precision) of each prebuilt lattice, and how many
# jobs of each kind (member, rejected by the solve, rejected at the
# eps-part check) it receives per round. The counts place the median and the
# 90th percentile of job latency inside a group of similar jobs rather than
# on the step between two groups (about 2, 5, 11, 25 and 55 ms on a 2-core
# x86 host), so small speed changes do not flip them from one group to the
# next: eps-part rejections take 20% of the jobs, the cheap solves and the
# small members the middle 45%, and the P = 30 members the top 20%.
DECIDE_LATTICES = (
    ((2, 6, 20), (15, 15, 8)),
    ((3, 4, 12), (15, 15, 8)),
    ((3, 4, 20), (15, 15, 8)),
    ((4, 4, 20), (15, 15, 8)),
    ((3, 4, 30), (40, 5, 8)),
)

# primes that divide no level used here: the non-members' obstruction
WITNESS_PRIMES = (5, 7, 11, 13)


class LatticeCase:
    """A prebuilt lattice and the data needed to make and verify its inputs."""

    def __init__(self, level: int, weight: int, prec: int):
        self.level = level
        self.tag = f"N{level}w{weight}P{prec}"
        self.gtilde = fv.g_tilde(level, weight, prec)
        self.lattice = fv.make_lattice(level, weight, prec, gtilde=self.gtilde)
        self.prec = self.lattice.prec
        entries = self.lattice.basis.entries
        span = [entries[i].series for i in self.lattice.span_indices] + [self.gtilde]
        self.span = [flat(s, self.prec) for s in span]
        self.gtilde_vec = flat(self.gtilde, self.prec)
        self.pivots, det, self.pivot_coeffs = _witness_rows(self.span)
        # primes at which S is p-integral and its pivot minor a p-unit
        self.witness_primes = [q for q in WITNESS_PRIMES
                               if self.level % q and det.numerator % q
                               and all(x.denominator % q for col in self.span for x in col)]

    def random_base(self, rng: random.Random) -> list[Fraction]:
        return [rand_integral(rng, self.level) for _ in range(phi(self.level) * self.prec)]

    def member_difference(self, rng: random.Random) -> list[Fraction]:
        """A random element of span_Q(S) + integral series, as a vector."""
        v = [rand_integral(rng, self.level) for _ in self.gtilde_vec]
        for col in self.span:
            a = rand_fraction(rng, 5, 6)
            v = [x + a * c for x, c in zip(v, col)]
        return v

    def non_member_difference(self, rng: random.Random) -> list[Fraction]:
        """A random member plus c/p at one coordinate, kept only once a witness proves it."""
        p = rng.choice(self.witness_primes)
        for _ in range(1000):
            diff = self.member_difference(rng)
            diff[rng.randrange(len(diff))] += Fraction(rng.randint(1, p - 1), p)
            if self.witness(diff, p):
                return diff
        raise RuntimeError("no provable non-member found")

    def witness(self, v: list[Fraction], p: int) -> bool:
        """True if a p-adic witness proves v outside span_Q(S) + Z[1/N]^dim.

        Looks for y with y*S = 0, y in Z_(p)^dim and y*v not in Z_(p); the
        integral part cannot absorb y*v because p does not divide N. Each
        candidate y has a 1 at one non-pivot row e and -S_e * S_piv^-1 on the
        pivot rows, which is p-integral for p in witness_primes.
        """
        if p not in self.witness_primes:
            return False
        for e, coeffs in self.pivot_coeffs:
            yv = v[e] - sum(c * v[i] for c, i in zip(coeffs, self.pivots))
            if yv.denominator % p == 0:
                return True
        return False

    def pair(self, diff: list[Fraction], eps: list[Fraction], rng: random.Random):
        g = self.random_base(rng)
        f = [x + y for x, y in zip(g, diff)]
        G = make_series(self.level, unflat(g, self.level))
        F = make_series(self.level, unflat(f, self.level), unflat(eps, self.level))
        return F, G


def _independent(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """A maximal linearly independent subset, in order."""
    kept, reduced = [], []
    for v in vectors:
        r = list(v)
        for lead, b in reduced:
            if r[lead]:
                c = r[lead] / b[lead]
                r = [x - c * y for x, y in zip(r, b)]
        lead = next((i for i, x in enumerate(r) if x), None)
        if lead is not None:
            kept.append(v)
            reduced.append((lead, r))
    return kept


def _witness_rows(span: list[list[Fraction]]):
    """Pivot rows of S, the determinant of their minor, and S_e * minor^-1 per other row.

    Dependent columns of S (G_tilde lies in the span of the weight-k basis
    and the constant) are dropped: y orthogonal to the rest is orthogonal
    to them.
    """
    cols = _independent(span)
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    row_set = _independent(rows)
    pivots = [i for i, row in enumerate(rows) if any(row is r for r in row_set)]
    ncols = len(cols)
    minor = [rows[i] for i in pivots]
    inv = _inverse(minor)
    out = []
    for e in range(len(rows)):
        if e not in pivots:
            out.append((e, [sum(rows[e][k] * inv[k][j] for k in range(ncols))
                            for j in range(ncols)]))
    return pivots, _det(minor), out


def _det(m: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix, in the convention S_e * inv: inv[k][j]."""
    n = len(m)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        lead = a[c][c]
        a[c] = [x / lead for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def not_proportional(eps: list[Fraction], gtilde: list[Fraction]) -> bool:
    """True if eps is no rational multiple of gtilde (coefficient-ratio test)."""
    i0 = next((i for i, x in enumerate(gtilde) if x), None)
    if i0 is None:
        return any(eps)
    c = eps[i0] / gtilde[i0]
    return any(x != c * g for x, g in zip(eps, gtilde))


def _decide_jobs(case: LatticeCase, counts: tuple[int, int, int],
                 rng: random.Random) -> list[Job]:
    def job(kind, F, G, check):
        return Job(f"{kind}.{case.tag}",
                   lambda: fv.is_equivalent(F, G, case.lattice), check)

    def eps_part():
        c1 = rand_fraction(rng, 5, 6)
        return [c1 * g for g in case.gtilde_vec]

    jobs = []
    members, solved_out, eps_out = counts
    for _ in range(members):
        F, G = case.pair(case.member_difference(rng), eps_part(), rng)
        jobs.append(job("member", F, G,
                        lambda out, F=F, G=G: _check_member(out, F, G, case)))
    for _ in range(solved_out):
        # non_member_difference proved non-membership with a p-adic witness
        F, G = case.pair(case.non_member_difference(rng), eps_part(), rng)
        jobs.append(job("solve_reject", F, G, lambda out: out.equivalent is False))
    for _ in range(eps_out):
        eps = eps_part()
        row = rng.randrange(phi(case.level), len(eps))
        eps[row] += Fraction(rng.randint(1, 9), rng.randint(1, 4))
        F, G = case.pair(case.member_difference(rng), eps, rng)
        proof = not_proportional(eps, case.gtilde_vec)
        jobs.append(job("eps_reject", F, G, lambda out, ok=proof: ok and out.equivalent is False))
    return jobs


def _check_member(out, F, G, case: LatticeCase) -> bool:
    if out.equivalent is not True or out.certificate is None:
        return False
    cert = out.certificate
    replayed = cert.replay(case.lattice)
    fc, fe = modp.image(F)
    gc, ge = modp.image(G)
    p = min(replayed.prec, len(fc))
    want_c = [(a - b) % modp.PRIME for a, b in zip(fc[:p], gc[:p])]
    want_e = [(a - b) % modp.PRIME for a, b in zip(fe[:p], ge[:p])]
    return images_equal(replayed, want_c, want_e) and fv.is_integral_series(cert.residual)


def setup_decide(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    jobs: list[Job] = []
    for spec, counts in DECIDE_LATTICES:
        jobs.extend(_decide_jobs(LatticeCase(*spec), counts, rng))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# tour: the README command tour through cli.main, cold and warm basis cache


def fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def series_text(level: int, const: list[list[Fraction]], weight: str, label: str) -> str:
    lines = [f"level={level} weight={weight} prec={len(const)} label={label}"]
    for n, coords in enumerate(const):
        lines.append(" ".join([str(n)] + [fmt_fraction(x) for x in coords]))
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> tuple[dict[str, str], list[tuple[dict, list[list[Fraction]]]]]:
    """Key=value lines and series blocks of --machine output."""
    keys: dict[str, str] = {}
    blocks: list[tuple[dict, list[list[Fraction]]]] = []
    current = None
    for line in text.splitlines():
        if line.startswith("level="):
            header = dict(part.split("=", 1) for part in line.split(None, 3))
            current = (header, [])
            blocks.append(current)
        elif line[:1].isdigit() and current is not None:
            toks = line.split()
            if int(toks[0]) != len(current[1]):
                raise ValueError("coefficient lines out of order")
            current[1].append([Fraction(t) for t in toks[1:]])
        else:
            current = None
            for part in line.split():
                if "=" in part:
                    key, value = part.split("=", 1)
                    keys[key] = value
    return keys, blocks


def block(blocks, label: str) -> list[list[Fraction]]:
    found = [rows for header, rows in blocks if header.get("label") == label]
    if len(found) != 1:
        raise ValueError(f"expected one block labelled {label!r}")
    return found[0]


def rows_image(level: int, rows: list[list[Fraction]]) -> list[int]:
    return [modp.cyc(level, r) for r in rows]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _ok(code: int = 0, last: str | None = None, contains: str | None = None):
    def check(out) -> bool:
        rc, stdout, _ = out
        lines = stdout.strip().splitlines()
        return (rc == code and (last is None or (lines and lines[-1].strip() == last))
                and (contains is None or contains in stdout))
    return check


def _machine(code: int, keys: dict[str, str], blocks_check=None):
    def check(out) -> bool:
        rc, stdout, stderr = out
        if rc != code or "error:" in stderr:
            return False
        got, blocks = parse_machine(stdout)
        if any(got.get(k) != v for k, v in keys.items()):
            return False
        return blocks_check is None or blocks_check(blocks)
    return check


class Tour:
    """Files for the tour, and the basis directory that rounds reset."""

    # the user basis for level 5, which has no built-in generators
    USER_BASIS = "basis_N5_W2_P12.txt"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.bases = self.dir / "bases"
        self.user_basis = self.dir / self.USER_BASIS
        self.user_basis.write_text(self._level5_basis(), encoding="utf-8")

    def _level5_basis(self) -> str:
        prec = 12
        gens = [(1, "Ghat1", fv.g_hat(5, 1, prec)), (2, "Ghat2", fv.g_hat(5, 2, prec))]
        basis = fv.build_basis(5, 2, prec, generators=gens, check_dims=False)
        return "".join(series_text(5, [list(modp.coefficient_parts(e.series, n)[0])
                                       for n in range(prec)], str(e.weight), e.label)
                       for e in basis.entries)

    def start_round(self) -> None:
        """A cold pass starts from a basis dir holding only the user's basis."""
        shutil.rmtree(self.bases, ignore_errors=True)
        self.bases.mkdir()
        shutil.copy(self.user_basis, self.bases / self.USER_BASIS)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def divcong_files(self, case: LatticeCase, member: bool, tag: str) -> tuple[str, str]:
        """F/G files whose difference is (or provably is not) in the lattice."""
        rng = self.rng
        diff = case.member_difference(rng) if member else case.non_member_difference(rng)
        g = case.random_base(rng)
        f = [x + y for x, y in zip(g, diff)]
        return tuple(self.write(f"{name}_{tag}.txt",
                                series_text(case.level, unflat(vec, case.level), "?", name))
                     for name, vec in (("F", f), ("G", g)))

    def xi_file(self, tag: str, kind: str, level: int, l: int, prec: int, with_eps: bool):
        ds = list(range(1, prec))
        if kind == fassembly.COMPLEX_FULL:
            ds += [-d for d in ds]
        xi = {}
        for d in ds:
            if kind == fassembly.QUATERNIONIC_KERNEL_PARITY:
                xi[d] = (Fraction(self.rng.randint(0, 1)), Fraction(0))
            else:
                eps = rand_fraction(self.rng) if with_eps else Fraction(0)
                xi[d] = (rand_fraction(self.rng), eps)
        lines = [f"{d} {fmt_fraction(c)}" + (f" {fmt_fraction(e)}" if with_eps else "")
                 for d, (c, e) in xi.items()]
        path = self.write(f"xi_{tag}.txt", "\n".join(lines) + "\n")
        return path, _assembly_expected(kind, level, l, prec, xi)


def _tour_pass(tour: Tour, cases: dict) -> list[tuple]:
    """(kind, argv, check, known_defect) for one pass of the tour."""
    bases = str(tour.bases)
    out: list[tuple] = []

    def add(kind, argv, check, defect=False):
        out.append((kind, argv, check, defect))

    # eis
    for level, k, prec in ((3, 2, 5), (4, 3, 12), (7, 1, 20)):
        add("eis", ["eis", "-N", str(level), "-k", str(k), "-p", str(prec)],
            _ok(contains=f"q^{prec - 1}:"))
    for level, k, prec in ((3, 2, 10), (5, 4, 30), (12, 2, 40)):
        expected = modp.ghat(level, k, prec, True)
        add("eis_machine", ["eis", "-N", str(level), "-k", str(k), "-p", str(prec),
                            "--tilde", "--machine"],
            _machine(0, {}, lambda b, l=level, k=k, e=expected:
                     rows_image(l, block(b, f"Gtilde_{k}")) == e))

    # ell
    add("ell", ["ell", "-N", "3", "-k", "4", "-p", "8", "--quaternionic", "1"],
        _ok(contains="quaternionic_entry_1"))
    add("ell_machine",
        ["ell", "-N", "3", "-k", "4", "-p", "8", "--quaternionic", "1", "--machine"],
        _machine(0, {}, _check_ell_blocks))

    # g2 at four levels: with the two oracle runs these are the slowest 20%
    # of jobs, so the 90th latency percentile falls inside this group
    for level, prec in ((5, 50), (7, 40), (8, 56), (10, 50)):
        add("g2", ["g2", "-N", str(level), "-p", str(prec)],
            _ok(last=f"g2 - 1/12 integral over Z[zeta,1/{level}]: True"))
        g1, g2 = modp.ghat(level, 1, prec), modp.ghat(level, 2, prec)
        g2_image = [(x - 2 * y) % modp.PRIME for x, y in zip(modp.convolve(g1, g1), g2)]
        add("g2_machine", ["g2", "-N", str(level), "-p", str(prec), "--machine"],
            _machine(0, {"congruence_mod_integral": "true"},
                     lambda b, l=level, e=g2_image: rows_image(l, block(b, "g2")) == e))

    # divcong on generated files, members and provable non-members
    for (level, weight, prec), case in cases.items():
        for member in (True, False):
            tag = f"{level}_{weight}_{prec}_{'in' if member else 'out'}_{len(out)}"
            f, g = tour.divcong_files(case, member, tag)
            base = ["divcong", f, g, "-N", str(level), "-w", str(weight), "--basis", bases]
            add("divcong", base, _ok(code=0 if member else 1,
                                     contains=f"verdict: {member}"))
            add("divcong_machine", base + ["--machine"],
                _machine(0 if member else 1, {"verdict": "true" if member else "false"},
                         (lambda b, l=level: modp.is_n_integral(l, block(b, "residual")))
                         if member else None))

    # assemble: the README's table, every kind, and an xi-table with eps values
    for kind, flag, level, l, prec in (
            (fassembly.COMPLEX_POSITIVE, "complex-reduced", 3, 3, 12),
            (fassembly.COMPLEX_FULL, "complex", 4, 1, 16),
            (fassembly.QUATERNIONIC, "quaternionic", 5, 3, 20),
            (fassembly.QUATERNIONIC_KERNEL_PARITY, "quaternionic-reduced", 3, 4, 24)):
        path, (const, _) = tour.xi_file(f"{flag}_{len(out)}", kind, level, l, prec, False)
        argv = ["assemble", "--kind", flag, "--xi", path, "-l", str(l), "-N", str(level),
                "-p", str(prec)]
        add("assemble", argv, _ok(last=f"weight bound: {l + 1}"))
        add("assemble_machine", argv + ["--machine"],
            _machine(0, {}, lambda b, l=level, e=const, f=flag:
                     rows_image(l, block(b, f"assembled[{f}]")) == e))
    path, _ = tour.xi_file(f"eps_{len(out)}", fassembly.COMPLEX_POSITIVE, 3, 3, 12, True)
    argv = ["assemble", "--kind", "complex-reduced", "--xi", path,
            "-l", "3", "-N", "3", "-p", "12"]
    add("assemble", argv, _ok(last="weight bound: 4"))
    # known defect: --machine cannot write the eps-part and exits 3
    add("assemble_machine_eps", argv + ["--machine"], _machine(0, {}), defect=True)

    # worked examples, human and --machine
    e_inv = Fraction(tour.rng.randint(1, 9), tour.rng.randint(2, 9))
    examples = [
        ("eta2", 3, 12, []), ("eta2", 4, 12, []), ("eta2", 5, 12, []),
        ("nu2", 3, 10, []), ("etasigma", 3, 20, []), ("su3", 3, 16, []),
        ("trivial", 3, 10, ["-e", fmt_fraction(e_inv)]),
    ]
    for name, level, prec, extra in examples:
        argv = ["example", name, "-N", str(level), "-p", str(prec), "--basis", bases] + extra
        add("example", argv, _ok(last="verdict: True"))
        # known defect: eta2's assembled series has an eps-part
        add("example_machine", argv + ["--machine"],
            _machine(0, {"verdict": "true"},
                     lambda b, n=name, l=level, p=prec:
                     _check_example_blocks(n, l, p, b, e_inv)),
            defect=(name == "eta2"))

    add("oracle", ["oracle"], _ok(contains="PASS"))
    add("oracle_machine", ["oracle", "--machine"], _ok(last="oracle_pass=true"))
    return out


def _check_ell_blocks(blocks) -> bool:
    for k in range(1, 5):
        fact = modp.rat(Fraction(1, math.factorial(k - 1)))
        expected = [x * fact % modp.PRIME for x in modp.ghat(3, k, 8)]
        if rows_image(3, block(blocks, f"x^{k}")) != expected:
            return False
    entry1 = block(blocks, "quaternionic_entry_1")
    target = [Fraction(-1, 240)] + [Fraction(-modp.sigma(n, 3)) for n in range(1, 8)]
    return [r[0] for r in entry1] == target and all(not any(r[1:]) for r in entry1)


def _check_example_blocks(name: str, level: int, prec: int, blocks, e_inv: Fraction) -> bool:
    assembled = rows_image(level, block(blocks, "assembled"))
    if name == "trivial":
        return assembled == [(-modp.rat(e_inv) * x) % modp.PRIME
                             for x in modp.ghat(level, 1, prec, True)]
    if name == "nu2":
        twelfth = modp.rat(Fraction(1, 12))
        return assembled == [x * twelfth % modp.PRIME for x in modp.ghat(level, 2, prec, True)]
    if name in ("etasigma", "su3"):
        reference = block(blocks, "reference")
        want = [Fraction(0)] + [Fraction(modp.sigma(n, 3), 2) for n in range(1, prec)]
        return [r[0] for r in reference] == want
    if name == "eta2":
        half = modp.rat(Fraction(1, 2))
        reference = rows_image(level, block(blocks, "reference"))
        return reference == [x * half % modp.PRIME for x in modp.ghat(level, 1, prec, True)]
    return False


def setup_tour(seed: int, workdir: Path) -> Workload:
    tour = Tour(seed, workdir)
    cases = {spec: LatticeCase(*spec) for spec in ((3, 4, 12), (3, 4, 20), (4, 4, 12))}
    passes = _tour_pass(tour, cases)
    jobs = []
    for state in ("cold", "warm"):
        for kind, argv, check, defect in passes:
            jobs.append(Job(f"{state}.{kind}", lambda a=argv: run_cli(a), check, defect))
    return Workload(jobs, tour.start_round, tour.close)


SETUPS = {"series": setup_series, "decide": setup_decide, "tour": setup_tour}
