"""Batch command-line front end.

Subcommands: eis, ell, g2, divcong, assemble, example, oracle.
Exit codes: 0 success / true verdict, 1 false verdict, 2 usage, 3 data error,
4 internal error or output closed early (never a verdict).

Series and basis files share one line-oriented UTF-8 format: a header
``level=<N> weight=<k> prec=<P> label=<text>`` (each key once, in any order,
``label`` optional and without whitespace, no other key; ``weight=?`` for
plain series), then one line per q-coefficient: the index and phi(N) rationals
(any token ``fractions.Fraction`` reads, written as an integer or ``p/q`` with
an unsigned ``q``) separated by single spaces. ``#`` starts a comment. A
series with an eps-part is written as its eps^0 block followed by a block
labelled ``<label>.eps`` holding the eps^1 coefficients; in every file the
reader folds such a block into the block right before it, which must be the
``<label>`` block with no eps block yet (any other ``.eps`` block, stacked or
orphaned, is a data error). A series file holds one folded block; a basis
file is a sequence of eps-free blocks. Reader errors name ``file:line``.
Machine-readable output (``--machine``) emits exactly this format, so
commands compose.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from bisect import bisect_left
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, cycle
from math import gcd, lcm
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from .divcong import (BasisEntry, BasisError, EquivResult, ModularBasis,
                      PrecisionError, build_basis, default_generators,
                      dependent_entry, is_equivalent, make_lattice, policy_prec)
from .exactnum import CycNum, EpsPoly, LevelMismatchError, euler_phi
from .fassembly import (COMPLEX_FULL, COMPLEX_POSITIVE, EXAMPLES, QUATERNIONIC,
                        QUATERNIONIC_KERNEL_PARITY, MissingTwistError, XiTable,
                        assemble_complex, assemble_complex_reduced,
                        assemble_quaternionic, assemble_quaternionic_reduced,
                        check_example, run_example)
from .genus import (_ell, _Product, _quaternionic_entries, ell_expansion, g2, g_hat,
                    g_tilde, numeric_taylor, series_value)
from .qseries import (EpsPartError, QSeries, _linear_combination, eps_split,
                      is_integral_series, series_row)

ORACLE_TOLERANCE = 1e-8
_ORACLE_TAUS = (0.31j, 0.05 + 0.4j)


class DataError(ValueError):
    """Malformed input file or inconsistent data; maps to exit code 3."""


# ---------------------------------------------------------------------------
# Series / basis file format


def write_series(fh: TextIO, series: QSeries, weight: Optional[int],
                 label: str) -> None:
    """Write a series block, followed by a '<label>.eps' block for its eps^1 part."""
    parts = eps_split(series)
    w = "?" if weight is None else str(weight)
    deg = euler_phi(series.level)
    for part, name in zip(parts, (label, label + ".eps")):
        fh.write(f"level={part.level} weight={w} prec={part.prec} label={name}\n")
        row, den = series_row(part, part.prec)
        for n in range(part.prec):
            fh.write(f"{n} {' '.join(_ratio(c, den) for c in row[n * deg:(n + 1) * deg])}\n")


def _ratio(c: int, den: int) -> str:
    """c/den in lowest terms, as str(Fraction(c, den)) prints it."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


# coordinates as written: integers or p/q with an unsigned q, single-spaced
_WRITTEN = re.compile(r"[-+]?\d+(?:/\d+)?(?: [-+]?\d+(?:/\d+)?)*")


def _rational(tok: str, where: str) -> tuple[int, int]:
    """(num, den), den > 0, of Fraction(tok); no Fraction is made for an integer or p/q."""
    p, _, q = tok.partition("/")
    try:
        if _WRITTEN.fullmatch(tok) and int(q or 1):
            return int(p), int(q or 1)
        return Fraction(tok).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"{where}: bad rational {tok!r}") from exc


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line of a UTF-8 file, comments cut."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield line_no, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def read_blocks(path: Path) -> list[tuple[Optional[int], str, QSeries]]:
    """Parse a series/basis file into (weight, label, series) blocks.

    A header is any line whose first token holds '=' (a coefficient line
    starts with its integer index), so its keys may come in any order. A
    '<label>.eps' block holds the eps^1 part of the '<label>' block right
    before it, and folds into that block's series; a block whose label ends
    in '.eps' and follows anything else (no block, another label, or a block
    that already took its eps block) is refused.
    """
    lines = list(_data_lines(path))
    if not lines:
        raise DataError(f"{path}: no series blocks found")
    starts = [i for i, (_, line) in enumerate(lines) if "=" in line.split(None, 1)[0]]
    if not starts or starts[0]:
        raise DataError(f"{path}:{lines[0][0]}: coefficient line before any header")
    blocks: list[tuple[Optional[int], str, QSeries]] = []
    open_label = None  # the last block's label while it has no eps block
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        weight, label, series = _parse_block(path, lines[start], lines[start + 1:end])
        where = f"{path}:{lines[start][0]}"
        if not label.endswith(".eps"):
            blocks.append((weight, label, series))
            open_label = label
            continue
        if open_label is None or label != open_label + ".eps":
            raise DataError(f"{where}: eps block '{label}' does not follow its series block")
        const_weight, const_label, const = blocks[-1]
        if (const_weight, const.level, const.prec) != (weight, series.level, series.prec):
            raise DataError(f"{where}: eps block does not match its series block")
        blocks[-1] = (weight, const_label, _linear_combination(
            const.level, const.prec, (((1,), const), ((0, 1), series))))
        open_label = None
    return blocks


def _parse_block(path: Path, header: tuple[int, str],
                 rows: list[tuple[int, str]]) -> tuple[Optional[int], str, QSeries]:
    """(weight, label, series) of one block, from its numbered header and coefficient lines."""
    header_no, line = header
    level, prec, weight, label = _parse_header(line, path, header_no)
    if len(rows) != prec:
        raise DataError(f"{path}:{header_no}: block '{label}' has {len(rows)} "
                        f"coefficient lines, expected {prec}")
    deg = euler_phi(level)
    lines = [row.split() for _, row in rows]
    coords = [tok for toks in lines for tok in toks[1:]]
    # lines 'n c_1 .. c_deg' in order, all written, in one pass; else line by line
    with suppress(ValueError, ZeroDivisionError):  # a q = 0; int() past its digit limit
        if (_WRITTEN.fullmatch(text := " ".join(coords)) and all(len(t) == deg + 1 for t in lines)
                and [toks[0] for toks in lines] == list(map(str, range(prec)))):
            den = lcm(*map(int, re.findall(r"/(\d+)", text)))
            row = list(map(int, coords)) if den == 1 else [
                int(p) * (den // int(q or 1)) for p, _, q in (t.partition("/") for t in coords)]
            return weight, label, QSeries._of(level, prec, den, [row])
    pairs: list[tuple[int, int]] = []
    for n, ((line_no, _), toks) in enumerate(zip(rows, lines)):
        where = f"{path}:{line_no}"
        try:
            index = int(toks[0])
        except ValueError as exc:
            raise DataError(f"{where}: bad coefficient index {toks[0]!r}") from exc
        if index != n:
            raise DataError(f"{where}: block '{label}' out of order at index {index}")
        if len(toks) - 1 != deg:
            raise DataError(f"{where}: block '{label}' index {n}: "
                            f"{len(toks) - 1} coordinates, expected {deg}")
        pairs += (_rational(t, where) for t in toks[1:])
    den = lcm(*{d for _, d in pairs})
    return weight, label, QSeries._of(level, prec, den, [[x * (den // d) for x, d in pairs]])


def _parse_header(line: str, path: Path, line_no: int) -> tuple[int, int, Optional[int], str]:
    """(level, prec, weight, label) of a header line holding level, weight and prec
    once each and label at most once, every field 'key=value' (so a label holds
    no whitespace); weight None for 'weight=?'."""
    fields: dict[str, str] = {}
    for part in line.split():
        if "=" not in part:
            raise DataError(f"{path}:{line_no}: malformed header field {part!r}")
        key, value = part.split("=", 1)
        if key in fields or key not in ("level", "weight", "prec", "label"):
            kind = "repeated" if key in fields else "unknown"
            raise DataError(f"{path}:{line_no}: {kind} header key {key!r}")
        fields[key] = value
    try:
        level = int(fields["level"])
        prec = int(fields["prec"])
        weight = None if fields["weight"] == "?" else int(fields["weight"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}:{line_no}: malformed header {line!r}") from exc
    if level < 2 or prec < 1:
        raise DataError(f"{path}:{line_no}: level must be >= 2 and prec >= 1")
    if weight is not None and weight < 0:
        raise DataError(f"{path}:{line_no}: weight must be >= 0")
    return level, prec, weight, fields.get("label", "")


def read_series(path: Path) -> QSeries:
    """The series of a file holding a single block."""
    blocks = read_blocks(path)
    if len(blocks) != 1:
        raise DataError(f"{path}: expected a single series block, found {len(blocks)}")
    return blocks[0][2]


def read_basis(path: Path) -> ModularBasis:
    """A basis file: eps-free blocks of explicit weight, all at one level."""
    blocks = read_blocks(path)
    level = blocks[0][2].level
    entries = []
    for weight, label, series in blocks:
        if weight is None:
            raise DataError(f"{path}: basis blocks need explicit weights")
        if series.level != level:
            raise DataError(f"{path}: mixed levels in basis file")
        if not series.is_eps_free():
            raise DataError(f"{path}: basis entry '{label}' carries an eps part")
        entries.append(BasisEntry(weight, series, label))
    return ModularBasis(level, max(e.weight for e in entries),
                        min(e.series.prec for e in entries), tuple(entries))


def _load_or_build_basis(level: int, weight: int, prec: int,
                         basis_dir: Path) -> ModularBasis:
    """The built-in generators' basis, which a file found must equal, else the file."""
    basis_prec = max(prec, policy_prec(level, weight))
    path = basis_dir / f"basis_N{level}_W{weight}_P{basis_prec}.txt"
    try:
        path.open(encoding="utf-8").close()  # only absence means "no file"
    except FileNotFoundError:
        return build_basis(level, weight, basis_prec)
    found = read_basis(path)
    if found.level != level or found.maxweight < weight or found.prec < prec:
        raise DataError(f"{path}: basis file does not cover level {level}, "
                        f"weight {weight}, prec {prec}")
    try:
        generators = default_generators(level, basis_prec)
    except BasisError:
        _check_user_basis(found, path)
        return found
    basis = build_basis(level, weight, basis_prec, generators)
    if found.entries != basis.entries:
        raise DataError(f"{path}: differs from the basis built from the generators")
    return basis


def _check_user_basis(basis: ModularBasis, path: Path) -> None:
    """A user basis holds the constant 1 as its only weight-0 entry, and
    the entries of each weight are independent."""
    constants = basis.of_weight(0)
    if len(constants) != 1 or constants[0].series != QSeries.one(basis.level, basis.prec):
        raise DataError(f"{path}: a basis file needs exactly one weight-0 entry, the constant 1")
    entry = dependent_entry(basis)
    if entry is not None:
        raise DataError(f"{path}: basis entry '{entry.label}' is a rational combination "
                        f"of the weight-{entry.weight} entries before it")


# ---------------------------------------------------------------------------
# Output helpers


def _print_series(series: QSeries, label: str, weight: Optional[int],
                  machine: bool) -> None:
    if machine:
        write_series(sys.stdout, series, weight, label)
        return
    print(f"{label} (level {series.level}, precision {series.prec}):")
    deg = euler_phi(series.level)
    zs = ["" if t == 0 else "*z" if t == 1 else f"*z^{t}" for t in range(deg)]
    cells = [[_ratio(c, den) + z if c else "" for c, z in zip(row, cycle(zs))]
             for row, den in (series_row(part, part.prec) for part in eps_split(series))]
    for n in range(series.prec):
        terms = [" + ".join(filter(None, part[n * deg:(n + 1) * deg])) for part in cells]
        terms = [f"({t})*eps" if e else t for e, t in enumerate(terms) if t]
        print(f"  q^{n}: {' + '.join(terms) or '0'}")


def _print_verdict(res: EquivResult, machine: bool) -> None:
    if machine:
        print(f"verdict={'true' if res.equivalent else 'false'}")
        print(f"false_is_proof={'yes' if res.false_is_proof else 'no'}")
        print(f"modulus={res.modulus.replace(' ', '_')}")
    else:
        print(f"verdict: {res.equivalent}")
        print(f"modulus: {res.modulus}")
        if not res.false_is_proof:
            print("warning: precision below policy; a false verdict is not a proof")


def _print_certificate(res: EquivResult, lattice, machine: bool) -> None:
    cert = res.certificate
    if cert is None:
        return
    if machine:
        for entry, coeff in zip(lattice.basis.entries, cert.basis_coeffs):
            if coeff:
                print(f"cert basis {entry.label} {coeff}")
        print(f"cert gtilde {cert.gtilde_coeff} {cert.gtilde_eps_coeff}")
        write_series(sys.stdout, cert.residual, None, "residual")
        return
    print("certificate:")
    for entry, coeff in zip(lattice.basis.entries, cert.basis_coeffs):
        if coeff:
            print(f"  {coeff} * {entry.label} (weight {entry.weight})")
    if cert.gtilde_coeff or cert.gtilde_eps_coeff:
        print(f"  ({cert.gtilde_coeff} + {cert.gtilde_eps_coeff}*eps) * Gtilde")
    (row, _), deg = series_row(cert.residual, cert.residual.prec), euler_phi(cert.residual.level)
    nonzero = sum(any(row[i:i + deg]) for i in range(0, len(row), deg))
    print(f"  + integral residual ({nonzero} nonzero coefficients)")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eis(args) -> int:
    series = (g_tilde if args.tilde else g_hat)(args.level, args.weight, args.prec)
    name = ("Gtilde" if args.tilde else "Ghat") + f"_{args.weight}"
    _print_series(series, name, args.weight, args.machine)
    return 0


def _cmd_ell(args) -> int:
    c2_order = args.quaternionic
    x_order = args.order if c2_order is None else max(args.order, 2 * c2_order + 2)
    exp = ell_expansion(args.level, x_order, args.prec)
    for k in range(1, args.order + 1):
        _print_series(exp.x_coefficient(k), f"x^{k}", k, args.machine)
    if c2_order is not None:
        for j, entry in enumerate(_quaternionic_entries(exp, c2_order)):
            _print_series(entry, f"quaternionic_entry_{j}", 2 * j + 2, args.machine)
    return 0


def _cmd_g2(args) -> int:
    series = g2(args.level, args.prec)
    _print_series(series, "g2", 2, args.machine)
    shifted = series - Fraction(1, 12)
    ok = is_integral_series(shifted)
    if args.machine:
        print(f"congruence_mod_integral={'true' if ok else 'false'}")
    else:
        print(f"g2 - 1/12 integral over Z[zeta,1/{args.level}]: {ok}")
    return 0 if ok else 1


def _cmd_divcong(args) -> int:
    F = read_series(Path(args.series_f))
    G = read_series(Path(args.series_g))
    for path, series in ((args.series_f, F), (args.series_g, G)):
        if series.level != args.level:
            raise DataError(f"{path}: series level {series.level} does not match -N {args.level}")
    prec = args.prec or min(F.prec, G.prec)
    basis = _load_or_build_basis(args.level, args.weight, prec, Path(args.basis))
    use_gtilde = not args.no_gtilde and args.weight >= 1
    gtilde = g_tilde(args.level, args.weight, prec) if use_gtilde else None
    lattice = make_lattice(args.level, args.weight, prec, gtilde=gtilde, basis=basis)
    res = is_equivalent(F, G, lattice)
    _print_verdict(res, args.machine)
    _print_certificate(res, lattice, args.machine)
    return 0 if res.equivalent else 1


def _read_xi_table(path: Path, name: str, level: int, l: int) -> XiTable:
    kind, pad = _ASSEMBLERS[name][0], (0,) * (euler_phi(level) - 1)
    entries = {}
    for line_no, line in _data_lines(path):
        toks = line.split()
        if len(toks) not in (2, 3):
            raise DataError(f"{path}:{line_no}: expected 'd value [eps-value]'")
        try:
            d = int(toks[0])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad twist index {toks[0]!r}") from exc
        if d in entries:
            raise DataError(f"{path}:{line_no}: repeated twist index {d}")
        entries[d] = EpsPoly(level, [CycNum._of(level, den, (num,) + pad) for num, den in
                                     (_rational(t, f"{path}:{line_no}") for t in toks[1:])])
        if d == 0:
            raise DataError(f"{path}:{line_no}: twist index 0 is not allowed")
        if d < 0 and kind != COMPLEX_FULL:
            raise DataError(f"{path}:{line_no}: --kind {name} takes positive twist indices only")
    if not entries:
        raise DataError(f"{path}: empty xi table")
    try:
        return XiTable(kind, level, l, entries)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


_ASSEMBLERS = {
    "complex": (COMPLEX_FULL, assemble_complex),
    "complex-reduced": (COMPLEX_POSITIVE, assemble_complex_reduced),
    "quaternionic": (QUATERNIONIC, assemble_quaternionic),
    "quaternionic-reduced": (QUATERNIONIC_KERNEL_PARITY,
                             assemble_quaternionic_reduced),
}


def _cmd_assemble(args) -> int:
    table = _read_xi_table(Path(args.xi), args.kind, args.level, args.l)
    rep = _ASSEMBLERS[args.kind][1](table, args.prec)
    _print_series(rep.series, f"assembled[{args.kind}]", None, args.machine)
    if not args.machine:
        print(f"weight bound: {rep.weight_bound}")
    return 0


def _cmd_example(args) -> int:
    check_example(args.name, args.level)  # before a basis is loaded or built
    spec = EXAMPLES[args.name]
    basis = None
    if spec:
        basis = _load_or_build_basis(args.level, spec[0], args.prec, Path(args.basis))
    report = run_example(args.name, args.level, args.prec,
                         e_invariant=args.e_invariant, basis=basis)
    if args.machine:
        print(f"example={args.name} level={args.level} prec={args.prec}")
        print(f"verdict={'true' if report.verdict else 'false'}")
        if report.equivalence is not None:
            print(f"false_is_proof={'yes' if report.equivalence.false_is_proof else 'no'}")
        write_series(sys.stdout, report.assembled.series, None, "assembled")
        write_series(sys.stdout, report.reference.series, None, "reference")
    else:
        print(f"example {args.name} at level {args.level}, precision {args.prec}")
        for key, value in report.details.items():
            print(f"  {key}: {value}")
        _print_series(report.assembled.series, "assembled", None, False)
        _print_series(report.reference.series, "reference", None, False)
        if report.equivalence is not None:
            _print_verdict(report.equivalence, False)
        print(f"verdict: {report.verdict}")
    return 0 if report.verdict else 1


def _cmd_oracle(args) -> int:
    p_min = _oracle_min_prec(args.max_weight)
    if args.prec < p_min:
        raise ValueError(f"oracle needs -p >= {p_min} at -k {args.max_weight}: a shorter "
                         f"series drops a q-tail above the tolerance {ORACLE_TOLERANCE}")
    levels = [args.level] if args.level else [2, 3]
    products = [_Product(tau) for tau in _ORACLE_TAUS]
    worst = 0.0
    for level in levels:
        exp = ell_expansion(level, args.max_weight, args.prec)
        series = [exp.x_coefficient(k) for k in range(1, args.max_weight + 1)]
        for tau, phi in zip(_ORACLE_TAUS, products):
            coeffs = numeric_taylor(_ell(level, phi), args.max_weight)
            for k, f in enumerate(series, 1):
                err = abs(coeffs[k] - series_value(f, tau))
                worst = max(worst, err)
                if args.machine:
                    print(f"oracle level={level} tau={tau} k={k} err={err:.3e}")
    ok = worst < ORACLE_TOLERANCE
    if args.machine:
        print(f"oracle_max_err={worst:.3e}")
        print(f"oracle_pass={'true' if ok else 'false'}")
    else:
        print(f"max |numeric - exact| over Taylor orders: {worst:.3e} "
              f"({'PASS' if ok else 'FAIL'} at {ORACLE_TOLERANCE})")
    return 0 if ok else 1


def _oracle_min_prec(max_weight: int) -> int:
    """Least P whose dropped q-tail stays below half the oracle's tolerance.

    The q^n coefficient of x^k in Ell(x) is at most 2 sigma_(k-1)(n)/(k-1)!
    <= 2 n^k/(k-1)! in absolute value, so P must give sum_{n>=P} 2 n^k |q|^n/(k-1)!
    < ORACLE_TOLERANCE/2 for every k <= max_weight, at the largest |q| of the
    oracle's tau values. Past n = 2k/log(1/|q|) the terms shrink by more than
    half a step, so each sum stops there once a term is below 2^-40 of the bound.
    """
    log_q = max(-2 * math.pi * tau.imag for tau in _ORACLE_TAUS)
    bound, p_min = ORACLE_TOLERANCE / 2, 1
    for k in range(1, max_weight + 1):
        log_fact, terms = math.lgamma(k), [0.0]
        while len(terms) * -log_q <= 2 * k or terms[-1] >= bound * 2.0 ** -40:
            n = len(terms)
            terms.append(2 * math.exp(k * math.log(n) + n * log_q - log_fact))
        # tails[i] sums the last i + 1 terms, the tail from n = len(terms) - 1 - i
        tails = list(accumulate(reversed(terms)))
        p_min = max(p_min, len(terms) - bisect_left(tails, bound))
    return p_min


# ---------------------------------------------------------------------------
# Argument parsing


def _level_arg(value: str) -> int:
    n = int(value)
    if n < 2:
        raise argparse.ArgumentTypeError("level must be an integer >= 2")
    return n


def _positive_arg(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _nonnegative_arg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return n


def _fraction_arg(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational p/q, got {value!r}") from exc


_BASIS_HELP = "directory of user basis files for levels without built-in generators"


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finv",
        description="Exact q-expansion workbench for transfer f-invariant representatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prec_default=10, level_default=3):
        p.add_argument("-N", "--level", type=_level_arg, default=level_default,
                       help="cyclotomic level (>= 2)")
        p.add_argument("-p", "--prec", type=_positive_arg, default=prec_default,
                       help="q-expansion precision (coefficients q^0..q^(p-1))")
        p.add_argument("--machine", action="store_true",
                       help="line-stable machine-readable output")

    p = sub.add_parser("eis", help="print a level-N Eisenstein-type series")
    common(p)
    p.add_argument("-k", "--weight", type=_positive_arg, required=True)
    p.add_argument("--tilde", action="store_true",
                   help="remove the constant term")
    p.set_defaults(func=_cmd_eis)

    p = sub.add_parser("ell", help="print the genus expansion coefficients")
    common(p)
    p.add_argument("-k", "--order", type=_positive_arg, default=4,
                   help="highest x-power")
    p.add_argument("--quaternionic", type=_nonnegative_arg, default=None, metavar="ORDER",
                   help="also print the quaternionic expansion entries 0..ORDER")
    p.set_defaults(func=_cmd_ell)

    p = sub.add_parser("g2", help="print the weight-two combination and its congruence")
    common(p, prec_default=50)
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("divcong", help="decide equivalence modulo the indeterminacy lattice")
    common(p)
    p.add_argument("series_f", help="series file F")
    p.add_argument("series_g", help="series file G")
    p.add_argument("-w", "--weight", type=_nonnegative_arg, required=True,
                   help="weight bound of the lattice")
    p.add_argument("--basis", default="./bases", help=_BASIS_HELP)
    p.add_argument("--no-gtilde", action="store_true",
                   help="drop the R*Gtilde direction from the lattice")
    p.set_defaults(func=_cmd_divcong, prec=None)

    p = sub.add_parser("assemble", help="assemble a representative from a xi table")
    common(p)
    p.add_argument("--kind", choices=sorted(_ASSEMBLERS), required=True)
    p.add_argument("--xi", required=True, help="xi table file: 'd value [eps-value]' lines")
    p.add_argument("-l", type=_positive_arg, required=True,
                   help="half-dimension parameter of the base")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("example", help="run a worked example end to end")
    common(p)
    p.add_argument("name", choices=sorted(EXAMPLES))
    p.add_argument("-e", "--e-invariant", type=_fraction_arg, default="1",
                   help="rational e-invariant input for the trivial example")
    p.add_argument("--basis", default="./bases", help=_BASIS_HELP)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("oracle", help="compare exact series against the numeric genus")
    common(p, prec_default=60, level_default=None)
    p.add_argument("-k", "--max-weight", type=_positive_arg, default=6)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left before the verdict was written; stdout goes to
        # devnull so that the interpreter's last flush fails silently too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    except (DataError, OSError, BasisError, PrecisionError,
            LevelMismatchError, EpsPartError, MissingTwistError) as exc:
        # OSError: an unreadable input path
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure is a defect, and must never read as a false verdict
        message = str(exc).removesuffix(" (internal error)")
        if not isinstance(exc, AssertionError):
            message = f"{type(exc).__name__}: {message}"
        print(f"internal error: {message}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
