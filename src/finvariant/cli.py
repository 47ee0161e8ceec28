"""Batch command-line front end.

Subcommands: eis, ell, g2, divcong, assemble, example, oracle.
Exit codes: 0 success / true verdict, 1 false verdict, 2 usage, 3 data error
(any DataError, or an unreadable input path), 4 internal error or output closed
early (never a verdict).

--machine output is the file format of `files`, so commands compose.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, cycle
from pathlib import Path
from typing import Optional, Sequence

from .divcong import (BasisError, EquivResult, ModularBasis, build_basis, default_generators,
                      dependent_entry, is_equivalent, make_lattice, policy_prec)
from .exactnum import DataError, _coprime_part, euler_phi
from .fassembly import (COMPLEX_FULL, COMPLEX_POSITIVE, EXAMPLES, QUATERNIONIC,
                        QUATERNIONIC_KERNEL_PARITY, assemble_complex, assemble_complex_reduced,
                        assemble_quaternionic, assemble_quaternionic_reduced,
                        check_example, run_example)
from .files import _ratio, read_basis, read_series, read_xi_table, write_series
from .genus import (_ell, _Product, _quaternionic_entries, ell_expansion, g2, g_hat,
                    g_tilde, numeric_taylor, series_value)
from .qseries import QSeries, series_row

ORACLE_TOLERANCE = 1e-8
_ORACLE_TAUS = (0.31j, 0.05 + 0.4j)


def _load_or_build_basis(level: int, weight: int, prec: int,
                         basis_dir: Path) -> ModularBasis:
    """The built-in generators' basis, which a file found must equal, else the file,
    which must hold the constant 1 as its only weight-0 entry and independent
    entries of each weight."""
    basis_prec = max(prec, policy_prec(level, weight))
    path = basis_dir / f"basis_N{level}_W{weight}_P{basis_prec}.txt"
    try:
        found = read_basis(path)
    except FileNotFoundError:  # only absence means "no file"
        return build_basis(level, weight, basis_prec)
    if found.level != level or found.maxweight < weight or found.prec < prec:
        raise DataError(f"{path}: basis file does not cover level {level}, "
                        f"weight {weight}, prec {prec}")
    try:
        generators = default_generators(level, basis_prec, weight)
    except BasisError:
        constants = found.of_weight(0)
        if len(constants) != 1 or constants[0].series != QSeries.one(level, found.prec):
            raise DataError(f"{path}: a basis file needs exactly one weight-0 entry, the constant 1")
        entry = dependent_entry(found)
        if entry is not None:
            raise DataError(f"{path}: basis entry '{entry.label}' is a rational combination "
                            f"of the weight-{entry.weight} entries before it")
        return found
    basis = build_basis(level, weight, basis_prec, generators)
    if found.entries != basis.entries:
        raise DataError(f"{path}: differs from the basis built from the generators")
    return basis


# ---------------------------------------------------------------------------
# Output helpers


def _print_series(series: QSeries, label: str, weight: Optional[int],
                  machine: bool) -> None:
    if machine:
        write_series(sys.stdout, series, weight, label)
        return
    # the stored parts over series.den: c/den in lowest terms reads the same over any den
    deg, den = euler_phi(series.level), series.den
    zs = ["" if t == 0 else "*z" if t == 1 else f"*z^{t}" for t in range(deg)]
    cells = [[_ratio(c, den) + z if c else "" for c, z in zip(p, cycle(zs))] for p in series.parts]
    lines = [f"{label} (level {series.level}, precision {series.prec}):"]
    for n in range(series.prec):
        terms = [" + ".join(filter(None, part[n * deg:(n + 1) * deg])) for part in cells]
        terms = [f"({t})*eps" if e else t for e, t in enumerate(terms) if t]
        lines.append(f"  q^{n}: {' + '.join(terms) or '0'}")
    print("\n".join(lines))


def _print_verdict(res: EquivResult, machine: bool) -> None:
    if machine:
        print(f"verdict={'true' if res.equivalent else 'false'}")
        print(f"modulus={res.modulus.replace(' ', '_')}")
    else:
        print(f"verdict: {res.equivalent}")
        print(f"modulus: {res.modulus}")


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


def _twelfth_off_integral(series: QSeries) -> bool:
    """is_integral_series(series - 1/12) of an eps-free series, read from its stored rows.

    The shift moves coordinate 0 of q^0 alone, v/D to (12v - D)/(12D). An entry
    v/D lies in Z[zeta, 1/N] exactly when the part of D prime to N divides v,
    whether or not v/D is in lowest terms; for the other entries, when it
    divides their gcd.
    """
    row, den = series_row(series, series.prec)
    return ((12 * row[0] - den) % _coprime_part(12 * den, series.level) == 0
            and math.gcd(*row[1:]) % _coprime_part(den, series.level) == 0)


def _cmd_g2(args) -> int:
    series = g2(args.level, args.prec)
    _print_series(series, "g2", 2, args.machine)
    ok = _twelfth_off_integral(series)
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


_ASSEMBLERS = {
    "complex": (COMPLEX_FULL, assemble_complex),
    "complex-reduced": (COMPLEX_POSITIVE, assemble_complex_reduced),
    "quaternionic": (QUATERNIONIC, assemble_quaternionic),
    "quaternionic-reduced": (QUATERNIONIC_KERNEL_PARITY,
                             assemble_quaternionic_reduced),
}


def _cmd_assemble(args) -> int:
    kind, assemble = _ASSEMBLERS[args.kind]
    rep = assemble(read_xi_table(Path(args.xi), kind, args.level, args.l, args.kind), args.prec)
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
    except (DataError, OSError) as exc:
        # DataError: any input the library refuses; OSError: an unreadable input path
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
