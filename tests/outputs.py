"""The output manifest: every command below, run through `finv`'s `main`, hashed.

    python tests/outputs.py

runs a fixed command list in process, in a fresh temporary directory, with
the input files it writes there named by relative paths (so no output or
error text holds a varying path), and rewrites tests/outputs.sha256: one
line per command, ``<exit code> <sha256 of stdout> <sha256 of stderr>
<command>``. Two kinds of command record their exit code alone (``-`` for
both hashes): `oracle`, whose output is floating point, and a usage error
that argparse reports, whose text varies across Python versions. The file is
committed, and Tier-1 (tests/test_outputs.py) compares `manifest_lines()`
with it, naming every command whose line changed, was added or is missing;
after a deliberate change, rerun this script and commit the file. finvariant
is imported from this checkout's src/. The script takes no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from finvariant.cli import main  # noqa: E402
from conftest import mixed_weight_witness  # noqa: E402
from finvariant.divcong import BasisEntry, build_basis  # noqa: E402
from finvariant.exactnum import CycNum  # noqa: E402
from finvariant.files import write_series  # noqa: E402
from finvariant.genus import g_hat, g_tilde  # noqa: E402
from finvariant.qseries import QSeries  # noqa: E402

MANIFEST = ROOT / "tests" / "outputs.sha256"
KINDS = {"complex": 1, "complex-reduced": 3, "quaternionic": 3, "quaternionic-reduced": 4}


def _write(name: str, series: QSeries) -> None:
    with open(name, "w", encoding="utf-8") as fh:
        write_series(fh, series, None, name.removesuffix(".txt"))


def _write_basis(directory: str, entries) -> None:
    os.mkdir(directory)
    with open(f"{directory}/basis_N5_W2_P12.txt", "w", encoding="utf-8") as fh:
        for e in entries:
            write_series(fh, e.series, e.weight, e.label)


def write_inputs() -> None:
    """The series, basis and xi-table files the commands read, in the working directory."""
    gt2 = g_tilde(3, 2, 12)
    _write("nu2_F.txt", gt2 * Fraction(1, 12))
    _write("nu2_G.txt", gt2 * gt2 * Fraction(1, 2))
    _write("zero3.txt", QSeries.zero(3, 12))
    _write("zero5.txt", QSeries.zero(5, 12))
    # item 2: 1/2 q^5 against 0 at N = 3, w = 2
    _write("half_q5.txt", QSeries(3, 12, [0] * 5 + [Fraction(1, 2)]))
    # item 4(b): rational and zeta_3 multiples of span members, over 7
    z7 = CycNum(3, [0, Fraction(1, 7)])
    _write("ghat2_7.txt", g_hat(3, 2, 12) * Fraction(1, 7))
    _write("zeta_ghat2_7.txt", g_hat(3, 2, 12) * z7)
    _write("zeta_ghat1sq_7.txt", g_hat(3, 1, 12) * g_hat(3, 1, 12) * z7)
    _write("zeta_7.txt", QSeries(3, 12, [z7]))
    # item 4: the level-5 user basis, with and without Ghat2
    _write("ghat2_5_7.txt", g_hat(5, 2, 12) * Fraction(1, 7))
    gens = [(1, "Ghat1", g_hat(5, 1, 12)), (2, "Ghat2", g_hat(5, 2, 12))]
    entries = build_basis(5, 2, 12, generators=gens).entries
    _write_basis("bases5", entries)
    _write_basis("bases5_short", [e for e in entries if e.label != "Ghat2"])
    # tests/cli_smoke.sh's level-5 basis, whose Ghat2 carries q^3/7: without
    # Gtilde, q^3/7 (D) is a member and q^3/7 + q^4/7 (N) is not, decided in
    # the local case modulo 7
    q3_7 = QSeries(5, 12, [0, 0, 0, Fraction(1, 7)])
    _write_basis("U", [BasisEntry(2, e.series + q3_7, "Ghat2_q3") if e.label == "Ghat2" else e
                       for e in entries])
    _write("Y.txt", QSeries.zero(5, 12))
    _write("D.txt", q3_7)
    _write("N.txt", q3_7 + QSeries(5, 12, [0, 0, 0, 0, Fraction(1, 7)]))
    # item 21: u/7, of weights 1..5, against 0 at N = 3, w = 6
    _write("u_7.txt", mixed_weight_witness(44) * Fraction(1, 7))
    _write("zero3_44.txt", QSeries.zero(3, 44))
    with open("xi.txt", "w", encoding="utf-8") as fh:  # the README tour's table
        fh.writelines(f"{d} -{d}/12 1/{d + 1}\n" for d in range(1, 12))
    with open("circle.txt", "w", encoding="utf-8") as fh:  # xi_d = 1/2 - d*eps
        fh.writelines(f"{d} 1/2 {-d}\n" for d in range(1, 12))
    for kind, signs in (("complex", (1, -1)), ("positive", (1,))):
        for eps in ("", "_eps"):
            with open(f"{kind}{eps}.txt", "w", encoding="utf-8") as fh:
                for d in [s * j for j in range(1, 12) for s in signs]:
                    value = f"{d * d % 7 - 3}/{abs(d) % 4 + 1}"
                    fh.write(f"{d} {value} {d if d % 2 else -d}/5\n" if eps else f"{d} {value}\n")


def commands() -> list[tuple[str, bool]]:
    """(command line, whether it records the exit code alone), in manifest order."""
    cmds = [
        # the README tour
        "eis -N 3 -k 2 -p 5",
        "eis -N 3 -k 2 -p 10 --tilde --machine",
        "ell -N 3 -k 4 -p 8 --quaternionic 1",
        "g2 -N 5 -p 50",
        "divcong nu2_F.txt nu2_G.txt -N 3 -w 4",
        "assemble --kind complex-reduced --xi xi.txt -l 3 -N 3 -p 12 --machine",
        "example eta2 -N 3 -p 12",
        "example nu2 -N 3 -p 10",
        "example etasigma -N 3 -p 20",
        "example su3 -N 3 -p 16",
        "example trivial -N 3 -e 5/7",
        "example eta2 -N 5 -p 12 --basis bases5",
        "oracle",
    ]
    for name in ("trivial", "eta2", "nu2", "etasigma", "su3"):
        cmds += [f"example {name} -N 3 -p 12", f"example {name} -N 3 -p 12 --machine"]
    cmds += [f"eis -N {n} -k {k} -p 60{tilde}"
             for n in range(2, 14) for k in range(1, 5) for tilde in ("", " --tilde")]
    cmds += [f"g2 -N {n}" for n in range(2, 14)]
    cmds += [f"ell -N {n} -k 4 -p 30 --quaternionic 1 --machine" for n in range(2, 14)]
    # larger --machine shapes: the ell line's p_4^2 needs Kronecker slots of
    # more than 8 bytes
    cmds += [
        "g2 -N 7 -p 200 --machine",
        "ell -N 7 -k 8 -p 200 --quaternionic 3 --machine",
        "example nu2 -N 3 -p 16 --machine",
        "eis -N 12 -k 1 -p 200 --tilde --machine",
        "eis -N 7 -k 3 -p 150 --machine",
        "example trivial -N 3 -p 40 -e 2/7 --machine",
    ]
    for kind, l in KINDS.items():
        for table in (f"{'complex' if kind == 'complex' else 'positive'}{eps}.txt"
                      for eps in ("", "_eps")):
            cmds += [f"assemble --kind {kind} --xi {table} -l {l} -N 3 -p 12",
                     f"assemble --kind {kind} --xi {table} -l {l} -N 7 -p 12 --machine"]
    cmds += [
        "assemble --kind quaternionic-reduced --xi positive.txt -l 2 -N 3 -p 12",
        "assemble --kind quaternionic --xi complex.txt -l 3 -N 3 -p 12",
        "assemble --kind complex-reduced --xi circle.txt -l 1 -N 3 -p 12 --machine",
        "divcong nu2_F.txt nu2_G.txt -N 3 -w 4 -p 12 --machine",
    ]
    # item 2: false on each side of policy_prec(3, 2) = 7, and a human false below it
    cmds += [f"divcong half_q5.txt zero3.txt -N 3 -w 2 -p {p} --machine" for p in (6, 7, 12)]
    cmds += ["divcong half_q5.txt zero3.txt -N 3 -w 2 -p 6"]
    # item 4(b): the span field at a built-in level
    cmds += [f"divcong {f} zero3.txt -N 3 -w 2 -p 12 --machine"
             for f in ("ghat2_7.txt", "zeta_ghat2_7.txt", "zeta_ghat1sq_7.txt", "zeta_7.txt")]
    # item 4: an incomplete user basis, and the complete one
    cmds += [f"divcong ghat2_5_7.txt zero5.txt -N 5 -w 2 -p 12 --no-gtilde --machine --basis {b}"
             for b in ("bases5_short", "bases5")]
    # the local case: the solve modulo 7 through U's Ghat2_q3
    cmds += [f"divcong {f} Y.txt -N 5 -w 2 --no-gtilde --machine --basis U"
             for f in ("D.txt", "N.txt")]
    # item 21: true at policy_prec(3, 6) = 9, false at 14 and 44
    cmds += [f"divcong u_7.txt zero3_44.txt -N 3 -w 6 -p {p} --machine{g}"
             for p in (9, 14, 44) for g in ("", " --no-gtilde")]
    # exit codes 1 and 3 with their messages, and usage errors
    cmds += [
        "divcong half_q5.txt zero3.txt -N 3 -w 0 -p 12",
        "divcong half_q5.txt zero5.txt -N 3 -w 2",
        "example eta2 -N 7 -p 12",
        "example nu2 -N 6 -p 8",
        "oracle -k 4 -p 14",
        "eis -N 3 -k 2 -p 0",
        "eis -N 1 -k 2",
    ]
    code_only = {"oracle", "oracle -k 4 -p 14", "eis -N 3 -k 2 -p 0", "eis -N 1 -k 2"}
    return [(cmd, cmd in code_only) for cmd in cmds]


def run(cmd: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `finv cmd` through main, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(cmd.split())
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def manifest_lines() -> list[str]:
    """The manifest's lines, from every command run in a fresh temporary
    directory; the working directory is restored afterwards."""
    lines = []
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            write_inputs()
            for cmd, code_only in commands():
                code, out, err = run(cmd)
                hashes = "- -" if code_only else f"{_sha(out)} {_sha(err)}"
                lines.append(f"{code} {hashes} finv {cmd}\n")
        finally:
            os.chdir(cwd)
    return lines


def main_manifest() -> None:
    start = time.perf_counter()
    lines = manifest_lines()
    MANIFEST.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} commands in {time.perf_counter() - start:.1f} s; wrote {MANIFEST.name}")


if __name__ == "__main__":
    main_manifest()
