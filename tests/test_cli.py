"""Command-line front end: subcommands, file formats, exit codes, determinism."""

import contextlib
import importlib
import io
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import level5_user_basis, random_series
import finvariant
from finvariant import cli, divcong, genus, geometry
from finvariant.cli import main
from finvariant.divcong import BasisEntry, ModularBasis, build_basis
from finvariant.exactnum import CycNum, EpsPoly, euler_phi
from finvariant.fassembly import COMPLEX_POSITIVE
from finvariant.files import (DataError, read_basis, read_blocks, read_series,
                              read_xi_table, write_series)
from finvariant.genus import g_tilde
from finvariant.qseries import EpsPartError, QSeries, is_integral_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eis / ell / g2


def test_eis_golden_output(capsys):
    code, out, _ = run_cli(capsys, "eis", "-N", "3", "-k", "2", "-p", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].strip() == "q^0: 1/12"
    # golden coefficients frozen after the numeric oracle passed
    assert [l.split(":")[1].strip() for l in lines[2:]] == ["1", "3", "1", "7"]


def test_eis_level2_weight1_zero(capsys):
    code, out, _ = run_cli(capsys, "eis", "-N", "2", "-k", "1", "-p", "4")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(":")[1].strip() == "0"


def test_eis_usage_error_on_bad_level(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eis", "-N", "1", "-k", "2"])
    assert exc.value.code == 2


def test_zero_precision_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eis", "-N", "3", "-k", "2", "-p", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "expected a positive integer" in captured.err


def test_ell_negative_quaternionic_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ell", "-N", "3", "-k", "2", "-p", "3", "--quaternionic", "-1", "--machine"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_ell_quaternionic_order_zero_is_valid(capsys):
    code, out, _ = run_cli(capsys, "ell", "-N", "3", "-k", "2", "-p", "3",
                           "--quaternionic", "0", "--machine")
    assert code == 0
    assert "label=quaternionic_entry_0" in out


@pytest.mark.parametrize("order, c2_order, x_order", [(2, None, 2), (2, 0, 2), (2, 1, 4),
                                                      (7, 2, 7), (3, 3, 8)])
def test_ell_builds_one_expansion(monkeypatch, capsys, order, c2_order, x_order):
    # the x-coefficients and the quaternionic entries read one expansion,
    # as long as the longer of the two needs
    built = []
    expand = cli.ell_expansion
    monkeypatch.setattr(cli, "ell_expansion",
                        lambda *args: built.append(args) or expand(*args))
    argv = ["ell", "-N", "5", "-k", str(order), "-p", "6", "--machine"]
    if c2_order is not None:
        argv += ["--quaternionic", str(c2_order)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and built == [(5, x_order, 6)]
    labels = [line.split("label=")[1] for line in out.splitlines() if "label=" in line]
    entries = [] if c2_order is None else [f"quaternionic_entry_{j}" for j in range(c2_order + 1)]
    assert labels == [f"x^{k}" for k in range(1, order + 1)] + entries


def test_machine_mode_deterministic(capsys):
    _, first, _ = run_cli(capsys, "ell", "-N", "3", "-k", "3", "-p", "6",
                          "--quaternionic", "1", "--machine")
    _, second, _ = run_cli(capsys, "ell", "-N", "3", "-k", "3", "-p", "6",
                           "--quaternionic", "1", "--machine")
    assert first == second
    assert first.startswith("level=3 weight=1 prec=6 label=x^1")


def test_g2_congruence_exit(capsys):
    code, out, _ = run_cli(capsys, "g2", "-N", "5", "-p", "30", "--machine")
    assert code == 0
    assert "congruence_mod_integral=true" in out


def test_g2_congruence_read_from_the_rows():
    # the rows' check against is_integral_series of the series it no longer builds,
    # g2 - 1/12; false for an added q/7 unless 7 | N and for a q^0 off by 1/5 unless 5 | N
    for level, prec in ((2, 10), (3, 12), (4, 9), (5, 30), (6, 8), (7, 20), (10, 12), (12, 6)):
        series = genus.g2(level, prec)
        cases = [series, series + QSeries(level, prec, [0, Fraction(1, 7)]),
                 series + Fraction(1, 5), series - Fraction(1, 12),
                 QSeries.zero(level, prec), QSeries.one(level, 1)]
        got = [cli._twelfth_off_integral(f) for f in cases]
        assert got == [is_integral_series(f - Fraction(1, 12)) for f in cases], level
        assert got[:3] == [True, level % 7 == 0, level % 5 == 0], level
        eps = series + EpsPoly.linear(level, 0, 1)
        for check in (cli._twelfth_off_integral, is_integral_series):
            with pytest.raises(EpsPartError):
                check(eps - Fraction(1, 12) if check is is_integral_series else eps)


# ---------------------------------------------------------------------------
# series and basis files


def test_series_round_trip(tmp_path):
    f = g_tilde(3, 2, 8)
    path = tmp_path / "series.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_series(fh, f, 2, "gt2")
    assert read_series(path) == f
    blocks = read_blocks(path)
    assert blocks[0][2] == 2 and blocks[0][3] == "gt2"


def test_written_coordinates_print_as_fractions(tmp_path):
    # each coordinate is c//g or c//g/den//g with g = gcd(c, den), as str(Fraction) prints it
    rng = random.Random(31)
    values = [Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-2 ** 70 + 1, 3 ** 40)]
    values += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 360)) for _ in range(40)]
    f = QSeries(5, len(values) // 4, [CycNum(5, values[i:i + 4]) for i in range(0, len(values), 4)])
    f = f + f * EpsPoly.linear(5, 0, Fraction(1, 7))
    path = tmp_path / "series.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_series(fh, f, None, "F")
    lines = path.read_text(encoding="utf-8").splitlines()
    want = [[Fraction(x) for x in values[i:i + 4]] for i in range(0, len(values), 4)]
    for block, scale in ((lines[1:12], 1), (lines[13:], Fraction(1, 7))):
        assert [line.split()[1:] for line in block] == \
            [[str(x * scale) for x in row] for row in want]
    assert read_series(path) == f


@pytest.mark.parametrize("level", range(2, 13))
def test_human_series_text_is_the_coefficient_text(capsys, level):
    # the row printer against EpsPoly.__str__, one q-power a line
    rng = random.Random(4100 + level)
    deg = euler_phi(level)
    plain = random_series(rng, level, 6)  # negative entries, several denominators
    eps = EpsPoly.linear(level, 0, 1)
    only_eps = QSeries(level, 3, [0, EpsPoly(level, (CycNum.zero(level),
                                                     CycNum(level, [Fraction(-1, 3)])))])
    # den 6 is neither coordinate's own denominator, and zero coordinates are skipped
    mixed = QSeries(level, 3, [Fraction(1, 2), CycNum(level, [0] * (deg - 1) + [Fraction(-1, 3)])])
    for f in (plain, plain + random_series(rng, level, 6) * eps, only_eps, mixed,
              mixed + mixed * eps, QSeries.zero(level, 4)):
        cli._print_series(f, "F", None, False)
        assert capsys.readouterr().out.splitlines() == \
            [f"F (level {level}, precision {f.prec}):"] + \
            [f"  q^{n}: " + str(f.coefficient(n)) for n in range(f.prec)]


def _write_basis_file(path, basis):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in basis.entries:
            write_series(fh, entry.series, entry.weight, entry.label)


def test_basis_round_trip_bit_exact(tmp_path):
    basis = build_basis(3, 4, 10)
    path = tmp_path / "basis.txt"
    _write_basis_file(path, basis)
    first = path.read_bytes()
    loaded = read_basis(path)
    assert loaded.level == basis.level
    assert loaded.prec == basis.prec
    assert [(e.weight, e.label) for e in loaded.entries] == \
        [(e.weight, e.label) for e in basis.entries]
    for a, b in zip(loaded.entries, basis.entries):
        assert a.series == b.series
    # writing the loaded basis reproduces the file byte for byte
    path2 = tmp_path / "basis2.txt"
    _write_basis_file(path2, loaded)
    assert path2.read_bytes() == first


def test_truncated_file_reports_block(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("level=3 weight=2 prec=4 label=x\n0 1 0\n1 2 0\n",
                    encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read_series(path)
    assert "2 coefficient lines, expected 4" in str(exc.value)


def test_out_of_order_coefficients_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("level=3 weight=? prec=2 label=x\n1 0 0\n0 1 0\n",
                    encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read_series(path)
    assert "out of order" in str(exc.value)


def test_malformed_rational_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("level=3 weight=? prec=1 label=x\n0 1/q 0\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read_series(path)
    assert ":2" in str(exc.value)


def _reads_as_fraction_does(path, level, rows):
    """A level-N block of the token rows reads to Fraction(t) for every token t,
    or exits 3 naming the line and the first token that Fraction refuses."""
    path.write_text(f"level={level} weight=? prec={len(rows)} label=T\n"
                    + "".join(f"{n} {' '.join(row)}\n" for n, row in enumerate(rows)),
                    encoding="utf-8")
    values = []
    for n, row in enumerate(rows):
        for tok in row:
            try:
                values.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(["divcong", str(path), str(path), "-N", str(level), "-w", "0"])
                assert (code, err.getvalue()) == \
                    (3, f"error: {path}:{n + 2}: bad rational {tok!r}\n")
                return
    deg = euler_phi(level)
    assert read_series(path) == QSeries(level, len(rows), [
        CycNum(level, values[i:i + deg]) for i in range(0, len(values), deg)])


@pytest.mark.parametrize("tok", [
    "0", "-0", "+3", "-7", "2/14", "-2/14", "007/010", "0.5", "-0.5", ".5", "5.", "1e-3",
    "-1.5E2", "1_000", "1/2_0", "\u0663", "-\u0661\u0662/\u0663", "3/+4", "3/-4", "1/0",
    "1/00", "3/4/5", "1/", "/2", "+-1", "1__0", "_1", "e3", "1.2.3", "abc", "1/q", "0x10",
    pytest.param("1" * 5000, id="5000-digit-integer"),
    pytest.param("1/" + "1" * 5000, id="5000-digit-denominator")])
def test_coordinate_tokens_read_as_fraction_reads_them(tmp_path, tok):
    # the oracle is fractions.Fraction, on this Python: the reader's token
    # language and values are Fraction's, written integers and p/q or not
    _reads_as_fraction_does(tmp_path / "T.txt", 2, [[tok]])


def test_coordinate_tokens_read_as_fraction_reads_them_hypothesis(tmp_path):
    # blocks that mix written tokens with any others, two to a level-3 line
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    written = st.from_regex(r"[-+]?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)
    other = st.text(alphabet="0123456789+-/._e\u0663", min_size=1, max_size=8)
    tokens = st.one_of(written, other)
    rows = st.lists(st.lists(tokens, min_size=2, max_size=2), min_size=1, max_size=3)
    path = tmp_path / "T.txt"

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(rows)
    def check(token_rows):
        _reads_as_fraction_does(path, 3, token_rows)

    check()


def test_reading_written_tokens_makes_no_fraction(tmp_path, monkeypatch):
    # integer and p/q tokens read straight into integer rows, in series files
    # (an eps block too) and xi tables alike
    g = g_tilde(7, 2, 30)
    f = g * Fraction(1, 7) + g * EpsPoly.linear(7, 0, Fraction(2, 5))
    path, xi_path = tmp_path / "F.txt", tmp_path / "xi.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_series(fh, f, 2, "F")
    xi_path.write_text("1 1/3 -2\n2 5 7/4\n3 -1/2\n", encoding="utf-8")
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = read_series(path)
    table = read_xi_table(xi_path, COMPLEX_POSITIVE, 3, 1, "complex-reduced")
    assert calls == []
    Fraction(1, 3)  # the counter counts
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == f
    assert table.entries == {1: EpsPoly.linear(3, Fraction(1, 3), -2),
                             2: EpsPoly.linear(3, 5, Fraction(7, 4)),
                             3: EpsPoly.rational(3, Fraction(-1, 2))}


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(
        "# leading comment\nlevel=3 weight=? prec=2 label=f\n\n"
        "0 1/2 0  # constant\n1 0 1\n", encoding="utf-8")
    f = read_series(path)
    assert f.coefficient(0).coefficient(0).coords[0] == Fraction(1, 2)


@pytest.mark.parametrize("eps_header", [
    "level=3 weight=? prec=2 label=x.eps",
    "weight=? level=3 prec=2 label=x.eps",
    "label=x.eps prec=2 weight=? level=3",
])
def test_header_keys_in_any_order_start_a_block(tmp_path, eps_header):
    # a line whose first token holds '=' is a header, whatever its key order,
    # so the '.eps' block folds into the block before it
    path = tmp_path / "R.txt"
    path.write_text(f"weight=? prec=2 level=3 label=x\n0 1 0\n1 2 0\n"
                    f"{eps_header}\n0 0 0\n1 1/7 0\n", encoding="utf-8")
    const = QSeries(3, 2, [1, 2])
    eps_part = QSeries(3, 2, [0, Fraction(1, 7)]) * EpsPoly.linear(3, 0, 1)
    assert read_series(path) == const + eps_part


def _block_text(level, prec, label, rows, weight="?"):
    lines = [f"level={level} weight={weight} prec={prec} label={label}\n"]
    lines += [f"{n} {' '.join(map(str, row))}\n" for n, row in enumerate(rows)]
    return "".join(lines)


def test_orphan_eps_block_in_a_basis_refused(tmp_path, capsys):
    # an 'X.eps' block after another entry's block is no plain entry: read as
    # one, q/7 would join the level-5 lattice and q/7 vs 0 would read true
    prec = 12
    pf = _write_series_file(tmp_path, "F.txt", QSeries(5, prec, [0, Fraction(1, 7)]))
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(5, prec))
    bases = tmp_path / "bases"
    bases.mkdir()
    path = bases / f"basis_N5_W2_P{prec}.txt"
    _write_basis_file(path, level5_user_basis(prec))
    line = len(path.read_text(encoding="utf-8").splitlines()) + 1
    q7 = [[0] * 4, [Fraction(1, 7), 0, 0, 0]] + [[0] * 4] * (prec - 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_block_text(5, prec, "X.eps", q7, weight=2))
    code, out, err = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "5", "-w", "2",
                             "--no-gtilde", "--machine", "--basis", str(bases))
    assert (code, out, err) == (
        3, "", f"error: {path}:{line}: eps block 'X.eps' does not follow its series block\n")


def test_eps_blocks_fold_only_after_their_series_block(tmp_path):
    # a file is read only when it is one block X, or X followed by X.eps;
    # every other sequence of these labels exits 3, and none crashes
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    prec = 3
    small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    rows = st.lists(st.lists(small, min_size=2, max_size=2), min_size=prec, max_size=prec)
    labels = st.sampled_from(["F", "F.eps", "F.eps.eps", "G", "G.eps"])
    # a third of the draws are well formed, or arbitrary lists would hardly
    # ever hold X followed by X.eps
    label_lists = st.sampled_from(["F", "G"]).flatmap(
        lambda x: st.one_of(st.just([x]), st.just([x, x + ".eps"]),
                            st.lists(labels, min_size=1, max_size=4)))
    files = label_lists.flatmap(lambda ns: st.tuples(*(st.tuples(st.just(n), rows) for n in ns)))
    path = tmp_path / "S.txt"

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(files)
    def check(blocks):
        path.write_text("".join(_block_text(3, prec, label, r) for label, r in blocks),
                        encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["divcong", str(path), str(path), "-N", "3", "-w", "2"])
        names = [label for label, _ in blocks]
        well_formed = names[0] in ("F", "G") and names[1:] in ([], [names[0] + ".eps"])
        assert code == (0 if well_formed else 3), err.getvalue()
        if well_formed:
            parts = [QSeries(3, prec, tuple(EpsPoly(3, (CycNum(3, row),)) for row in r))
                     for _, r in blocks]
            want = parts[0] + parts[1] * EpsPoly.linear(3, 0, 1) if len(parts) == 2 else parts[0]
            assert read_series(path) == want

    check()


# ---------------------------------------------------------------------------
# divcong / assemble / example / oracle


def _write_series_file(tmp_path, name, series, weight="?"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        w = None if weight == "?" else weight
        write_series(fh, series, w, name)
    return path


def test_divcong_equal_files_true(tmp_path, capsys):
    f = g_tilde(3, 2, 10)
    pf = _write_series_file(tmp_path, "F.txt", f)
    pg = _write_series_file(tmp_path, "G.txt", f)
    code, out, _ = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "2", "--basis", str(tmp_path / "bases"))
    assert code == 0
    assert "verdict: True" in out


def test_divcong_false_exit_one(tmp_path, capsys):
    half_q = QSeries(3, 8, [0, Fraction(1, 2)])
    pf = _write_series_file(tmp_path, "F.txt", half_q)
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(3, 8))
    code, out, _ = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 1
    assert "verdict: False" in out


def test_divcong_nu2_pair(tmp_path, capsys):
    gt2 = g_tilde(3, 2, 10)
    pf = _write_series_file(tmp_path, "F.txt", gt2 * Fraction(1, 12))
    pg = _write_series_file(tmp_path, "G.txt", gt2 * gt2 * Fraction(1, 2))
    code, out, _ = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "4", "--basis", str(tmp_path / "bases"))
    assert code == 0
    assert "verdict: True" in out
    assert "certificate" in out


# the human certificate of an eps-member: the Gtilde line carries the eps
# coefficient (the span already holds Gtilde_k itself, so its constant is 0)
_DIVCONG_EPS_HUMAN = """\
verdict: True
modulus: weight<=2 lattice at level 3 (free weights 0,2; integral series+R*Gtilde)
certificate:
  -7/144 * 1 (weight 0)
  -7/12 * Ghat1^2 (weight 2)
  (0 + 2/3*eps) * Gtilde
  + integral residual (8 nonzero coefficients)
"""


def test_divcong_human_certificate_prints_the_gtilde_line(tmp_path, capsys):
    F = (g_tilde(3, 2, 10) * EpsPoly.linear(3, Fraction(1, 4), Fraction(2, 3))
         + QSeries(3, 10, [0, Fraction(1, 3)]))
    pf = _write_series_file(tmp_path, "F.txt", F)
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(3, 10))
    code, out, err = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                             "-w", "2", "--basis", str(tmp_path / "bases"))
    assert (code, out, err) == (0, _DIVCONG_EPS_HUMAN, "")


def test_divcong_missing_file_exit_three(tmp_path, capsys):
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(3, 8))
    code, _, err = run_cli(capsys, "divcong", str(tmp_path / "missing.txt"),
                           str(pg), "-N", "3", "-w", "0",
                           "--basis", str(tmp_path / "bases"))
    assert code == 3
    assert "missing.txt" in err


def test_divcong_level_mismatch_exit_three(tmp_path, capsys):
    pf = _write_series_file(tmp_path, "F.txt", QSeries.zero(2, 8))
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(2, 8))
    code, _, err = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 3
    assert err == f"error: {pf}: series level 2 does not match -N 3\n"  # F before G


def test_divcong_level_mismatch_names_the_file_and_levels(tmp_path, capsys):
    # F matches -N, so the error names G, with both levels
    pf = _write_series_file(tmp_path, "F.txt", QSeries.zero(3, 8))
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(5, 8))
    code, _, err = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 3
    assert err == f"error: {pg}: series level 5 does not match -N 3\n"


def test_foreign_level_basis_refused(tmp_path, capsys):
    # a cached basis whose level disagrees with -N must be rejected
    cache = tmp_path / "bases"
    cache.mkdir()
    foreign = build_basis(2, 2, 10)
    _write_basis_file(cache / "basis_N3_W2_P10.txt", foreign)
    f = g_tilde(3, 2, 10)
    pf = _write_series_file(tmp_path, "F.txt", f)
    pg = _write_series_file(tmp_path, "G.txt", f)
    code, _, err = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "2", "-p", "10", "--basis", str(cache))
    assert code == 3
    assert "does not cover" in err


def test_builtin_levels_write_nothing(tmp_path, capsys, monkeypatch):
    # bases at the built-in levels are built each time: the default --basis
    # directory (./bases) is never created
    monkeypatch.chdir(tmp_path)
    _write_series_file(tmp_path, "F.txt", g_tilde(3, 2, 10))
    code, _, _ = run_cli(capsys, "divcong", "F.txt", "F.txt", "-N", "3", "-w", "2")
    assert code == 0
    code, _, _ = run_cli(capsys, "example", "eta2", "-N", "3", "-p", "12")
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["F.txt"]


def test_tampered_basis_file_refused(tmp_path, capsys):
    # (1/2)q is not in the weight-2 lattice at level 3; a basis file that
    # swaps it in for Ghat1^2 would make it a member, so it must be refused
    prec = 12
    half_q = QSeries(3, prec, [0, Fraction(1, 2)])
    pf = _write_series_file(tmp_path, "F.txt", half_q)
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(3, prec))
    bases = tmp_path / "bases"
    bases.mkdir()
    path = bases / f"basis_N3_W2_P{prec}.txt"
    argv = ["divcong", str(pf), str(pg), "-N", "3", "-w", "2", "-p", str(prec),
            "--basis", str(bases)]
    basis = build_basis(3, 2, prec)
    _write_basis_file(path, basis)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and "verdict: False" in out
    entries = [e if e.label != "Ghat1^2" else BasisEntry(2, half_q, e.label)
               for e in basis.entries]
    _write_basis_file(path, ModularBasis(3, 2, prec, tuple(entries)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith(f"error: {path}: differs from the basis built")


@pytest.mark.parametrize("constants", ["missing", "twice", "not_one"])
def test_user_basis_needs_the_constant_one(tmp_path, capsys, constants):
    # without its weight-0 block a level-5 basis drops the constants from the
    # lattice, and the constant 1/7 would read as a proved non-member
    prec = 12
    pf = _write_series_file(tmp_path, "F.txt",
                            QSeries(5, prec, [Fraction(1, 7)]))
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(5, prec))
    bases = tmp_path / "bases"
    bases.mkdir()
    path = bases / f"basis_N5_W2_P{prec}.txt"
    argv = ["divcong", str(pf), str(pg), "-N", "5", "-w", "2", "--no-gtilde",
            "--machine", "--basis", str(bases)]
    basis = level5_user_basis(prec)
    _write_basis_file(path, basis)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("verdict=true\n")
    one, rest = basis.entries[0], basis.entries[1:]
    entries = {"missing": rest, "twice": (one, one) + rest,
               "not_one": (BasisEntry(0, one.series * 2, "1"),) + rest}[constants]
    _write_basis_file(path, ModularBasis(5, 2, prec, entries))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith(f"error: {path}: a basis file needs exactly one weight-0 entry")


def test_dependent_user_basis_entry_refused(tmp_path, capsys):
    prec = 12
    bases = tmp_path / "bases"
    bases.mkdir()
    path = bases / f"basis_N5_W2_P{prec}.txt"
    basis = level5_user_basis(prec)
    series = {e.label: e.series for e in basis.entries}
    extra = BasisEntry(2, series["Ghat2"] * Fraction(3, 2) - series["Ghat1^2"], "mix")
    _write_basis_file(path, ModularBasis(5, 2, prec, basis.entries + (extra,)))
    code, out, err = run_cli(capsys, "example", "eta2", "-N", "5", "-p", str(prec),
                             "--basis", str(bases))
    assert code == 3 and not out
    assert err.startswith(f"error: {path}: basis entry 'mix' is a rational combination")


def test_divcong_local_case_through_a_user_basis(tmp_path, capsys, monkeypatch):
    # Ghat2 + q^3/7 puts 7, prime to N = 5, in the span's denominators, so
    # without Gtilde a decision reaches the local case modulo 7: q^3/7 is a
    # member through that entry, and q^3/7 + q^4/7 is not
    prec = 12
    q3, q4 = (QSeries(5, prec, [0] * n + [Fraction(1, 7)]) for n in (3, 4))
    entries = tuple(BasisEntry(2, e.series + q3, "Ghat2_q3") if e.label == "Ghat2" else e
                    for e in level5_user_basis(prec).entries)
    bases = tmp_path / "bases"
    bases.mkdir()
    _write_basis_file(bases / f"basis_N5_W2_P{prec}.txt", ModularBasis(5, 2, prec, entries))
    moduli = []
    solve = divcong._EchelonForm.solve
    monkeypatch.setattr(divcong._EchelonForm, "solve",
                        lambda form, rhs: moduli.append(form.modulus) or solve(form, rhs))
    G = random_series(random.Random(7), 5, prec)
    F = G + q3 + next(e.series for e in entries if e.label == "Ghat1^2") * Fraction(2, 3)
    pg = _write_series_file(tmp_path, "G.txt", G)
    argv = ["-N", "5", "-w", "2", "--no-gtilde", "--machine", "--basis", str(bases)]
    code, out, err = run_cli(capsys, "divcong", str(_write_series_file(tmp_path, "F.txt", F)),
                             str(pg), *argv)
    assert (code, err, moduli) == (0, "", [7])
    lines = out.splitlines()
    assert lines[0] == "verdict=true"
    # the printed certificate, read back, rebuilds F - G with an integral residual
    certs = [line.split() for line in lines if line.startswith("cert ")]
    assert certs[-1] == ["cert", "gtilde", "0", "0"]
    coeffs = {label: Fraction(c) for _, _, label, c in certs[:-1]}
    start = lines.index(f"level=5 weight=? prec={prec} label=residual")
    (tmp_path / "residual.txt").write_text("\n".join(lines[start:]) + "\n", encoding="utf-8")
    residual = read_series(tmp_path / "residual.txt")
    assert is_integral_series(residual)
    replayed = residual
    for e in entries:
        replayed = replayed + e.series * coeffs.get(e.label, 0)
    assert coeffs["Ghat2_q3"] and replayed == F - G
    code, out, err = run_cli(capsys, "divcong", str(_write_series_file(tmp_path, "N.txt", F + q4)),
                             str(pg), *argv)
    assert (code, out, err, moduli) == (1, f"verdict=false\n{lines[1]}\n", "", [7, 7])


_H3 = "level=3 weight=? prec={} label=x\n"


@pytest.mark.parametrize("role, text, line, message", [
    ("series", _H3.format(2) + "0 1 0\n1 2\n", 3,
     "block 'x' index 1: 1 coordinates, expected 2"),
    ("series", "0 1 0\n" + _H3.format(1) + "0 1 0\n", 1,
     "coefficient line before any header"),
    ("series", _H3.format(1) + "z 1 0\n", 2, "bad coefficient index 'z'"),
    ("series", _H3.format(2) + "1 0 0\n0 1 0\n", 2, "block 'x' out of order at index 1"),
    ("series", "# no blocks\n\n", None, "no series blocks found"),
    ("series", "level=3 weight=? prec=1 x\n0 1 0\n", 1, "malformed header field 'x'"),
    ("series", "level=3 weight=? label=x\n0 1 0\n", 1,
     "malformed header 'level=3 weight=? label=x'"),
    ("series", "level=3 weight=? prec=1 lable=x\n0 1 0\n", 1, "unknown header key 'lable'"),
    ("series", "level=3 weight=? prec=1 level=5\n0 1 0\n", 1, "repeated header key 'level'"),
    # every field after label= is a field too: a label holds no whitespace
    ("series", "level=3 weight=2 prec=1 label=Ghat_2 weight=7\n0 1 0\n", 1,
     "repeated header key 'weight'"),
    ("series", "level=3 weight=? prec=1 label=F level=5\n0 1 0\n", 1,
     "repeated header key 'level'"),
    ("series", "level=3 weight=? prec=1 label=a b\n0 1 0\n", 1, "malformed header field 'b'"),
    ("series", _H3.format(0), 1, "level must be >= 2 and prec >= 1"),
    ("series", "level=3 weight=2 prec=4 label=x\n0 1 0\n1 2 0\n", 1,
     "block 'x' has 2 coefficient lines, expected 4"),
    ("series", _H3.format(2) + "0 1 0\nlevel=3 weight=? prec=1 label=y\n0 1 0\n", 1,
     "block 'x' has 1 coefficient lines, expected 2"),
    ("series", _H3.format(2) + "0 1 0\n1 0 0\nlevel=3 weight=? prec=1 label=x.eps\n0 1 0\n",
     4, "eps block does not match its series block"),
    ("series", _H3.format(1) + "0 1 0\nlevel=3 weight=2 prec=1 label=x.eps\n0 1 0\n",
     3, "eps block does not match its series block"),
    # x.eps holds q/7 and x.eps.eps -q/7: folded together they would cancel
    ("series", _H3.format(2) + "0 0 0\n1 0 0\nlevel=3 weight=? prec=2 label=x.eps\n"
     "0 0 0\n1 1/7 0\nlevel=3 weight=? prec=2 label=x.eps.eps\n0 0 0\n1 -1/7 0\n",
     7, "eps block 'x.eps.eps' does not follow its series block"),
    ("series", "level=3 weight=? prec=1 label=x.eps\n0 1 0\n", 1,
     "eps block 'x.eps' does not follow its series block"),
    ("series", _H3.format(1) + "0 1 0\nlevel=3 weight=? prec=1 label=y\n0 1 0\n", None,
     "expected a single series block, found 2"),
    ("basis", "level=5 weight=? prec=1 label=1\n0 1 0 0 0\n", None,
     "basis blocks need explicit weights"),
    ("basis", "level=5 weight=0 prec=1 label=1\n0 1 0 0 0\n"
     "level=3 weight=2 prec=1 label=g\n0 1 0\n", None, "mixed levels in basis file"),
    # the level-5 user basis (four blocks of 13 lines) and a weight=-1 copy of Ghat1
    ("basis", "negative_weight", 53, "weight must be >= 0"),
    # the level-5 user basis with q/7 as the eps part of Ghat1^2 (a '.eps' block)
    ("basis", None, None, "basis entry 'Ghat1^2' carries an eps part"),
], ids=["coordinates", "before_header", "bad_index", "out_of_order", "no_blocks",
        "header_field", "header", "unknown_key", "repeated_key", "label_then_weight",
        "label_then_level", "label_with_space", "bounds", "truncated_last",
        "truncated_first", "eps_mismatch", "eps_weight", "eps_stacked", "eps_orphan",
        "two_blocks", "basis_weight",
        "basis_levels", "basis_negative_weight", "basis_eps"])
def test_reader_errors_exit_three(tmp_path, capsys, role, text, line, message):
    prec = 12
    bases = tmp_path / "bases"
    bases.mkdir()
    if role == "series":
        path = tmp_path / "bad.txt"
        argv = ["divcong", str(path), str(path), "-N", "3", "-w", "2"]
    else:
        path = bases / f"basis_N5_W2_P{prec}.txt"
        q7 = QSeries(5, prec, [0, Fraction(1, 7)])
        pf = _write_series_file(tmp_path, "F.txt", q7)
        pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(5, prec))
        argv = ["divcong", str(pf), str(pg), "-N", "5", "-w", "2", "--no-gtilde"]
    if text is None:
        entries = tuple(BasisEntry(e.weight, e.series + q7 * EpsPoly.linear(5, 0, 1), e.label)
                        if e.label == "Ghat1^2" else e
                        for e in level5_user_basis(prec).entries)
        _write_basis_file(path, ModularBasis(5, 2, prec, entries))
    elif text == "negative_weight":
        entries = level5_user_basis(prec).entries
        ghat1 = next(e for e in entries if e.label == "Ghat1")
        _write_basis_file(path, ModularBasis(5, 2, prec,
                                             entries + (BasisEntry(-1, ghat1.series, "Ghat1"),)))
    else:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--basis", str(bases))
    where = path if line is None else f"{path}:{line}"
    assert (code, out, err) == (3, "", f"error: {where}: {message}\n")


def test_assemble_pipeline_composes_with_divcong(tmp_path, capsys):
    # xi_d = -d/12 assembles to Gtilde_2/12; compare against Gtilde_2^2/2
    xi_path = tmp_path / "xi.txt"
    with open(xi_path, "w", encoding="utf-8") as fh:
        fh.write("# homogeneous-space xi values\n")
        for d in range(1, 10):
            fh.write(f"{d} {Fraction(-d, 12)}\n")
    code, out, _ = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                           "--xi", str(xi_path), "-l", "3", "-N", "3",
                           "-p", "10", "--machine")
    assert code == 0
    assembled = tmp_path / "assembled.txt"
    assembled.write_text(out, encoding="utf-8")
    assert read_series(assembled) == g_tilde(3, 2, 10) * Fraction(1, 12)

    ref = _write_series_file(tmp_path, "ref.txt",
                             known_series := g_tilde(3, 2, 10) * g_tilde(3, 2, 10) * Fraction(1, 2))
    code, out, _ = run_cli(capsys, "divcong", str(assembled), str(ref),
                           "-N", "3", "-w", "4", "--basis", str(tmp_path / "bases"))
    assert code == 0


def _circle_xi_file(tmp_path, prec):
    xi_path = tmp_path / "xi_circle.txt"
    xi_path.write_text("".join(f"{d} 1/2 {-d}\n" for d in range(1, prec)),
                       encoding="utf-8")
    return xi_path


def test_assemble_machine_writes_eps_block(tmp_path, capsys):
    xi_path = _circle_xi_file(tmp_path, 12)
    code, out, err = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                             "--xi", str(xi_path), "-l", "1", "-N", "3",
                             "-p", "12", "--machine")
    assert code == 0 and not err
    headers = [line for line in out.splitlines() if line.startswith("level=")]
    assert headers == ["level=3 weight=? prec=12 label=assembled[complex-reduced]",
                       "level=3 weight=? prec=12 label=assembled[complex-reduced].eps"]


def test_eps_output_composes_with_divcong(tmp_path, capsys):
    # the circle table assembles to (1/2) Gtilde_1 modulo the weight-2 lattice
    xi_path = _circle_xi_file(tmp_path, 12)
    code, out, _ = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                           "--xi", str(xi_path), "-l", "1", "-N", "3",
                           "-p", "12", "--machine")
    assert code == 0
    pf = tmp_path / "F.txt"
    pf.write_text(out, encoding="utf-8")
    assert not read_series(pf).is_eps_free()
    pg = _write_series_file(tmp_path, "G.txt", g_tilde(3, 1, 12) * Fraction(1, 2))
    code, out, _ = run_cli(capsys, "divcong", str(pf), str(pg), "-N", "3",
                           "-w", "2", "--basis", str(tmp_path / "bases"),
                           "--machine")
    assert code == 0
    assert "verdict=true" in out.splitlines()


def test_eps_degree_two_not_written(tmp_path):
    # an eps*eps series is refused when it is built, before write_series sees it
    f = g_tilde(3, 1, 4) * EpsPoly.linear(3, 0, 1)
    path = tmp_path / "f.txt"
    with open(path, "w", encoding="utf-8") as fh:
        with pytest.raises(EpsPartError):
            write_series(fh, f * EpsPoly.linear(3, 0, 1), None, "f")
    assert path.read_text(encoding="utf-8") == ""


def test_assemble_quaternionic_reduced_requires_odd_support(tmp_path, capsys):
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text("1 1\n3 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "assemble", "--kind", "quaternionic-reduced",
                           "--xi", str(xi_path), "-l", "4", "-N", "3", "-p", "5")
    assert code == 0


def test_assemble_short_xi_table_exit_three(tmp_path, capsys):
    # a missing twist is a data error, not a false verdict
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text("1 1/2\n2 1/3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "assemble", "--kind", "quaternionic",
                             "--xi", str(xi_path), "-l", "3", "-N", "3", "-p", "12")
    assert code == 3
    assert not out
    assert err == "error: twist 3 missing (need support to 11)\n"


@pytest.mark.parametrize("line, message", [
    ("0 1/2", "twist index 0 is not allowed"),
    ("-1 1/2", "--kind complex-reduced takes positive twist indices only"),
])
def test_assemble_bad_twist_index_exit_three(tmp_path, capsys, line, message):
    # an index the table kind forbids is bad data, not a usage error
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text(f"{line}\n1 1/3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                             "--xi", str(xi_path), "-l", "1", "-N", "3", "-p", "4")
    assert code == 3
    assert not out
    assert err == f"error: {xi_path}:1: {message}\n"


@pytest.mark.parametrize("text, line, message", [
    ("1\n", 1, "expected 'd value [eps-value]'"),
    ("1 1/2\n2 1/3 1 1\n", 2, "expected 'd value [eps-value]'"),
    ("1 1/2\nx 1/3\n", 2, "bad twist index 'x'"),
    ("# no entries\n\n", None, "empty xi table"),
], ids=["one_token", "four_tokens", "index_not_integer", "comments_only"])
def test_assemble_malformed_xi_table_exit_three(tmp_path, capsys, text, line, message):
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                             "--xi", str(xi_path), "-l", "1", "-N", "3", "-p", "4")
    where = xi_path if line is None else f"{xi_path}:{line}"
    assert (code, out, err) == (3, "", f"error: {where}: {message}\n")


@pytest.mark.parametrize("kind", ["quaternionic", "quaternionic-reduced"])
def test_assemble_negative_twist_index_names_the_kind_typed(tmp_path, capsys, kind):
    # the error names the --kind value given, not the library's table kind
    # (complex-reduced: test_assemble_bad_twist_index_exit_three)
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text("1 1\n-1 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "assemble", "--kind", kind,
                             "--xi", str(xi_path), "-l", "1", "-N", "3", "-p", "3")
    assert (code, out) == (3, "")
    assert err == f"error: {xi_path}:2: --kind {kind} takes positive twist indices only\n"


def test_assemble_repeated_twist_index_exit_three(tmp_path, capsys):
    # a repeated index must not silently keep the last value
    xi_path = tmp_path / "xi.txt"
    xi_path.write_text("1 1/2\n2 1/5\n1 1/3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "assemble", "--kind", "complex-reduced",
                             "--xi", str(xi_path), "-l", "1", "-N", "3", "-p", "4")
    assert code == 3
    assert not out
    assert err == f"error: {xi_path}:3: repeated twist index 1\n"


def test_input_directory_exit_three(tmp_path, capsys):
    # a directory where a series or xi-table file is expected is bad input
    pg = _write_series_file(tmp_path, "G.txt", QSeries.zero(3, 8))
    code, _, err = run_cli(capsys, "divcong", str(tmp_path), str(pg), "-N", "3",
                           "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, _, err = run_cli(capsys, "assemble", "--kind", "quaternionic", "--xi",
                           str(tmp_path), "-l", "1", "-N", "3", "-p", "4")
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_basis_path_is_a_file_exit_three(tmp_path, capsys):
    pf = _write_series_file(tmp_path, "F.txt", QSeries.zero(3, 8))
    code, _, err = run_cli(capsys, "divcong", str(pf), str(pf), "-N", "3",
                           "-w", "2", "--basis", str(pf))
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_non_utf8_input_exit_three(tmp_path, capsys):
    series = tmp_path / "F.txt"
    series.write_bytes(b"level=3 weight=? prec=1 label=\xff\n0 1 0\n")
    code, _, err = run_cli(capsys, "divcong", str(series), str(series), "-N", "3",
                           "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 3
    assert err.startswith(f"error: {series}: not UTF-8 text") and len(err.splitlines()) == 1
    xi = tmp_path / "xi.txt"
    xi.write_bytes(b"1 1/2 # \xe9\n")
    code, _, err = run_cli(capsys, "assemble", "--kind", "quaternionic", "--xi",
                           str(xi), "-l", "1", "-N", "3", "-p", "2")
    assert code == 3
    assert err.startswith(f"error: {xi}: not UTF-8 text") and len(err.splitlines()) == 1


def test_every_library_exception_is_a_data_error_or_named():
    # main maps DataError to exit 3, so each exception class finvariant
    # defines refuses an input as a DataError, or is one of two named others:
    # a point on the pole lattice given to the public numeric genus, and a
    # failed internal check (exit 4); a new class fails here until sorted
    defined = set()
    for info in pkgutil.iter_modules(finvariant.__path__):
        module = importlib.import_module(f"finvariant.{info.name}")
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    refusals = {cls for cls in defined if issubclass(cls, DataError)}
    assert DataError in refusals
    assert defined - refusals == {genus.PoleError, geometry.CalibrationError}


def test_internal_error_exit_four(tmp_path, capsys, monkeypatch):
    # a failed internal check must not look like a false verdict (exit 1)
    def broken(F, G, lattice):
        raise AssertionError("certificate replay mismatch (internal error)")

    monkeypatch.setattr(cli, "is_equivalent", broken)
    pf = _write_series_file(tmp_path, "F.txt", QSeries.zero(3, 8))
    code, out, err = run_cli(capsys, "divcong", str(pf), str(pf), "-N", "3",
                             "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 4
    assert not out
    assert err == "internal error: certificate replay mismatch\n"


def test_unexpected_exception_exit_four(tmp_path, capsys, monkeypatch):
    # any exception the CLI does not list is a defect, never a false verdict
    def broken(F, G, lattice):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "is_equivalent", broken)
    pf = _write_series_file(tmp_path, "F.txt", QSeries.zero(3, 8))
    code, out, err = run_cli(capsys, "divcong", str(pf), str(pf), "-N", "3",
                             "-w", "0", "--basis", str(tmp_path / "bases"))
    assert code == 4
    assert not out
    assert err == "internal error: TypeError: unsupported operand\n"


def test_closed_output_no_traceback():
    # the reader is gone before anything is written: no traceback, no exit 1
    env = dict(os.environ, PYTHONPATH=str(Path(finvariant.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "finvariant.cli", "eis", "-N", "3",
                             "-k", "2", "-p", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err == b""


def test_example_exit_codes(tmp_path, capsys):
    bases = str(tmp_path / "bases")
    code, out, _ = run_cli(capsys, "example", "nu2", "-N", "3", "-p", "8",
                           "--basis", bases)
    assert code == 0
    assert "verdict: True" in out
    code, _, err = run_cli(capsys, "example", "nu2", "-N", "2", "-p", "8",
                           "--basis", bases)
    assert code == 2  # parity-of-level violation is reported as usage
    assert err == "error: nu2 is defined at odd levels only\n"


@pytest.mark.parametrize("level", ["2", "6", "8"])
def test_example_even_level_refused_before_any_basis(tmp_path, capsys, monkeypatch, level):
    # the odd-level check runs before a basis is loaded or built: at 6 and 8,
    # which have no built-in generators, no basis file could help either
    loads = []
    monkeypatch.setattr(cli, "_load_or_build_basis", lambda *args: loads.append(args))
    code, out, err = run_cli(capsys, "example", "nu2", "-N", level, "-p", "8",
                             "--basis", str(tmp_path / "bases"))
    assert (code, out, err) == (2, "", "error: nu2 is defined at odd levels only\n")
    assert loads == []


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_example_bad_e_invariant_is_usage(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "trivial", "-N", "3", "-e", value])
    assert exc.value.code == 2
    assert "argument -e/--e-invariant: expected a rational" in capsys.readouterr().err


def test_example_su3_prints_parity_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "su3", "-N", "3", "-p", "10",
                           "--basis", str(tmp_path / "bases"))
    assert code == 0
    assert "parity_table" in out


def test_example_machine_output_stable(tmp_path, capsys):
    bases = str(tmp_path / "bases")
    _, first, _ = run_cli(capsys, "example", "eta2", "-N", "3", "-p", "8",
                          "--machine", "--basis", bases)
    _, second, _ = run_cli(capsys, "example", "eta2", "-N", "3", "-p", "8",
                           "--machine", "--basis", bases)
    assert first == second
    assert "verdict=true" in first


def test_example_user_basis_enables_other_levels(tmp_path, capsys):
    # no built-in generators at level 5: a user-supplied basis file in the
    # cache directory makes the circle example runnable there
    from finvariant.divcong import policy_prec
    from finvariant.genus import g_hat
    prec = 12
    bases = tmp_path / "bases"
    bases.mkdir()
    basis_prec = max(prec, policy_prec(5, 2))
    path = bases / f"basis_N5_W2_P{basis_prec}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_series(fh, QSeries.one(5, basis_prec), 0, "1")
        write_series(fh, g_hat(5, 1, basis_prec), 1, "Ghat1")
        g1 = g_hat(5, 1, basis_prec)
        write_series(fh, g1 * g1, 2, "Ghat1^2")
        write_series(fh, g_hat(5, 2, basis_prec), 2, "Ghat2")
    code, out, _ = run_cli(capsys, "example", "eta2", "-N", "5", "-p",
                           str(prec), "--basis", str(bases))
    assert code == 0
    assert "verdict: True" in out


def test_oracle_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-N", "3", "-k", "4", "-p", "40")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("max_weight, p_min", [(4, 15), (6, 17), (8, 18)])
def test_oracle_refuses_precision_below_its_tail_bound(capsys, max_weight, p_min):
    # P_min: the least P with sum_{n>=P} 2 n^k |q|^n/(k-1)! < 1e-8/2 for all
    # k <= -k at |q| = e^(-0.62 pi); -p 12 used to exit 1 with a 3.6e-7 error
    k = str(max_weight)
    for prec in (12, p_min - 1):
        code, out, err = run_cli(capsys, "oracle", "-k", k, "-p", str(prec), "--machine")
        assert (code, out) == (2, "")
        assert f"oracle needs -p >= {p_min} at -k {k}" in err
    code, out, _ = run_cli(capsys, "oracle", "-k", k, "-p", str(p_min), "--machine")
    assert code == 0
    assert out.endswith("oracle_pass=true\n")
