"""Series, basis and xi-table files: one grammar, read to plain integer rows.

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
file is a sequence of eps-free blocks. A xi-table holds one
``d value [eps-value]`` line per twist index d. Reader errors name
``file:line``. Machine-readable output (``--machine``) emits exactly this
format, so commands compose.

`read_blocks`, `write_block` and `read_xi_rows` work on plain integers and use
nothing of finvariant but exactnum's ``euler_phi`` and ``DataError``; `read_series`,
`read_basis`, `write_series` and `read_xi_table` wrap them in QSeries, ModularBasis, XiTable.
"""

from __future__ import annotations

import re
from contextlib import suppress
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from .divcong import BasisEntry, ModularBasis
from .exactnum import CycNum, DataError, EpsPoly, euler_phi
from .fassembly import COMPLEX_FULL, XiTable
from .qseries import QSeries

Block = tuple[int, int, Optional[int], str, int, Sequence[Sequence[int]]]  # weight None: '?'


def write_block(fh: TextIO, level: int, prec: int, weight: Optional[int], label: str,
                den: int, rows: Sequence[Sequence[int]]) -> None:
    """Write rows[0]/den as a block, followed by a '<label>.eps' block for rows[1]:
    each block's cells formatted once, and the block written with one `write`."""
    w = "?" if weight is None else str(weight)
    deg = euler_phi(level)
    for row, name in zip(rows or [(0,) * (prec * deg)], (label, label + ".eps")):
        cells = [_ratio(c, den) for c in row]
        fh.write(f"level={level} weight={w} prec={prec} label={name}\n" + "".join(
            f"{n} {' '.join(cells[n * deg:(n + 1) * deg])}\n" for n in range(prec)))


def _ratio(c: int, den: int) -> str:
    """c/den in lowest terms, as str(Fraction(c, den)) prints it."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


# a coordinate as written: an integer or p/q with an unsigned q. Of tokens without
# whitespace, int() reads exactly these (and p and q of p/q) once a '_', and a '/'
# before anything but a digit, are ruled out: one search of a block's text
_WRITTEN = re.compile(r"[-+]?\d+(?:/\d+)?")
_UNWRITTEN = re.compile(r"_|/(?!\d)")


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


def read_blocks(path: Path) -> list[Block]:
    """The (level, prec, weight, label, den, rows) blocks of a series/basis file,
    rows[e] den times the eps^e coordinates, prec*phi(level) integers as a
    QSeries stores its parts. A header is any line whose first token holds '='.
    A '<label>.eps' block becomes rows[1] of the '<label>' block right before
    it, if that block has none yet; any other '.eps' block is refused.
    """
    lines = list(_data_lines(path))
    if not lines:
        raise DataError(f"{path}: no series blocks found")
    starts = [i for i, (_, line) in enumerate(lines)
              if "=" in line and "=" in line.split(None, 1)[0]]  # no split without a '='
    if not starts or starts[0]:
        raise DataError(f"{path}:{lines[0][0]}: coefficient line before any header")
    blocks: list[Block] = []
    open_label = None  # the last block's label while it has no eps block
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        _, _, _, label, den, (row,) = block = _parse_block(path, lines[start],
                                                           lines[start + 1:end])
        where = f"{path}:{lines[start][0]}"
        if not label.endswith(".eps"):
            blocks.append(block)
            open_label = label
            continue
        if open_label is None or label != open_label + ".eps":
            raise DataError(f"{where}: eps block '{label}' does not follow its series block")
        const = blocks[-1]
        if const[:3] != block[:3]:
            raise DataError(f"{where}: eps block does not match its series block")
        both = lcm(const[4], den)
        blocks[-1] = const[:4] + (both, [[x * (both // d) for x in r]
                                         for d, r in ((const[4], const[5][0]), (den, row))])
        open_label = None
    return blocks


def _parse_block(path: Path, header: tuple[int, str], rows: list[tuple[int, str]]) -> Block:
    """The block of one numbered header and its coefficient lines, with one row."""
    header_no, line = header
    level, prec, weight, label = _parse_header(line, path, header_no)
    if len(rows) != prec:
        raise DataError(f"{path}:{header_no}: block '{label}' has {len(rows)} "
                        f"coefficient lines, expected {prec}")
    deg = euler_phi(level)
    lines = [row.split() for _, row in rows]
    coords = [tok for toks in lines for tok in toks[1:]]
    # lines 'n c_1 .. c_deg' in order, all written, in one pass; else line by line
    # (int() refuses a token or a q = 0; a q not all digits has no factor)
    with suppress(ValueError, ZeroDivisionError, KeyError):
        if (not _UNWRITTEN.search(text := " ".join(coords))
                and all(len(t) == deg + 1 for t in lines)
                and [toks[0] for toks in lines] == list(map(str, range(prec)))):
            qs = set(re.findall(r"/(\d+)", text))
            den = lcm(*map(int, qs))
            if den == 1:
                row = list(map(int, coords))
            else:  # each distinct q's factor den // q worked out once
                factor = {"": den, **{q: den // int(q) for q in qs}}
                row = [int(p) * factor[q] for p, _, q in [t.partition("/") for t in coords]]
            return level, prec, weight, label, den, [row]
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
    return level, prec, weight, label, den, [[x * (den // d) for x, d in pairs]]


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


def read_xi_rows(path: Path, signed: bool, kind_name: str) -> dict[int, list[tuple[int, int]]]:
    """Each twist index's (num, den) value and eps-value, from 'd value [eps-value]' lines.

    Negative indices are read only when `signed`; the refusal names `kind_name`.
    """
    entries: dict[int, list[tuple[int, int]]] = {}
    for line_no, line in _data_lines(path):
        where = f"{path}:{line_no}"
        toks = line.split()
        if len(toks) not in (2, 3):
            raise DataError(f"{where}: expected 'd value [eps-value]'")
        try:
            d = int(toks[0])
        except ValueError as exc:
            raise DataError(f"{where}: bad twist index {toks[0]!r}") from exc
        if d in entries:
            raise DataError(f"{where}: repeated twist index {d}")
        entries[d] = [_rational(t, where) for t in toks[1:]]
        if d == 0:
            raise DataError(f"{where}: twist index 0 is not allowed")
        if d < 0 and not signed:
            raise DataError(f"{where}: --kind {kind_name} takes positive twist indices only")
    if not entries:
        raise DataError(f"{path}: empty xi table")
    return entries


def write_series(fh: TextIO, series: QSeries, weight: Optional[int], label: str) -> None:
    """Write a series block, followed by a '<label>.eps' block for its eps^1 part."""
    write_block(fh, series.level, series.prec, weight, label, series.den, series.parts)


def read_series(path: Path) -> QSeries:
    """The series of a file holding a single block."""
    blocks = read_blocks(path)
    if len(blocks) != 1:
        raise DataError(f"{path}: expected a single series block, found {len(blocks)}")
    level, prec, _, _, den, rows = blocks[0]
    return QSeries._of(level, prec, den, rows)


def read_basis(path: Path) -> ModularBasis:
    """A basis file: eps-free blocks of explicit weight, all at one level."""
    blocks = read_blocks(path)
    entries = []
    for level, prec, weight, label, den, rows in blocks:
        if weight is None:
            raise DataError(f"{path}: basis blocks need explicit weights")
        if level != blocks[0][0]:
            raise DataError(f"{path}: mixed levels in basis file")
        series = QSeries._of(level, prec, den, rows)
        if not series.is_eps_free():
            raise DataError(f"{path}: basis entry '{label}' carries an eps part")
        entries.append(BasisEntry(weight, series, label))
    return ModularBasis(blocks[0][0], max(e.weight for e in entries),
                        min(e.series.prec for e in entries), tuple(entries))


def read_xi_table(path: Path, kind: str, level: int, l: int, kind_name: str) -> XiTable:
    """A xi-table of `kind` at level and l; a refused negative index names `kind_name`."""
    pad = (0,) * (euler_phi(level) - 1)
    entries = {d: EpsPoly(level, [CycNum._of(level, den, (num,) + pad) for num, den in values])
               for d, values in read_xi_rows(path, kind == COMPLEX_FULL, kind_name).items()}
    return XiTable(kind, level, l, entries)
