"""Truncated q-series c0 + c1*eps over Q(zeta_N), stored as integer rows over one denominator.

A QSeries holds q^0 .. q^(prec-1) exactly as a positive `den` and `parts`:
per eps degree e (0 or 1), one flat tuple whose entry n*phi(N) + t is den
times coordinate t (power basis) of the eps^e part of the q^n coefficient.
The form is canonical (gcd(den, entries) = 1, last part nonzero); outside
this module only `genus`, `fassembly`, `files` and `cli` read it. Every
series is stored through `_store`, the one place that refuses an eps^2
part (EpsPartError), whichever operation made it.
`coefficient(n)` builds one EpsPoly on demand, and `series_row` is the
flat integer view of an eps-free series. Arithmetic requires equal levels
and truncates to the smaller precision.

Every operation runs on the rows: the product by Kronecker substitution (one
big-int product of the packed (q, zeta) polynomials, see Harvey, JSC 2009;
a row moves to and from its packed int through one array of 64-bit words,
one extended-slice copy per slot byte, and a square packs once and
multiplies by itself; `exactnum._fold` reduces it, +-1 entries as row adds;
CycNum's product is the same `_row_product`), `divisor_sum` as a
residue-class sieve on the integer rows of the series sum c(d) q^d (column
sums per class of j mod N in O(sqrt(N*P)) slice steps, then twisted in
groups of classes with one matrix up to sign, j and -j, +-1 entries as row
adds; a second, negated source may enter class -j, so both signs of a
complex table take one twist), a scalar added at the q^0 slots alone, and
+, - and rational multiples as one integer row sum (`_row_sum`, by `_int_sum`);
`_linear_combination` is that sum as a series, and a lattice decision reads
F - G from it as rows. A CycNum already holds integers over one
denominator, so `_int_parts`, the one converter of coefficient values,
transposes the values' eps parts once (a rational makes no CycNum) and
rescales each part's (den, ints) to the row's denominator, one
comprehension per eps part; the rows are then in lowest terms, so the
constructor pads them with zeros and stores them without a gcd, and
`coefficient(n)` slices the row back.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, zip_longest
from math import gcd, isqrt, lcm
from operator import add, itemgetter, sub
from typing import Optional, Sequence, Union

from .exactnum import (CycNum, DataError, EpsPoly, LevelMismatchError, Scalar, _coprime_part,
                       _fold, _int_sum, _zeta_powers, euler_phi)

Coefficient = Union[Scalar, CycNum, EpsPoly]

# the machine words that carry packed slots: _WORD bytes each, in host byte order
_WORD = array("Q").itemsize
_WORD_BITS, _WORD_MASK = 8 * _WORD, (1 << 8 * _WORD) - 1
_BIG_ENDIAN = sys.byteorder == "big"


class EpsPartError(DataError):
    """Raised when an operation requires an eps-free series, or would leave an eps^2 part."""


class QSeries:
    """Truncated q-expansion c0 + c1*eps over Q(zeta_level): integer rows over one denominator."""

    __slots__ = ("level", "prec", "den", "parts")

    def __init__(self, level: int, prec: int, coeffs: Sequence[Coefficient]):
        values = list(islice(coeffs, prec))
        den, parts = _int_parts(level, values)  # in lowest terms
        pad = [0] * ((prec - len(values)) * euler_phi(level))
        for p in parts:
            p += pad
        self._store(level, prec, den, parts)

    @classmethod
    def _of(cls, level: int, prec: int, den: int, parts: Sequence[Sequence[int]]) -> "QSeries":
        """The series sum_e eps^e * parts[e] / den, each part prec*phi(level) ints."""
        f = object.__new__(cls)
        deg = euler_phi(level)  # the gcd reads q^0 first, the rest only while it exceeds 1
        g = gcd(den, *(x for p in parts for x in p[:deg]))
        if g > 1:
            g = gcd(g, *chain.from_iterable(parts))
        f._store(level, prec, den // g, parts if g == 1 else [[x // g for x in p] for p in parts])
        return f

    def _store(self, level: int, prec: int, den: int, parts: Sequence[Sequence[int]]) -> None:
        """Set the canonical form of rows in lowest terms over den: trailing zero parts dropped.

        The one refusal of an eps-degree above 1, for every way a series is made.
        """
        if level < 2:
            raise ValueError("QSeries level must be >= 2")
        if prec < 1:
            raise ValueError("precision must be >= 1")
        parts = list(parts)
        while parts and not any(parts[-1]):
            parts.pop()
        if len(parts) > 2:
            raise EpsPartError("a series holds at most an eps^1 part")
        self.level = level
        self.prec = prec
        self.den = den
        self.parts = tuple(map(tuple, parts))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec, ())

    @classmethod
    def one(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec, (1,))

    # -- structure ---------------------------------------------------------

    def coefficient(self, n: int) -> EpsPoly:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient q^{n} beyond precision {self.prec}")
        deg = euler_phi(self.level)
        return EpsPoly(self.level, tuple(CycNum._of(self.level, self.den, p[n * deg:(n + 1) * deg])
                                         for p in self.parts))

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        if prec == self.prec:
            return self  # a series is never mutated
        size = prec * euler_phi(self.level)
        # dropped entries may have held the only factor not shared with den
        return QSeries._of(self.level, prec, self.den, [p[:size] for p in self.parts])

    def is_eps_free(self) -> bool:
        return len(self.parts) <= 1

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.level != other.level:
            return False
        p = min(self.prec, other.prec)
        a = self if self.prec == p else self.truncate(p)
        b = other if other.prec == p else other.truncate(p)
        return a.den == b.den and a.parts == b.parts

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            if other.level != self.level:
                raise LevelMismatchError("series level mismatch")
            return other
        if isinstance(other, (int, Fraction, CycNum, EpsPoly)):
            return QSeries(self.level, self.prec, (other,))
        raise TypeError(f"cannot combine QSeries with {type(other)!r}")

    def __add__(self, other) -> "QSeries":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self._combine(other, -1)

    def _combine(self, other, sign: int, self_sign: int = 1) -> "QSeries":
        """self_sign*self + sign*other: a series through the integer sum kernel.

        A scalar changes only the q^0 slots, with the rows put over
        lcm(den, its denominator) in one pass when that differs from den.
        """
        if not isinstance(other, (int, Fraction, CycNum, EpsPoly)):
            o = self._coerce(other)  # a series of this level, else TypeError
            return _linear_combination(self.level, min(self.prec, o.prec),
                                       (((self_sign,), self), ((sign,), o)))
        deg = euler_phi(self.level)
        c_den, c_parts = _int_parts(self.level, (other,))
        den = lcm(self.den, c_den)
        m, k = self_sign * (den // self.den), sign * (den // c_den)
        parts = [list(p) if m == 1 else [m * x for x in p] for p in self.parts]
        parts += [[0] * (self.prec * deg) for _ in c_parts[len(parts):]]
        for p, q0 in zip(parts, c_parts):
            p[:deg] = _int_sum(((1, p[:deg]), (k, q0)))
        return QSeries._of(self.level, self.prec, den, parts)

    def __rsub__(self, other) -> "QSeries":
        return self._combine(other, 1, -1)

    def __neg__(self) -> "QSeries":
        return QSeries._of(self.level, self.prec, self.den,
                           [[-x for x in p] for p in self.parts])

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return _linear_combination(self.level, self.prec, (((other,), self),))
        o = self._coerce(other)
        rows = _row_product(self.level, prec := min(self.prec, o.prec), self.parts, o.parts)
        return QSeries._of(self.level, prec, self.den * o.den, rows)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QSeries(level={self.level}, prec={self.prec})"


def series_row(f: QSeries, prec: int) -> tuple[Sequence[int], int]:
    """(row, den): the coordinates of q^0 .. q^(prec-1) of an eps-free series
    are row[i]/den, phi(N)*prec integers over f's denominator.

    Raises EpsPartError for an eps-part among those coefficients and
    IndexError for prec beyond f.prec.
    """
    size = prec * euler_phi(f.level)
    if any(any(p[:size]) for p in f.parts[1:]):
        raise EpsPartError("cannot flatten a series with eps-part")
    if prec > f.prec:
        raise IndexError(f"coefficient q^{f.prec} beyond precision {f.prec}")
    return (f.parts or [(0,) * size])[0][:size], f.den


def is_integral_series(f: QSeries) -> bool:
    """True iff every coefficient lies in Z[zeta, 1/level].

    An entry v/den is integral exactly when the part d of den prime to N
    divides v; the row is when d divides the gcd of its entries.
    """
    if not f.is_eps_free():
        raise EpsPartError("integrality undefined for series with eps-part")
    d = _coprime_part(f.den, f.level)
    return d == 1 or gcd(*f.parts[0]) % d == 0


def eps_split(f: QSeries) -> list[QSeries]:
    """Write f = result[0] + eps * result[1] with eps-free results.

    The list has one entry for an eps-free series (also for zero), else two.
    """
    return [QSeries._of(f.level, f.prec, f.den, (part,)) for part in f.parts] or [f]


# ---------------------------------------------------------------------------
# Integer kernels


class _Part(tuple):
    """(den, ints): a rational's eps^0 part, or an absent part, as `_int_parts` reads a
    CycNum, its coordinates ints[t]/den. Made by tuple's own constructor, with no
    Python-level __new__ as a namedtuple has."""

    __slots__ = ()
    den = property(itemgetter(0))
    ints = property(itemgetter(1))


def _int_parts(level: int, values: Sequence[Coefficient]) -> tuple[int, list[list[int]]]:
    """Rationals, CycNums and EpsPolys as flat integer rows per eps part, over one denominator.

    Returns (den, parts): parts[e][n*phi(level) + t] is den times coordinate t
    of the eps^e part of values[n], and den is the least common denominator
    of all coordinates. Each value is in lowest terms, so the rows are too:
    for p^a exactly dividing den, a value of denominator divisible by p^a
    keeps a coordinate prime to p. The values' parts are transposed once,
    by eps degree (an EpsPoly's CycNums as they are, a rational's eps^0 part
    a `_Part` with its numerator as coordinate 0, no CycNum), and each
    part's row is one comprehension over them, each coordinate times its
    value's den // part.den.
    """
    deg = euler_phi(level)
    rest = (0,) * (deg - 1)
    rows = []  # per value, its eps parts: CycNums, or a rational's _Part
    for c in values:
        if isinstance(c, (EpsPoly, CycNum)):
            if c.level != level:
                raise LevelMismatchError("series coefficient level mismatch")
            rows.append(c.coeffs if isinstance(c, EpsPoly) else (c,))
        elif isinstance(c, (int, Fraction)):
            rows.append((_Part((c.denominator, (c.numerator,) + rest)),) if c else ())
        else:
            raise TypeError(f"series coefficient must be exact, not {type(c)!r}")
    den = lcm(*[c.den for cs in rows for c in cs])
    # zip_longest transposes the values' parts by eps degree
    return den, [[x * m for c in cs for m in (den // c.den,) for x in c.ints]
                 for cs in zip_longest(*rows, fillvalue=_Part((1, rest + (0,))))]


def _row_sum(level: int, prec: int,
             terms: Sequence[tuple[Sequence[Scalar], QSeries]]) -> tuple[int, list[Sequence[int]]]:
    """sum (s_0 + s_1*eps + ...) * series to O(q^prec) as integer rows over one denominator.

    Each term pairs rational scalars s_j, one per eps degree, with a series
    of precision >= prec. Every term's rows are scaled to one common
    denominator and summed as integers: each nonzero (term, scalar) gets its
    multiplier once, its rows join the groups of their eps degrees, and each
    group is one `_int_sum`. Returns (den, rows): rows[e] is den times the
    eps^e part, prec*phi(level) ints. den is that lcm, not reduced against
    the entries; trailing zero rows are dropped, but one row remains.
    """
    size = prec * euler_phi(level)
    scaled = [(s, i, f) for scalars, f in terms if f.parts for i, s in enumerate(scalars) if s]
    total = lcm(*(f.den * s.denominator for s, _, f in scaled))
    # scalar i times part e of a series lands in degree i + e; a degree no term reaches is 0
    groups = [[] for _ in range(max((i + len(f.parts) for _, i, f in scaled), default=1))]
    for s, i, f in scaled:
        m = s.numerator * (total // (f.den * s.denominator))
        for e, part in enumerate(f.parts, i):
            groups[e].append((m, part[:size]))
    sums = [_int_sum(group) or [0] * size for group in groups]
    while len(sums) > 1 and not any(sums[-1]):
        sums.pop()
    return total, sums


def _linear_combination(level: int, prec: int,
                        terms: Sequence[tuple[Sequence[Scalar], QSeries]]) -> QSeries:
    """`_row_sum` as a canonical series."""
    return QSeries._of(level, prec, *_row_sum(level, prec, terms))


def _pack(flat: Sequence[int], deg: int, stride: int, width: int) -> int:
    """Signed rows of deg entries as one int: entry n*deg + t in slot n*stride + t, width bytes each.

    Each slot is lifted to unsigned (plus half its range) and goes through
    ceil(width/8) machine words of one array; the pad slots hold the lift alone.
    """
    words, half = -(-width // _WORD), 1 << (8 * width - 1)
    count = len(flat) // deg * stride
    wide = array("Q", [(half >> (_WORD_BITS * j)) & _WORD_MASK for j in range(words)]) * count
    lifted = [v + half for v in flat]
    for j in range(words):
        lane = array("Q", lifted if words == 1 else
                     [(v >> (_WORD_BITS * j)) & _WORD_MASK for v in lifted])
        for t in range(deg):
            wide[t * words + j::stride * words] = lane[t::deg]
    if _BIG_ENDIAN:
        wide.byteswap()
    raw = _restride(wide.tobytes(), _WORD * words, width)
    return int.from_bytes(raw, "little") - _slot_offset(width, count)


def _unpack(z: int, count: int, width: int) -> list[int]:
    """The low count slots of z as balanced (signed) digits, width bytes a slot.

    Byte k of every slot is copied into the words of one array in one
    extended-slice assignment; a slot of more than 8 bytes joins its words.
    """
    words, half = -(-width // _WORD), 1 << (8 * width - 1)
    shifted = (z + _slot_offset(width, count)) & ((1 << (8 * width * count)) - 1)
    raw = shifted.to_bytes(width * count, "little")
    wide = array("Q", _restride(raw, width, _WORD * words))
    if _BIG_ENDIAN:
        wide.byteswap()
    if words == 1:
        return [x - half for x in wide]
    digits = wide[words - 1::words].tolist()
    for j in range(words - 2, -1, -1):
        digits = [(d << _WORD_BITS) | x for d, x in zip(digits, wide[j::words])]
    return [d - half for d in digits]


def _restride(src: bytes, src_span: int, dst_span: int) -> bytes:
    """Slots of src_span bytes respaced to dst_span bytes a slot.

    The low min(src_span, dst_span) bytes of each slot are copied, one
    extended-slice assignment per byte lane; the rest of a wider slot is zero.
    """
    if src_span == dst_span:
        return src
    dst = bytearray(dst_span * (len(src) // src_span))
    for k in range(min(src_span, dst_span)):
        dst[k::dst_span] = src[k::src_span]
    return dst


def _slot_offset(width: int, count: int) -> int:
    """Half the slot range in each of count slots: shifts balanced digits to unsigned."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _row_product(level: int, prec: int, rows_a, rows_b) -> list[list[int]]:
    """(sum eps^e rows_a[e]) * (sum eps^e rows_b[e]) to O(q^prec) by Kronecker substitution.

    The one multiply in Q(zeta_N), of series and (prec 1) of CycNums. Each row
    is packed into one int with 2*deg-1 slots per q-power, so the zeta-degree
    of a product term stays inside its q-power; a slot is width bytes, enough
    for any product coordinate, and moves through 64-bit words (`_pack`,
    `_unpack`). A square (rows_b is rows_a) packs once. Eps part k of the
    product sums the big-int products of parts i and k-i, unpacked and `_fold`ed.
    """
    deg = euler_phi(level)
    stride, size = 2 * deg - 1, prec * deg
    parts_a = [p[:size] for p in rows_a]
    parts_b = parts_a if rows_b is rows_a else [p[:size] for p in rows_b]
    big_a, big_b = (max(map(abs, chain(*parts)), default=0) for parts in (parts_a, parts_b))
    terms = min(len(parts_a), len(parts_b)) * size
    width = (big_a.bit_length() + big_b.bit_length() + terms.bit_length() + 2 + 7) // 8
    packed_a = [_pack(p, deg, stride, width) for p in parts_a]
    packed_b = packed_a if parts_b is parts_a else [_pack(p, deg, stride, width) for p in parts_b]
    out = []
    for k in range(len(parts_a) + len(parts_b) - 1):
        z = sum(packed_a[i] * packed_b[k - i]
                for i in range(max(0, k - len(parts_b) + 1), min(k, len(parts_a) - 1) + 1))
        digits = _unpack(z, prec * stride, width)
        # column s holds the zeta^s coordinate of every q-power
        cols = _fold(level, [digits[s::stride] for s in range(stride)])
        flat = [0] * size
        for t in range(deg):
            flat[t::deg] = cols[t]
        out.append(flat)
    return out


@lru_cache(maxsize=None)
def _twist_groups(level: int, minus: int, plus: int) -> tuple:
    """The classes j mod level grouped by their twist minus*zeta^(-j) + plus*zeta^j.

    A group is (members, matrix): members (j, op), j ascending, the first op
    `add`, and the op-signed sum of their rows times matrix is their twisted
    sum; matrix[i] lists (t, m), m != 0 coordinate t of minus*zeta^(i-j) +
    plus*zeta^(i+j), j the first member. Class -j joins class j with `add`
    for minus = plus and with `sub` for minus = -plus.
    """
    deg = euler_phi(level)
    table = _zeta_powers(level)
    groups: dict = {}
    for j in range(level):
        matrix = tuple(tuple((t, m) for t, (x, y) in enumerate(zip(table[(i - j) % level],
                                                                  table[(i + j) % level]))
                             if (m := minus * x + plus * y)) for i in range(deg))
        negated = tuple(tuple((t, -m) for t, m in col) for col in matrix)
        if negated in groups and matrix not in groups:
            groups[negated].append((j, sub))
        else:
            groups.setdefault(matrix, []).append((j, add))
    return tuple((tuple(members), matrix) for matrix, members in groups.items())


def divisor_sum(coeffs: QSeries, minus: int = 0, plus: int = 0, *,
                negated: Optional[QSeries] = None) -> QSeries:
    """The sieve sum_{n>=1} sum_{d*j=n} c(d) (minus*zeta^(-j) + plus*zeta^j) q^n,
    less the same sieve of negated with minus and plus swapped, if given.

    coeffs is sum_d c(d) q^d (its q^0 term unread) and fixes the level and
    precision P; the weight is 1 when minus = plus = 0. The one divisor-sum
    kernel, behind g_tilde, g_tilde_level1 and the four assembly formulas.
    Each nonzero coordinate column c of a row is summed, unweighted, into one
    accumulator per class of j mod K (K = level, or 1 unweighted), split at
    s = isqrt(K*P) as in Dirichlet's hyperbola method: for j <= s, c is added
    along the multiples of j; for j > s, so d <= (P-1)//(s+1), c(d) is added
    along d*j for the j of each class from its first one past s, in steps of
    K. That is O(sqrt(K*P)) exact integer slice steps per column. Over one
    denominator, negated's columns are subtracted into class -j where
    coeffs' are added to class j, since minus*zeta^j + plus*zeta^(-j) is the
    twist of class -j; so a class -j >= P of a j < P is not empty. Only the
    nonzero columns are scaled to that denominator, and a source already
    over it is sieved from its own column slices, with no rescaled copy.
    The twist follows in groups (`_twist_groups`): classes whose matrices
    agree up to sign, j and -j when minus = +-plus, are summed first, and
    each group's matrix is applied once, its +-1 entries as row adds.
    """
    level, prec = coeffs.level, coeffs.prec
    deg = euler_phi(level)
    classes = level if minus or plus else 1
    split = isqrt(classes * prec)
    # each source with the op its rows enter by: negated's subtracted, into class -j
    sources = ((coeffs, add),) if negated is None else ((coeffs, add), (negated, sub))
    den = lcm(*(f.den for f, _ in sources))
    sums = []
    for e in range(max(len(f.parts) for f, _ in sources)):
        feeds = []
        for f, op in sources:
            m, flat = den // f.den, f.parts[e] if e < len(f.parts) else ()
            # each nonzero column, scaled to den (the slice itself for m = 1)
            feeds.append(({i: c if m == 1 else [m * x for x in c]
                           for i in range(deg) if any(c := flat[i::deg])}, op))
        acc = [{i: [0] * prec for cols, _ in feeds for i in cols} for _ in range(classes)]
        for cols, op in feeds:
            view = acc if op is add else acc[:1] + acc[:0:-1]  # view[j] is class -j
            for j in range(1, min(split + 1, prec)):
                rows = view[j % classes]
                for i, c in cols.items():
                    rows[i][j::j] = map(op, rows[i][j::j], c[1:(prec - 1) // j + 1])
            for d in range(1, (prec - 1) // (split + 1) + 1):
                step = d * classes
                for i, c in cols.items():
                    if v := (c[d] if op is add else -c[d]):
                        for first in range(split + 1, split + 1 + classes):  # j > s, per class
                            start, row = d * first, view[first % classes][i]
                            row[start::step] = [x + v for x in row[start::step]]
        out = acc[0]
        if classes > 1:
            out = {}
            for members, matrix in _twist_groups(level, minus, plus):
                # a class j >= P is zero, unless negated's class -j < P filled it
                live = [(j, op) for j, op in members if j < prec or negated is not None]
                rows = acc[live[0][0]] if live else {}
                for j, op in live[1:]:
                    rows = {i: list(map(op, row, acc[j][i])) for i, row in rows.items()}
                # +-1 entries are inline row adds: `_int_sum` gave identical rows, 3.5-4% slower
                for i, row in rows.items():
                    for t, m in matrix[i]:
                        if (have := out.get(t)) is None:
                            out[t] = row if m == 1 else [m * x for x in row]
                        elif m == 1 or m == -1:
                            out[t] = list(map(add if m == 1 else sub, have, row))
                        else:
                            out[t] = [x + m * y for x, y in zip(have, row)]
        total = [0] * (prec * deg)
        for t, row in out.items():
            total[t::deg] = row
        sums.append(total)
    return QSeries._of(level, prec, den, sums)
