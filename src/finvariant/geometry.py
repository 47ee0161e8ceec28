"""Spectral and geometric inputs for the worked examples.

Circle spectra (exact eps-linear xi-values), the Chebyshev and Adams
polynomials (integer coefficient tuples from one three-term recurrence) and
the induced operations on the representation ring of SU(2), the SU(3)/SU(2)
kernel-parity enumeration, the quaternionic-plane index, and the symbolic
Chern-Simons computation on the five-dimensional homogeneous space with
global coframe (L1*, L2*, w1*, w2*, w3*), in one form type, `ExtForm`, whose
0-forms are the functions of the sphere coordinates y.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterator, Mapping

from .exactnum import EpsPoly

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class CalibrationError(ArithmeticError):
    """The norm-shell enumeration lost its expected real-line solution."""


# ---------------------------------------------------------------------------
# Circle spectra


def circle_xi(level: int, d: int) -> EpsPoly:
    """xi-representative 1/2 - d*eps of the d-th power twist on the circle.

    The twisted operator on the circle has spectrum 2*pi*(k + d*eps), whence
    (eta + dim ker)/2 = 1/2 - d*eps mod Z. d = 0 is the untwisted case and is
    handled by the trivial-bundle example, not here.
    """
    if d == 0:
        raise ValueError("d = 0 is the e-invariant input, not a twist")
    return EpsPoly.linear(level, _HALF, -d)


# ---------------------------------------------------------------------------
# Chebyshev polynomials and SU(2) operations


def _three_term(scale: int, p0: tuple[int, ...], p1: tuple[int, ...],
                d: int) -> tuple[int, ...]:
    """p_d of p_{n+1} = scale*x*p_n - p_{n-1}, integer coefficients lowest degree first."""
    prev, cur = p0, p1
    for _ in range(d):
        # deg p_{n-1} = deg p_n - 1, so p_{n-1} pads by two to the length of x*p_n
        prev, cur = cur, tuple(scale * a - b for a, b in zip((0,) + cur, prev + (0, 0)))
    return prev


def chebyshev(kind: str, d: int) -> tuple[int, ...]:
    """Chebyshev polynomial of the first (T) or second (U) kind, lowest degree first.

    T_0 = 1, T_1 = x, T_{n+1} = 2x T_n - T_{n-1}; U likewise with U_1 = 2x.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if kind not in ("T", "U"):
        raise ValueError("kind must be 'T' or 'U'")
    return _three_term(2, (1,), (0, 1) if kind == "T" else (0, 2), d)


def adams_psi_poly(d: int) -> tuple[int, ...]:
    """2*T_d(x/2) expanded with integer coefficients, lowest degree first.

    Expresses the d-th Adams operation on a quaternionic line bundle in terms
    of complex tensor powers. Integer recurrence: A_0 = 2, A_1 = x,
    A_{n+1} = x*A_n - A_{n-1}.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    return _three_term(1, (2,), (0, 1), d)


def su2_tensor(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Tensor product of (virtual) SU(2) modules by dimension.

    Clebsch-Gordan: V_m (x) V_n = V_{|m-n|+1} + V_{|m-n|+3} + ... + V_{m+n-1},
    extended bilinearly; zero multiplicities are dropped.
    """
    out: dict[int, int] = {}
    for m, am in a.items():
        if not am:
            continue
        for n, bn in b.items():
            if not bn:
                continue
            for k in range(abs(m - n) + 1, m + n, 2):
                out[k] = out.get(k, 0) + am * bn
    return {k: v for k, v in out.items() if v}


SPINOR_MODULE: dict[int, int] = {1: 2, 2: 1}
"""SU(2)-module structure of the spinors of the 5-dimensional isotropy module:
two trivial summands plus the defining 2-dimensional module."""


# ---------------------------------------------------------------------------
# SU(3): dimensions, branching, kernel parities


def su3_dim(m: int, n: int) -> int:
    """Dimension (m+1)(n+1)(m+n+2)/2 of the SU(3) module with labels (m, n)."""
    if m < 0 or n < 0:
        raise ValueError("labels must be nonnegative")
    return (m + 1) * (n + 1) * (m + n + 2) // 2


def su3_restrict_su2(m: int, n: int) -> dict[int, int]:
    """Branching of the (m, n) module to the upper-left SU(2) block.

    Via interlacing patterns for the highest weight (m+n, n, 0): each pair
    mu1 in [n, m+n], mu2 in [0, n] contributes the irreducible of dimension
    mu1 - mu2 + 1.
    """
    out: dict[int, int] = {}
    for mu1 in range(n, m + n + 1):
        for mu2 in range(0, n + 1):
            k = mu1 - mu2 + 1
            out[k] = out.get(k, 0) + 1
    return out


def _norm_shell(k: int) -> Iterator[tuple[int, int]]:
    """Dominant labels (m, n) with ||(m,n)+rho||^2 = (k+1)^2.

    In the hexagonal-lattice embedding the squared norm of (m,n)+rho is
    (a^2 + a*b + b^2)/3 with a = m+1, b = n+1, so the shell condition is
    a^2 + a*b + b^2 = 3*(k+1)^2.
    """
    target = 3 * (k + 1) ** 2
    a = 1
    while a * a <= target:
        # solve b^2 + a*b + (a^2 - target) = 0 over positive integers
        disc = a * a - 4 * (a * a - target)
        root = math.isqrt(disc)
        if root * root == disc and (root - a) % 2 == 0:
            b = (root - a) // 2
            if b >= 1:
                yield (a - 1, b - 1)
        a += 1


def su3_kernel_parity(k: int) -> int:
    """Parity of the kernel of the twisted operator for the 2k+2-dimensional twist.

    Enumerates all dominant labels on the norm shell ||gamma + rho_G||^2 =
    ||kappa + rho_H||^2 = (k+1)^2; conjugate pairs (m, n) <-> (n, m) carry
    equal even contributions and are discarded, and each self-conjugate
    label contributes dim W * dim Hom(W|_{SU(2)}, spinors (x) V_{2k+2}).
    Contract (checked by the acceptance suite): result == (k+1) mod 2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    shell = list(_norm_shell(k))
    if (k, k) not in shell:
        raise CalibrationError(
            f"no real-line solution (k, k) on the norm shell for k = {k}")
    target = su2_tensor(SPINOR_MODULE, {2 * k + 2: 1})
    total = 0
    for m, n in shell:
        if m != n:
            continue  # conjugate pair: even contribution
        branch = su3_restrict_su2(m, n)
        hom_dim = sum(mult * target.get(dim, 0) for dim, mult in branch.items())
        total += su3_dim(m, n) * hom_dim
    return total % 2


def su3_psi_twist_kernel_parity(d: int) -> int:
    """Kernel parity for the d-th Adams-operation twist, odd d only.

    The virtual twist V_{d+1} - V_{d-1} reduces to the parities at
    k = (d-1)/2 and (d-3)/2 (single term for d = 1). Contract: equals 1.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be odd and positive")
    if d == 1:
        return su3_kernel_parity(0)
    return (su3_kernel_parity((d - 1) // 2)
            + su3_kernel_parity((d - 3) // 2)) % 2


# ---------------------------------------------------------------------------
# The quaternionic plane index


def hp1_index(d: int) -> int:
    """Index d^2 of the chiral twisted operator on the quaternionic plane.

    Derived symbolically: the character of the d-th Adams twist is
    e^(dx) + e^(-dx), whose 4-form part is d^2 x^2 = -d^2 c2, paired against
    the fundamental class via the normalization integral of c2 being -1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ch2_coefficient = Fraction(d * d)      # (dx)^2/2! + (-dx)^2/2! = d^2 x^2
    c2_pairing = Fraction(-1)              # integral of c2 over the plane
    index = -ch2_coefficient * c2_pairing  # x^2 = -c2
    assert index.denominator == 1
    return int(index)


# ---------------------------------------------------------------------------
# Exterior calculus on the 5-dimensional homogeneous space

# A form is one flat dict {(indices, exponents): Fraction}: the term
# c * y1^e1 y2^e2 y3^e3 * theta_i1 ^ ... ^ theta_ik over strictly increasing
# coframe indices. A function of y is a 0-form (indices ()), so a function
# times a form is their wedge. Functions live in
# Q[y1, y2, y3] / (y1^2 + y2^2 + y3^2 - 1), normal form with y3-degree <= 1
# (substitute y3^2 = 1 - y1^2 - y2^2, in _normal_form only).

Mono = tuple[int, int, int]
_NO_Y: Mono = (0, 0, 0)


def _accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum vanishes."""
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


@lru_cache(maxsize=None)
def _normal_form(exps: Mono) -> tuple[tuple[Mono, int], ...]:
    """The monomial y^exps in normal form, as (monomial, integer coefficient) pairs."""
    e1, e2, e3 = exps
    if e3 <= 1:
        return ((exps, 1),)
    out: dict[Mono, int] = {}
    for (f1, f2, f3), v in _normal_form((e1, e2, e3 - 2)):
        for key, c in (((f1, f2, f3), v), ((f1 + 2, f2, f3), -v), ((f1, f2 + 2, f3), -v)):
            _accumulate(out, key, c)
    return tuple(out.items())


class ExtForm:
    """Exterior-algebra element over the 5-element coframe, functions of y as 0-forms.

    `terms` maps (indices, exponents) to a nonzero Fraction; the indices are
    strictly increasing and the exponents in normal form. A wedge resorts the
    indices with the permutation sign and multiplies the coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[tuple[int, ...], Mono], Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, c) -> "ExtForm":
        """The constant function c."""
        return cls({((), _NO_Y): Fraction(c)})

    @classmethod
    def y(cls, i: int) -> "ExtForm":
        """The coordinate function y_(i+1), i = 0, 1, 2."""
        return cls({((), tuple(int(j == i) for j in range(3))): _ONE})

    @classmethod
    def basis(cls, index: int) -> "ExtForm":
        """The coframe element theta_index."""
        return cls({((index,), _NO_Y): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtForm):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "ExtForm") -> "ExtForm":
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return ExtForm(out)

    def __sub__(self, other: "ExtForm") -> "ExtForm":
        return self + other.scale(-1)

    def __neg__(self) -> "ExtForm":
        return self.scale(-1)

    def scale(self, c) -> "ExtForm":
        c = Fraction(c)
        return ExtForm({k: c * v for k, v in self.terms.items()})

    def wedge(self, other: "ExtForm") -> "ExtForm":
        out: dict[tuple[tuple[int, ...], Mono], Fraction] = {}
        for (ia, (e1, e2, e3)), va in self.terms.items():
            for (ib, (f1, f2, f3)), vb in other.terms.items():
                if set(ia) & set(ib):
                    continue
                # sorting ia + ib takes one transposition per pair i in ia, j in ib with i > j
                v = va * vb if sum(i > j for i in ia for j in ib) % 2 == 0 else -va * vb
                merged = tuple(sorted(ia + ib))
                for exps, c in _normal_form((e1 + f1, e2 + f2, e3 + f3)):
                    _accumulate(out, (merged, exps), c * v)
        return ExtForm(out)


def _l3_star() -> ExtForm:
    """The dependent coframe element L3* = y1 w1* + y2 w2* + y3 w3*."""
    return sum((ExtForm.y(i).wedge(ExtForm.basis(2 + i)) for i in range(3)), ExtForm())


@lru_cache(maxsize=1)
def connection_matrix() -> tuple[tuple[ExtForm, ...], ...]:
    """The skew 5x5 connection form in the coframe (L1*, L2*, w1*, w2*, w3*)."""
    L1 = ExtForm.basis(0)
    L2 = ExtForm.basis(1)
    w = [ExtForm.basis(2 + i) for i in range(3)]
    L3 = _l3_star()
    y = [ExtForm.y(i) for i in range(3)]

    def yw(i, form):  # y_i * form
        return y[i].wedge(form)

    zero = ExtForm()
    row0 = (zero, -L3, yw(0, L2), yw(1, L2), yw(2, L2))
    row1 = (L3, zero, -yw(0, L1), -yw(1, L1), -yw(2, L1))
    row2 = (-yw(0, L2), yw(0, L1), zero,
            w[2].scale(2) - yw(2, L3).scale(2),
            yw(1, L3).scale(2) - w[1].scale(2))
    row3 = (-yw(1, L2), yw(1, L1),
            yw(2, L3).scale(2) - w[2].scale(2), zero,
            w[0].scale(2) - yw(0, L3).scale(2))
    row4 = (-yw(2, L2), yw(2, L1),
            w[1].scale(2) - yw(1, L3).scale(2),
            yw(0, L3).scale(2) - w[0].scale(2), zero)
    return (row0, row1, row2, row3, row4)


@lru_cache(maxsize=1)
def _dy_forms() -> tuple[ExtForm, ExtForm, ExtForm]:
    """dy1 = 2(y3 w2* - y2 w3*), dy2 = 2(y1 w3* - y3 w1*), dy3 = 2(y2 w1* - y1 w2*).

    Derived from the right-invariant action on the sphere functions; locked
    in by d(y1^2+y2^2+y3^2) = 0 and nilpotency of d on the coframe.
    """
    y = [ExtForm.y(i) for i in range(3)]
    w = [ExtForm.basis(2 + i) for i in range(3)]
    dy1 = (y[2].wedge(w[1]) - y[1].wedge(w[2])).scale(2)
    dy2 = (y[0].wedge(w[2]) - y[2].wedge(w[0])).scale(2)
    dy3 = (y[1].wedge(w[0]) - y[0].wedge(w[1])).scale(2)
    return dy1, dy2, dy3


@lru_cache(maxsize=1)
def _dtheta() -> tuple[ExtForm, ...]:
    """d of each coframe element via the structure equation dtheta = -omega ^ theta."""
    omega = connection_matrix()
    theta = [ExtForm.basis(i) for i in range(5)]
    out = []
    for a in range(5):
        acc = ExtForm()
        for b in range(5):
            acc = acc + omega[a][b].wedge(theta[b])
        out.append(-acc)
    return tuple(out)


def ext_d(form: ExtForm) -> ExtForm:
    """Exterior derivative: d(f theta_I) = df ^ theta_I + f * d(theta_I)."""
    dys = _dy_forms()
    dthetas = _dtheta()
    acc = ExtForm()
    for (indices, exps), v in form.terms.items():
        for i, e in enumerate(exps):
            if e:
                lower = exps[:i] + (e - 1,) + exps[i + 1:]
                acc = acc + dys[i].wedge(ExtForm({(indices, lower): v * e}))
        for j, idx in enumerate(indices):
            rest = indices[:j] + indices[j + 1:]
            acc = acc + dthetas[idx].wedge(ExtForm({(rest, exps): v * (-1) ** j}))
    return acc


def volume3_multiple(form: ExtForm) -> Fraction:
    """Express a 3-form as c * L1*^L2*^L3* with rational c, or raise ValueError.

    L1*^L2*^L3* has the component y1 L1* L2* w1*, so c is the coefficient of
    y1 there, and the whole form must then equal c times the volume form.
    """
    volume = ExtForm.basis(0).wedge(ExtForm.basis(1)).wedge(_l3_star())
    c = form.terms.get(((0, 1, 2), (1, 0, 0)), _ZERO)
    if form != volume.scale(c):
        raise ValueError("not a rational multiple of the volume form L1*^L2*^L3*")
    return c


def chern_simons_traces() -> tuple[ExtForm, ExtForm]:
    """The 3-form traces tr(omega ^ d omega) and tr(omega ^ omega ^ omega)."""
    omega = connection_matrix()
    domega = [[ext_d(w) for w in row] for row in omega]
    return _wedge_trace(omega, domega), _wedge_trace(omega, omega, omega)


def _wedge_trace(*factors) -> ExtForm:
    """tr(M1 ^ ... ^ Mk) of 5x5 matrices of forms, summed over index cycles."""
    acc = ExtForm()
    for idx in itertools.product(range(5), repeat=len(factors)):
        entries = [m[a][b] for m, a, b in zip(factors, idx, idx[1:] + idx[:1])]
        if all(entries):
            acc = acc + reduce(ExtForm.wedge, entries)
    return acc


@lru_cache(maxsize=1)
def chern_simons_volume_coefficients() -> tuple[Fraction, Fraction]:
    """Rational coefficients of the two traces against the volume 3-form."""
    tr_wdw, tr_www = chern_simons_traces()
    return volume3_multiple(tr_wdw), volume3_multiple(tr_www)


# The normalization integral of L1*^L2*^L3* against the first Chern form of
# the tautological bundle equals 2*pi^2; only the pi^2-free ratio enters.
VOLUME_C1_INTEGRAL_OVER_PI2 = Fraction(2)
CS_GENUS_PREFACTOR = Fraction(-1, 24)
CS_TRACE_PREFACTOR = Fraction(-1, 8)   # times 1/pi^2, folded into the ratio above


def cs_integral(d: int) -> Fraction:
    """Chern-Simons correction for the d-th power twist; evaluates to d/12."""
    c_wdw, c_www = chern_simons_volume_coefficients()
    combination = c_wdw + Fraction(2, 3) * c_www
    return (CS_GENUS_PREFACTOR * CS_TRACE_PREFACTOR * combination
            * VOLUME_C1_INTEGRAL_OVER_PI2 * d)


# ---------------------------------------------------------------------------
# Example xi-tables (values only; the table containers live in fassembly)


def nu2_xi_values(level: int, dmax: int) -> dict[int, EpsPoly]:
    """xi_d = -(Chern-Simons term) for the homogeneous-space example.

    The spectral contribution vanishes (symmetric spectrum, trivial kernel),
    leaving xi_d = -d/12 exactly.
    """
    return {d: EpsPoly.rational(level, -cs_integral(d)) for d in range(1, dmax + 1)}


def etasigma_parity_values(level: int, dmax: int) -> dict[int, EpsPoly]:
    """Kernel parities d^2 mod 2 (= d^3 mod 2) of the product example, odd d only."""
    return {d: EpsPoly.rational(level, hp1_index(d) % 2)
            for d in range(1, dmax + 1, 2)}


def su3_parity_values(level: int, dmax: int) -> dict[int, EpsPoly]:
    """Kernel parities from the SU(3) enumeration, odd d only."""
    return {d: EpsPoly.rational(level, su3_psi_twist_kernel_parity(d))
            for d in range(1, dmax + 1, 2)}
