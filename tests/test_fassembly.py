"""Assembly formulas, known representatives, and the example pipelines."""

import random
from fractions import Fraction

import pytest

from finvariant.cli import main
from finvariant.divcong import is_equivalent, make_lattice
from finvariant.exactnum import CycNum, EpsPoly, euler_phi
from finvariant.fassembly import (COMPLEX_FULL, COMPLEX_POSITIVE, EXAMPLES,
                                  QUATERNIONIC, QUATERNIONIC_KERNEL_PARITY,
                                  FRepresentative, MissingTwistError, XiTable,
                                  assemble_complex, assemble_complex_reduced,
                                  assemble_quaternionic,
                                  assemble_quaternionic_reduced,
                                  known_representative, run_example)
from finvariant.genus import g_tilde, g_tilde_level1
from finvariant import geometry
from finvariant.geometry import circle_xi, nu2_xi_values, su3_psi_twist_kernel_parity
from finvariant.qseries import QSeries
from reference import divisors, row_sum, series_rows, sigma, twisted_divisor_sum

from conftest import level5_user_basis, random_cyc


def _table(kind, level, l, entries):
    return XiTable(kind, level, l, entries)


def _rational_table(kind, level, l, values):
    return XiTable(kind, level, l, {d: EpsPoly.rational(level, v) for d, v in values.items()})


def _constant_full_table(level, l, dmax, value):
    return XiTable.constant(COMPLEX_FULL, level, l, dmax, value, both_signs=True)


def _table_coords(values):
    """Each value, a pair or 1-tuple of CycNums (eps^0, eps^1), as its parts' coordinates."""
    return {d: [x.coords for x in v] for d, v in values.items()}


def _twisted_sum(level, prec, terms):
    """The rows of sum_n sum_{d | n} sum over terms of c(d) w(n/d) q^n.

    A term (values, minus, plus, scale) takes c(d) = scale * values[d], a
    rational or a list of eps parts of rational coordinates, with the weight
    w(j) = minus*zeta^(-j) + plus*zeta^j (1 when both are 0).
    """
    sums = []
    for values, minus, plus, scale in terms:
        series = series_rows(level, prec, [0] + [values[d] for d in range(1, prec)])
        sums.append((scale, twisted_divisor_sum(level, series, minus, plus)))
    return row_sum(prec * euler_phi(level), sums)


# ---------------------------------------------------------------------------
# assemble_complex


def test_constant_table_gives_minus_gtilde1():
    for level in (2, 3):
        e = Fraction(5, 7)
        xi = _constant_full_table(level, 1, 11, e)
        rep = assemble_complex(xi, 12)
        assert rep.series == g_tilde(level, 1, 12) * (-e)


def test_zero_table_assembles_to_zero():
    xi = _constant_full_table(3, 1, 7, 0)
    assert not assemble_complex(xi, 8).series


def test_single_twist_coefficient():
    # xi_1 = 1, xi_-1 = 0, all others zero: q^2-coefficient is zeta^-2
    entries = {}
    for d in range(1, 8):
        entries[d] = EpsPoly.rational(3, 1 if d == 1 else 0)
        entries[-d] = EpsPoly.rational(3, 0)
    xi = _table(COMPLEX_FULL, 3, 1, entries)
    rep = assemble_complex(xi, 8)
    assert rep.series.coefficient(2) == EpsPoly(3, (CycNum(3, [0, 1]),))  # zeta^-2 = zeta


def test_assembly_matches_twist_table_pairing():
    # the two-sided assembly pairs xi[d] with zeta^(-n/d) and xi[-d] with
    # -zeta^(n/d), checked by direct divisor enumeration
    rng = random.Random(92)
    prec = 8
    values = {}
    for d in range(1, prec):
        values[d] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        values[-d] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    entries = {d: EpsPoly.rational(3, v) for d, v in values.items()}
    rep = assemble_complex(_table(COMPLEX_FULL, 3, 2, entries), prec)
    negative = {d: values[-d] for d in range(1, prec)}
    want = _twisted_sum(3, prec, [(values, 1, 0, 1), (negative, 0, -1, 1)])
    assert (rep.series.den, rep.series.parts) == want


def test_assemblers_match_direct_enumeration_with_cyclotomic_xi():
    # xi-values with non-rational CycNum coefficients in both eps-degrees,
    # each a pair (eps^0 part, eps^1 part) summed part by part
    rng = random.Random(57)
    prec = 13
    for level in (2, 5, 12):
        def value():
            return random_cyc(rng, level, 9, 4), random_cyc(rng, level, 9, 4)

        def table(kind, l, values):
            return _table(kind, level, l, {d: EpsPoly(level, v) for d, v in values.items()})

        ds = range(1, prec)
        full = {s * d: value() for d in ds for s in (1, -1)}
        positive = {d: value() for d in ds}
        full_coords, coords = _table_coords(full), _table_coords(positive)
        negative = {d: full_coords[-d] for d in ds}
        odd = {d: coords[d] if d % 2 else 0 for d in ds}
        # per assembly: the (values, minus, plus, scale) terms of its twisted sum
        cases = (
            (assemble_complex(table(COMPLEX_FULL, 1, full), prec),
             [(full_coords, 1, 0, 1), (negative, 0, -1, 1)]),
            (assemble_complex_reduced(table(COMPLEX_POSITIVE, 2, positive), prec),
             [(coords, 1, -1, 1)]),
            (assemble_complex_reduced(table(COMPLEX_POSITIVE, 3, positive), prec),
             [(coords, 1, 1, 1)]),
            (assemble_quaternionic(table(QUATERNIONIC, 3, positive), prec),
             [(coords, 0, 0, 1)]),
            (assemble_quaternionic_reduced(table(QUATERNIONIC_KERNEL_PARITY, 4, positive), prec),
             [(odd, 0, 0, Fraction(1, 2))]),
        )
        for case, (rep, terms) in enumerate(cases):
            want = _twisted_sum(level, prec, terms)
            assert (rep.series.den, rep.series.parts) == want, (level, case)


def test_complex_assembly_at_every_precision_around_the_level():
    # xi[-d] is sieved into the class -j of xi[d]'s sum, so at P < N the class
    # -j >= P of a twist j < P is not empty; an eps part on xi[d] only, and
    # denominators 4 on xi[d] against 9 on xi[-d]
    rng = random.Random(61)
    for level in (2, 3, 5, 7, 12):
        deg = euler_phi(level)

        def value(den):
            return CycNum(level, [Fraction(rng.randint(-9, 9), den) for _ in range(deg)])

        for prec in range(1, level + 3):
            plus = {d: (value(4), value(4)) for d in range(1, prec)}
            minus = {d: (value(9),) for d in range(1, prec)}
            entries = {**{d: EpsPoly(level, v) for d, v in plus.items()},
                       **{-d: EpsPoly(level, v) for d, v in minus.items()}}
            rep = assemble_complex(_table(COMPLEX_FULL, level, 1, entries), prec)
            assert rep.series.prec == prec
            terms = [(_table_coords(plus), 1, 0, 1), (_table_coords(minus), 0, -1, 1)]
            want = _twisted_sum(level, prec, terms)
            assert (rep.series.den, rep.series.parts) == want, (level, prec)


def test_complex_assembly_with_equal_denominators_and_an_eps_part_on_one_side():
    # xi[d] and xi[-d] both over exactly 4, so neither side is rescaled, and an eps part on
    # xi[-d] only: that part is sieved as stored while xi[d]'s eps^1 side is empty
    rng = random.Random(67)
    for level in (2, 3, 5, 12):
        deg = euler_phi(level)

        def value():
            return CycNum(level, [Fraction(2 * rng.randint(-4, 4) + 1, 4)]
                          + [Fraction(rng.randint(-9, 9), 4) for _ in range(deg - 1)])

        for prec in (2, 3, level + 2, 17):
            plus = {d: (value(),) for d in range(1, prec)}
            minus = {d: (value(), value()) for d in range(1, prec)}
            entries = {**{d: EpsPoly(level, v) for d, v in plus.items()},
                       **{-d: EpsPoly(level, v) for d, v in minus.items()}}
            table = _table(COMPLEX_FULL, level, 1, entries)
            assert table.series(prec).den == table.series(prec, -1).den == 4
            rep = assemble_complex(table, prec)
            terms = [(_table_coords(plus), 1, 0, 1), (_table_coords(minus), 0, -1, 1)]
            assert (rep.series.den, rep.series.parts) == _twisted_sum(level, prec, terms), \
                (level, prec)
            assert len(rep.series.parts) == 2


def test_missing_twist_refused():
    entries = {1: EpsPoly.rational(3, 1), -1: EpsPoly.rational(3, 0)}
    xi = _table(COMPLEX_FULL, 3, 1, entries)
    with pytest.raises(MissingTwistError):
        assemble_complex(xi, 4)
    # the table kind sets the support: both signs for complex_full, odd
    # indices only for kernel parities
    one = EpsPoly.rational(3, 1)
    xi = _table(COMPLEX_FULL, 3, 1, {1: one, -1: one, 2: one})
    with pytest.raises(MissingTwistError, match=r"^twist -2 missing \(need both signs\)$"):
        assemble_complex(xi, 3)
    parities = _table(QUATERNIONIC_KERNEL_PARITY, 3, 4, {1: one, 3: one})
    assert assemble_quaternionic_reduced(parities, 5).series.prec == 5
    with pytest.raises(MissingTwistError, match=r"^twist 5 missing \(need support to 6\)$"):
        assemble_quaternionic_reduced(parities, 7)
    # d is checked before -d, so a table {1, -2} fails on -1, not on 2
    xi = _table(COMPLEX_FULL, 3, 1, {1: one, -2: one})
    with pytest.raises(MissingTwistError, match=r"^twist -1 missing \(need both signs\)$"):
        assemble_complex(xi, 7)


def test_kernel_parity_even_twists_unread():
    # the other values held at even twists, eps parts too, change nothing
    rng = random.Random(5)
    odd = {d: EpsPoly.rational(3, d % 4) for d in range(1, 12, 2)}
    even = {d: EpsPoly(3, [random_cyc(rng, 3), random_cyc(rng, 3)]) for d in range(2, 12, 2)}
    parities = _table(QUATERNIONIC_KERNEL_PARITY, 3, 4, odd)
    padded = _table(QUATERNIONIC_KERNEL_PARITY, 3, 4, {**odd, **even})
    for prec in (2, 7, 12):
        series = assemble_quaternionic_reduced(parities, prec).series
        assert series
        assert assemble_quaternionic_reduced(padded, prec).series == series


# ---------------------------------------------------------------------------
# assemble_complex_reduced


def test_circle_table_splits_into_weight1_and_eps_weight2():
    prec = 12
    entries = {d: circle_xi(3, d) for d in range(1, prec)}
    xi = _table(COMPLEX_POSITIVE, 3, 1, entries)
    rep = assemble_complex_reduced(xi, prec)
    from finvariant.qseries import eps_split
    parts = eps_split(rep.series)
    assert len(parts) == 2
    assert parts[1] == g_tilde(3, 2, prec)  # the eps-part is exactly Gtilde_2
    ones = dict.fromkeys(range(1, prec), 1)
    half_sum = _twisted_sum(3, prec, [(ones, 1, 1, Fraction(1, 2))])
    assert (parts[0].den, parts[0].parts) == half_sum


def test_nu2_table_collapses_exactly():
    prec = 10
    xi = _table(COMPLEX_POSITIVE, 3, 3, nu2_xi_values(3, prec - 1))
    rep = assemble_complex_reduced(xi, prec)
    assert rep.series == g_tilde(3, 2, prec) * Fraction(1, 12)
    assert rep.weight_bound == 4


def test_even_l_doubled_output_in_lattice():
    # half-integer tables: twice the assembled series has ring-integer
    # coefficients, hence is lattice-equivalent to zero
    rng = random.Random(21)
    prec = 10
    lattice = make_lattice(3, 3, prec, gtilde=g_tilde(3, 3, prec))
    for _ in range(3):
        entries = {d: EpsPoly.rational(3, Fraction(rng.randint(-6, 6), 2))
                   for d in range(1, prec)}
        xi = _table(COMPLEX_POSITIVE, 3, 2, entries)
        rep = assemble_complex_reduced(xi, prec)
        doubled = rep.series * 2
        res = is_equivalent(doubled, QSeries.zero(3, prec), lattice)
        assert res.equivalent


# ---------------------------------------------------------------------------
# assemble_quaternionic


def test_quaternionic_zero_and_cube_placeholder():
    zero_table = _table(QUATERNIONIC, 3, 4,
                        {d: EpsPoly.rational(3, 0) for d in range(1, 10)})
    assert not assemble_quaternionic(zero_table, 10).series

    cube_table = _table(QUATERNIONIC, 3, 4,
                        {d: EpsPoly.rational(3, d ** 3) for d in range(1, 10)})
    rep = assemble_quaternionic(cube_table, 10)
    for n in range(1, 10):
        assert rep.series.coefficient(n) == EpsPoly.rational(3, sigma(n, 3))


def test_quaternionic_single_entry_geometric():
    entries = {d: EpsPoly.rational(3, 1 if d == 1 else 0) for d in range(1, 8)}
    rep = assemble_quaternionic(_table(QUATERNIONIC, 3, 4, entries), 8)
    # q/(1-q) truncation: every positive exponent has coefficient 1
    for n in range(1, 8):
        assert rep.series.coefficient(n) == EpsPoly.rational(3, 1)


# ---------------------------------------------------------------------------
# assemble_quaternionic_reduced


def test_parity_assembly_matches_halved_sigma3_mod_integers():
    prec = 40
    entries = {d: EpsPoly.rational(3, d ** 3 % 2) for d in range(1, prec, 2)}
    table = _table(QUATERNIONIC_KERNEL_PARITY, 3, 4, entries)
    rep = assemble_quaternionic_reduced(table, prec)
    reference = g_tilde_level1(3, 4, prec) * Fraction(1, 2)
    diff = reference - rep.series
    for n in range(1, prec):
        value = diff.coefficient(n).coefficient(0).rational_part()
        assert value is not None and value.denominator == 1


def test_parity_assembly_torsion_branch_is_zero():
    entries = {d: EpsPoly.rational(3, 1) for d in range(1, 10, 2)}
    table = _table(QUATERNIONIC_KERNEL_PARITY, 3, 6, entries)
    assert not assemble_quaternionic_reduced(table, 10).series


def test_parity_assembly_zero_parities():
    entries = {d: EpsPoly.rational(3, 0) for d in range(1, 10, 2)}
    table = _table(QUATERNIONIC_KERNEL_PARITY, 3, 4, entries)
    assert not assemble_quaternionic_reduced(table, 10).series


def test_parity_assembly_rejects_odd_l():
    entries = {1: EpsPoly.rational(3, 1)}
    table = _table(QUATERNIONIC_KERNEL_PARITY, 3, 5, entries)
    with pytest.raises(ValueError):
        assemble_quaternionic_reduced(table, 2)


# ---------------------------------------------------------------------------
# Invariants


def test_assembly_linear_in_table():
    rng = random.Random(33)
    prec = 9
    def rand_values():
        return {d: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for d in range(1, prec)}
    v1, v2 = rand_values(), rand_values()
    summed = {d: v1[d] + v2[d] for d in v1}
    rep1 = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 2, v1), prec)
    rep2 = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 2, v2), prec)
    rep12 = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 2, summed), prec)
    assert rep12.series == rep1.series + rep2.series


def test_integer_shift_changes_output_by_integral_series():
    from finvariant.qseries import is_integral_series
    prec = 9
    base = {d: Fraction(1, 5) for d in range(1, prec)}
    shifted = dict(base)
    shifted[2] = shifted[2] + 3  # integer shift of a single entry
    rep_a = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 1, base), prec)
    rep_b = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 1, shifted), prec)
    assert is_integral_series(rep_b.series - rep_a.series)


def test_full_and_reduced_assemblies_agree_for_odd_l():
    # tables with xi_{-d} = -xi_d + integer: the two assemblies differ by an
    # integral series, hence are lattice-equivalent
    rng = random.Random(44)
    prec = 10
    lattice = make_lattice(3, 2, prec, gtilde=g_tilde(3, 2, prec))
    pos = {d: Fraction(rng.randint(-6, 6), 3) for d in range(1, prec)}
    values = dict(pos)
    for d in range(1, prec):
        values[-d] = -pos[d] + rng.randint(-2, 2)
    full = assemble_complex(_rational_table(COMPLEX_FULL, 3, 1, values), prec)
    reduced = assemble_complex_reduced(_rational_table(COMPLEX_POSITIVE, 3, 1, pos), prec)
    res = is_equivalent(full.series, reduced.series, lattice)
    assert res.equivalent


def test_representative_constant_term_enforced():
    with pytest.raises(ValueError):
        FRepresentative(QSeries.one(3, 4), 2)
    # a q^0 that holds only an eps part
    with pytest.raises(ValueError):
        FRepresentative(QSeries(3, 4, [EpsPoly.linear(3, 0, 1)]), 2)


def test_assemblers_reject_wrong_kind():
    table = XiTable.constant(COMPLEX_POSITIVE, 3, 1, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        assemble_complex(table, 5)
    with pytest.raises(ValueError):
        assemble_quaternionic(table, 5)
    with pytest.raises(ValueError):
        assemble_quaternionic_reduced(table, 5)
    full = XiTable.constant(COMPLEX_FULL, 3, 1, 4, 1, both_signs=True)
    with pytest.raises(ValueError):
        assemble_complex_reduced(full, 5)


def test_xitable_validation():
    with pytest.raises(ValueError):
        XiTable("bogus", 3, 1, {})
    with pytest.raises(ValueError):
        XiTable(COMPLEX_POSITIVE, 3, 1, {-1: EpsPoly.rational(3, 1)})
    with pytest.raises(ValueError):
        XiTable(COMPLEX_FULL, 3, 1, {0: EpsPoly.rational(3, 1)})


# ---------------------------------------------------------------------------
# Known representatives


def test_known_representative_eta2():
    rep = known_representative("eta2", 3, 6)
    # (zeta - zeta^2)/2 = (1 + 2*zeta)/2
    assert rep.series.coefficient(1) == EpsPoly(3, (CycNum(3, [Fraction(1, 2), 1]),))
    assert rep.weight_bound == 2


def test_known_representative_nu2():
    rep = known_representative("nu2", 3, 6)
    # Gtilde_2 = q + 3q^2 + ..., so its square halves to q^2-coefficient 1/2
    assert rep.series.coefficient(2) == EpsPoly.rational(3, Fraction(1, 2))
    assert rep.weight_bound == 4


def test_known_representative_etasigma():
    rep = known_representative("etasigma", 3, 6)
    assert rep.series.coefficient(4) == EpsPoly.rational(3, Fraction(73, 2))
    assert rep.weight_bound == 5


def test_known_representative_level_parity():
    with pytest.raises(ValueError):
        known_representative("nu2", 2, 6)
    with pytest.raises(ValueError):
        known_representative("etasigma", 4, 6)
    known_representative("eta2", 4, 6)  # allowed at even level
    with pytest.raises(ValueError, match=r"^unknown representative 'su3'$"):
        known_representative("su3", 3, 6)


# ---------------------------------------------------------------------------
# Example pipelines


def test_run_example_trivial_various_scalars():
    for e in (Fraction(1), Fraction(-3, 4), Fraction(7, 5)):
        report = run_example("trivial", 3, 10, e_invariant=e)
        assert report.verdict


def test_run_example_eta2():
    report = run_example("eta2", 3, 12)
    assert report.verdict
    assert report.equivalence.certificate.gtilde_eps_coeff == 1


def test_run_example_eta2_even_level_allowed():
    assert run_example("eta2", 4, 12).verdict
    # at level 2 the weight-one reference vanishes identically and the
    # assembled series itself must be absorbed by the lattice
    report = run_example("eta2", 2, 12)
    assert report.verdict
    assert not report.reference.series


def test_run_example_nu2():
    report = run_example("nu2", 3, 10)
    assert report.verdict
    assert report.details["collapses_to_twelfth_gtilde2"]


def test_run_example_quaternionic_pair_identical():
    a = run_example("etasigma", 3, 14)
    b = run_example("su3", 3, 14)
    assert a.verdict and b.verdict
    assert a.assembled.series == b.assembled.series
    assert b.details["parity_table"] == {k: (k + 1) % 2 for k in range(11)}


def test_su3_example_enumerates_each_kernel_parity_once(monkeypatch):
    # the odd twists d <= 15 read k <= 7, the parity table k <= 10: one enumeration each
    calls = []
    real = geometry.su3_kernel_parity
    monkeypatch.setattr(geometry, "su3_kernel_parity", lambda k: calls.append(k) or real(k))
    report = run_example("su3", 3, 16)
    assert sorted(calls) == list(range(11))
    assert report.verdict
    calls.clear()
    values = geometry.su3_parity_values(3, 15)
    assert sorted(calls) == list(range(8))
    assert values == {d: EpsPoly.rational(3, su3_psi_twist_kernel_parity(d))
                      for d in range(1, 16, 2)}


def test_run_example_parity_guard():
    with pytest.raises(ValueError):
        run_example("nu2", 2, 10)
    with pytest.raises(ValueError):
        run_example("etasigma", 4, 10)


def test_run_example_unsupported_level_needs_user_basis():
    from finvariant.divcong import BasisError
    with pytest.raises(BasisError):
        run_example("eta2", 5, 12)


def test_run_example_with_a_user_basis():
    # level 5 has no built-in generators; the caller's basis makes its lattice
    assert run_example("eta2", 5, 12, basis=level5_user_basis(12)).verdict


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_run_example_gives_the_verdict_the_cli_prints(tmp_path, capsys, name):
    report = run_example(name, 3, 12)
    code = main(["example", name, "-N", "3", "-p", "12", "--basis", str(tmp_path)])
    assert report.verdict and code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"verdict: {report.verdict}"


@pytest.mark.parametrize("name", ["nu2", "etasigma", "su3"])
def test_run_example_even_level_names_the_example(name):
    with pytest.raises(ValueError, match=f"^{name} is defined at odd levels only$"):
        run_example(name, 2, 8)


def test_run_example_unknown_name_lists_the_cli_names():
    with pytest.raises(ValueError, match="unknown example 'eta2_circle'") as exc:
        run_example("eta2_circle", 3, 8)
    assert all(repr(name) in str(exc.value) for name in EXAMPLES)


def test_the_library_surface_a_benchmark_harness_reads():
    # built and read as an outside harness does, through the package namespace:
    # a series from per-coefficient CycNum parts, an xi-table of EpsPoly.linear
    # entries, and coefficient(n).coefficient(j).coords read back
    import finvariant as fv
    rng = random.Random(44)
    level, prec = 5, 7

    def rows():
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(prec)]

    const, eps = rows(), rows()
    with_eps = fv.QSeries(level, prec, [fv.EpsPoly(level, [fv.CycNum(level, c0),
                                                           fv.CycNum(level, c1)])
                                        for c0, c1 in zip(const, eps)])
    eps_free = fv.QSeries(level, prec, [fv.EpsPoly(level, [fv.CycNum(level, c0)])
                                        for c0 in const])
    for n in range(prec):
        for series, want in ((with_eps, eps[n]), (eps_free, [0] * 4)):
            c = series.coefficient(n)
            assert (tuple(c.coefficient(0).coords), tuple(c.coefficient(1).coords)) == \
                (tuple(const[n]), tuple(want))
    xi = {d: (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for d in range(1, prec)}
    table = fv.XiTable(QUATERNIONIC, level, 3,
                       {d: fv.EpsPoly.linear(level, c, e) for d, (c, e) in xi.items()})
    out = getattr(fv, "assemble_quaternionic")(table, prec)
    for n in range(1, prec):
        c = out.series.coefficient(n)
        for j in (0, 1):
            assert tuple(c.coefficient(j).coords) == (sum(xi[d][j] for d in divisors(n)), 0, 0, 0)
