"""Tests for the two sides of the local zeta identity."""

import json

import pytest

from localzeta import batteries, cli
from localzeta.exact import (
    PoleAtOriginError, Poly, QuadCoeff, RationalFunction, TruncatedSeries, _reduced, q_half_power, rat, series_of,
    series_terms,
)
from localzeta.localfield import LocalQuadData, SplittingSymbol, volume_V1
from localzeta.rng import SplitMix64, draw_scenario, scenario_stream
from localzeta.satake import SatakeParams, SteinbergData
from localzeta.sugano import bessel_values, sugano_polys
from localzeta import zeta
from localzeta.zeta import (
    ScenarioData,
    Theorem1Report,
    prefactor,
    unramified_local_factor,
    verify_theorem1,
    z_closed_form,
    z_series_direct,
    z_series_m_positive,
)


def draw_tau_satake(rng: SplitMix64) -> tuple:
    """A nonzero Satake pair for an unramified GL(2) input."""
    return (rng.nonzero_rational(), rng.nonzero_rational())


def trivial_inert_scenario(q=2):
    """Everything 1: the smallest fully explicit scenario."""
    local = LocalQuadData(p=q, symbol=SplittingSymbol.INERT, lambda_piF=rat(1))
    sat = SatakeParams(rat(1), rat(1), rat(1))
    st = SteinbergData(omega_piF=rat(1))
    return ScenarioData(local=local, sat=sat, st=st)


def steinberg_whittaker_diag(l: int, st: SteinbergData, q: int):
    """Newform value on diag(varpi^l, 1): Omega(varpi)^l q^(-l), zero for l < 0.
    The reference for the running products of zeta._nonzero_brackets."""
    if l < 0:
        return rat(0)
    w = st.omega_piF
    return rat(w.numerator**l, w.denominator**l * q**l)


def steinberg_whittaker_al(l: int, st: SteinbergData, q: int):
    """Newform value on antidiag(varpi^l; 1): -Omega(varpi)^l q^(-l-1)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    w = st.omega_piF
    return rat(-(w.numerator**l), w.denominator**l * q ** (l + 1))


def poly_power(base, n):
    out = Poly.one(base.q)
    for _ in range(n):
        out = out * base
    return out


class TestScenarioData:
    def test_pairing_enforced(self):
        local = LocalQuadData(p=2, symbol=SplittingSymbol.INERT, lambda_piF=rat(5))
        sat = SatakeParams(rat(1), rat(1), rat(1))  # omega_pi = 1 != 5
        with pytest.raises(ValueError):
            ScenarioData(local=local, sat=sat, st=SteinbergData(omega_piF=rat(1)))

    def test_chi_stored(self):
        sc = trivial_inert_scenario()
        assert sc.chi_piF == 1
        assert sc.q == 2

    def test_chi_nontrivial(self):
        # omega_pi = u0^2 u1 u2 = 4 * 3 * (1/2) = 6, Omega^2 = 4, chi = 1/24
        local = LocalQuadData(p=3, symbol=SplittingSymbol.INERT, lambda_piF=rat(6))
        sat = SatakeParams(rat(2), rat(3), rat(1, 2))
        sc = ScenarioData(local=local, sat=sat, st=SteinbergData(omega_piF=rat(-2)))
        assert sc.chi_piF == rat(1, 24)


class TestSteinbergWhittaker:
    def test_diag_example(self):
        st = SteinbergData(omega_piF=rat(-1))
        assert steinberg_whittaker_diag(2, st, 3) == rat(1, 9)

    def test_diag_negative_l_vanishes(self):
        st = SteinbergData(omega_piF=rat(-1))
        assert steinberg_whittaker_diag(-1, st, 3) == 0

    def test_al_example(self):
        st = SteinbergData(omega_piF=rat(-1))
        # -(-1)^1 * 3^(-2) = 1/9
        assert steinberg_whittaker_al(1, st, 3) == rat(1, 9)

    def test_al_at_zero(self):
        st = SteinbergData(omega_piF=rat(5))
        assert steinberg_whittaker_al(0, st, 2) == rat(-1, 2)

    def test_al_rejects_negative(self):
        with pytest.raises(ValueError):
            steinberg_whittaker_al(-1, SteinbergData(omega_piF=rat(1)), 2)


class TestPrefactor:
    def test_inert_q2(self):
        local = LocalQuadData(p=2, symbol=SplittingSymbol.INERT, lambda_piF=rat(1))
        assert prefactor(local) == rat(1, 15)

    def test_split_q3(self):
        local = LocalQuadData(
            p=3,
            symbol=SplittingSymbol.SPLIT,
            lambda_piF=rat(1),
            lambda_piL=rat(1),
            lambda_piF_over_piL=rat(1),
        )
        # 3*2/(4*80) * (1 - 1/3) = (6/320)(2/3) = 1/80
        assert prefactor(local) == rat(1, 80)


class TestDirectSeries:
    def test_constant_term_inert_q2(self):
        sc = trivial_inert_scenario()
        series = z_series_direct(sc, 6)
        assert series[0] == QuadCoeff.rational(rat(1, 15), 2)

    def test_m_positive_partial_vanishes(self):
        for q in (2, 3, 5):
            for symbol in SplittingSymbol:
                rng = SplitMix64(2026)
                sc = draw_scenario(rng, symbol, q)
                partial = z_series_m_positive(sc, 12)
                assert all(partial[i] == 0 for i in range(13))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            z_series_direct(trivial_inert_scenario(), -1)


class TestClosedForm:
    def test_trivial_scenario(self):
        sc = trivial_inert_scenario()
        rf = z_closed_form(sc)
        q = 2
        num = Poly([rat(1, 15), 0, rat(-1, 120)], q)  # (1/15)(1 - t^2/8)
        den = poly_power(Poly([1, rat(-1, 2)], q), 4)  # (1 - t/2)^4
        assert rf == RationalFunction(num, den)

    def test_denominator_degree(self):
        rng = SplitMix64(7)
        for symbol in SplittingSymbol:
            sc = draw_scenario(rng, symbol, 3)
            rf = z_closed_form(sc)
            assert rf.den.degree == 4
            assert rf.num.degree <= 2


class TestTheorem1:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize(
        "symbol", [SplittingSymbol.INERT, SplittingSymbol.RAMIFIED, SplittingSymbol.SPLIT]
    )
    def test_direct_equals_closed(self, q, symbol):
        for sc in scenario_stream(20260816, symbol, q, 8):
            report = verify_theorem1(sc, n=14)
            assert report.ok, (q, symbol, report)

    def test_trivial_scenario_series(self):
        sc = trivial_inert_scenario()
        direct = z_series_direct(sc, 10)
        closed = series_of(z_closed_form(sc), 10)
        assert direct == closed

    def test_nonvanishing_m_positive_sum_fails(self, monkeypatch):
        """verify_theorem1 walks the m > 0 cells once and still checks that
        the sum vanishes: a single nonzero coefficient there must fail the
        report, whose cell comes from that same walk."""
        sc = trivial_inert_scenario()
        n = 8
        stray = [(0, 0, 1)] * (n - 1) + [(1, 0, 7), (0, 0, 3)]
        monkeypatch.setattr(zeta, "_m_positive_terms", lambda sc, n: ((2, 3), stray))
        report = verify_theorem1(sc, n)
        assert not report.ok
        assert not report.m_positive_vanishes
        assert report.first_nonzero_cell == (2, 3)
        assert report.first_difference == n - 1

    def test_report_fields_on_success(self):
        report = verify_theorem1(trivial_inert_scenario(), n=8)
        assert isinstance(report, Theorem1Report)
        assert report.ok and report.series_match and report.m_positive_vanishes
        assert report.first_difference is None
        assert report.direct_coefficient is None
        assert report.first_nonzero_cell is None


@pytest.fixture
def wrong_v2_at_3_2(monkeypatch):
    """The volume formula with V2 off by one at (l, m) = (3, 2) only, a cell
    that the m > 0 walk reads."""
    real = zeta.volume_numerators

    def patched(local, l, m):
        n1, n2, den = real(local, l, m)
        return n1, n2 + ((l, m) == (3, 2)), den

    monkeypatch.setattr(zeta, "volume_numerators", patched)


def walked_cells(n):
    """The (l, m) cells that zeta._nonzero_brackets reads, in loop order:
    m = 1 and 2 of each row, or m = 1 of a row with one cell."""
    for l in range(n - 1):
        yield from ((l, m) for m in (1, 2) if m <= (n - l) // 2)


def every_cell_brackets(sc, n):
    """(l, m, W_diag V1 + W_al V2) at every m > 0 cell, in loop order, from
    the reference newform values and zeta.volume_numerators as it is when
    called, so a patched volume formula shows in every cell."""
    q = sc.q
    for l in range(n - 1):
        w_diag = steinberg_whittaker_diag(l, sc.st, q)
        w_al = steinberg_whittaker_al(l, sc.st, q)
        for m in range(1, (n - l) // 2 + 1):
            n1, n2, den = zeta.volume_numerators(sc.local, l, m)
            yield l, m, w_diag * rat(n1, den) + w_al * rat(n2, den)


def test_walked_cells():
    assert list(walked_cells(6)) == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)]


def test_brackets_match_the_reference_newform_values(monkeypatch):
    """With V2 one over its volume in every m > 0 cell, every bracket is
    non-zero, so _nonzero_brackets yields exactly the walked cells, each
    W_diag(l) V1 + W_al(l) V2 from the Rational newform values: its two
    running products are checked cell by cell, not only through zero tests."""
    real = zeta.volume_numerators

    def shifted(local, l, m):
        n1, n2, den = real(local, l, m)
        return n1, n2 + (m > 0), den

    monkeypatch.setattr(zeta, "volume_numerators", shifted)
    n = 14
    for q in (2, 3, 5):
        for symbol in SplittingSymbol:
            sc = draw_scenario(SplitMix64(34), symbol, q)
            every = {(l, m): b for l, m, b in every_cell_brackets(sc, n)}
            want = [(l, m, every[l, m]) for l, m in walked_cells(n)]
            assert list(zeta._nonzero_brackets(sc, n)) == want, (q, symbol)


class TestEveryCellReference:
    """The walk reads a few cells per row under the premise that each row's
    bracket is geometric in m; a walk of every cell, from the reference
    newform values, agrees with it."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_vanishes_in_every_cell_at_order_80(self, q, symbol):
        sc = draw_scenario(SplitMix64(39), symbol, q)
        assert not any(b for _, _, b in every_cell_brackets(sc, 80))
        assert verify_theorem1(sc, 80).first_nonzero_cell is None

    @pytest.mark.parametrize("from_row", [0, 5])
    def test_geometric_fault_names_the_same_cell(self, monkeypatch, from_row):
        """V2 times (q + 1)/q in every cell of the rows l >= from_row: still
        geometric in m, and the first non-zero cell of every cell's walk,
        (from_row, 1), is the report's."""
        real = zeta.volume_numerators

        def scaled(local, l, m):
            n1, n2, den = real(local, l, m)
            if l < from_row:
                return n1, n2, den
            return n1 * local.p, n2 * (local.p + 1), den * local.p

        monkeypatch.setattr(zeta, "volume_numerators", scaled)
        for q in (2, 3, 5):
            for symbol in SplittingSymbol:
                sc = draw_scenario(SplitMix64(40), symbol, q)
                first = next((l, m) for l, m, b in every_cell_brackets(sc, 25) if b)
                assert first == (from_row, 1)
                assert verify_theorem1(sc, 25).first_nonzero_cell == first, (q, symbol)

    def test_fault_at_3_2_names_the_same_cell(self, wrong_v2_at_3_2):
        for symbol in SplittingSymbol:
            sc = draw_scenario(SplitMix64(41), symbol, 3)
            first = next((l, m) for l, m, b in every_cell_brackets(sc, 25) if b)
            assert first == (3, 2)
            assert verify_theorem1(sc, 25).first_nonzero_cell == first


class TestFirstNonzeroCell:
    """A wrong volume is named by its (l, m) cell, in the report and on stdout."""

    def test_report_names_the_cell(self, wrong_v2_at_3_2):
        for symbol in SplittingSymbol:
            sc = draw_scenario(SplitMix64(31), symbol, 3)
            report = verify_theorem1(sc, n=10)
            assert not report.ok
            assert not report.m_positive_vanishes
            assert report.first_nonzero_cell == (3, 2)

    def test_verify_local_prints_the_cell(self, wrong_v2_at_3_2, capsys):
        argv = ["verify-local", "--trials", "1", "--order", "10", "--format", "machine"]
        assert cli.main(argv) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records and all(r["status"] == "fail" for r in records)
        assert all(r["witness"]["first_nonzero_cell"] == [3, 2] for r in records)

    def test_cell_is_absent_from_passing_and_series_witnesses(self):
        """Only a non-vanishing m > 0 sum adds the cell to the witness."""
        sc = draw_scenario(SplitMix64(32), SplittingSymbol.SPLIT, 3)
        object.__setattr__(sc.st, "omega_piF", 2 * sc.st.omega_piF)
        ok, witness = batteries.theorem1_record(sc, 10)
        assert not ok
        assert "first_nonzero_cell" not in witness


class TestDeepOrder:
    """Order 80, where series coefficients run to kilobits."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_one_scenario_per_cell(self, q, symbol):
        sc = draw_scenario(SplitMix64(80), symbol, q)
        report = verify_theorem1(sc, n=80)
        assert report.ok, (q, symbol, report)
        assert not any(z_series_m_positive(sc, 80).coefficients)

    def test_doubled_omega_witness_matches_order_25(self):
        sc = draw_scenario(SplitMix64(81), SplittingSymbol.SPLIT, 3)
        object.__setattr__(sc.st, "omega_piF", 2 * sc.st.omega_piF)
        shallow = verify_theorem1(sc, n=25)
        deep = verify_theorem1(sc, n=80)
        assert not shallow.ok and not deep.ok
        assert shallow.first_difference is not None
        assert deep.first_difference == shallow.first_difference
        assert deep.direct_coefficient == shallow.direct_coefficient
        assert deep.closed_coefficient == shallow.closed_coefficient


def m_zero_term_by_term(sc, n):
    """The m = 0 series with each coefficient formed as
    bessel[l] * (char * (W_diag(l) V1(l, 0))) in QuadCoeff arithmetic."""
    q = sc.q
    bessel = bessel_values(sugano_polys(sc.local, sc.sat), n)
    step = q_half_power(q, -3) * (1 / (sc.sat.omega_pi_piF * sc.st.omega_piF**2))
    char = QuadCoeff.rational(q - 1, q)
    coeffs = []
    for l in range(n + 1):
        scalar = steinberg_whittaker_diag(l, sc.st, q) * volume_V1(sc.local, l, 0)
        coeffs.append(bessel[l] * (char * scalar))
        char = char * step
    return TruncatedSeries(coeffs, sc.q)


def report_term_by_term(sc, n):
    """verify_theorem1's report with the direct side as m0 + partial always,
    added and compared coefficient by coefficient in QuadCoeff arithmetic."""
    partial = z_series_m_positive(sc, n).coefficients
    direct = [a + b for a, b in zip(m_zero_term_by_term(sc, n).coefficients, partial)]
    closed = series_of(z_closed_form(sc), n).coefficients
    vanishes = not any(partial)
    cell = None
    if not vanishes:
        cell = next(((l, m) for l, m, _ in zeta._nonzero_brackets(sc, n)), None)
    idx = next((k for k, (a, b) in enumerate(zip(direct, closed)) if a != b), None)
    return Theorem1Report(
        ok=(idx is None and vanishes),
        order=n,
        series_match=idx is None,
        m_positive_vanishes=vanishes,
        first_difference=idx,
        direct_coefficient=None if idx is None else str(direct[idx]),
        closed_coefficient=None if idx is None else str(closed[idx]),
        first_nonzero_cell=cell,
    )


def tampered(sc, kind):
    """Double one stored value after construction, as the controls do."""
    if kind == "gamma":
        g = sc.sat.gamma
        object.__setattr__(sc.sat, "gamma", (2 * g[0],) + g[1:])
    elif kind == "omega":
        object.__setattr__(sc.st, "omega_piF", 2 * sc.st.omega_piF)
    elif kind is not None:
        object.__setattr__(sc.local, kind, 2 * getattr(sc.local, kind))
    return sc


class TestReportMatchesTermByTermSum:
    """The m = 0 series, reduced once per coefficient, holds the same
    triples as the term-by-term product, and every report field (the
    coefficient strings included) is the one the plain sum m0 + partial
    gives."""

    @pytest.mark.parametrize("n", [25, 80])
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_every_cell(self, q, symbol, n):
        kinds = [None, "gamma", "omega", "lambda_piF"]
        if symbol is not SplittingSymbol.INERT:
            kinds.append("lambda_piL")
        stream = scenario_stream(90 + n, symbol, q, len(kinds))
        failed = 0
        for kind, sc in zip(kinds, stream):
            sc = tampered(sc, kind)
            got = [_reduced(*t, q)._v for t in zeta._m_zero_terms(sc, n)]
            want = m_zero_term_by_term(sc, n)
            assert got == [c._v for c in want.coefficients], kind
            report = verify_theorem1(sc, n)
            assert report == report_term_by_term(sc, n), kind
            failed += not report.ok
        # Doubled gamma and Omega always break the identity.
        assert failed >= 2

    def test_non_vanishing_m_positive_sum(self, wrong_v2_at_3_2):
        for symbol in SplittingSymbol:
            sc = draw_scenario(SplitMix64(33), symbol, 3)
            report = verify_theorem1(sc, n=25)
            assert not report.m_positive_vanishes
            assert report == report_term_by_term(sc, 25)

    @pytest.mark.parametrize("kind", [None, "gamma"])
    def test_81_digit_denominators_at_order_80(self, kind):
        """The 81-digit scenario of the CLI test (Satake values and Omega
        over D = 10^80 + 129), passing and with a value doubled: the same
        report, witness strings included, as the term-by-term sum."""
        d = 10**80 + 129
        sc = ScenarioData(
            local=LocalQuadData(
                p=3,
                symbol=SplittingSymbol.SPLIT,
                lambda_piF=rat(6, d * d),
                lambda_piL=rat(2, d),
                lambda_piF_over_piL=rat(3, d),
            ),
            sat=SatakeParams(rat(1), rat(2, d), rat(3, d)),
            st=SteinbergData(rat(5, d)),
        )
        report = verify_theorem1(tampered(sc, kind), 80)
        assert report.ok is (kind is None)
        assert report == report_term_by_term(sc, 80)


def assert_views_are_the_compared_triples(sc, n):
    """Each coefficient of the four reduced views the benchmark reads is the
    reduced form of the triple the check compares, or series_terms yields."""
    q = sc.q
    vanishes, _, direct = zeta._direct_terms(sc, n)
    sp = sugano_polys(sc.local, sc.sat)
    pairs = [
        (z_series_direct(sc, n), direct),
        (z_series_m_positive(sc, n), zeta._m_positive_terms(sc, n)[1]),
        (series_of(z_closed_form(sc), n), series_terms(z_closed_form(sc), n)),
        (bessel_values(sp, n), series_terms(RationalFunction(sp.H, sp.Q), n)),
    ]
    for view, terms in pairs:
        assert view.order == n and len(terms) == n + 1
        assert [c._v for c in view.coefficients] == [_reduced(*t, q)._v for t in terms]
    return vanishes


class TestReducedViews:
    """z_series_direct, z_series_m_positive, series_of and bessel_values are
    reduced views of the unreduced triples; they must not drift from what
    verify_theorem1 compares."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_every_cell_at_order_80(self, q, symbol):
        assert assert_views_are_the_compared_triples(draw_scenario(SplitMix64(36), symbol, q), 80)

    def test_non_vanishing_m_positive_sum(self, wrong_v2_at_3_2):
        for q in (2, 3, 5):
            for symbol in SplittingSymbol:
                sc = draw_scenario(SplitMix64(37), symbol, q)
                assert not assert_views_are_the_compared_triples(sc, 80)

    def test_every_built_denominator_has_constant_term_one(self):
        rng = SplitMix64(38)
        for symbol in SplittingSymbol:
            sc = draw_scenario(rng, symbol, 3)
            sp = sugano_polys(sc.local, sc.sat)
            for rf in (
                z_closed_form(sc),
                RationalFunction(sp.H, sp.Q),
                unramified_local_factor(sc.local, sc.sat, draw_tau_satake(rng)),
            ):
                assert rf.den.constant_term == 1

    @pytest.mark.parametrize("d0", [2, rat(1, 2), -1, QuadCoeff(1, 1, 3), QuadCoeff(0, 1, 3)])
    def test_other_denominator_constant_terms_are_refused(self, d0):
        """RationalFunction no longer scales den to constant term 1; it
        refuses any constant term but 1, or 0 at a pole of the expansion."""
        with pytest.raises(ValueError, match="constant term must be 1"):
            RationalFunction(Poly([1], 3), Poly([d0, 1], 3))
        pole = RationalFunction(Poly([1], 3), Poly([0, d0], 3))
        with pytest.raises(PoleAtOriginError):
            series_terms(pole, 4)


class TestNegativeControls:
    def test_corrupted_split_lambda(self):
        rng = SplitMix64(11)
        sc = draw_scenario(rng, SplittingSymbol.SPLIT, 3)
        object.__setattr__(sc.local, "lambda_piL", sc.local.lambda_piL + 1)
        report = verify_theorem1(sc, n=10)
        assert not report.ok
        assert report.first_difference is not None
        assert report.direct_coefficient != report.closed_coefficient

    def test_corrupted_inert_lambda(self):
        rng = SplitMix64(12)
        sc = draw_scenario(rng, SplittingSymbol.INERT, 2)
        object.__setattr__(sc.local, "lambda_piF", sc.local.lambda_piF + 1)
        report = verify_theorem1(sc, n=10)
        assert not report.ok and report.first_difference is not None

    def test_corrupted_gamma(self):
        rng = SplitMix64(13)
        for symbol in SplittingSymbol:
            sc = draw_scenario(rng, symbol, 3)
            g = sc.sat.gamma
            object.__setattr__(sc.sat, "gamma", (2 * g[0], g[1], g[2], g[3]))
            report = verify_theorem1(sc, n=10)
            assert not report.ok, symbol

    def test_corrupted_omega_tw(self):
        rng = SplitMix64(14)
        for symbol in SplittingSymbol:
            sc = draw_scenario(rng, symbol, 5)
            object.__setattr__(sc.st, "omega_piF", 2 * sc.st.omega_piF)
            report = verify_theorem1(sc, n=10)
            assert not report.ok, symbol

    def test_ramified_lambda_slot_is_free(self):
        """In the ramified class the identity is algebraic in the Lambda slot.

        Both sides read the same stored value, and the square relation to
        lambda_piF never enters (its only consumer is multiplied by zero),
        so corrupting lambda_piL cannot produce a witness here.  Breakage
        in this class must come through gamma or the twist character.
        """
        rng = SplitMix64(15)
        sc = draw_scenario(rng, SplittingSymbol.RAMIFIED, 3)
        object.__setattr__(sc.local, "lambda_piL", sc.local.lambda_piL + 3)
        report = verify_theorem1(sc, n=10)
        assert report.ok


class TestUnramifiedFactor:
    def test_value_at_origin(self):
        rng = SplitMix64(21)
        sc = draw_scenario(rng, SplittingSymbol.SPLIT, 3)
        rf = unramified_local_factor(sc.local, sc.sat, draw_tau_satake(rng))
        assert rf.num.constant_term == 1 and rf.den.constant_term == 1

    def test_all_ones_inert(self):
        q = 2
        local = LocalQuadData(p=q, symbol=SplittingSymbol.INERT, lambda_piF=rat(1))
        sat = SatakeParams(rat(1), rat(1), rat(1))
        rf = unramified_local_factor(local, sat, (rat(1), rat(1)))
        num = (
            Poly([1, 0, rat(-1, 2)], q)
            * Poly([1, 0, rat(-1, 4)], q)
            * Poly([1, 0, rat(-1, 4)], q)
        )
        den = poly_power(Poly([1, -q_half_power(q, -1)], q), 8)
        assert rf == RationalFunction(num, den)

    def test_split_numerator_expansion(self):
        q = 3
        local = LocalQuadData(
            p=q,
            symbol=SplittingSymbol.SPLIT,
            lambda_piF=rat(1),
            lambda_piL=rat(2),
            lambda_piF_over_piL=rat(1, 2),
        )
        sat = SatakeParams(rat(1), rat(1), rat(1))
        rf = unramified_local_factor(local, sat, (rat(1), rat(1)))
        expected = Poly([1, 0, rat(-1, 3)], q)
        for delta in (rat(2), rat(1, 2), rat(2), rat(1, 2)):
            expected = expected * Poly([1, -delta * rat(1, 3)], q)
        assert rf.num == expected

    def test_denominator_degree_eight(self):
        rng = SplitMix64(22)
        sc = draw_scenario(rng, SplittingSymbol.RAMIFIED, 5)
        rf = unramified_local_factor(sc.local, sc.sat, draw_tau_satake(rng))
        assert rf.den.degree == 8

    def test_zero_tau_value_rejected(self):
        sc = trivial_inert_scenario()
        with pytest.raises(ValueError):
            unramified_local_factor(sc.local, sc.sat, (rat(0), rat(1)))
