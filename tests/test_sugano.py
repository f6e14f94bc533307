import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localzeta.exact import Poly, QuadCoeff, q_half_power, rat
from localzeta.localfield import LocalQuadData, SplittingSymbol
from localzeta.satake import SatakeParams
from localzeta.sugano import bessel_values, sugano_polys

units = st.fractions(min_value=-8, max_value=8, max_denominator=5).filter(bool).map(
    lambda f: rat(f.numerator) / rat(f.denominator)
)


def paired_scenario(q, symbol, u0, u1, u2, lam_L=None):
    """A (LocalQuadData, SatakeParams) pair satisfying lambda_piF = omega_pi."""
    if symbol is SplittingSymbol.RAMIFIED:
        # omega must be the square of lambda_piL; callers pass lam_L directly
        return LocalQuadData(q, symbol, lam_L * lam_L, lambda_piL=lam_L), None
    sat = SatakeParams(u0, u1, u2)
    omega = sat.omega_pi_piF
    if symbol is SplittingSymbol.INERT:
        local = LocalQuadData(q, symbol, omega)
    else:
        local = LocalQuadData(
            q, symbol, omega, lambda_piL=lam_L, lambda_piF_over_piL=omega / lam_L
        )
    return local, sat


class TestSuganoPolys:
    def test_inert_h_is_even(self):
        local = LocalQuadData(3, SplittingSymbol.INERT, rat(5))
        sp = sugano_polys(local, SatakeParams(rat(5), rat(1), rat(1)))
        assert sp.H == Poly([1, 0, rat(-5, 81)], 3)

    def test_ramified_h_is_linear(self):
        local = LocalQuadData(3, SplittingSymbol.RAMIFIED, rat(4), lambda_piL=rat(-2))
        sat = SatakeParams(rat(4), rat(1), rat(1))
        sp = sugano_polys(local, sat)
        assert sp.H == Poly([1, rat(2, 9)], 3)

    def test_split_h_both_terms(self):
        local = LocalQuadData(
            2, SplittingSymbol.SPLIT, rat(6), lambda_piL=rat(2), lambda_piF_over_piL=rat(3)
        )
        sat = SatakeParams(rat(6), rat(1), rat(1))
        sp = sugano_polys(local, sat)
        assert sp.H == Poly([1, rat(-5, 4), rat(6, 16)], 2)

    def test_q_is_product_over_gamma(self):
        local = LocalQuadData(2, SplittingSymbol.INERT, rat(6))
        sat = SatakeParams(rat(1), rat(2), rat(3))
        sp = sugano_polys(local, sat)
        expected = Poly.one(2)
        for g in sat.gamma:
            expected = expected * Poly([1, -(q_half_power(2, -3) * g)], 2)
        assert sp.Q == expected
        assert sp.Q.degree == 4


class TestBesselValues:
    def test_value_at_origin_is_one(self):
        local, sat = paired_scenario(3, SplittingSymbol.INERT, rat(2), rat(3), rat(5))
        series = bessel_values(sugano_polys(local, sat), 6)
        assert series[0] == QuadCoeff.rational(1, 3)

    def test_inert_first_value(self):
        sat = SatakeParams(rat(2), rat(3), rat(5))
        local = LocalQuadData(3, SplittingSymbol.INERT, sat.omega_pi_piF)
        series = bessel_values(sugano_polys(local, sat), 3)
        total = sum(sat.gamma, rat(0))
        assert series[1] == q_half_power(3, -3) * total

    def test_matches_naive_long_division(self):
        lam_L = rat(3)
        local, _ = paired_scenario(2, SplittingSymbol.RAMIFIED, None, None, None, lam_L)
        sat = SatakeParams(lam_L, rat(1), rat(1))  # omega = lam_L^2 as required
        sp = sugano_polys(local, sat)
        series = bessel_values(sp, 10)
        h = [sp.H.coefficient(i) for i in range(11)]
        qq = [sp.Q.coefficient(i) for i in range(11)]
        out = [h[0]]
        for k in range(1, 11):
            acc = h[k]
            for j in range(1, k + 1):
                acc = acc - qq[j] * out[k - j]
            out.append(acc)
        assert [series[i] for i in range(11)] == out

    @settings(max_examples=40)
    @given(u0=units, u1=units, u2=units, lam=units, q=st.sampled_from([2, 3, 5]))
    def test_series_times_q_recovers_h(self, u0, u1, u2, lam, q):
        sat = SatakeParams(u0, u1, u2)
        local = LocalQuadData(
            q,
            SplittingSymbol.SPLIT,
            sat.omega_pi_piF,
            lambda_piL=lam,
            lambda_piF_over_piL=sat.omega_pi_piF / lam,
        )
        sp = sugano_polys(local, sat)
        n = 8
        series = bessel_values(sp, n)
        # H = series * Q through t^n, the product taken as polynomials
        recomposed = Poly(series.coefficients, q) * sp.Q
        for i in range(n + 1):
            assert recomposed.coefficient(i) == sp.H.coefficient(i)

    def test_negative_order_rejected(self):
        local, sat = paired_scenario(2, SplittingSymbol.INERT, rat(1), rat(1), rat(1))
        with pytest.raises(ValueError):
            bessel_values(sugano_polys(local, sat), -1)
