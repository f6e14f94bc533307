import pytest
from hypothesis import given
from hypothesis import strategies as st

from localzeta.exact import Poly, QuadCoeff, q_half_power, rat
from localzeta.localfield import LocalQuadData, SplittingSymbol
from localzeta.satake import SatakeParams, SteinbergData, chi_piF_from, l8_inverse, l_tau_ai_chi_inverse

nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
    bool
).map(lambda f: rat(f.numerator) / rat(f.denominator))


def convolve(xs, ys):
    """Schoolbook polynomial product on plain coefficient lists."""
    out = [rat(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


class TestSatakeParams:
    def test_gamma_layout(self):
        sat = SatakeParams(rat(1), rat(2), rat(3))
        assert sat.gamma == (rat(6), rat(2), rat(1), rat(3))
        assert sat.omega_pi_piF == rat(6)

    def test_central_value_agrees_both_ways(self):
        sat = SatakeParams(rat(2), rat(-3), rat(1, 5))
        assert sat.gamma[0] * sat.gamma[2] == sat.gamma[1] * sat.gamma[3]

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            SatakeParams(rat(0), rat(1), rat(1))

    @given(u0=nonzero_rationals, u1=nonzero_rationals, u2=nonzero_rationals)
    def test_omega_is_square_times_pair(self, u0, u1, u2):
        sat = SatakeParams(u0, u1, u2)
        assert sat.omega_pi_piF == u0 * u0 * u1 * u2


class TestSteinbergData:
    def test_central_character_value(self):
        assert SteinbergData(rat(-3)).omega_tau_piF == rat(9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            SteinbergData(rat(0))


class TestChiPiF:
    def test_trivial(self):
        assert chi_piF_from(SatakeParams(rat(1), rat(1), rat(1)), SteinbergData(rat(1))) == 1

    def test_formula(self):
        sat = SatakeParams(rat(1), rat(2), rat(3))  # omega_pi = 6
        assert chi_piF_from(sat, SteinbergData(rat(-1))) == rat(1, 6)


class TestL8Inverse:
    def test_all_parameters_one(self):
        sat = SatakeParams(rat(1), rat(1), rat(1))
        poly = l8_inverse(sat, SteinbergData(rat(1)), 2)
        expected = Poly.one(2)
        for _ in range(4):
            expected = expected * Poly([1, rat(-1, 2)], 2)
        assert poly == expected

    def test_example_expansion(self):
        sat = SatakeParams(rat(1), rat(2), rat(3))  # gamma = (6, 2, 1, 3)
        poly = l8_inverse(sat, SteinbergData(rat(-1)), 3)
        coeffs = [rat(1)]
        for denom in (18, 6, 3, 9):
            coeffs = convolve(coeffs, [rat(1), rat(1, denom)])
        assert poly == Poly(coeffs, 3)

    @given(
        u0=nonzero_rationals,
        u1=nonzero_rationals,
        u2=nonzero_rationals,
        omega=nonzero_rationals,
        q=st.sampled_from([2, 3, 5]),
    )
    def test_rational_of_degree_four_with_unit_constant(self, u0, u1, u2, omega, q):
        poly = l8_inverse(SatakeParams(u0, u1, u2), SteinbergData(omega), q)
        assert poly.degree == 4
        assert poly.constant_term == QuadCoeff.rational(1, q)
        assert all(c.is_rational for c in poly.coefficients)


class TestLTauAiChiInverse:
    def test_inert_example(self):
        local = LocalQuadData(2, SplittingSymbol.INERT, rat(1))
        poly = l_tau_ai_chi_inverse(local, rat(1), SteinbergData(rat(1)))
        assert poly == Poly([1, 0, rat(-1, 8)], 2)
        assert poly.degree == 2

    def test_split_example(self):
        local = LocalQuadData(
            3, SplittingSymbol.SPLIT, rat(1), lambda_piL=rat(1), lambda_piF_over_piL=rat(1)
        )
        poly = l_tau_ai_chi_inverse(local, rat(1), SteinbergData(rat(1)))
        linear = Poly([1, -q_half_power(3, -3)], 3)
        assert poly == linear * linear
        assert poly.degree == 2

    def test_ramified_is_linear(self):
        local = LocalQuadData(5, SplittingSymbol.RAMIFIED, rat(4), lambda_piL=rat(2))
        poly = l_tau_ai_chi_inverse(local, rat(1, 2), SteinbergData(rat(3)))
        # coefficient: -Lambda(pi_L) * (chi Omega)(pi_F) * q^(-3/2)
        assert poly == Poly([1, -(q_half_power(5, -3) * rat(3))], 5)
        assert poly.degree == 1

    def test_constant_term_always_one(self):
        for symbol, kwargs in [
            (SplittingSymbol.INERT, {}),
            (SplittingSymbol.RAMIFIED, {"lambda_piL": rat(2)}),
            (SplittingSymbol.SPLIT, {"lambda_piL": rat(2), "lambda_piF_over_piL": rat(2)}),
        ]:
            local = LocalQuadData(3, symbol, rat(4), **kwargs)
            poly = l_tau_ai_chi_inverse(local, rat(7, 3), SteinbergData(rat(-2)))
            assert poly.constant_term == QuadCoeff.rational(1, 3)

    def test_zero_chi_rejected(self):
        local = LocalQuadData(2, SplittingSymbol.INERT, rat(1))
        with pytest.raises(ValueError):
            l_tau_ai_chi_inverse(local, rat(0), SteinbergData(rat(1)))
