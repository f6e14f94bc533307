from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localzeta.exact import (
    Poly,
    PoleAtOriginError,
    QuadCoeff,
    Rational,
    RationalFunction,
    TruncatedSeries,
    _reduced,
    factor_product,
    q_half_power,
    rat,
    series_of,
    series_terms,
    terms_equal,
)
from localzeta.localfield import SplittingSymbol
from localzeta.rng import scenario_stream
from localzeta.satake import l8_inverse
from localzeta.sugano import sugano_polys
from localzeta.zeta import z_closed_form

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12).map(
    lambda f: rat(f.numerator) / rat(f.denominator)
)
scalars = st.one_of(st.integers(-60, 60), rationals)
primes = st.sampled_from([2, 3, 5])


def quads(q):
    return st.tuples(rationals, rationals).map(lambda ab: QuadCoeff(ab[0], ab[1], q))


def polys(q, max_degree=4):
    return st.lists(quads(q), min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(cs, q)
    )


def denominators(q, max_degree=4):
    """Polynomials with constant term 1, the denominators RationalFunction admits."""
    return st.lists(quads(q), min_size=0, max_size=max_degree).map(
        lambda cs: Poly([1, *cs], q)
    )


class TestQuadCoeff:
    def test_norm_form(self):
        x = QuadCoeff(1, 1, 2) * QuadCoeff(1, -1, 2)
        assert x == QuadCoeff(-1, 0, 2)
        assert QuadCoeff(0, 1, 5) * QuadCoeff(0, 1, 5) == QuadCoeff(5, 0, 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadCoeff(1, 1, 2) + QuadCoeff(1, 1, 3)

    def test_hash_agrees_with_equality(self):
        """A rational element equals the int or Fraction it holds, so it
        hashes like it: sets and dict lookups see one value."""
        for x, plain in ((QuadCoeff(3, 0, 5), 3), (QuadCoeff(rat(-7, 4), 0, 3), rat(-7, 4))):
            assert x == plain
            assert hash(x) == hash(plain)
            assert len({x, plain}) == 1
            assert {plain: "x"}.get(x) == "x"
        irrational = QuadCoeff(rat(1, 2), 1, 5)
        assert hash(irrational) == hash(QuadCoeff(rat(1, 2), 1, 5))
        assert len({irrational, QuadCoeff(rat(1, 2), 0, 5), rat(1, 2)}) == 2

    def test_int_coercion(self):
        assert 1 + QuadCoeff(1, 2, 5) == QuadCoeff(2, 2, 5)
        assert 2 * QuadCoeff(1, 2, 5) == QuadCoeff(2, 4, 5)

    @pytest.mark.parametrize("n", [1, -3, rat(2, 7), rat(-5, 3)], ids=str)
    def test_plain_minus_quad_is_the_negated_difference(self, n):
        x = QuadCoeff(1, 2, 5)
        assert n - x == -(x - n)
        assert (n - x)._v == (-(x - n))._v

    def test_q_half_power(self):
        assert q_half_power(3, 4) == QuadCoeff(9, 0, 3)
        assert q_half_power(3, 1) == QuadCoeff(0, 1, 3)
        assert q_half_power(3, -3) == QuadCoeff(0, rat(1, 9), 3)
        assert q_half_power(3, -3) * q_half_power(3, 3) == QuadCoeff(1, 0, 3)
        # a negative q keeps D > 0: (-3)^(-1) is -1/3, not 1/(-3)
        assert q_half_power(-3, -2) == QuadCoeff(rat(-1, 3), 0, -3)
        assert q_half_power(-3, -1)._v == (0, -1, 3, -3)

    def test_str_of_normalised_forms(self):
        # The reduced triple (A, B, D) must print exactly as the pair of
        # rationals a + b*sqrt(q) always has: CLI witnesses and lfactor
        # output carry these strings.
        assert str(QuadCoeff(rat(-3, 4), 0, 2)) == "-3/4"
        assert str(QuadCoeff(rat(-1, 2), rat(1, 6), 2)) == "-1/2 + 1/6*sqrt(2)"
        assert str(QuadCoeff(1, rat(-2, 3), 3)) == "1 - 2/3*sqrt(3)"
        assert str(QuadCoeff(rat(-1, 2), rat(-1, 3), 2)) == "-1/2 - 1/3*sqrt(2)"
        assert str(QuadCoeff(0, rat(5, 2), 5)) == "5/2*sqrt(5)"
        assert str(QuadCoeff(0, rat(-5, 2), 5)) == "-5/2*sqrt(5)"
        assert str(QuadCoeff(rat(-1, 19), rat(2, 19), 5)) == "-1/19 + 2/19*sqrt(5)"
        assert str(q_half_power(3, -3)) == "1/9*sqrt(3)"
        assert repr(q_half_power(3, -3)) == "QuadCoeff(0, 1/9, q=3)"
        assert str(QuadCoeff(rat(6, 4), rat(3, 6), 2)) == "3/2 + 1/2*sqrt(2)"

    def test_rational_parts(self):
        x = QuadCoeff(rat(3, 4), rat(-5, 6), 7)
        assert (x.a, x.b, x.q) == (rat(3, 4), rat(-5, 6), 7)
        assert QuadCoeff("1/2", "-1/3", 5) == QuadCoeff(rat(1, 2), rat(-1, 3), 5)
        assert QuadCoeff(rat(1, 2), 0, 3) == rat(1, 2)
        assert QuadCoeff(2, 0, 3) == 2
        assert QuadCoeff(2, 1, 3) != 2
        with pytest.raises(AttributeError):
            x.q = 5

    @given(
        x=primes.flatmap(quads),
        q=st.sampled_from([-7, -4, -1, 4, 6, 9]),
    )
    def test_norm_over_any_nonzero_integer_q(self, x, q):
        # q need not be prime: a square q splits the algebra, a negative one
        # does not, and the norm (a + b X)(a - b X) is the rational
        # a^2 - b^2*q either way.
        y = QuadCoeff(x.a, x.b, q)
        norm = y * QuadCoeff(y.a, -y.b, q)
        assert norm == y.a * y.a - y.b * y.b * q

    @given(
        q=st.sampled_from([-7, -4, -1, 2, 3, 4, 9]),
        x=st.tuples(scalars, scalars),
        y=st.tuples(scalars, scalars),
        plain=scalars,
    )
    def test_every_operation_returns_the_normal_form(self, q, x, y, plain):
        # == compares triples, so the constructor, +, -, * and unary - must
        # each return (A, B, D) with D > 0 and gcd(A, B, D) = 1, equal to
        # Fraction arithmetic on the pairs (a, b), also with an int or
        # Fraction on either side, for square and negative q as well.
        (a, b), (c, d) = x, y
        X, Y = QuadCoeff(a, b, q), QuadCoeff(c, d, q)
        cases = [
            (X, (a, b)),
            (X + Y, (a + c, b + d)),
            (X - Y, (a - c, b - d)),
            (X * Y, (a * c + b * d * q, a * d + b * c)),
            (-X, (-a, -b)),
            (X + plain, (a + plain, b)),
            (plain + X, (a + plain, b)),
            (X - plain, (a - plain, b)),
            (plain - X, (plain - a, -b)),
            (X * plain, (a * plain, b * plain)),
            (plain * X, (a * plain, b * plain)),
        ]
        for z, pair in cases:
            A, B, D, zq = z._v
            assert zq == q and D > 0 and gcd(A, B, D) == 1
            assert (Rational(A, D), Rational(B, D)) == pair

    def test_zero_divisor_has_norm_zero_and_no_inverse(self):
        # (3 + sqrt(9)) * (3 - sqrt(9)) = 0 although neither factor is zero,
        # so x y = 1 has no solution: it would give 3 - sqrt(9) = 0.
        x, conjugate = QuadCoeff(3, 1, 9), QuadCoeff(3, -1, 9)
        assert x and conjugate and x * conjugate == 0


class TestPoly:
    def test_trailing_zeros_stripped(self):
        p = Poly([1, 2, 0, 0], 2)
        assert p.degree == 1

    def test_foreign_quadcoeff_rejected(self):
        with pytest.raises(ValueError, match="mixed ground fields"):
            Poly([QuadCoeff(1, 1, 3)], 5)

    def test_zero_poly(self):
        assert Poly([], 2).degree == -1
        assert not Poly([0, 0], 2)

    @given(primes.flatmap(lambda q: st.tuples(polys(q), polys(q), polys(q))))
    @settings(max_examples=60)
    def test_ring_axioms(self, abc):
        a, b, c = abc
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * Poly.one(a.q) == a
        assert (a * b).degree == (a.degree + b.degree if a and b else -1)
        assert a * 2 == a * Poly([2], a.q)

    def test_evaluation(self):
        p = Poly([1, -1, QuadCoeff(0, 1, 2)], 2)  # 1 - t + sqrt(2) t^2
        assert p.eval_complex(0.5) == pytest.approx(0.5 + 0.25 * 2**0.5, rel=1e-15)

    def test_str(self):
        p = Poly([1, 0, QuadCoeff(0, rat(-1, 2), 2)], 2)
        assert p.to_str() == "1 - (1/2*sqrt(2))*t^2"


def product_of_factors(coeffs, q, power=1):
    """The product of 1 - c*t^power built factor by factor from whole Polys."""
    product = Poly.one(q)
    for c in coeffs:
        product = product * Poly([1, *[0] * (power - 1), -c], q)
    return product


class TestFactorProduct:
    def test_equals_explicit_products(self):
        q = 3
        cs = [rat(1, 2), QuadCoeff(rat(1, 3), rat(-2, 5), q), rat(-7)]
        linear = Poly([1, -cs[0]], q) * Poly([1, -cs[1]], q) * Poly([1, -cs[2]], q)
        inert = Poly([1, 0, -cs[0]], q) * Poly([1, 0, -cs[1]], q) * Poly([1, 0, -cs[2]], q)
        assert factor_product(cs, q) == linear
        assert factor_product(cs, q, power=2) == inert
        assert factor_product(iter(cs), q).degree == 3

    def test_no_factors_is_one(self):
        assert factor_product([], 5) == Poly.one(5)
        assert factor_product([], 5, power=2) == Poly.one(5)

    @pytest.mark.parametrize("q", [2, 3, 5, 4, -3])
    @pytest.mark.parametrize("power", [1, 2])
    def test_triples_match_the_product_of_factors(self, q, power):
        """Zero, rational and irrational entries, up to eight factors.  At
        q = 4, (2 + X)(2 - X) = 0 makes leading coefficients vanish."""
        pool = [
            0,
            rat(1, 2),
            QuadCoeff(rat(1, 3), rat(-2, 5), q),
            rat(-7),
            QuadCoeff(2, 1, q),
            QuadCoeff(0, rat(3, 4), q),
            QuadCoeff(2, -1, q),
            QuadCoeff(0, 0, q),
            rat(5, 9),
        ]
        for length in range(9):
            for shift in range(len(pool)):
                cs = [pool[(shift + 2 * i) % len(pool)] for i in range(length)]
                got = factor_product(cs, q, power)
                want = product_of_factors(cs, q, power)
                assert [c._v for c in got.coefficients] == [
                    c._v for c in want.coefficients
                ], (q, power, cs)

    def test_foreign_field_rejected(self):
        with pytest.raises(ValueError):
            factor_product([rat(1, 2), QuadCoeff(0, 1, 3)], 5)

    def test_delta_is_the_lcm_of_the_factor_denominators(self):
        q = 3
        cs = [rat(1, 4), QuadCoeff(rat(1, 6), rat(-2, 5), q), rat(-7), QuadCoeff(0, rat(3, 10), q)]
        assert factor_product(cs, q).delta == 60
        assert factor_product(cs, q, power=2).delta == 60
        assert factor_product([], q).delta == 1

    def test_arithmetic_carries_no_delta(self):
        p = factor_product([rat(1, 2), rat(1, 3)], 5)
        assert p.delta == 6
        for made in (p * p, p * Poly.one(5), p * 2, 3 * p, Poly(p.coefficients, 5)):
            assert made.delta is None


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1], 2), Poly([], 2))

    @given(primes.flatmap(lambda q: st.tuples(polys(q), denominators(q), denominators(q))))
    @settings(max_examples=40)
    def test_equality_cross_multiplicative(self, abc):
        a, b, c = abc
        assert RationalFunction(a, b) == RationalFunction(a * c, b * c)


def series_by_dispatch(rf, n):
    """The s_k = c_k - sum d_j s_{k-j} recurrence on QuadCoeff operators,
    one reduced operation per step: the reference series_of must match."""
    dcoeffs = rf.den.coefficients
    s = []
    for k in range(n + 1):
        acc = rf.num.coefficient(k)
        for j in range(1, min(k, len(dcoeffs) - 1) + 1):
            dj = dcoeffs[j]
            if dj:
                acc = acc - dj * s[k - j]
        s.append(acc)
    return s


class TestSeries:
    def test_geometric(self):
        rf = RationalFunction(Poly([1], 2), Poly([1, -1], 2))
        assert series_of(rf, 4) == TruncatedSeries([1, 1, 1, 1, 1], 2)

    def test_telescoping(self):
        rf = RationalFunction(Poly([1, 0, -1], 2), Poly([1, -1], 2))
        assert series_of(rf, 3) == TruncatedSeries([1, 1, 0, 0], 2)

    def test_pole_at_origin(self):
        rf = RationalFunction(Poly([1], 2), Poly([0, 1], 2))
        with pytest.raises(PoleAtOriginError):
            series_of(rf, 3)

    @given(
        primes.flatmap(
            lambda q: st.tuples(polys(q), denominators(q), st.integers(min_value=0, max_value=12))
        )
    )
    @settings(max_examples=60)
    def test_recompose(self, args):
        num, den, n = args
        rf = RationalFunction(num, den)
        s = series_of(rf, n)
        # num === series * den  (mod t^(n+1)), exactly
        prod = Poly(list(s.coefficients), s.q) * rf.den
        for k in range(n + 1):
            assert prod.coefficient(k) == rf.num.coefficient(k)

    # q = 4 is a square (zero divisors) and q = -3 is negative.
    @given(
        st.sampled_from([2, 3, 5, 4, -3]).flatmap(
            lambda q: st.tuples(polys(q), denominators(q), st.integers(min_value=0, max_value=25))
        )
    )
    @settings(max_examples=100)
    def test_matches_quadcoeff_recurrence_in_normal_form(self, args):
        num, den, n = args
        rf = RationalFunction(num, den)
        s = series_of(rf, n)
        assert s.q == rf.q and s.order == n
        assert list(s.coefficients) == series_by_dispatch(rf, n)
        for c in s.coefficients:
            A, B, D, _ = c._v
            assert D > 0 and gcd(A, B, D) == 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_carried_delta_matches_the_recurrence_at_order_80(self, q, symbol):
        """The Bessel and closed-form denominators, with the delta that
        factor_product records from their roots."""
        n = 80
        for sc in scenario_stream(3280, symbol, q, 2):
            sp = sugano_polys(sc.local, sc.sat)
            den8 = l8_inverse(sc.sat, sc.st, q)
            for rf in (RationalFunction(sp.H, sp.Q), RationalFunction(Poly.one(q), den8)):
                assert rf.den.delta is not None and rf.den.delta > 1
                got = series_of(rf, n)
                assert [c._v for c in got.coefficients] == [
                    c._v for c in series_by_dispatch(rf, n)
                ]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("symbol", list(SplittingSymbol))
    def test_series_of_is_the_reduced_terms_at_order_80(self, q, symbol):
        """On the Bessel and closed sides of the identity, each unreduced
        term of series_terms is the series_of coefficient: the same value
        as Fraction reduces it, and equal to it by cross-multiplication."""
        n = 80
        for sc in scenario_stream(3281, symbol, q, 2):
            sp = sugano_polys(sc.local, sc.sat)
            for rf in (RationalFunction(sp.H, sp.Q), z_closed_form(sc)):
                terms = series_terms(rf, n)
                reduced = series_of(rf, n).coefficients
                assert len(terms) == len(reduced) == n + 1
                for (A, B, D), c in zip(terms, reduced):
                    assert D > 0
                    assert c == QuadCoeff(rat(A, D), rat(B, D), q)
                    assert terms_equal((A, B, D), c._v[:3])
                # Unreduced: the denominators are N delta^k as they stand.
                assert len({D for _, _, D in terms}) == n + 1

    def test_delta_that_does_not_divide_raises(self):
        den = Poly([1, rat(-1, 3), rat(1, 9)], 5, delta=2)
        with pytest.raises(ValueError, match="delta = 2"):
            series_of(RationalFunction(Poly.one(5), den), 4)
        # 3 clears d_1 = -1/3 and, squared, d_2 = 1/9: the same series as
        # with no delta at all.
        good = RationalFunction(Poly.one(5), Poly(den.coefficients, 5, delta=3))
        plain = RationalFunction(Poly.one(5), Poly(den.coefficients, 5))
        assert series_of(good, 12) == series_of(plain, 12)

    def test_long_division_oracle_degree_2(self):
        # independent hand long division for a degree-2 case:
        # (1 + t) / (1 - 2t + t^2): s_k satisfies s_0=1, s_1 = 1+2 = 3,
        # s_k = 2 s_{k-1} - s_{k-2}  =>  1, 3, 5, 7, 9, ...
        rf = RationalFunction(Poly([1, 1], 3), Poly([1, -2, 1], 3))
        assert series_of(rf, 4) == TruncatedSeries([1, 3, 5, 7, 9], 3)

    def test_public_constructor_coerces_and_checks_the_field(self):
        s = TruncatedSeries([2, rat(1, 3), QuadCoeff(0, 1, 5)], 5)
        assert s.coefficients == (
            QuadCoeff(2, 0, 5),
            QuadCoeff(rat(1, 3), 0, 5),
            QuadCoeff(0, 1, 5),
        )
        assert all(isinstance(c, QuadCoeff) and c.q == 5 for c in s.coefficients)
        with pytest.raises(ValueError, match="mixed ground fields"):
            TruncatedSeries([1, QuadCoeff(0, 1, 3)], 5)
        with pytest.raises(ValueError, match="mixed ground fields"):
            TruncatedSeries([QuadCoeff(1, 1, 3)], 5)
        with pytest.raises(ValueError, match="order-0"):
            TruncatedSeries([], 5)

    def test_arithmetic_results_hold_quadcoeffs_of_the_field(self):
        rf = RationalFunction(Poly([1, QuadCoeff(0, 1, 5)], 5), Poly([1, -2, rat(1, 3)], 5))
        s = series_of(rf, 4)
        assert s.q == 5
        assert all(isinstance(c, QuadCoeff) and c.q == 5 for c in s.coefficients)
        assert s == TruncatedSeries(s.coefficients, 5)

    def test_rational_backend_exact(self):
        assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
        assert rat("3/4") == rat(3, 4)


ints = st.integers(min_value=-30, max_value=30)
triples = st.tuples(ints, ints, st.integers(min_value=1, max_value=30))
factors = st.integers(min_value=1, max_value=12)


class TestTermsEqual:
    """Cross-multiplied equality of unreduced triples (A + B sqrt(q))/D is
    equality of their normal forms."""

    @given(
        st.one_of(
            # Random pairs, mostly unequal.
            st.tuples(triples, triples),
            # One value with two different common factors.
            st.tuples(triples, factors, factors).map(
                lambda t: (tuple(x * t[1] for x in t[0]), tuple(x * t[2] for x in t[0]))
            ),
            # Scaled copies with one part nudged.
            st.tuples(triples, factors, st.sampled_from([0, 1])).map(
                lambda t: (
                    tuple(x * t[1] for x in t[0]),
                    tuple(x + (i == t[2]) for i, x in enumerate(t[0])),
                )
            ),
        ),
        st.sampled_from([2, 3, 5, 4, -3]),
    )
    @settings(max_examples=300)
    def test_agrees_with_normal_form_equality(self, pair, q):
        x, y = pair
        assert terms_equal(x, y) == (_reduced(*x, q) == _reduced(*y, q))
        assert terms_equal(x, y) == terms_equal(y, x)

    def test_zero_signs_and_common_factors(self):
        assert terms_equal((0, 0, 1), (0, 0, 7))
        assert terms_equal((-2, 4, 6), (-1, 2, 3))
        assert not terms_equal((-2, 4, 6), (2, -4, 6))
        assert not terms_equal((1, 2, 3), (2, 1, 3))
        assert not terms_equal((0, 1, 2), (0, 0, 2))
