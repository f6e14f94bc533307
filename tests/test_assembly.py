"""Global assembly: kappa constants, Euler products, special-value constant."""

import cmath
import math
import struct
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from localzeta import assembly
from localzeta.arch import ArchScenario, c1_coefficient, z_inf_closed
from localzeta.assembly import (
    ALGEBRAICITY_NOTE,
    CONVENTION_NOTE,
    DegenerateInputWarning,
    GlobalInput,
    PrimeQuadData,
    TruncationWarning,
    a_lambda,
    global_z_report,
    kappa_infinity,
    kappa_N,
    primes_up_to,
    special_value_ratio,
    theorem3_consistency,
    theorem3_constant,
    v_N,
)
from localzeta.exact import rat
from localzeta.localfield import LocalQuadData, SplittingSymbol, is_prime
from localzeta.rng import SplitMix64
from localzeta.satake import SatakeParams, SteinbergData
from localzeta.zeta import (
    ScenarioData,
    prefactor,
    unramified_local_factor,
    z_closed_form,
)


def make_gi(**overrides):
    """A small valid input: level 2, inert, trivial class group, weight 12."""
    fields = dict(
        l=12,
        D=4,
        N=2,
        lambda_classvals=(1,),
        fourier_classvals=(1,),
        a1=(4 * math.pi) ** -6,
        r=-11j,
        satake_table={2: (1, 1, 1)},
        gl2_table={2: -1},
        local_table={2: PrimeQuadData(-1, 1.0)},
    )
    fields.update(overrides)
    return GlobalInput(**fields)


def synthetic_tables(p_max):
    """Deterministic unitary tables covering every prime <= p_max.

    All central characters are trivial (omega_pi = 1 everywhere), so the
    pairing constraint is satisfied with lambda_piF = 1; splitting
    symbols are spread over the classes by residue.
    """
    satake, gl2, local = {}, {}, {}
    for i, p in enumerate(primes_up_to(p_max)):
        phase = cmath.exp(2j * math.pi * (i + 1) / 7.3)
        satake[p] = (1.0, phase, 1 / phase)
        if p == 2:
            gl2[p] = -1
            local[p] = PrimeQuadData(-1, 1.0)
            continue
        gl2[p] = (cmath.exp(0.4j * (i + 1)), cmath.exp(-0.4j * (i + 1)))
        sym = (-1, 0, 1)[p % 3]
        if sym == -1:
            local[p] = PrimeQuadData(-1, 1.0)
        elif sym == 0:
            local[p] = PrimeQuadData(0, 1.0, -1.0)
        else:
            mu = cmath.exp(1.3j * (i + 1))
            local[p] = PrimeQuadData(1, 1.0, mu, 1 / mu)
    return satake, gl2, local


def make_synthetic_gi(p_max, **overrides):
    satake, gl2, local = synthetic_tables(p_max)
    return make_gi(
        satake_table=satake, gl2_table=gl2, local_table=local, **overrides
    )


def reference_local_factor_parts(gi, p, s):
    """(rankin_inverse, aux_inverse) at t = p^(-3s), written out per prime:
    the evaluation the precomputed Euler-product table must reproduce to
    the bit."""
    data = gi.local_table.get(p)
    sat = gi.satake_table.get(p)
    gl2 = gi.gl2_table.get(p)
    if data is None or sat is None or gl2 is None:
        raise ValueError(f"missing local data for p = {p}")
    t = complex(p) ** (-3 * complex(s))
    gamma = gi.gamma(p)
    omega_pi = gi.omega_pi(p)
    zeta_inv = 1 - t * t / p

    if p in gi.level_primes:
        omega = complex(gl2)
        chi = 1 / (omega_pi * omega * omega)
        rankin_inv = complex(1)
        for g in gamma:
            rankin_inv *= 1 - t / (g * omega * p)
        if data.symbol == -1:
            aux_inv = 1 - chi * t * t / p**3
        else:
            chi_omega = chi * omega
            aux_inv = 1 - data.lambda_piL * chi_omega * t / p**1.5
            if data.symbol == 1:
                aux_inv *= 1 - data.lambda_piF_over_piL * chi_omega * t / p**1.5
    else:
        beta = tuple(complex(b) for b in gl2)
        chi = 1 / (omega_pi * beta[0] * beta[1])
        rankin_inv = complex(1)
        for g in gamma:
            for b in beta:
                rankin_inv *= 1 - t / (g * b * math.sqrt(p))
        aux_inv = complex(1)
        for b in beta:
            if data.symbol == -1:
                aux_inv *= 1 - data.lambda_piF * (chi * b) ** 2 * t * t / p**2
            elif data.symbol == 0:
                aux_inv *= 1 - data.lambda_piL * chi * b * t / p
            else:
                for delta in (data.lambda_piL, data.lambda_piF_over_piL):
                    aux_inv *= 1 - delta * chi * b * t / p
    if rankin_inv == 0:
        raise ValueError(f"s is a pole of the degree-8 local factor at p = {p}: its inverse is 0")
    return rankin_inv, zeta_inv * aux_inv


def reference_euler_product(gi, s, p_max):
    product = complex(1)
    for p in primes_up_to(p_max):
        rankin_inv, aux_inv = reference_local_factor_parts(gi, p, complex(s))
        product *= aux_inv / rankin_inv
    return product


def reference_special_value_ratio(gi, p_max):
    s0 = gi.l / 6 - 0.5
    lvalue = complex(1)
    for p in primes_up_to(p_max):
        rankin_inv, _ = reference_local_factor_parts(gi, p, s0)
        lvalue *= 1 / rankin_inv
    return lvalue / (math.pi ** (5 * gi.l - 8) * gi.petersson_phi * gi.petersson_psi)


def sweep_outcomes(gi, mix, draws=24):
    """Global reports and special values at SplitMix64-drawn s and p_max
    against the per-prime reference, bit for bit, or raising the same
    exception type and message.  s is real, complex, or a multiple of 1/3,
    where -3s is an integer and CPython's pow takes its integer-power route
    for t; p_max runs from 2, or the largest level prime, to 5000.
    Returns the kinds of outcome seen: bytes for values, type for raises."""

    def unit():
        return mix.next_u64() / 2**64

    def outcome(fn, *args):
        try:
            return [struct.pack("<dd", z.real, z.imag) for z in fn(*args)]
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)

    def report(s, p_max):
        rep = global_z_report(gi, s, p_max)
        return rep.euler_product, rep.value

    def reference(s, p_max):
        product = reference_euler_product(gi, s, p_max)
        return product, kappa_infinity(gi, complex(s)) * complex(kappa_N(gi, complex(s))) * product

    low = max(gi.level_primes, default=2)
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for draw in range(draws):
            if draw % 3 == 0:
                s = -0.3 + 2.5 * unit()
            elif draw % 3 == 1:
                s = complex(0.2 + 1.8 * unit(), 40 * unit() - 20)
            else:
                s = mix.randint(-3, 9) / 3
                assert (-3 * s).is_integer()
            p_max = max(low, round(2 * 2500 ** unit()))  # log-uniform, so short products come up too
            got = outcome(report, s, p_max)
            assert got == outcome(reference, s, p_max), (s, p_max)
            want = outcome(lambda: [reference_special_value_ratio(gi, p_max)])
            assert outcome(lambda: [special_value_ratio(gi, p_max)]) == want, p_max
            kinds.add(type(got[0]))
    return kinds


def seeded_unitary_gi(p_max, l=12, N=30, seed=2008):
    """A SplitMix64-drawn unitary table over every prime <= p_max at the
    holomorphic point of weight l.  At level N = 30 the level primes 2, 3
    and 5 are inert, ramified and split; N = 1 has no level primes."""
    mix = SplitMix64(seed)

    def unit():
        return cmath.exp(2j * math.pi * mix.next_u64() / 2**64)

    level_symbols = {2: -1, 3: 0, 5: 1} if N == 30 else {}
    satake, gl2, local = {}, {}, {}
    for p in primes_up_to(p_max):
        u = (unit(), unit(), unit())
        satake[p] = u
        omega = u[0] * u[0] * u[1] * u[2]
        symbol = level_symbols.get(p, (-1, 0, 1)[mix.below(3)])
        if symbol == -1:
            local[p] = PrimeQuadData(-1, omega)
        elif symbol == 0:
            local[p] = PrimeQuadData(0, omega, mix.sign() * omega**0.5)
        else:
            mu = unit()
            local[p] = PrimeQuadData(1, omega, mu, omega / mu)
        gl2[p] = float(mix.sign()) if p in level_symbols else (unit(), unit())
    return make_gi(
        l=l, l1=l, r=-1j * (l - 1), N=N, satake_table=satake, gl2_table=gl2,
        local_table=local, petersson_phi=1.25, petersson_psi=0.5,
    )


class TestHelpers:
    def test_primes_up_to(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(2) == [2]
        assert primes_up_to(1) == []

    def test_is_prime_against_the_sieve(self):
        primes = set(primes_up_to(20000))
        assert [n for n in range(-3, 20001) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize(
        "n",
        # the least strong pseudoprimes to the bases 2; 2, 3; ...; 2 to 17,
        # and a Carmichael number
        [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
         341550071728321, 561],
    )
    def test_is_prime_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_is_prime_large(self):
        assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))
        # the least composite passing all nine bases, past 2**53
        assert is_prime(3825123056546413051)

    @pytest.mark.parametrize(
        "n, prime",
        # n - 1 divisible by 2^1000 and by 2^500: each base squares once per
        # step, not once per step for every earlier step.  sympy agrees.
        [(13 * 2**1000 + 1, True), (10**500 + 1, False)],
    )
    def test_is_prime_is_linear_in_the_power_of_two(self, n, prime):
        start = time.perf_counter()
        assert is_prime(n) is prime
        assert time.perf_counter() - start < 1.0

    def test_v_N_level_two(self):
        assert v_N(2) == Fraction(1, 45)

    def test_v_N_trivial_and_composite(self):
        assert v_N(1) == 1
        assert v_N(6) == Fraction(1, 45 * 640)

    @pytest.mark.parametrize("n", [0, 4, 12, 18])
    def test_v_N_rejects_bad_levels(self, n):
        with pytest.raises(ValueError):
            v_N(n)

    @given(
        st.sampled_from([1, 2, 3, 5, 7, 11]),
        st.sampled_from([1, 13, 17, 19, 23]),
    )
    def test_v_N_multiplicative(self, a, b):
        assert v_N(a * b) == v_N(a) * v_N(b)


class TestPrimeQuadData:
    def test_inert_carries_only_piF(self):
        PrimeQuadData(-1, 2.0)
        with pytest.raises(ValueError):
            PrimeQuadData(-1, 1.0, lambda_piL=1.0)

    def test_ramified_square_relation(self):
        PrimeQuadData(0, -1.0, lambda_piL=1j)
        with pytest.raises(ValueError):
            PrimeQuadData(0, 1.0, lambda_piL=0.5)
        with pytest.raises(ValueError):
            PrimeQuadData(0, 1.0)
        with pytest.raises(ValueError):
            PrimeQuadData(0, 1.0, lambda_piL=1.0, lambda_piF_over_piL=1.0)

    def test_split_product_relation(self):
        mu = cmath.exp(0.7j)
        PrimeQuadData(1, 1.0, mu, 1 / mu)
        with pytest.raises(ValueError):
            PrimeQuadData(1, 1.0, mu, mu)
        with pytest.raises(ValueError):
            PrimeQuadData(1, 1.0, mu)

    def test_bad_symbol_and_zero_value(self):
        with pytest.raises(ValueError):
            PrimeQuadData(2, 1.0)
        with pytest.raises(ValueError):
            PrimeQuadData(-1, 0.0)


# (symbol, piF, piL, piF_over_piL, accepted): the slot rules that the exact
# LocalQuadData and the numeric PrimeQuadData share.
SLOT_TABLE = [
    (-1, 3, None, None, True),
    (-1, 0, None, None, False),  # zero lambda_piF
    (-1, 3, 1, None, False),  # inert carries only lambda_piF
    (-1, 3, None, 1, False),
    (0, 4, -2, None, True),
    (0, 4, None, None, False),  # missing lambda_piL
    (0, 4, 0, None, False),  # zero lambda_piL
    (0, 4, 3, None, False),  # lambda_piL^2 != lambda_piF
    (0, 4, 2, 2, False),  # lambda_piF_over_piL is split-only
    (0, 0, 0, None, False),
    (1, 6, 2, 3, True),
    (1, 6, 2, 2, False),  # lambda_piL lambda_piF_over_piL != lambda_piF
    (1, 6, 2, None, False),
    (1, 6, None, 3, False),
    (1, 6, 0, 3, False),
    (1, 6, 2, 0, False),
    (2, 1, None, None, False),  # no such splitting class
]


@pytest.mark.parametrize("symbol, piF, piL, piF_over_piL, accepted", SLOT_TABLE)
def test_exact_and_numeric_slot_rules_agree(symbol, piF, piL, piF_over_piL, accepted):
    def exact():
        LocalQuadData(
            5,
            symbol,
            rat(piF),
            None if piL is None else rat(piL),
            None if piF_over_piL is None else rat(piF_over_piL),
        )

    def numeric():
        PrimeQuadData(
            symbol,
            complex(piF),
            None if piL is None else complex(piL),
            None if piF_over_piL is None else complex(piF_over_piL),
        )

    for build in (exact, numeric):
        if accepted:
            build()
        else:
            with pytest.raises(ValueError):
                build()


class TestGlobalInput:
    def test_valid_fixture(self):
        gi = make_gi()
        assert gi.level_primes == (2,)
        assert gi.l1 == 12  # defaults to l

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            make_gi(l=11)
        with pytest.raises(ValueError):
            make_gi(l1=7)

    def test_discriminant_validation(self):
        with pytest.raises(ValueError):
            make_gi(D=5)
        with pytest.raises(ValueError):
            make_gi(D=-4)

    @pytest.mark.parametrize("n", [0, 4, 12])
    def test_level_must_be_squarefree(self, n):
        with pytest.raises(ValueError):
            make_gi(N=n)

    def test_class_lists(self):
        with pytest.raises(ValueError):
            make_gi(lambda_classvals=(1, -1), fourier_classvals=(1,))
        with pytest.raises(ValueError):
            make_gi(lambda_classvals=(), fourier_classvals=())

    def test_level_prime_coverage(self):
        with pytest.raises(ValueError, match="gl2_table"):
            make_gi(gl2_table={})
        with pytest.raises(ValueError, match="local_table"):
            make_gi(local_table={})

    @pytest.mark.parametrize("n", [3, 10**18 + 3, 3**5000], ids=["3", "1e18+3", "3^5000"])
    def test_level_is_factored_over_the_gl2_keys(self, n):
        # a prime factor that keys no gl2_table entry ends the factoring
        # at once, however large N is
        with pytest.raises(ValueError, match=f"N = {n} must be a product of distinct primes keying gl2_table"):
            make_gi(N=n)

    def test_composite_gl2_key_is_no_level_prime(self):
        # 4 divides N = 4 but is no prime, so 2 is the level prime, twice
        with pytest.raises(ValueError, match="N = 4 must be a product of distinct primes"):
            make_gi(N=4, gl2_table={2: -1, 4: (1, 1)})
        with pytest.raises(ValueError, match="N = 6 must be a product of distinct primes"):
            make_gi(N=6, gl2_table={2: -1, 6: -1})

    def test_level_twist_is_plus_minus_one(self):
        with pytest.raises(ValueError, match="twist"):
            make_gi(gl2_table={2: 0.5})
        make_gi(gl2_table={2: 1})  # +1 is fine

    def test_good_prime_needs_satake_pair(self):
        with pytest.raises(ValueError):
            make_gi(
                N=1,
                satake_table={3: (1, 1, 1)},
                gl2_table={3: -1.0},
                local_table={3: PrimeQuadData(-1, 1.0)},
            )

    def test_pairing_constraint(self):
        with pytest.raises(ValueError, match="pairing"):
            make_gi(satake_table={2: (2, 1, 1)})  # omega_pi = 4 != lambda_piF

    def test_satake_entries_nonzero(self):
        with pytest.raises(ValueError):
            make_gi(satake_table={2: (0, 1, 1)})


class TestALambda:
    def test_single_class(self):
        gi = make_gi(lambda_classvals=(1,), fourier_classvals=(5,))
        assert a_lambda(gi) == 5

    def test_cancellation_flags_degeneracy(self):
        gi = make_gi(lambda_classvals=(1, -1), fourier_classvals=(3, 3))
        with pytest.warns(DegenerateInputWarning):
            assert a_lambda(gi) == 0

    def test_conjugate_character(self):
        vals = (cmath.exp(0.3j), cmath.exp(-1.1j), 1.0)
        coeffs = (2.0, -1.0, 0.5)  # real
        gi = make_gi(lambda_classvals=vals, fourier_classvals=coeffs)
        gi_bar = make_gi(
            lambda_classvals=tuple(v.conjugate() for v in vals),
            fourier_classvals=coeffs,
        )
        assert a_lambda(gi_bar) == pytest.approx(a_lambda(gi).conjugate(), rel=1e-15)


class TestKappaInfinity:
    def test_regression_pin(self):
        gi = make_gi()  # a1 = c(1) = (4 pi)^-6, r = -11j so ir = 11
        value = kappa_infinity(gi, 1.5)
        by_hand = (
            0.5
            * math.pi
            * 4**-10.5
            * (4 * math.pi) ** -21
            * math.factorial(20)
            / 10
        )
        assert value == pytest.approx(by_hand, rel=1e-12)
        assert value == pytest.approx(1.5038601124509963e-12, rel=1e-12)

    def test_degenerate_class_sum(self):
        gi = make_gi(lambda_classvals=(1, -1), fourier_classvals=(2, 2))
        with pytest.warns(DegenerateInputWarning):
            assert kappa_infinity(gi, 1.5) == 0

    @pytest.mark.parametrize("s", [1.5, 1.0, 0.9 + 0.4j])
    def test_matches_archimedean_closed_form(self, s):
        gi = make_gi(lambda_classvals=(0.5 + 0.25j,), fourier_classvals=(2.0,))
        scenario = ArchScenario(
            l=gi.l,
            q_c=0,
            r=gi.r,
            D=gi.D,
            s=s,
            a_plus=c1_coefficient(gi.l, gi.l1, gi.r, gi.a1),
        )
        expected = a_lambda(gi).conjugate() * z_inf_closed(scenario)
        assert kappa_infinity(gi, s) == pytest.approx(expected, rel=1e-12)

    def test_weight_raising_enters_through_c1(self):
        base = make_gi(a1=1.0)
        raised = make_gi(a1=1.0, l1=14)
        # one raising step: (ir/2 + 1/2 - 7)(ir/2 - 1/2 + 7) at ir = 11
        step = (5.5 - 6.5) * (5.5 + 6.5)
        ratio = kappa_infinity(raised, 1.2) / kappa_infinity(base, 1.2)
        assert ratio == pytest.approx(step, rel=1e-12)


class TestKappaN:
    def test_empty_product(self):
        gi = make_gi(N=1, satake_table={}, gl2_table={}, local_table={})
        assert kappa_N(gi, Fraction(1, 2)) == 1
        assert kappa_N(gi, 0.37 + 0.2j) == 1

    def test_level_two_inert_at_one_half(self):
        value = kappa_N(make_gi(), Fraction(1, 2))
        assert isinstance(value, Fraction)
        assert value == Fraction(16, 225)

    def test_level_six(self):
        gi = make_gi(
            N=6,
            satake_table={2: (1, 1, 1), 3: (1, 1, 1)},
            gl2_table={2: 1, 3: -1},
            local_table={
                2: PrimeQuadData(1, 1.0, 2.0, 0.5),
                3: PrimeQuadData(0, 1.0, -1.0),
            },
        )
        factor2 = (
            Fraction(2 * 1, 3 * 15) * (1 - Fraction(1, 2)) / (1 - Fraction(2) ** -4)
        )
        factor3 = Fraction(3 * 2, 4 * 80) / (1 - Fraction(3) ** -4)
        assert kappa_N(gi, Fraction(1, 2)) == factor2 * factor3

    def test_complex_path_agrees(self):
        value = kappa_N(make_gi(), 0.5)
        assert value == pytest.approx(16 / 225, rel=1e-14)

    def test_level_thirty_mixed_classes(self):
        """Split 2, ramified 3, inert 5 at s = 1/3, where 6s + 1 = 3."""
        gi = make_gi(
            N=30,
            satake_table={},
            gl2_table={2: 1, 3: -1, 5: 1},
            local_table={
                2: PrimeQuadData(1, 1.0, 2.0, 0.5),
                3: PrimeQuadData(0, 1.0, -1.0),
                5: PrimeQuadData(-1, 1.0),
            },
        )
        factor2 = Fraction(2, 45) * Fraction(1, 2) / Fraction(7, 8)
        factor3 = Fraction(6, 320) / Fraction(26, 27)
        factor5 = Fraction(20, 3744) * Fraction(6, 5) / Fraction(124, 125)
        expected = factor2 * factor3 * factor5
        assert kappa_N(gi, Fraction(1, 3)) == expected
        assert kappa_N(gi, 1 / 3) == pytest.approx(float(expected), rel=1e-14)

    @pytest.mark.parametrize("s", [Fraction(-1, 6), -1 / 6, complex(-1 / 6)])
    def test_pole_at_minus_one_sixth_is_a_value_error(self, s):
        # 1 - p^(-6s-1) = 1 - p^0 = 0 at every level prime.
        with pytest.raises(ValueError, match="pole of the level factor at p = 2"):
            kappa_N(make_gi(), s)

    @pytest.mark.parametrize(
        "p,symbol,quad,exact_local",
        [
            (2, SplittingSymbol.INERT, PrimeQuadData(-1, 1.0), {}),
            (
                3,
                SplittingSymbol.RAMIFIED,
                PrimeQuadData(0, 1.0, -1.0),
                {"lambda_piL": rat(-1)},
            ),
            (
                5,
                SplittingSymbol.SPLIT,
                PrimeQuadData(1, 1.0, 2.0, 0.5),
                {"lambda_piL": rat(2), "lambda_piF_over_piL": rat(1, 2)},
            ),
        ],
    )
    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1, 3), 1])
    def test_single_prime_matches_local_prefactor(self, p, symbol, quad, exact_local, s):
        """At a level prime the factor is the local prefactor over 1 - p^(-6s-1)."""
        gi = make_gi(
            N=p,
            satake_table={p: (1, 1, 1)},
            gl2_table={p: -1},
            local_table={p: quad},
        )
        local = LocalQuadData(p=p, symbol=symbol, lambda_piF=rat(1), **exact_local)
        pre = prefactor(local)
        k = int(6 * Fraction(s) + 1)
        expected = Fraction(int(pre.numerator), int(pre.denominator)) / (
            1 - Fraction(p) ** -k
        )
        assert kappa_N(gi, s) == expected


class TestGlobalZ:
    def test_hand_checked_product(self):
        """One trivial good prime: every factor written out by hand."""
        gi = make_gi(
            N=1,
            satake_table={2: (1, 1, 1)},
            gl2_table={2: (1, 1)},
            local_table={2: PrimeQuadData(-1, 1.0)},
        )
        report = global_z_report(gi, 1.0, 2)
        t = 2.0**-3
        euler = (
            (1 - t * t / 2)
            * (1 - t * t / 4) ** 2
            / (1 - t / math.sqrt(2)) ** 8
        )
        assert report.kappa_level == 1
        assert report.euler_product == pytest.approx(euler, rel=1e-14)
        assert report.value == report.kappa_inf * report.kappa_level * report.euler_product
        assert math.isfinite(report.tail_bound)

    @pytest.mark.parametrize(
        "p,symbol,quad,omega,exact_local",
        [
            (2, SplittingSymbol.INERT, PrimeQuadData(-1, 1.0), -1, {}),
            (
                3,
                SplittingSymbol.RAMIFIED,
                PrimeQuadData(0, 1.0, -1.0),
                1,
                {"lambda_piL": rat(-1)},
            ),
            (
                5,
                SplittingSymbol.SPLIT,
                PrimeQuadData(1, 1.0, 2.0, 0.5),
                -1,
                {"lambda_piL": rat(2), "lambda_piF_over_piL": rat(1, 2)},
            ),
        ],
    )
    @pytest.mark.parametrize("s", [0.7, 1.0, 0.8 + 0.3j])
    def test_single_level_prime_matches_closed_form(
        self, p, symbol, quad, omega, exact_local, s
    ):
        """One level prime, trivial good primes below: the numeric product
        must equal the exact closed form at the level prime times the exact
        good-prime factors, both evaluated through the rational layer."""
        satake = {p: (1, 2, Fraction(1, 2))}
        gl2 = {p: omega}
        local = {p: quad}
        good = [g for g in (2, 3) if g < p]
        for g in good:
            satake[g] = (1, 1, 1)
            gl2[g] = (1, 1)
            local[g] = PrimeQuadData(-1, 1.0)
        gi = make_gi(N=p, satake_table=satake, gl2_table=gl2, local_table=local)
        scenario = ScenarioData(
            local=LocalQuadData(p=p, symbol=symbol, lambda_piF=rat(1), **exact_local),
            sat=SatakeParams(rat(1), rat(2), rat(1, 2)),
            st=SteinbergData(rat(omega)),
        )
        closed = z_closed_form(scenario)
        expected = kappa_infinity(gi, s) * closed.eval_complex(
            complex(p) ** (-3 * complex(s))
        )
        for g in good:
            factor = unramified_local_factor(
                LocalQuadData(p=g, symbol=SplittingSymbol.INERT, lambda_piF=rat(1)),
                SatakeParams(rat(1), rat(1), rat(1)),
                (rat(1), rat(1)),
            )
            expected *= factor.eval_complex(complex(g) ** (-3 * complex(s)))
        assert global_z_report(gi, s, p).value == pytest.approx(expected, rel=1e-10)

    def test_truncation_cauchy_convergence(self):
        gi = make_synthetic_gi(40)
        values = {pm: global_z_report(gi, 1.0, pm).value for pm in (10, 20, 40)}
        d1 = abs(values[20] - values[10])
        d2 = abs(values[40] - values[20])
        assert d2 < d1
        report = global_z_report(gi, 1.0, 20)
        assert d2 <= abs(values[40]) * report.tail_bound

    def test_outside_convergence_region_warns(self):
        gi = make_gi()
        # 0 < Re(s) <= 1/6 is outside too: 3 Re(s) + 1/2 <= 1
        for s in (0.0, 0.1):
            with pytest.warns(TruncationWarning):
                report = global_z_report(gi, s, 2)
            assert not report.in_convergence_region
            assert report.tail_bound == math.inf

    def test_tail_bound_past_the_float_range_is_inf(self):
        # just inside the region, the bound's exponent overflows expm1
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            report = global_z_report(make_gi(), 0.17, 2)
        assert report.in_convergence_region
        assert report.tail_bound == math.inf
        assert math.isfinite(abs(report.value))

    def test_level_prime_beyond_truncation(self):
        with pytest.raises(ValueError, match="level prime"):
            global_z_report(make_gi(), 1.0, 1)

    def test_missing_prime_data(self):
        with pytest.raises(ValueError, match="missing"):
            global_z_report(make_gi(), 1.0, 3)  # nothing known at p = 3

    def test_report_notes(self):
        report = global_z_report(make_gi(), 1.0, 2)
        assert "assembled, not restated" in report.notes
        assert CONVENTION_NOTE in report.notes

    def test_level_factored_once_per_input(self, monkeypatch):
        gi = make_synthetic_gi(40)
        calls = []
        is_prime = assembly.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(assembly, "is_prime", counted)
        report = global_z_report(gi, 1.0, 40)
        # the input factored N when it was built; no prime of the Euler
        # product factors it again
        assert len(report.primes) == 12
        assert calls == []
        assert gi.level_primes == (2,)


class TestEulerTable:
    """The per-input factor table against the per-prime evaluation."""

    # The second input is the sensitive one: weight 4 puts the special
    # value at s0 = 1/6, where t = p^(-1/2), and without level primes the
    # smallest primes go through the Satake-pair path, where |t/p| is
    # largest.  There a last-bit change in a divisor or a prefix moves the
    # product.
    @pytest.fixture(scope="class", params=[(12, 30), (4, 1)], ids=["l12-N30", "l4-N1"])
    def gi(self, request):
        l, N = request.param
        return seeded_unitary_gi(5000, l=l, N=N)

    def test_the_table_covers_every_prime(self):
        gi = seeded_unitary_gi(5000)
        rows, faults = gi.euler_table
        assert len(primes_up_to(5000)) == 669
        assert list(rows.primes) == primes_up_to(5000) and faults == {}
        assert gi.level_primes == (2, 3, 5)
        assert [gi.local_table[p].symbol for p in gi.level_primes] == [-1, 0, 1]

    # Near the edge of the region (0.25, 0.2 + 0.5j) the factors are far
    # enough from 1 that reassociating a divisor's product changes the result.
    # At 1/3, 2/3 and 1 the exponent -3s is an integer, and CPython's pow
    # takes its integer-power route for t.
    @pytest.mark.parametrize("p_max", [997, 5000])
    @pytest.mark.parametrize("s", [0.7, 0.9 + 0.3j, 2.0, 1.5, 0.25, 0.2 + 0.5j, 1 / 3, 2 / 3, 1])
    def test_report_is_bit_identical(self, gi, s, p_max):
        report = global_z_report(gi, s, p_max)
        product = reference_euler_product(gi, s, p_max)
        assert report.euler_product == product
        value = kappa_infinity(gi, complex(s)) * complex(kappa_N(gi, complex(s))) * product
        assert report.value == value

    @pytest.mark.parametrize("p_max", [997, 5000])
    def test_special_value_ratio_is_bit_identical(self, gi, p_max):
        assert special_value_ratio(gi, p_max) == reference_special_value_ratio(gi, p_max)

    def test_every_cut_of_one_table_is_bit_identical(self, gi):
        # p_max need not be prime: each report slices its own leading columns
        for p_max in (1000, 4999, 5, 6, 5000, 1000):
            report = global_z_report(gi, 0.9 + 0.3j, p_max)
            assert report.primes == tuple(primes_up_to(p_max))
            assert report.euler_product == reference_euler_product(gi, 0.9 + 0.3j, p_max)
            assert special_value_ratio(gi, p_max) == reference_special_value_ratio(gi, p_max)

    @pytest.mark.parametrize(
        "drop, s, error, prime",
        [
            ([101], -120, OverflowError, None),  # p^360 leaves the float range at p = 11
            ([5], -120, ValueError, 5),  # a missing prime before the overflow
            ([101], 0.7 + 1e308j, ZeroDivisionError, None),  # pow fails at p = 2 already
        ],
    )
    def test_the_first_failing_prime_raises_first(self, drop, s, error, prime):
        satake, gl2, local = synthetic_tables(600)
        for p in drop:
            del local[p]
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(error) as want:
                reference_euler_product(gi, s, 600)
            with pytest.raises(error) as got:
                global_z_report(gi, s, 600)
        assert str(got.value) == str(want.value)
        if prime is not None:
            assert str(got.value) == f"missing local data for p = {prime}"

    @pytest.mark.parametrize("p_max, missing", [(11, None), (11, 11), (13, 3)])
    def test_a_zero_divisor_raises_as_the_division_does(self, p_max, missing):
        # At p = 7 the Satake value u1 u0 = 1e-200 times the GL(2) value
        # 1e-200 underflows to a zero divisor, while omega_pi = 1 and the
        # twist's chi = 1 stay finite, so the row builds.
        satake, gl2, local = synthetic_tables(20)
        satake[7], gl2[7] = (1.0, 1e-200, 1e200), (1e-200, 1e200)
        local[7] = PrimeQuadData(0, 1.0, -1.0)
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        assert assembly._factor_row(7, local[7], gl2[7], gi.gamma(7), gi.omega_pi(7), False)[1][2] == 0
        assert 7 in gi.euler_table[0].primes
        assert global_z_report(gi, 1.0, 5).euler_product == reference_euler_product(gi, 1.0, 5)
        if missing is not None:
            del local[missing]
            gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        error = ValueError if missing == 3 else ZeroDivisionError
        with pytest.raises(error) as want:
            reference_euler_product(gi, 1.0, p_max)
        with pytest.raises(error) as got:
            global_z_report(gi, 1.0, p_max)
        assert str(got.value) == str(want.value)

    def test_a_composite_key_is_no_column(self):
        satake, gl2, local = synthetic_tables(30)
        for table in (satake, gl2, local):
            table[25], table[1] = table[23], table[23]
        del local[5]  # a composite key past a missing prime stays harmless
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        table, faults = gi.euler_table
        assert table.primes == (2, 3, 7, 11, 13, 17, 19, 23, 25, 29) and faults == {}
        assert global_z_report(gi, 0.7, 3).euler_product == reference_euler_product(gi, 0.7, 3)
        with pytest.raises(ValueError, match="missing local data for p = 5"):
            global_z_report(gi, 0.7, 30)
        local[5] = PrimeQuadData(-1, 1.0)
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        assert 25 not in gi.euler_table[0].primes
        assert global_z_report(gi, 0.7, 30).euler_product == reference_euler_product(gi, 0.7, 30)


    @pytest.mark.parametrize(
        "drop, s",
        [
            ({"local": [101]}, 0.7),
            ({"gl2": [97, 499], "satake": [499]}, 0.9 + 0.3j),
            ({"satake": [3]}, 1.5),  # a level prime
        ],
    )
    def test_missing_data_names_the_same_prime(self, drop, s):
        satake, gl2, local = synthetic_tables(600)
        tables = {"satake": satake, "gl2": gl2, "local": local}
        for name, primes in drop.items():
            for p in primes:
                del tables[name][p]
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        with pytest.raises(ValueError) as want:
            reference_euler_product(gi, s, 600)
        with pytest.raises(ValueError) as got:
            global_z_report(gi, s, 600)
        assert str(got.value) == str(want.value)
        assert "missing local data" in str(got.value)

    @pytest.mark.parametrize("missing_from", [None, 5, 2])
    def test_pole_names_the_same_prime(self, missing_from):
        # At s = -1/6, t = sqrt(p): p = 3's inverse factor is exactly 0.
        satake = {2: (1, 2, 0.5), 3: (1, 1, 1), 5: (1, 1, 1)}
        gl2 = {2: -1, 3: (1, 1), 5: (1, 1)}
        local = {p: PrimeQuadData(-1, 1.0) for p in (2, 3, 5)}
        if missing_from is not None:
            del local[missing_from]
            if missing_from == 2:
                del gl2[2]
        gi = make_gi(
            N=1 if missing_from == 2 else 2,
            satake_table=satake, gl2_table=gl2, local_table=local,
            petersson_phi=1.0, petersson_psi=1.0, l=4, l1=4, r=-3j,
        )
        s = -1 / 6
        with pytest.raises(ValueError) as want:
            reference_euler_product(gi, s, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(ValueError) as got:
                global_z_report(gi, s, 5)
        assert str(got.value) == str(want.value)
        if missing_from == 2:
            assert "missing local data for p = 2" in str(got.value)
        else:
            assert "pole of the degree-8 local factor at p = 3" in str(got.value)
            # l = 4 puts the special value at s0 = 1/6, away from the pole
            assert special_value_ratio(gi, 3) == reference_special_value_ratio(gi, 3)

    def test_an_unbuildable_row_fails_only_the_reports_that_reach_it(self):
        satake, gl2, local = synthetic_tables(20)
        satake[19] = (1e-200, 1e-200, 1e-200)  # omega_pi underflows to 0
        local[19] = PrimeQuadData(-1, 1e-12)
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local)
        rows, faults = gi.euler_table
        assert 19 in faults and 19 not in rows.primes
        assert global_z_report(gi, 1.0, 17).euler_product == reference_euler_product(gi, 1.0, 17)
        with pytest.raises(ZeroDivisionError) as want:
            reference_euler_product(gi, 1.0, 19)
        with pytest.raises(ZeroDivisionError) as got:
            global_z_report(gi, 1.0, 19)
        assert str(got.value) == str(want.value)

    def test_seeded_sweep_is_bit_identical(self, gi):
        sweep_outcomes(gi, SplitMix64(4200 + gi.l))

    def test_seeded_sweep_past_a_missing_prime_is_bit_identical(self):
        # 2003^2 is a column, past the missing prime 2003; 61 * 67 is no column
        satake, gl2, local = synthetic_tables(5000)
        for table in (satake, gl2, local):
            table[2003**2], table[61 * 67] = table[1999], table[1999]
        del local[2003]
        gi = make_gi(satake_table=satake, gl2_table=gl2, local_table=local, petersson_phi=1.25, petersson_psi=0.5)
        assert gi.euler_table[0].primes[-2:] == (4999, 2003**2)
        kinds = sweep_outcomes(gi, SplitMix64(4203))
        assert kinds == {bytes, type}  # some reports stop at 2003, some end before it

    def test_the_table_is_built_once_per_input(self, monkeypatch):
        gi = make_synthetic_gi(60, petersson_phi=1.0, petersson_psi=1.0)
        assembly._primes_through.cache_clear()
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, args[-1]))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(GlobalInput, "gamma", counted("gamma", GlobalInput.gamma))
        monkeypatch.setattr(GlobalInput, "omega_pi", counted("omega_pi", GlobalInput.omega_pi))
        monkeypatch.setattr(assembly, "primes_up_to", counted("sieve", assembly.primes_up_to))
        global_z_report(gi, 0.7, 41)
        # the first report builds the table: one gamma and one omega_pi per prime
        primes = primes_up_to(60)
        assert sorted(calls) == sorted(
            [("gamma", p) for p in primes] + [("omega_pi", p) for p in primes] + [("sieve", 41)]
        )
        del calls[:]
        for s in (0.7, 1.0, 0.8 + 0.2j):
            for p_max in (41, 59, 41):
                global_z_report(gi, s, p_max)
                special_value_ratio(gi, p_max)
        # later reports do no per-prime set-up, and sieve once per new p_max
        assert calls == [("sieve", 59)]


# Parts at the edges of the float range: signed zeros, the smallest
# subnormal, the largest finite values, infinities and NaN.
_EDGE_PARTS = (0.0, -0.0, 5e-324, -2.5e-308, 0.75, -1.0, 3.0, 1e308, -1.7e308, math.inf, -math.inf, math.nan)


def _same_float(x: float, y: float) -> bool:
    """Equal to the bit, or both NaN (CPython and numpy may differ in a NaN's payload)."""
    return (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)


def test_complex_formulas_match_cpython_to_the_bit():
    values = [complex(re, im) for re in _EDGE_PARTS for im in _EDGE_PARTS]
    a = np.array([x for x in values for _ in values])
    b = np.array([y for _ in values for y in values])
    with np.errstate(all="ignore"):
        prod = assembly._c_prod(a.real, a.imag, b.real, b.imag)
        quot = assembly._c_quot(a.real, a.imag, *assembly._quotient_parts(b.real, b.imag))
        diff = assembly._one_minus(a.real, a.imag)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        want = 1 - x
        assert _same_float(diff[0][i], want.real) and _same_float(diff[1][i], want.imag), x
        want = x * y
        assert _same_float(prod[0][i], want.real) and _same_float(prod[1][i], want.imag), (x, y)
        if y == 0:
            continue  # CPython raises ZeroDivisionError, which the table records
        want = x / y
        assert _same_float(quot[0][i], want.real) and _same_float(quot[1][i], want.imag), (x, y)


class TestTheorem3Constant:
    def test_level_one_pin(self):
        gi = make_gi(N=1, satake_table={}, gl2_table={}, local_table={})
        expected = 4**-10.5 * 2**-42 * math.factorial(19)
        assert theorem3_constant(gi) == pytest.approx(expected, rel=1e-12)

    def test_inert_level_prime_factor(self):
        base = make_gi(N=1, satake_table={}, gl2_table={}, local_table={})
        with_level = make_gi()
        ratio = theorem3_constant(with_level) / theorem3_constant(base)
        expected = (2 * 1) / (3 * 15) * (1 + Fraction(1, 2)) / (1 - Fraction(2) ** -10)
        assert ratio == pytest.approx(complex(expected), rel=1e-12)

    def test_ramified_and_split_level_primes(self):
        base = make_gi(N=1, satake_table={}, gl2_table={}, local_table={})
        level_six = make_gi(
            N=6,
            satake_table={2: (1, 1, 1), 3: (1, 1, 1)},
            gl2_table={2: -1, 3: 1},
            local_table={
                2: PrimeQuadData(0, 1.0, lambda_piL=-1.0),
                3: PrimeQuadData(1, 1.0, 2.0, 0.5),
            },
        )
        ratio = theorem3_constant(level_six) / theorem3_constant(base)
        # ramified p = 2 (1 - 0/2 = 1), split p = 3; 1 - p^(-l+2) at l = 12
        two = Fraction(2 * 1, 3 * 15) / (1 - Fraction(2) ** -10)
        three = Fraction(3 * 2, 4 * 80) * (1 - Fraction(1, 3)) / (1 - Fraction(3) ** -10)
        assert ratio == pytest.approx(complex(two * three), rel=1e-12)

    def test_degenerate_class_sum(self):
        gi = make_gi(lambda_classvals=(1, -1), fourier_classvals=(1, 1))
        with pytest.warns(DegenerateInputWarning):
            assert theorem3_constant(gi) == 0

    def test_small_weight_guard(self):
        gi = make_gi(l=2, l1=2)
        with pytest.raises(ValueError):
            theorem3_constant(gi)


class TestTheorem3Consistency:
    @pytest.mark.parametrize("l", [12, 20])
    @pytest.mark.parametrize("D", [3, 4])
    def test_printed_cases(self, l, D):
        gi = make_gi(l=l, l1=l, D=D, r=-1j * (l - 1))
        assert theorem3_consistency(gi)

    def test_full_even_range(self):
        for l in range(12, 41, 2):
            gi = make_gi(l=l, l1=l, r=-1j * (l - 1))
            assert theorem3_consistency(gi), l

    def test_low_weight_boundary(self):
        assert theorem3_consistency(make_gi(l=4, l1=4, r=-3j))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            theorem3_consistency(make_gi(l=2, l1=2))

    def test_ignores_spectral_inputs(self):
        gi = make_gi(r=0.3, a1=7.0, l1=16)
        assert theorem3_consistency(gi)


class TestSpecialValueRatio:
    def test_empty_product(self):
        gi = make_gi(
            N=1,
            satake_table={},
            gl2_table={},
            local_table={},
            petersson_phi=2.0,
            petersson_psi=3.0,
        )
        expected = 1 / (math.pi**52 * 6.0)
        assert special_value_ratio(gi, 1) == pytest.approx(expected, rel=1e-15)

    def test_single_prime_by_hand(self):
        gi = make_gi(
            N=1,
            satake_table={2: (1, 1, 1)},
            gl2_table={2: (1, 1)},
            local_table={2: PrimeQuadData(-1, 1.0)},
            petersson_phi=2.0,
            petersson_psi=3.0,
        )
        t = 2.0**-4.5  # p^(-3 (l/6 - 1/2)) at l = 12
        expected = (1 - t / math.sqrt(2)) ** -8 / (math.pi**52 * 6.0)
        assert special_value_ratio(gi, 2) == pytest.approx(expected, rel=1e-14)

    def test_requires_norms(self):
        with pytest.raises(ValueError, match="Petersson"):
            special_value_ratio(make_gi(), 2)

    def test_requires_holomorphic_point(self):
        gi = make_gi(r=0.5, petersson_phi=1.0, petersson_psi=1.0)
        with pytest.raises(ValueError, match="ir = l - 1"):
            special_value_ratio(gi, 2)

    def test_level_prime_beyond_truncation(self):
        gi = make_gi(petersson_phi=1.0, petersson_psi=1.0)
        with pytest.raises(ValueError, match="level prime"):
            special_value_ratio(gi, 1)

    def test_truncation_convergence(self):
        gi = make_synthetic_gi(40, petersson_phi=1.0, petersson_psi=1.0)
        values = {pm: special_value_ratio(gi, pm) for pm in (10, 20, 40)}
        d1 = abs(values[20] - values[10])
        d2 = abs(values[40] - values[20])
        assert d2 < d1

    def test_note_text(self):
        assert "not certified" in ALGEBRAICITY_NOTE
