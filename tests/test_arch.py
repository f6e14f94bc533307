"""Tests for the archimedean integral: Whittaker evaluation, the Mellin
identity, and quadrature against the closed Gamma-product form."""

import cmath
import math
import random
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from localzeta import arch, batteries
from localzeta.arch import (
    ArchScenario,
    DomainError,
    GammaPoleError,
    QuadratureError,
    WhittakerQuery,
    c1_coefficient,
    gamma_fn,
    mellin_whittaker,
    whittaker_w,
    z_inf_closed,
    z_inf_quadrature,
    _reciprocal_gamma,
    _whittaker_w_array,
)


class TestGammaFn:
    def test_half(self):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-12

    def test_factorial(self):
        assert abs(gamma_fn(5) - 24) < 1e-12

    def test_reflection(self):
        rng = random.Random(977)
        for _ in range(25):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z - round(z.real)) < 0.1 or abs(z.real) < 0.05:
                continue
            lhs = gamma_fn(z) * gamma_fn(1 - z)
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("z", [0, -1, -7])
    def test_poles(self, z):
        with pytest.raises(GammaPoleError):
            gamma_fn(z)

    def test_scipy_special_loads_on_the_first_call(self):
        # in a fresh interpreter: the float layers import without it, and the
        # first Gamma value loads it and is its value
        code = (
            "import sys\n"
            "from localzeta import arch, assembly, batteries\n"
            "before = 'scipy.special' in sys.modules\n"
            "value = arch.gamma_fn(1.5 + 0.5j)\n"
            "after = 'scipy.special' in sys.modules\n"
            "import scipy.special\n"
            "print(before, after, value == complex(scipy.special.gamma(1.5 + 0.5j)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False", "True", "True"]


def laguerre_w(n, mu, x):
    """W_{mu+1/2+n, mu}(x) = (-1)^n n! e^(-x/2) x^(mu+1/2) L_n^(2mu)(x), with
    the Laguerre polynomial summed term by term at 500 digits."""
    with mpmath.workdps(500):
        mu, x = mpmath.mpmathify(mu), mpmath.mpf(x)
        lag = mpmath.fsum(
            (-1) ** j * mpmath.binomial(n + 2 * mu, n - j) * x**j / mpmath.factorial(j)
            for j in range(n + 1)
        )
        return complex((-1) ** n * mpmath.factorial(n) * mpmath.exp(-x / 2) * x ** (mu + 0.5) * lag)


class TestWhittakerW:
    def test_pure_exponential_reduction(self):
        # W_{mu+1/2, mu}(z) = e^(-z/2) z^(mu+1/2)
        for mu in (0.0, 0.5, 3.0, 5.5):
            for z in (0.5, 2.0, 10.0):
                got = whittaker_w(WhittakerQuery(kappa=mu + 0.5, mu=mu, x=z))
                expect = math.exp(-z / 2) * z ** (mu + 0.5)
                assert abs(got - expect) <= 1e-10 * abs(expect), (mu, z)

    def test_reduction_value_example(self):
        # mu = 1/2, z = 2: e^(-1) * 2 = 2/e
        got = whittaker_w(WhittakerQuery(kappa=1.0, mu=0.5, x=2.0))
        assert abs(got - 2 / math.e) < 1e-10

    def test_bessel_k_crosscheck(self):
        # W_{0,0}(x) = sqrt(x/pi) K_0(x/2), with K_0 from an independent source
        x = 1.0
        got = whittaker_w(WhittakerQuery(0.0, 0.0, x))
        expect = math.sqrt(x / math.pi) * scipy.special.k0(x / 2)
        assert abs(got - expect) <= 1e-10 * abs(expect)

    @pytest.mark.parametrize(
        "kappa,mu,x",
        [
            (0.0, 1.0, 2.0),  # integral route
            (-1.0, 0.5, 0.3),
            (0.5, 2.5, 10.0),
            (6.0, 5.5, 0.5),  # degenerate (polynomial) route
            (6.0, 5.5, 30.0),
            (3.0, 1.5, 0.01),
            (6.0, 0.2, 1.0),  # recurrence route
            (6.0, 0.0, 12.0),
            (6.0, 0.25j, 1.0),
            (6.0, 0.25j, 30.0),
            (10.0, 5.5, 45.0),
        ],
    )
    def test_against_independent_oracle(self, kappa, mu, x):
        got = complex(_whittaker_w_array(kappa, mu, np.array([x]))[0])
        ref = complex(mpmath.whitw(kappa, mu, x))
        assert abs(got - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("kappa,mu", [(171.5, 0.0), (171.5 + 0.5j, 0.5j)])
    def test_polynomial_route_past_the_factorial_range(self, kappa, mu):
        # U(-n, 1+2mu, x) is a polynomial of degree n = kappa - mu - 1/2, and
        # one walk up from U(0, 1+2mu, x) = 1 serves every degree: low ones,
        # those up to 170 where n! is a float, and 171, where 171! is past
        # the float range but W is not yet at x <= 2e-3
        cases = [(n, x) for n in (1, 2, 40, 150, 170) for x in (0.01, 1.0, 50.0)]
        cases += [(171, 1e-3), (171, 2e-3)]
        for n, x in cases:
            k = kappa - 171 + n
            got = complex(_whittaker_w_array(k, mu, np.array([x]))[0])
            try:
                ref = complex(mpmath.whitw(k, mu, x))
            except ValueError:  # whitw does not converge, as at a zero of W
                ref = laguerre_w(n, mu, x)
            assert abs(got - ref) <= 1e-11 * abs(ref), (n, x)

    @pytest.mark.parametrize("kappa,mu", [(1000, 5.5), (5e14, 5.5), (5e14, 0.2)])
    def test_large_first_index_is_past_the_float_range(self, kappa, mu):
        # the walk up stops once no value can come back: W is inf or nan
        # where it is past the float range, and 0 where e^(-x/2) is
        with np.errstate(all="ignore"):
            got = _whittaker_w_array(kappa, mu, np.array([0.5, 30.0, 1e6]))
        assert not np.isfinite(got[:2]).any()
        assert got[2] == 0
        assert (_whittaker_w_array(kappa, mu, np.array([1e6, 2e6])) == 0).all()

    def test_monotone_decay(self):
        for kappa, mu in [(0.0, 1.0), (-1.0, 0.5), (2.0, 3.0)]:
            values = [
                whittaker_w(WhittakerQuery(kappa, mu, float(x)))
                for x in range(1, 11)
            ]
            reals = [v.real for v in values]
            assert all(b < a for a, b in zip(reals, reals[1:])), (kappa, mu)

    def test_argument_window(self):
        with pytest.raises(DomainError):
            whittaker_w(WhittakerQuery(0.0, 0.0, 60.0))
        with pytest.raises(ValueError):
            WhittakerQuery(0.0, 0.0, -1.0)

    def test_unsupported_corner(self):
        # large real mu, first index past the integral route, tiny x:
        # the two power branches cancel beyond double precision
        with pytest.raises(DomainError):
            whittaker_w(WhittakerQuery(kappa=6.0, mu=5.4, x=0.01))


class TestConfluentU:
    # The (a, b) pairs the verify-arch battery hands to the tanh-sinh grid.
    PAIRS = [
        (1, 1),
        (1 + 0.5j, 1 + 1j),
        (3 + 0.5j, 1 + 1j),
        (3.4, 0.8),
        (3.5, 1),
        (3.5 + 0.25j, 1 + 0.5j),
        (3.5 + 0.5j, 1 + 1j),
        (3.7, 1.4),
    ]
    XS = (0.01, 0.1, 1.0, 10.0, 50.0, 120.0)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_fixed_grid_against_hyperu(self, a, b):
        a, b = complex(a), complex(b)
        members = arch._confluent_u_pair(a, b)(np.array(self.XS))
        with mpmath.workdps(30):
            for shift, values in enumerate(members):
                for x, got in zip(self.XS, values):
                    ref = complex(mpmath.hyperu(a + shift, b, x))
                    assert abs(got - ref) <= 1e-10 * abs(ref), (a + shift, b, x)

    @staticmethod
    def complex_sum(a, b, xs):
        """Both members' sums as each term's complex exponential, exponents
        below -745 flushed to zero, and the sums of the terms' moduli."""
        h = 0.05
        n = int(math.ceil(max(4.2, math.log(200.0 / a.real)) / h))
        v = h * np.arange(-n, n + 1)
        log_t = 0.5 * math.pi * np.sinh(v)
        t = np.exp(log_t)
        log_pow = a * log_t + (b - a - 1) * np.log1p(t) + np.log(0.5 * math.pi * np.cosh(v) * h)
        exponent = -np.outer(xs, t) + log_pow[None, :]
        flushed = exponent.real < -745.0
        terms = np.exp(np.where(flushed, -745.0, exponent))
        terms[flushed] = 0.0
        shift = np.exp(log_t - np.log1p(t))
        return (
            (terms.sum(axis=1), (terms * shift).sum(axis=1)),
            (np.abs(terms).sum(axis=1), (np.abs(terms) * shift).sum(axis=1)),
        )

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_real_grid_matches_the_complex_sum(self, a, b):
        a, b = complex(a), complex(b)
        xs = np.array((1e-4, 1e-3, *self.XS))
        members = arch._confluent_u_pair(a, b)(xs)
        sums, moduli = self.complex_sum(a, b, xs)
        eps = np.finfo(float).eps
        for shift, (got, ref, size) in enumerate(zip(members, sums, moduli)):
            scale = arch._reciprocal_gamma(a + shift)
            # rounding only: a few ulps of the sum of the terms' moduli
            miss = np.abs(got - ref * scale) / (eps * size * abs(scale))
            assert miss.max() <= 8, (a + shift, b, xs[miss.argmax()])

    def test_smallest_mellin_arguments_stay_finite_without_warnings(self):
        xs = np.geomspace(2.88e-10, 120.0, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in self.PAIRS:
                for values in arch._confluent_u_pair(complex(a), complex(b))(xs):
                    assert np.all(np.isfinite(values)), (a, b)


class TestMellinWhittaker:
    def test_example_value(self):
        numeric, closed = mellin_whittaker(0.0, 0.0, 0.5)
        assert abs(closed - 2 / math.sqrt(math.pi)) < 1e-12
        assert abs(numeric - closed) <= 1e-8 * abs(closed)

    def test_pure_exponential_case(self):
        # kappa = mu + 1/2 collapses the ratio to a single Gamma value
        mu = 1.5
        sigma = 3.0
        numeric, closed = mellin_whittaker(mu + 0.5, mu, sigma)
        assert abs(closed - gamma_fn(sigma + mu + 0.5)) < 1e-12 * abs(closed)
        assert abs(numeric - closed) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, -0.5, 1.0, 6.0])
    @pytest.mark.parametrize("mu", [0.0, 0.5j])
    @pytest.mark.parametrize("sigma", [1.0, 2.0, 5.0])
    def test_identity_grid(self, kappa, mu, sigma):
        numeric, closed = mellin_whittaker(kappa, mu, sigma)
        if closed == 0:
            # sigma - kappa + 1 hit a Gamma pole: the transform vanishes,
            # and the quadrature must confirm that against the natural
            # scale of the integrand (the Gamma-pair numerator)
            scale = abs(gamma_fn(sigma + mu + 0.5) * gamma_fn(sigma - mu + 0.5))
            assert abs(numeric) <= 1e-8 * scale
        else:
            assert abs(numeric - closed) <= 1e-8 * abs(closed)

    def test_large_mu_convergent_point(self):
        numeric, closed = mellin_whittaker(6.0, 5.5, 6.0)
        assert abs(numeric - closed) <= 1e-8 * abs(closed)

    def test_divergent_sigma_rejected(self):
        with pytest.raises(DomainError):
            mellin_whittaker(0.0, 5.5, 5.0)

    def test_whittaker_evaluated_once_per_round(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arch, "_whittaker_w_route", _counted_routes(calls.append, len))
        mellin_whittaker(6, 0.5j, 5)
        # one call per refinement round and segment, not one per x
        assert 1 <= len(calls) <= 40
        assert max(calls) <= arch._EVAL_CHUNK

    @pytest.mark.parametrize("point", batteries.MELLIN_POINTS, ids=str)
    def test_converges_within_reported_error(self, point, monkeypatch):
        kappa, mu, sigma = (complex(v) for v in point)
        segments = []
        rule = arch._gauss_kronrod_rows

        def recorded(*args):
            segments.extend(rule(*args))
            return segments[-1:]

        monkeypatch.setattr(arch, "_gauss_kronrod_rows", recorded)
        mellin_whittaker(kappa, mu, sigma)
        head, tail = segments
        assert head.abserr <= head.tolerance and tail.abserr <= tail.tolerance
        closed = (
            gamma_fn(sigma + mu + 0.5)
            * gamma_fn(sigma - mu + 0.5)
            * scipy.special.rgamma(sigma - kappa + 1)
        )
        assert abs(head.value + tail.value - closed) <= head.abserr + tail.abserr

    def test_non_convergence_raises_with_segment(self, monkeypatch):
        monkeypatch.setattr(arch, "_whittaker_w_route", _noise_w)
        with pytest.raises(QuadratureError) as info:
            mellin_whittaker(0.0, 0.0, 1.0)
        err = info.value
        assert err.segment == (0.0, 1.0)
        assert err.intervals == 200
        assert err.abserr > err.tolerance


class TestGaussKronrod:
    @pytest.mark.parametrize("k", range(32))
    def test_constants_integrate_monomials_exactly(self, k, monkeypatch):
        # Kronrod is exact to degree 31, Gauss to degree 19, so |K - G|
        # vanishes up to 19 and not beyond
        def f(x):
            return x**k

        (kronrod,), (err,) = arch._g10k21(f, np.array([0.0]), np.array([1.0]))
        assert abs(kronrod[0] - 1 / (k + 1)) <= 1e-14
        monkeypatch.setattr(arch, "_LIMIT", 1)
        if k <= 19:
            assert err[0] <= 1e-14
            (q,) = arch._gauss_kronrod_rows(f, 0.0, 1.0, 1e-14, 0.0, "monomial")
            assert (q.intervals, q.evaluations) == (1, 21)
            assert q.value == kronrod[0]
        else:
            assert err[0] > 1e-13
            with pytest.raises(QuadratureError) as info:
                arch._gauss_kronrod_rows(f, 0.0, 1.0, 1e-14, 0.0, "monomial")
            assert (info.value.intervals, info.value.abserr) == (1, err[0])

    def test_bisects_to_tolerance(self):
        (q,) = arch._gauss_kronrod_rows(np.sqrt, 0.0, 1.0, 1e-12, 1e-11, "sqrt")
        assert q.intervals > 1
        assert q.evaluations == 21 * (2 * q.intervals - 1)
        assert abs(q.value - 2 / 3) <= q.abserr <= q.tolerance

    def test_interval_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(arch, "_LIMIT", 5)
        with pytest.raises(QuadratureError, match="^sqrt did not converge: segment = ") as info:
            arch._gauss_kronrod_rows(np.sqrt, 0.0, 1.0, 1e-15, 0.0, "sqrt")
        err = info.value
        assert (err.segment, err.intervals, err.tolerance) == ((0.0, 1.0), 5, 1e-15)
        assert err.abserr > err.tolerance
        assert list(err.witness) == ["segment", "intervals", "abserr", "tolerance"]

    @pytest.mark.parametrize(
        "height", [1e308, 1e308 + 1e308j, math.nan], ids=["inf", "modulus", "nan"]
    )
    def test_value_that_cannot_be_sized_is_not_converged(self, height):
        # 1e308 over [0, 10] overflows to inf; the complex one has finite
        # parts, but its modulus is past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError) as info:
                arch._gauss_kronrod_rows(lambda x: np.full(x.shape, height), 0.0, 10.0, 0.0, 1e-9, "flat")
        assert info.value.intervals == 1 and math.isnan(info.value.tolerance)

    def test_proportional_rows_split_as_one(self):
        def g(x):
            return np.sqrt(x) * np.cos(3 * x)

        both = arch._gauss_kronrod_rows(
            lambda x: np.stack([g(x), 3.7 * g(x)]), 0.0, 1.0, 0.0, 1e-11, "both"
        )
        for row, f in zip(both, (g, lambda x: 3.7 * g(x))):
            (alone,) = arch._gauss_kronrod_rows(f, 0.0, 1.0, 0.0, 1e-11, "alone")
            assert alone.intervals > 1
            assert (row.intervals, row.evaluations) == (alone.intervals, alone.evaluations)
            # equal to rounding: the products behind them differ in shape
            assert abs(row.value - alone.value) <= 1e-15 * abs(alone.value)

    def test_rows_share_the_intervals_of_the_hardest(self):
        (alone,) = arch._gauss_kronrod_rows(np.sqrt, 0.0, 1.0, 1e-12, 1e-11, "alone")
        square, root = arch._gauss_kronrod_rows(
            lambda x: np.stack([x * x, np.sqrt(x)]), 0.0, 1.0, 1e-12, 1e-11, "both"
        )
        assert root.intervals == square.intervals >= alone.intervals > 1
        assert abs(root.value - 2 / 3) <= root.abserr
        assert abs(square.value - 1 / 3) <= 1e-15

    def test_cap_keeps_the_largest_error_over_tolerance(self, monkeypatch):
        # Both rows want both halves of [0, 1], and the cap allows one more
        # interval.  sqrt(x) has the larger error relative to its value,
        # on [0, 1/2]; the other row's errors are larger in absolute terms.
        # Both rows miss, so the witness names the first: take each first.
        monkeypatch.setattr(arch, "_LIMIT", 3)
        for first in (0, 1):
            def f(x):
                return np.stack([np.sqrt(x), 1e6 * (1 - x) ** 0.75])[[first, 1 - first]]

            with pytest.raises(QuadratureError) as info:
                arch._gauss_kronrod_rows(f, 0.0, 1.0, 0.0, 1e-15, "rows", row=[first, 1 - first])
            _, err = arch._g10k21(f, np.array([0.0, 0.25, 0.5]), np.array([0.25, 0.5, 1.0]))
            assert info.value.row == first and info.value.intervals == 3
            # |Kronrod - Gauss| of the second row cancels to about 3e-5 of its
            # terms, whose last bits depend on how many intervals share the product
            assert info.value.abserr == pytest.approx(err[0].sum(), rel=1e-9)

    def test_only_the_row_that_cannot_be_sized_gets_a_nan_tolerance(self):
        # the first row misses its tolerance too, but the unsized row is named
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureError) as info:
                arch._gauss_kronrod_rows(
                    lambda x: np.stack([np.sqrt(x), np.full(x.shape, 1e308)]),
                    0.0, 10.0, 0.0, 1e-15, "rows", row=[0, 1],
                )
        err = info.value
        assert (err.row, err.intervals) == (1.0, 1) and math.isnan(err.tolerance)
        assert list(err.witness) == ["row", "segment", "intervals", "abserr", "tolerance"]


class TestArchScenario:
    def test_d_classes(self):
        for D in (3, 4, 7, 8, 11, 12):
            ArchScenario(l=12, q_c=0.0, r=1.0, D=D, s=1.0, a_plus=1.0)
        for D in (1, 2, 5, 6, -4, 0):
            with pytest.raises(ValueError):
                ArchScenario(l=12, q_c=0.0, r=1.0, D=D, s=1.0, a_plus=1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ArchScenario(l=11, q_c=0.0, r=1.0, D=4, s=1.0, a_plus=1.0)
        with pytest.raises(ValueError):
            ArchScenario(l=0, q_c=0.0, r=1.0, D=4, s=1.0, a_plus=1.0)

    def test_ir_property(self):
        sc = ArchScenario.discrete_series(l=12, l1=12, q_c=0.0, D=4, s=1.5, a_plus=1.0)
        assert abs(sc.ir - 11) < 1e-14

    def test_principal_series_mapping(self):
        sc = ArchScenario.principal_series(l=12, s1=0.3, s2=0.1, D=3, s=1.0, a_plus=1.0)
        assert abs(sc.q_c - 0.4) < 1e-14
        assert abs(sc.ir - 0.2) < 1e-14


# The closed form's two specializations as printed, the references
# z_inf_closed is compared with below.


def z_inf_closed_ps(l, s1, s2, D, s, a_plus) -> complex:
    """Principal-series specialization, written exactly as printed:

    (a+/2) pi D^(-3s-l/2+(s1+s2)/2) (4 pi)^(-3s+3/2-l+s1+s2)
        Gamma(3s+l-1-s1) Gamma(3s+l-1-s2) / Gamma(3s+(l+1-s1-s2)/2)
    """
    s = complex(s)
    s1 = complex(s1)
    s2 = complex(s2)
    front = (
        (a_plus / 2)
        * math.pi
        * complex(D) ** (-3 * s - l / 2 + (s1 + s2) / 2)
        * (4 * math.pi) ** (-3 * s + 1.5 - l + s1 + s2)
    )
    num = gamma_fn(3 * s + l - 1 - s1) * gamma_fn(3 * s + l - 1 - s2)
    return front * num * _reciprocal_gamma(3 * s + (l + 1 - s1 - s2) / 2)


def z_inf_closed_ds(l, l1, q_c, D, s, a_plus) -> complex:
    """Discrete-series specialization, written exactly as printed:

    (a+/2) pi D^(-3s-l/2+q/2) (4 pi)^(-3s+3/2-l+q)
        Gamma(3s+l-1+(l1-1)/2-q/2) Gamma(3s+l-1-(l1-1)/2-q/2)
            / Gamma(3s+(l+1-q)/2)
    """
    s = complex(s)
    q = complex(q_c)
    front = (
        (a_plus / 2)
        * math.pi
        * complex(D) ** (-3 * s - l / 2 + q / 2)
        * (4 * math.pi) ** (-3 * s + 1.5 - l + q)
    )
    num = gamma_fn(3 * s + l - 1 + (l1 - 1) / 2 - q / 2) * gamma_fn(
        3 * s + l - 1 - (l1 - 1) / 2 - q / 2
    )
    return front * num * _reciprocal_gamma(3 * s + (l + 1 - q) / 2)


class TestZInfClosed:
    def test_regression_value(self):
        # l=12, q=0, ir=11, D=4, s=3/2, a+=1: the Gamma values collapse to
        # factorials, giving (pi/2) 4^(-21/2) (4 pi)^(-15) 20!/10.
        sc = ArchScenario.discrete_series(l=12, l1=12, q_c=0.0, D=4, s=1.5, a_plus=1.0)
        got = z_inf_closed(sc)
        expect = (math.pi / 2) * 4.0**-10.5 * (4 * math.pi) ** -15.0 * math.factorial(20) / 10
        assert abs(got - expect) <= 1e-12 * abs(expect)
        assert abs(got.imag) <= 1e-18

    def test_principal_series_specialization(self):
        rng = random.Random(1201)
        for _ in range(10):
            l = rng.choice([10, 12, 14])
            s1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
            s2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
            s = complex(rng.uniform(0.8, 2.0), rng.uniform(-0.3, 0.3))
            D = rng.choice([3, 4, 7, 8])
            a_plus = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            sc = ArchScenario.principal_series(l, s1, s2, D, s, a_plus)
            general = z_inf_closed(sc)
            special = z_inf_closed_ps(l, s1, s2, D, s, a_plus)
            assert abs(general - special) <= 1e-12 * abs(general)

    def test_discrete_series_specialization(self):
        rng = random.Random(1202)
        for _ in range(10):
            l = rng.choice([10, 12, 14])
            l1 = rng.choice([4, 8, 12, 16])
            q_c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
            s = complex(rng.uniform(0.8, 2.0), rng.uniform(-0.3, 0.3))
            D = rng.choice([3, 4])
            a_plus = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            sc = ArchScenario.discrete_series(l, l1, q_c, D, s, a_plus)
            general = z_inf_closed(sc)
            special = z_inf_closed_ds(l, l1, q_c, D, s, a_plus)
            assert abs(general - special) <= 1e-12 * abs(general)

    def test_convergence_guard(self):
        # a scenario outside convergence cannot be built
        with pytest.raises(DomainError, match="6s"):
            ArchScenario(l=2, q_c=0.0, r=1.0, D=4, s=-1.0, a_plus=1.0)


class TestZInfQuadrature:
    @pytest.mark.parametrize(
        "sc",
        [
            ArchScenario.discrete_series(l=12, l1=12, q_c=0.0, D=4, s=1.5, a_plus=1.0),
            ArchScenario.discrete_series(l=12, l1=8, q_c=0.0, D=3, s=1.25, a_plus=1.0),
            ArchScenario.principal_series(l=12, s1=0.2, s2=-0.2, D=3, s=1.0, a_plus=1.0),
            ArchScenario.principal_series(l=12, s1=0.25j, s2=-0.25j, D=4, s=1.0, a_plus=1.0),
        ],
        ids=["ds-holo", "ds-low-weight", "ps-real", "ps-imag"],
    )
    def test_matches_closed_form(self, sc):
        quad = z_inf_quadrature(sc)
        closed = z_inf_closed(sc)
        assert abs(quad - closed) <= 1e-6 * abs(closed)

    def test_convergence_guard(self):
        # at the boundary Re(6s + l - q_c) = 0 as well, for either route
        with pytest.raises(DomainError, match="6s"):
            ArchScenario(l=2, q_c=2.0, r=1.0, D=4, s=0.0, a_plus=1.0)

    def test_whittaker_evaluated_once_per_node_set(self, monkeypatch):
        # the rows of a lambda-pass share each W call
        calls = []
        lambda_integrals = []
        lambda_integral = arch._lambda_integral

        def counted_integral(sc, us):
            lambda_integrals.extend(us)  # one lambda-integral per u-node
            return lambda_integral(sc, us)

        monkeypatch.setattr(arch, "_whittaker_w_route", _counted_routes(calls.append, np.size))
        monkeypatch.setattr(arch, "_lambda_integral", counted_integral)
        z_inf_quadrature(ArchScenario.principal_series(12, 0.25j, -0.25j, 3, 1, 1))
        assert 1 <= len(calls) < len(lambda_integrals)

    def test_u_integral_non_convergence_raises_with_segment(self, monkeypatch):
        def swinging(sc, us):
            return (1e6 * np.sin(1e6 * us)).astype(complex)

        monkeypatch.setattr(arch, "_lambda_integral", swinging)
        with pytest.raises(QuadratureError) as info:
            z_inf_quadrature(ArchScenario.discrete_series(12, 12, 0, 4, 1.5, 1))
        err = info.value
        # reported in t = 1/u, so the segment stays finite
        assert err.segment == (0.0, 1.0)
        assert err.intervals == 200
        assert err.abserr > err.tolerance
        assert err.witness == {
            "segment": err.segment,
            "intervals": err.intervals,
            "abserr": err.abserr,
            "tolerance": err.tolerance,
        }


def _counted_routes(record, measure):
    """Stand-in for the W route builder: the real route, with ``record``
    given ``measure`` of the arguments of each call."""
    build = arch._whittaker_w_route

    def route(kappa, mu):
        w = build(kappa, mu)

        def counted(xs):
            record(measure(xs))
            return w(xs)

        return counted

    return route


def _noise_w(kappa, mu):
    """Stand-in for a W route whose values alternate in sign from node to
    node."""
    return lambda xs: np.where(np.arange(xs.size) % 2, -1.0, 1.0) * 1e6


def _fresh_lambda_integral(sc, u):
    """The lambda-integral at one u with W evaluated afresh at every level."""
    s, q = complex(sc.s), complex(sc.q_c)
    power = 3 * s - 1.5 + sc.l - q / 2
    scale = 2 * math.pi * math.sqrt(sc.D) * u
    lam_max = (max(power.real + sc.l / 2, 1.0) + 60.0) / (2 * scale)
    nodes0, weights0 = np.polynomial.legendre.leggauss(24)
    previous = None
    for panels in (16, 32, 64, 128):
        edges = np.linspace(0.0, lam_max, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        lam = (mid[:, None] + half[:, None] * nodes0[None, :]).ravel()
        weights = (half[:, None] * weights0[None, :]).ravel()
        w_vals = _whittaker_w_array(sc.l / 2, sc.ir / 2, 2 * scale * lam)
        total = complex(
            np.dot(weights, np.exp((power - 1) * np.log(lam) - scale * lam) * w_vals)
        )
        if previous is not None and abs(total - previous) <= 1e-9 * abs(total):
            return total
        previous = total
    raise AssertionError("reference lambda-integral did not converge")


def _lambda_integral_alone(sc, u):
    """The lambda-integral at one u, as a one-row Gauss-Kronrod rule."""
    power = 3 * complex(sc.s) - 1.5 + sc.l - complex(sc.q_c) / 2
    reach = max(power.real + sc.l / 2, 1.0) + 60.0
    scale = 2 * math.pi * math.sqrt(sc.D) * u
    lam_max = reach / (2 * scale)

    def integrand(x):
        lam = lam_max * x
        w_vals = _whittaker_w_array(sc.l / 2, sc.ir / 2, reach * x)
        return np.exp((power - 1) * np.log(lam) - scale * lam) * w_vals

    (quad,) = arch._gauss_kronrod_rows(integrand, 0.0, 1.0, 0.0, 1e-9, "lambda-integral")
    return lam_max * quad.value


class TestLambdaRule:
    SCENARIOS = [
        ArchScenario.discrete_series(12, 12, 0, 4, 1.5, 1),
        ArchScenario.principal_series(12, 0.25j, -0.25j, 3, 1, 1),
    ]

    @pytest.mark.parametrize("sc", SCENARIOS, ids=["ds", "ps"])
    def test_tabulated_matches_fresh_evaluation(self, sc):
        (got,) = arch._lambda_integral(sc, np.array([2.7]))
        want = _fresh_lambda_integral(sc, 2.7)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "sc", [sc for _, sc in batteries.arch_grid()], ids=[tag for tag, _ in batteries.arch_grid()]
    )
    def test_rows_match_the_rule_one_u_at_a_time(self, sc):
        # the u-nodes of the first round of the u-integral, u = 1/t on (0, 1]
        us = 1.0 / (0.5 + 0.5 * arch._KRONROD_NODES)
        got = arch._lambda_integral(sc, us)
        for u, value in zip(us, got):
            want = _lambda_integral_alone(sc, u)
            assert abs(value - want) <= 1e-15 * abs(want), u

    def test_non_convergence_raises_with_witness(self, monkeypatch):
        monkeypatch.setattr(arch, "_whittaker_w_route", _noise_w)
        with pytest.raises(QuadratureError) as info:
            z_inf_quadrature(self.SCENARIOS[0])
        err = info.value
        assert err.u >= 1.0
        # reported in x = lam / lam_max
        assert err.segment == (0.0, 1.0)
        assert err.intervals == 200
        assert err.abserr > err.tolerance
        assert list(err.witness) == ["u", "segment", "intervals", "abserr", "tolerance"]


def _noise_above_one(kappa, mu):
    """A stand-in for a W route that is 1 up to x = 1, the Mellin head, and
    noise on the tail."""
    noise = _noise_w(kappa, mu)
    return lambda xs: np.where(xs > 1, noise(xs), 1.0)


def _swinging_lambda_integral(sc, us):
    return (1e6 * np.sin(1e6 * us)).astype(complex)


_CAPPED_SCENARIO = ArchScenario.discrete_series(12, 12, 0, 4, 1.5, 1)
_CAPPED_RUNS = {
    "zinf": (
        lambda: z_inf_quadrature(_CAPPED_SCENARIO),
        lambda: batteries._zinf_check(_CAPPED_SCENARIO, batteries.ZINF_TOLERANCE),
    ),
    "mellin": (
        lambda: mellin_whittaker(0.0, 0.0, 1.0),
        lambda: batteries._mellin_check(0.0, 0.0, 1.0),
    ),
}


@pytest.mark.parametrize(
    "stand_in, run, route, where, segment",
    [
        (("_lambda_integral", _swinging_lambda_integral), "zinf", "u-integral in t = 1/u", [], (0.0, 1.0)),
        (("_whittaker_w_route", _noise_w), "zinf", "lambda-integral in x = lam / lam_max", ["u"], (0.0, 1.0)),
        (("_whittaker_w_route", _noise_w), "mellin", "Mellin integral", [], (0.0, 1.0)),
        (("_whittaker_w_route", _noise_above_one), "mellin", "Mellin integral", [], (1.0, 120.0)),
    ],
    ids=["u-integral", "lambda-integral", "mellin-head", "mellin-tail"],
)
def test_each_route_stops_at_the_cap(monkeypatch, stand_in, run, route, where, segment):
    # the battery record carries the rule's witness, keys in the order the
    # table format prints them
    monkeypatch.setattr(arch, "_LIMIT", 6)
    monkeypatch.setattr(arch, *stand_in)
    raising, check = _CAPPED_RUNS[run]
    with pytest.raises(QuadratureError, match=f"^{re.escape(route)} did not converge: ") as info:
        raising()
    ok, witness = check()
    assert not ok and witness == info.value.witness
    assert list(witness) == where + ["segment", "intervals", "abserr", "tolerance"]
    assert (witness["segment"], witness["intervals"]) == (segment, 6)
    assert witness["abserr"] > witness["tolerance"]


class TestWhittakerRoute:
    """An integral builds its W route once, and the route's values on each
    node array are those of a one-shot evaluation there."""

    # Rule-shaped node arrays over (0, 120]: the Mellin head in y = sqrt(x),
    # the tail, and a spread that the lambda-rule's reach * x covers.
    NODES = (
        (0.5 + 0.5 * arch._KRONROD_NODES) ** 2,
        1.0 + 119.0 * (0.5 + 0.5 * arch._KRONROD_NODES),
        np.geomspace(1e-4, 90.0, 37),
    )

    @staticmethod
    def builds(monkeypatch):
        built = []
        build = arch._whittaker_w_route

        def counted(kappa, mu):
            built.append((kappa, mu))
            return build(kappa, mu)

        monkeypatch.setattr(arch, "_whittaker_w_route", counted)
        return built

    def test_each_mellin_integral_builds_one_route(self, monkeypatch):
        built = self.builds(monkeypatch)
        for kappa, mu, sigma in batteries.MELLIN_POINTS:
            built.clear()
            mellin_whittaker(kappa, mu, sigma)
            assert built == [(complex(kappa), complex(mu))], (kappa, mu, sigma)

    def test_each_lambda_integral_builds_at_most_one_route(self, monkeypatch):
        built = self.builds(monkeypatch)
        lambda_integral = arch._lambda_integral
        per_call = []

        def counted_integral(sc, us):
            before = len(built)
            values = lambda_integral(sc, us)
            per_call.append(len(built) - before)
            return values

        monkeypatch.setattr(arch, "_lambda_integral", counted_integral)
        for tag, sc in batteries.arch_grid():
            per_call.clear()
            z_inf_quadrature(sc)
            assert per_call and max(per_call) <= 1, tag
        assert built

    @pytest.mark.parametrize(
        "kappa, mu",
        sorted(
            {(complex(k), complex(m)) for k, m, _ in batteries.MELLIN_POINTS}
            | {(complex(sc.l / 2), sc.ir / 2) for _, sc in batteries.arch_grid()},
            key=str,
        ),
        ids=lambda v: f"{v.real:g}{v.imag:+g}i",
    )
    def test_route_called_again_equals_a_fresh_evaluation(self, kappa, mu):
        w = arch._whittaker_w_route(kappa, mu)
        for xs in self.NODES + self.NODES[::-1]:
            assert np.array_equal(w(xs), _whittaker_w_array(kappa, mu, xs)), xs.min()


class TestC1Coefficient:
    def test_no_shift(self):
        assert c1_coefficient(12, 12, 1.0j, 3.5) == 3.5
        assert c1_coefficient(12, 8, 1.0j, 3.5) == 3.5

    def test_single_step(self):
        l, a1 = 10, 2.0
        r = 0.7 + 0.3j
        ir = 1j * r
        got = c1_coefficient(l, l + 2, r, a1)
        expect = a1 * (ir - l - 1) * (ir + l + 1) / 4
        assert abs(got - expect) <= 1e-14 * abs(expect)

    def test_zero_locations(self):
        # with ir = l2 - 1 the product vanishes exactly when some factor
        # index t equals l2, i.e. when l < l2 <= l1
        l, l1 = 8, 14
        for l2 in range(2, 18, 2):
            r = -1j * (l2 - 1)  # ir = l2 - 1
            value = c1_coefficient(l, l1, r, 1.0)
            if l < l2 <= l1:
                assert abs(value) < 1e-12, l2
            else:
                assert abs(value) > 1e-12, l2

    def test_low_weight_never_vanishes(self):
        # l2 <= l keeps every factor nonzero, whatever the shift length
        l = 12
        for l2 in (2, 6, 12):
            for l1 in (14, 20, 30):
                value = c1_coefficient(l, l1, -1j * (l2 - 1), 1.0)
                assert abs(value) > 1e-10

    def test_long_shift_stops_at_nan_or_zero(self):
        # 5e14 factors: the product is nan once it leaves the float range,
        # and 0 from the factor t = 14 on when ir = 13
        value = c1_coefficient(12, 10**15, 1.0, 1.0)
        assert math.isnan(value.real) and math.isnan(value.imag)
        assert c1_coefficient(12, 10**15, -13j, 1.0) == 0

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            c1_coefficient(11, 13, 1.0, 1.0)
