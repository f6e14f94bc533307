"""Both sides of the local zeta identity at a Steinberg-level prime.

One side sums the degenerate Whittaker data over the surviving double
cosets: Bessel values on the torus rays, newform values on the two
GL(2)-torus shapes, character and absolute-value factors, and the coset
volumes.  The other side is the closed ratio of inverse L-factors times a
rational prefactor.  Both live in exact arithmetic over Q(sqrt(q)) in the
variable t = q^(-3s), so the comparison is coefficient-by-coefficient
equality, not a numeric tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .exact import (
    QuadCoeff,
    Rational,
    RationalFunction,
    TruncatedSeries,
    factor_product,
    q_half_power,
    rat,
    series_of,
)
from .localfield import LocalQuadData, SplittingSymbol
from .satake import SatakeParams, SteinbergData, chi_piF_from, l8_inverse, l_tau_ai_chi_inverse
from .sugano import bessel_values, sugano_polys
from .cosets import volume_V1, volume_V2

#: The unramified factor below is assembled as the unique quotient shape
#: consistent with the global product; the underlying general formula is
#: cited, not restated, by the source theory.
UNRAMIFIED_FACTOR_NOTE = "assembled, not restated"


@dataclass(frozen=True)
class ScenarioData:
    """A full local scenario: splitting data, Satake values, Steinberg twist.

    chi_piF is derived once at construction.  The pairing constraint
    lambda_piF = omega_pi(varpi) is enforced here (it is what ties the
    Bessel character to the central character); everything downstream
    reads the stored pieces without re-deriving, so post-construction
    tampering with a component shows up as a verification failure rather
    than being silently re-normalized.
    """

    local: LocalQuadData
    sat: SatakeParams
    st: SteinbergData
    chi_piF: Rational = field(init=False, default=None)

    def __post_init__(self):
        if self.local.lambda_piF != self.sat.omega_pi_piF:
            raise ValueError(
                "pairing constraint violated: lambda_piF must equal omega_pi(varpi)"
            )
        object.__setattr__(self, "chi_piF", chi_piF_from(self.sat, self.st))

    @property
    def q(self) -> int:
        return self.local.q


def steinberg_whittaker_diag(l: int, st: SteinbergData, q: int) -> Rational:
    """Newform value on diag(varpi^l, 1): Omega(varpi)^l q^(-l), zero for l < 0."""
    if l < 0:
        return rat(0)
    return st.omega_piF**l * rat(1, q**l)


def steinberg_whittaker_al(l: int, st: SteinbergData, q: int) -> Rational:
    """Newform value on antidiag(varpi^l; 1): -Omega(varpi)^l q^(-l-1)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    return -(st.omega_piF**l) * rat(1, q ** (l + 1))


def prefactor(local: LocalQuadData) -> Rational:
    """q(q-1)/((q+1)(q^4-1)) times the splitting correction 1 - (L/p)/q."""
    q = local.q
    return rat(q * (q - 1), (q + 1) * (q**4 - 1)) * (1 - rat(int(local.symbol), q))


def _zero_coeffs(n: int, q: int) -> list:
    return [QuadCoeff.rational(0, q) for _ in range(n + 1)]


_ZERO = rat(0)


def _dot2(x1: Rational, y1: Rational, x2: Rational, y2: Rational) -> Rational:
    """x1*y1 + x2*y2 over one common denominator: one rational normalisation
    instead of three."""
    d1 = x1.denominator * y1.denominator
    d2 = x2.denominator * y2.denominator
    num = x1.numerator * y1.numerator * d2 + x2.numerator * y2.numerator * d1
    return Rational(num, d1 * d2) if num else _ZERO


def z_series_m_positive(sc: ScenarioData, n: int) -> TruncatedSeries:
    """The m > 0 part of the coset sum through order n in t.

    Both coset families at each (l, m) are summed with their own newform
    value and volume.  The Bessel factor B(h(l, m)) is common to the two
    terms, so the volume cancellation V1 = q^(-1) V2 makes every term
    vanish before the Bessel value can matter; it is therefore carried as
    the neutral placeholder 1.  The result must be identically zero, and
    callers assert exactly that.

    The bracket W_diag V1 + W_al V2 of each cell is formed first; the
    character and absolute-value factors multiply in only where it is
    nonzero (an exact zero times anything is zero).
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    q = sc.q
    coeffs = _zero_coeffs(n, q)
    omega_pi = sc.sat.omega_pi_piF
    omega = sc.st.omega_piF
    units = q - 1
    for l in range(0, n - 1):
        w_diag = steinberg_whittaker_diag(l, sc.st, q)
        w_al = steinberg_whittaker_al(l, sc.st, q)
        for m in range(1, (n - l) // 2 + 1):
            bracket = _dot2(
                w_diag, volume_V1(sc.local, l, m), w_al, volume_V2(sc.local, l, m)
            )
            if not bracket:
                continue
            k = 2 * m + l
            char = (1 / omega_pi) ** k * (1 / omega) ** (2 * k) * omega ** (2 * m)
            term = q_half_power(q, -3 * k) * (units * char * bracket)
            coeffs[k] = coeffs[k] + term
    return TruncatedSeries(coeffs, q)


def _z_series_m_zero(sc: ScenarioData, n: int) -> TruncatedSeries:
    """The m = 0 part of the coset sum: every term of z_series_direct but
    the m > 0 families."""
    if n < 0:
        raise ValueError("order must be non-negative")
    q = sc.q
    bessel = bessel_values(sugano_polys(sc.local, sc.sat), n)
    # (1/omega_pi)^l (1/omega)^(2l) q^(-3l/2), advanced one l at a time.
    step = q_half_power(q, -3) * (1 / (sc.sat.omega_pi_piF * sc.st.omega_piF**2))
    char = QuadCoeff.rational(q - 1, q)
    coeffs = []
    for l in range(n + 1):
        scalar = steinberg_whittaker_diag(l, sc.st, q) * volume_V1(sc.local, l, 0)
        coeffs.append(bessel[l] * (char * scalar))
        char = char * step
    return TruncatedSeries(coeffs, q)


def z_series_direct(sc: ScenarioData, n: int) -> TruncatedSeries:
    """The full coset-sum side of the identity, as a series in t = q^(-3s).

    Term by term: Bessel value, unit-torus count q - 1, the absolute-value
    factor |varpi^l|^(3(s+1/2)) = t^l q^(-3l/2), the central-character
    factors, the newform value on diag(varpi^l, 1), and the volume.  The
    m > 0 families are included via z_series_m_positive.
    """
    return _z_series_m_zero(sc, n) + z_series_m_positive(sc, n)


def z_closed_form(sc: ScenarioData) -> RationalFunction:
    """The closed side: prefactor times the ratio of inverse L-factors."""
    q = sc.q
    num = l_tau_ai_chi_inverse(sc.local, sc.chi_piF, sc.st)
    den = l8_inverse(sc.sat, sc.st, q)
    return RationalFunction(num * prefactor(sc.local), den)


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of one exact scenario comparison, with a witness on failure."""

    ok: bool
    order: int
    series_match: bool
    m_positive_vanishes: bool
    first_difference: Optional[int]
    direct_coefficient: Optional[str]
    closed_coefficient: Optional[str]


def verify_theorem1(sc: ScenarioData, n: int = 25) -> Theorem1Report:
    """Compare the direct coset sum against the closed form through order n."""
    partial = z_series_m_positive(sc, n)
    direct = _z_series_m_zero(sc, n) + partial
    closed = series_of(z_closed_form(sc), n)
    vanishes = not any(partial.coefficients)
    idx = direct.first_difference(closed)
    return Theorem1Report(
        ok=(idx is None and vanishes),
        order=n,
        series_match=idx is None,
        m_positive_vanishes=vanishes,
        first_difference=idx,
        direct_coefficient=None if idx is None else str(direct[idx]),
        closed_coefficient=None if idx is None else str(closed[idx]),
    )


def unramified_local_factor(
    local: LocalQuadData, sat: SatakeParams, tau_satake: Tuple[Rational, Rational]
) -> RationalFunction:
    """Local factor at a good prime: L(3s+1/2)/(zeta_p(6s+1) L(3s+1)).

    tau_satake holds the two Satake values of the unramified GL(2) input.
    The numerator multiplies the local zeta inverse (1 - t^2/q) by the
    inverse of the induced-character factor; the denominator is the full
    degree-8 product over both Satake families.  The quotient is the
    shape that makes the global product telescope (assembled, not
    restated; see UNRAMIFIED_FACTOR_NOTE).
    """
    beta1, beta2 = tau_satake
    if not beta1 or not beta2:
        raise ValueError("tau Satake values must be nonzero")
    q = local.q
    chi = 1 / (sat.omega_pi_piF * beta1 * beta2)
    zeta_inv = factor_product([rat(1, q)], q, power=2)

    betas = (beta1, beta2)
    if local.symbol is SplittingSymbol.INERT:
        ai = factor_product([local.lambda_piF * (chi * b) ** 2 / q**2 for b in betas], q, power=2)
    else:
        deltas = [local.lambda_piL]
        if local.symbol is SplittingSymbol.SPLIT:
            deltas.append(local.lambda_piF_over_piL)
        ai = factor_product([d * chi * b * rat(1, q) for b in betas for d in deltas], q)

    half_inv = q_half_power(q, -1)
    den = factor_product([half_inv * (1 / (g * b)) for g in sat.gamma for b in betas], q)
    return RationalFunction(zeta_inv * ai, den)
