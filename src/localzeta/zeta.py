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
from typing import Iterator, Optional, Tuple

from .exact import (
    Rational, RationalFunction, TruncatedSeries, _reduced, factor_product, q_half_power, rat, series_terms,
    terms_equal,
)
from .localfield import LocalQuadData, SplittingSymbol, uniformizer_values, volume_numerators
from .satake import SatakeParams, SteinbergData, chi_piF_from, l8_inverse, l_tau_ai_chi_inverse
from .sugano import sugano_polys

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


def prefactor(local: LocalQuadData) -> Rational:
    """q(q-1)/((q+1)(q^4-1)) times the splitting correction 1 - (L/p)/q."""
    q = local.q
    return rat(q * (q - 1), (q + 1) * (q**4 - 1)) * (1 - rat(int(local.symbol), q))


def _nonzero_brackets(sc: ScenarioData, n: int) -> Iterator[Tuple[int, int, Rational]]:
    """(l, m, W_diag V1 + W_al V2) for each walked cell, in loop order, whose
    bracket is non-zero.

    Row l <= n - 2 has the cells 1 <= m <= (n - l)/2, newform values
    W_diag = Omega(varpi)^l q^(-l) = p/r and W_al = -Omega(varpi)^l q^(-l-1)
    = pa/ra as running integers, and volumes V1 = n1/den, V2 = n2/den from
    localfield.volume_numerators.  The premise: both volumes and both newform
    values are geometric in m, so the bracket is c1 r1^m + c2 r2^m.  If it
    vanishes at m = 1 and m = 2 it vanishes at every m; if not, its first
    non-zero cell is at m = 1 or 2.  So a row walks m = 1 and 2 only, or
    m = 1 if that is its one cell.  Over r ra den the bracket is the integer
    p ra n1 + pa r n2, made a Rational only when non-zero.
    """
    q, omega = sc.q, sc.st.omega_piF
    p, r = 1, 1  # W_diag = p/r
    pa, ra = -1, q  # W_al = pa/ra
    for l in range(0, n - 1):
        a, b = p * ra, pa * r
        for m in range(1, min((n - l) // 2, 2) + 1):
            n1, n2, v_den = volume_numerators(sc.local, l, m)
            x = a * n1 + b * n2
            if x:
                yield l, m, Rational(x, r * ra * v_den)
        p, r = p * omega.numerator, r * omega.denominator * q
        pa, ra = pa * omega.numerator, ra * omega.denominator * q


def _add_terms(x: Tuple[int, int, int], y: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """The sum of two unreduced triples (A, B, D), over D1 D2."""
    return x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2]


def _m_positive_terms(sc: ScenarioData, n: int) -> Tuple[Optional[Tuple[int, int]], list]:
    """The m > 0 part of the coset sum through order n in t, from the cells
    that _nonzero_brackets walks (m = 1 and 2 of each row, which decide it
    under its premise): the first (l, m) whose bracket is non-zero, or None,
    and the n + 1 coefficients as unreduced triples (A, B, D).

    Both coset families at each (l, m) are summed with their own newform
    value and volume.  The Bessel factor B(h(l, m)) is common to the two
    terms, so the volume cancellation V2 = q V1, between two stated
    formulas, makes every term vanish before the Bessel value can matter;
    it is therefore carried as the neutral placeholder 1.  The sum must be
    identically zero, and verify_theorem1 checks exactly that.

    A non-zero bracket enters coefficient k = 2m + l as the rational
    (q - 1) char bracket times q^(-3k/2), whose sqrt(q), for an odd k, goes
    into B; the character factors multiply in only there.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    q = sc.q
    omega_pi = sc.sat.omega_pi_piF
    omega = sc.st.omega_piF
    terms = [(0, 0, 1)] * (n + 1)
    cell = None
    for l, m, bracket in _nonzero_brackets(sc, n):
        cell = cell or (l, m)
        k = 2 * m + l
        x = (q - 1) * (1 / omega_pi) ** k * (1 / omega) ** (2 * k) * omega ** (2 * m) * bracket
        d = x.denominator * q ** ((3 * k + 1) // 2)
        terms[k] = _add_terms(terms[k], (0, x.numerator, d) if k % 2 else (x.numerator, 0, d))
    return cell, terms


def z_series_m_positive(sc: ScenarioData, n: int) -> TruncatedSeries:
    """The m > 0 part of the coset sum, each term of _m_positive_terms reduced."""
    return TruncatedSeries([_reduced(*t, sc.q) for t in _m_positive_terms(sc, n)[1]], sc.q)


def _m_zero_terms(sc: ScenarioData, n: int) -> Iterator[Tuple[int, int, int]]:
    """The m = 0 part of the coset sum, every term of z_series_direct but
    the m > 0 families, as unreduced triples (A, B, D) = (A + B sqrt(q))/D.

    Term l is the Bessel triple of exact.series_terms(H/Q) times the
    character factor (q - 1) (sqrt(q)/(omega_pi Omega^2 q^2))^l times
    W_diag(l) V1(l, 0) = (Omega/q)^l n1/den.  The rational steps run as one
    integer fraction c/d, sqrt(q)^l puts q^(l // 2) into c, and an odd l
    swaps (A, B) to (B q, A).  series_terms rejects a negative order, and
    _direct_terms adds the m > 0 triples in."""
    q = sc.q
    sp = sugano_polys(sc.local, sc.sat)
    step = 1 / (sc.sat.omega_pi_piF * sc.st.omega_piF**2 * q**2) * (sc.st.omega_piF / q)
    c, d = q - 1, 1
    for l, (A, B, D) in enumerate(series_terms(RationalFunction(sp.H, sp.Q), n)):
        n1, _, v_den = volume_numerators(sc.local, l, 0)
        f = c * n1
        A, B, D = A * f, B * f, D * d * v_den
        yield (B * q, A, D) if l % 2 else (A, B, D)
        c, d = c * step.numerator * (q if l % 2 else 1), d * step.denominator


def _direct_terms(sc: ScenarioData, n: int) -> Tuple[bool, Optional[Tuple[int, int]], list]:
    """(whether the m > 0 sum vanishes, its first non-zero cell if it does
    not, the direct side's n + 1 unreduced triples).  The m > 0 triples are
    added into the m = 0 ones only when they do not vanish."""
    cell, partial = _m_positive_terms(sc, n)
    direct = list(_m_zero_terms(sc, n))
    if not any(A or B for A, B, _ in partial):
        return True, None, direct
    return False, cell, [_add_terms(x, y) for x, y in zip(direct, partial)]


def z_series_direct(sc: ScenarioData, n: int) -> TruncatedSeries:
    """The full coset-sum side of the identity, as a series in t = q^(-3s).

    Term by term: Bessel value, unit-torus count q - 1, the absolute-value
    factor |varpi^l|^(3(s+1/2)) = t^l q^(-3l/2), the central-character
    factors, the newform value on diag(varpi^l, 1), and the volume, with
    the m > 0 families: each triple of _direct_terms reduced.
    """
    return TruncatedSeries([_reduced(*t, sc.q) for t in _direct_terms(sc, n)[2]], sc.q)


def z_closed_form(sc: ScenarioData) -> RationalFunction:
    """The closed side: prefactor times the ratio of inverse L-factors."""
    q = sc.q
    num = l_tau_ai_chi_inverse(sc.local, sc.chi_piF, sc.st)
    den = l8_inverse(sc.sat, sc.st, q)
    return RationalFunction(num * prefactor(sc.local), den)


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of one exact scenario comparison, with a witness on failure.

    first_nonzero_cell is the first (l, m), in loop order, whose bracket
    W_diag V1 + W_al V2 is non-zero, from the same walk as the m > 0 sum.
    It is None when that sum vanishes.
    """

    ok: bool
    order: int
    series_match: bool
    m_positive_vanishes: bool
    first_difference: Optional[int]
    direct_coefficient: Optional[str]
    closed_coefficient: Optional[str]
    first_nonzero_cell: Optional[Tuple[int, int]]


def verify_theorem1(sc: ScenarioData, n: int = 25) -> Theorem1Report:
    """Compare the direct coset sum against the closed form through order n.

    Both sides are unreduced triples (A + B sqrt(q))/D, from _direct_terms
    and series_terms, compared by cross-multiplication (terms_equal); only
    the two at the first difference are reduced, for the witness.  The m > 0
    sum must vanish; its one walk also gives the witness cell."""
    vanishes, cell, direct = _direct_terms(sc, n)
    closed = series_terms(z_closed_form(sc), n)
    idx = next((k for k, (x, y) in enumerate(zip(direct, closed)) if not terms_equal(x, y)), None)
    return Theorem1Report(
        ok=(idx is None and vanishes),
        order=n,
        series_match=idx is None,
        m_positive_vanishes=vanishes,
        first_difference=idx,
        direct_coefficient=None if idx is None else str(_reduced(*direct[idx], sc.q)),
        closed_coefficient=None if idx is None else str(_reduced(*closed[idx], sc.q)),
        first_nonzero_cell=cell,
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
        deltas = uniformizer_values(local)
        ai = factor_product([d * chi * b * rat(1, q) for b in betas for d in deltas], q)

    half_inv = q_half_power(q, -1)
    den = factor_product([half_inv * (1 / (g * b)) for g in sat.gamma for b in betas], q)
    return RationalFunction(zeta_inv * ai, den)
