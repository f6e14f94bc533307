"""Spherical Bessel values on the diagonal torus rays via Sugano's formula.

For the one-parameter family of torus elements we need, the generating
function of the Bessel values collapses to a ratio H(y)/Q(y) with H of
degree at most 2 and Q the degree-4 product over the Satake values.  Only
that one-variable slice is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Poly, QuadCoeff, RationalFunction, TruncatedSeries, factor_product, q_half_power, rat, series_of
from .localfield import LocalQuadData, SplittingSymbol
from .satake import SatakeParams


@dataclass(frozen=True)
class SuganoPolys:
    """Numerator H and denominator Q of the Bessel generating function."""

    H: Poly
    Q: Poly
    A2: QuadCoeff
    A4: QuadCoeff
    A5: QuadCoeff

    def __post_init__(self):
        if self.H.constant_term != QuadCoeff.rational(1, self.H.q):
            raise ValueError("H(0) must be 1")
        if self.Q.constant_term != QuadCoeff.rational(1, self.Q.q):
            raise ValueError("Q(0) must be 1")
        expected = Poly([1, -self.A5, -(self.A2 * self.A4)], self.H.q)
        if self.H != expected:
            raise ValueError("H must equal 1 - A5 y - A2 A4 y^2")


def sugano_polys(local: LocalQuadData, sat: SatakeParams) -> SuganoPolys:
    """Assemble H and Q for a paired local datum and Satake parameters.

    The caller is responsible for the compatibility of the pairing (the
    value lambda_piF agreeing with the central character); nothing here
    re-checks it, so deliberately inconsistent inputs flow through.
    """
    q = local.q
    qm2 = rat(1, q**2)
    A2 = QuadCoeff.rational(qm2 * local.lambda_piF, q)
    if local.symbol is SplittingSymbol.INERT:
        A4 = QuadCoeff.rational(qm2, q)
        A5 = QuadCoeff.rational(0, q)
    elif local.symbol is SplittingSymbol.RAMIFIED:
        A4 = QuadCoeff.rational(0, q)
        A5 = QuadCoeff.rational(qm2 * local.lambda_piL, q)
    else:
        A4 = QuadCoeff.rational(-qm2, q)
        A5 = QuadCoeff.rational(
            qm2 * (local.lambda_piL + local.lambda_piF_over_piL), q
        )
    H = Poly([1, -A5, -(A2 * A4)], q)
    scale = q_half_power(q, -3)
    Q = factor_product([scale * g for g in sat.gamma], q)
    return SuganoPolys(H=H, Q=Q, A2=A2, A4=A4, A5=A5)


def bessel_values(sp: SuganoPolys, n: int) -> TruncatedSeries:
    """The Bessel values B(h(0,0)), ..., B(h(n,0)) as series coefficients of H/Q."""
    if n < 0:
        raise ValueError("order must be non-negative")
    return series_of(RationalFunction(sp.H, sp.Q), n)
