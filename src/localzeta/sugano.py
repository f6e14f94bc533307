"""Spherical Bessel values on the diagonal torus rays via Sugano's formula.

For the one-parameter family of torus elements we need, the generating
function of the Bessel values collapses to a ratio H(y)/Q(y) with H of
degree at most 2 and Q the degree-4 product over the Satake values.  Only
that one-variable slice is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Poly, RationalFunction, TruncatedSeries, factor_product, q_half_power, rat, series_of
from .localfield import LocalQuadData, uniformizer_values
from .satake import SatakeParams


@dataclass(frozen=True)
class SuganoPolys:
    """Numerator H and denominator Q of the Bessel generating function."""

    H: Poly
    Q: Poly


def sugano_polys(local: LocalQuadData, sat: SatakeParams) -> SuganoPolys:
    """Assemble H and Q for a paired local datum and Satake parameters.

    H = 1 - A5 y - A2 A4 y^2 with A2 = lambda_piF/q^2, A4 = -symbol/q^2 and
    A5 the sum of the uniformizer values over q^2.  The caller is
    responsible for the compatibility of the pairing (the value lambda_piF
    agreeing with the central character); nothing here re-checks it, so
    deliberately inconsistent inputs flow through.
    """
    q = local.q
    qm2 = rat(1, q**2)
    H = Poly([1, -qm2 * sum(uniformizer_values(local)), qm2 * qm2 * local.symbol * local.lambda_piF], q)
    scale = q_half_power(q, -3)
    Q = factor_product([scale * g for g in sat.gamma], q)
    return SuganoPolys(H=H, Q=Q)


def bessel_values(sp: SuganoPolys, n: int) -> TruncatedSeries:
    """The Bessel values B(h(0,0)), ..., B(h(n,0)) as series coefficients of H/Q."""
    if n < 0:
        raise ValueError("order must be non-negative")
    return series_of(RationalFunction(sp.H, sp.Q), n)
