"""Satake parameters and the two exact local L-factor constructors.

The degree-8 factor is built for the contragredient pair, literally as the
product over the four Satake parameters with everything inverted; the
degree-<=2 factor on the other side comes from the character obtained by
automorphic induction, twisted by the restriction character chi.  Both are
returned as inverse L-factors: polynomials in t = q^(-3s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import Poly, Rational, factor_product, q_half_power, rat
from .localfield import LocalQuadData, SplittingSymbol, uniformizer_values


@dataclass(frozen=True)
class SatakeParams:
    """Unramified principal-series parameters (u0, u1, u2) = (sigma, chi1, chi2) at a uniformizer.

    gamma holds the four Satake values (u1 u2 u0, u1 u0, u0, u2 u0); the
    central character value omega_pi_piF = gamma[0] * gamma[2] equals
    gamma[1] * gamma[3], both being u0^2 u1 u2.
    """

    u0: Rational
    u1: Rational
    u2: Rational
    gamma: tuple = field(init=False, default=None)

    def __post_init__(self):
        if not (self.u0 and self.u1 and self.u2):
            raise ValueError("Satake inputs must be nonzero")
        gamma = (
            self.u1 * self.u2 * self.u0,
            self.u1 * self.u0,
            self.u0,
            self.u2 * self.u0,
        )
        object.__setattr__(self, "gamma", gamma)

    @property
    def omega_pi_piF(self) -> Rational:
        return self.gamma[0] * self.gamma[2]


@dataclass(frozen=True)
class SteinbergData:
    """An unramified-twist-of-Steinberg local datum: the twist value at a
    uniformizer.  Its conductor exponent is 1, as the level is square-free."""

    omega_piF: Rational

    def __post_init__(self):
        if not self.omega_piF:
            raise ValueError("omega_piF must be nonzero")

    @property
    def omega_tau_piF(self) -> Rational:
        """Central character value at the uniformizer."""
        return self.omega_piF * self.omega_piF


def chi_piF_from(sat: SatakeParams, st: SteinbergData) -> Rational:
    """The compensating character on F^x at a uniformizer: (omega_pi * omega_tau)^(-1)."""
    return 1 / (sat.omega_pi_piF * st.omega_tau_piF)


def l8_inverse(sat: SatakeParams, st: SteinbergData, q: int) -> Poly:
    """Degree-8-type inverse L-factor of the contragredient pair, in t = q^(-3s).

    Each linear factor carries the coefficient gamma^(-1) Omega^(-1) q^(-1/2)
    in the variable u = q^(-3s-1/2) = q^(-1/2) t, which in t is the rational
    coefficient gamma^(-1) Omega^(-1) q^(-1).
    """
    return factor_product([1 / (g * st.omega_piF * q) for g in sat.gamma], q)


def l_tau_ai_chi_inverse(
    local: LocalQuadData, chi_piF: Rational, st: SteinbergData
) -> Poly:
    """Inverse L-factor of the induced-character twist, as a polynomial in t.

    Inert: 1 - chi(pi_F) q^(-3) t^2.  Ramified: one linear factor with
    coefficient Lambda(pi_L) (chi Omega)(pi_F) q^(-3/2).  Split: the product
    of the two analogous linear factors.
    """
    if not chi_piF:
        raise ValueError("chi_piF must be nonzero")
    q = local.q
    if local.symbol is SplittingSymbol.INERT:
        return factor_product([chi_piF * rat(1, q**3)], q, power=2)
    scale = q_half_power(q, -3) * (chi_piF * st.omega_piF)
    return factor_product([scale * lam for lam in uniformizer_values(local)], q)
