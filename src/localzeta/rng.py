"""Deterministic scenario sampling.

The generator is SplitMix64: a tiny, well-mixed 64-bit stream whose output
is fixed by the algorithm alone, so seeded runs produce byte-identical
scenarios on any platform or interpreter.  Draws are mapped to small
nonzero rationals; each splitting class has its own constructor that
solves the class relations (central-character pairing, the square and
product constraints) so every drawn scenario is admissible by
construction.  The matrix-identity trials of ``cosets`` draw from it too.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .exact import Rational, rat
from .localfield import LocalQuadData, SplittingSymbol
from .satake import SatakeParams, SteinbergData
from .zeta import ScenarioData

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix generator (Steele–Lea–Flood update constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-enough draw in [0, n).  The modulo bias is far below

        anything these small ranges could notice, and keeping the mapping
        to a single division preserves cross-platform reproducibility.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def nonzero_integer(self, lo: int, hi: int) -> int:
        while True:
            value = self.randint(lo, hi)
            if value:
                return value

    def nonzero_rational(self, bound: int = 6, max_den: int = 4) -> Rational:
        return rat(self.nonzero_integer(-bound, bound), self.randint(1, max_den))

    def sign(self) -> int:
        return 1 if self.below(2) else -1


def draw_scenario(rng: SplitMix64, symbol: SplittingSymbol, q: int) -> ScenarioData:
    """One admissible scenario of the requested splitting class at level q."""
    omega_tw = rng.nonzero_rational()
    st = SteinbergData(omega_piF=omega_tw)

    if symbol is SplittingSymbol.RAMIFIED:
        u0 = rng.nonzero_rational()
        u1 = rng.nonzero_rational()
        root = rng.nonzero_rational()
        u2 = root * root / (u0 * u0 * u1)
        sat = SatakeParams(u0, u1, u2)
        local = LocalQuadData(
            p=q,
            symbol=symbol,
            lambda_piF=root * root,
            lambda_piL=rng.sign() * root,
        )
        return ScenarioData(local=local, sat=sat, st=st)

    u0 = rng.nonzero_rational()
    u1 = rng.nonzero_rational()
    u2 = rng.nonzero_rational()
    sat = SatakeParams(u0, u1, u2)
    omega_pi = sat.omega_pi_piF
    if symbol is SplittingSymbol.INERT:
        local = LocalQuadData(p=q, symbol=symbol, lambda_piF=omega_pi)
    else:
        lam_l = rng.nonzero_rational()
        local = LocalQuadData(
            p=q,
            symbol=symbol,
            lambda_piF=omega_pi,
            lambda_piL=lam_l,
            lambda_piF_over_piL=omega_pi / lam_l,
        )
    return ScenarioData(local=local, sat=sat, st=st)


def scenario_stream(
    seed: int, symbol: SplittingSymbol, q: int, count: int
) -> Iterator[ScenarioData]:
    """count scenarios from a fresh SplitMix64 stream keyed to the inputs."""
    rng = SplitMix64(seed ^ (q * 0x9E3779B9) ^ (int(symbol) & 0xFF))
    for _ in range(count):
        yield draw_scenario(rng, symbol, q)
