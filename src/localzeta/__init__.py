"""Exact-arithmetic verification engine for local zeta-integral identities.

The package independently computes both sides of a family of local
identities (a non-archimedean closed form for a Bessel-model zeta
integral, an archimedean Gamma-product evaluation) and assembles the
corresponding global quantities, checking every closed form against an
oracle: formal series against rational functions, the coset
representatives' distinct keys times the level subgroup's order against
the order of Sp4(F_p), numerical quadrature against Gamma products.
"""

from __future__ import annotations

__version__ = "0.1.0"
