"""Coset geometry for the paramodular-style congruence subgroup at level p.

Three jobs live here: the Bruhat-cell representatives of the quotient of
the hyperspecial maximal compact by the level subgroup, a finite counting
audit that those representatives are a disjoint cover, and randomized
exact verification of the 4x4 matrix identities that drive the support
classification of the degenerate Whittaker function.  The closed volume
formulas for the surviving double cosets are defined in ``localfield``,
which imports no numpy, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .exact import QuadCoeff, Rational, rat
from .localfield import vol_k_sharp, volume_numerators, volume_V1, volume_V2
from .rng import SplitMix64


# --------------------------------------------------------------------------
# 4x4 matrices over the quadratic etale algebra Q[X]/(X^2 - d), d a nonzero
# integer.  The scalars are exact.QuadCoeff with q = d; when d is a square
# the algebra splits, and inverting a zero divisor raises ZeroDivisionError,
# which the identity trials treat as a degenerate draw.


class EtaleMatrix:
    """A 4x4 matrix over a fixed quadratic etale algebra Q[X]/(X^2 - d)."""

    __slots__ = ("rows", "d")

    def __init__(self, rows: Sequence[Sequence], d: int):
        ints = {}  # one QuadCoeff per distinct int entry, mostly 0 and 1
        coerced = []
        for row in rows:
            if len(row) != 4:
                raise ValueError("rows must have length 4")
            entries = []
            for e in row:
                if isinstance(e, QuadCoeff):
                    if e.q != d:
                        raise ValueError("mixed etale algebras")
                elif type(e) is int:
                    c = ints.get(e)
                    if c is None:
                        c = ints[e] = QuadCoeff(e, 0, d)
                    e = c
                else:
                    e = QuadCoeff(e, 0, d)
                entries.append(e)
            coerced.append(tuple(entries))
        if len(coerced) != 4:
            raise ValueError("need 4 rows")
        object.__setattr__(self, "rows", tuple(coerced))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("EtaleMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        # Schoolbook product over the nonzero terms only (the operands are
        # diagonal, unipotent, Weyl or block matrices); its entries are
        # QuadCoeffs of this d already, so they skip __init__'s coercion.
        if not isinstance(other, EtaleMatrix):
            return NotImplemented
        d = self.d
        if other.d != d:
            raise ValueError("mixed etale algebras")
        zero = QuadCoeff(0, 0, d)
        right = [[(j, e) for j, e in enumerate(row) if e] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [zero] * 4
            for a, terms in zip(row, right):
                if a:
                    for j, e in terms:
                        acc[j] = acc[j] + a * e
            out.append(tuple(acc))
        product = object.__new__(EtaleMatrix)
        object.__setattr__(product, "rows", tuple(out))
        object.__setattr__(product, "d", d)
        return product

    def __eq__(self, other):
        if isinstance(other, EtaleMatrix):
            return self.d == other.d and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.d))

    def __repr__(self):
        return f"EtaleMatrix({[[repr(e) for e in row] for row in self.rows]})"


def ediag(t1, t2, t3, t4, d) -> EtaleMatrix:
    z = 0
    return EtaleMatrix(
        [[t1, z, z, z], [z, t2, z, z], [z, z, t3, z], [z, z, z, t4]], d
    )


def eta_matrix(alpha: QuadCoeff, scale) -> EtaleMatrix:
    """The eta unipotent with alpha scaled by a uniformizer-power marker."""
    d = alpha.q
    a = alpha * scale
    abar = alpha.conjugate() * scale
    return EtaleMatrix(
        [[1, 0, 0, 0], [a, 1, 0, 0], [0, 0, 1, -abar], [0, 0, 0, 1]], d
    )


def lower_unipotent(w, d) -> EtaleMatrix:
    """The L(w) block unipotent appearing in families two and six."""
    return EtaleMatrix(
        [[1, 0, 0, 0], [w, 1, 0, 0], [0, 0, 1, -w], [0, 0, 0, 1]], d
    )


# --------------------------------------------------------------------------
# finite symplectic group data

S1 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
S2 = ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1))
J4 = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def _torus(a1: int, a2: int, p: int):
    i1, i2 = pow(a1, -1, p), pow(a2, -1, p)
    return ((a1, 0, 0, 0), (0, a2, 0, 0), (0, 0, i1, 0), (0, 0, 0, i2))


_WORDS = {
    1: (),
    2: (S1,),
    3: (S2,),
    4: (S1, S2),
    5: (S2, S1),
    6: (S1, S2, S1),
    7: (S2, S1, S2),
    8: (S1, S2, S1, S2),
}


def _family_unipotents(family: int, p: int):
    rng = range(p)
    if family == 1:
        yield ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 2:
        for x in rng:
            yield ((1, 0, 0, 0), (x, 1, 0, 0), (0, 0, 1, -x), (0, 0, 0, 1))
    elif family == 3:
        for x in rng:
            yield ((1, 0, x, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 4:
        for x in rng:
            for y in rng:
                yield ((1, 0, 0, 0), (x, 1, 0, y), (0, 0, 1, -x), (0, 0, 0, 1))
    elif family == 5:
        for x in rng:
            for y in rng:
                yield ((1, 0, x, y), (0, 1, y, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 6:
        for x in rng:
            for y in rng:
                for z in rng:
                    yield (
                        (1, 0, 0, y),
                        (x, 1, y, x * y + z),
                        (0, 0, 1, -x),
                        (0, 0, 0, 1),
                    )
    elif family == 7:
        for x in rng:
            for y in rng:
                for z in rng:
                    yield ((1, 0, x, y), (0, 1, y, z), (0, 0, 1, 0), (0, 0, 0, 1))
    elif family == 8:
        for w in rng:
            for x in rng:
                for y in rng:
                    for z in rng:
                        yield (
                            (1, 0, x, y),
                            (w, 1, w * x + y, w * y + z),
                            (0, 0, 1, -w),
                            (0, 0, 0, 1),
                        )
    else:
        raise ValueError("family must be 1..8")


def bruhat_reps(p: int, families=range(1, 9)) -> np.ndarray:
    """All Bruhat-cell representatives of the level-p quotient, mod p, as one
    batch of torus * unipotent * Weyl word in family, torus, unipotent order.
    Raises ValueError if one of them is not symplectic mod p."""
    if p not in (2, 3):
        raise ValueError("exhaustive representative lists are kept to p in {2, 3}")
    units = range(1, p)
    tori = [_torus(a1, a2, p) for a1 in units for a2 in units]
    reps = np.empty((0, 16), dtype=np.uint8)
    for family in families:
        g = kernels.products(tori, list(_family_unipotents(family, p)), p)
        for s in _WORDS[family]:
            g = kernels.products(g, s, p)
        reps = np.concatenate([reps, g])
    if not kernels.preserves_form(reps, J4, p).all():
        raise ValueError("a representative does not preserve the symplectic form")
    return reps


def expected_rep_count(p: int) -> int:
    return (p - 1) ** 2 * (1 + 2 * p + 2 * p**2 + 2 * p**3 + p**4)


def sp4_order(p: int) -> int:
    return p**4 * (p**2 - 1) * (p**4 - 1)


def count_polynomial_identity() -> bool:
    """(q-1)^2 (1+2q+2q^2+2q^3+q^4) = (q^2-1)(q^4-1) as integer polynomials."""

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
        return out

    lhs = mul(mul([-1, 1], [-1, 1]), [1, 2, 2, 2, 1])
    rhs = mul([-1, 0, 1], [-1, 0, 0, 0, 1])
    return lhs == rhs


# flat indices of the positions (1,2), (3,1), (3,2), (4,1), (4,2), (4,3)
_KSHARP_ZEROS = [1, 8, 9, 12, 13, 14]


def ksharp_mod_p_member(flat, p: int):
    """Membership in the mod-p reduction of the level subgroup.

    The reduction consists of symplectic matrices vanishing at the six
    positions (1,2), (3,1), (3,2), (4,1), (4,2), (4,3) with corner diagonal
    entries 1 and equal nonzero middle diagonal entries.  Takes one flat
    matrix (returns a bool) or an (n, 16) batch (returns a boolean mask).
    """
    m = np.asarray(flat) % p
    mu = m[..., 5]
    member = (
        ~m[..., _KSHARP_ZEROS].any(axis=-1)
        & (m[..., 0] == 1)
        & (m[..., 15] == 1)
        & (mu != 0)
        & (m[..., 10] == mu)
    )
    return member if member.ndim else bool(member)


@dataclass(frozen=True)
class CosetAuditReport:
    p: int
    group_order: int
    subgroup_order: int
    rep_count: int
    subgroup_closed: bool
    pairwise_distinct: bool
    covers_group: bool
    witness: Optional[tuple]

    @property
    def passed(self) -> bool:
        return (
            self.subgroup_closed
            and self.pairwise_distinct
            and self.covers_group
            and self.rep_count == expected_rep_count(self.p)
        )


def ksharp_mod_p(p: int) -> np.ndarray:
    """The mod-p reduction of the level subgroup, code-sorted: the members
    among the p**10 matrices zero at ``_KSHARP_ZEROS`` (free entries in
    flat-index order) that preserve the symplectic form."""
    free = [i for i in range(16) if i not in _KSHARP_ZEROS]
    candidates = np.zeros((p ** len(free), 16), dtype=np.uint8)
    candidates[:, free] = np.indices((p,) * len(free), dtype=np.uint8).reshape(len(free), -1).T
    candidates = candidates[ksharp_mod_p_member(candidates, p)]
    return candidates[kernels.preserves_form(candidates, J4, p)]


def coset_audit(p: int) -> CosetAuditReport:
    """Counting audit that the representatives are a disjoint cover.

    Closes the level subgroup K of ``ksharp_mod_p``, multiplies every
    representative by every element of K, and demands that the products be
    pairwise distinct and as many as |Sp4(F_p)|.  The representatives
    (``bruhat_reps`` checks it) and K are symplectic, so the products lie
    in Sp4(F_p), and that many distinct ones cover it.
    """
    reps = bruhat_reps(p)
    subgroup = ksharp_mod_p(p)
    try:
        kernels.group_closure(subgroup, p, max_size=len(subgroup))
        closed = True
    except RuntimeError:
        closed = False
    distinct, duplicate = kernels.mark_products(reps, subgroup, p)
    return CosetAuditReport(
        p=p,
        group_order=sp4_order(p),
        subgroup_order=len(subgroup),
        rep_count=len(reps),
        subgroup_closed=closed,
        pairwise_distinct=(distinct == len(reps) * len(subgroup) and duplicate is None),
        covers_group=(distinct == sp4_order(p)),
        witness=duplicate,
    )


# --------------------------------------------------------------------------
# randomized exact verification of the support matrix identities


class DegenerateDraw(Exception):
    """A random draw violated a precondition (zero divisor etc.); redraw."""


IDENTITY_NAMES = ("i", "ii", "vi", "m0-equiv", "mpos-equiv")


def _draw_rational(rng, nonzero=False) -> Rational:
    while True:
        v = rat(rng.randint(-9, 9), rng.randint(1, 6))
        if v or not nonzero:
            return v


def _draw_datum(rng):
    """Random (a, b, c, d, alpha) with c invertible and d a nonzero integer.

    The rational discriminant n/m = b^2 - 4ac is carried over to the
    integer algebra by Q[X]/(X^2 - n/m) = Q[X]/(X^2 - nm),
    sqrt(n/m) -> sqrt(nm)/m, so alpha = b/(2c) + sqrt(nm)/(2cm).
    """
    a = _draw_rational(rng)
    b = _draw_rational(rng)
    c = _draw_rational(rng, nonzero=True)
    disc = b * b - 4 * a * c
    if not disc:
        raise DegenerateDraw("square discriminant datum degenerated to d = 0")
    n, m = disc.numerator, disc.denominator
    d = n * m
    alpha = QuadCoeff(b / (2 * c), 1 / (2 * c * m), d)
    return a, b, c, d, alpha


def _etale_weyl(d):
    s1 = EtaleMatrix(S1, d)
    s2 = EtaleMatrix(S2, d)
    return s1, s2


def _pm_marker(rng):
    """A uniformizer-power stand-in: alternate a free positive marker with
    literal small powers varpi^m, m in {0, 1, 2}."""
    if rng.randint(0, 1):
        return rat(rng.randint(1, 9), rng.randint(1, 6))
    varpi = _draw_rational(rng, nonzero=True)
    m = rng.choice((0, 1, 2))
    return varpi**m


def _block_embed(g11, g12, g21, g22, d) -> EtaleMatrix:
    """blockdiag(g, det(g) * transpose-inverse) on rows (1,2) and (3,4)."""
    z = rat(0)
    return EtaleMatrix(
        [
            [g11, g12, z, z],
            [g21, g22, z, z],
            [z, z, g22, -g21],
            [z, z, -g12, g11],
        ],
        d,
    )


def matrix_identity_trial(which: str, rng) -> bool:
    """One randomized exact comparison of the named identity.

    ``rng`` provides ``randint(lo, hi)`` (inclusive) and ``choice(seq)``.
    Raises DegenerateDraw when the sample violates a precondition; the
    caller redraws.  Returns True on exact equality of both sides.
    """
    if which == "i":
        _, _, _, d, alpha = _draw_datum(rng)
        u = _draw_rational(rng, nonzero=True)
        pm = _pm_marker(rng)
        torus = ediag(1, u, 1, 1 / u, d)
        lhs = eta_matrix(alpha, pm) * torus
        rhs = torus * eta_matrix(alpha, pm / u)
        return lhs == rhs

    if which == "ii":
        _, _, _, d, alpha = _draw_datum(rng)
        u = _draw_rational(rng, nonzero=True)
        w = _draw_rational(rng)
        pm = _pm_marker(rng)
        s1, _ = _etale_weyl(d)
        beta = alpha * pm + u * w
        if not beta.norm:
            raise DegenerateDraw("beta not invertible")
        bbar = beta.conjugate()
        r = ediag(1, u, 1, 1 / u, d) * lower_unipotent(w, d) * s1
        lhs = eta_matrix(alpha, pm) * r
        z = rat(0)
        torus = ediag(-u / beta, beta, -bbar / u, 1 / bbar, d)
        upper = EtaleMatrix(
            [
                [1, -beta / u, z, z],
                [z, 1, z, z],
                [z, z, 1, z],
                [z, z, bbar / u, 1],
            ],
            d,
        )
        lower = EtaleMatrix(
            [
                [1, z, z, z],
                [u / beta, 1, z, z],
                [z, z, 1, -(u / bbar)],
                [z, z, z, 1],
            ],
            d,
        )
        return lhs == torus * upper * lower

    if which == "vi":
        _, _, _, d, alpha = _draw_datum(rng)
        u = _draw_rational(rng, nonzero=True)
        w = _draw_rational(rng)
        pm = _pm_marker(rng)
        s1, s2 = _etale_weyl(d)
        beta = alpha * pm + u * w
        bbar = beta.conjugate()
        r = ediag(1, u, 1, 1 / u, d) * lower_unipotent(w, d) * s1 * s2 * s1
        lhs = eta_matrix(alpha, pm) * r
        z = rat(0)
        left = EtaleMatrix(
            [[1, z, z, z], [z, z, z, u], [z, z, 1, z], [z, -(1 / u), z, z]], d
        )
        right = EtaleMatrix(
            [
                [1, z, z, z],
                [z, 1, z, z],
                [z, bbar / u, 1, z],
                [beta / u, z, z, 1],
            ],
            d,
        )
        return lhs == left * right

    if which in ("m0-equiv", "mpos-equiv"):
        a, b, c, d, _ = _draw_datum(rng)
        u = _draw_rational(rng, nonzero=True)
        w = _draw_rational(rng, nonzero=True)
        varpi = _draw_rational(rng, nonzero=True)
        l = rng.choice((0, 1, 2))
        if which == "m0-equiv":
            m = 0
            v = a + b * (u * w) + c * (u * w) ** 2
            if not v:
                raise DegenerateDraw("v = a + b(uw) + c(uw)^2 vanished")
            y = -u / v
            x = -(u / v) * (c * w * u + b / 2)
            corner = [
                [1, 0, 0, 0],
                [-u * (b + c * u * w) / v, c * u * u / v, 0, 0],
                [0, 0, c * u * u / v, u * (b + c * u * w) / v],
                [0, 0, 0, 1],
            ]
        else:
            m = rng.choice((1, 2))
            pm = varpi**m
            x = b * pm / (2 * c * w * w * u) - 1 / w
            y = -pm / (c * w * w * u)
            top = 1 + pm * pm * a / (c * w * w * u * u)
            off = b * pm / (c * w * w * u)
            corner = [
                [top, -off, 0, 0],
                [-1 / w, 1 / (w * w), 0, 0],
                [0, 0, 1 / (w * w), 1 / w],
                [0, 0, off, top],
            ]
        g11 = x + y * b / 2
        g12 = y * c
        g21 = -y * a
        g22 = x - y * b / 2
        h = ediag(varpi ** (2 * m + l), varpi ** (m + l), 1, varpi**m, d)
        h_inv = ediag(
            varpi ** -(2 * m + l), varpi ** -(m + l), 1, varpi**-m, d
        )
        lhs = (
            h_inv
            * _block_embed(g11, g12, g21, g22, d)
            * h
            * ediag(1, -u, 1, -(1 / u), d)
        )
        s1, _ = _etale_weyl(d)
        rhs = (
            ediag(1, u, 1, 1 / u, d)
            * lower_unipotent(w, d)
            * s1
            * EtaleMatrix(corner, d)
        )
        return lhs == rhs

    raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITY_NAMES}")


def verify_matrix_identity(which: str, trials: int = 50, seed: int = 20260816) -> bool:
    """Randomized exact check of one matrix identity over >= `trials` draws
    from SplitMix64 seeded with seed XOR ((k + 1) * 0x9E3779B97F4A7C15)
    mod 2^64, where k is the identity's position in IDENTITY_NAMES."""
    if which not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITY_NAMES}")
    rng = SplitMix64(seed ^ ((IDENTITY_NAMES.index(which) + 1) * 0x9E3779B97F4A7C15))
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 40 * trials:
            raise RuntimeError("too many degenerate draws; check the sampler")
        try:
            if not matrix_identity_trial(which, rng):
                return False
        except DegenerateDraw:
            continue
        done += 1
    return True


# --------------------------------------------------------------------------
# support classification

_FAMILIES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


def support_classify(family: str, m: int, beta_class: Optional[str] = None) -> bool:
    """Whether a double coset from the given family meets the support.

    Families iii, iv, v, vii, viii never do (coefficient obstructions);
    family i always does; family ii exactly when beta is a unit; family vi
    exactly when beta has positive valuation, which cannot happen at m = 0.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if family in ("ii", "vi"):
        if beta_class not in ("unit", "in_P", "other"):
            raise ValueError("families ii and vi need beta_class")
    elif beta_class is not None:
        raise ValueError("beta_class is meaningful only for families ii and vi")
    if family == "i":
        return True
    if family == "ii":
        return beta_class == "unit"
    if family == "vi":
        return m > 0 and beta_class == "in_P"
    return False
