"""Coset geometry for the paramodular-style congruence subgroup at level p.

Three jobs live here: the Bruhat-cell representatives of the quotient of
the hyperspecial maximal compact by the level subgroup, a finite key
audit that they are a disjoint cover, and randomized verification over a
prime field of the 4x4 matrix identities that drive the support
classification of the degenerate Whittaker function.  The volume formulas
of the surviving double cosets live in ``localfield`` (no numpy) and are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Optional

import numpy as np

from . import kernels
from .localfield import vol_k_sharp, volume_V1, volume_V2
from .rng import SplitMix64


# --------------------------------------------------------------------------
# finite symplectic group data

S1 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
S2 = ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1))
J4 = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def _torus(a1: int, a2: int, p: int):
    i1, i2 = pow(a1, -1, p), pow(a2, -1, p)
    return ((a1, 0, 0, 0), (0, a2, 0, 0), (0, 0, i1, 0), (0, 0, 0, i2))


def _unipotent(w, x, y, z):
    """L(w)*U(x, y, z): the Siegel Levi's lower root group, I + w(E21 - E34),
    times the abelian radical, [[x, y], [y, z]] in the upper right block.
    The entries may be ints or ``Batch`` elements."""
    return ((1, 0, x, y), (w, 1, w * x + y, w * y + z), (0, 0, 1, -w), (0, 0, 0, 1))


# family: (Weyl word, free coordinates of L(w)*U(x, y, z), the others 0)
_CELLS = {
    1: ((), ""),
    2: ((S1,), "w"),
    3: ((S2,), "x"),
    4: ((S1, S2), "wz"),
    5: ((S2, S1), "xy"),
    6: ((S1, S2, S1), "wyz"),
    7: ((S2, S1, S2), "xyz"),
    8: ((S1, S2, S1, S2), "wxyz"),
}


def _unipotents(free: str, p: int) -> list:
    """``_unipotent`` at each value mod p of the free coordinates, w outermost."""
    ranges = (range(p) if name in free else (0,) for name in "wxyz")
    return [_unipotent(*coords) for coords in product(*ranges)]


def bruhat_reps(p: int) -> np.ndarray:
    """All Bruhat-cell representatives of the level-p quotient, mod p, as one
    batch of torus * unipotent * Weyl word in family, torus, unipotent order.
    Raises ValueError if one of them is not symplectic mod p."""
    if p not in (2, 3):
        raise ValueError("exhaustive representative lists are kept to p in {2, 3}")
    units = range(1, p)
    tori = [_torus(a1, a2, p) for a1 in units for a2 in units]
    cells = []
    for word, free in _CELLS.values():
        g = kernels.products(tori, _unipotents(free, p), p)
        for s in word:
            g = kernels.products(g, s, p)
        cells.append(g)
    reps = np.concatenate(cells)
    if not kernels.preserves_form(reps, J4, p).all():
        raise ValueError("a representative does not preserve the symplectic form")
    return reps


def expected_rep_count(p: int) -> int:
    return (p - 1) ** 2 * (1 + 2 * p + 2 * p**2 + 2 * p**3 + p**4)


def sp4_order(p: int) -> int:
    return p**4 * (p**2 - 1) * (p**4 - 1)


def count_polynomial_identity() -> bool:
    """(q-1)^2 (1+2q+2q^2+2q^3+q^4) = (q^2-1)(q^4-1) as integer polynomials."""
    lhs = np.convolve(np.convolve([-1, 1], [-1, 1]), [1, 2, 2, 2, 1])
    rhs = np.convolve([-1, 0, 1], [-1, 0, 0, 0, 1])
    return lhs.tolist() == rhs.tolist()


# flat indices of the positions (1,2), (3,1), (3,2), (4,1), (4,2), (4,3)
_KSHARP_ZEROS = [1, 8, 9, 12, 13, 14]


def ksharp_mod_p_member(flat, p: int):
    """Membership in the mod-p reduction of the level subgroup.

    The reduction consists of symplectic matrices vanishing at the six
    positions (1,2), (3,1), (3,2), (4,1), (4,2), (4,3) with corner diagonal
    entries 1 and equal nonzero middle diagonal entries mu; with the form,
    mu is forced to 1.  Takes one flat matrix (returns a bool) or an
    (n, 16) batch (returns a boolean mask).
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
    positions: Optional[tuple]  # (i, j): the first two representatives sharing a key
    families: Optional[tuple]  # the family of each of them

    @property
    def passed(self) -> bool:
        return (
            self.subgroup_closed
            and self.pairwise_distinct
            and self.covers_group
            and self.rep_count == expected_rep_count(self.p)
        )


def ksharp_mod_p(p: int) -> np.ndarray:
    """The mod-p reduction of the level subgroup, code-sorted: the closure,
    of order p**4, of L(w)*U(x, y, z) at the four unit vectors (w, x, y, z),
    which is the unipotent part of family 8 as a set."""
    gens = [_unipotent(*unit) for unit in np.eye(4, dtype=np.int64).tolist()]
    return kernels.group_closure(gens, p, max_size=p**4)


def coset_keys(mats, p: int) -> np.ndarray:
    """One int64 key per matrix g: column 2 of g and the six Plücker
    coordinates of columns 1 and 2, g e2 and g e1 ^ g e2 mod p, packed by
    ``kernels._codes``.  Every k in the level subgroup K has column 2 e2
    and column 1 e1 + c e2, so the key is constant on each coset gK."""
    g = kernels._batch(mats, p).astype(np.int16).reshape(-1, 4, 4)
    a, b = g[:, :, 0], g[:, :, 1]
    i, j = np.triu_indices(4, 1)
    plucker = (a[:, i] * b[:, j] - a[:, j] * b[:, i]) % p
    return kernels._codes(np.concatenate([b, plucker], axis=1), p)


def coset_audit(p: int) -> CosetAuditReport:
    """Key audit that the representatives are a disjoint cover.

    Every element of the level subgroup K of ``ksharp_mod_p`` must be a
    symplectic member with the identity's key (``coset_keys``), so that
    representatives with pairwise distinct keys have pairwise disjoint
    translates rK of |K| symplectic matrices; |Sp4(F_p)| / |K| of them
    cover Sp4(F_p).  The witness is the first representative whose key
    an earlier one has, at positions (i, j) of ``bruhat_reps`` in families
    read off the cells' sizes (p - 1)**2 * p**len(free), or None past them.
    """
    reps = bruhat_reps(p)
    subgroup = ksharp_mod_p(p)
    closed = bool(
        (ksharp_mod_p_member(subgroup, p) & kernels.preserves_form(subgroup, J4, p)).all()
        and (coset_keys(subgroup, p) == coset_keys(kernels.IDENTITY, p)).all()
    )
    keys = coset_keys(reps, p)
    repeated = np.setdiff1d(np.arange(len(keys)), np.unique(keys, return_index=True)[1])
    positions = families = None
    if len(repeated):
        positions = (int(np.argmax(keys == keys[repeated[0]])), int(repeated[0]))
        ends = np.cumsum([(p - 1) ** 2 * p ** len(free) for _, free in _CELLS.values()])
        families = tuple((*_CELLS, None)[k] for k in np.searchsorted(ends, positions, "right"))
    return CosetAuditReport(
        p=p,
        group_order=sp4_order(p),
        subgroup_order=len(subgroup),
        rep_count=len(reps),
        subgroup_closed=closed,
        pairwise_distinct=not len(repeated),
        covers_group=((len(reps) - len(repeated)) * len(subgroup) == sp4_order(p)),
        witness=tuple(reps[repeated[0]].tolist()) if len(repeated) else None,
        positions=positions,
        families=families,
    )


# --------------------------------------------------------------------------
# randomized verification of the support matrix identities over F_p
#
# Each identity equates two 4x4 matrices whose entries are rational functions
# of the draws over Q[X]/(X^2 - d), d = b^2 - 4ac.  Cleared of denominators
# it is a polynomial identity, so it holds in F_P[X]/(X^2 - d) wherever the
# denominators are units mod P.  A chunk of trials runs at once: an algebra
# element is a pair of int64 arrays over the chunk, and a 4x4 matrix a pair
# of (n, 4, 4) uint64 arrays.

IDENTITY_NAMES = ("i", "ii", "vi", "m0-equiv", "mpos-equiv")

P = 2**31 - 1  # prime; residues lie below 2^31, so any product of two is below 2^62
CHUNK = 512  # attempts drawn and evaluated together, which bounds the memory
# What each identity is computed from, in draw order, d last: an attempt
# draws these names but d, and a failing trial's witness names them all.
# sqrt(d) stands for a, b and c.  No l: the varpi^l of h(l, m) is a scalar
# on the conjugated upper block, so it cancels, and at m = 0 h(l, 0) changes
# nothing, so m0-equiv reads no varpi either.
IDENTITY_READS = {
    "i": ("a", "b", "c", "u", "pm", "d"),
    "ii": ("a", "b", "c", "u", "w", "pm", "d"),
    "vi": ("a", "b", "c", "u", "w", "pm", "d"),
    "m0-equiv": ("a", "b", "c", "u", "w", "d"),
    "mpos-equiv": ("a", "b", "c", "u", "w", "varpi", "m", "d"),
}


def _inverse_mod_p(x):
    """x^(P - 2) elementwise: the inverse mod P by Fermat, and 0 at 0."""
    out, e = np.ones_like(x), P - 2
    while e:
        if e & 1:
            out = out * x % P
        x, e = x * x % P, e >> 1
    return out


class Batch:
    """x0 + x1*X in F_P[X]/(X^2 - d), one element per trial: x0, x1 and d
    are int64 arrays over the trials (or ints) of residues in [0, P)."""

    __slots__ = ("x0", "x1", "d")

    def __init__(self, x0, x1, d):
        self.x0, self.x1, self.d = x0, x1, d

    def _lift(self, other) -> "Batch":
        return other if isinstance(other, Batch) else Batch(other % P, 0, self.d)

    def __add__(self, other):
        other = self._lift(other)
        return Batch((self.x0 + other.x0) % P, (self.x1 + other.x1) % P, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Batch(-self.x0 % P, -self.x1 % P, self.d)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        other = self._lift(other)
        x0, x1, y0, y1 = self.x0, self.x1, other.x0, other.x1
        return Batch(
            (x0 * y0 % P + self.d * x1 % P * y1 % P) % P,
            (x0 * y1 % P + x1 * y0 % P) % P,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Batch":
        return Batch(self.x0, -self.x1 % P, self.d)

    @property
    def norm(self):
        return (self.x0 * self.x0 % P - self.d * self.x1 % P * self.x1 % P) % P

    def inverse(self) -> "Batch":
        """The inverse where the norm is a unit, and 0 where it is not."""
        return self.conjugate() * _inverse_mod_p(self.norm)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()


class MatrixBatch:
    """One 4x4 matrix over F_P[X]/(X^2 - d) per trial: x0 and x1 are
    (n, 4, 4) uint64 arrays of residues and d the trials' d as (n, 1, 1)."""

    __slots__ = ("x0", "x1", "d")

    def __init__(self, x0, x1, d):
        self.x0, self.x1, self.d = x0, x1, d

    def __mul__(self, other):
        # a sum of four products below 2^62 stays below 2^64
        dx1 = self.x1 * self.d % P
        return MatrixBatch(
            (self.x0 @ other.x0 % P + dx1 @ other.x1 % P) % P,
            (self.x0 @ other.x1 % P + self.x1 @ other.x0 % P) % P,
            self.d,
        )


def matrix(rows, d) -> MatrixBatch:
    """The matrix with the given rows of Batch or int entries, at every trial."""
    x0 = np.zeros((len(d), 4, 4), dtype=np.uint64)
    x1 = np.zeros_like(x0)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if isinstance(e, Batch):
                x0[:, i, j], x1[:, i, j] = e.x0, e.x1
            else:
                x0[:, i, j] = e % P
    return MatrixBatch(x0, x1, d.astype(np.uint64).reshape(-1, 1, 1))


def ediag(t1, t2, t3, t4, d) -> MatrixBatch:
    z = 0
    return matrix([[t1, z, z, z], [z, t2, z, z], [z, z, t3, z], [z, z, z, t4]], d)


def eta_matrix(alpha: Batch, scale) -> MatrixBatch:
    """The eta unipotent with alpha scaled by a uniformizer-power marker."""
    a = alpha * scale
    abar = alpha.conjugate() * scale
    return matrix([[1, 0, 0, 0], [a, 1, 0, 0], [0, 0, 1, -abar], [0, 0, 0, 1]], alpha.d)


def _block_embed(g11, g12, g21, g22, d) -> MatrixBatch:
    """blockdiag(g, det(g) * transpose-inverse) on rows (1,2) and (3,4)."""
    z = 0
    return matrix(
        [[g11, g12, z, z], [g21, g22, z, z], [z, z, g22, -g21], [z, z, -g12, g11]], d
    )


def draw_residues(rng: SplitMix64, which: str, n: int) -> Dict[str, np.ndarray]:
    """The draws of n attempts at the named identity as int64 arrays keyed
    by name.  Each attempt draws the names of IDENTITY_READS[which] but d,
    in order, each with ``below(P)`` but m = 1 + below(2); d = b^2 - 4ac
    mod P is derived."""
    names = [name for name in IDENTITY_READS[which] if name != "d"]
    draws = [[1 + rng.below(2) if name == "m" else rng.below(P) for name in names] for _ in range(n)]
    r = dict(zip(names, np.array(draws, dtype=np.int64).T))
    r["d"] = (r["b"] * r["b"] % P - 4 * (r["a"] * r["c"] % P)) % P
    return r


def identity_sides(which: str, draws: Dict[str, np.ndarray]):
    """(lhs, rhs, valid) of the named identity at each attempt of
    ``draws``, which hold the names of IDENTITY_READS[which]: valid marks
    the attempts where d and the drawn ones of c, u, w and varpi, and beta
    (ii) or v (m0-equiv), are units, and only those are trials."""
    d = draws["d"]
    valid = d != 0
    for name in ("c", "u", "w", "varpi"):
        if name in draws:
            valid &= draws[name] != 0
    a, b, c, u = (Batch(draws[name], 0, d) for name in "abcu")
    alpha = Batch(draws["b"], 1, d) / (2 * c)
    torus = ediag(1, u, 1, 1 / u, d)

    if which == "i":
        pm = Batch(draws["pm"], 0, d)
        lhs = eta_matrix(alpha, pm) * torus
        rhs = torus * eta_matrix(alpha, pm / u)
        return lhs, rhs, valid
    if which not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITY_NAMES}")

    # the other four start from torus * L(w) * S1
    w = Batch(draws["w"], 0, d)
    s1 = matrix(S1, d)
    head = torus * matrix(_unipotent(w, 0, 0, 0), d) * s1
    z = 0

    if which in ("ii", "vi"):
        pm = Batch(draws["pm"], 0, d)
        beta = alpha * pm + u * w
        bbar = beta.conjugate()
        if which == "ii":
            valid &= beta.norm != 0
            lhs = eta_matrix(alpha, pm) * head
            diagonal = ediag(-u / beta, beta, -bbar / u, 1 / bbar, d)
            upper = matrix(
                [[1, -beta / u, z, z], [z, 1, z, z], [z, z, 1, z], [z, z, bbar / u, 1]], d
            )
            lower = matrix(
                [[1, z, z, z], [u / beta, 1, z, z], [z, z, 1, -(u / bbar)], [z, z, z, 1]], d
            )
            return lhs, diagonal * upper * lower, valid
        lhs = eta_matrix(alpha, pm) * (head * matrix(S2, d) * s1)
        left = matrix([[1, z, z, z], [z, z, z, u], [z, z, 1, z], [z, -(1 / u), z, z]], d)
        right = matrix(
            [[1, z, z, z], [z, 1, z, z], [z, bbar / u, 1, z], [beta / u, z, z, 1]], d
        )
        return lhs, left * right, valid

    if which == "m0-equiv":
        uw = u * w
        v = a + b * uw + c * uw * uw
        valid &= v.x0 != 0
        y = -u / v
        x = -(u / v) * (c * w * u + b / 2)
        corner = [
            [1, 0, 0, 0],
            [-u * (b + c * u * w) / v, c * u * u / v, 0, 0],
            [0, 0, c * u * u / v, u * (b + c * u * w) / v],
            [0, 0, 0, 1],
        ]
    else:
        varpi = draws["varpi"]
        pm = Batch(np.where(draws["m"] == 2, varpi * varpi % P, varpi), 0, d)  # varpi^m
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
    g = _block_embed(x + y * b / 2, y * c, -y * a, x - y * b / 2, d)
    if which == "mpos-equiv":
        # h(0, m)^-1 g h(0, m), h(0, m) = diag(varpi^2m, varpi^m, 1, varpi^m);
        # h(l, 0) conjugates g by scalars, so m0-equiv forms no h
        g = ediag(1 / (pm * pm), 1 / pm, 1, 1 / pm, d) * g * ediag(pm * pm, pm, 1, pm, d)
    lhs = g * ediag(1, -u, 1, -(1 / u), d)
    return lhs, head * matrix(corner, d), valid


def matrix_identity_witness(
    which: str, trials: int = 50, seed: int = 20260816
) -> Optional[Dict[str, object]]:
    """None when the named identity holds at ``trials`` trials, else the
    first failing one: the identity, the trial's index (counted from 0 over
    trials, not attempts), the residues the identity reads (IDENTITY_READS),
    and the first differing (i, j) entry (counted from 0, row by row).

    The draws come from SplitMix64 seeded with seed XOR ((k + 1) *
    0x9E3779B97F4A7C15) mod 2^64, k the identity's position in
    IDENTITY_NAMES, CHUNK attempts at a time.  An attempt that is not a
    trial (see ``identity_sides``) is redrawn, up to 40 * trials attempts
    in all; past that RuntimeError is raised.
    """
    if which not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITY_NAMES}")
    rng = SplitMix64(seed ^ ((IDENTITY_NAMES.index(which) + 1) * 0x9E3779B97F4A7C15))
    done = attempts = 0
    while done < trials:
        # never more attempts than trials still needed, so the trials are
        # the first valid attempts of the stream whatever CHUNK is
        n = min(CHUNK, trials - done, 40 * trials - attempts)
        if n == 0:
            raise RuntimeError("too many degenerate draws; check the sampler")
        attempts += n
        draws = draw_residues(rng, which, n)
        lhs, rhs, valid = identity_sides(which, draws)
        differs = ((lhs.x0 != rhs.x0) | (lhs.x1 != rhs.x1)) & valid[:, None, None]
        if differs.any():
            t = int(differs.any(axis=(1, 2)).argmax())
            i, j = np.argwhere(differs[t])[0]
            return {
                "identity": which,
                "trial": done + int(valid[:t].sum()),
                "residues": {name: int(draws[name][t]) for name in IDENTITY_READS[which]},
                "entry": [int(i), int(j)],
            }
        done += int(valid.sum())
    return None


def verify_matrix_identity(which: str, trials: int = 50, seed: int = 20260816) -> bool:
    """Whether the named identity holds at ``trials`` random trials over
    F_P[X]/(X^2 - d), P = 2^31 - 1 (see ``matrix_identity_witness``).

    Schwartz-Zippel bound: cleared of denominators, an entry of lhs - rhs
    is a polynomial in the draws of total degree at most D, so a false
    identity passes one trial with probability at most D/P, about 5e-9 at
    D = 10.  The degree D: i 4, ii 5, vi 5, m0-equiv 10, mpos-equiv 10
    (8 at m = 1).
    """
    return matrix_identity_witness(which, trials, seed) is None
