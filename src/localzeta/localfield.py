"""Local quadratic-extension data.

Everything here is about a quadratic etale algebra L over a p-adic field F
with odd residue characteristic or p = 2: the splitting symbol that says
whether L is inert, ramified or split over F, the values of an unramified
character on the relevant uniformizer classes, and the unit indices
(o_L^x : o_m^x) of the filtration orders o_m = o + p^m o_L, together with a
finite-quotient counting oracle for those indices, and the closed volume
formulas of the double cosets that survive in the local zeta integral.
Only the counting oracle uses numpy, and it imports it when it runs, so the
exact path loads no numpy.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .exact import Rational, rat


class PrecisionError(RuntimeError):
    """Raised when a finite-quotient computation fails to stabilize."""


class SplittingSymbol(enum.IntEnum):
    INERT = -1
    RAMIFIED = 0
    SPLIT = 1


def is_prime(n: int) -> bool:
    """Whether n is prime; exact below 3,825,123,056,546,413,051, the least
    composite that is a strong probable prime to the first nine prime bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^twos
    for b in bases:
        x = pow(b, (n - 1) >> twos, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def splitting_symbol(d: int, p: int) -> SplittingSymbol:
    """Classify the quadratic algebra F(sqrt(d)) over Q_p.

    Write d = p^v u with u a p-adic unit.  Odd v is ramified.  For even v
    the class is that of u: at odd p a square unit is split (+1) and a
    non-square unit inert (-1); at p = 2, u = 1 (mod 8) is split, u = 5
    (mod 8) inert and u = 3 (mod 4) ramified (0).  d = 0 is rejected: it
    does not define an etale algebra.
    """
    if d == 0:
        raise ValueError("d = 0 does not define a quadratic algebra")
    v, u = 0, d
    while u % p == 0:
        u //= p
        v += 1
    if v % 2:
        return SplittingSymbol.RAMIFIED
    if p == 2:
        if u % 4 == 3:
            return SplittingSymbol.RAMIFIED
        return SplittingSymbol.SPLIT if u % 8 == 1 else SplittingSymbol.INERT
    if pow(u % p, (p - 1) // 2, p) == 1:
        return SplittingSymbol.SPLIT
    return SplittingSymbol.INERT


def check_character_slots(
    symbol: int, piF, piL, piF_over_piL, same: Callable[[object, object], bool]
) -> None:
    """Reject character values that do not fit the splitting class.

    symbol is -1 (inert), 0 (ramified) or +1 (split).  lambda_piF is
    always present and nonzero; inert carries nothing else; ramified
    carries a nonzero lambda_piL with lambda_piL^2 = lambda_piF; split
    carries nonzero lambda_piL and lambda_piF_over_piL whose product is
    lambda_piF.  ``same`` decides those relations: == for exact values,
    a tolerance for floating-point ones.  Raises ValueError.
    """
    if symbol not in (-1, 0, 1):
        raise ValueError("symbol must be -1 (inert), 0 (ramified) or +1 (split)")
    if not piF:
        raise ValueError("lambda_piF must be nonzero")
    if symbol == -1:
        if piL is not None or piF_over_piL is not None:
            raise ValueError("inert class carries only lambda_piF")
        return
    if not piL:
        raise ValueError("non-inert class needs a nonzero lambda_piL")
    if symbol == 0:
        if piF_over_piL is not None:
            raise ValueError("ramified class carries no lambda_piF_over_piL")
        if not same(piL * piL, piF):
            raise ValueError("ramified class needs lambda_piL^2 = lambda_piF")
        return
    if not piF_over_piL:
        raise ValueError("split class needs a nonzero lambda_piF_over_piL")
    if not same(piL * piF_over_piL, piF):
        raise ValueError(
            "split class needs lambda_piL * lambda_piF_over_piL = lambda_piF"
        )


@dataclass(frozen=True)
class LocalQuadData:
    """A splitting class together with the character values it supports.

    lambda_piF is the value of the (unramified) character on a uniformizer
    of F.  In the split and ramified cases the character also sees finer
    elements: lambda_piL on a uniformizer of L, and in the split case
    lambda_piF_over_piL on their quotient.  Slots that are meaningless for
    the given splitting class must be None; present values must be nonzero
    and satisfy, exactly, the multiplicative relations tying them to
    lambda_piF (see check_character_slots).
    """

    p: int
    symbol: SplittingSymbol
    lambda_piF: Rational
    lambda_piL: Optional[Rational] = None
    lambda_piF_over_piL: Optional[Rational] = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be a prime")
        check_character_slots(
            self.symbol,
            self.lambda_piF,
            self.lambda_piL,
            self.lambda_piF_over_piL,
            operator.eq,
        )
        object.__setattr__(self, "symbol", SplittingSymbol(self.symbol))

    @property
    def q(self) -> int:
        """Residue cardinality of F (here always p itself)."""
        return self.p


def uniformizer_values(data) -> tuple:
    """The character values on the uniformizer classes of L that the
    splitting class carries: () inert, (lambda_piL,) ramified and
    (lambda_piL, lambda_piF_over_piL) split, read from a LocalQuadData or
    an assembly.PrimeQuadData as it is when called."""
    if data.symbol == -1:
        return ()
    if data.symbol == 0:
        return (data.lambda_piL,)
    return (data.lambda_piL, data.lambda_piF_over_piL)


def unit_index(data: LocalQuadData, m: int) -> Rational:
    """The index (o_L^x : o_m^x) = (1 - symbol/q) q^m, with o_0 = o_L.

    For m = 0 the order is all of o_L and the index is 1; the closed
    formula applies from m = 1 on.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return rat(1)
    q = data.q
    return (1 - rat(int(data.symbol), q)) * rat(q) ** m


# Enumerated residues per bincount call: memory stays bounded however large
# p^k is, and each chunk fits in cache.
_ORACLE_CHUNK = 1 << 16


def unit_index_oracle(a: int, b: int, c: int, p: int, m: int) -> int:
    """Count (o_L^x : o_m^x) inside the finite quotient o_L / p^k o_L.

    o_L is presented on the integral basis {1, xi0} where xi0 has minimal
    polynomial x^2 + b x + ac, so the quotient by p^k is the ring
    (Z/p^k)[x]/(x^2 + b x + ac) and the norm of x + y xi0 is
    x^2 - b x y + a c y^2.  A class is a unit exactly when its norm is a
    unit mod p.  The order o_m sits inside as the pairs (x, p^m y); since
    1 + p^k o_L lies in o_m^x for k >= m, the global index equals the ratio
    of unit counts in the quotient.  Computed at k = m+1 and k = m+2; a
    mismatch raises PrecisionError rather than guessing.

    The norm mod p, and so whether a pair is a unit, depends only on
    (x mod p, y mod p).  The pairs of X x Y over one residue pair (r, s)
    are hx[r] * hy[s] in number, where hx and hy are the histograms mod p
    of the enumerated x's and y's, and they are all units or all not.
    Summing over residue pairs with U[r, s] = 1 for a unit norm gives
    hx^T U hy, the same count as visiting all |X| |Y| pairs, from a p x p
    table and one pass over each enumeration.
    """
    if c % p == 0:
        raise ValueError("c must be a p-adic unit")
    if m < 0:
        raise ValueError("m must be non-negative")
    import numpy as np

    r = np.arange(p, dtype=np.int64)
    x, y = r[:, None], r[None, :]
    norm = (x * x - (b % p) * x * y + ((a * c) % p) * y * y) % p
    units = (norm != 0).astype(object)  # object: the counts are exact ints

    def residue_histogram(n: int, step: int) -> np.ndarray:
        """Histogram mod p of i * step over 0 <= i < n."""
        hist = np.zeros(p, dtype=np.int64)
        for lo in range(0, n, _ORACLE_CHUNK):
            i = np.arange(lo, min(n, lo + _ORACLE_CHUNK), dtype=np.int64)
            hist += np.bincount(i * step % p, minlength=p)
        return hist.astype(object)

    def index_at(k: int) -> int:
        # Z/p^k, and the image of o_m: p^m y for y in Z/p^(k-m), all < p^k
        full = residue_histogram(p**k, 1)
        sub = residue_histogram(p ** (k - m), p**m)
        total = int(full @ units @ full)
        image = int(full @ units @ sub)
        if image == 0 or total % image:
            raise PrecisionError(
                f"unit count {total} not divisible by suborder count {image}"
            )
        return total // image

    first, second = index_at(m + 1), index_at(m + 2)
    if first != second:
        raise PrecisionError(
            f"index did not stabilize: k={m + 1} gives {first}, k={m + 2} gives {second}"
        )
    return second


# --------------------------------------------------------------------------
# volumes


def vol_k_sharp(q: int) -> Rational:
    """Volume of the level subgroup when the maximal compact has volume 1."""
    return rat(1, (q**2 - 1) * (q**4 - 1))


def volume_numerators(local: LocalQuadData, l: int, m: int) -> Tuple[int, int, int]:
    """The volume formulas: V1 and V2 at (l, m) as integers over one denominator.

    Returns (n1, n2, den) with V1 = n1/den and V2 = n2/den, where
    den = (q + 1)(q^4 - 1), the torus family has n1 = (q - symbol) q^(4m + 3l)
    and the long-Weyl family n2 = (q - symbol) q^(4m + 3l + 1), 0 at m = 0
    where it is empty.  Each is stated on its own, so the checks of
    V2 = q V1 compare two formulas.  The fractions are not reduced; callers
    that only test a combination of V1 and V2 for zero never need them to be.
    """
    if l < 0 or m < 0:
        raise ValueError("l and m must be non-negative")
    q = local.p
    n1 = (q - local.symbol) * q ** (4 * m + 3 * l)
    n2 = (q - local.symbol) * q ** (4 * m + 3 * l + 1) if m else 0
    return n1, n2, (q + 1) * (q**4 - 1)


def volume_V1(local: LocalQuadData, l: int, m: int) -> Rational:
    """Volume sum over the torus-family double coset at (l, m), reduced."""
    n1, _, den = volume_numerators(local, l, m)
    return rat(n1, den)


def volume_V2(local: LocalQuadData, l: int, m: int) -> Rational:
    """Volume sum over the long-Weyl-family double coset, reduced; needs m > 0."""
    if m < 1:
        raise ValueError("the long-Weyl family only occurs for m > 0")
    _, n2, den = volume_numerators(local, l, m)
    return rat(n2, den)
