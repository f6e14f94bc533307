"""Assembly of the global value from its local pieces.

Each constant has one formula, and the global layer composes them rather
than restating them: kappa_infinity is arch's closed form at q = 0 scaled
by conj(a(Lambda)) c(1); kappa_N is the finite product over the level
primes; the truncated Euler product multiplies the local factors; the
weight-l special-value constant is a level-free front times kappa_N at
s0 = l/6 - 1/2 (where 6 s0 + 1 = l - 2); and the consistency identity
checks the closed form at s0 against that same front.

The s-free part of every local factor is built once per input, on first
use, into GlobalInput.euler_table: float64 planes with a column per prime
and 13 rows of denominators, and the count of leading columns that are
2, 3, 5, ... (EulerTable).  A report takes t = p^(-3s) from Python's own
complex pow and evaluates every local factor at once (one quotient over
the 13 rows, then paired folds) with CPython's formulas for a complex
product and quotient (_c_prod, _c_quot); _product multiplies the factors
prime by prime.  Each float64 operation is one that the per-prime
evaluation in Python complex arithmetic performs, on the same operands,
and IEEE 754 rounds it the same in numpy as in C, so the planes change no
bit of a report.

Character data is complex-valued here (unitary class characters), while
the formal local modules work over exact rationals; the two layers meet
only through numeric evaluation of the same formulas, and the tests pin
that meeting point prime by prime.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .arch import _gamma_quotient, c1_coefficient
from .exact import Rational, rat
from .localfield import check_character_slots, is_prime, uniformizer_values, vol_k_sharp
from .zeta import UNRAMIFIED_FACTOR_NOTE

__all__ = [
    "ALGEBRAICITY_NOTE",
    "CONVENTION_NOTE",
    "DegenerateInputWarning",
    "TruncationWarning",
    "PrimeQuadData",
    "GlobalInput",
    "GlobalZReport",
    "a_lambda",
    "kappa_infinity",
    "kappa_N",
    "global_z_report",
    "theorem3_constant",
    "theorem3_rel_error",
    "theorem3_consistency",
    "special_value_ratio",
    "v_N",
    "primes_up_to",
]

ALGEBRAICITY_NOTE = (
    "numeric value only: algebraicity of the normalized ratio is not certified"
)
CONVENTION_NOTE = (
    "contragredient local shape; self-dual under trivial central character"
)

_PAIRING_TOL = 1e-9


class DegenerateInputWarning(UserWarning):
    """The class sum a(Lambda) vanishes, so the global constant degenerates."""


class TruncationWarning(UserWarning):
    """The Euler product is evaluated outside its convergence half-plane."""


def primes_up_to(n: int) -> list:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def v_N(n: int) -> Rational:
    """The level volume V_N = prod_{p | N} 1/((p^2 - 1)(p^4 - 1)), exactly,
    for a square-free N >= 1 (ValueError otherwise)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    value, m, d = rat(1), n, 2
    while m > 1:
        p = d if d * d <= m else m  # past its square root, m is prime
        if m % p == 0:
            m //= p
            if m % p == 0:
                raise ValueError(f"{n} is not square-free")
            value *= vol_k_sharp(p)
        d += 1
    return value


def _close(x: complex, y: complex) -> bool:
    return abs(complex(x) - complex(y)) <= _PAIRING_TOL * max(1.0, abs(complex(y)))


@dataclass(frozen=True)
class PrimeQuadData:
    """Complex character data of the quadratic algebra above one prime.

    The numeric mirror of the exact local datum: a splitting symbol in
    {-1, 0, +1} and the unitary character values on the uniformizer
    classes that exist for that symbol.  Slots that are meaningless for
    the class must stay None; present values must be nonzero and satisfy
    the multiplicative relations (ramified: lambda_piL^2 = lambda_piF;
    split: lambda_piL * lambda_piF_over_piL = lambda_piF) to 1e-9.
    """

    symbol: int
    lambda_piF: complex = 1.0
    lambda_piL: Optional[complex] = None
    lambda_piF_over_piL: Optional[complex] = None

    def __post_init__(self):
        check_character_slots(
            self.symbol,
            self.lambda_piF,
            self.lambda_piL,
            self.lambda_piF_over_piL,
            _close,
        )


#: The s-free part of one prime's local factor: complex(p), the divisors d
#: of the degree-8 inverse factor prod_d (1 - t/d), and the auxiliary
#: (prefix, denominator) pairs of the twist's factors 1 - k t/den and
#: 1 - k t^2/den.  Each denominator is the float that complex division
#: converts an integer divisor to.
FactorRow = Tuple[
    complex,
    Tuple[complex, ...],
    Tuple[Tuple[complex, float], ...],
    Tuple[Tuple[complex, float], ...],
]


def _factor_row(
    p: int,
    data: PrimeQuadData,
    gl2,
    gamma: Tuple[complex, ...],
    omega_pi: complex,
    at_level: bool,
) -> FactorRow:
    """The row of the Euler-product table at p (see FactorRow).

    The degree-8 inverse factor is the contragredient pairing, every
    Satake value inverted: its divisors are g b sqrt(p) over the Satake
    values g and the GL(2) Satake pair b, or g omega p with the twist
    value omega at a level prime.  The auxiliary factor is the inverse
    local factor of the induced-character twist; a report multiplies it
    by zeta_p(6s+1)^(-1) = 1 - t^2/p (assembled, not restated; see
    UNRAMIFIED_FACTOR_NOTE).  Every divisor and prefix is the
    left-associated product of Python complex values that a per-prime
    evaluation forms, so EulerTable starts from the same bits.
    """
    if at_level:
        omega = complex(gl2)
        chi = 1 / (omega_pi * omega * omega)
        divisors = tuple(g * omega * p for g in gamma)
        if data.symbol == -1:
            return complex(p), divisors, (), ((chi, float(p**3)),)
        chi_omega = chi * omega
        deltas = uniformizer_values(data)
        return complex(p), divisors, tuple((d * chi_omega, p**1.5) for d in deltas), ()
    beta = tuple(complex(b) for b in gl2)
    chi = 1 / (omega_pi * beta[0] * beta[1])
    root = math.sqrt(p)
    divisors = tuple(g * b * root for g in gamma for b in beta)
    if data.symbol == -1:
        return complex(p), divisors, (), tuple(
            (data.lambda_piF * (chi * b) ** 2, float(p**2)) for b in beta
        )
    deltas = uniformizer_values(data)
    return complex(p), divisors, tuple((d * chi * b, float(p)) for b in beta for d in deltas), ()


def _c_prod(ar, ai, br, bi):
    """a * b as CPython's _Py_c_prod (Objects/complexobject.c) forms it,
    on the real and imaginary planes of a and b: each part is two
    products and one sum, rounded in that order."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quotient_parts(br, bi):
    """The half of CPython's _Py_c_quot that depends on the divisor b only:
    Smith's algorithm (R. L. Smith, "Algorithm 116: Complex division",
    CACM 5, 1962) scales by whichever part of b is larger in magnitude.
    Returns that choice (True where |Re b| >= |Im b|), the ratio of the
    smaller part to the larger, and the scaled denominator.  A zero b
    is the caller's to reject, as CPython raises ZeroDivisionError there;
    a NaN part gives NaN planes, as CPython gives NaN."""
    branch = abs(br) >= abs(bi)
    ratio = np.where(branch, bi / br, br / bi)
    denom = np.where(branch, br + bi * ratio, br * ratio + bi)
    return branch, ratio, denom


def _c_quot(ar, ai, branch, ratio, denom):
    """a / b as CPython's _Py_c_quot forms it, given _quotient_parts(b).
    Where |Re b| >= |Im b| it is ((ar + ai r) / d, (ai - ar r) / d), else
    ((ar r + ai) / d, (ai r - ar) / d); a sum's operand order does not
    change its bits, a difference's does."""
    u = np.where(branch, ar, ai)
    v = np.where(branch, ai, ar)
    w = u * ratio
    return (u + v * ratio) / denom, np.where(branch, v - w, w - v) / denom


def _one_minus(qr, qi):
    """1 - q as CPython's _Py_c_diff forms it from complex(1): 0.0 - qi,
    not -qi, which would differ in the sign of a zero."""
    return 1.0 - qr, 0.0 - qi


def _leading_primes(columns: Tuple[int, ...]) -> int:
    """How many of the ascending columns, none a multiple of a smaller one,
    are 2, 3, 5, ... in turn: the run ends at the first prime between two."""
    if columns[:1] != (2,):
        return 0
    wheel, root = 1, 1  # columns[1:root] multiplied: the run's odd primes up to sqrt(m)
    for run in range(1, len(columns)):
        for m in range(columns[run - 1] + 1 | 1, columns[run], 2):
            while columns[root] ** 2 <= m:
                wheel *= columns[root]
                root += 1
            if math.gcd(m, wheel) == 1:  # m is prime
                return run
    return len(columns)


@dataclass(frozen=True, eq=False)
class EulerTable:
    """The s-free part of every local factor, as float64 planes.

    A column per prime, in ascending order, and 13 rows: the eight divisors
    d of the degree-8 inverse factor's 1 - t/d, the (at most four)
    denominators of the auxiliary 1 - k t/den or 1 - k t^2/den, and p of
    1 - t^2/p, padded and masked where a prime has fewer.  Each is stored
    as the s-free half of CPython's complex quotient (_quotient_parts), so
    evaluating the table at t is the per-prime evaluation's own float64
    operations: Python complex arithmetic rounds each part of a product or
    a quotient exactly as _c_prod and _c_quot do, and numpy's +, -, * and
    / round each element as IEEE 754 prescribes.  Only t = p^(-3s) itself
    is left to Python's pow, whose bits and errors numpy's need not match.
    """

    primes: Tuple[int, ...]
    bases: Tuple[complex, ...]  # complex(p), the base of t = p^(-3s)
    leading_primes: int  # primes[:leading_primes] are 2, 3, 5, ... (_leading_primes)
    quotient: Tuple[np.ndarray, np.ndarray, np.ndarray]  # _quotient_parts, (13, n)
    padded: np.ndarray  # (12, n): rows 0-11, where the prime has no such slot
    first_padded: Tuple[int, ...]  # per row 0-11, its first padded column, or n
    zero_divisor: np.ndarray  # (n,): some divisor is 0, so t/d raises
    prefix: Tuple[np.ndarray, np.ndarray]  # real and imaginary parts, (4, n)
    squared: np.ndarray  # (n,): the auxiliary factors are 1 - k t^2/den

    @classmethod
    def from_rows(cls, primes, rows) -> "EulerTable":
        """The table over these primes from their FactorRows, in the same
        ascending order."""
        n = len(rows)

        def planes(entries, width):
            """Each row's entries as a (width, n) complex array, padded with 1."""
            padded = [tuple(e) + (1,) * (width - len(e)) for e in entries]
            return np.array(padded, dtype=complex).reshape(n, width).T

        divisors = planes([row[1] for row in rows], 8)
        pairs = [row[2] + row[3] for row in rows]
        prefixes = planes([[k for k, _ in pair] for pair in pairs], 4)
        dens = planes([[den for _, den in pair] for pair in pairs], 4)
        dens = np.concatenate([divisors, dens, [[row[0] for row in rows]]])
        padded = np.arange(12)[:, None] >= [len(row[1]) for row in rows]
        padded[8:] = np.arange(4)[:, None] >= [len(pair) for pair in pairs]
        with np.errstate(all="ignore"):
            return cls(
                primes=tuple(primes),
                bases=tuple(row[0] for row in rows),
                leading_primes=_leading_primes(tuple(primes)),
                quotient=_quotient_parts(dens.real, dens.imag),
                padded=padded,
                first_padded=tuple(int(row.argmax()) if row.any() else n for row in padded),
                zero_divisor=((divisors == 0) & ~padded[:8]).any(axis=0),
                prefix=(np.ascontiguousarray(prefixes.real), np.ascontiguousarray(prefixes.imag)),
                squared=np.array([not row[2] for row in rows], dtype=bool),
            )

    def evaluate(self, tr, ti):
        """(rankin, factor) at t over the first len(tr) columns: the degree-8
        inverse factor prod_d (1 - t/d) and the local factor (1 - t^2/p) aux
        / rankin, each product of slots a left fold from complex(1).  Steps
        0-3 fold rows j and j + 8 into rankin and aux as one (2, k) product."""
        k = len(tr)
        kr, ki = _c_prod(self.prefix[0][:, :k], self.prefix[1][:, :k], tr, ti)
        ktr, kti = _c_prod(kr, ki, tr, ti)  # (k t) t, as k * t * t associates
        nr, ni = np.empty((13, k)), np.empty((13, k))  # the numerators t, k t^e and t^2
        nr[:8], ni[:8], nr[8:12], ni[8:12] = tr, ti, kr, ki
        np.copyto(nr[8:12], ktr, where=self.squared[:k])
        np.copyto(ni[8:12], kti, where=self.squared[:k])
        nr[12], ni[12] = _c_prod(tr, ti, tr, ti)
        fr, fi = _one_minus(*_c_quot(nr, ni, *(part[:, :k] for part in self.quotient)))
        acc = np.ones((2, k)), np.zeros((2, k))  # rankin and aux
        for j in range(8):
            if j == 4:  # aux has folded its four slots
                aux, acc = (acc[0][1], acc[1][1]), (acc[0][:1], acc[1][:1])
            rows = slice(j, 12, 8)  # rows j and j + 8 through j = 3, then row j
            pr, pi = _c_prod(*acc, fr[rows], fi[rows])
            if min(self.first_padded[rows]) < k:  # keep acc where the slot is padding
                np.copyto(pr, acc[0], where=self.padded[rows, :k])
                np.copyto(pi, acc[1], where=self.padded[rows, :k])
            acc = pr, pi
        rankin = acc[0][0], acc[1][0]
        return rankin, _c_quot(*_c_prod(fr[12], fi[12], *aux), *_quotient_parts(*rankin))


@dataclass(frozen=True)
class GlobalInput:
    """Everything the global formulas consume.

    Class-group data (the values Lambda(t_j) and the coefficients
    a(S_j, Phi)) are inputs, not derived.  The per-prime tables must
    agree on coverage prime by prime: satake_table holds the three
    unramified parameters (u0, u1, u2) of the degree-4 component,
    gl2_table holds the degree-2 component (a Satake pair off the level,
    a twist value +-1 at a level prime), and local_table holds the
    quadratic character data.  l1 is the lowest weight of the degree-2
    archimedean component and defaults to l.

    The Euler-product factor table (euler_table) is built once per
    input, on first use, so no report repeats its per-prime set-up.
    """

    l: int
    D: int
    N: int
    lambda_classvals: Tuple[complex, ...]
    fourier_classvals: Tuple[complex, ...]
    a1: complex
    r: complex
    satake_table: Mapping[int, Tuple[complex, complex, complex]]
    gl2_table: Mapping[int, object]
    local_table: Mapping[int, PrimeQuadData]
    l1: Optional[int] = None
    petersson_phi: Optional[float] = None
    petersson_psi: Optional[float] = None
    #: The prime factors of N, computed once by __post_init__.
    level_primes: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.l < 2 or self.l % 2:
            raise ValueError("l must be an even integer >= 2")
        if self.l1 is None:
            object.__setattr__(self, "l1", self.l)
        if self.l1 < 2 or self.l1 % 2:
            raise ValueError("l1 must be an even integer >= 2")
        if self.D <= 0 or self.D % 4 not in (0, 3):
            raise ValueError("D must be a positive integer = 0 or 3 mod 4")
        # A level prime must key gl2_table, so N is factored over its keys.
        level = tuple(p for p in sorted(self.gl2_table) if self.N % p == 0 and is_prime(p))
        if math.prod(level) != self.N:  # also N < 1, or a square factor
            raise ValueError(f"N = {self.N} must be a product of distinct primes keying gl2_table")
        object.__setattr__(self, "level_primes", level)
        object.__setattr__(self, "lambda_classvals", tuple(self.lambda_classvals))
        object.__setattr__(self, "fourier_classvals", tuple(self.fourier_classvals))
        if not self.lambda_classvals:
            raise ValueError("at least one ideal class is required")
        if len(self.lambda_classvals) != len(self.fourier_classvals):
            raise ValueError("class value lists must have equal length h")
        object.__setattr__(
            self, "satake_table", {int(p): tuple(v) for p, v in self.satake_table.items()}
        )
        object.__setattr__(self, "gl2_table", dict(self.gl2_table))
        object.__setattr__(self, "local_table", dict(self.local_table))
        for p, triple in self.satake_table.items():
            if len(triple) != 3 or not all(complex(u) for u in triple):
                raise ValueError(f"satake_table[{p}] needs three nonzero values")
        for p in level:
            if p not in self.local_table:
                raise ValueError(f"level prime {p} missing from local_table")
        for p, entry in self.gl2_table.items():
            if p in level:
                try:
                    omega = complex(entry)
                except TypeError:
                    raise ValueError(
                        f"gl2_table[{p}]: a level prime carries a twist value +-1"
                    ) from None
                if min(abs(omega - 1), abs(omega + 1)) > 1e-12:
                    raise ValueError(
                        f"gl2_table[{p}]: a level prime carries a twist value +-1"
                    )
            else:
                try:
                    pair = tuple(entry)
                except TypeError:
                    pair = ()
                if len(pair) != 2 or not all(complex(b) for b in pair):
                    raise ValueError(
                        f"gl2_table[{p}]: an unramified prime carries a nonzero Satake pair"
                    )
        for p, data in self.local_table.items():
            if not isinstance(data, PrimeQuadData):
                raise ValueError(f"local_table[{p}] must be a PrimeQuadData")
            if p in self.satake_table and not _close(
                data.lambda_piF, self.omega_pi(p)
            ):
                raise ValueError(
                    f"pairing constraint violated at p = {p}: "
                    f"lambda_piF = {data.lambda_piF} but omega_pi = {self.omega_pi(p)}"
                )

    @functools.cached_property
    def euler_table(self) -> Tuple[EulerTable, Dict[int, ArithmeticError]]:
        """The s-free part of the local factor at each prime covered by all
        three tables (see EulerTable), and the primes whose row could not
        be built, with the ArithmeticError a report reaching them raises.

        A covered key divisible by a smaller prime of the table is left
        out: no report reads it, and without it the primes of a report
        that the table covers are the table's first columns."""
        primes, rows = [], []
        faults: Dict[int, ArithmeticError] = {}
        covered = (int(p) for p in self.local_table if p in self.satake_table and p in self.gl2_table)
        for p in sorted(covered):
            if p < 2 or any(p % q == 0 for q in itertools.takewhile(lambda q: q * q <= p, primes)):
                continue
            try:
                row = _factor_row(
                    p, self.local_table[p], self.gl2_table[p], self.gamma(p), self.omega_pi(p),
                    p in self.level_primes,
                )
            except ArithmeticError as exc:  # values at the edge of the float range
                faults[p] = exc
                continue
            primes.append(p)
            rows.append(row)
        return EulerTable.from_rows(primes, rows), faults

    @property
    def at_holomorphic_point(self) -> bool:
        """Whether ir = l - 1 to 1e-9, the one point of the special value."""
        return abs(1j * complex(self.r) - (self.l - 1)) <= 1e-9

    def omega_pi(self, p: int) -> complex:
        """Central character value u0^2 u1 u2 at the prime p."""
        u0, u1, u2 = (complex(u) for u in self.satake_table[p])
        return u0 * u0 * u1 * u2

    def gamma(self, p: int) -> Tuple[complex, complex, complex, complex]:
        """The four Satake values (u1 u2 u0, u1 u0, u0, u2 u0) at p."""
        u0, u1, u2 = (complex(u) for u in self.satake_table[p])
        return (u1 * u2 * u0, u1 * u0, u0, u2 * u0)


def a_lambda(gi: GlobalInput) -> complex:
    """The class sum a(Lambda) = sum_j Lambda(t_j) a(S_j, Phi).

    Warns (DegenerateInputWarning) when the sum vanishes to working
    precision, since every global constant carries it as a factor.
    """
    value = complex(
        sum(lam * av for lam, av in zip(gi.lambda_classvals, gi.fourier_classvals))
    )
    if abs(value) < 1e-12:
        warnings.warn(
            "a(Lambda) = 0 to working precision; the global constants degenerate",
            DegenerateInputWarning,
            stacklevel=2,
        )
    return value


def kappa_infinity(gi: GlobalInput, s: complex) -> complex:
    """Archimedean constant of the global formula: arch's closed form at
    q = 0 with a+ = conj(a(Lambda)) c(1), that is

    (1/2) conj(a(Lambda)) c(1) pi D^(-3s-l/2) (4 pi)^(-3s+3/2-l)
        Gamma(3s+l-1+ir/2) Gamma(3s+l-1-ir/2) / Gamma(3s+(l+1)/2)

    with c(1) from c1_coefficient (raising the weight-l1 coefficient a1
    to weight l when needed).  Unlike z_inf_closed it answers at every s:
    the global value is reported, and flagged, outside convergence too.
    """
    a_plus = a_lambda(gi).conjugate() * c1_coefficient(gi.l, gi.l1, gi.r, gi.a1)
    return _gamma_quotient(gi.l, gi.D, 0, 1j * complex(gi.r), s, a_plus)


def kappa_N(gi: GlobalInput, s):
    """Level constant: prod over p | N of

    p(p-1)/((p+1)(p^4-1)) * (1 - symbol/p) * (1 - p^(-6s-1))^(-1).

    Exact (a Rational) when s is rational with 6s+1 an integer; complex
    otherwise.  N = 1 gives the empty product 1.  Raises ValueError when
    p^(-6s-1) = 1 at a level prime, a pole of the last factor.
    """
    k = 6 * rat(s.numerator, s.denominator) + 1 if isinstance(s, numbers.Rational) else None
    if k is not None and k.denominator == 1:
        ratio, base, exponent, value = rat, rat, -int(k), rat(1)
    else:
        ratio, base, exponent, value = operator.truediv, complex, -6 * complex(s) - 1, complex(1)
    for p in gi.level_primes:
        x = base(p) ** exponent
        if x == 1:
            raise ValueError(f"s = {s} is a pole of the level factor at p = {p}: 1 - p^(-6s-1) = 0")
        sym = gi.local_table[p].symbol
        value *= ratio(p * (p - 1), (p + 1) * (p**4 - 1)) * (1 - ratio(sym, p)) / (1 - x)
    return value


@functools.lru_cache(maxsize=16, typed=True)
def _primes_through(p_max: int) -> Tuple[int, ...]:
    """primes_up_to(p_max) as a tuple, sieved once per p_max."""
    return tuple(primes_up_to(p_max))


def _truncation_primes(gi: GlobalInput, p_max: int) -> Tuple[int, ...]:
    """The primes up to p_max, which must reach every level prime, and
    none past 2K + 2, with K the largest prime of the Euler table: by
    Bertrand's postulate the table lacks a prime in (K, 2K + 2], and a
    report stops at the first prime it lacks."""
    level = gi.level_primes
    if level and p_max < max(level):
        raise ValueError(f"p_max = {p_max} omits the level prime {max(level)}")
    covered = gi.euler_table[0].primes  # ascending
    return _primes_through(min(p_max, 2 * covered[-1] + 2 if covered else 2))


def _euler_planes(gi: GlobalInput, s: complex, primes: Tuple[int, ...]):
    """(rankin, factor) over the given primes 2, 3, 5, ..., ascending: the
    degree-8 inverse factor and the local factor at t = p^(-3s) as real and
    imaginary planes, from EulerTable.evaluate's 13-row pass over the
    table's leading_primes columns, up to the first prime the table lacks.

    Each t is Python's own complex pow, so it keeps libm's bits.  The
    first failing prime in ascending order raises, with what a per-prime
    evaluation raises there, checked in its order: a missing prime
    (ValueError) or one whose row could not be built, then the pow
    (OverflowError or ZeroDivisionError), then a zero divisor
    (ZeroDivisionError), then a pole of the degree-8 factor, where its
    inverse is exactly 0 (ValueError).
    """
    table, faults = gi.euler_table
    covered = min(len(primes), table.leading_primes)
    exponent = -3 * s
    try:
        ts, failure = [base ** exponent for base in table.bases[:covered]], None
    except ArithmeticError as exc:
        ts, failure = [], exc
        with contextlib.suppress(ArithmeticError):  # t up to the first failing pow
            for base in table.bases[:covered]:
                ts.append(base ** exponent)
    t = np.array(ts, dtype=complex)
    with np.errstate(all="ignore"):
        rankin, factor = table.evaluate(t.real, t.imag)
    zero = table.zero_divisor[: len(ts)]
    bad = np.flatnonzero(zero | ((rankin[0] == 0) & (rankin[1] == 0)))
    if bad.size:
        i = int(bad[0])
        if zero[i]:
            ts[i] / 0j  # raises CPython's ZeroDivisionError, as t / d does there
        raise ValueError(
            f"s is a pole of the degree-8 local factor at p = {primes[i]}: its inverse is 0"
        )
    if failure is not None:
        raise failure
    if covered < len(primes):
        fault = faults.get(primes[covered])
        if fault is None:
            raise ValueError(f"missing local data for p = {primes[covered]}")
        raise type(fault)(*fault.args)
    return rankin, factor


def _product(factors) -> complex:
    """The left fold product *= f over the factors' (re, im) planes in
    Python complex arithmetic, prime by prime, as a per-prime evaluation
    forms it; a numpy reduction would reassociate it."""
    values = np.empty(factors[0].shape, dtype=complex)
    values.real, values.imag = factors  # the parts, bit for bit
    return functools.reduce(operator.mul, values.tolist(), complex(1))


def _tail_bound(p_max: int, alpha: float) -> float:
    """Crude relative bound on the omitted primes' contribution.

    Assumes unitary local data (all Satake and character values on the
    unit circle): each omitted prime then moves the log of the product
    by at most 26 p^(-alpha) with alpha = 3 Re(s) + 1/2, and the primes
    beyond p_max contribute at most the integral tail of that bound.
    Infinite when alpha <= 1 (outside absolute convergence) and when the
    bound is past the float range.
    """
    if alpha <= 1:
        return math.inf
    log_tail = 26.0 * p_max ** (1 - alpha) / (alpha - 1)
    try:
        return math.expm1(log_tail)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GlobalZReport:
    """A truncated global evaluation with its error bookkeeping."""

    value: complex
    kappa_inf: complex
    kappa_level: complex
    euler_product: complex
    primes: Tuple[int, ...]
    tail_bound: float
    in_convergence_region: bool
    notes: Tuple[str, ...]


def global_z_report(gi: GlobalInput, s, p_max: int) -> GlobalZReport:
    """kappa_inf * kappa_level * prod_{p <= p_max} (local factor at t_p).

    Every prime up to p_max must be covered by the three tables; the
    level primes must all lie below the truncation point.  The report
    carries the crude tail bound and flags evaluation outside the region
    of absolute convergence, alpha = 3 Re(s) + 1/2 > 1, that is
    Re(s) > 1/6 (also warned, TruncationWarning).
    """
    primes = _truncation_primes(gi, p_max)
    s_c = complex(s)
    alpha = 3 * s_c.real + 0.5
    in_region = alpha > 1
    if not in_region:
        warnings.warn(
            "Re(s) <= 1/6: the Euler-product truncation is unreliable here",
            TruncationWarning,
            stacklevel=2,
        )
    product = _product(_euler_planes(gi, s_c, primes)[1])
    k_inf = kappa_infinity(gi, s_c)
    k_level = complex(kappa_N(gi, s_c))
    return GlobalZReport(
        value=k_inf * k_level * product,
        kappa_inf=k_inf,
        kappa_level=k_level,
        euler_product=product,
        primes=primes,
        tail_bound=_tail_bound(p_max, alpha),
        in_convergence_region=in_region,
        notes=(UNRAMIFIED_FACTOR_NOTE, CONVENTION_NOTE),
    )


def _theorem3_front(gi: GlobalInput, a_bar: complex) -> complex:
    """a_bar D^(-l+3/2) 2^(-4l+6) (2l-5)!, the level-free part of
    theorem3_constant when a_bar = conj(a(Lambda))."""
    l = gi.l
    if l < 3:
        raise ValueError("(2l-5)! needs l >= 3")
    return (
        a_bar
        * complex(gi.D) ** (-l + 1.5)
        * 2.0 ** (-4 * l + 6)
        * float(math.factorial(2 * l - 5))
    )


def theorem3_constant(gi: GlobalInput) -> complex:
    """The weight-l special-value constant:

    conj(a(Lambda)) D^(-l+3/2) 2^(-4l+6) (2l-5)!
        * prod_{p | N} p(p-1)/((p+1)(p^4-1)) (1 - symbol/p) (1 - p^(-l+2))^(-1).

    The level product is kappa_N at s0 = l/6 - 1/2, where 6 s0 + 1 = l - 2,
    taken exactly and rounded once.
    """
    a_bar = a_lambda(gi).conjugate()
    return _theorem3_front(gi, a_bar) * kappa_N(gi, rat(gi.l - 3, 6))


def theorem3_rel_error(gi: GlobalInput) -> float:
    """Relative error between the two printed constants at s = l/6 - 1/2.

    arch's closed form at the holomorphic point (q = 0, ir = l - 1,
    a+ = conj(a(Lambda)) (4 pi)^(-l/2)) against the level-free front of
    theorem3_constant times pi^(4-2l); they agree by the factorial
    identity (2l-4)!/(2(l-2)) = (2l-5)!.  The input's own spectral data
    (r, a1, l1) is not consulted: the check specializes internally.
    """
    l = gi.l
    a_bar = a_lambda(gi).conjugate()
    target = _theorem3_front(gi, a_bar) * math.pi ** (4 - 2 * l)
    a_plus = a_bar * (4 * math.pi) ** (-l / 2)
    kap = _gamma_quotient(l, gi.D, 0, l - 1.0, l / 6 - 0.5, a_plus)
    if target == 0:
        return 0.0 if kap == 0 else math.inf
    return abs(kap - target) / abs(target)


def theorem3_consistency(gi: GlobalInput) -> bool:
    """Check that the two printed constants agree to 1e-9 relative."""
    return theorem3_rel_error(gi) <= 1e-9


def special_value_ratio(gi: GlobalInput, p_max: int) -> complex:
    """L(l/2-1, pairing) / (pi^(5l-8) (Phi,Phi)(Psi,Psi)), truncated at p_max.

    Requires both Petersson norms and the holomorphic spectral point
    ir = l - 1 (the only point where l/2 - 1 is the value 3s + 1/2 of
    the running variable).  The numerator is the truncated Euler
    product of the degree-8 local factors at t_p = p^(-l/2+3/2).  The
    result is a numeric value only; see ALGEBRAICITY_NOTE.
    """
    if gi.petersson_phi is None or gi.petersson_psi is None:
        raise ValueError("both Petersson norms are required")
    if not gi.at_holomorphic_point:
        raise ValueError("the special value lives at the point ir = l - 1")
    s0 = gi.l / 6 - 0.5
    rankin, _ = _euler_planes(gi, complex(s0), _truncation_primes(gi, p_max))
    with np.errstate(all="ignore"):
        lvalue = _product(_c_quot(1.0, 0.0, *_quotient_parts(*rankin)))
    return lvalue / (
        math.pi ** (5 * gi.l - 8) * gi.petersson_phi * gi.petersson_psi
    )
