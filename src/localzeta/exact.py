"""Exact arithmetic substrate for all formal identities.

Scalars live in the quadratic algebra Q[X]/(X^2 - q) for a nonzero
integer q, written a + b*sqrt(q) and stored as integer triples
(A, B, D) = (A + B*sqrt(q))/D with D > 0 and gcd(A, B, D) = 1.  That
normal form is unique for every such q, because it is just the rational
pair (a, b).  Every scalar operation forms its triple unreduced and
divides it once by gcd(D, A, B) (_reduced).  The algebra is the field
Q(sqrt(q)) exactly when q is not a square; otherwise it has zero divisors.
The local identities use a prime q.

The local check needs only what is here: scalar sums, differences and
products; products of polynomials in one formal variable (built from
their factors by factor_product, fraction-free, each coefficient reduced
once at the end); a rational function whose denominator has constant
term 1, as every product of factors 1 - c t has; and its Taylor
coefficients through a fixed order as unreduced triples (series_terms),
compared by cross-multiplication (terms_equal), with only a witness
reduced (series_of is the reduced view).  Degrees never exceed 8.

The arithmetic runs on Python integers alone; floating point appears only
where __complex__ and eval_complex leave the algebra.  Rational values
elsewhere in the package (and the .a, .b parts of a scalar) are the stdlib
fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, "Rational"]


def rat(value: RationalLike, den: int | None = None) -> Rational:
    """Coerce to an exact rational; accepts ints, 'num/den' strings, rationals."""
    if den is not None:
        return Rational(value, den)
    return Rational(value)


class PoleAtOriginError(ZeroDivisionError):
    """Raised when a Taylor expansion at t = 0 is requested across a pole."""


def _int_pair(x) -> tuple:
    """(numerator, denominator) of an int or rational input, as ints."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Rational):
        x = rat(x)
    return x.numerator, x.denominator


class QuadCoeff:
    """An element a + b*sqrt(q) of Q[X]/(X^2 - q), q a nonzero integer.

    The value is held as the reduced integer triple (A, B, D) meaning
    (A + B*sqrt(q))/D, with D > 0 and gcd(A, B, D) = 1, so equality is
    equality of triples.  The rational parts a = A/D and b = B/D are
    available as properties.  When q is a square the algebra has zero
    divisors (nonzero elements of norm 0).

    The operations are +, -, * (each mixing freely with ints and
    rationals, which are coerced into the rational part), unary -, == and
    hash.  Elements attached to different q never mix; attempting to
    combine them raises ValueError rather than guessing.
    """

    # One tuple (A, B, D, q): a single slot keeps construction cheap while
    # __setattr__ still refuses mutation.
    __slots__ = ("_v",)

    def __init__(self, a: RationalLike, b: RationalLike, q: int):
        na, da = _int_pair(a)
        nb, db = _int_pair(b)
        _set(self, _normal(na * db, nb * da, da * db, q))

    def __setattr__(self, name, value):
        raise AttributeError("QuadCoeff is immutable")

    @property
    def q(self) -> int:
        return self._v[3]

    @property
    def a(self) -> Rational:
        return Rational(self._v[0], self._v[2])

    @property
    def b(self) -> Rational:
        return Rational(self._v[1], self._v[2])

    @classmethod
    def rational(cls, x: RationalLike, q: int) -> "QuadCoeff":
        return cls(x, 0, q)

    @property
    def is_rational(self) -> bool:
        return self._v[1] == 0

    def _triple(self, other) -> "tuple | None":
        """other as a reduced (A, B, D) over this field, or None if foreign."""
        if isinstance(other, QuadCoeff):
            v = other._v
            if v[3] != self._v[3]:
                raise ValueError(
                    f"cannot mix Q(sqrt({self._v[3]})) and Q(sqrt({v[3]}))"
                )
            return v[:3]
        if isinstance(other, (int, Rational)):
            n, d = _int_pair(other)
            return n, 0, d
        return None

    def __add__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        A1, B1, D1, q = self._v
        A2, B2, D2 = o
        return _reduced(A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2, q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        A1, B1, D1, q = self._v
        A2, B2, D2 = o
        return _reduced(A1 * D2 - A2 * D1, B1 * D2 - B2 * D1, D1 * D2, q)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        A1, B1, D1, q = self._v
        A2, B2, D2 = o
        return _reduced(A1 * A2 + B1 * B2 * q, A1 * B2 + B1 * A2, D1 * D2, q)

    __rmul__ = __mul__

    def __neg__(self):
        A, B, D, q = self._v
        return _reduced(-A, -B, D, q)

    def __eq__(self, other):
        try:
            o = self._triple(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self._v[:3] == o

    def __hash__(self):
        # Equal to an int or rational exactly when B = 0, so hash as one.
        A, B, D, _ = self._v
        return hash(Rational(A, D)) if B == 0 else hash(self._v)

    def __bool__(self):
        v = self._v
        return v[0] != 0 or v[1] != 0

    def __complex__(self) -> complex:
        A, B, D, q = self._v
        return complex(A / D + B / D * q**0.5)

    def __repr__(self):
        return f"QuadCoeff({self.a!s}, {self.b!s}, q={self.q})"

    def __str__(self):
        a, b, q = self.a, self.b, self.q
        if b == 0:
            return str(a)
        root = f"{b}*sqrt({q})"
        if a == 0:
            return root
        return f"{a} + {root}" if b > 0 else f"{a} - {-b}*sqrt({q})"


_set = QuadCoeff._v.__set__


def _normal(A: int, B: int, D: int, q: int) -> tuple:
    """The stored (A, B, D, q) of (A + B*sqrt(q))/D, D > 0: the triple
    divided by gcd(D, A, B), its one normal form."""
    g = gcd(D, A, B)
    return (A, B, D, q) if g == 1 else (A // g, B // g, D // g, q)


def _reduced(A: int, B: int, D: int, q: int) -> QuadCoeff:
    """The QuadCoeff (A + B*sqrt(q))/D, from any integer triple with D > 0;
    every operation of QuadCoeff ends here."""
    x = object.__new__(QuadCoeff)
    _set(x, _normal(A, B, D, q))
    return x


def q_half_power(q: int, n: int) -> QuadCoeff:
    """q**(n/2) as an element of Q(sqrt(q)), for any integer n."""
    if n % 2 == 0:
        return QuadCoeff(rat(q) ** (n // 2), 0, q)
    return QuadCoeff(0, rat(q) ** ((n - 1) // 2), q)


def _as_quad(value, q: int) -> QuadCoeff:
    if isinstance(value, QuadCoeff):
        if value.q != q:
            raise ValueError("mixed ground fields in polynomial coefficients")
        return value
    return QuadCoeff(value, 0, q)


class Poly:
    """Dense polynomial over Q(sqrt(q)); coefficients[i] is the t^i term.

    Trailing zeros are stripped; the zero polynomial has no coefficients
    and degree -1.  The operations are * (by a Poly or a scalar), ==, and
    complex evaluation.  delta, if not None, is an integer with delta^j c_j
    in Z[sqrt(q)] for j >= 1, for series_terms; factor_product sets it, and
    arithmetic does not carry it.
    """

    __slots__ = ("coefficients", "q", "delta")

    def __init__(self, coefficients: Iterable, q: int, delta: int | None = None):
        coeffs = [
            c if type(c) is QuadCoeff and c._v[3] == q else _as_quad(c, q)
            for c in coefficients
        ]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def one(cls, q: int) -> "Poly":
        return cls([QuadCoeff(1, 0, q)], q)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> QuadCoeff:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return QuadCoeff(0, 0, self.q)

    @property
    def constant_term(self) -> QuadCoeff:
        return self.coefficient(0)

    def _check(self, other: "Poly"):
        if other.q != self.q:
            raise ValueError("mixed ground fields")

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out = [QuadCoeff(0, 0, self.q)] * (
                len(self.coefficients) + len(other.coefficients) - 1
            )
            for i, ci in enumerate(self.coefficients):
                if not ci:
                    continue
                for j, cj in enumerate(other.coefficients):
                    out[i + j] = out[i + j] + ci * cj
            return Poly(out, self.q)
        if isinstance(other, (int, Rational, QuadCoeff)):
            s = _as_quad(other, self.q)
            return Poly([c * s for c in self.coefficients], self.q)
        return NotImplemented

    __rmul__ = __mul__

    def eval_complex(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * t + complex(c)
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.q == other.q and self.coefficients == other.coefficients
        return NotImplemented

    def __bool__(self):
        return bool(self.coefficients)

    def to_str(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            # Pull an overall minus sign out of coefficients that live on a
            # single ray (pure rational, or a pure sqrt(q) multiple) so the
            # join below can absorb it into the separator.
            if c.a == 0 and c.b < 0:
                cs = f"-({-c})"
            else:
                cs = str(c)
                if not c.is_rational:
                    cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                power = "t" if i == 1 else f"t^{i}"
                if cs == "1":
                    term = power
                elif cs == "-1":
                    term = f"-{power}"
                else:
                    term = f"{cs}*{power}"
                parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"Poly({self.to_str()})"


def factor_product(coeffs: Iterable, q: int, power: int = 1) -> Poly:
    """The product of 1 - c*t^power over the coefficients c: an inverse local
    L-factor in t, from its roots' reciprocals.  No coefficients give 1.

    Its coefficients are the signed elementary symmetric functions e_k of
    the c's in every power-th slot, built fraction-free, as series_terms
    runs.  Its delta, the lcm of the c's denominators, makes each
    delta^k e_k an integer pair E_k = A + B*sqrt(q), and each c updates the
    pairs in place, from the top down: E_k <- E_k - (delta c) E_(k-1).  Each
    e_k is reduced once, at the end, to (A + B*sqrt(q))/delta^k.
    """
    roots = [_as_quad(c, q)._v for c in coeffs]
    delta = lcm(*(D for _, _, D, _ in roots))
    E = [(1, 0)]
    for A, B, D, _ in roots:
        f = delta // D
        cA, cB = A * f, B * f
        E.append((0, 0))
        for k in range(len(E) - 1, 0, -1):
            (eA, eB), (pA, pB) = E[k], E[k - 1]
            E[k] = (eA - cA * pA - cB * pB * q, eB - cA * pB - cB * pA)
    spread = [_reduced(0, 0, 1, q)] * (power * (len(E) - 1) + 1)
    spread[::power] = [_reduced(A, B, delta**k, q) for k, (A, B) in enumerate(E)]
    return Poly(spread, q, delta)


class RationalFunction:
    """Quotient num/den of polynomials, den != 0.

    den has constant term 1, as every factor_product has, or 0, a pole at
    the origin that series_terms refuses; any other constant term raises
    ValueError rather than being scaled to 1.  Equality is
    cross-multiplicative, so the type is unhashable; series_of expands it,
    and eval_complex evaluates it in floating point.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        if den.constant_term not in (0, 1):
            raise ValueError("the denominator's constant term must be 1, or 0 at a pole")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def q(self) -> int:
        return self.num.q

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def eval_complex(self, t: complex) -> complex:
        return self.num.eval_complex(t) / self.den.eval_complex(t)

    def __repr__(self):
        return f"RationalFunction(({self.num.to_str()}) / ({self.den.to_str()}))"


class TruncatedSeries:
    """Power series through a fixed order N: exactly N+1 coefficients.

    A reduced view of unreduced triples, for the callers that read
    coefficients (series_of, the Bessel values and the direct side); the
    operations are indexing and ==.
    """

    __slots__ = ("coefficients", "q")

    def __init__(self, coefficients: Sequence, q: int):
        coeffs = tuple(
            c if type(c) is QuadCoeff and c._v[3] == q else _as_quad(c, q)
            for c in coefficients
        )
        if not coeffs:
            raise ValueError("a truncated series holds at least the order-0 term")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int) -> QuadCoeff:
        return self.coefficients[i]

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (
                self.q == other.q
                and self.order == other.order
                and self.coefficients == other.coefficients
            )
        return NotImplemented

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coefficients]})"


def series_terms(rf: RationalFunction, n: int) -> list:
    """Taylor coefficients of rf at t = 0 through order n, by long division,
    as unreduced triples (A, B, D) = (A + B*sqrt(q))/D with D > 0.

    With num = sum c_k t^k and den = sum d_k t^k, the expansion s
    satisfies s_k = c_k - sum_{j>=1} d_j s_{k-j}: RationalFunction admits
    a nonzero d_0 only when it is exactly 1, so there is nothing to divide by.

    The recurrence runs fraction-free in Z[sqrt(q)].  With N the lcm of the
    denominators of c_0 ... c_n and delta = den.delta (from factor_product)
    or else the lcm of the d_j's, E_j = delta^j d_j is integral (checked),
    and S_k = N delta^k s_k = N delta^k c_k - sum_{j>=1} E_j S_{k-j}.  Term
    k is (A, B, N delta^k) with S_k = A + B sqrt(q); nothing is reduced.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if not rf.den.constant_term:
        raise PoleAtOriginError("pole at origin: denominator vanishes at t = 0")
    q = rf.q
    num = [c._v[:3] for c in rf.num.coefficients[: n + 1]]
    dens = rf.den.coefficients[1 : n + 1]
    delta = rf.den.delta or lcm(*(d._v[2] for d in dens))
    scaled = []  # E_j as (j, A, B q, B), for the nonzero d_j only
    for j, d in enumerate(dens, 1):
        dA, dB, dD = d._v[:3]
        f, r = divmod(delta**j, dD)
        if r:
            raise ValueError(f"delta = {delta} leaves delta^{j} d_{j} outside Z[sqrt({q})]")
        if dA or dB:
            scaled.append((j, dA * f, dB * f * q, dB * f))
    scale = lcm(*(D for _, _, D in num))  # N delta^k, advanced by delta each k
    out = []
    for k in range(n + 1):
        A, B, D = num[k] if k < len(num) else (0, 0, scale)
        f = scale // D
        A, B = A * f, B * f
        for j, eA, eBq, eB in scaled:
            if j > k:
                break
            sA, sB, _ = out[k - j]
            A -= eA * sA + eBq * sB
            B -= eA * sB + eB * sA
        out.append((A, B, scale))
        scale *= delta
    return out


def series_of(rf: RationalFunction, n: int) -> TruncatedSeries:
    """series_terms with each term reduced once, by gcd(D, A, B), to the
    normal form of QuadCoeff arithmetic.  The local check compares the
    unreduced terms instead (terms_equal) and reduces only a witness."""
    return TruncatedSeries([_reduced(*t, rf.q) for t in series_terms(rf, n)], rf.q)


def terms_equal(x: tuple, y: tuple) -> bool:
    """Equality of unreduced triples (A, B, D), D > 0, by cross-multiplication:
    the test of equal pairs (a, b), so of equal normal forms, with no gcd."""
    return x[0] * y[2] == y[0] * x[2] and x[1] * y[2] == y[1] * x[2]
