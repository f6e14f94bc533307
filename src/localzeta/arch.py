"""The archimedean zeta integral: Whittaker functions, Mellin identity,
quadrature, and closed Gamma-product forms.

The closed form is a ratio of Gamma values with powers of D and 4*pi in
front; the quadrature path integrates the printed (lambda, u) double
integral with no analytic shortcuts (in particular the u-integral, whose
closed value is elementary, is still done numerically so the comparison
is a genuine two-route check).

The lambda-integral, the u-integral and the Mellin identity share one
globally adaptive, row-wise Gauss-Kronrod rule (QUADPACK's 10/21-point
pair): one pass integrates several integrands on shared intervals, each
to its own tolerance, evaluating them once per round on every new node.
Like QUADPACK's qagp, the rule starts from caller-given breakpoints: the
Mellin tail from 1, 2, 4, ..., 32, 120 and the lambda-integral from 0,
1/8, 1/4, 1/2, 1, each graded toward where its integrand varies fastest;
the Mellin head and the u-integral start from one interval.
The lambda-integrals at all the u-nodes of a u-round are one pass; with
lambda scaled by u, their Whittaker arguments 4 pi sqrt(D) u lambda do
not depend on u, so every row of the pass shares each W evaluation.
The rule alone decides convergence: where a row misses its tolerance it
raises QuadratureError, with a witness, instead of returning a value.
No route checks convergence itself, and only the confluent-U grid below,
which has no error estimate yet, returns a value unchecked.

Whittaker evaluation is written here from scratch: a tanh-sinh quadrature
of the confluent-U integral representation where it converges, and an
upward recurrence in the first index from two safely-convergent seeds
otherwise (from U(0, b, x) = 1, where U is a polynomial).  An integral
builds its W route, with the node table that depends on (kappa, mu)
alone, once; each round then pays one real exponential over the
(argument, node) grid and one matrix product.  The grid's accuracy is
pinned in the test suite against mpmath, used only there as an oracle.

Gamma values come from scipy.special, the slowest import of the package.
It is imported on the first Gamma evaluation, not with this module, so a
process that never evaluates Gamma never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class DomainError(ValueError):
    """Parameters outside the region where an evaluation route converges."""


class QuadratureError(DomainError):
    """A numerical route stopped short of its tolerance.

    ``witness`` says where and by how much, so a failed check can report
    it as is; the Gauss-Kronrod rule raises it for every integral in this
    module.  Each witness entry is also an attribute.
    """

    def __init__(self, route: str, **witness):
        shown = ", ".join(f"{key} = {value!r}" for key, value in witness.items())
        super().__init__(f"{route} did not converge: {shown}")
        self.witness = witness
        vars(self).update(witness)


@functools.cache
def _special():
    """scipy.special, imported once, on the first Gamma evaluation."""
    import scipy.special
    return scipy.special


def gamma_fn(z: complex) -> complex:
    """Gamma function on the complex plane, with explicit pole detection.

    Backed by scipy's complex Gamma (Lanczos-class accuracy, relative
    error well under 1e-12 for |z| <= 50), which the first call imports;
    this wrapper adds the pole check so callers get an exception instead
    of nan.
    """
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise GammaPoleError(f"gamma pole at z = {z.real:g}")
    return complex(_special().gamma(z))


def _reciprocal_gamma(z: complex) -> complex:
    """1/Gamma, entire (zero at the poles of Gamma)."""
    return complex(_special().rgamma(complex(z)))


# ---------------------------------------------------------------------------
# Whittaker W
# ---------------------------------------------------------------------------

#: Arguments where the public entry point guarantees its accuracy contract.
WHITTAKER_X_RANGE = (1e-3, 50.0)

@dataclass(frozen=True)
class WhittakerQuery:
    """One W_{kappa, mu}(x) evaluation request, x > 0."""

    kappa: complex
    mu: complex
    x: float

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError("x must be positive")


def _confluent_u_pair(a: complex, b: complex):
    """The route to U(a, b, x) and U(a+1, b, x) for an array of positive x.

    U(a,b,x) = Gamma(a)^-1 * int_0^inf e^(-x t) t^(a-1) (1+t)^(b-a-1) dt,
    valid for Re(a) > 0, summed on one tanh-sinh grid (Takahasi & Mori's
    double-exponential rule) with the fixed step h = 0.05; the nodes
    handle the t -> 0 endpoint.  A term's phase depends on its node only,
    so the route builds the node table once, the phases bare and times
    t/(1+t), with both 1/Gamma factors; each call then pays one real
    exponential over the (x, node) grid and one matrix product.

    The route has no error estimate yet.  Against mpmath.hyperu, on the
    (a, b) pairs the verify-arch battery passes, both members agree to
    relative 1.7e-11 at x = 0.01 and 6.1e-15 for 0.1 <= x <= 120; below
    x = 0.01 the error grows (2e-10 at x = 0.005, 1.9e-8 at x = 1e-3,
    6.5e-2 at x = 1.15e-9).
    """
    if a.real <= 0:
        raise DomainError("confluent-U integral route requires Re(a) > 0")
    h = 0.05
    n = int(math.ceil(max(4.2, math.log(200.0 / a.real)) / h))
    v = h * np.arange(-n, n + 1)
    log_t = 0.5 * math.pi * np.sinh(v)  # t = exp((pi/2) sinh v)
    t = np.exp(log_t)
    # weight t * (pi/2) cosh(v) * h, folded into the t^a factor below
    log_weight = np.log(0.5 * math.pi * np.cosh(v) * h)
    # integrand e^(-x t) t^a (1+t)^(b-a-1), all in log form
    log_pow = a * log_t + (b - a - 1) * np.log1p(t) + log_weight
    # e^(-x t + log_pow) = e^(-x t + Re log_pow) * e^(i Im log_pow)
    phase = np.exp(1j * log_pow.imag)
    shift = np.exp(log_t - np.log1p(t))  # extra t/(1+t) for the a+1 member
    nodes = np.stack([phase, phase * shift], axis=1).view(float)
    scale, scale_up = _reciprocal_gamma(a), _reciprocal_gamma(a + 1)

    def pair(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        sums = (np.exp(-np.outer(xs, t) + log_pow.real) @ nodes).view(complex)
        return sums[:, 0] * scale, sums[:, 1] * scale_up
    return pair


def _whittaker_w_route(kappa: complex, mu: complex):
    """The route to W_{kappa,mu} for an array of positive x, built once.

    W = e^(-x/2) x^(mu+1/2) U(mu-kappa+1/2, 1+2mu, x).  Where the integral
    route for U converges comfortably (Re(mu-kappa+1/2) >= 1) it is used
    directly (n = 0 below).  Otherwise the first index is lowered by an
    integer n until both seed evaluations are safely convergent, and the
    three-term recurrence

        W_{k+1,mu}(x) = (x - 2k) W_{k,mu}(x)
                        - (k-mu-1/2)(k+mu-1/2) W_{k-1,mu}(x)

    walks back up.  W grows factorially in the first index, so the upward
    direction is the numerically dominant (stable) one.  Where U is a
    polynomial of degree n (a = -n), the walk takes n steps up from
    U(0, 1+2mu, x) = 1, which covers every discrete-series evaluation.
    The walk stops once every value is inf or nan, or zero above a zero,
    as no further step changes that.
    """
    kappa = complex(kappa)
    mu = complex(mu)
    a = mu - kappa + 0.5
    if abs(a.imag) < 1e-12 and abs(a.real - round(a.real)) < 1e-12 and round(a.real) <= 0:
        n, guarded = int(-round(a.real)), False
        k0, seeds = mu + 0.5, lambda xs: (1, 0)  # W_{k0-1} has weight zero in the first step
    else:
        n = 0 if a.real >= 1.0 else int(math.ceil(1.0 - a.real)) + 2
        guarded, k0 = n and mu.real >= 1.0, kappa - n
        # a(k0) = a + n and a(k0 - 1) = a + n + 1: one node grid, both seeds
        seeds = _confluent_u_pair(a + n, 1 + 2 * mu)

    def w(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if np.any(xs <= 0):
            raise DomainError("Whittaker argument must be positive")
        if guarded and float(np.min(xs)) < 1.0:
            # The value is dominated by cancellation between the x^(1/2-mu)
            # and x^(1/2+mu) branches, which the upward recurrence cannot
            # resolve in double precision.
            raise DomainError(
                "unsupported domain: first index too large for the integral "
                "route while Re(mu) >= 1 at small argument"
            )
        u_k0, u_below = seeds(xs)
        envelope = np.exp(-xs / 2 + (mu + 0.5) * np.log(xs))
        w_prev = envelope * u_below  # W_{k0-1}
        w_curr = envelope * u_k0  # W_{k0}
        k = k0
        for step in range(1, n + 1):
            w_next = (xs - 2 * k) * w_curr - (k - mu - 0.5) * (k + mu - 0.5) * w_prev
            w_prev, w_curr = w_curr, w_next
            k = k + 1
            # After 1, 2, 4, 8, ... steps, once the sum is 0 or not finite: stop
            # if no value can come back from past the float range, or leave 0.
            if not step & (step - 1) and not 0 < abs(w_curr.sum()) < math.inf:
                if not (np.isfinite(w_curr) & ((w_curr != 0) | (w_prev != 0))).any():
                    break
        return w_curr
    return w


def whittaker_w(wq: WhittakerQuery) -> complex:
    """Classical W_{kappa,mu}(x) inside the supported argument window."""
    lo, hi = WHITTAKER_X_RANGE
    if not (lo <= wq.x <= hi):
        raise DomainError(
            f"x = {wq.x:g} outside the supported window [{lo:g}, {hi:g}]"
        )
    return complex(_whittaker_w_route(wq.kappa, wq.mu)(np.array([wq.x]))[0])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature and the Mellin transform identity
# ---------------------------------------------------------------------------


# The 10-point Gauss / 21-point Kronrod pair on [-1, 1], as in QUADPACK's
# qk21: Kronrod abscissae from the end point inwards (the last is the
# centre; every second one, from the second, is a Gauss abscissa) and
# their Kronrod and Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# All 21 abscissae in ascending order; the Gauss ones sit at the odd indices.
_KRONROD_NODES = np.array(tuple(-x for x in _XGK) + _XGK[-2::-1])
_KRONROD_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
_GAUSS_WEIGHTS = np.array(_WG + _WG[::-1])

#: Most integrand arguments passed in one call.  A W evaluation builds a
#: confluent-U node grid of (arguments x tanh-sinh nodes) real values,
#: about 5 MB at this many arguments, so a wide refinement round is
#: evaluated in pieces (all rows of the lambda-integrand share the W call
#: of each piece).
_EVAL_CHUNK = 3072


#: Most intervals the rule uses on one integral.
_LIMIT = 200


@dataclass(frozen=True)
class _Quadrature:
    """One converged adaptive Gauss-Kronrod integral: its value, the error
    estimate (the sum of |Kronrod - Gauss| over the final intervals), the
    tolerance it met, and the intervals and integrand values it used."""

    value: complex
    abserr: float
    tolerance: float
    intervals: int
    evaluations: int


def _g10k21(f, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |Kronrod - Gauss| of each row of f on each
    interval [lo_i, hi_i], from one pass of f over all their nodes; an f
    with one row may return it as a 1-D array.

    The rule calls it with overflow silenced: a value past the float range
    reaches the rule as inf or nan, which fails it with a witness.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (centre[:, None] + half[:, None] * _KRONROD_NODES[None, :]).ravel()
    fx = np.concatenate([f(x[i : i + _EVAL_CHUNK]) for i in range(0, x.size, _EVAL_CHUNK)], axis=-1)
    fx = fx.reshape(-1, lo.size, _KRONROD_NODES.size)
    kronrod = half * (fx @ _KRONROD_WEIGHTS)
    gauss = half * (fx[:, :, 1::2] @ _GAUSS_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss)


def _gauss_kronrod_rows(
    f, points: Tuple[float, ...], epsabs: float, epsrel: float, route: str, **where
) -> List[_Quadrature]:
    """Globally adaptive G10K21 quadrature of each row of f(x) over
    [points[0], points[-1]], starting from the intervals between the
    ascending breakpoints ``points``, as QUADPACK's qagp does.

    f maps an array of nodes to a (rows, nodes) array, or to a 1-D array
    for one row.  The rows share intervals; each has its own value, error
    estimate and tolerance max(epsabs, epsrel * |value|).  The first round
    evaluates f on every interval of the mesh; each later round bisects
    every interval some row would split (its largest estimates, down to
    where the rest fit under half its tolerance; at the _LIMIT cap, those
    of largest estimate/tolerance) and evaluates f on all new nodes
    together, until every row meets its tolerance.  A mesh graded toward
    where the integrand varies fastest saves the rounds that bisection
    from one interval would spend reaching it.

    Raises QuadratureError for ``route`` when a value cannot be sized (inf,
    nan, or a modulus past the float range), at once, or when a row is
    above its tolerance on _LIMIT intervals.  The witness names the
    unsized row, else the first row that missed: each ``where`` entry
    gives one value per row, of which it takes that row's as a float,
    then come the segment (points[0], points[-1]), the intervals in use,
    the row's error estimate and its tolerance (nan for an unsized row).
    """
    mesh = np.array(points, dtype=float)
    lo, hi = mesh[:-1], mesh[1:]
    evaluations = lo.size * _KRONROD_NODES.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        est, err = _g10k21(f, lo, hi)
        rows = np.arange(est.shape[0])[:, None]
        while True:
            value = est.sum(axis=1)
            abserr = err.sum(axis=1)
            size = np.abs(value)
            tolerance = np.maximum(epsabs, epsrel * size)
            met = abserr <= tolerance
            sized = size.max() < math.inf
            if sized and met.all():
                return [
                    _Quadrature(complex(v), float(e), float(t), lo.size, evaluations)
                    for v, e, t in zip(value, abserr, tolerance)
                ]
            if not sized or lo.size >= _LIMIT:
                # the first row that missed, or that cannot be sized ("not <" takes nan)
                r = int(np.argmax(~met if sized else ~(size < math.inf)))
                raise QuadratureError(
                    route,
                    **{key: float(values[r]) for key, values in where.items()},
                    segment=(float(mesh[0]), float(mesh[-1])),
                    intervals=lo.size,
                    abserr=float(abserr[r]),
                    tolerance=float(tolerance[r]) if sized else math.nan,
                )
            column = tolerance[:, None]
            order = err.argsort(axis=1)
            wanted = np.empty(err.shape, dtype=bool)
            wanted[rows, order] = err[rows, order].cumsum(axis=1) > 0.5 * column
            ranked = (err / column).max(axis=0).argsort()
            split = ranked[wanted.any(axis=0)[ranked]]
            split = split[max(0, split.size - (_LIMIT - lo.size)) :]
            keep = np.ones(lo.size, dtype=bool)
            keep[split] = False
            mid = 0.5 * (lo[split] + hi[split])
            new_lo = np.concatenate([lo[split], mid])
            new_hi = np.concatenate([mid, hi[split]])
            new_est, new_err = _g10k21(f, new_lo, new_hi)
            evaluations += new_lo.size * _KRONROD_NODES.size
            lo = np.concatenate([lo[keep], new_lo])
            hi = np.concatenate([hi[keep], new_hi])
            est = np.concatenate([est[:, keep], new_est], axis=1)
            err = np.concatenate([err[:, keep], new_err], axis=1)


def mellin_whittaker(
    kappa: complex, mu: complex, sigma: complex
) -> Tuple[complex, complex]:
    """The Mellin integral of e^(-x/2) W_{kappa,mu}(x) and its Gamma form.

    int_0^inf e^(-x/2) x^(sigma-1) W_{kappa,mu}(x) dx
        = Gamma(sigma+mu+1/2) Gamma(sigma-mu+1/2) / Gamma(sigma-kappa+1).

    Returns (numeric, closed).  The numeric value is the Gauss-Kronrod
    rule's on [0, 1] (in y, with x = y^2 to soften the endpoint power),
    from the one interval, and on [1, 120], from the graded first mesh
    1, 2, 4, 8, 16, 32, 120 (qagp's breakpoints): the integrand decays
    like e^(-x) x^c, so it varies on a scale that grows with x.  Each
    segment is held to max(1e-12, 1e-11 * |value|) by its own error
    estimate, and the closed value is the Gamma product.
    Convergence at 0 requires Re(sigma) > |Re(mu)| - 1/2 (DomainError
    otherwise, before any W is evaluated); a segment that misses its
    tolerance raises the rule's QuadratureError, naming that segment.
    """
    kappa = complex(kappa)
    mu = complex(mu)
    sigma = complex(sigma)
    if sigma.real <= abs(mu.real) - 0.5:
        raise DomainError(
            "Mellin integral diverges: need Re(sigma) > |Re(mu)| - 1/2"
        )

    w = _whittaker_w_route(kappa, mu)  # one route for both segments

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.exp(-x / 2) * np.exp((sigma - 1) * np.log(x)) * w(x)

    # y = sqrt(x) runs over the same [0, 1] as x on the head
    (head,) = _gauss_kronrod_rows(
        lambda y: 2 * y * integrand(y * y), (0.0, 1.0), 1e-12, 1e-11, "Mellin integral"
    )
    (tail,) = _gauss_kronrod_rows(
        integrand, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 120.0), 1e-12, 1e-11, "Mellin integral"
    )
    numeric = head.value + tail.value
    closed = (
        gamma_fn(sigma + mu + 0.5)
        * gamma_fn(sigma - mu + 0.5)
        * _reciprocal_gamma(sigma - kappa + 1)
    )
    return numeric, closed


# ---------------------------------------------------------------------------
# The archimedean integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArchScenario:
    """Parameters of one archimedean evaluation.

    l: even weight >= 2.  q_c: central-character exponent (omega(y) = y^q).
    r: spectral parameter (the Casimir eigenvalue is -(1/4 + (r/2)^2)).
    D: positive integer congruent to 0 or 3 mod 4.  s: the complex
    variable, where the integral converges: Re(6s + l - q_c) > 0
    (DomainError otherwise).  a_plus: the normalization constant (an
    input, not derived; globally it equals the first Fourier coefficient
    c(1)).
    """

    l: int
    q_c: complex
    r: complex
    D: int
    s: complex
    a_plus: complex

    def __post_init__(self):
        if self.l < 2 or self.l % 2:
            raise ValueError("l must be an even integer >= 2")
        if self.D <= 0 or self.D % 4 not in (0, 3):
            raise ValueError("D must be a positive integer = 0 or 3 mod 4")
        margin = (6 * complex(self.s) + self.l - complex(self.q_c)).real
        if margin <= 0:
            raise DomainError(f"requires Re(6s + l - q_c) > 0; got {margin:g}")

    @property
    def ir(self) -> complex:
        return 1j * complex(self.r)

    @classmethod
    def principal_series(cls, l, s1, s2, D, s, a_plus) -> "ArchScenario":
        """tau = chi_1 x chi_2 with |.|-exponents s1, s2: q = s1+s2, ir = s1-s2."""
        return cls(
            l=l,
            q_c=complex(s1) + complex(s2),
            r=-1j * (complex(s1) - complex(s2)),
            D=D,
            s=s,
            a_plus=a_plus,
        )

    @classmethod
    def discrete_series(cls, l, l1, q_c, D, s, a_plus) -> "ArchScenario":
        """tau = the (limit of) discrete series of lowest weight l1: ir = l1-1."""
        return cls(
            l=l, q_c=q_c, r=-1j * (l1 - 1), D=D, s=s, a_plus=a_plus
        )


def _gamma_quotient(l: int, D: int, q_c, ir, s, a_plus) -> complex:
    """The closed form's formula, for any s; see z_inf_closed."""
    s = complex(s)
    q = complex(q_c)
    ir = complex(ir)
    front = (
        (a_plus / 2)
        * math.pi
        * complex(D) ** (-3 * s - l / 2 + q / 2)
        * (4 * math.pi) ** (-3 * s + 1.5 - l + q)
    )
    num = gamma_fn(3 * s + l - 1 + ir / 2 - q / 2) * gamma_fn(
        3 * s + l - 1 - ir / 2 - q / 2
    )
    return front * num * _reciprocal_gamma(3 * s + (l + 1 - q) / 2)


def z_inf_closed(sc: ArchScenario) -> complex:
    """The closed form:

    (a+/2) pi D^(-3s-l/2+q/2) (4 pi)^(-3s+3/2-l+q)
        Gamma(3s+l-1+ir/2-q/2) Gamma(3s+l-1-ir/2-q/2) / Gamma(3s+(l+1-q)/2)
    """
    return _gamma_quotient(sc.l, sc.D, sc.q_c, sc.ir, sc.s, sc.a_plus)


def _lambda_integral(sc: ArchScenario, us: np.ndarray) -> np.ndarray:
    """int_0^inf lambda^(3s-3/2+l-q/2) W_{l/2,ir/2}(4 pi lam sqrt(D) u)
    e^(-2 pi lam sqrt(D) u) dlam/lam, cut at lam_max, for each u in ``us``
    as one row of the Gauss-Kronrod rule over x = lam / lam_max in [0, 1],
    to 1e-9 relative.  Its rows share each W call: W is taken at
    reach * x, which does not depend on u.  The rule starts from the
    graded mesh 0, 1/8, 1/4, 1/2, 1 (qagp's breakpoints): each integrand
    rises from 0 and peaks well below x = 1, where it has decayed.

    A row that misses its tolerance raises the rule's QuadratureError,
    whose witness names that row's ``u``.
    """
    power = 3 * complex(sc.s) - 1.5 + sc.l - complex(sc.q_c) / 2  # exponent of lambda
    # The integrand decays like e^(-2 * scale * lam) with polynomial growth
    # of combined degree Re(power) + l/2 (the W factor grows like z^(l/2)
    # under its exponential).  Integrate far past the peak.
    reach = max(power.real + sc.l / 2, 1.0) + 60.0
    scale = 2 * math.pi * math.sqrt(sc.D) * us
    lam_max = reach / (2 * scale)
    w = _whittaker_w_route(sc.l / 2, sc.ir / 2)  # one route for every round

    def integrand(x: np.ndarray) -> np.ndarray:
        lam = np.outer(lam_max, x)
        w_vals = w(reach * x)  # = W(2 * scale * lam)
        return np.exp((power - 1) * np.log(lam) - scale[:, None] * lam) * w_vals

    quads = _gauss_kronrod_rows(
        integrand, (0.0, 0.125, 0.25, 0.5, 1.0), 0.0, 1e-9,
        "lambda-integral in x = lam / lam_max", u=us,
    )
    return lam_max * np.array([quad.value for quad in quads])


def z_inf_quadrature(sc: ArchScenario) -> complex:
    """Numerical evaluation of the printed double integral:

    a+ pi D^(-3s/2-3/4+q/4) (4 pi)^(q/2)
        int_1^inf int_0^inf lambda^(3s-3/2+l-q/2) u^(-3s-3/2+q/2)
            W_{l/2,ir/2}(4 pi lam sqrt(D) u) e^(-2 pi lam sqrt(D) u)
            dlam/lam du

    The u-integral is done numerically even though its closed value is
    elementary, so this route shares no algebra with z_inf_closed: the
    Mellin route's Gauss-Kronrod rule takes it over t = 1/u in (0, 1], to
    max(1e-13, 1e-9 * |value|).  Each of its rounds takes the
    lambda-integrals at all its u-nodes in one row-wise pass of the same
    rule, whose rows share their W evaluations (see _lambda_integral).

    The rule's QuadratureError propagates unchanged when the
    lambda-integral at some u-node (witness entry ``u``, segment (0, 1) in
    lambda / lambda_max) or the u-integral (segment (0, 1) in t) misses
    its tolerance.
    """
    s = complex(sc.s)
    q = complex(sc.q_c)
    u_power = -3 * s - 1.5 + q / 2

    def integrand(t: np.ndarray) -> np.ndarray:
        # u = 1/t, so du = -dt / t^2
        u = 1.0 / t
        return np.exp(u_power * np.log(u)) * _lambda_integral(sc, u) / (t * t)

    (quad,) = _gauss_kronrod_rows(integrand, (0.0, 1.0), 1e-13, 1e-9, "u-integral in t = 1/u")
    front = (
        sc.a_plus
        * math.pi
        * complex(sc.D) ** (-1.5 * s - 0.75 + q / 4)
        * (4 * math.pi) ** (q / 2)
    )
    return front * quad.value


# ---------------------------------------------------------------------------
# Fourier-coefficient helpers
# ---------------------------------------------------------------------------


def c1_coefficient(l: int, l1: int, r: complex, a1: complex) -> complex:
    """First coefficient after shifting weight l1 to weight l.

    a1 when l1 <= l; otherwise a1 times
    prod_{t = l+2, step 2}^{l1} (ir/2 + 1/2 - t/2)(ir/2 - 1/2 + t/2).
    """
    if l % 2:
        raise ValueError("l must be even")
    if l1 <= l:
        return complex(a1)
    ir = 1j * complex(r)
    value = complex(a1)
    for t in range(l + 2, l1 + 1, 2):
        value *= (ir / 2 + 0.5 - t / 2) * (ir / 2 - 0.5 + t / 2)
        if not value or (math.isnan(value.real) and math.isnan(value.imag)):
            break  # a zero stays zero (up to its sign), and a nan stays nan
    return value
