"""The fixed verification batteries, each check defined once.

A battery is an iterable of checks, and a check is a ``(name, thunk)``
pair: calling the thunk runs one verdict and returns ``(ok, witness)``,
where the witness is None or a dict that explains the verdict.  The names
are the record names of the command-line ``--format machine`` output, one
function per command builds its battery, and nothing runs until a thunk is
called, so a caller can time each check on its own.

Library functions are looked up through their module when a check runs,
so a test can replace one with ``monkeypatch`` and see which check fails.
The checks import ``arch``, ``assembly`` and ``cosets`` when they run, so
a command loads only the layers its battery uses: the local and lfactor
batteries load neither numpy nor scipy.
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import localfield, zeta
from .exact import rat
from .localfield import LocalQuadData, SplittingSymbol
from .rng import scenario_stream
from .satake import SatakeParams, SteinbergData
from .zeta import ScenarioData

if TYPE_CHECKING:
    from .arch import ArchScenario
    from .assembly import GlobalInput

Witness = Optional[Dict[str, object]]
Check = Tuple[str, Callable[[], Tuple[bool, Witness]]]

SYMBOL_NAMES = {
    SplittingSymbol.INERT: "inert",
    SplittingSymbol.RAMIFIED: "ramified",
    SplittingSymbol.SPLIT: "split",
}

# Relative tolerances of the archimedean battery: quadrature against the
# closed value (the default of the CLI's --tol), the first-moment
# transform, and the collapse of W to an elementary function.
ZINF_TOLERANCE = 1e-6
MELLIN_TOLERANCE = 1e-8
COLLAPSE_TOLERANCE = 1e-10


@cache
def arch_grid() -> Tuple[Tuple[str, ArchScenario], ...]:
    """The tagged default scenarios of the archimedean battery."""
    from .arch import ArchScenario
    ds, ps = ArchScenario.discrete_series, ArchScenario.principal_series
    return (
        ("ds-a", ds(12, 12, 0, 4, 1.5, 1)),
        ("ds-b", ds(12, 12, 0, 3, 1.5, 1)),
        ("ds-c", ds(12, 10, 0, 4, 1.0, 2)),
        ("ds-d", ds(12, 8, 0, 3, 1.25, 1)),
        ("ds-e", ds(14, 12, 0, 4, 1.5, 1)),
        ("ds-f", ds(12, 12, 1, 3, 1.5, 1)),
        ("ds-g", ds(16, 14, 0.5, 4, 2.0, 0.5)),
        ("ps-a", ps(12, 0.2, -0.2, 3, 1, 1)),
        ("ps-b", ps(12, 0.2, -0.2, 4, 1, 1)),
        ("ps-c", ps(10, 0.2, -0.2, 4, 1.2, 1.5)),
        ("ps-d", ps(12, 0.1, 0.3, 3, 1, 1)),
        ("ps-e", ps(12, 0.25j, -0.25j, 3, 1, 1)),
        ("ps-f", ps(14, 0.25j, -0.25j, 3, 0.8, 1)),
    )


# (kappa, mu, sigma) of the first-moment transform, and (mu, z) of W's
# collapse at kappa = mu + 1/2.
MELLIN_POINTS = tuple(
    (kappa, mu, sigma)
    for kappa in (0, -0.5, 0.5, 1, 6)
    for mu in (0, 0.5j)
    for sigma in (1, 2, 5)
) + ((6, 5.5, 6),)
COLLAPSE_POINTS = tuple((mu, z) for mu in (0.0, 0.5, 3.0, 5.5) for z in (0.5, 2.0, 10.0))

# One (a, b, c) presentation per residue class: xi0 has minimal polynomial
# x^2 + b x + ac, so the discriminant b^2 - 4ac decides the splitting.
ORACLE_TRIPLES = {
    (2, "inert"): (-1, 1, 1),
    (2, "ramified"): (1, 0, 1),
    (2, "split"): (0, 1, 1),
    (3, "inert"): (1, 0, 1),
    (3, "ramified"): (1, 1, 1),
    (3, "split"): (-1, 0, 1),
    (5, "inert"): (2, 0, 1),
    (5, "ramified"): (-1, 1, 1),
    (5, "split"): (1, 0, 1),
}

# The Steinberg primes of the level-factor checks, each of them checked at
# s = 1/2, 1/3 and 1 (rational, with 6s + 1 an integer).
LEVEL_FACTOR_PAIRS = ((2, SplittingSymbol.INERT), (3, SplittingSymbol.RAMIFIED), (5, SplittingSymbol.SPLIT))


def trivial_local(p: int, symbol: SplittingSymbol) -> LocalQuadData:
    """Local data with the trivial character (every slot 1), for volume formulas."""
    one = rat(1)
    piL = None if symbol is SplittingSymbol.INERT else one
    over = one if symbol is SplittingSymbol.SPLIT else None
    return LocalQuadData(p=p, symbol=symbol, lambda_piF=one, lambda_piL=piL, lambda_piF_over_piL=over)


def consistency_input(l: int, D: int) -> GlobalInput:
    """Level one at the holomorphic point ir = l - 1, where Theorem 3 applies."""
    from .assembly import GlobalInput
    return GlobalInput(
        l=l, D=D, N=1, lambda_classvals=(1.0,), fourier_classvals=(1.0,), a1=1.0,
        r=-1j * (l - 1), satake_table={}, gl2_table={}, local_table={},
    )


def level_prime_input(p: int, symbol: SplittingSymbol) -> GlobalInput:
    """Weight 12 at level N = p, with one Steinberg prime of the given class."""
    from .assembly import GlobalInput, PrimeQuadData
    if symbol is SplittingSymbol.INERT:
        local = PrimeQuadData(symbol=-1, lambda_piF=1.0)
    elif symbol is SplittingSymbol.RAMIFIED:
        local = PrimeQuadData(symbol=0, lambda_piF=1.0, lambda_piL=-1.0)
    else:
        local = PrimeQuadData(symbol=1, lambda_piF=1.0, lambda_piL=2.0, lambda_piF_over_piL=0.5)
    return GlobalInput(
        l=12, D=4, N=p, lambda_classvals=(1.0,), fourier_classvals=(1.0,), a1=1.0,
        r=-11j, satake_table={p: (1.0, 1.0, 1.0)}, gl2_table={p: -1.0}, local_table={p: local},
    )


def _strings(**values) -> Dict[str, object]:
    return {key: None if v is None else str(v) for key, v in values.items()}


def theorem1_record(sc: ScenarioData, order: int) -> Tuple[bool, Witness]:
    """Theorem 1 at one scenario through ``order``; a failure names the
    scenario and the first differing coefficient (or m > 0 cell)."""
    rep = zeta.verify_theorem1(sc, order)
    if rep.ok:
        return True, None
    local = sc.local
    witness = {
        "q": local.q,
        "symbol": SYMBOL_NAMES[local.symbol],
        **_strings(
            lambda_piF=local.lambda_piF,
            lambda_piL=local.lambda_piL,
            lambda_piF_over_piL=local.lambda_piF_over_piL,
            u0=sc.sat.u0, u1=sc.sat.u1, u2=sc.sat.u2, omega=sc.st.omega_piF,
        ),
        "series_match": rep.series_match,
        "m_positive_vanishes": rep.m_positive_vanishes,
        "first_difference": rep.first_difference,
        **_strings(direct_coefficient=rep.direct_coefficient, closed_coefficient=rep.closed_coefficient),
    }
    if not rep.m_positive_vanishes:
        witness["first_nonzero_cell"] = rep.first_nonzero_cell
    return False, witness


def local_checks(
    seed: int, trials: int, order: int, scenarios: Optional[Sequence[ScenarioData]] = None
) -> Iterator[Check]:
    """Theorem 1 on the given scenarios, or on ``trials`` seeded scenarios
    in each of the nine (q, class) cells, each drawn as its check is taken."""
    if scenarios is not None:
        named = ((f"local/input/{i:03d}", sc) for i, sc in enumerate(scenarios))
    else:
        named = (
            (f"local/q{q}/{SYMBOL_NAMES[symbol]}/{i:04d}", sc)
            for q in (2, 3, 5)
            for symbol in SplittingSymbol
            for i, sc in enumerate(scenario_stream(seed, symbol, q, trials))
        )
    return ((name, partial(theorem1_record, sc, order)) for name, sc in named)


def _lfactor_report(sc: ScenarioData) -> Tuple[bool, Witness]:
    rf = zeta.z_closed_form(sc)
    witness = {"q": sc.local.q, "symbol": SYMBOL_NAMES[sc.local.symbol]}
    try:
        witness["factor"] = f"({rf.num.to_str()}) / ({rf.den.to_str()})"
    except ValueError:  # a coefficient past int()'s limit on decimal digits
        witness["error"] = "a coefficient has too many digits to print"
    return "factor" in witness, witness


def lfactor_checks(scenarios: Optional[Sequence[ScenarioData]] = None) -> List[Check]:
    """The closed-form local factor of each scenario (default: the trivial
    one at q = 2, inert); these records carry the factor, and fail only when
    it has a coefficient too long to print."""
    if scenarios is None:
        one = rat(1)
        scenarios = [ScenarioData(trivial_local(2, SplittingSymbol.INERT), SatakeParams(one, one, one), SteinbergData(one))]
    return [(f"lfactor/{i:03d}", partial(_lfactor_report, sc)) for i, sc in enumerate(scenarios)]


def _zinf_check(sc: ArchScenario, tolerance: float) -> Tuple[bool, Witness]:
    from . import arch
    closed = arch.z_inf_closed(sc)
    try:
        numeric = arch.z_inf_quadrature(sc)
    except arch.QuadratureError as exc:
        return False, exc.witness
    err = abs(numeric - closed)
    ok = err <= tolerance * (abs(closed) if closed else 1.0)
    return ok, None if ok else {"closed": closed, "quadrature": numeric, "abs_error": err}


def _collapse_check(mu: float, z: float) -> Tuple[bool, Witness]:
    from . import arch
    w = arch.whittaker_w(arch.WhittakerQuery(mu + 0.5, mu, z))
    want = math.exp(-z / 2.0) * z ** (mu + 0.5)
    ok = abs(w - want) <= COLLAPSE_TOLERANCE * abs(want)
    return ok, None if ok else {"computed": w, "elementary": want}


def _mellin_check(kappa, mu, sigma) -> Tuple[bool, Witness]:
    from . import arch
    try:
        numeric, closed = arch.mellin_whittaker(kappa, mu, sigma)
    except arch.QuadratureError as exc:
        return False, exc.witness
    if closed == 0:
        # A reciprocal-gamma zero: the quadrature must vanish at the scale
        # of the gamma-pair numerator.
        scale = abs(arch.gamma_fn(sigma + mu + 0.5) * arch.gamma_fn(sigma - mu + 0.5))
        ok = abs(numeric) <= MELLIN_TOLERANCE * scale
    else:
        ok = abs(numeric - closed) <= MELLIN_TOLERANCE * abs(closed)
    return ok, None if ok else {"quadrature": numeric, "closed": closed}


def arch_checks(
    tolerance: float = ZINF_TOLERANCE, scenarios: Optional[Sequence[ArchScenario]] = None
) -> List[Check]:
    """Quadrature against the closed value on the given scenarios (default:
    ``arch_grid()``) to ``tolerance``, then the fixed-tolerance collapse and
    first-moment identities."""
    named = arch_grid() if scenarios is None else [(f"input-{i:03d}", sc) for i, sc in enumerate(scenarios)]
    return (
        [(f"arch/zinf/{tag}", partial(_zinf_check, sc, tolerance)) for tag, sc in named]
        + [(f"arch/reduction/mu{mu}-z{z}", partial(_collapse_check, mu, z)) for mu, z in COLLAPSE_POINTS]
        + [
            (f"arch/mellin/k{kappa}-mu{mu}-s{sigma}", partial(_mellin_check, kappa, mu, sigma))
            for kappa, mu, sigma in MELLIN_POINTS
        ]
    )


def _audit_check(p: int) -> Tuple[bool, Witness]:
    from . import cosets
    rep = cosets.coset_audit(p)
    witness = {
        "cosets": rep.rep_count,
        "expected": cosets.expected_rep_count(p),
        "group_order": rep.group_order,
        "subgroup_order": rep.subgroup_order,
    }
    if not rep.passed:
        witness.update(
            subgroup_closed=rep.subgroup_closed,
            pairwise_distinct=rep.pairwise_distinct,
            covers_group=rep.covers_group,
            witness=rep.witness,
            positions=rep.positions,
            families=rep.families,
        )
    return rep.passed, witness


def _count_polynomial_check() -> Tuple[bool, Witness]:
    from . import cosets
    return cosets.count_polynomial_identity(), None


def _identity_check(which: str, trials: int, seed: int) -> Tuple[bool, Witness]:
    from . import cosets
    witness = cosets.matrix_identity_witness(which, trials=trials, seed=seed)
    return witness is None, witness


def coset_checks(p: int, seed: int, trials: int) -> List[Check]:
    """The exhaustive coset audit at p (2 or 3), the count polynomial, and
    ``trials`` random substitutions mod 2^31 - 1 into each matrix identity,
    a failure naming the trial, its residues and the first differing entry."""
    from .cosets import IDENTITY_NAMES
    return [
        (f"cosets/p{p}/audit", partial(_audit_check, p)),
        ("cosets/count-polynomial", _count_polynomial_check),
    ] + [
        (f"cosets/identity/{which}", partial(_identity_check, which, trials, seed))
        for which in IDENTITY_NAMES
    ]


def _index_check(data: LocalQuadData, abc: Tuple[int, int, int], m: int) -> Tuple[bool, Witness]:
    formula = localfield.unit_index(data, m)
    counted = localfield.unit_index_oracle(*abc, data.p, m)
    ok = formula == counted
    return ok, None if ok else {"formula": str(formula), "oracle": counted}


def _cancellation_check(data: LocalQuadData) -> Tuple[bool, Witness]:
    from . import cosets
    for l in (2, 4, 6):
        for m in range(1, 5):
            v1 = cosets.volume_V1(data, l, m)
            v2 = cosets.volume_V2(data, l, m)
            if v1 * data.q != v2:
                return False, {"l": l, "m": m, "V1": str(v1), "V2": str(v2)}
    return True, None


def _ksharp_check(q: int) -> Tuple[bool, Witness]:
    from . import cosets
    volume = cosets.vol_k_sharp(q)
    ok = volume * cosets.expected_rep_count(q) == 1
    return ok, None if ok else {"volume": str(volume)}


def volume_checks() -> List[Check]:
    """The unit index against the finite-quotient count for m <= 3, the
    cancellation V2 = q V1 for l in (2, 4, 6) and m in 1..4, and the
    level-subgroup volume, in every (q, class) cell."""
    checks = []
    for (p, cls), abc in sorted(ORACLE_TRIPLES.items()):
        a, b, c = abc
        symbol = localfield.splitting_symbol(b * b - 4 * a * c, p)
        assert SYMBOL_NAMES[symbol] == cls, "oracle triple mislabeled"
        data = trivial_local(p, symbol)
        checks += [
            (f"volumes/index/p{p}/{cls}/m{m}", partial(_index_check, data, abc, m))
            for m in range(0, 4)
        ]
    checks += [
        (f"volumes/cancellation/q{q}/{cls}", partial(_cancellation_check, trivial_local(q, symbol)))
        for q in (2, 3, 5)
        for symbol, cls in SYMBOL_NAMES.items()
    ]
    return checks + [(f"volumes/ksharp/q{q}", partial(_ksharp_check, q)) for q in (2, 3, 5)]


def _global_z_check(gi: GlobalInput, s: complex, p_max: int) -> Tuple[bool, Witness]:
    from . import assembly
    with warnings.catch_warnings():
        # the region flag lands in the witness and a vanishing a(Lambda) in
        # its value; any other warning, numpy's included, goes through
        warnings.simplefilter("ignore", assembly.TruncationWarning)
        warnings.simplefilter("ignore", assembly.DegenerateInputWarning)
        try:
            rep = assembly.global_z_report(gi, s, p_max)
        except ArithmeticError as exc:
            # a value past the float range cannot be sized: the check fails
            return False, {"s": s, "p_max": p_max, "overflow": str(exc)}
    return cmath.isfinite(rep.value), {
        "value": rep.value,
        "kappa_inf": rep.kappa_inf,
        "kappa_level": rep.kappa_level,
        "euler_product": rep.euler_product,
        "primes_used": len(rep.primes),
        "p_max": p_max,
        "tail_bound": rep.tail_bound,
        "in_convergence_region": rep.in_convergence_region,
        "notes": list(rep.notes),
    }


def _special_value_report(gi: GlobalInput, p_max: int) -> Tuple[bool, Witness]:
    from . import assembly
    try:
        ratio = assembly.special_value_ratio(gi, p_max)
    except ArithmeticError as exc:  # the ratio cannot be formed in floats
        return False, {"p_max": p_max, "error": str(exc)}
    return cmath.isfinite(ratio), {"ratio": ratio, "note": assembly.ALGEBRAICITY_NOTE}


def global_checks(gi: GlobalInput, s: complex, p_max: int) -> List[Check]:
    """The truncated global value at s, and, given both Petersson norms at
    the holomorphic point, the special value ratio; each fails when it is
    not finite.  A thunk raises ValueError when the input cannot be
    evaluated at all (a missing prime, a pole, p_max below a level prime)."""
    checks = [("global/z", partial(_global_z_check, gi, s, p_max))]
    has_norms = gi.petersson_phi is not None and gi.petersson_psi is not None
    if has_norms and gi.at_holomorphic_point:
        checks.append(("global/special-value", partial(_special_value_report, gi, p_max)))
    return checks


def _arch_constant_check(l: int, D: int) -> Tuple[bool, Witness]:
    from . import assembly
    gi = consistency_input(l, D)
    if assembly.theorem3_consistency(gi):
        return True, None
    return False, {"l": l, "D": D, "rel_error": assembly.theorem3_rel_error(gi)}


def _level_factor_check(p: int, symbol: SplittingSymbol, s) -> Tuple[bool, Witness]:
    from . import assembly
    # The level factor at one Steinberg prime reproduces the prefactor of
    # the local closed form, exactly, once the zeta factor that the
    # normalization absorbs is removed.
    pre = zeta.prefactor(trivial_local(p, symbol))
    expected = pre / (1 - rat(p) ** (-int(6 * s + 1)))
    got = assembly.kappa_N(level_prime_input(p, symbol), s)
    ok = got == expected
    return ok, None if ok else {"kappa_N": str(got), "expected": str(expected)}


def _v_level_check() -> Tuple[bool, Witness]:
    from . import assembly
    v = assembly.v_N(2)
    ok = v == rat(1, 45)
    return ok, None if ok else {"v_N": str(v)}


def consistency_checks() -> List[Check]:
    """Theorem 3's constant against its two routes for even l in 12..40 at
    D = 3, 4; the level factor at ``LEVEL_FACTOR_PAIRS``; and v_N(2) = 1/45."""
    checks = [
        (f"consistency/arch-constant/D{D}/l{l:02d}", partial(_arch_constant_check, l, D))
        for D in (3, 4)
        for l in range(12, 41, 2)
    ]
    checks += [
        (
            f"consistency/level-factor/p{p}-{SYMBOL_NAMES[symbol]}/s{s.numerator}-{s.denominator}",
            partial(_level_factor_check, p, symbol, s),
        )
        for p, symbol in LEVEL_FACTOR_PAIRS
        for s in (rat(1, 2), rat(1, 3), rat(1))
    ]
    return checks + [("consistency/v-level/2", _v_level_check)]
