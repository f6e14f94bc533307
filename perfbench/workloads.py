"""Seeded inputs and per-check verdict gates for the four workloads.

Every workload is a list of *passes*; a pass is a list of checks, and a
check is one verdict: one call into a public function of the package and
the gate that judges its result.  The timed call (``Check.run``) holds only
the package call; judging happens after the clock stops.  Inputs come from
the benchmark seed through ``rng.SplitMix64`` and ``rng.scenario_stream``;
the program only ever receives the generated inputs.

The functions under test are looked up through their module at call time
(``zeta.verify_theorem1``, not a bound name), so the traced run can wrap
them from outside without touching the package.  The CLI's fixed
batteries (the arch grid, the oracle triples, the consistency inputs) are
restated here rather than imported from ``localzeta.cli``'s private
helpers, so that renaming those cannot break the benchmark.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional

from localzeta import arch, assembly, cosets, exact, localfield, rng, zeta
from localzeta.localfield import LocalQuadData, SplittingSymbol

CELLS = tuple((q, sym) for q in (2, 3, 5) for sym in SplittingSymbol)
_SYMBOL_NAMES = {
    SplittingSymbol.INERT: "inert",
    SplittingSymbol.RAMIFIED: "ramified",
    SplittingSymbol.SPLIT: "split",
}
# Keys that separate the benchmark's SplitMix64 streams from one another.
_CONTROL_KEY = 0xC0FFEE5EED
_MIX_KEY = 0x5EEDBE7C4


@dataclass
class Check:
    """One verdict.  ``judge`` maps the result to (ok, relative error or None)."""

    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple]
    spec: Callable[[], str]
    kind: str
    # (scenario, order) for checks of the local identity, used by the
    # traced run to time verify_theorem1's standalone parts.
    local: Optional[tuple] = None


@dataclass
class Workload:
    seed: int
    passes: List[List[Check]]
    tail_percentile: int

    def spec_lines(self):
        for i, checks in enumerate(self.passes):
            for c in checks:
                yield f"{i}|{c.name}|{c.spec()}"


def _mix(seed: int) -> rng.SplitMix64:
    return rng.SplitMix64(seed ^ _MIX_KEY)


def _shuffle(items: list, mix: rng.SplitMix64) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = mix.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# local identity: local-exact and local-deep


def _scenario_spec(sc: zeta.ScenarioData) -> str:
    loc = sc.local
    return (
        f"q={loc.q} {_SYMBOL_NAMES[loc.symbol]} lam={loc.lambda_piF},"
        f"{loc.lambda_piL},{loc.lambda_piF_over_piL} "
        f"gamma={','.join(map(str, sc.sat.gamma))} omega={sc.st.omega_piF}"
    )


def _control_kinds(symbol: SplittingSymbol) -> tuple:
    # lambda_piL is algebraically free in the ramified class, so tampering
    # with it cannot be detected there; gamma and Omega break every class.
    if symbol is SplittingSymbol.INERT:
        return ("gamma", "omega", "lambda_piF")
    if symbol is SplittingSymbol.SPLIT:
        return ("gamma", "omega", "lambda_piL")
    return ("gamma", "omega")


def _tamper(sc: zeta.ScenarioData, kind: str) -> None:
    """Double one stored value in place, as the corruption controls do."""
    if kind == "gamma":
        g = sc.sat.gamma
        object.__setattr__(sc.sat, "gamma", (2 * g[0],) + tuple(g[1:]))
    elif kind == "omega":
        object.__setattr__(sc.st, "omega_piF", 2 * sc.st.omega_piF)
    else:
        object.__setattr__(sc.local, kind, 2 * getattr(sc.local, kind))


def _verified(rep) -> tuple:
    return rep.ok, None


def _detected(rep) -> tuple:
    return (
        not rep.ok
        and rep.first_difference is not None
        and rep.direct_coefficient != rep.closed_coefficient
    ), None


def _local_check(name: str, sc: zeta.ScenarioData, order: int, control: Optional[str]) -> Check:
    return Check(
        name=name,
        run=lambda: zeta.verify_theorem1(sc, order),
        judge=_detected if control else _verified,
        spec=lambda: f"{_scenario_spec(sc)} order={order} control={control}",
        kind="local.control" if control else "local",
        local=(sc, order),
    )


def _local_workload(
    seed: int,
    tracer,
    *,
    order: int,
    per_cell: int,
    controls: int,
    passes: int,
    tail_percentile: int,
) -> Workload:
    mix = _mix(seed)
    n = per_cell * passes
    with _span(tracer, "rng.scenario_stream"):
        pools = {cell: list(rng.scenario_stream(seed, cell[1], cell[0], n)) for cell in CELLS}
    # Control cells and kinds first, so each cell's control stream is drawn once.
    plan = []
    for _ in range(passes * controls):
        q, sym = CELLS[mix.below(len(CELLS))]
        kinds = _control_kinds(sym)
        plan.append((q, sym, kinds[mix.below(len(kinds))]))
    wanted = {cell: sum(1 for q, s, _ in plan if (q, s) == cell) for cell in CELLS}
    with _span(tracer, "rng.scenario_stream"):
        control_pools = {
            cell: list(rng.scenario_stream(seed ^ _CONTROL_KEY, cell[1], cell[0], k))
            for cell, k in wanted.items()
            if k
        }
    taken = {cell: 0 for cell in CELLS}
    out = []
    for p in range(passes):
        checks = []
        for (q, sym) in CELLS:
            for i in range(per_cell):
                sc = pools[(q, sym)][p * per_cell + i]
                checks.append(
                    _local_check(f"local/q{q}/{_SYMBOL_NAMES[sym]}/{p}.{i}", sc, order, None)
                )
        for q, sym, kind in plan[p * controls : (p + 1) * controls]:
            sc = control_pools[(q, sym)][taken[(q, sym)]]
            taken[(q, sym)] += 1
            _tamper(sc, kind)
            checks.append(
                _local_check(f"control/q{q}/{_SYMBOL_NAMES[sym]}/{kind}/{p}", sc, order, kind)
            )
        out.append(_shuffle(checks, mix))
    return Workload(seed, out, tail_percentile)


def local_exact(seed: int, tracer=None) -> Workload:
    """The criterion-1 mix at order 25: 5 scenarios per (q, class) cell and
    5 corrupted controls per pass (about 1 check in 10).  32 passes are
    generated so a run at today's speed never reuses a scenario."""
    return _local_workload(
        seed, tracer,
        order=25, per_cell=5, controls=5, passes=32, tail_percentile=97,
    )


def local_deep(seed: int, tracer=None) -> Workload:
    """One scenario per cell at order 80 plus one control per pass: the
    cost sits in the O(n^2) m > 0 sum and kilobit coefficients, not in
    per-object overhead.  Order 80 rather than 150 keeps about 50 checks in
    a run, enough to average out the 10 % check-to-check cost spread that
    comes with the drawn values; p80 is the highest percentile with ten
    checks beyond it."""
    return _local_workload(
        seed, tracer,
        order=80, per_cell=1, controls=1, passes=16, tail_percentile=80,
    )


# ---------------------------------------------------------------------------
# arch-quad: the verify-arch battery


def _arch_grid() -> tuple:
    """The 13-scenario grid of ``localzeta verify-arch``."""
    ds = arch.ArchScenario.discrete_series
    ps = arch.ArchScenario.principal_series
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


MELLIN_POINTS = tuple(
    (kappa, mu, sigma)
    for kappa in (0, -0.5, 0.5, 1, 6)
    for mu in (0, 0.5j)
    for sigma in (1, 2, 5)
) + ((6, 5.5, 6),)
COLLAPSE_POINTS = tuple((mu, z) for mu in (0.0, 0.5, 3.0, 5.5) for z in (0.5, 2.0, 10.0))


def _zinf_check(tag: str, sc: arch.ArchScenario) -> Check:
    def run():
        return arch.z_inf_closed(sc), arch.z_inf_quadrature(sc)

    def judge(res):
        closed, numeric = res
        err = abs(numeric - closed) / abs(closed)
        return err <= 1e-6, err

    return Check(f"arch/zinf/{tag}", run, judge, lambda: repr(sc), "arch.zinf")


def _mellin_check(kappa, mu, sigma) -> Check:
    def judge(res):
        numeric, closed = res
        if closed == 0:
            scale = abs(arch.gamma_fn(sigma + mu + 0.5) * arch.gamma_fn(sigma - mu + 0.5))
            err = abs(numeric) / scale
        else:
            err = abs(numeric - closed) / abs(closed)
        return err <= 1e-8, err

    return Check(
        f"arch/mellin/k{kappa}-mu{mu}-s{sigma}",
        lambda: arch.mellin_whittaker(kappa, mu, sigma),
        judge,
        lambda: repr((kappa, mu, sigma)),
        "arch.mellin",
    )


def _collapse_check(mu: float, z: float) -> Check:
    want = math.exp(-z / 2.0) * z ** (mu + 0.5)

    def judge(w):
        err = abs(w - want) / abs(want)
        return err <= 1e-10, err

    return Check(
        f"arch/reduction/mu{mu}-z{z}",
        lambda: arch.whittaker_w(arch.WhittakerQuery(mu + 0.5, mu, z)),
        judge,
        lambda: repr((mu, z)),
        "arch.collapse",
    )


def arch_quad(seed: int, tracer=None) -> Workload:
    """The verify-arch battery: 13 grid scenarios at 1e-6, 31 Mellin points
    at 1e-8, 12 collapse points at 1e-10.  The seed rescales each grid
    scenario's normalisation a+ (both routes are linear in it, so the
    pinned tolerances are unaffected) and shuffles the order."""
    mix = _mix(seed)
    out = []
    for _ in range(4):
        checks = [
            _zinf_check(tag, replace(sc, a_plus=sc.a_plus * float(mix.nonzero_rational())))
            for tag, sc in _arch_grid()
        ]
        checks += [_mellin_check(*pt) for pt in MELLIN_POINTS]
        checks += [_collapse_check(*pt) for pt in COLLAPSE_POINTS]
        out.append(_shuffle(checks, mix))
    return Workload(seed, out, tail_percentile=82)


# ---------------------------------------------------------------------------
# geometry: cosets, volumes, consistency, global assembly

# One (a, b, c) presentation per residue class: x^2 + b x + ac has
# discriminant b^2 - 4ac, which decides the splitting (as verify-volumes).
_ORACLE_TRIPLES = {
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
_AUDIT_FACTS = {2: (45, 720), 3: (640, 51840)}
GLOBAL_P_MAX = 5000
GLOBAL_POINTS = 128
IDENTITY_SEED = 20260816
_GLOBAL_LEVEL = (2, 3)


def _trivial_local(p: int, symbol: SplittingSymbol) -> LocalQuadData:
    one = exact.rat(1)
    if symbol is SplittingSymbol.INERT:
        return LocalQuadData(p=p, symbol=symbol, lambda_piF=one)
    if symbol is SplittingSymbol.RAMIFIED:
        return LocalQuadData(p=p, symbol=symbol, lambda_piF=one, lambda_piL=one)
    return LocalQuadData(p=p, symbol=symbol, lambda_piF=one, lambda_piL=one, lambda_piF_over_piL=one)


def _fixed(name: str, run, judge, kind: str) -> Check:
    return Check(name, run, judge, lambda: "fixed", kind)


def _audit_check(p: int) -> Check:
    reps, order = _AUDIT_FACTS[p]

    def judge(rep):
        return rep.passed and rep.rep_count == reps and rep.group_order == order, None

    return _fixed(f"cosets/p{p}/audit", lambda: cosets.coset_audit(p), judge, "cosets.audit")


def _identity_check(which: str, trials: int, seed: int) -> Check:
    return Check(
        f"cosets/identity/{which}/{seed:016x}",
        lambda: cosets.verify_matrix_identity(which, trials=trials, seed=seed),
        lambda ok: (ok is True, None),
        lambda: f"{which} trials={trials} seed={seed}",
        "cosets.identity",
    )


def _volume_checks() -> List[Check]:
    checks = []
    for (p, cls), (a, b, c) in sorted(_ORACLE_TRIPLES.items()):
        data = _trivial_local(p, SplittingSymbol[cls.upper()])
        for m in range(4):
            checks.append(
                _fixed(
                    f"volumes/index/p{p}/{cls}/m{m}",
                    lambda data=data, a=a, b=b, c=c, p=p, m=m: (
                        localfield.unit_index(data, m),
                        localfield.unit_index_oracle(a, b, c, p, m),
                    ),
                    lambda res: (res[0] == res[1], None),
                    "volumes.index",
                )
            )
    for q in (2, 3, 5):
        for sym in SplittingSymbol:
            data = _trivial_local(q, sym)

            def cancel(data=data, q=q):
                return all(
                    cosets.volume_V1(data, l, m) * q == cosets.volume_V2(data, l, m)
                    for l in (2, 4, 6)
                    for m in range(1, 5)
                )

            checks.append(
                _fixed(f"volumes/cancellation/q{q}/{_SYMBOL_NAMES[sym]}", cancel,
                       lambda ok: (ok, None), "volumes.cancellation")
            )
    for q in (2, 3, 5):
        checks.append(
            _fixed(
                f"volumes/ksharp/q{q}",
                lambda q=q: cosets.vol_k_sharp(q) * cosets.expected_rep_count(q),
                lambda v: (v == 1, None),
                "volumes.ksharp",
            )
        )
    return checks


def _consistency_input(l: int, D: int) -> assembly.GlobalInput:
    return assembly.GlobalInput(
        l=l, D=D, N=1, lambda_classvals=(1.0,), fourier_classvals=(1.0,), a1=1.0,
        r=-1j * (l - 1), satake_table={}, gl2_table={}, local_table={},
    )


def _level_prime_input(p: int, symbol: SplittingSymbol) -> assembly.GlobalInput:
    if symbol is SplittingSymbol.INERT:
        local = assembly.PrimeQuadData(symbol=-1, lambda_piF=1.0)
    elif symbol is SplittingSymbol.RAMIFIED:
        local = assembly.PrimeQuadData(symbol=0, lambda_piF=1.0, lambda_piL=-1.0)
    else:
        local = assembly.PrimeQuadData(symbol=1, lambda_piF=1.0, lambda_piL=2.0, lambda_piF_over_piL=0.5)
    return assembly.GlobalInput(
        l=12, D=4, N=p, lambda_classvals=(1.0,), fourier_classvals=(1.0,), a1=1.0, r=-11j,
        satake_table={p: (1.0, 1.0, 1.0)}, gl2_table={p: -1.0}, local_table={p: local},
    )


def _consistency_checks() -> List[Check]:
    checks = []
    for D in (3, 4):
        for l in range(12, 41, 2):
            gi = _consistency_input(l, D)
            checks.append(
                _fixed(f"consistency/arch-constant/D{D}/l{l:02d}",
                       lambda gi=gi: assembly.theorem3_consistency(gi),
                       lambda ok: (ok is True, None), "consistency.constant")
            )
    for p, sym in ((2, SplittingSymbol.INERT), (3, SplittingSymbol.RAMIFIED), (5, SplittingSymbol.SPLIT)):
        gi = _level_prime_input(p, sym)
        pre = zeta.prefactor(_trivial_local(p, sym))
        base = Fraction(int(pre.numerator), int(pre.denominator))
        for s in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
            want = base / (1 - Fraction(p) ** (-int(6 * s + 1)))
            checks.append(
                _fixed(f"consistency/level-factor/p{p}/s{s}",
                       lambda gi=gi, s=s: assembly.kappa_N(gi, s),
                       lambda got, want=want: (got == want, None), "consistency.level")
            )
    checks.append(
        _fixed("consistency/v-level/2", lambda: assembly.v_N(2),
               lambda v: (v == Fraction(1, 45), None), "consistency.volume")
    )
    return checks


def _unit(mix: rng.SplitMix64) -> complex:
    """A point on the unit circle at a SplitMix64-drawn angle."""
    angle = 2 * math.pi * mix.next_u64() / 2**64
    return complex(math.cos(angle), math.sin(angle))


def global_table(mix: rng.SplitMix64, p_max: int) -> assembly.GlobalInput:
    """A unitary prime table up to p_max with level N = 6."""
    primes = assembly.primes_up_to(p_max)
    satake, gl2, local = {}, {}, {}
    for p in primes:
        u = (_unit(mix), _unit(mix), _unit(mix))
        satake[p] = u
        omega = u[0] * u[0] * u[1] * u[2]
        symbol = (-1, 0, 1)[mix.below(3)]
        if symbol == -1:
            local[p] = assembly.PrimeQuadData(symbol=-1, lambda_piF=omega)
        elif symbol == 0:
            root = omega ** 0.5
            local[p] = assembly.PrimeQuadData(symbol=0, lambda_piF=omega, lambda_piL=mix.sign() * root)
        else:
            piL = _unit(mix)
            local[p] = assembly.PrimeQuadData(
                symbol=1, lambda_piF=omega, lambda_piL=piL, lambda_piF_over_piL=omega / piL
            )
        gl2[p] = float(mix.sign()) if p in _GLOBAL_LEVEL else (_unit(mix), _unit(mix))
    return assembly.GlobalInput(
        l=12, D=4, N=math.prod(_GLOBAL_LEVEL), lambda_classvals=(1.0,), fourier_classvals=(1.0,),
        a1=1.0, r=-11j, satake_table=satake, gl2_table=gl2, local_table=local,
    )


def _global_check(gi, table_spec, s: float, p_max: int, n_primes: int) -> Check:
    def judge(rep):
        ok = (
            rep.in_convergence_region
            and len(rep.primes) == n_primes
            and math.isfinite(rep.tail_bound)
            and all(math.isfinite(abs(v)) for v in (rep.value, rep.euler_product, rep.kappa_inf))
            and rep.value != 0
        )
        return ok, None

    return Check(
        f"global/z/pmax{p_max}/s{s!r}",
        lambda: assembly.global_z_report(gi, s, p_max),
        judge,
        lambda: f"s={s!r} pmax={p_max} table={table_spec()}",
        "global",
    )


def geometry(seed: int, tracer=None) -> Workload:
    """verify-cosets at p = 2 and p = 3 (audit, count polynomial, the five
    identities at 50 trials), verify-volumes, consistency, and GLOBAL_POINTS
    global reports at seeded points s over a seeded unitary prime table up
    to GLOBAL_P_MAX.

    The identities do not depend on p, so a pass runs them once.  Pass k
    draws them from seed IDENTITY_SEED + k (the CLI's default seed for pass
    0) whatever the benchmark seed: their cost varies by 7 % between draw
    seeds at 50 trials, more than a run can average out, so every run uses
    the same draws while no two passes repeat them.  The global reports are
    many equal-cost checks, so the median check is one of them rather than
    a point on the edge between the microsecond consistency checks and the
    millisecond volume checks."""
    mix = _mix(seed)
    n_primes = len(assembly.primes_up_to(GLOBAL_P_MAX))
    out = []
    for k in range(4):
        checks = [
            _audit_check(2),
            _audit_check(3),
            _fixed("cosets/count-polynomial", cosets.count_polynomial_identity,
                   lambda ok: (ok is True, None), "cosets.count"),
        ]
        checks += [_identity_check(w, 50, IDENTITY_SEED + k) for w in cosets.IDENTITY_NAMES]
        checks += _volume_checks()
        checks += _consistency_checks()
        gi = global_table(mix, GLOBAL_P_MAX)
        table_spec = functools.cache(lambda gi=gi: repr(
            (sorted(gi.satake_table.items()), sorted(gi.gl2_table.items()),
             sorted(gi.local_table.items()))
        ))
        for _ in range(GLOBAL_POINTS):
            s = 0.5 + mix.below(1 << 20) / (1 << 20)
            checks.append(_global_check(gi, table_spec, s, GLOBAL_P_MAX, n_primes))
        out.append(checks)
    return Workload(seed, out, tail_percentile=98)


WORKLOADS = {
    "local-exact": local_exact,
    "local-deep": local_deep,
    "arch-quad": arch_quad,
    "geometry": geometry,
}
