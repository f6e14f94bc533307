"""Command-line driver for the verification batteries.

Seven subcommands re-run the checks that the library exposes and print one
line per check.  Each subcommand takes only the flags its battery reads
(see ``_COMMANDS``) plus ``--format``; any other flag is a usage error.
Two output styles: ``table`` for reading, ``machine`` for diffing —
newline-delimited JSON records ``{"name", "status", "witness"}`` sorted by
name, so two invocations with the same command, seed, and input produce
byte-identical output.

Exit status is 0 when every check passes, 1 when at least one check fails
(the failing records carry a witness), 2 for malformed input — bad
flags, unreadable files, JSON syntax errors (reported with line and column),
or schema violations (reported with the JSON path of the offending value) —
and 141 (128 + SIGPIPE) when the reader closes stdout early, as in
``localzeta verify-local | head -1``.

Randomized batteries draw from SplitMix64 streams keyed by ``--seed``
(see the README for the exact generator definition).  Rational values in
input files are written as integers or ``"num/den"`` strings (floats are
rejected: the local checks are exact).  Complex values are written as a
number, a ``"num/den"`` string, or a two-element ``[re, im]`` array.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .arch import (
    ArchScenario,
    QuadratureError,
    WhittakerQuery,
    gamma_fn,
    mellin_whittaker,
    whittaker_w,
    z_inf_closed,
    z_inf_quadrature,
)
from .assembly import (
    ALGEBRAICITY_NOTE,
    GlobalInput,
    PrimeQuadData,
    global_z_report,
    kappa_N,
    special_value_ratio,
    theorem3_consistency,
    v_N,
)
from .cosets import (
    IDENTITY_NAMES,
    coset_audit,
    count_polynomial_identity,
    expected_rep_count,
    verify_matrix_identity,
    vol_k_sharp,
    volume_V1,
    volume_V2,
)
from .exact import Rational, rat
from .localfield import (
    LocalQuadData,
    SplittingSymbol,
    splitting_symbol,
    unit_index,
    unit_index_oracle,
)
from .rng import scenario_stream
from .satake import SatakeParams, SteinbergData
from .zeta import ScenarioData, prefactor, verify_theorem1, z_closed_form

# Exit status when stdout's reader closes early: 128 + SIGPIPE, as a shell
# reports a process killed by that signal.
EXIT_BROKEN_PIPE = 141

_SYMBOL_NAMES = {
    SplittingSymbol.INERT: "inert",
    SplittingSymbol.RAMIFIED: "ramified",
    SplittingSymbol.SPLIT: "split",
}
_SYMBOLS_BY_NAME = {name: sym for sym, name in _SYMBOL_NAMES.items()}

_RATIONAL_RE = re.compile(r"\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?\Z")
_PRIME_KEY_RE = re.compile(r"[1-9][0-9]*")


class InputError(ValueError):
    """Malformed configuration or input file; mapped to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for :func:`run`.

    ``seed`` keys the SplitMix64 scenario streams, ``trials`` sizes the
    randomized batteries, ``order`` is the series truncation order for the
    local identity check, and ``tolerance`` bounds the quadrature-vs-closed
    comparison of the archimedean battery (the fixed-precision identities
    keep their own pinned tolerances).  ``p`` selects the residue
    characteristic for the coset audit and ``p_max`` truncates the Euler
    product of the ``global`` command.
    """

    command: str
    seed: int = 20260816
    trials: int = 50
    order: int = 25
    tolerance: float = 1e-6
    input_path: Optional[str] = None
    output_format: str = "table"
    p: int = 2
    p_max: int = 20

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise InputError(
                f"unknown command {self.command!r}; expected one of {', '.join(_COMMANDS)}"
            )
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must fit in an unsigned 64-bit integer")
        if self.trials < 1:
            raise InputError(f"trials must be at least 1, got {self.trials}")
        if self.command == "verify-local" and self.order < 8:
            raise InputError(
                "verify-local needs order >= 8 to see past the degree of the "
                f"closed-form denominator, got {self.order}"
            )
        if not self.tolerance > 0:
            raise InputError(f"tolerance must be positive, got {self.tolerance}")
        if self.output_format not in ("table", "machine"):
            raise InputError(
                f"output format must be 'table' or 'machine', got {self.output_format!r}"
            )
        if self.p_max < 1:
            raise InputError(f"pmax must be at least 1, got {self.p_max}")


Record = Dict[str, object]


def _record(name: str, ok: bool, witness: Optional[Dict[str, object]] = None) -> Record:
    return {"name": name, "status": "pass" if ok else "fail", "witness": witness}


def _json_safe(value: object) -> object:
    """Coerce a witness value into something ``json.dumps`` accepts.

    Exact scalars (quadratic-extension coefficients, ``Rational``)
    become their canonical string form; complex numbers become ``[re, im]``
    pairs.  Non-finite floats, which JSON has no token for, become the
    strings ``"inf"``, ``"-inf"`` and ``"nan"``.  Anything unrecognized
    falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, complex):
        return [_json_safe(value.real), _json_safe(value.imag)]
    if isinstance(value, Rational):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


# ---------------------------------------------------------------------------
# Input-file parsing.  Every helper threads a `where` string (a JSON path
# like "local_scenarios[3].satake.u0") so schema errors point at the value.
# ---------------------------------------------------------------------------


def _load_document(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the top-level JSON value must be an object")
    return doc


def _as_object(value: object, where: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise InputError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _field(obj: Dict[str, object], key: str, where: str) -> object:
    if key not in obj:
        raise InputError(f"{where}: missing required key {key!r}")
    return obj[key]


def _parse_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_rational(value: object, where: str):
    """Exact rational from an int or a ``"num/den"`` string."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, float):
        raise InputError(
            f"{where}: floats are not exact; write the rational as 'num/den'"
        )
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if not m:
            raise InputError(f"{where}: expected 'num/den', got {value!r}")
        num, den = int(m.group(1)), int(m.group(2) or 1)
        if den == 0:
            raise InputError(f"{where}: zero denominator in {value!r}")
        return rat(num, den)
    raise InputError(
        f"{where}: rationals are written as integers or 'num/den' strings, "
        f"got {type(value).__name__}"
    )


def _parse_complex(value: object, where: str) -> complex:
    """Complex number from a real number, a rational string, or ``[re, im]``."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        return complex(_parse_rational(value, where))
    if isinstance(value, list):
        if len(value) != 2:
            raise InputError(f"{where}: a complex array must be [re, im]")
        re_part = _parse_complex(value[0], f"{where}[0]")
        im_part = _parse_complex(value[1], f"{where}[1]")
        if re_part.imag or im_part.imag:
            raise InputError(f"{where}: [re, im] entries must be real")
        return complex(re_part.real, im_part.real)
    raise InputError(f"{where}: expected a number, 'num/den', or [re, im]")


def _parse_symbol(value: object, where: str) -> SplittingSymbol:
    if isinstance(value, str) and value.lower() in _SYMBOLS_BY_NAME:
        return _SYMBOLS_BY_NAME[value.lower()]
    if isinstance(value, int) and not isinstance(value, bool) and value in (-1, 0, 1):
        return SplittingSymbol(value)
    raise InputError(
        f"{where}: expected 'inert', 'ramified', 'split' (or -1, 0, 1), got {value!r}"
    )


def _lambda_slots(lam: Dict[str, object], piF: object, where: str, parse) -> tuple:
    """(piF, piL, piF_over_piL) of a lambda object, each read by ``parse``.

    The caller supplies piF's raw value (required or defaulted); an absent
    or null piL or piF_over_piL is None.
    """
    slots = [parse(piF, f"{where}.piF")]
    for key in ("piL", "piF_over_piL"):
        raw = lam.get(key)
        slots.append(None if raw is None else parse(raw, f"{where}.{key}"))
    return tuple(slots)


def _local_scenario_from(value: object, where: str) -> ScenarioData:
    obj = _as_object(value, where)
    q = _parse_int(_field(obj, "q", where), f"{where}.q")
    symbol = _parse_symbol(_field(obj, "symbol", where), f"{where}.symbol")

    lam = _as_object(_field(obj, "lambda", where), f"{where}.lambda")
    lam_piF, lam_piL, lam_over = _lambda_slots(
        lam, _field(lam, "piF", f"{where}.lambda"), f"{where}.lambda", _parse_rational
    )

    sat_obj = _as_object(_field(obj, "satake", where), f"{where}.satake")
    u = tuple(
        _parse_rational(_field(sat_obj, key, f"{where}.satake"), f"{where}.satake.{key}")
        for key in ("u0", "u1", "u2")
    )
    omega = _parse_rational(_field(obj, "omega", where), f"{where}.omega")

    try:
        local = LocalQuadData(
            p=q,
            symbol=symbol,
            lambda_piF=lam_piF,
            lambda_piL=lam_piL,
            lambda_piF_over_piL=lam_over,
        )
        return ScenarioData(
            local=local, sat=SatakeParams(*u), st=SteinbergData(omega)
        )
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _arch_scenario_from(value: object, where: str) -> ArchScenario:
    obj = _as_object(value, where)
    l = _parse_int(_field(obj, "l", where), f"{where}.l")
    D = _parse_int(_field(obj, "D", where), f"{where}.D")
    s = _parse_complex(_field(obj, "s", where), f"{where}.s")
    a_plus = _parse_complex(obj.get("a_plus", 1), f"{where}.a_plus")
    families = {"s1/s2": ("s1", "s2"), "l1": ("l1",), "r": ("r",)}
    given = [name for name, keys in families.items() if any(k in obj for k in keys)]
    if len(given) > 1:
        raise InputError(
            f"{where}: give exactly one of s1/s2, l1 or r; got {' and '.join(given)}"
        )
    if given == ["s1/s2"] and "q_c" in obj:
        raise InputError(
            f"{where}.q_c: a principal series has q_c = s1 + s2; give q_c only with l1 or r"
        )
    # Parse every field first: a parse error already names its own path.
    if "s1" in obj or "s2" in obj:
        s1 = _parse_complex(_field(obj, "s1", where), f"{where}.s1")
        s2 = _parse_complex(_field(obj, "s2", where), f"{where}.s2")
        build = partial(ArchScenario.principal_series, l, s1, s2, D, s, a_plus)
    elif "l1" in obj:
        l1 = _parse_int(_field(obj, "l1", where), f"{where}.l1")
        q_c = _parse_complex(obj.get("q_c", 0), f"{where}.q_c")
        build = partial(ArchScenario.discrete_series, l, l1, q_c, D, s, a_plus)
    elif "r" in obj:
        q_c = _parse_complex(obj.get("q_c", 0), f"{where}.q_c")
        r = _parse_complex(_field(obj, "r", where), f"{where}.r")
        build = partial(ArchScenario, l=l, q_c=q_c, r=r, D=D, s=s, a_plus=a_plus)
    else:
        raise InputError(
            f"{where}: give either a principal-series pair (s1, s2), a lowest "
            "weight l1, or a spectral parameter r"
        )
    try:
        return build()
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _prime_table(value: object, where: str) -> Dict[int, object]:
    obj = _as_object(value, where)
    table: Dict[int, object] = {}
    for key, entry in obj.items():
        p = int(key) if _PRIME_KEY_RE.fullmatch(key) else 0
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise InputError(
                f"{where}: table keys must be primes written in plain decimal, got {key!r}"
            )
        table[p] = entry
    return table


def _global_input_from(value: object, where: str) -> Tuple[GlobalInput, complex]:
    obj = _as_object(value, where)
    l = _parse_int(_field(obj, "l", where), f"{where}.l")
    D = _parse_int(_field(obj, "D", where), f"{where}.D")
    N = _parse_int(_field(obj, "N", where), f"{where}.N")
    s = _parse_complex(_field(obj, "s", where), f"{where}.s")

    def class_values(key: str) -> Tuple[complex, ...]:
        raw = _field(obj, key, where)
        if not isinstance(raw, list) or not raw:
            raise InputError(f"{where}.{key}: expected a non-empty array")
        return tuple(
            _parse_complex(v, f"{where}.{key}[{i}]") for i, v in enumerate(raw)
        )

    lambda_classvals = class_values("lambda_classvals")
    fourier_classvals = class_values("fourier_classvals")
    a1 = _parse_complex(obj.get("a1", 1), f"{where}.a1")
    r = _parse_complex(_field(obj, "r", where), f"{where}.r")

    satake_table: Dict[int, Tuple[complex, complex, complex]] = {}
    for p, entry in _prime_table(_field(obj, "satake_table", where), f"{where}.satake_table").items():
        spot = f"{where}.satake_table.{p}"
        if not isinstance(entry, list) or len(entry) != 3:
            raise InputError(f"{spot}: expected [u0, u1, u2]")
        satake_table[p] = tuple(
            _parse_complex(v, f"{spot}[{i}]") for i, v in enumerate(entry)
        )

    gl2_table: Dict[int, object] = {}
    for p, entry in _prime_table(_field(obj, "gl2_table", where), f"{where}.gl2_table").items():
        spot = f"{where}.gl2_table.{p}"
        if isinstance(entry, list):
            if len(entry) != 2:
                raise InputError(f"{spot}: an off-level entry is a pair [b1, b2]")
            gl2_table[p] = tuple(
                _parse_complex(v, f"{spot}[{i}]") for i, v in enumerate(entry)
            )
        else:
            gl2_table[p] = _parse_complex(entry, spot)

    local_table: Dict[int, PrimeQuadData] = {}
    for p, entry in _prime_table(_field(obj, "local_table", where), f"{where}.local_table").items():
        spot = f"{where}.local_table.{p}"
        entry = _as_object(entry, spot)
        symbol = _parse_symbol(_field(entry, "symbol", spot), f"{spot}.symbol")
        lam = _as_object(entry.get("lambda", {"piF": 1}), f"{spot}.lambda")
        piF, piL, over = _lambda_slots(lam, lam.get("piF", 1), f"{spot}.lambda", _parse_complex)
        try:
            local_table[p] = PrimeQuadData(
                symbol=int(symbol),
                lambda_piF=piF,
                lambda_piL=piL,
                lambda_piF_over_piL=over,
            )
        except ValueError as exc:
            raise InputError(f"{spot}: {exc}") from exc

    l1 = obj.get("l1")
    if l1 is not None:
        l1 = _parse_int(l1, f"{where}.l1")

    def norm(key: str) -> Optional[float]:
        raw = obj.get(key)
        if raw is None:
            return None
        v = _parse_complex(raw, f"{where}.{key}")
        if v.imag:
            raise InputError(f"{where}.{key}: a Petersson norm is a real number")
        return v.real

    try:
        gi = GlobalInput(
            l=l,
            D=D,
            N=N,
            lambda_classvals=lambda_classvals,
            fourier_classvals=fourier_classvals,
            a1=a1,
            r=r,
            satake_table=satake_table,
            gl2_table=gl2_table,
            local_table=local_table,
            l1=l1,
            petersson_phi=norm("petersson_phi"),
            petersson_psi=norm("petersson_psi"),
        )
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return gi, s


def _scenario_list(config: RunConfig, key: str) -> Optional[List[object]]:
    if config.input_path is None:
        return None
    doc = _load_document(config.input_path)
    raw = doc.get(key)
    if not isinstance(raw, list) or not raw:
        raise InputError(
            f"{config.input_path}: top-level key {key!r} must be a non-empty array"
        )
    return raw


# ---------------------------------------------------------------------------
# Subcommand batteries.
# ---------------------------------------------------------------------------


def _theorem1_record(name: str, sc: ScenarioData, order: int) -> Record:
    rep = verify_theorem1(sc, order)
    if rep.ok:
        return _record(name, True)
    witness = {
        "q": sc.local.q,
        "symbol": _SYMBOL_NAMES[sc.local.symbol],
        "lambda_piF": str(sc.local.lambda_piF),
        "lambda_piL": None if sc.local.lambda_piL is None else str(sc.local.lambda_piL),
        "lambda_piF_over_piL": (
            None
            if sc.local.lambda_piF_over_piL is None
            else str(sc.local.lambda_piF_over_piL)
        ),
        "u0": str(sc.sat.u0),
        "u1": str(sc.sat.u1),
        "u2": str(sc.sat.u2),
        "omega": str(sc.st.omega_piF),
        "series_match": rep.series_match,
        "m_positive_vanishes": rep.m_positive_vanishes,
        "first_difference": rep.first_difference,
        "direct_coefficient": (
            None if rep.direct_coefficient is None else str(rep.direct_coefficient)
        ),
        "closed_coefficient": (
            None if rep.closed_coefficient is None else str(rep.closed_coefficient)
        ),
    }
    if not rep.m_positive_vanishes:
        witness["first_nonzero_cell"] = rep.first_nonzero_cell
    return _record(name, False, witness)


def _run_local(config: RunConfig) -> List[Record]:
    raw = _scenario_list(config, "local_scenarios")
    records = []
    if raw is not None:
        for i, entry in enumerate(raw):
            sc = _local_scenario_from(entry, f"local_scenarios[{i}]")
            records.append(_theorem1_record(f"local/input/{i:03d}", sc, config.order))
        return records
    for q in (2, 3, 5):
        for symbol in SplittingSymbol:
            stream = scenario_stream(config.seed, symbol, q, config.trials)
            for i, sc in enumerate(stream):
                name = f"local/q{q}/{_SYMBOL_NAMES[symbol]}/{i:04d}"
                records.append(_theorem1_record(name, sc, config.order))
    return records


def _builtin_arch_grid() -> Tuple[Tuple[str, ArchScenario], ...]:
    ds = ArchScenario.discrete_series
    ps = ArchScenario.principal_series
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


def _run_arch(config: RunConfig) -> List[Record]:
    raw = _scenario_list(config, "arch_scenarios")
    if raw is not None:
        pairs = [
            (f"input-{i:03d}", _arch_scenario_from(entry, f"arch_scenarios[{i}]"))
            for i, entry in enumerate(raw)
        ]
    else:
        pairs = list(_builtin_arch_grid())

    records = []
    for tag, sc in pairs:
        closed = z_inf_closed(sc)
        try:
            numeric = z_inf_quadrature(sc)
        except QuadratureError as exc:
            records.append(_record(f"arch/zinf/{tag}", False, exc.witness))
            continue
        err = abs(numeric - closed)
        ok = err <= config.tolerance * (abs(closed) if closed else 1.0)
        witness = None
        if not ok:
            witness = {"closed": closed, "quadrature": numeric, "abs_error": err}
        records.append(_record(f"arch/zinf/{tag}", ok, witness))

    # Collapse of the confluent function to an elementary one; pinned at 1e-10.
    for mu in (0.0, 0.5, 3.0, 5.5):
        for z in (0.5, 2.0, 10.0):
            w = whittaker_w(WhittakerQuery(mu + 0.5, mu, z))
            want = math.exp(-z / 2.0) * z ** (mu + 0.5)
            ok = abs(w - want) <= 1e-10 * abs(want)
            witness = None if ok else {"computed": w, "elementary": want}
            records.append(_record(f"arch/reduction/mu{mu}-z{z}", ok, witness))

    # First-moment transform against the gamma-quotient form; pinned at 1e-8.
    # When the closed form is exactly zero (a reciprocal-gamma zero), the
    # quadrature must vanish at the scale of the gamma-pair numerator.
    mellin_points = [
        (kappa, mu, sigma)
        for kappa in (0, -0.5, 0.5, 1, 6)
        for mu in (0, 0.5j)
        for sigma in (1, 2, 5)
    ]
    mellin_points.append((6, 5.5, 6))
    for kappa, mu, sigma in mellin_points:
        name = f"arch/mellin/k{kappa}-mu{mu}-s{sigma}"
        try:
            numeric, closed = mellin_whittaker(kappa, mu, sigma)
        except QuadratureError as exc:
            records.append(_record(name, False, exc.witness))
            continue
        if closed == 0:
            scale = abs(gamma_fn(sigma + mu + 0.5) * gamma_fn(sigma - mu + 0.5))
            ok = abs(numeric) <= 1e-8 * scale
        else:
            ok = abs(numeric - closed) <= 1e-8 * abs(closed)
        witness = None if ok else {"quadrature": numeric, "closed": closed}
        records.append(_record(name, ok, witness))
    return records


def _run_cosets(config: RunConfig) -> List[Record]:
    if config.p not in (2, 3):
        raise InputError(
            f"the coset audit is exhaustive and only runs for p in (2, 3), got p = {config.p}"
        )
    rep = coset_audit(config.p)
    audit_witness: Dict[str, object] = {
        "cosets": rep.rep_count,
        "expected": expected_rep_count(config.p),
        "group_order": rep.group_order,
        "subgroup_order": rep.subgroup_order,
    }
    if not rep.passed:
        audit_witness.update(
            {
                "subgroup_closed": rep.subgroup_closed,
                "pairwise_distinct": rep.pairwise_distinct,
                "covers_group": rep.covers_group,
                "witness": rep.witness,
            }
        )
    records = [
        _record(f"cosets/p{config.p}/audit", rep.passed, audit_witness),
        _record("cosets/count-polynomial", count_polynomial_identity()),
    ]
    for which in IDENTITY_NAMES:
        ok = verify_matrix_identity(which, trials=config.trials, seed=config.seed)
        records.append(_record(f"cosets/identity/{which}", ok))
    return records


# One (a, b, c) presentation per residue class: xi0 has minimal polynomial
# x^2 + b x + ac, so the discriminant b^2 - 4ac decides the splitting.
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


def _quad_data(p: int, symbol: SplittingSymbol) -> LocalQuadData:
    """A LocalQuadData with the trivial character, for volume formulas."""
    if symbol is SplittingSymbol.INERT:
        return LocalQuadData(p=p, symbol=symbol, lambda_piF=rat(1))
    if symbol is SplittingSymbol.RAMIFIED:
        return LocalQuadData(p=p, symbol=symbol, lambda_piF=rat(1), lambda_piL=rat(1))
    return LocalQuadData(
        p=p,
        symbol=symbol,
        lambda_piF=rat(1),
        lambda_piL=rat(1),
        lambda_piF_over_piL=rat(1),
    )


def _run_volumes(config: RunConfig) -> List[Record]:
    records = []
    for (p, cls), (a, b, c) in sorted(_ORACLE_TRIPLES.items()):
        symbol = splitting_symbol(b * b - 4 * a * c, p)
        assert _SYMBOL_NAMES[symbol] == cls, "oracle triple mislabeled"
        data = _quad_data(p, symbol)
        for m in range(0, 4):
            formula = unit_index(data, m)
            counted = unit_index_oracle(a, b, c, p, m)
            ok = formula == counted
            witness = None if ok else {"formula": str(formula), "oracle": counted}
            records.append(_record(f"volumes/index/p{p}/{cls}/m{m}", ok, witness))

    for q in (2, 3, 5):
        for symbol, cls in _SYMBOL_NAMES.items():
            data = _quad_data(q, symbol)
            bad = None
            for l in (2, 4, 6):
                for m in range(1, 5):
                    v1 = volume_V1(data, l, m)
                    v2 = volume_V2(data, l, m)
                    if v1 * q != v2:
                        bad = {"l": l, "m": m, "V1": str(v1), "V2": str(v2)}
                        break
                if bad:
                    break
            records.append(_record(f"volumes/cancellation/q{q}/{cls}", bad is None, bad))

    for q in (2, 3, 5):
        ok = vol_k_sharp(q) * expected_rep_count(q) == 1
        witness = None if ok else {"volume": str(vol_k_sharp(q))}
        records.append(_record(f"volumes/ksharp/q{q}", ok, witness))
    return records


def _trivial_scenario() -> ScenarioData:
    return ScenarioData(
        local=_quad_data(2, SplittingSymbol.INERT),
        sat=SatakeParams(rat(1), rat(1), rat(1)),
        st=SteinbergData(rat(1)),
    )


def _run_lfactor(config: RunConfig) -> List[Record]:
    raw = _scenario_list(config, "local_scenarios")
    if raw is not None:
        scenarios = [
            _local_scenario_from(entry, f"local_scenarios[{i}]")
            for i, entry in enumerate(raw)
        ]
    else:
        scenarios = [_trivial_scenario()]
    records = []
    for i, sc in enumerate(scenarios):
        rf = z_closed_form(sc)
        witness = {
            "q": sc.local.q,
            "symbol": _SYMBOL_NAMES[sc.local.symbol],
            "factor": f"({rf.num.to_str()}) / ({rf.den.to_str()})",
        }
        records.append(_record(f"lfactor/{i:03d}", True, witness))
    return records


def _run_global(config: RunConfig) -> List[Record]:
    if config.input_path is None:
        raise InputError("the global command needs --input with a 'global_input' object")
    doc = _load_document(config.input_path)
    if "global_input" not in doc:
        raise InputError(
            f"{config.input_path}: missing required top-level key 'global_input'"
        )
    gi, s = _global_input_from(doc["global_input"], "global_input")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the region flag lands in the witness
        try:
            rep = global_z_report(gi, s, config.p_max)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        except OverflowError as exc:
            # a value past the float range cannot be sized: the check fails
            rep = None
            witness = {"s": s, "p_max": config.p_max, "overflow": str(exc)}
    if rep is not None:
        witness = {
            "value": rep.value,
            "kappa_inf": rep.kappa_inf,
            "kappa_level": rep.kappa_level,
            "euler_product": rep.euler_product,
            "primes_used": len(rep.primes),
            "p_max": config.p_max,
            "tail_bound": rep.tail_bound,
            "in_convergence_region": rep.in_convergence_region,
            "notes": list(rep.notes),
        }
    records = [_record("global/z", rep is not None, witness)]

    has_norms = gi.petersson_phi is not None and gi.petersson_psi is not None
    if has_norms and gi.at_holomorphic_point:
        try:
            ratio = special_value_ratio(gi, config.p_max)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        records.append(
            _record(
                "global/special-value",
                True,
                {"ratio": ratio, "note": ALGEBRAICITY_NOTE},
            )
        )
    return records


def _consistency_input(l: int, D: int) -> GlobalInput:
    return GlobalInput(
        l=l,
        D=D,
        N=1,
        lambda_classvals=(1.0,),
        fourier_classvals=(1.0,),
        a1=1.0,
        r=-1j * (l - 1),
        satake_table={},
        gl2_table={},
        local_table={},
    )


def _level_prime_input(p: int, symbol: SplittingSymbol) -> GlobalInput:
    if symbol is SplittingSymbol.INERT:
        local = PrimeQuadData(symbol=-1, lambda_piF=1.0)
    elif symbol is SplittingSymbol.RAMIFIED:
        local = PrimeQuadData(symbol=0, lambda_piF=1.0, lambda_piL=-1.0)
    else:
        local = PrimeQuadData(
            symbol=1, lambda_piF=1.0, lambda_piL=2.0, lambda_piF_over_piL=0.5
        )
    return GlobalInput(
        l=12,
        D=4,
        N=p,
        lambda_classvals=(1.0,),
        fourier_classvals=(1.0,),
        a1=1.0,
        r=-11j,
        satake_table={p: (1.0, 1.0, 1.0)},
        gl2_table={p: -1.0},
        local_table={p: local},
    )


def _run_consistency(config: RunConfig) -> List[Record]:
    records = []
    for D in (3, 4):
        for l in range(12, 41, 2):
            ok = theorem3_consistency(_consistency_input(l, D))
            records.append(_record(f"consistency/arch-constant/D{D}/l{l:02d}", ok))

    # The level factor at a single Steinberg prime must reproduce the
    # prefactor of the local closed form, exactly, after removing the
    # zeta factor that the normalization absorbs.
    for p, symbol in ((2, SplittingSymbol.INERT), (3, SplittingSymbol.RAMIFIED), (5, SplittingSymbol.SPLIT)):
        gi = _level_prime_input(p, symbol)
        pre = prefactor(_quad_data(p, symbol))
        for s in (rat(1, 2), rat(1, 3), rat(1)):
            k = 6 * s + 1
            expected = pre / (1 - rat(p) ** (-int(k)))
            got = kappa_N(gi, s)
            ok = got == expected
            witness = None if ok else {"kappa_N": str(got), "expected": str(expected)}
            cls = _SYMBOL_NAMES[symbol]
            tag = f"s{s.numerator}-{s.denominator}"
            records.append(_record(f"consistency/level-factor/p{p}-{cls}/{tag}", ok, witness))

    ok = v_N(2) == rat(1, 45)
    records.append(
        _record("consistency/v-level/2", ok, None if ok else {"v_N": str(v_N(2))})
    )
    return records


# Each subcommand once: its battery, its help line, and the RunConfig fields
# that battery reads.  The parser gives each command a flag per field it
# reads (see _FLAGS), plus --format, and no other.
_COMMANDS = {
    "verify-local": (_run_local, "exact series-vs-closed-form identity over seeded scenarios",
                     ("seed", "trials", "order", "input_path")),
    "verify-arch": (_run_arch, "quadrature vs closed archimedean values, plus fixed identities",
                    ("tolerance", "input_path")),
    "verify-cosets": (_run_cosets, "exhaustive coset audit and matrix identities at p = 2 or 3",
                      ("seed", "trials", "p")),
    "verify-volumes": (_run_volumes, "unit-index formulas against finite-ring counts", ()),
    "lfactor": (_run_lfactor, "print the closed-form local factor for given scenarios",
                ("input_path",)),
    "global": (_run_global, "assemble the truncated global value from an input file",
               ("input_path", "p_max")),
    "consistency": (_run_consistency, "cross-module constant and level-factor identities", ()),
}

# RunConfig field -> (flag, type, help); the default is the field's own.
_FLAGS = {
    "seed": ("--seed", int, "SplitMix64 stream key"),
    "trials": ("--trials", int, "scenarios per battery"),
    "order": ("--order", int, "series truncation order"),
    "tolerance": ("--tol", float, "relative tolerance for quadrature comparisons"),
    "input_path": ("--input", str, "JSON input file"),
    "p": ("--p", int, "residue characteristic for the coset audit"),
    "p_max": ("--pmax", int, "Euler product cutoff"),
}


# ---------------------------------------------------------------------------
# Emission and entry points.
# ---------------------------------------------------------------------------


def _emit(records: Iterable[Record], config: RunConfig, stream: TextIO) -> int:
    ordered = sorted(records, key=lambda r: r["name"])
    failures = sum(1 for r in ordered if r["status"] != "pass")
    if config.output_format == "machine":
        for r in ordered:
            stream.write(
                json.dumps(
                    {
                        "name": r["name"],
                        "status": r["status"],
                        "witness": _json_safe(r["witness"]),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
        return 1 if failures else 0

    width = max((len(str(r["name"])) for r in ordered), default=0)
    for r in ordered:
        stream.write(f"{str(r['name']):<{width}}  {r['status']}\n")
        witness = r["witness"]
        if witness:
            for key, value in witness.items():
                shown = value if isinstance(value, str) else json.dumps(_json_safe(value))
                stream.write(f"    {key}: {shown}\n")
    stream.write(f"{len(ordered)} checks, {failures} failed\n")
    return 1 if failures else 0


def run(config: RunConfig, stream: Optional[TextIO] = None) -> int:
    """Execute one subcommand and write its report; returns the exit status.

    Raises :class:`InputError` (exit status 2 territory) instead of printing
    when the configuration or input file is malformed, so callers embedding
    the driver can format the diagnostic themselves.
    """
    out = sys.stdout if stream is None else stream
    records = _COMMANDS[config.command][0](config)
    return _emit(records, config, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localzeta",
        description="verification batteries for the local and global factors",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    parser.commands = sub.choices
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for name, (_, help_line, reads) in _COMMANDS.items():
        # No abbreviations: "global --p 3" must not be read as --pmax.
        sp = sub.add_parser(name, help=help_line, description=help_line, allow_abbrev=False)
        for key in reads:
            flag, kind, help_text = _FLAGS[key]
            sp.add_argument(flag, dest=key, type=kind, default=defaults[key], help=help_text)
        sp.add_argument(
            "--format",
            dest="output_format",
            choices=("table", "machine"),
            default=defaults["output_format"],
            help="report style: human table or sorted JSON lines",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns, unread = parser.parse_known_args(argv)
    if unread:
        # argparse hands a command's unknown flags up to the top-level parser;
        # report them with the usage line of the command that was given.
        parser.commands[ns.command].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        status = run(RunConfig(**vars(ns)))
        sys.stdout.flush()
        return status
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
