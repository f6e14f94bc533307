"""Command-line driver for the verification batteries.

Seven subcommands run the batteries of ``localzeta.batteries``, where
every check and its fixed data are defined, and print one line per check.
This module only reads the input files, builds the run configuration and
prints the records.  Each subcommand takes only the flags its battery
reads (see ``_COMMANDS``) plus ``--format``; any other flag is a usage
error.  Two output styles: ``table`` for reading, ``machine`` for diffing —
newline-delimited JSON records ``{"name", "status", "witness"}`` sorted by
name, so two invocations with the same command, seed, and input produce
byte-identical output.

Exit status is 0 when every check passes, 1 when at least one check fails
(the failing records carry a witness), 2 for malformed input — bad
flags, unreadable files, JSON syntax errors (reported with line and column),
non-finite numbers (``NaN``, ``Infinity``, or a literal past the float range
such as ``1e400``), integer literals longer than Python converts, or schema
violations (reported with the JSON path of the offending value) —
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
from dataclasses import dataclass, fields
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from . import batteries
from .exact import Rational, rat
from .localfield import LocalQuadData, SplittingSymbol, is_prime
from .satake import SatakeParams, SteinbergData
from .zeta import ScenarioData

if TYPE_CHECKING:
    from .arch import ArchScenario
    from .assembly import GlobalInput

# Exit status when stdout's reader closes early: 128 + SIGPIPE, as a shell
# reports a process killed by that signal.
EXIT_BROKEN_PIPE = 141

# The largest series truncation order verify-local accepts.
MAX_ORDER = 1000

# The most scenarios per battery verify-local accepts.
MAX_TRIALS = 10_000

_SYMBOLS_BY_NAME = {name: sym for sym, name in batteries.SYMBOL_NAMES.items()}

_RATIONAL_RE = re.compile(r"\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?\Z")
_PRIME_KEY_RE = re.compile(r"[1-9][0-9]*")


class InputError(ValueError):
    """Malformed configuration or input file; mapped to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for :func:`run`.

    ``seed`` keys the SplitMix64 scenario streams, ``trials`` sizes the
    randomized batteries, at least 1 and for verify-local at most
    ``MAX_TRIALS`` = 10000 (verify-local holds its records, nine per trial
    at about 0.47 KB each, until it prints them, so 10000 trials hold
    about 42 MB), ``order`` is the series truncation order for the local
    identity check, at least 8 and at most ``MAX_ORDER`` = 1000 (a check's
    cost grows faster than the square of the order, so a huge order would
    run for hours or exhaust memory), and ``tolerance``, a positive finite
    number, bounds the quadrature-vs-closed comparison of the archimedean
    battery (the fixed-precision identities keep their own pinned
    tolerances).  ``p`` selects the residue characteristic for the coset
    audit and ``p_max`` truncates the Euler product of the ``global``
    command.
    """

    command: str
    seed: int = 20260816
    trials: int = 50
    order: int = 25
    tolerance: float = batteries.ZINF_TOLERANCE
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
        if self.command == "verify-local" and self.trials > MAX_TRIALS:
            raise InputError(f"--trials must be at most {MAX_TRIALS}, got {self.trials}")
        if self.command == "verify-local" and self.order < 8:
            raise InputError(
                "verify-local needs order >= 8 to see past the degree of the "
                f"closed-form denominator, got {self.order}"
            )
        if self.command == "verify-local" and self.order > MAX_ORDER:
            raise InputError(f"--order must be at most {MAX_ORDER}, got {self.order}")
        if not 0 < self.tolerance < math.inf:
            raise InputError(f"tolerance must be positive and finite, got {self.tolerance}")
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


def _refuse_constant(token: str) -> float:
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is past the float range")
    return value


def _load_document(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
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
        try:
            num, den = int(m.group(1)), int(m.group(2) or 1)
        except ValueError as exc:  # past int()'s limit on decimal digits
            raise InputError(f"{where}: {_shown(value)} has too many digits to read") from exc
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
    if isinstance(value, (int, float, str)):
        exact = _parse_rational(value, where) if isinstance(value, str) else value
        try:
            return complex(exact)
        except OverflowError as exc:
            raise InputError(f"{where}: past the float range ({exc})") from exc
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


def _is_input_prime(p: int) -> bool:
    """Whether p is a prime below 2**53, the rule for every prime an input
    names: past it, floats, in which the Euler factors are evaluated, no
    longer hold every integer.  The bound comes first, as is_prime is slow
    on a long integer."""
    return p < 2**53 and is_prime(p)


def _shown(text: str) -> str:
    """text, or its first 20 characters and its length once it is long."""
    return text if len(text) < 30 else f"{text[:20]}... ({len(text)} characters)"


def _local_scenario_from(value: object, where: str) -> ScenarioData:
    obj = _as_object(value, where)
    q = _parse_int(_field(obj, "q", where), f"{where}.q")
    if not _is_input_prime(q):
        raise InputError(f"{where}.q: must be a prime below 2**53, got {_shown(str(q))}")
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
    from .arch import ArchScenario, z_inf_closed
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
        sc = build()
        z_inf_closed(sc)  # a Gamma pole of the closed form raises GammaPoleError
    except (ValueError, ArithmeticError) as exc:  # past the float range, or 0.0 to a complex power
        raise InputError(f"{where}: {exc}") from exc
    return sc


def _prime_table(value: object, where: str) -> Dict[int, object]:
    """A table keyed by primes below 2**53 (see _is_input_prime)."""
    obj = _as_object(value, where)
    table: Dict[int, object] = {}
    for key, entry in obj.items():
        p = int(key) if _PRIME_KEY_RE.fullmatch(key) and len(key) < 17 else 0
        if not _is_input_prime(p):
            raise InputError(
                f"{where}: table keys must be primes below 2**53 written in plain "
                f"decimal, got {_shown(key)!r}"
            )
        table[p] = entry
    return table


def _global_input_from(value: object, where: str) -> Tuple[GlobalInput, complex]:
    from .assembly import GlobalInput, PrimeQuadData
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
        if v.imag or not v.real > 0:
            raise InputError(f"{where}.{key}: a Petersson norm is a positive real number")
        return v.real

    norms = {key: norm(key) for key in ("petersson_phi", "petersson_psi")}
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
            **norms,
        )
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return gi, s


def _scenarios(config: RunConfig, key: str, parse) -> Optional[list]:
    """The input file's ``key`` array, each entry read by ``parse``; None
    without --input."""
    if config.input_path is None:
        return None
    doc = _load_document(config.input_path)
    raw = doc.get(key)
    if not isinstance(raw, list) or not raw:
        raise InputError(
            f"{config.input_path}: top-level key {key!r} must be a non-empty array"
        )
    return [parse(entry, f"{key}[{i}]") for i, entry in enumerate(raw)]


# ---------------------------------------------------------------------------
# Subcommands: read the input if there is one, then run the battery that
# localzeta.batteries defines for the command.
# ---------------------------------------------------------------------------


def _records(checks: Iterable[batteries.Check]) -> List[Record]:
    return [_record(name, *check()) for name, check in checks]


def _run_local(config: RunConfig) -> List[Record]:
    scenarios = _scenarios(config, "local_scenarios", _local_scenario_from)
    return _records(batteries.local_checks(config.seed, config.trials, config.order, scenarios))


def _run_arch(config: RunConfig) -> List[Record]:
    scenarios = _scenarios(config, "arch_scenarios", _arch_scenario_from)
    return _records(batteries.arch_checks(config.tolerance, scenarios))


def _run_cosets(config: RunConfig) -> List[Record]:
    if config.p not in (2, 3):
        raise InputError(
            f"the coset audit is exhaustive and only runs for p in (2, 3), got p = {config.p}"
        )
    return _records(batteries.coset_checks(config.p, config.seed, config.trials))


def _run_volumes(config: RunConfig) -> List[Record]:
    return _records(batteries.volume_checks())


def _run_lfactor(config: RunConfig) -> List[Record]:
    return _records(batteries.lfactor_checks(_scenarios(config, "local_scenarios", _local_scenario_from)))


def _run_global(config: RunConfig) -> List[Record]:
    if config.input_path is None:
        raise InputError("the global command needs --input with a 'global_input' object")
    doc = _load_document(config.input_path)
    if "global_input" not in doc:
        raise InputError(
            f"{config.input_path}: missing required top-level key 'global_input'"
        )
    gi, s = _global_input_from(doc["global_input"], "global_input")
    try:
        return _records(batteries.global_checks(gi, s, config.p_max))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _run_consistency(config: RunConfig) -> List[Record]:
    return _records(batteries.consistency_checks())


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
