"""End-to-end checks for the command-line verification driver."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localzeta import arch, assembly, batteries, cli, cosets, localfield
from localzeta.cli import InputError, RunConfig, main, run
from localzeta.localfield import SplittingSymbol


ROOT = Path(__file__).resolve().parents[1]

# Every CLI output the benchmark checks: the sha256 of its stdout by command line.
BENCHMARK_DIGESTS = {
    " ".join(entry["argv"]): entry["sha256"]
    for entries in json.loads(
        (ROOT / "perfbench" / "cli_checks.json").read_text(encoding="utf-8")
    ).values()
    for entry in entries
}

# s for the global command: 0, reals from 1e-300 to 1e308 in size, integers
# of up to 400 digits, and [re, im] pairs of them.
_EXTREME_REALS = st.one_of(
    st.just(0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1, -1]), st.integers(-300, 308)),
    st.floats(min_value=-1e308, max_value=1e308),
    st.integers(min_value=-(10**400), max_value=10**400),
)
EXTREME_S = st.one_of(_EXTREME_REALS, st.lists(_EXTREME_REALS, min_size=2, max_size=2))


def committed_global_doc(**overrides):
    doc = json.loads((ROOT / "perfbench" / "inputs" / "global.json").read_text(encoding="utf-8"))
    doc["global_input"].update(overrides)
    return doc


def run_capture(config):
    buf = io.StringIO()
    code = run(config, buf)
    return code, buf.getvalue()


def records_of(text):
    return [json.loads(line) for line in text.splitlines()]


def strict_records_of(text):
    """Like records_of, but NaN and Infinity, which are not JSON, fail."""

    def no_constants(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return [json.loads(line, parse_constant=no_constants) for line in text.splitlines()]


@contextlib.contextmanager
def within(seconds):
    """Fail the test, rather than hang it, once the block runs ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")  # not caught as an Exception

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def valid_local_doc():
    # omega_pi = u0^2 u1 u2 = 1 in the split scenario, so lambda_piF = 1.
    return {
        "local_scenarios": [
            {
                "q": 3,
                "symbol": "split",
                "lambda": {"piF": "1", "piL": "4", "piF_over_piL": "1/4"},
                "satake": {"u0": "1/2", "u1": "3", "u2": "4/3"},
                "omega": "2",
            },
            {
                "q": 2,
                "symbol": "inert",
                "lambda": {"piF": 1},
                "satake": {"u0": 1, "u1": 1, "u2": 1},
                "omega": 1,
            },
        ]
    }


# Split at q = 3, with sqrt(3) in the numerator of its factor, and inert at q = 5.
TWO_SCENARIO_DOC = {
    "local_scenarios": [
        {
            "q": 3,
            "symbol": "split",
            "lambda": {"piF": 1, "piL": 2, "piF_over_piL": "1/2"},
            "satake": {"u0": 1, "u1": "2/3", "u2": "3/2"},
            "omega": -1,
        },
        {
            "q": 5,
            "symbol": "inert",
            "lambda": {"piF": 4},
            "satake": {"u0": 2, "u1": 1, "u2": 1},
            "omega": "1/2",
        },
    ]
}


def valid_global_doc(**overrides):
    base = {
        "l": 12,
        "D": 4,
        "N": 2,
        "lambda_classvals": [1],
        "fourier_classvals": [1],
        "a1": 1,
        "r": [0, -11],
        "satake_table": {"2": [1, 2, "1/2"], "3": [1, 1, 1]},
        "gl2_table": {"2": -1, "3": [1, 1]},
        "local_table": {
            "2": {"symbol": "inert", "lambda": {"piF": 1}},
            "3": {"symbol": "inert", "lambda": {"piF": 1}},
        },
        "s": 1.5,
    }
    base.update(overrides)
    return {"global_input": base}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


@dataclass(frozen=True)
class Row:
    """What one command line must do, run in-process by TestContract.

    The command runs from the repository root with RuntimeWarning an error,
    given ``--input`` a file that holds ``doc`` when there is one.  It must
    end within ``seconds`` and exit with ``code``.  Its stderr must be empty
    when ``stderr`` is, else match the regex ``stderr``, and never hold a
    traceback.  In ``--format machine`` output, the passing records under
    each name prefix of ``passes`` ("" for all records) must number as it
    says.  Its stdout's sha256 must be ``sha256``, or the digest of
    perfbench/cli_checks.json where the benchmark checks the same command
    line.  A fresh interpreter running it may load no module of the
    ``unloaded`` packages (TestEntryPoints).
    """

    name: str
    command: str
    code: int = 0
    passes: Optional[Dict[str, int]] = None
    stderr: str = ""
    sha256: Optional[str] = None
    seconds: float = 60
    unloaded: Tuple[str, ...] = ()
    doc: Optional[dict] = None


CONTRACT = [
    # verify-local: the criterion-1 stream, the kilobit coefficients of
    # order 80 (three scenarios per (q, class) cell), and the order cap
    Row("criterion-1", "verify-local --seed 20260816 --trials 100 --order 25 --format machine",
        passes={"": 900}),
    Row("order-80", "verify-local --trials 3 --order 80 --format machine", passes={"": 27}),
    Row("verify-local", "verify-local --trials 2 --order 10 --format machine", passes={"": 18},
        unloaded=("numpy", "scipy")),
    Row("local-default", "verify-local --format machine",
        sha256="be4bb3beb13787f34ea71ef1d06e3be9f484a828e8f41d80f423694a62018c56"),
    Row("local-exact", "verify-local --trials 2 --order 25 --format machine"),
    Row("local-deep", "verify-local --trials 1 --order 40 --format machine"),
    Row("local-input", "verify-local --format machine", passes={"": 2}, doc=TWO_SCENARIO_DOC),
    Row("order-cap", "verify-local --trials 1 --order 100000000000", code=2,
        stderr=r"^error: --order must be at most 1000, got 100000000000$"),
    # lfactor: the default factor, printed whole, and the two-scenario input
    Row("lfactor", "lfactor --format machine", passes={"": 1}, unloaded=("numpy", "scipy"),
        sha256="7042b9721f231bb077cac5ba644f1dcd9b98cd780a260d53b7ffab4369dfaaef"),
    Row("lfactor-input", "lfactor --format machine", passes={"": 2}, doc=TWO_SCENARIO_DOC),
    # verify-arch: the default battery, the benchmark's input, and a
    # tolerance that every comparison would meet
    Row("verify-arch", "verify-arch --format machine", seconds=30,
        passes={"": 56, "arch/zinf/": 13, "arch/mellin/": 31, "arch/reduction/": 12},
        sha256="f553f5be60cc30d3e1637a55750dff74bf44f2c50f29291c906c80bdb4c7af24"),
    Row("arch-quad", "verify-arch --input perfbench/inputs/arch.json --format machine"),
    Row("tol-inf", "verify-arch --tol inf", code=2, stderr="^error: tolerance must be positive and finite"),
    Row("tol-1e400", "verify-arch --tol 1e400", code=2, stderr="^error: tolerance must be positive and finite"),
    # verify-cosets: 500 and 2000 trials per identity over F_p, p = 2^31 - 1
    # (four chunks of 512 attempts), the 640 representatives of p = 3, and
    # p = 5, past the audit's representative lists
    Row("verify-cosets", "verify-cosets --p 2 --trials 5 --format machine", passes={"": 7},
        unloaded=("scipy",)),
    Row("cosets-500", "verify-cosets --p 2 --trials 500 --format machine", passes={"": 7}, seconds=30),
    Row("cosets-2000", "verify-cosets --p 2 --trials 2000 --format machine", passes={"": 7}, seconds=30),
    Row("cosets-p3", "verify-cosets --p 3 --trials 5 --format machine", passes={"": 7}, seconds=30,
        unloaded=("scipy",), sha256="57f475ea7c1ea8884fd10d0923033c1e2a46b19cb9cf0d8fc45bc9e84e5c4a29"),
    Row("cosets-p5", "verify-cosets --p 5", code=2, stderr=r"p in \(2, 3\)"),
    # verify-volumes: V2 = q V1 between two stated formulas in 9 rows
    Row("verify-volumes", "verify-volumes --format machine", unloaded=("scipy",),
        passes={"": 48, "volumes/cancellation/": 9}),
    Row("volumes-table", "verify-volumes",
        sha256="6c41c005363da9e4937dbb12aa772930d31606fea36b08a7096ed7c350d020d2"),
    Row("consistency", "consistency --format machine", passes={"": 40}),
    # global: the committed input, and the same with both Petersson norms,
    # so global/special-value runs too
    Row("global", "global --input perfbench/inputs/global.json --pmax 13 --format machine",
        passes={"": 1}),
    Row("petersson", "global --pmax 13 --format machine", passes={"": 2},
        doc=committed_global_doc(petersson_phi=1.25, petersson_psi=0.5),
        sha256="359e5e23ab00e37cb5c7f952dc4389e6c91d33f1743f159df5dc57b2dd87caf4"),
    # the complex path, which the benchmark's s = 3/2 does not reach
    Row("global-complex", "global --pmax 13 --format machine", passes={"": 1},
        doc=committed_global_doc(s=[0.9, 0.3]),
        sha256="10b6647ad91e38594a41b2bfdb05841bf366a90dfe925dd79d42975086d96bf7"),
]


class TestContract:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", CONTRACT, ids=lambda row: row.name)
    def test_row(self, row, tmp_path, capsys, monkeypatch):
        argv = row.command.split()
        if row.doc is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(row.doc), encoding="utf-8")
            argv += ["--input", str(path)]
        monkeypatch.chdir(ROOT)  # the benchmark's command lines name repo-relative inputs
        with within(row.seconds):
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == row.code and "Traceback" not in err, err
        assert re.search(row.stderr, err, re.MULTILINE) if row.stderr else err == "", err
        if row.passes is not None:
            passed = [r["name"] for r in strict_records_of(out) if r["status"] == "pass"]
            assert {prefix: sum(name.startswith(prefix) for name in passed) for prefix in row.passes} == row.passes
        sha256 = row.sha256 or BENCHMARK_DIGESTS.get(" ".join(argv))
        if sha256 is not None:
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    def test_ci_runs_tier1_and_the_entry_point_only(self):
        # A new expectation of a command is a row above, not a CI step.
        workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
        job = re.search(r"^  tests:\n(.*?)(?=^  \S|\Z)", workflow, re.MULTILINE | re.DOTALL).group(1)
        assert re.findall(r"^ *(?:- )?run: (.*)$", job, re.MULTILINE) == [
            'pip install -e ".[test]"',
            "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=10",
            "localzeta verify-local --trials 2 --order 10 --format machine > /dev/null",
        ]


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig(command="lfactor")
        assert config.output_format == "table"
        assert config.trials == 50

    def test_unknown_command(self):
        with pytest.raises(InputError, match="unknown command"):
            RunConfig(command="frobnicate")

    def test_trials_must_be_positive(self):
        with pytest.raises(InputError, match="trials"):
            RunConfig(command="verify-local", trials=0)

    def test_order_floor_applies_only_to_verify_local(self):
        with pytest.raises(InputError, match="order >= 8"):
            RunConfig(command="verify-local", order=7)
        RunConfig(command="lfactor", order=7)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(InputError, match="tolerance"):
            RunConfig(command="verify-arch", tolerance=tol)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_64_bits(self, seed):
        with pytest.raises(InputError, match="64-bit"):
            RunConfig(command="verify-local", seed=seed)

    def test_output_format_is_checked(self):
        with pytest.raises(InputError, match="format"):
            RunConfig(command="lfactor", output_format="yaml")


class TestMachineFormat:
    def test_records_are_sorted_and_well_formed(self):
        code, out = run_capture(
            RunConfig(command="verify-local", trials=2, order=10, output_format="machine")
        )
        assert code == 0
        records = records_of(out)
        names = [r["name"] for r in records]
        assert names == sorted(names)
        for r in records:
            assert set(r) == {"name", "status", "witness"}
            assert r["status"] == "pass"

    def test_byte_identical_reruns(self):
        config = RunConfig(
            command="verify-local", trials=3, order=10, seed=99, output_format="machine"
        )
        _, first = run_capture(config)
        _, second = run_capture(config)
        assert first == second

    def test_stream_size_counts_classes_and_primes(self):
        code, out = run_capture(
            RunConfig(command="verify-local", trials=2, order=10, output_format="machine")
        )
        assert code == 0
        assert len(records_of(out)) == 2 * 3 * 3


    @pytest.mark.parametrize(
        "value, shown",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (complex(math.nan, -math.inf), ["nan", "-inf"]),
            (complex(1.5, math.inf), [1.5, "inf"]),
            (2.5, 2.5),
        ],
    )
    def test_non_finite_floats_become_strings(self, value, shown):
        assert cli._json_safe(value) == shown


class TestVerifyLocal:
    def test_input_file_route(self, write_doc):
        path = write_doc(valid_local_doc())
        code, out = run_capture(
            RunConfig(command="verify-local", input_path=path, output_format="machine")
        )
        assert code == 0
        names = [r["name"] for r in records_of(out)]
        assert names == ["local/input/000", "local/input/001"]

    def test_pairing_violation_is_an_input_error(self, write_doc, capsys):
        doc = valid_local_doc()
        doc["local_scenarios"][0]["lambda"] = {
            "piF": "2",
            "piL": "4",
            "piF_over_piL": "1/2",
        }
        path = write_doc(doc)
        assert main(["verify-local", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "local_scenarios[0]" in err

    def test_float_rational_is_rejected_with_path(self, write_doc, capsys):
        doc = valid_local_doc()
        doc["local_scenarios"][1]["lambda"]["piF"] = 0.5
        path = write_doc(doc)
        assert main(["verify-local", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "local_scenarios[1].lambda.piF" in err
        assert "num/den" in err

    @pytest.mark.parametrize("command", ["verify-local", "lfactor"])
    @pytest.mark.parametrize("q", [4, 9, 10**18, 10**300], ids=["4", "9", "1e18", "1e300"])
    def test_q_not_a_prime_below_2_53_is_exit_two(self, write_doc, capsys, command, q):
        doc = valid_local_doc()
        doc["local_scenarios"][1]["q"] = q
        path = write_doc(doc)
        assert main([command, "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: local_scenarios[1].q: must be a prime below 2**53, got ")
        assert "Traceback" not in err

    def test_81_digit_denominators_pass_at_order_80_without_factoring(self, write_doc, capsys):
        """Satake values and Omega over the 81-digit D = 10^80 + 129: the
        series' denominator bound comes from the roots' denominators as they
        stand, so no denominator is factored and the check ends in seconds."""
        d = 10**80 + 129
        doc = {
            "local_scenarios": [
                {
                    "q": 3,
                    "symbol": "split",
                    "lambda": {"piF": f"6/{d * d}", "piL": f"2/{d}", "piF_over_piL": f"3/{d}"},
                    "satake": {"u0": 1, "u1": f"2/{d}", "u2": f"3/{d}"},
                    "omega": f"5/{d}",
                }
            ]
        }
        path = write_doc(doc)
        with within(3):
            code = main(["verify-local", "--input", path, "--order", "80", "--format", "machine"])
        assert code == 0
        assert records_of(capsys.readouterr().out) == [
            {"name": "local/input/000", "status": "pass", "witness": None}
        ]

    def test_checks_are_drawn_as_they_are_taken(self):
        # 2000 trials are 18,000 checks; built up front they peaked at 24 MiB
        tracemalloc.start()
        try:
            checks = batteries.local_checks(20260816, 2000, 25)
            first = [name for name, _ in itertools.islice(checks, 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == ["local/q2/inert/0000", "local/q2/inert/0001", "local/q2/inert/0002"]
        assert peak < 256 * 1024

    def test_empty_scenario_list_is_rejected(self, write_doc):
        path = write_doc({"local_scenarios": []})
        with pytest.raises(InputError, match="non-empty"):
            run(RunConfig(command="verify-local", input_path=path), io.StringIO())


class TestVerifyArch:
    def test_input_scenarios_pass_at_default_tolerance(self, write_doc):
        path = write_doc(
            {
                "arch_scenarios": [
                    {"l": 12, "l1": 12, "D": 4, "s": 1.5},
                    {"l": 12, "s1": 0.2, "s2": -0.2, "D": 3, "s": 1},
                ]
            }
        )
        code, out = run_capture(
            RunConfig(command="verify-arch", input_path=path, output_format="machine")
        )
        assert code == 0
        records = records_of(out)
        names = [r["name"] for r in records]
        assert "arch/zinf/input-000" in names
        assert "arch/zinf/input-001" in names
        # fixed-tolerance identities always ride along
        assert any(n.startswith("arch/reduction/") for n in names)
        assert any(n.startswith("arch/mellin/") for n in names)

    def test_unattainable_tolerance_fails_with_witness(self, write_doc):
        path = write_doc({"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]})
        code, out = run_capture(
            RunConfig(
                command="verify-arch",
                input_path=path,
                tolerance=1e-18,
                output_format="machine",
            )
        )
        assert code == 1
        failing = [r for r in records_of(out) if r["status"] == "fail"]
        assert failing
        witness = failing[0]["witness"]
        assert set(witness) == {"closed", "quadrature", "abs_error"}
        assert witness["abs_error"] > 0

    def test_wrong_closed_form_fails_with_witness(self, write_doc, monkeypatch):
        closed = arch.z_inf_closed
        monkeypatch.setattr(arch, "z_inf_closed", lambda sc: 2 * closed(sc))
        path = write_doc({"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]})
        code, out = run_capture(
            RunConfig(command="verify-arch", input_path=path, output_format="machine")
        )
        assert code == 1
        failing = [r for r in records_of(out) if r["status"] == "fail"]
        assert [r["name"] for r in failing] == ["arch/zinf/input-000"]
        assert set(failing[0]["witness"]) == {"closed", "quadrature", "abs_error"}

    def test_non_converged_lambda_integral_fails_with_witness(self, write_doc, monkeypatch):
        def noise(kappa, mu):
            return lambda xs: np.where(np.arange(xs.size) % 2, -1.0, 1.0) * 1e6

        monkeypatch.setattr(arch, "_whittaker_w_route", noise)
        path = write_doc({"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]})
        code, out = run_capture(
            RunConfig(command="verify-arch", input_path=path, output_format="machine")
        )
        assert code == 1
        record = {r["name"]: r for r in records_of(out)}["arch/zinf/input-000"]
        assert record["status"] == "fail"
        witness = record["witness"]
        assert set(witness) == {"u", "segment", "intervals", "abserr", "tolerance"}
        assert witness["u"] >= 1.0
        assert witness["segment"] == [0.0, 1.0]
        assert witness["intervals"] == 200
        assert witness["abserr"] > witness["tolerance"]

    def test_overflowing_scenario_fails_with_witness(self, write_doc, capsys):
        # schema-valid, but its lambda-integrand overflows double precision
        path = write_doc({"arch_scenarios": [{"l": 200, "l1": 200, "D": 4, "s": 1.5}]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify-arch", "--input", path, "--format", "machine"])
        assert code == 1
        # numpy's overflow warnings would reach stderr; the witness says it
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        record = {r["name"]: r for r in strict_records_of(out)}["arch/zinf/input-000"]
        assert record["status"] == "fail"
        witness = record["witness"]
        assert set(witness) == {"u", "segment", "intervals", "abserr", "tolerance"}
        assert witness["u"] >= 1.0
        assert witness["tolerance"] == "nan"

    def test_non_converged_mellin_integral_fails_with_witness(self, write_doc, monkeypatch):
        def noise(kappa, mu):
            return lambda xs: np.where(np.arange(xs.size) % 2, -1.0, 1.0) * 1e6

        monkeypatch.setattr(arch, "_whittaker_w_route", noise)
        path = write_doc({"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]})
        code, out = run_capture(
            RunConfig(command="verify-arch", input_path=path, output_format="machine")
        )
        assert code == 1
        mellin = [r for r in records_of(out) if r["name"].startswith("arch/mellin/")]
        assert len(mellin) == 31
        for record in mellin:
            assert record["status"] == "fail"
            witness = record["witness"]
            assert set(witness) == {"segment", "intervals", "abserr", "tolerance"}
            assert witness["segment"] == [0.0, 1.0]
            assert witness["intervals"] == 200
            assert witness["abserr"] > witness["tolerance"]

    def test_non_converged_u_integral_fails_with_witness(self, write_doc, monkeypatch):
        def swinging(sc, us):
            return (1e6 * np.sin(1e6 * us)).astype(complex)

        monkeypatch.setattr(arch, "_lambda_integral", swinging)
        path = write_doc({"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]})
        code, out = run_capture(
            RunConfig(command="verify-arch", input_path=path, output_format="machine")
        )
        assert code == 1
        record = {r["name"]: r for r in strict_records_of(out)}["arch/zinf/input-000"]
        assert record["status"] == "fail"
        witness = record["witness"]
        assert set(witness) == {"segment", "intervals", "abserr", "tolerance"}
        assert witness["segment"] == [0.0, 1.0]
        assert witness["intervals"] == 200
        assert witness["abserr"] > witness["tolerance"]

    def test_scenario_needs_a_spectral_datum(self, write_doc):
        path = write_doc({"arch_scenarios": [{"l": 12, "D": 4, "s": 1.5}]})
        with pytest.raises(InputError, match="s1"):
            run(RunConfig(command="verify-arch", input_path=path), io.StringIO())

    def test_scenario_with_two_spectral_data_is_rejected(self, write_doc, capsys):
        path = write_doc(
            {
                "arch_scenarios": [
                    {"l": 12, "l1": 12, "D": 4, "s": 1.5},
                    {"l": 12, "l1": 12, "r": 3, "D": 4, "s": 1.5},
                ]
            }
        )
        assert main(["verify-arch", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "arch_scenarios[1]" in err and "l1 and r" in err

    def test_q_c_only_with_l1_or_r(self, write_doc, capsys):
        # A principal series sets q_c = s1 + s2 itself, so a given q_c would be dropped.
        path = write_doc(
            {"arch_scenarios": [{"l": 12, "s1": 0.2, "s2": -0.2, "q_c": 5, "D": 3, "s": 1}]}
        )
        assert main(["verify-arch", "--input", path]) == 2
        assert "arch_scenarios[0].q_c" in capsys.readouterr().err
        for entry in ({"l": 12, "l1": 12, "q_c": 0.5, "D": 4, "s": 1.5},
                      {"l": 12, "r": 3, "q_c": 0.5, "D": 4, "s": 1.5}):
            assert cli._arch_scenario_from(entry, "x").q_c == 0.5

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                {"l": 12, "s1": "x", "s2": 0, "D": 3, "s": 1},
                "error: arch_scenarios[0].s1: expected 'num/den', got 'x'",
            ),
            (
                {"l": 13, "s1": 0, "s2": 0, "D": 3, "s": 1},
                "error: arch_scenarios[0]: l must be an even integer >= 2",
            ),
        ],
        ids=["parse-error", "constructor-error"],
    )
    def test_error_names_the_entry_once(self, write_doc, capsys, entry, message):
        path = write_doc({"arch_scenarios": [entry]})
        assert main(["verify-arch", "--input", path]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"l": 12, "l1": 12, "D": 4, "s": -3}, "requires Re(6s + l - q_c) > 0; got -6"),
            ({"l": 12, "r": [0, 1e300], "D": 4, "s": 1.5}, "gamma pole at z = -5e+299"),
            # integers past the float range, which the closed form cannot evaluate
            ({"l": 10**400, "l1": 12, "D": 4, "s": 1.5}, "int too large to convert to float"),
            ({"l": 12, "l1": 10**400, "D": 4, "s": 1.5}, "int too large to convert to float"),
            ({"l": 12, "l1": 12, "D": 10**400, "s": 1.5}, "int too large to convert to float"),
        ],
        ids=["outside-convergence", "gamma-pole", "huge-l", "huge-l1", "huge-D"],
    )
    def test_scenario_without_a_closed_value_is_exit_two(self, write_doc, capsys, entry, message):
        path = write_doc({"arch_scenarios": [entry]})
        assert main(["verify-arch", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: arch_scenarios[0]: {message}\n" and "Traceback" not in err

    def test_builtin_grid_constructs(self):
        grid = batteries.arch_grid()
        assert len(grid) == 13
        tags = [tag for tag, _ in grid]
        assert len(set(tags)) == 13


class TestVerifyCosets:
    def test_exhaustive_audit_at_two(self):
        code, out = run_capture(
            RunConfig(command="verify-cosets", trials=10, output_format="machine")
        )
        assert code == 0
        by_name = {r["name"]: r for r in records_of(out)}
        audit = by_name["cosets/p2/audit"]
        assert audit["witness"]["cosets"] == 45
        assert audit["witness"]["group_order"] == 720
        for which in ("i", "ii", "vi", "m0-equiv", "mpos-equiv"):
            assert by_name[f"cosets/identity/{which}"]["status"] == "pass"
        assert by_name["cosets/count-polynomial"]["status"] == "pass"

    def test_duplicated_representative_fails_the_audit(self, monkeypatch, capsys):
        reps = cosets.bruhat_reps

        def first_twice(p):
            out = reps(p).copy()
            out[1] = out[0]
            return out

        monkeypatch.setattr(cosets, "bruhat_reps", first_twice)
        assert main(["verify-cosets", "--trials", "2", "--format", "machine"]) == 1
        failed = [r for r in strict_records_of(capsys.readouterr().out) if r["status"] != "pass"]
        assert [r["name"] for r in failed] == ["cosets/p2/audit"]
        witness = failed[0]["witness"]
        assert witness["pairwise_distinct"] is False
        # rows 0 and 1 at p = 2: the one torus of family 1, then family 2's first
        assert witness["positions"] == [0, 1] and witness["families"] == [1, 2]
        # the witness is g k for the doubled representative g and a k in
        # the level subgroup: g^-1 = -J g^T J for a symplectic g
        g = reps(2)[0].reshape(4, 4).astype(np.int64)
        J = np.asarray(cosets.J4, dtype=np.int64)
        k = (-J @ g.T @ J @ np.reshape(witness["witness"], (4, 4))) % 2
        assert cosets.ksharp_mod_p_member(k.reshape(16), 2)

    def test_missing_representative_fails_the_count(self, monkeypatch, capsys):
        reps = cosets.bruhat_reps
        monkeypatch.setattr(cosets, "bruhat_reps", lambda p: reps(p)[:-1])
        assert main(["verify-cosets", "--trials", "2", "--format", "machine"]) == 1
        failed = [r for r in strict_records_of(capsys.readouterr().out) if r["status"] != "pass"]
        assert [r["name"] for r in failed] == ["cosets/p2/audit"]
        witness = failed[0]["witness"]
        assert witness["covers_group"] is False
        assert witness["pairwise_distinct"] is True
        assert witness["positions"] is None and witness["families"] is None
        assert witness["cosets"] == 44 and witness["group_order"] == 720


class TestVerifyVolumes:
    def test_full_battery_passes(self):
        code, out = run_capture(
            RunConfig(command="verify-volumes", output_format="machine")
        )
        assert code == 0
        records = records_of(out)
        # 9 residue presentations x 4 depths, 9 cancellation rows, 3 volumes
        assert len(records) == 9 * 4 + 9 + 3
        assert all(r["status"] == "pass" for r in records)
        names = {r["name"] for r in records}
        assert "volumes/index/p5/split/m3" in names
        assert "volumes/ksharp/q3" in names

    def test_one_perturbed_oracle_count_fails_that_cell(self, monkeypatch, capsys):
        counted = localfield.unit_index_oracle
        target = (*batteries.ORACLE_TRIPLES[(3, "split")], 3, 2)

        def off_by_one(*args):
            return counted(*args) + (args == target)

        monkeypatch.setattr(localfield, "unit_index_oracle", off_by_one)
        assert main(["verify-volumes", "--format", "machine"]) == 1
        failed = [r for r in strict_records_of(capsys.readouterr().out) if r["status"] != "pass"]
        assert failed == [
            {
                "name": "volumes/index/p3/split/m2",
                "status": "fail",
                "witness": {"formula": "6", "oracle": 7},
            }
        ]


    def test_one_wrong_volume_fails_that_cancellation_row(self, monkeypatch, capsys):
        volume = cosets.volume_V2

        def wrong_in_one_cell(data, l, m):
            cell = (data.q, data.symbol, l, m) == (3, SplittingSymbol.SPLIT, 4, 3)
            return volume(data, l, m) + cell

        monkeypatch.setattr(cosets, "volume_V2", wrong_in_one_cell)
        assert main(["verify-volumes", "--format", "machine"]) == 1
        failed = [r for r in strict_records_of(capsys.readouterr().out) if r["status"] != "pass"]
        assert [r["name"] for r in failed] == ["volumes/cancellation/q3/split"]
        witness = failed[0]["witness"]
        assert (witness["l"], witness["m"]) == (4, 3)
        assert set(witness) == {"l", "m", "V1", "V2"}

    def test_each_cancellation_row_visits_its_whole_range(self, monkeypatch):
        # passing rows carry no witness, so only the visited cells show
        # that a row checks every l in (2, 4, 6) and every m in 1..4
        visited = []
        volume = cosets.volume_V1

        def recorded(data, l, m):
            visited.append((l, m))
            return volume(data, l, m)

        monkeypatch.setattr(cosets, "volume_V1", recorded)
        rows = [
            (name, check)
            for name, check in batteries.volume_checks()
            if name.startswith("volumes/cancellation/")
        ]
        assert len(rows) == 9
        for name, check in rows:
            visited.clear()
            assert check() == (True, None), name
            assert sorted(visited) == [(l, m) for l in (2, 4, 6) for m in range(1, 5)], name


DEFAULT_FACTOR = "(1/15 - 1/120*t^2) / (1 - 2*t + 3/2*t^2 - 1/2*t^3 + 1/16*t^4)"


class TestLfactor:
    def test_default_prints_the_trivial_factor(self, capsys):
        assert main(["lfactor"]) == 0
        out = capsys.readouterr().out
        assert f"factor: {DEFAULT_FACTOR}\n" in out

    def test_machine_record_carries_the_factor(self):
        code, out = run_capture(RunConfig(command="lfactor", output_format="machine"))
        assert code == 0
        (record,) = records_of(out)
        assert record["name"] == "lfactor/000"
        assert record["witness"]["q"] == 2
        assert record["witness"]["factor"] == DEFAULT_FACTOR

    def test_factors_of_the_two_scenario_input(self, write_doc):
        # The whole strings pin every coefficient, the top one of each
        # degree-4 denominator too.
        code, out = run_capture(
            RunConfig(command="lfactor", input_path=write_doc(TWO_SCENARIO_DOC), output_format="machine")
        )
        assert code == 0
        assert [r["witness"]["factor"] for r in records_of(out)] == [
            "(1/80 + (1/288*sqrt(3))*t + 1/2160*t^2)"
            " / (1 + 25/18*t + 19/27*t^2 + 25/162*t^3 + 1/81*t^4)",
            "(1/156 - 1/19500*t^2) / (1 - 4/5*t + 6/25*t^2 - 4/125*t^3 + 1/625*t^4)",
        ]

    def test_input_scenarios_each_get_a_record(self, write_doc):
        path = write_doc(valid_local_doc())
        code, out = run_capture(
            RunConfig(command="lfactor", input_path=path, output_format="machine")
        )
        assert code == 0
        records = records_of(out)
        assert [r["name"] for r in records] == ["lfactor/000", "lfactor/001"]
        assert all("/" in r["witness"]["factor"] for r in records)

    def test_factor_too_long_to_print_fails_its_record(self, write_doc):
        # Omega of 4000 digits is readable, but the factor holds its square,
        # past int()'s limit on printing decimal digits.
        doc = valid_local_doc()
        doc["local_scenarios"][1]["omega"] = int("9" * 4000)
        code, out = run_capture(
            RunConfig(command="lfactor", input_path=write_doc(doc), output_format="machine")
        )
        assert code == 1
        passed, failed = records_of(out)
        assert passed["status"] == "pass" and "factor" in passed["witness"]
        assert failed["status"] == "fail"
        assert failed["witness"] == {
            "q": 2, "symbol": "inert", "error": "a coefficient has too many digits to print",
        }


class TestGlobal:
    def test_report_record(self, write_doc):
        path = write_doc(valid_global_doc())
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        assert code == 0
        (record,) = records_of(out)
        assert record["name"] == "global/z"
        witness = record["witness"]
        assert witness["primes_used"] == 2
        assert witness["in_convergence_region"] is True
        assert witness["tail_bound"] > 0
        assert any("assembled" in note for note in witness["notes"])

    def test_infinite_tail_bound_is_printed_as_json(self, write_doc):
        # Re(s) = 1/10 is outside absolute convergence: the tail bound is inf
        path = write_doc(valid_global_doc(s="1/10"))
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        assert code == 0
        (record,) = strict_records_of(out)
        assert record["witness"]["tail_bound"] == "inf"

    @pytest.mark.parametrize(
        "s, in_region, infinite_bound",
        [
            ("1/10", False, True),
            ("1/6", False, True),
            ("17/100", True, True),  # inside, but the bound overflows expm1
            ("1/5", True, False),
        ],
    )
    def test_region_flag_is_re_s_above_one_sixth(
        self, write_doc, s, in_region, infinite_bound
    ):
        path = write_doc(valid_global_doc(s=s))
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        assert code == 0
        (record,) = strict_records_of(out)
        assert record["witness"]["in_convergence_region"] is in_region
        assert (record["witness"]["tail_bound"] == "inf") is infinite_bound

    def test_special_value_needs_norms_and_holomorphic_point(self, write_doc):
        doc = valid_global_doc(petersson_phi=1.0, petersson_psi=2.5)
        path = write_doc(doc)
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        assert code == 0
        names = [r["name"] for r in records_of(out)]
        assert "global/special-value" in names

        # same data but off the holomorphic point: no special-value record
        doc = valid_global_doc(petersson_phi=1.0, petersson_psi=2.5, r=[0, -10.5])
        path = write_doc(doc, name="off-point.json")
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        assert code == 0
        assert "global/special-value" not in [r["name"] for r in records_of(out)]

    def test_the_disclaimer_rides_with_the_ratio(self, write_doc):
        path = write_doc(valid_global_doc(petersson_phi=1.0, petersson_psi=2.5))
        code, out = run_capture(
            RunConfig(command="global", input_path=path, p_max=3, output_format="machine")
        )
        by_name = {r["name"]: r for r in records_of(out)}
        assert "not certified" in by_name["global/special-value"]["witness"]["note"]

    @pytest.mark.parametrize(
        "phi, psi, key",
        [(0, 1, "petersson_phi"), (-1, 1, "petersson_phi"), (1, 0, "petersson_psi"), (1, -2.5, "petersson_psi")],
    )
    def test_petersson_norm_must_be_positive(self, write_doc, capsys, phi, psi, key):
        path = write_doc(valid_global_doc(petersson_phi=phi, petersson_psi=psi))
        assert main(["global", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: global_input.{key}: a Petersson norm is a positive real number\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "psi, witness",
        [
            # the norms' product underflows to 0
            (1e-300, {"p_max": 3, "error": "complex division by zero"}),
            # pi^52 (Phi,Phi)(Psi,Psi) is about 1e-310, and the ratio past the float range
            (1e-36, None),
        ],
        ids=["underflow", "overflow"],
    )
    def test_special_value_that_is_not_finite_fails(self, write_doc, capsys, psi, witness):
        path = write_doc(valid_global_doc(petersson_phi=1e-300, petersson_psi=psi))
        assert main(["global", "--input", path, "--pmax", "3", "--format", "machine"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        records = {r["name"]: r for r in strict_records_of(out)}
        assert records["global/z"]["status"] == "pass"
        record = records["global/special-value"]
        assert record["status"] == "fail"
        if witness is None:
            assert "inf" in record["witness"]["ratio"]
        else:
            assert record["witness"] == witness

    @pytest.mark.parametrize("p_max", ["17", "100000000", "1000000000000"])
    def test_pmax_past_the_table_stops_at_the_first_missing_prime(self, capsys, p_max):
        # the committed table covers the primes through 13
        path = str(ROOT / "perfbench" / "inputs" / "global.json")
        with within(1):
            code = main(["global", "--input", path, "--pmax", p_max])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: missing local data for p = 17\n" and "Traceback" not in err

    def test_missing_input_is_exit_two(self, capsys):
        assert main(["global"]) == 2
        assert "global_input" in capsys.readouterr().err

    def test_cutoff_below_level_prime_is_exit_two(self, write_doc, capsys):
        path = write_doc(valid_global_doc())
        assert main(["global", "--input", path, "--pmax", "1"]) == 2
        assert "level prime" in capsys.readouterr().err

    def test_complex_entries_must_be_real_pairs(self, write_doc, capsys):
        path = write_doc(valid_global_doc(r=[[0, 1], 3]))
        assert main(["global", "--input", path]) == 2
        assert "must be real" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["4", "1", "0", "1_3", "03", "+3", " 3", "3 ", "x", "\u0663"])
    def test_table_keys_are_primes_in_plain_decimal(self, write_doc, capsys, key):
        doc = valid_global_doc()
        doc["global_input"]["gl2_table"][key] = [1, 1]
        path = write_doc(doc)
        assert main(["global", "--input", path, "--pmax", "3"]) == 2
        err = capsys.readouterr().err
        assert "global_input.gl2_table" in err and repr(key) in err

    def test_pole_of_a_local_factor_is_exit_two(self, write_doc):
        # At s = -1/6, t = sqrt(p), and p = 3's degree-8 inverse factor is
        # exactly 0 because its Satake and GL(2) values are all 1.
        path = write_doc(valid_global_doc(s="-1/6"))
        proc = subprocess.run(
            [sys.executable, "-m", "localzeta.cli", "global", "--input", path, "--pmax", "3"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 2
        assert "p = 3" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would reach stderr
    @pytest.mark.parametrize("p_max", ["3", "13"])
    def test_overflowing_s_fails_with_witness(self, write_doc, capsys, p_max):
        # at s = -120, kappa_inf's (4 pi)^(-3s + ...) (and at p_max = 13 the
        # Euler product's p^(-3s)) are past the float range
        path = write_doc(committed_global_doc(s=-120))
        assert main(["global", "--input", path, "--pmax", p_max, "--format", "machine"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        (record,) = strict_records_of(out)
        assert record["name"] == "global/z" and record["status"] == "fail"
        assert record["witness"] == {
            "s": [-120.0, 0.0],
            "p_max": int(p_max),
            "overflow": "complex exponentiation",
        }

    @pytest.mark.parametrize("p_max", ["3", "13"])
    def test_non_finite_value_fails(self, write_doc, capsys, p_max):
        # at s = 300 kappa_inf is nan, and so is the value: no pass
        path = write_doc(committed_global_doc(s=300))
        assert main(["global", "--input", path, "--pmax", p_max, "--format", "machine"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        (record,) = strict_records_of(out)
        assert record["name"] == "global/z" and record["status"] == "fail"
        assert record["witness"]["value"] == ["nan", "nan"]
        assert record["witness"]["p_max"] == int(p_max)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would reach stderr
    @pytest.mark.parametrize("p_max", ["3", "13"])
    def test_zero_to_a_complex_power_fails_with_witness(self, write_doc, capsys, p_max):
        # at s = 1/2 + 1e308 i, p^(-3s) raises ZeroDivisionError, not OverflowError
        path = write_doc(committed_global_doc(s=[0.5, 1e308]))
        assert main(["global", "--input", path, "--pmax", p_max, "--format", "machine"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        (record,) = strict_records_of(out)
        assert record["name"] == "global/z" and record["status"] == "fail"
        assert record["witness"] == {
            "s": [0.5, 1e308],
            "p_max": int(p_max),
            "overflow": "0.0 to a negative or complex power",
        }

    def test_a_numpy_warning_escapes_the_global_check(self, write_doc, monkeypatch):
        # the check absorbs only the region and a(Lambda) warnings, so the
        # caller's filter below sees a floating-point warning of the report
        report = assembly.global_z_report

        def warning_report(gi, s, p_max):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return report(gi, s, p_max)

        monkeypatch.setattr(assembly, "global_z_report", warning_report)
        path = write_doc(committed_global_doc())
        config = RunConfig(command="global", input_path=path, p_max=13, output_format="machine")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
                run_capture(config)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(s=EXTREME_S, p_max=st.sampled_from([3, 13]))
    def test_any_s_ends_in_a_status(self, tmp_path_factory, s, p_max):
        path = tmp_path_factory.getbasetemp() / "extreme-s.json"
        path.write_text(json.dumps(committed_global_doc(s=s)), encoding="utf-8")
        config = RunConfig(command="global", input_path=str(path), p_max=p_max, output_format="machine")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # numpy's floating-point warnings
                code, out = run_capture(config)
        except InputError:
            return  # exit status 2
        records = strict_records_of(out)
        assert code == (1 if any(r["status"] == "fail" for r in records) else 0)
        for record in records:
            witness = record["witness"]
            assert witness, record
            if record["status"] == "pass" and "value" in witness:
                # a non-finite float would print as the string "nan" or "inf"
                assert all(isinstance(part, float) for part in witness["value"]), record

    @pytest.mark.parametrize("s", [10**400, "-1" + "0" * 400 + "/3"])
    def test_s_past_the_float_range_is_exit_two(self, write_doc, capsys, s):
        path = write_doc(committed_global_doc(s=s))
        assert main(["global", "--input", path, "--pmax", "3"]) == 2
        assert "global_input.s: past the float range" in capsys.readouterr().err

    def test_committed_input_matches_the_benchmark_digest(self):
        # Stdout byte for byte: a last-bit move in any printed value, a
        # renamed or dropped check, or a changed table layout fails the
        # contract row that runs each of the benchmark's command lines.
        assert len(BENCHMARK_DIGESTS) == 7
        assert set(BENCHMARK_DIGESTS) <= {row.command for row in CONTRACT if row.doc is None}


class TestLargeIntegers:
    """Integers in the input that once drove a loop of about that many
    steps.  Each input ends in its exit status within a second; the 5 s
    bound makes a regression fail instead of hang."""

    @pytest.mark.parametrize(
        "scenario",
        [{"l": 2000, "l1": 12}, {"l": 10**15, "l1": 12}, {"l": 10**15, "s1": 0.2, "s2": -0.2}],
        ids=["l2000-ds", "l1e15-ds", "l1e15-ps"],
    )
    def test_large_weight_cannot_be_sized(self, write_doc, capsys, scenario):
        path = write_doc({"arch_scenarios": [dict(scenario, D=4, s=1.5)]})
        with within(5), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify-arch", "--input", path, "--format", "machine"])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert err == ""
        record = {r["name"]: r for r in strict_records_of(out)}["arch/zinf/input-000"]
        assert record["status"] == "fail"
        witness = record["witness"]
        assert set(witness) == {"u", "segment", "intervals", "abserr", "tolerance"}
        assert witness["tolerance"] == "nan"  # the lambda-integral could not be sized

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would reach stderr
    def test_large_lowest_weight_fails_with_witness(self, write_doc, capsys):
        path = write_doc(committed_global_doc(l1=10**15))
        with within(5):
            code = main(["global", "--input", path, "--pmax", "13", "--format", "machine"])
        assert code == 1
        out, err = capsys.readouterr()
        assert err == ""
        (record,) = strict_records_of(out)
        assert record["name"] == "global/z" and record["status"] == "fail"
        assert record["witness"]["kappa_inf"] == ["nan", "nan"]

    @pytest.mark.parametrize(
        "table,key,message",
        [
            (None, None, "global_input: N = 1000000000000000003 must be a product of distinct primes keying gl2_table"),
            ("satake_table", "1000000000000000003", "global_input.satake_table: table keys must be primes below 2**53"),
            ("local_table", "1" + "0" * 4999, "global_input.local_table: table keys must be primes below 2**53"),
        ],
        ids=["N-1e18+3", "key-1e18+3", "key-5000-digits"],
    )
    def test_large_integer_is_exit_two(self, write_doc, capsys, table, key, message):
        doc = committed_global_doc()
        if table is None:
            doc["global_input"]["N"] = 10**18 + 3
        else:
            doc["global_input"][table][key] = doc["global_input"][table]["3"]
        path = write_doc(doc)
        with within(5):
            code = main(["global", "--input", path, "--pmax", "13", "--format", "machine"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and "Traceback" not in err


# A numerator or denominator past int()'s 4,300-digit limit on decimal strings.
LONG_NUMERATOR = "1" + "0" * 4999 + "/3"
LONG_DENOMINATOR = "3/1" + "0" * 4999

# Each replaces every leaf of an input in turn.
HOSTILE_VALUES = [
    LONG_NUMERATOR, LONG_DENOMINATOR, "1/0", [1, 2, 3], True, None, {}, 1e308, -1e308,
    int("9" * 4000), "x", -1, 0, 2**61 - 1, [1.5, 1e308], [0, -1e308],
]


def leaf_paths(value, path=()):
    """The key path of every non-container value in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path
        return
    for key, child in items:
        yield from leaf_paths(child, path + (key,))


def with_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestHostileInputs:
    """Malformed or extreme values in any slot of an input file end in an
    exit status: 0 or 1 when the value is readable, 2 with the JSON path
    when it is not, and never an escaping exception."""

    @pytest.mark.parametrize(
        "argv, doc, where",
        [
            (["verify-local"], valid_local_doc(), ("local_scenarios", 0, "omega")),
            (["lfactor"], valid_local_doc(), ("local_scenarios", 1, "satake", "u1")),
            (["lfactor"], valid_local_doc(), ("local_scenarios", 0, "omega")),
            (["global", "--pmax", "13"], committed_global_doc(), ("global_input", "s")),
            (["verify-arch"], {"arch_scenarios": [{"l": 12, "l1": 12, "D": 4, "s": 1.5}]},
             ("arch_scenarios", 0, "s")),
        ],
        ids=["verify-local", "lfactor", "lfactor-omega", "global", "verify-arch"],
    )
    @pytest.mark.parametrize("value", [LONG_NUMERATOR, LONG_DENOMINATOR], ids=["num", "den"])
    def test_long_rational_string_is_exit_two(self, write_doc, capsys, argv, doc, where, value):
        path = write_doc(with_leaf(doc, where, value))
        assert main(argv + ["--input", path]) == 2
        out, err = capsys.readouterr()
        shown = where[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where[1:])
        assert out == ""
        assert err.startswith(f"error: {shown}: ") and "too many digits" in err
        assert "Traceback" not in err

    def test_every_leaf_of_the_local_and_global_inputs(self, tmp_path, capsys, monkeypatch):
        # One argument parser for all runs: building it is most of a run
        # that ends in exit status 2.
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        runs = [
            (argv, doc)
            for template, commands in (
                (valid_local_doc(), (["verify-local", "--order", "8"], ["lfactor"])),
                (committed_global_doc(), (["global", "--pmax", "13"],)),
            )
            for leaf in leaf_paths(template)
            for value in HOSTILE_VALUES
            for doc in [with_leaf(template, leaf, value)]
            for argv in commands
        ]
        path = tmp_path / "hostile.json"
        codes = []
        with within(30), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for argv, doc in runs:
                path.write_text(json.dumps(doc), encoding="utf-8")
                codes.append(main(argv + ["--input", str(path), "--format", "machine"]))
                capsys.readouterr()
        assert set(codes) <= {0, 1, 2}
        assert 0 in codes and 2 in codes

    def test_every_leaf_of_the_arch_input_parses_or_is_an_input_error(self):
        # The parse evaluates the closed form, where a full verify-arch
        # would rerun the Mellin battery for every value.
        template = json.loads((ROOT / "perfbench" / "inputs" / "arch.json").read_text(encoding="utf-8"))
        for leaf in leaf_paths(template):
            for value in HOSTILE_VALUES:
                where = f"arch_scenarios[{leaf[1]}]"
                try:
                    cli._arch_scenario_from(with_leaf(template, leaf, value)[leaf[0]][leaf[1]], where)
                except InputError as exc:
                    assert str(exc).startswith(where)


class TestConsistency:
    def test_battery_passes(self):
        code, out = run_capture(
            RunConfig(command="consistency", output_format="machine")
        )
        assert code == 0
        records = records_of(out)
        assert len(records) == 2 * 15 + 9 + 1
        assert all(r["status"] == "pass" for r in records)
        names = {r["name"] for r in records}
        assert "consistency/arch-constant/D3/l12" in names
        assert "consistency/level-factor/p5-split/s1-3" in names
        assert "consistency/v-level/2" in names

    def test_scaled_closed_form_fails_that_point(self, monkeypatch, capsys):
        quotient = assembly._gamma_quotient

        def scaled(l, D, *args):
            return quotient(l, D, *args) * (1 + 1e-6 * (l == 20 and D == 3))

        monkeypatch.setattr(assembly, "_gamma_quotient", scaled)
        assert main(["consistency", "--format", "machine"]) == 1
        failed = [r for r in strict_records_of(capsys.readouterr().out) if r["status"] != "pass"]
        assert [r["name"] for r in failed] == ["consistency/arch-constant/D3/l20"]
        witness = failed[0]["witness"]
        assert (witness["l"], witness["D"]) == (20, 3)
        assert witness["rel_error"] == pytest.approx(1e-6, rel=1e-6)


# The flags each command's battery reads; --format is on every command.
COMMAND_FLAGS = {
    "verify-local": {"--seed", "--trials", "--order", "--input"},
    "verify-arch": {"--tol", "--input"},
    "verify-cosets": {"--seed", "--trials", "--p"},
    "verify-volumes": set(),
    "lfactor": {"--input"},
    "global": {"--input", "--pmax"},
    "consistency": set(),
}
FLAG_VALUES = {
    "--seed": "5", "--trials": "3", "--order": "9", "--tol": "0.1",
    "--input": "in.json", "--p": "3", "--pmax": "7",
}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_accepts_exactly_its_flags(self, command, capsys):
        parser = cli._build_parser()
        for flag, value in FLAG_VALUES.items():
            if flag in COMMAND_FLAGS[command]:
                parser.parse_args([command, flag, value])
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, flag, value])
                assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z]+", capsys.readouterr().out))
        assert listed == COMMAND_FLAGS[command] | {"-h", "--help", "--format"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-volumes", "--seed", "5"],
            ["consistency", "--pmax", "3"],
            ["verify-arch", "--order", "9"],
            ["lfactor", "--trials", "3"],
            ["global", "--p", "3"],  # not an abbreviation of --pmax
        ],
        ids=" ".join,
    )
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["verify-volumes", "--seed", "5"], "verify-volumes [-h] [--format {table,machine}]"),
            (
                ["global", "--p", "3"],
                "global [-h] [--input INPUT_PATH] [--pmax P_MAX] [--format {table,machine}]",
            ),
        ],
        ids=["verify-volumes --seed 5", "global --p 3"],
    )
    def test_unread_flag_shows_the_command_usage(self, argv, usage, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"usage: localzeta {usage}"
        assert err[-1] == f"localzeta {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}"

    @pytest.mark.parametrize(
        "argv, fields",
        [(["verify-cosets"], {}), (["verify-local", "--order", "10"], {"order": 10}), (["consistency"], {})],
        ids=["verify-cosets", "verify-local", "consistency"],
    )
    def test_flag_defaults_are_the_run_config_defaults(self, argv, fields, capsys):
        assert main(argv) == 0
        assert run_capture(RunConfig(command=argv[0], **fields)) == (0, capsys.readouterr().out)


def loaded_after(code: str, packages=("numpy", "scipy")) -> list:
    """The modules of ``packages`` that a fresh interpreter has loaded after
    running ``code``."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            code + "\nimport json, sys\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestEntryPoints:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unreadable_file(self, capsys):
        assert main(["verify-local", "--input", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_syntax_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["verify-local", "--input", str(path)]) == 2
        assert "line 1 column 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "s", ["NaN", "1e400", "[0, 1e400]", pytest.param("1" + "0" * 5000, id="5001-digit-int")]
    )
    def test_non_finite_number_is_exit_two(self, tmp_path, capsys, s):
        # plain json.loads reads NaN as nan and 1e400 as inf, and raises a
        # bare ValueError past Python's integer-string digit limit
        text = (ROOT / "perfbench" / "inputs" / "global.json").read_text(encoding="utf-8")
        assert text.count('"s": "3/2"') == 1
        path = tmp_path / "global.json"
        path.write_text(text.replace('"s": "3/2"', f'"s": {s}'), encoding="utf-8")
        assert main(["global", "--input", str(path), "--pmax", "13"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    def test_nan_in_an_arch_scenario_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "arch.json"
        path.write_text(
            '{"arch_scenarios": [{"l": 12, "l1": 12, "q_c": 0, "D": 4, "s": NaN, "a_plus": 1}]}',
            encoding="utf-8",
        )
        assert main(["verify-arch", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{path}: NaN is not a JSON number" in err

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "localzeta.cli", "verify-cosets", "--format", "machine", "--trials", "5"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        names = [json.loads(line)["name"] for line in proc.stdout.splitlines()]
        assert names == sorted(names)
        assert "cosets/p2/audit" in names

    def test_import_leaves_scipy_integrate_unloaded(self):
        # nor any other numpy or scipy module: each command imports its layers
        assert loaded_after("import localzeta.cli") == []

    @pytest.mark.parametrize("row", [row for row in CONTRACT if row.unloaded], ids=lambda row: row.name)
    def test_command_loads_only_the_layers_it_runs(self, row):
        run_it = (
            "import contextlib, io\n"
            "from localzeta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({row.command.split()!r}) == {row.code}\n"
        )
        assert loaded_after(run_it, row.unloaded) == []

    def test_closed_stdout_exits_141_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "localzeta.cli", "verify-local", "--order", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert err == b""
        assert proc.returncode == 141

    def test_table_format_has_summary_line(self, capsys):
        assert main(["verify-volumes"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("checks, 0 failed")
