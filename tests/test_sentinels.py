"""Sentinel mutants: faults that once left every command at exit 0.

Each case copies the package into a temporary directory, plants one textual
fault there, and runs the CLI on the copy in a fresh interpreter.  The fault
must match the source exactly once, so a refactor that moves the line turns
the case red instead of into a no-op.  Each named command must then exit 1,
failing exactly the named records, each with a minimal witness.  A fault
that no check sees yet is an expected failure, strict, until its blind spot
is closed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import localzeta
from localzeta.cosets import IDENTITY_READS

SRC = Path(localzeta.__file__).parent

# Run the CLI from the copy given as argv[1], and refuse to run any other.
RUNNER = (
    "import sys\n"
    "import localzeta.cli as cli\n"
    "assert cli.__file__.startswith(sys.argv[1]), cli.__file__\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)

LOCAL = ("verify-local", "--trials", "1", "--order", "10")
VOLUMES = ("verify-volumes",)
COSETS = ("verify-cosets", "--p", "2", "--trials", "5")
CELLS = [f"q{q}/{symbol}" for q in (2, 3, 5) for symbol in ("inert", "ramified", "split")]
EVERY_LOCAL = {f"local/{cell}/0000" for cell in CELLS}
EVERY_CANCELLATION = {f"volumes/cancellation/{cell}" for cell in CELLS}

# name: (module, text, replacement, {command: the records that fail, and no others})
SENTINELS = {
    "n2-exponent": (
        "localfield.py",
        "n2 = (q - local.symbol) * q ** (4 * m",
        "n2 = (q - local.symbol) * q ** (5 * m",
        {LOCAL: EVERY_LOCAL, VOLUMES: EVERY_CANCELLATION},
    ),
    "n1-exponent": (
        "localfield.py",
        "n1 = (q - local.symbol) * q ** (4 * m",
        "n1 = (q - local.symbol) * q ** (5 * m",
        {LOCAL: EVERY_LOCAL, VOLUMES: EVERY_CANCELLATION},
    ),
    "w-al-power-of-q": ("zeta.py", "pa, ra = -1, q  #", "pa, ra = -1, q * q  #", {LOCAL: EVERY_LOCAL}),
    # h(0, m) with varpi^m where varpi^2m belongs, its inverse left as it is
    "mpos-equiv-conjugation": (
        "cosets.py",
        "* ediag(pm * pm, pm, 1, pm, d)",
        "* ediag(pm, pm, 1, pm, d)",
        {COSETS: {"cosets/identity/mpos-equiv"}},
    ),
    # d_k s_0 dropped from every expansion; both sides of Theorem 1 expand
    # the one rational function, so the fault cancels between them
    "series-terms-j-ge-k": ("exact.py", "if j > k:", "if j >= k:", {LOCAL: EVERY_LOCAL}),
    # sqrt(q) sqrt(q) taken as 1 in the fraction-free update of factor_product
    "factor-product-sqrt-cross-term": ("exact.py", "cB * pB * q", "cB * pB", {LOCAL: EVERY_LOCAL}),
    # every product truncated at degree 3: the top e_4 of Sugano's Q and of
    # L8^-1 goes alike, so the fault cancels between the two sides
    "factor-product-top-coefficient": (
        "exact.py",
        "in enumerate(E)]",
        "in enumerate(E[:4])]",
        {LOCAL: EVERY_LOCAL},
    ),
}

KNOWN_BLIND = {
    "series-terms-j-ge-k": "ROADMAP item 21: the direct side's Bessel values expand by the same route",
    "factor-product-top-coefficient": "ROADMAP item 21: Sugano's Q and L8^-1 are built by the same route",
}


def witness_is_minimal(command: str, witness) -> bool:
    if command == "verify-local":  # the first non-zero cell of the m > 0 half, if any
        return witness["m_positive_vanishes"] or witness["first_nonzero_cell"][1] <= 2
    if command == "verify-cosets":
        reads = set(IDENTITY_READS[witness["identity"]])
        return set(witness) == {"identity", "trial", "residues", "entry"} and set(witness["residues"]) == reads
    return True


def run_mutant(root: Path, *argv: str):
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(root), *argv, "--format", "machine"],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root)},
        timeout=60,
        check=False,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


def test_every_fault_matches_its_source_once():
    # checked here too, where no expected failure can hide a fault that moved
    for name, (module, text, _, _) in SENTINELS.items():
        assert (SRC / module).read_text().count(text) == 1, name


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=KNOWN_BLIND[name]))
        if name in KNOWN_BLIND
        else name
        for name in sorted(SENTINELS)
    ],
)
def test_sentinel_makes_its_commands_fail(tmp_path, name):
    module, text, replacement, commands = SENTINELS[name]
    shutil.copytree(SRC, tmp_path / "localzeta", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "localzeta" / module
    source = path.read_text()
    assert source.count(text) == 1, f"{name}: the fault must match exactly once"
    path.write_text(source.replace(text, replacement))

    for argv, failing in commands.items():
        status, records = run_mutant(tmp_path, *argv)
        failed = {r["name"]: r["witness"] for r in records if r["status"] == "fail"}
        assert (status, set(failed)) == (1, failing), argv
        assert all(witness_is_minimal(argv[0], w) for w in failed.values()), failed
