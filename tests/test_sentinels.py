"""Sentinel mutants: faults that once left every command at exit 0.

Each case copies the package into a temporary directory, plants one textual
fault there, and runs the CLI on the copy in a fresh interpreter.  The fault
must match the source exactly once, so a refactor that moves the line turns
the case red instead of into a no-op, and the named commands must then exit 1.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import localzeta

SRC = Path(localzeta.__file__).parent

# Run the CLI from the copy given as argv[1], and refuse to run any other.
RUNNER = (
    "import sys\n"
    "import localzeta.cli as cli\n"
    "assert cli.__file__.startswith(sys.argv[1]), cli.__file__\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)

# (module, text, replacement, whether verify-volumes must fail too)
SENTINELS = {
    "n2-exponent": (
        "localfield.py",
        "n2 = (q - local.symbol) * q ** (4 * m",
        "n2 = (q - local.symbol) * q ** (5 * m",
        True,
    ),
    "n1-exponent": (
        "localfield.py",
        "n1 = (q - local.symbol) * q ** (4 * m",
        "n1 = (q - local.symbol) * q ** (5 * m",
        True,
    ),
    "w-al-power-of-q": ("zeta.py", "pa, ra = -1, q  #", "pa, ra = -1, q * q  #", False),
}


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


@pytest.mark.parametrize("name", sorted(SENTINELS))
def test_sentinel_makes_its_commands_fail(tmp_path, name):
    module, text, replacement, volumes_fail = SENTINELS[name]
    shutil.copytree(SRC, tmp_path / "localzeta", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "localzeta" / module
    source = path.read_text()
    assert source.count(text) == 1, f"{name}: the fault must match exactly once"
    path.write_text(source.replace(text, replacement))

    status, records = run_mutant(tmp_path, "verify-local", "--trials", "1", "--order", "10")
    assert status == 1
    cells = [r["witness"]["first_nonzero_cell"] for r in records if r["status"] == "fail"]
    assert cells and all(m <= 2 for _, m in cells), cells

    if volumes_fail:
        status, records = run_mutant(tmp_path, "verify-volumes")
        assert status == 1
        assert any(
            r["name"].startswith("volumes/cancellation/") and r["status"] == "fail" for r in records
        )
