"""The localzeta benchmark: time to a verdict on four verifier workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts one single-threaded worker process (BLAS and
OpenMP pinned to one thread) that issues one check at a time and waits for
its verdict, as the CLI does.  Around it this script

* times set-up: start of a fresh worker to its ``READY`` line, which covers
  interpreter start, ``import localzeta`` and input generation, rescaled to
  the nominal host speed.  Four set-up-only workers plus the measuring one
  give five samples; the median is reported;
* runs the workload's CLI commands with ``--format machine`` and compares
  the sha256 of their stdout with ``perfbench/cli_checks.json``; a
  mismatch or a non-zero exit is a failed check;
* prints every metric named in ``BENCHMARK.json`` (end-to-end ones with
  ``--trace 0``, per-layer ones with ``--trace 1``) with unit and sample
  count, then one JSON line with ``correct``, ``attempted``, ``failed``
  and ``metrics``.  The full record, with its environment header, seed,
  inputs digest and the unscaled timings, is written to ``.perfbench-out/``.

Timings are rescaled to a nominal host speed (see hostspeed.py); peak RSS
is reported as measured.

Exit status is 0 when a result was printed, 1 when a run broke down and 2
when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("local-exact", "local-deep", "arch-quad", "geometry")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CLI_COMMANDS = (
    "verify-local",
    "verify-arch",
    "verify-cosets",
    "verify-volumes",
    "consistency",
    "global",
)


class RunError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise RunError("the run exceeded its time limit")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, env, deadline: Deadline, setup_only: bool):
    """Start a worker and wait for READY; returns (process, set-up seconds
    at the nominal host speed, set-up seconds as measured)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        word, _, scale = line.partition(" ")
        if word != "READY":
            raise RunError(f"worker did not become ready (got {line!r})")
        deadline.left()
    except BaseException:
        _stop(proc)
        raise
    return proc, setup * float(scale), setup


def measure(args, env, deadline: Deadline) -> tuple:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, *setup = start_worker(args, env, deadline, setup_only=True)
        try:
            proc.communicate(timeout=deadline.left())
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RunError(f"set-up worker exited with {proc.returncode}")
        setups.append(setup)
    proc, *setup = start_worker(args, env, deadline, setup_only=False)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise RunError("the worker exceeded the time limit") from None
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]), setups


def run_cli(workload: str, env, deadline: Deadline) -> list:
    table = json.loads((HERE / "cli_checks.json").read_text(encoding="utf-8"))
    rows = []
    for entry in table[workload]:
        cmd = [sys.executable, "-m", "localzeta.cli", *entry["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, timeout=deadline.left()
        )
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(proc.stdout).hexdigest()
        ok = proc.returncode == 0 and digest == entry["sha256"]
        if not ok:
            print(
                f"cli check failed: {' '.join(entry['argv'])} exit {proc.returncode} "
                f"sha256 {digest}",
                file=sys.stderr,
            )
        rows.append({"command": entry["argv"][0], "argv": entry["argv"], "wall_s": wall,
                     "sha256": digest, "ok": ok})
    return rows


def run_one(args, declared: dict) -> dict:
    env = child_env()
    deadline = Deadline(DEADLINE_S)
    result, setups = measure(args, env, deadline)
    cli = run_cli(args.workload, env, deadline)

    metrics = dict(result["metrics"])
    info = result["info"]
    samples = {}
    if args.trace:
        for command in CLI_COMMANDS:
            metrics[f"cli.{command}.wall_s"] = sum(
                r["wall_s"] for r in cli if r["command"] == command
            )
        metrics["cli.digest_match"] = sum(r["ok"] for r in cli) / len(cli)
        wanted = declared["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(scaled for scaled, _ in setups)
        samples = {
            "verdict_s": f"median of {info['passes']} passes of {info['checks_per_pass']} checks",
            "check_ms_p50": f"n={info['checks']}",
            "check_ms_tail": f"p{info['tail_percentile']}, n={info['checks']}, "
            f"{info['checks_beyond_tail']} beyond",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "1 process",
        }
        wanted = declared["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunError(f"metrics not produced: {', '.join(missing)}")
    attempted = result["attempted"] + len(cli)
    failed = result["failed"] + sum(not r["ok"] for r in cli)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
        "samples": samples,
        "worker_metrics": result["metrics"],
        "setup_samples_s": {
            "scaled": [scaled for scaled, _ in setups],
            "raw": [raw for _, raw in setups],
        },
        "cli": cli,
        "info": info,
        "env": result["env"],
    }
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# inputs sha256 {record['info']['inputs_sha256']}  "
          f"seed reproducible {record['info']['seed_reproducible']}")
    for name, m in record["metrics"].items():
        note = record["samples"].get(name, "")
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"{'failed_share':<40} {record['failed_share']:>14.6g} share  "
          f"{record['failed']}/{record['attempted']} checks")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="localzeta benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "localzeta" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'localzeta'}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = declared["run_seconds"]

    names = NAMES if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            args.workload = name
            records[name] = run_one(args, declared)
            report(records[name])
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        rec = next(iter(records.values()))
        final = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            name: {k: rec[k] for k in ("correct", "attempted", "failed", "failed_share", "metrics")}
            for name, rec in records.items()
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
