"""Measurement inside a workload process (see worker.py).

``setup`` generates the workload's inputs from the seed.  ``run`` measures
whole passes in a closed loop: one check at a time, each judged after its
verdict, until the next pass would end after ``--seconds``.  Latencies are
rescaled to a nominal host speed with ``hostspeed.HostSpeed``.  It prints
one JSON line for run.py.

With ``--trace 1`` it alternates an untraced and a traced pass over the
same inputs, times verify_theorem1's standalone parts, and runs the scalar
and kernel microbenchmarks; the result then carries per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

from localzeta import (
    arch,
    assembly,
    cosets,
    exact,
    kernels,
    localfield,
    rng,
    satake,
    sugano,
    zeta,
)

import workloads
from hostspeed import HostSpeed, REF_NOMINAL_S
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

# Span names reduced to per-layer self times, in reporting order.
SELF_TIMED = (
    "exact.series_of",
    "sugano.bessel_values",
    "satake.l8_inverse",
    "satake.l_tau_ai_chi_inverse",
    "zeta.z_series_m_positive",
    "zeta.z_series_direct",
    "zeta.z_closed_form",
    "zeta.verify_theorem1",
    "localfield.unit_index_oracle",
    "cosets.coset_audit.p2",
    "cosets.coset_audit.p3",
    "cosets.verify_matrix_identity",
    "cosets.volume",
    "kernels.group_closure",
    "kernels.mark_products",
    "arch.z_inf_quadrature",
    "arch.z_inf_closed",
    "arch.mellin_whittaker",
    "arch.whittaker_w",
    "assembly.global_z_report",
    "assembly.theorem3_consistency",
    "assembly.kappa_N",
)
ERROR_KINDS = {
    "arch.zinf": "arch.zinf_rel_err_max",
    "arch.mellin": "arch.mellin_rel_err_max",
    "arch.collapse": "arch.collapse_rel_err_max",
}
# Fixed invertible seeds of the product walk in benchmarks/bench_kernels.py.
WALK_A = (1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1)
WALK_B = (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0)
WALK_STEPS = 40_000
WALK_P = 3


class Tally:
    """Verdicts, latencies and error maxima over the checks of a run.

    For each check it keeps the start, the end and the net latency (the
    interval minus time spent in the host speed sampler's handler).
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.intervals = []
        self.errors = {}
        self.reported = 0

    def run_pass(self, checks, tracer=None) -> range:
        """Run one pass; returns the indices of its checks in ``intervals``."""
        first = len(self.intervals)
        for chk in checks:
            self.host.sample()
            spent = self.host.spent
            if tracer is not None:
                tracer.check = chk.name
            with tracer.span("check") if tracer is not None else nullcontext():
                t0 = clock()
                try:
                    result = chk.run()
                    exc = None
                except Exception as err:  # a raising check is a failed verdict
                    exc = err
                t1 = clock()
            self.intervals.append((t0, t1, t1 - t0 - (self.host.spent - spent)))
            self.attempted += 1
            ok = False
            if exc is None:
                ok, err_value = chk.judge(result)
                if err_value is not None:
                    self.errors[chk.kind] = max(self.errors.get(chk.kind, 0.0), err_value)
            if not ok:
                self.failed += 1
                if self.reported < 3:
                    self.reported += 1
                    print(f"check failed: {chk.name}", file=sys.stderr)
                    if exc is not None:
                        traceback.print_exception(exc, file=sys.stderr)
        return range(first, len(self.intervals))

    def scaled(self, indices) -> list:
        """Net latencies of the given checks at the nominal host speed."""
        out = []
        for i in indices:
            t0, t1, net = self.intervals[i]
            out.append(net * self.host.scale(t0, t1))
        return out

    def raw(self, indices) -> list:
        return [self.intervals[i][2] for i in indices]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def inputs_digest(wl) -> str:
    h = hashlib.sha256()
    for line in wl.spec_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def environment() -> dict:
    src = ROOT / "src" / "localzeta"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")) + sorted(src.glob("*.pyx")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": exact.Rational.__module__.startswith("gmpy2"),
        "rational": f"{exact.Rational.__module__}.{exact.Rational.__qualname__}",
        "kernels_backend": kernels.backend_name(),
        "LOCALZETA_PURE": os.environ.get("LOCALZETA_PURE"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {
            k: os.environ.get(k)
            for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"
            )
        },
        "git_sha": git_sha,
        "source_sha256": h.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# traced run


def install(tracer: Tracer, series_out: list) -> None:
    """Wrap each layer's public functions; series_of outputs go to series_out."""
    counts, values = tracer.counts, tracer.values

    def on_series(result, args):
        counts["exact.series_of.calls"] += 1
        series_out.append(result)

    def on_theorem1(rep, args):
        counts["zeta.coefficients_compared"] += rep.order + 1

    def on_audit(rep, args):
        values[f"cosets.group_order.p{rep.p}"] = rep.group_order

    def on_marked(result, args):
        values[f"cosets.products_marked.p{args[2]}"] = result[0]

    def on_global(rep, args):
        values["assembly.primes_used"] = len(rep.primes)

    tracer.patch(exact, "series_of", on_result=on_series)
    tracer.patch(sugano, "bessel_values")
    tracer.patch(satake, "l8_inverse")
    tracer.patch(satake, "l_tau_ai_chi_inverse")
    tracer.patch(zeta, "z_series_m_positive")
    tracer.patch(zeta, "z_series_direct")
    tracer.patch(zeta, "z_closed_form")
    tracer.patch(zeta, "verify_theorem1", on_result=on_theorem1)
    tracer.patch(localfield, "unit_index_oracle")
    tracer.patch(
        cosets, "coset_audit", name=lambda p, *a, **k: f"cosets.coset_audit.p{p}",
        on_result=on_audit,
    )
    tracer.patch(cosets, "verify_matrix_identity")
    for fn in ("volume_V1", "volume_V2", "vol_k_sharp"):
        tracer.patch(cosets, fn, name="cosets.volume")
    tracer.patch(kernels, "group_closure")
    tracer.patch(kernels, "mark_products", on_result=on_marked)
    for fn in ("z_inf_quadrature", "z_inf_closed", "mellin_whittaker", "whittaker_w"):
        tracer.patch(arch, fn)
    tracer.patch(assembly, "global_z_report", on_result=on_global)
    tracer.patch(assembly, "theorem3_consistency")
    tracer.patch(assembly, "kappa_N")


def coeff_bits(c) -> int:
    return max(
        x.numerator.bit_length() + x.denominator.bit_length() for x in (c.a, c.b)
    )


def per_op_us(body, ops: int, rounds: int) -> float:
    """Median over rounds of body()'s time per operation, in microseconds at
    the nominal host speed."""
    marks = []
    with HostSpeed() as host:
        for _ in range(rounds):
            host.sample()
            spent = host.spent
            t0 = clock()
            body()
            t1 = clock()
            marks.append((t0, t1, t1 - t0 - (host.spent - spent)))
    return statistics.median(net * host.scale(t0, t1) for t0, t1, net in marks) / ops * 1e6


def quad_ops_us(series_list, mix) -> tuple:
    """Median per-operation time of QuadCoeff * and + on pairs drawn from
    one series at a time (both operands must share the field)."""
    pools = [[c for c in s.coefficients if c] for s in series_list]
    pools = [p for p in pools if p]
    pairs = []
    for _ in range(256):
        pool = pools[mix.below(len(pools))]
        pairs.append((pool[mix.below(len(pool))], pool[mix.below(len(pool))]))

    def run(op):
        return lambda: [op(a, b) for a, b in pairs]

    return per_op_us(run(operator.mul), len(pairs), 9), per_op_us(run(operator.add), len(pairs), 9)


def mat_mul_walk() -> tuple:
    """(us per mat_mul_mod, checksum, agrees with a numpy reference)."""
    a = tuple(v % WALK_P for v in WALK_A)
    b = tuple(v % WALK_P for v in WALK_B)
    end = []

    def walk():
        x = kernels.IDENTITY
        for i in range(WALK_STEPS):
            x = kernels.mat_mul_mod(x, a if i & 1 else b, WALK_P)
        end[:] = x

    us = per_op_us(walk, WALK_STEPS, 3)
    # The walk multiplies by b then a, so it ends at (b a)^(steps / 2).
    step = np.array(b, dtype=np.int64).reshape(4, 4) @ np.array(a, dtype=np.int64).reshape(4, 4) % WALK_P
    ref = np.eye(4, dtype=np.int64)
    e = WALK_STEPS // 2
    while e:
        if e & 1:
            ref = ref @ step % WALK_P
        step = step @ step % WALK_P
        e >>= 1
    agrees = [int(v) for v in ref.ravel()] == end
    return us, sum(end), agrees


def stand_in_series(seed: int) -> list:
    """Series for the scalar microbenchmark on workloads that build none:
    one order-25 scenario of the local-exact mix."""
    sc = next(iter(rng.scenario_stream(seed, localfield.SplittingSymbol.SPLIT, 5, 1)))
    return [exact.series_of(zeta.z_closed_form(sc), 25)]


def traced_run(wl, tracer: Tracer, tally: Tally, seconds: float) -> tuple:
    setup_self = tracer.self_times()
    mark = len(tracer.spans)
    series_out = []
    untraced, traced = [], []
    start = clock()
    # A first untraced pass takes first-use costs (heap growth, lazy
    # imports) out of the traced/untraced comparison.
    tally.run_pass(wl.passes[0])
    k = 0
    while True:
        checks = wl.passes[k % len(wl.passes)]
        t0 = clock()
        untraced.append(tally.run_pass(checks))
        install(tracer, series_out)
        try:
            traced.append(tally.run_pass(checks, tracer))
        finally:
            tracer.restore()
        k += 1
        if clock() - start + (clock() - t0) > seconds:
            break
    n = len(traced)
    per_pass = {
        name: t / n for name, t in tracer.self_times(mark, tally.host.scale).items()
    }

    m = {f"{name}.self_s": per_pass.get(name, 0.0) for name in SELF_TIMED}
    m["rng.scenario_stream.self_s"] = setup_self.get("rng.scenario_stream", 0.0)
    m["arch.z_inf_quadrature.max_s"] = tracer.max_duration(
        "arch.z_inf_quadrature", mark, tally.host.scale
    )
    for name in ("exact.series_of.calls", "zeta.coefficients_compared"):
        m[name] = tracer.counts.get(name, 0) / n
    for name in ("cosets.group_order.p3", "cosets.products_marked.p3", "assembly.primes_used"):
        m[name] = tracer.values.get(name, 0)
    for kind, name in ERROR_KINDS.items():
        m[name] = tally.errors.get(kind, 0.0)
    m["trace.overhead_share"] = sum(sum(tally.scaled(p)) for p in traced) / sum(
        sum(tally.scaled(p)) for p in untraced
    )

    m["exact.coeff_bits_max"] = max(
        (coeff_bits(c) for s in series_out for c in s.coefficients), default=0
    )
    return m, {"traced_passes": n}, series_out


def standalone(wl, series_out: list) -> tuple:
    """Metrics timed outside the checks, with the host sampler stopped."""
    m = {}
    # verify_theorem1 against its standalone parts, each check timed back
    # to back with its parts so both see the same host speed.
    whole = parts = 0.0
    for sc, order in (c.local for c in wl.passes[0] if c.local):
        t0 = clock()
        zeta.verify_theorem1(sc, order)
        t1 = clock()
        zeta.z_series_direct(sc, order)
        exact.series_of(zeta.z_closed_form(sc), order)
        whole += t1 - t0
        parts += clock() - t1
    m["zeta.verify_over_parts"] = whole / parts if parts else 0.0

    sample = series_out or stand_in_series(wl.seed)
    m["exact.quad_mul_us"], m["exact.quad_add_us"] = quad_ops_us(sample, rng.SplitMix64(wl.seed))
    us, checksum, agrees = mat_mul_walk()
    m["kernels.mat_mul_mod_us"] = us
    info = {
        "walk_checksum": checksum,
        "walk_agrees": agrees,
        "micro_operands": "workload series" if series_out else "stand-in order-25 series",
    }
    return m, info, agrees


def timed_run(wl, tally: Tally, seconds: float) -> tuple:
    passes, wall = [], []
    start = clock()
    k = 0
    while True:
        t0 = clock()
        passes.append(tally.run_pass(wl.passes[k % len(wl.passes)]))
        wall.append(clock() - t0)
        k += 1
        if clock() - start + wall[-1] > seconds:
            break
    everything = range(len(tally.intervals))
    lat_ms = [x * 1000 for x in tally.scaled(everything)]
    raw_ms = [x * 1000 for x in tally.raw(everything)]
    pct = wl.tail_percentile
    m = {
        "verdict_s": statistics.median(sum(tally.scaled(p)) for p in passes),
        "check_ms_p50": percentile(lat_ms, 50),
        "check_ms_tail": percentile(lat_ms, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "checks_per_pass": len(wl.passes[0]),
        "pool_passes": len(wl.passes),
        "checks": len(lat_ms),
        "tail_percentile": pct,
        "checks_beyond_tail": sum(1 for x in lat_ms if x > m["check_ms_tail"]),
        "raw": {
            "verdict_s": statistics.median(sum(tally.raw(p)) for p in passes),
            "pass_wall_s": wall,
            "check_ms_p50": percentile(raw_ms, 50),
            "check_ms_tail": percentile(raw_ms, pct),
        },
        "host_ref_ms": {
            "nominal": REF_NOMINAL_S * 1000,
            "median": statistics.median(tally.host.ref) * 1000,
            "samples": len(tally.host.ref),
        },
    }
    return m, info


def setup(workload: str, seed: int, trace: bool) -> tuple:
    """Generate the workload's inputs; returns (workload, tracer or None)."""
    tracer = Tracer() if trace else None
    return workloads.WORKLOADS[workload](seed, tracer), tracer


def run(args, wl, tracer) -> None:
    """Measure, check the seed's reproducibility, print the result line."""
    correct = True
    with HostSpeed() as host:
        tally = Tally(host)
        if tracer is None:
            metrics, info = timed_run(wl, tally, args.seconds)
        else:
            metrics, info, series_out = traced_run(wl, tracer, tally, args.seconds)
    if tracer is not None:
        more, more_info, correct = standalone(wl, series_out)
        metrics.update(more)
        info.update(more_info)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")

    build = workloads.WORKLOADS[args.workload]
    digest = inputs_digest(wl)
    same = inputs_digest(build(wl.seed))
    other = inputs_digest(build((wl.seed + 1) & ((1 << 64) - 1)))
    info["inputs_sha256"] = digest
    info["seed_reproducible"] = same == digest and other != digest
    correct = correct and info["seed_reproducible"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
                "info": info,
                "env": environment(),
            }
        ),
        flush=True,
    )
