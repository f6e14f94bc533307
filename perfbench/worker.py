"""One workload run in its own process; started by run.py.

Set-up is importing the package and generating the inputs from the seed.
It runs under a host speed sampler, and the line ``READY <scale>`` marks
its end: run.py times the process from start to that line and multiplies
by ``scale`` to get the set-up time at the nominal host speed.  The
measurement itself is in measure.py.
"""

from __future__ import annotations

import argparse
import sys
import time

from hostspeed import HostSpeed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a key of workloads.WORKLOADS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with HostSpeed() as host:
        start = time.perf_counter()
        import measure  # numpy, scipy and the package load here, inside set-up

        wl, tracer = measure.setup(args.workload, args.seed & ((1 << 64) - 1), args.trace)
        ready = time.perf_counter()
    print(f"READY {host.scale(start, ready)!r}", flush=True)
    if not args.setup_only:
        measure.run(args, wl, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
