"""Benchmark of the ruinopt CLI.

    python3 perfbench/run.py --workload {bench1-exp,bench2-heavy,mc} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src` directory and nowhere else.  The last line of standard output is the
result object; the lines before it record the environment, the per-op
times and, for a traced run, the spans.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("bench1-exp", "bench2-heavy", "mc")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return min(int(os.environ[var]) for var in THREAD_VARS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ruinopt" / "cli.py").is_file():
        print(f"error: no ruinopt sources under {SRC}", file=sys.stderr)
        return 2
    thread_cap = cap_threads()   # before numpy is imported
    sys.path.insert(0, str(SRC))
    import ruinopt.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: ruinopt imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench_runner

    result = bench_runner.measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), thread_cap)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
