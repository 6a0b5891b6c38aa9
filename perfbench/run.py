#!/usr/bin/env python3
"""Run one snratio benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it is
a ``{"record": ...}`` object with the environment, every workload parameter,
the repeat times, the output digests and the names of failed checks.  The
package is imported from ``src/`` next to this directory; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("sim_sweep", "closed_sweep", "validate_suite")

#: BLAS and OpenMP pools are pinned to one thread before numpy loads: the
#: only parallelism measured is mc's own thread pool (``partitions``), and
#: library threads on top of it would oversubscribe the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snratio" / "__init__.py").is_file():
        print(f"error: no snratio package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import harness
    import snratio
    import workloads

    if Path(snratio.__file__).resolve().parent != SRC / "snratio":
        print(f"error: imported snratio from {snratio.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    result, record = harness.measure(workload, args.seconds, bool(args.trace))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, params=workload.params(), environment=environment())
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
