"""Measure one workload: set-up time, untraced repeats, or one traced repeat.

End-to-end metrics come from untraced repeats only; the set-up samples are
taken in small batches between them, so that both see the same stretch of
machine time.  A traced run first does one untimed warm-up repeat, then
times one untraced and one traced repeat of the same work; the per-layer
metrics come from the traced one and the difference between the two is the
tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Repeats per run never fall below this, so digests can be compared.
MIN_REPEATS = 2

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
#: Each costs about a second, and a run must stay short enough for 22 runs of
#: each workload to fit the benchmark's time budget.
SETUP_REPEATS = 6

#: Set-up samples taken before each repeat, until ``SETUP_REPEATS`` are done.
SETUP_BATCH = 2

#: Starts allowed per set-up sample, and how long one may take.  A start
#: takes about a second; the limits keep a run well inside its 180 s.
SETUP_ATTEMPTS = 3
SETUP_TIMEOUT_S = 30

#: End-to-end metric units, in the order they are reported.
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "stderr_median": "prob"}

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.build({name!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def _setup_sample(code: str) -> float:
    """One fresh interpreter's set-up time.

    The workload itself has already been built in this process, so a child
    that dies or hangs was stopped from outside (on a shared host, most
    likely for memory); it is reported on stderr and started again.
    """
    for attempt in range(1, SETUP_ATTEMPTS + 1):
        try:
            done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"set-up sample {attempt}/{SETUP_ATTEMPTS}: no result after "
                  f"{SETUP_TIMEOUT_S} s", file=sys.stderr)
            continue
        if done.returncode == 0:
            return float(done.stdout.strip().splitlines()[-1])
        print(f"set-up sample {attempt}/{SETUP_ATTEMPTS}: exit status {done.returncode}\n"
              f"{done.stderr}", file=sys.stderr)
    raise RuntimeError(f"no set-up sample in {SETUP_ATTEMPTS} attempts")


def time_setup(workload, repeats: int) -> list[float]:
    """Seconds to import snratio and build the workload, in fresh interpreters."""
    code = _SETUP_CHILD.format(paths=[str(SRC), str(HERE)], name=workload.name,
                               seed=workload.seed)
    return [_setup_sample(code) for _ in range(repeats)]


def _timed_run(workload):
    gc.collect()
    t0 = time.perf_counter()
    outcome = workload.run()
    return time.perf_counter() - t0, outcome


def repeat(workload, seconds: float):
    """Run the workload until ``seconds`` have passed, and at least twice.

    Returns (repeat times, outcomes, set-up times).  A batch of set-up
    samples precedes each repeat until ``SETUP_REPEATS`` are taken; any
    still missing follow the last repeat.
    """
    times, outcomes, setup = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < seconds:
        setup += time_setup(workload, min(SETUP_BATCH, SETUP_REPEATS - len(setup)))
        elapsed, outcome = _timed_run(workload)
        times.append(elapsed)
        outcomes.append(outcome)
    setup += time_setup(workload, SETUP_REPEATS - len(setup))
    return times, outcomes, setup


def traced_run(workload):
    """One traced repeat; returns (seconds, outcome, spans)."""
    with Tracer() as tracer:
        layers.install(tracer)
        elapsed, outcome = _timed_run(workload)
    return elapsed, outcome, tracer.spans


def measure(workload, seconds: float, trace: bool):
    """Measure ``workload``; returns (result, record).

    ``result`` is the benchmark's result object; ``record`` holds the
    repeat times, output digests and failed checks for the log.
    """
    if trace:
        # The warm-up repeat pays the first-call costs (lazy scipy loads,
        # allocator and cache warm-up), so the timed pair compares like with like.
        _, warm = _timed_run(workload)
        plain_s, plain = _timed_run(workload)
        traced_s, traced, spans = traced_run(workload)
        outcomes = [warm, plain, traced]
        agree = ("traced and untraced output digests agree",
                 len({o.digest for o in outcomes}) == 1)
        metrics = layers.layer_metrics(spans, traced.moment_warnings,
                                       traced_s / plain_s - 1.0)
        units = layers.UNITS
        record = {"repeat_s": [plain_s], "traced_s": traced_s}
    else:
        times, outcomes, setup = repeat(workload, seconds)
        agree = ("output digests agree across repeats",
                 len({o.digest for o in outcomes}) == 1)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "stderr_median": statistics.median(outcomes[0].stderrs),
        }
        units = UNITS
        record = {"repeat_s": times, "setup_s": setup}
    checks = workload.check(outcomes[0]) + [agree]
    failed = [name for name, ok in checks if not ok]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(digests=sorted({o.digest for o in outcomes}), failed_checks=failed,
                  checks=dict(checks))
    return result, record
