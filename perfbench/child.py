"""One timed nyridge CLI run, spawned by run.py.

Usage: python3 child.py REPORT TRACE CLI-ARG...

Imports nyridge (with numpy and scipy), notes the monotonic clock, which
the parent compares with its spawn time to get the set-up time, then calls
``nyridge.cli.main`` with the CLI arguments. Right before and right after
that call it times one pass of the fixed reference kernel, so the parent
can express the run time in units of what the machine manages at that
moment. With TRACE=1 the outside-in tracer is installed first. REPORT gets
a JSON object with the clock reading, the run and reference times and,
when traced, the per-layer summary.
"""

import json
import sys
import time

import numpy
import scipy  # noqa: F401  (part of the measured import)
from numpy.linalg import eigh  # bound before the tracer wraps numpy.linalg

import nyridge.cli

t_ready_ns = time.monotonic_ns()

# Reference kernel: dense symmetric eigendecompositions of one fixed matrix,
# the LAPACK routine family that dominates every workload. It uses no
# nyridge code, so a change to the program cannot change it. The matrix is
# small, so the kernel stays below the memory the CLI run itself reaches and
# does not set the child's peak RSS.
_A = numpy.random.default_rng(20120809).standard_normal((256, 256))
_SPD = _A @ _A.T
del _A


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    for _ in range(8):
        eigh(_SPD)
    return time.perf_counter_ns() - t0


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ref_before = reference_ns()
    t0 = time.perf_counter_ns()
    code = nyridge.cli.main(argv)
    run_ns = time.perf_counter_ns() - t0
    ref_after = reference_ns()
    report = {"t_ready_ns": t_ready_ns, "run_ns": run_ns, "ref_ns": [ref_before, ref_after]}
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
