"""Set-up process for one benchmark run, spawned by run.py.

Usage: python3 inputs.py WORKLOAD SEED

Run in the workload's work directory with the children's environment. It
imports nyridge once, so bytecode is compiled and the files are cached
before any child is timed; writes the workload's seeded input file, if it
has one; and prints the numeric environment as one JSON line.
"""

import json
import platform
import sys

import numpy
import scipy

import nyridge.cli  # noqa: F401  (warms the import the children time)
from workloads import INPUT, WORKLOADS


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    if workload.make_input is not None:
        workload.make_input(int(sys.argv[2]), INPUT)
    print(json.dumps(environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
