"""Benchmark of the nyridge CLI: end-to-end run metrics and a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run spawns one child process at a time (a closed loop with one client),
each doing one seeded CLI run of the workload (see workloads.py), until
``--seconds`` is used up, and checks every child's output CSV. Children
of one run share the seed, so their CSVs must also be byte-identical.

With ``--trace 0`` it reports, as medians over the children:
``run_rel`` (the time ``cli.main`` takes, divided by the time of the fixed
reference kernel that child.py runs just before and just after it),
``setup_s`` (spawn until nyridge, numpy and scipy are imported, just before
``cli.main``) and ``peak_rss_mb`` (the child's own max RSS from
``os.wait4``). With ``--trace 1`` the children alternate between untraced
and traced (tracer.py); it reports the traced children's median per-layer
metrics and ``trace.overhead_s`` (median traced minus median untraced run
time), and checks that both kinds of children wrote the same bytes and
that every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import INPUT, OUTPUT, WORKLOADS, parse_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# BLAS/OpenMP threads per child: fixed, so timings do not depend on how
# many cores the machine has or how busy the other one is.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CHILDREN = 3  # per kind of child, so each median has three samples
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
REPORT = "report.json"
LOG = "child.log"

END_TO_END = {"run_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(tracer.metric_names() + [("trace.overhead_s", "s")])


@dataclass
class Child:
    traced: bool
    wall_s: float
    rss_mb: float
    setup_s: float | None = None
    run_s: float | None = None
    ref_s: float | None = None  # mean of the two reference-kernel passes
    digest: str | None = None
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float):
    """Run argv to completion; return (start ns, end ns, exit code, own rusage).

    ``os.wait4`` gives this child's own rusage; RUSAGE_CHILDREN would keep
    a running maximum over every child reaped so far.
    """
    with open(cwd / LOG, "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return t0, t1, proc.returncode, usage


def run_child(workload, seed: int, traced: bool, cwd: Path, env: dict, timeout: float) -> Child:
    cli_args = workload.argv(seed)
    if OUTPUT in cli_args:
        raise ValueError(f"output {OUTPUT} is also an argument of {cli_args}")
    for name in (OUTPUT, REPORT):
        (cwd / name).unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), REPORT, "1" if traced else "0",
            *cli_args, "--out", OUTPUT]
    t0, t1, code, usage = spawn(argv, cwd, env, timeout)
    child = Child(traced=traced, wall_s=(t1 - t0) / 1e9, rss_mb=usage.ru_maxrss / 1024)
    if code != 0:
        child.problems.append(f"exit code {code}")
        print((cwd / LOG).read_text(errors="replace")[-2000:], file=sys.stderr)
        return child
    report = json.loads((cwd / REPORT).read_text())
    child.setup_s = (report["t_ready_ns"] - t0) / 1e9
    child.run_s = report["run_ns"] / 1e9
    child.ref_s = sum(report["ref_ns"]) / len(report["ref_ns"]) / 1e9
    child.trace = report.get("trace")
    data = (cwd / OUTPUT).read_bytes()
    child.digest = hashlib.sha256(data).hexdigest()
    try:
        child.problems += workload.check(parse_csv(data.decode()))
    except (KeyError, ValueError) as exc:
        child.problems.append(f"malformed output: {exc!r}")
    if child.trace is not None and child.trace["unaccounted_ns"] != 0:
        child.problems.append(f"span tree leaves {child.trace['unaccounted_ns']} ns "
                              f"of {tracer.ROOT} unaccounted")
    return child


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(children: list[Child]) -> dict:
    return {
        "run_rel": median(c.run_s / c.ref_s for c in children if c.run_s is not None),
        "setup_s": median(c.setup_s for c in children if c.setup_s is not None),
        "peak_rss_mb": median(c.rss_mb for c in children),
    }


def per_layer_metrics(children: list[Child]) -> dict:
    traced = [c for c in children if c.trace is not None]
    out = {name: median(c.trace["metrics"][name] for c in traced)
           for name in PER_LAYER if name != "trace.overhead_s"}
    timed = [c for c in children if c.run_s is not None]
    out["trace.overhead_s"] = (median(c.run_s for c in timed if c.traced)
                               - median(c.run_s for c in timed if not c.traced))
    return out


def environment(setup_stdout: str) -> dict:
    env = json.loads(setup_stdout.strip().splitlines()[-1])
    env["nproc"] = os.cpu_count()
    env["threads"] = {var: str(THREADS) for var in THREAD_VARS}
    env["src_lines"] = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return env


def main(argv=None) -> int:
    t_begin = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nyridge" / "cli.py").is_file():
        print(f"error: no nyridge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cwd = WORK / workload.name
    cwd.mkdir(parents=True, exist_ok=True)
    env = child_env()

    (cwd / INPUT).unlink(missing_ok=True)
    setup = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), workload.name, str(args.seed)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    if setup.returncode != 0:
        print(f"error: input set-up failed:\n{setup.stderr[-2000:]}", file=sys.stderr)
        return 1

    children: list[Child] = []
    start = time.monotonic()
    while True:
        kinds = [c.traced for c in children]
        traced = bool(args.trace) and len(children) % 2 == 1
        enough = all(kinds.count(k) >= MIN_CHILDREN for k in {False, bool(args.trace)})
        if enough and time.monotonic() - start + median(c.wall_s for c in children) > args.seconds:
            break
        left = RUN_LIMIT_S - (time.monotonic() - t_begin)
        if left <= 1.0 or any(c.problems and c.digest is None for c in children):
            break
        children.append(run_child(workload, args.seed, traced, cwd, env, left))

    good = [c for c in children if not c.problems]
    for c in good:
        if c.digest != good[0].digest:
            c.problems.append("output differs from the first child's")
    with_trace = [c for c in good if c.trace is not None]
    for c in with_trace:
        differ = [name for name, unit in PER_LAYER.items() if unit == "count"
                  and c.trace["metrics"][name] != with_trace[0].trace["metrics"][name]]
        if differ:
            c.problems.append(f"counts differ from the first traced child's: {differ}")
    failed = [c for c in children if c.problems]
    for c in failed:
        print(f"failed child ({'traced' if c.traced else 'untraced'}): "
              f"{'; '.join(c.problems)}", file=sys.stderr)
    measured = [c for c in children if not c.problems] or children

    if args.trace:
        metrics, units = per_layer_metrics(measured), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(measured), END_TO_END
    print(f"{workload.name} seed={args.seed}: {len(children)} children, {len(failed)} failed, "
          f"fail_frac={len(failed) / len(children):.3f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    timed = [c for c in measured if c.run_s is not None]
    print(f"  (not gated) wall_s = {median(c.wall_s for c in measured):.6g} s, "
          f"run_s = {median(c.run_s for c in timed):.6g} s, "
          f"ref_s = {median(c.ref_s for c in timed):.6g} s")
    print("environment: " + json.dumps(environment(setup.stdout), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
