"""Outside-in tracer: wraps nyridge's public functions in timed spans.

The program is not changed. ``install`` replaces each traced function with
a wrapper in every loaded ``nyridge`` module that holds it (modules import
each other's functions with ``from .x import y``, so patching only the
defining module would miss those calls), and wraps ``numpy.linalg``'s
spectral routines to count calls and computed work. Spans stay in memory,
each with its parent, and ``summary`` aggregates them per function.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter_ns

# module -> public functions (``Class.method`` for methods) that get a span
TRACED = {
    "cli": ["main"],
    "experiments": ["run_experiment", "write_csv"],
    "synthetic": ["grid_problem"],
    "stats": ["optimal_lambda", "dof", "bias_variance", "lowrank_bias_variance",
              "RankSweeper.factors"],
    "lowrank": ["approx_error", "nested_factor", "pivoted_ichol", "feature_matrix"],
    "regression": ["krr_lowrank"],
    "kernels": ["cross_gram"],
    "datasets": ["load_dataset", "cross_validate_lambda"],
}


def _dims(a) -> tuple[int, list[int]]:
    """(number of stacked matrices, their two dimensions) of a linalg input."""
    shape = [int(d) for d in getattr(a, "shape", ())]
    return math.prod(shape[:-2]), shape[-2:]


def _n3(a, *args, **kwargs) -> int:
    """Sum of n^3 over the square matrices of a symmetric eigendecomposition."""
    batch, dims = _dims(a)
    return batch * dims[-1] ** 3 if dims else 0


def _mn2(a, *args, **kwargs) -> int:
    """Sum of max(m, n) * min(m, n)^2 over the matrices of an SVD."""
    batch, dims = _dims(a)
    return batch * max(dims) * min(dims) ** 2 if len(dims) == 2 else 0


# numpy.linalg routine -> (work counter name, computed operation count)
LINALG = {"eigh": ("n3", _n3), "eigvalsh": ("n3", _n3), "svd": ("mn2", _mn2)}

# Each cross_gram call made directly by pivoted_ichol (its column oracle)
# fetches one kernel column.
COLUMNS = "lowrank.pivoted_ichol.columns"

ROOT = "experiments.run_experiment"


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric ``summary`` reports, with its unit."""
    names = []
    for fn in function_names():
        names += [(f"{fn}.calls", "count"), (f"{fn}.s", "s"), (f"{fn}.self_s", "s")]
    for fn, (work, _) in LINALG.items():
        names += [(f"linalg.{fn}.calls", "count"), (f"linalg.{fn}.s", "s"),
                  (f"linalg.{fn}.{work}", "count")]
    return names + [(COLUMNS, "count")]


class Tracer:
    """Spans as ``[name, parent index, start ns, end ns, work]``, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, work(*args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch the traced functions into every loaded nyridge module."""
        import numpy.linalg

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nyridge" or name.startswith("nyridge."))]
        for mod_name, fns in TRACED.items():
            mod = sys.modules[f"nyridge.{mod_name}"]
            for fn_name in fns:
                owner, attr = mod, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(mod, cls_name)
                orig = getattr(owner, attr)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig)
                setattr(owner, attr, wrapped)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        for fn_name, (_, work) in LINALG.items():
            orig = getattr(numpy.linalg, fn_name)
            setattr(numpy.linalg, fn_name, self.wrap(f"linalg.{fn_name}", orig, work))

    def summary(self) -> dict:
        """Per-layer metrics, plus the root-coverage check under ``unaccounted_ns``.

        ``.s`` sums the spans of a function not nested in another span of
        the same function; ``.self_s`` subtracts the time its child spans
        cover. Since children are disjoint, the self times of a
        ``run_experiment`` span and all its descendants sum to its duration
        exactly; ``unaccounted_ns`` is the difference and must be 0.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, self_ns, work = {}, {}, {}, {}
        columns, root_ns, covered_ns = 0, 0, 0
        for i, (name, parent, start, end, units) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            work[name] = work.get(name, 0) + units
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][1]
            if name not in ancestors:
                total[name] = total.get(name, 0) + dur
            if name == ROOT and ROOT not in ancestors:
                root_ns += dur
            if name == ROOT or ROOT in ancestors:
                covered_ns += dur - child_ns[i]
            if name == "kernels.cross_gram" and ancestors[:1] == ["lowrank.pivoted_ichol"]:
                columns += 1

        out: dict[str, float] = {}
        for fn in function_names():
            out[f"{fn}.calls"] = calls.get(fn, 0)
            out[f"{fn}.s"] = total.get(fn, 0) / 1e9
            out[f"{fn}.self_s"] = self_ns.get(fn, 0) / 1e9
        for fn, (work_name, _) in LINALG.items():
            key = f"linalg.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.s"] = total.get(key, 0) / 1e9
            out[f"{key}.{work_name}"] = work.get(key, 0)
        out[COLUMNS] = columns
        return {"metrics": out, "unaccounted_ns": root_ns - covered_ns}
