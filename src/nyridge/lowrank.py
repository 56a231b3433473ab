"""Column-sampled low-rank factorizations of PSD kernel matrices.

Given an ordered subset I of columns, the approximation is
L = K(V, I) K(I, I)^+ K(V, I)^T, represented by a factor Phi with
Phi Phi^T = L. One pivoted Cholesky loop, ``_cholesky_rows``, builds every
factor: ``pivoted_ichol`` (greedy pivots; stops at a rank, a trace
tolerance or a collapse floor), ``nested_factor`` (a fixed order, or greedy
pivots to the collapse floor), whose every prefix is a factor, and
``nystrom`` (the fixed order of a selection), so that a factor is its
ordered index set: ``nystrom(K, F.selection)`` is F, bit for bit.

Every factor carries a p x p whitener W = L_I^(-T), where L_I = Phi[I] is
the lower-triangular Cholesky factor of K(I, I) in pivot order, so that
Phi = K(V, I) W. It maps kernel evaluations (k(x_i, x))_{i in I} onto
Phi's basis and so extends the factor to unseen points. A pivot whose
residual has collapsed leaves a zero column of Phi and a zero row and
column of W.

Factorizations are sequential internally (pivot order is a data
dependence); factors are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from . import csvio
from .errors import ConfigError, NumericalError, ParseError
from .kernels import KernelMatrix, KernelSpec, cross_gram

# Collapse floor, relative to max(diag K): a pivot whose residual diagonal is
# at or below it adds nothing to the factor, since kernel submatrices are
# routinely numerically singular and rounding would dominate such a pivot.
PINV_RTOL = 1e-12

# Residual diagonals below -BREAKDOWN_RTOL * max(diag) indicate breakdown.
BREAKDOWN_RTOL = 1e-10

# ``prefix_errors``: relative trace error at or below which the operator norm
# comes from a dense eigendecomposition instead of Lanczos, the restart budget
# before that fallback, and the weight of the fixed vector in a warm start.
LANCZOS_RTOL = 1e-10
LANCZOS_MAXITER = 100
LANCZOS_MIX = 1e-2


@dataclass(frozen=True)
class ColumnSelection:
    """Ordered distinct column indices out of {0, ..., n-1}."""

    indices: np.ndarray
    method: str  # "uniform-random" or "greedy-pivoted"
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ConfigError("selection must contain at least one index")
        if np.unique(idx).size != idx.size:
            raise ConfigError("selection indices must be distinct")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ConfigError("selection indices out of range")


@dataclass(frozen=True)
class LowRankFactor:
    """Factor Phi (n x p) with Phi Phi^T = L, plus the selection that built it.

    ``whitener`` (p x p) maps raw kernel evaluations (k(x_i, x))_{i in I}
    onto Phi's basis: ``feature_matrix(spec, X[I], whitener, X) == phi`` on
    the points X that built the factor. It is L_I^(-T), the inverse
    transpose of the pivoted Cholesky factor L_I = Phi[I] of K(I, I), with
    a zero row and column at each collapsed pivot. ``trace_residual_trail``
    (pivoted path only) holds tr(K - L_k) after each of the k = 1..p pivot
    steps.
    """

    phi: np.ndarray
    selection: ColumnSelection
    whitener: np.ndarray
    trace_residual_trail: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.phi.shape[1]

    def gram(self) -> np.ndarray:
        """Dense L = Phi Phi^T (n x n); for diagnostics on small problems."""
        return self.phi @ self.phi.T


def sample_columns(n: int, p: int, seed) -> ColumnSelection:
    """Uniform random p-subset of {0, ..., n-1}, without replacement.

    Deterministic given ``seed`` (an int or a numpy Generator).
    """
    if p < 1 or p > n:
        raise ConfigError(f"need 1 <= p <= n, got p={p}, n={n}")
    idx = np.random.default_rng(seed).choice(n, size=p, replace=False)
    return ColumnSelection(indices=idx, method="uniform-random", n=n)


def _cholesky_rows(column, diag, pmax: int, order=None, trace_tol=None, floor=0.0):
    """Pivoted Cholesky, row-major p x n: row k of the result is column k of Phi.

    Pivot rule: greedy (``order`` None: the argmax of the online residual
    diagonal d, ties to the smallest index) or the fixed ``order``. Stop
    rule: ``pmax`` rows, sum(d) <= ``trace_tol``, or (greedy) max(d) <=
    ``floor``; under a fixed order a pivot with d[j] <= ``floor`` leaves its
    row zero. A greedy residual below -BREAKDOWN_RTOL * max(diag) raises
    NumericalError. Returns (rows, pivots, trail), trail[k] = tr(K - L_{k+1});
    the zeroed reserve is shrunk in place to the rows used, without a copy.
    """
    d = np.array(diag, dtype=float, copy=True)
    n = d.shape[0]
    breakdown = -BREAKDOWN_RTOL * float(np.max(d))
    rows = np.zeros((pmax, n))
    trail = np.empty(pmax)
    pivots: list[int] = []
    for k in range(pmax):
        j = int(np.argmax(d)) if order is None else int(order[k])
        pivot = d[j]
        if pivot > floor:
            row = rows[k]
            row[:] = column(j)
            row -= rows[:k, j] @ rows[:k]
            row /= np.sqrt(pivot)
            d -= row * row
            d[j] = 0.0
            if order is None and np.min(d) < breakdown:
                raise NumericalError(
                    f"pivoted Cholesky breakdown: residual diagonal {np.min(d):.3e} "
                    f"below {breakdown:.3e} after {k + 1} pivots"
                )
            np.clip(d, 0.0, None, out=d)
        elif order is None:
            break
        pivots.append(j)
        trail[k] = float(np.sum(d))
        if trace_tol is not None and trail[k] <= trace_tol:
            break
    rows.resize((len(pivots), n), refcheck=False)
    return rows, pivots, trail[: len(pivots)].copy()


def _whitener(phi: np.ndarray, pivots) -> np.ndarray:
    """W = L_I^(-T) for the triangular L_I = phi[pivots], so K(V, I) W = phi.

    A collapsed pivot (zero diagonal in L_I) gets a zero row and column.
    """
    upper = phi[pivots].T
    keep = np.flatnonzero(np.diag(upper) > 0.0)
    w = np.zeros_like(upper)
    w[np.ix_(keep, keep)] = scipy.linalg.solve_triangular(
        upper[np.ix_(keep, keep)], np.eye(keep.size), lower=False, check_finite=False
    )
    return w


def pivoted_ichol(
    column_oracle: Callable[[int], np.ndarray],
    diag: np.ndarray,
    max_rank: int | None = None,
    trace_tol: float | None = None,
) -> LowRankFactor:
    """Incomplete Cholesky with greedy diagonal pivoting.

    At each step the pivot is the argmax of the residual diagonal (ties go to
    the smallest index). The residual diagonal is maintained online, so
    ``trace_residual_trail[k]`` equals tr(K - L_{k+1}) exactly and at most
    ``max_rank`` full kernel columns are ever evaluated; K itself is never
    materialized (O(p^2 n) time, O(p n) memory). Phi is the transpose of the
    row-major p x n factor, which holds exactly the p rows used. With
    L = Phi[P] (lower triangular, positive diagonal) the whitener is L^(-T),
    so the feature map reproduces Phi on the training points:
    K(V, P) L^(-T) = Phi.

    Stops after ``max_rank`` pivots, once the trace residual drops to
    ``trace_tol`` (at least one of the two must be given), or once the
    largest residual diagonal collapses to ``PINV_RTOL * max(diag)``, where
    rounding would dominate further pivots (K has numerical rank k then).
    """
    n = len(diag)
    if max_rank is None and trace_tol is None:
        raise ConfigError("give max_rank, trace_tol, or both")
    pmax = n if max_rank is None else min(int(max_rank), n)
    if pmax < 1:
        raise ConfigError(f"max_rank must be >= 1, got {max_rank}")
    rows, pivots, trail = _cholesky_rows(
        column_oracle, diag, pmax, trace_tol=trace_tol, floor=PINV_RTOL * float(np.max(diag))
    )
    if not pivots:
        raise NumericalError("pivoted Cholesky made no progress (zero diagonal)")
    return LowRankFactor(
        phi=rows.T,
        selection=ColumnSelection(np.array(pivots), "greedy-pivoted", n),
        whitener=_whitener(rows.T, pivots),
        trace_residual_trail=trail,
    )


def nested_factor(K, order: Sequence[int] | None) -> np.ndarray:
    """Cholesky factor whose every prefix is a factor of its own pivots.

    Column k of the result depends only on the first k+1 pivots, so every
    prefix phi[:, :p] is itself a factor of the column approximation built
    from them. With a fixed ``order``, columns whose residual diagonal has
    collapsed below ``PINV_RTOL * max(diag)`` are left at zero (the
    pseudo-inverse drops them too, so every prefix is the column
    approximation of its index set). With ``order`` None the pivots are
    greedy, as in ``pivoted_ichol``, and the factor ends where the largest
    residual collapses, so it can have fewer than n columns.
    """
    A = np.asarray(K, dtype=float)
    diag = np.diag(A)
    pmax = A.shape[0] if order is None else len(order)
    floor = PINV_RTOL * float(np.max(diag))
    return _cholesky_rows(make_column_oracle(A), diag, pmax, order=order, floor=floor)[0].T


def nystrom(K, selection: ColumnSelection) -> LowRankFactor:
    """Column approximation L = K(V, I) K(I, I)^+ K(I, V) as a factor.

    The fixed-order :func:`nested_factor` on ``selection.indices`` and its
    whitener; a pivot collapsed to ``PINV_RTOL * max(diag)`` gives a zero
    column. Cost O(p^2 n) given the p columns.
    """
    phi = nested_factor(K, selection.indices)
    return LowRankFactor(phi=phi, selection=selection, whitener=_whitener(phi, selection.indices))


def feature_matrix(spec: KernelSpec, landmarks, whitener: np.ndarray, points) -> np.ndarray:
    """Feature vectors for many points, one row per point.

    Row x equals W^T (k(x_i, x))_{i in I} for the factor's whitener W; on
    the training points the rows are the rows of Phi, and inner products of
    rows reproduce the low-rank Gram matrix L and extend it to unseen points.
    """
    kvals = cross_gram(points, landmarks, spec)
    return kvals @ whitener


def approx_error(K, factor, norm: str = "trace") -> float:
    """Error ||K - Phi Phi^T|| in the trace, operator, or Frobenius norm.

    For the PSD residual of a column approximation the trace norm is simply
    tr(K - L).
    """
    A = np.asarray(K, dtype=float)
    phi = factor.phi if isinstance(factor, LowRankFactor) else np.asarray(factor)
    if norm == "trace":
        return float(np.trace(A) - np.sum(phi * phi))
    resid = A - phi @ phi.T
    if norm == "operator":
        ev = np.linalg.eigvalsh(resid)
        return float(max(ev[-1], -ev[0], 0.0))
    if norm == "frobenius":
        return float(np.linalg.norm(resid))
    raise ConfigError(f"unknown norm {norm!r}")


def prefix_errors(K, phi, ranks) -> tuple[np.ndarray, np.ndarray]:
    """Trace- and operator-norm errors of K - Phi_p Phi_p^T for each p in ``ranks``.

    One pass serves every prefix of a nested factor. The trace error is
    tr K minus the running sum of squared column norms. The operator error
    is the top eigenvalue of the PSD residual, found by Lanczos (``eigsh``,
    full precision) on x -> K x - Phi_p (Phi_p^T x). The first rank starts
    from a fixed unit vector g, each later rank from the previous rank's top
    eigenvector plus ``LANCZOS_MIX * g``, which keeps a component along
    every eigenvector: a pure warm start can be nearly orthogonal to the new
    top eigenvector, and Lanczos then settles on a lower one. Restarts use a
    fixed seed, so reruns are identical. Where the trace error is at most
    ``LANCZOS_RTOL * tr K`` (it bounds the operator error), or Lanczos does
    not converge in ``LANCZOS_MAXITER`` restarts, the dense
    :func:`approx_error` is used instead. Ranks above the number of columns
    are capped, as slicing phi[:, :p] would.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    A = np.asarray(K, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n, m = phi.shape
    tr = float(np.trace(A))
    trace_left = tr - np.concatenate(([0.0], np.cumsum(np.sum(phi * phi, axis=0))))
    caps = [min(int(p), m) for p in ranks]
    op_errs = np.empty(len(caps))
    g = np.random.default_rng(0).standard_normal(n)
    g /= np.linalg.norm(g)
    v0 = g
    for i, p in enumerate(caps):
        if i > 0 and p == caps[i - 1]:
            op_errs[i] = op_errs[i - 1]
            continue
        phi_p = phi[:, :p]
        if n > 1 and trace_left[p] > LANCZOS_RTOL * tr:
            op = LinearOperator((n, n), lambda x: A @ x - phi_p @ (phi_p.T @ x), dtype=float)
            try:
                vals, vecs = eigsh(op, k=1, which="LA", v0=v0, maxiter=LANCZOS_MAXITER, rng=0)
                op_errs[i] = max(float(vals[0]), 0.0)
                v0 = vecs[:, 0] + LANCZOS_MIX * g
                continue
            except ArpackNoConvergence:
                pass
        op_errs[i] = approx_error(A, phi_p, "operator")
    return trace_left[caps], op_errs


FACTOR_FORMAT_VERSION = 1
FACTOR_META = {"n": int, "p": int, "method": str, "indices": list[int], "trail": list[float]}


def save_factor(path, factor: LowRankFactor) -> None:
    """Write a factor as a ``nyridge-factor v1`` CSV (see :mod:`nyridge.csvio`).

    Metadata ``n``, ``p``, ``method``, ``indices`` and optional ``trail``,
    then the p rows of the whitener and the n rows of Phi.
    """
    meta = [
        ("n", factor.selection.n),
        ("p", factor.rank),
        ("method", factor.selection.method),
        ("indices", factor.selection.indices),
    ]
    if factor.trace_residual_trail is not None:
        meta.append(("trail", factor.trace_residual_trail))
    meta.append("whitener rows, then phi rows")
    rows = [*factor.whitener, *factor.phi]
    csvio.write(path, meta, None, rows, version=("factor", FACTOR_FORMAT_VERSION))


def load_factor(path) -> LowRankFactor:
    """Inverse of :func:`save_factor`; bit-exact round trip.

    Besides the format's own checks (:func:`nyridge.csvio.read`), a missing
    ``n``/``p``/``indices``, or matrix shapes, indices or a trail that do
    not match ``n`` and ``p`` raise ParseError.
    """
    meta, rows = csvio.read(
        path, ("factor", FACTOR_FORMAT_VERSION), FACTOR_META, required=("n", "p", "indices")
    )
    n, p, indices, trail = meta["n"], meta["p"], meta["indices"], meta.get("trail")
    if len(rows) != n + p:
        raise ParseError(f"{path}: expected {n + p} matrix rows, found {len(rows)}")
    if rows.shape[1] != p:
        raise ParseError(f"{path}: every whitener and phi row needs {p} values")
    if indices.size != p or (trail is not None and trail.size != p):
        raise ParseError(f"{path}: indices and trail need {p} entries")
    try:
        selection = ColumnSelection(indices, meta.get("method", "uniform-random"), n)
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return LowRankFactor(
        phi=rows[p:], selection=selection, whitener=rows[:p], trace_residual_trail=trail
    )


def make_column_oracle(K) -> Callable[[int], np.ndarray]:
    """Column oracle over an already-materialized matrix, for tests and demos."""
    A = np.asarray(K, dtype=float)
    return lambda j: A[:, j].copy()


def materialized_diag(K) -> np.ndarray:
    if isinstance(K, KernelMatrix):
        return K.diag.copy()
    return np.diag(np.asarray(K, dtype=float)).copy()
