"""Column-sampled low-rank factorizations of PSD kernel matrices.

Given an ordered subset I of columns, the approximation is
L = K(V, I) K(I, I)^+ K(V, I)^T, represented by a factor Phi with
Phi Phi^T = L. One pivoted Cholesky loop, ``_cholesky_rows``, builds every
factor from a row oracle ``idx -> K[idx, :]``, updating a carried pool of
candidate rows in panels so that most of its work is a few GEMMs per panel:
``pivoted_ichol`` (greedy pivots; stops at a rank, a trace tolerance or a
collapse floor), ``nested_factor`` (a fixed order, or greedy pivots to the
collapse floor), whose every prefix is a factor, and ``nystrom`` (the fixed
order of a selection), so that a factor is its ordered index set:
``nystrom(K, F.selection)`` is F, bit for bit.

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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import csvio
from .errors import ConfigError, NumericalError, ParseError, finite, generator, scalar, shaped
from .kernels import KernelSpec, cross_gram

# Collapse floor, relative to max(diag K): a pivot whose residual diagonal is
# at or below it adds nothing to the factor, since kernel submatrices are
# routinely numerically singular and rounding would dominate such a pivot.
PINV_RTOL = 1e-12

# Residual diagonals below -BREAKDOWN_RTOL * max(diag) indicate breakdown.
BREAKDOWN_RTOL = 1e-10

# ``prefix_errors``: relative trace error at or below which the operator norm
# comes from a dense eigendecomposition instead of Lanczos, and the weight of
# the fixed vector in a warm start. ``_top_eig``: Lanczos steps between
# convergence checks; its Krylov space grows until the check passes, with no
# restart and no cap below n.
LANCZOS_RTOL = 1e-10
LANCZOS_MIX = 1e-2
LANCZOS_CHECK = 6

# ``_cholesky_rows``: pivots per delayed-update panel, rows in the carried
# candidate pool, and the initial row reserve.
PANEL = 32
CANDIDATES = 64
RESERVE = 256


@dataclass(frozen=True)
class ColumnSelection:
    """Ordered distinct column indices out of {0, ..., n-1}."""

    indices: np.ndarray
    method: str  # "uniform-random" or "greedy-pivoted"
    n: int

    def __post_init__(self):
        idx = np.asarray(finite(self.indices, "selection", shape=(None,)), dtype=int)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "n", scalar(self.n, "n", int, ">= 1"))
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
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


def subset_size(n: int, p: int) -> int:
    """p as the size of a subset of n items: the one subset-size rule; ConfigError unless 1 <= p <= n."""
    p = scalar(p, "p", int, ">= 1")
    if p > n:
        raise ConfigError(f"p must be <= n = {n} (got {p})")
    return p


def sample_columns(n: int, p: int, seed) -> ColumnSelection:
    """Uniform random p-subset of {0, ..., n-1}, without replacement.

    Deterministic given ``seed`` (an int or a numpy Generator).
    """
    n = scalar(n, "n", int, ">= 1")
    idx = generator(seed).choice(n, size=subset_size(n, p), replace=False)
    return ColumnSelection(indices=idx, method="uniform-random", n=n)


def _cholesky_rows(kernel_rows, diag, pmax: int, order=None, trace_tol=None):
    """Pivoted Cholesky, row-major p x n: row k of the result is column k of Phi.

    ``kernel_rows(idx)`` returns K[idx, :], shape (len(idx), n), for a 1-D
    array of distinct indices. Pivot rule: greedy (``order`` None: the
    argmax of the online residual diagonal d, ties to the smallest index) or
    the fixed ``order``. Stop rule: ``pmax`` rows, sum(d) <= ``trace_tol``,
    or (greedy) max(d) <= floor = PINV_RTOL * max(diag); under a fixed order
    a pivot with d[j] <= floor leaves its row zero. A greedy residual below
    -BREAKDOWN_RTOL * max(diag) raises NumericalError; a diagonal or kernel
    row that is not finite or of length n = len(diag) raises DataError.
    Returns (rows, pivots, trail), trail[k] = tr(K - L_{k+1}).

    Updates are delayed in panels (LAPACK ``dpstrf``'s scheme, restricted to
    candidate rows) over a carried pool of m = min(CANDIDATES, n) rows with
    stable slots. Every ``PANEL`` pivots the m largest residual diagonals
    become the candidates: a candidate already in the pool is brought up to
    date by the rows added since the last panel in one GEMM, and the others
    take the slots of the rows that left the pool, evaluated in one oracle
    call and updated by all earlier rows in one GEMM. A pivot among the
    candidates then subtracts only the rows of the current panel; any other
    pivot is a one-row oracle call and a GEMV over all earlier rows. So at
    most p + ceil(p / PANEL) * m rows are evaluated, and each row once while
    it stays a candidate. The pool depends on d, k and the previous pool
    alone, so a fixed order replaying a greedy one does the same arithmetic
    and rebuilds its rows bit for bit. The zeroed reserve starts at
    ``RESERVE`` rows, grows in place by a quarter whenever it fills, so
    that the rows past the rank stay few, and is shrunk in place to the rows
    used, without a copy.
    """
    d = np.array(finite(diag, "kernel diagonal", shape=(None,)))
    n = d.shape[0]
    pmax, m = min(pmax, n), min(CANDIDATES, n)
    top = float(np.max(d))
    floor, breakdown = PINV_RTOL * top, -BREAKDOWN_RTOL * top
    rows = np.zeros((min(RESERVE, pmax), n))
    trail = np.empty(pmax)
    pivots: list[int] = []
    pool = np.empty((m, n))  # pool[i] is row pool_idx[i] of K - L_k0
    pool_idx = np.full(m, -1)
    slot = np.full(n, -1)  # slot[j]: the pool slot holding row j, or -1
    k0 = 0
    for k in range(pmax):
        if k == rows.shape[0]:
            rows.resize((min(k + k // 4, pmax), n), refcheck=False)
        if k % PANEL == 0:
            cand = np.argpartition(d, n - m)[n - m :]
            held = slot[cand]
            kept = held[held >= 0]
            if kept.size:
                pool[kept] -= rows[k0:k, pool_idx[kept]].T @ rows[k0:k]
            new = cand[held < 0]
            if new.size:
                is_free = np.ones(m, dtype=bool)
                is_free[kept] = False
                free = np.flatnonzero(is_free)
                gone = pool_idx[free]
                slot[gone[gone >= 0]] = -1
                pool_idx[free] = new
                slot[new] = free
                fresh = finite(kernel_rows(new), "kernel matrix", rows=new, shape=(new.size, n))
                fresh -= rows[:k, new].T @ rows[:k]
                pool[free] = fresh
            k0 = k
        j = int(np.argmax(d)) if order is None else int(order[k])
        pivot = d[j]
        if pivot > floor:
            row = rows[k]
            i = slot[j]
            if i < 0:
                row[:] = finite(kernel_rows(np.array([j])), "kernel matrix", rows=[j], shape=(1, n))[0]
                row -= rows[:k, j] @ rows[:k]
            else:
                row[:] = pool[i]
                row -= rows[k0:k, j] @ rows[k0:k]
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


def _triu_inv(upper: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix with a nonzero diagonal.

    By 2 x 2 blocks, [[A, B], [0, D]]^(-1) = [[A^(-1), -A^(-1) B D^(-1)],
    [0, D^(-1)]], so that most of the work is in matrix products; blocks of
    at most 64 rows are solved directly.
    """
    p = upper.shape[0]
    if p <= 64:
        return np.linalg.solve(upper, np.eye(p))
    h = p // 2
    a_inv, d_inv = _triu_inv(upper[:h, :h]), _triu_inv(upper[h:, h:])
    out = np.zeros_like(upper)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[:h, h:] = -(a_inv @ upper[:h, h:]) @ d_inv
    return out


def _whitener(phi: np.ndarray, pivots) -> np.ndarray:
    """W = L_I^(-T) for the triangular L_I = phi[pivots], so K(V, I) W = phi.

    A collapsed pivot (zero diagonal in L_I) gets a zero row and column.
    """
    upper = phi[pivots].T
    keep = np.flatnonzero(np.diag(upper) > 0.0)
    w = np.zeros_like(upper)
    w[np.ix_(keep, keep)] = _triu_inv(upper[np.ix_(keep, keep)])
    return w


def pivoted_ichol(
    kernel_rows: Callable[[np.ndarray], np.ndarray],
    diag: np.ndarray,
    max_rank: int | None = None,
    trace_tol: float | None = None,
) -> LowRankFactor:
    """Incomplete Cholesky with greedy diagonal pivoting.

    ``kernel_rows(idx)`` returns the kernel rows K[idx, :] as an array of
    shape (len(idx), n), for a 1-D array of distinct indices. At each step
    the pivot is the argmax of the residual diagonal (ties go to the
    smallest index). The residual diagonal is maintained online, so
    ``trace_residual_trail[k]`` equals tr(K - L_{k+1}) exactly; K itself is
    never materialized (O(p^2 n) time, O(p n) memory). Updates are delayed
    in panels of ``PANEL`` pivots over a carried pool of ``CANDIDATES``
    candidate rows, each evaluated once while it stays in the pool (see
    ``_cholesky_rows``), so a rank-p factor evaluates at most
    p + ceil(p / PANEL) * min(CANDIDATES, n) kernel rows. Phi is the
    transpose of the row-major p x n factor, which holds exactly the p rows
    used. With L = Phi[P] (lower triangular, positive diagonal) the whitener
    is L^(-T), so the feature map reproduces Phi on the training points:
    K(V, P) L^(-T) = Phi.

    Stops after ``max_rank`` pivots, once the trace residual drops to
    ``trace_tol`` (at least one of the two must be given), or once the
    largest residual diagonal collapses to the floor of ``_cholesky_rows``,
    where rounding would dominate further pivots (K has numerical rank k then).
    """
    if max_rank is None and trace_tol is None:
        raise ConfigError("give max_rank, trace_tol, or both")
    pmax = math.inf if max_rank is None else scalar(max_rank, "max_rank", int, ">= 1")
    if trace_tol is not None:
        trace_tol = scalar(trace_tol, "trace_tol", float, ">= 0")
    rows, pivots, trail = _cholesky_rows(kernel_rows, diag, pmax, trace_tol=trace_tol)
    if not pivots:
        raise NumericalError("pivoted Cholesky made no progress (zero diagonal)")
    return LowRankFactor(
        phi=rows.T,
        selection=ColumnSelection(np.array(pivots), "greedy-pivoted", rows.shape[1]),
        whitener=_whitener(rows.T, pivots),
        trace_residual_trail=trail,
    )


def nested_factor(K, order: Sequence[int] | None) -> np.ndarray:
    """Cholesky factor whose every prefix is a factor of its own pivots.

    Column k of the result depends only on the first k+1 pivots, so every
    prefix phi[:, :p] is itself a factor of the column approximation built
    from them. With a fixed ``order``, columns whose residual diagonal has
    collapsed to the floor of ``_cholesky_rows`` are left at zero (the
    pseudo-inverse drops them too, so every prefix is the column
    approximation of its index set). With ``order`` None the pivots are
    greedy, as in ``pivoted_ichol``, and the factor ends where the largest
    residual collapses, so it can have fewer than n columns. DataError unless K is square.
    """
    A = np.asarray(shaped(K, "kernel matrix", "square"), dtype=float)  # entries are checked as read
    diag = np.diag(A)
    pmax = A.shape[0] if order is None else len(order)
    return _cholesky_rows(make_column_oracle(A), diag, pmax, order=order)[0].T


def nystrom(K, selection: ColumnSelection) -> LowRankFactor:
    """Column approximation L = K(V, I) K(I, I)^+ K(I, V) as a factor.

    The fixed-order :func:`nested_factor` on ``selection.indices`` and its
    whitener; a pivot collapsed to the floor of ``_cholesky_rows`` gives a zero
    column. Cost O(p^2 n) given the p columns. DataError unless K is n x n.
    """
    phi = nested_factor(shaped(K, "kernel matrix", (selection.n, selection.n)), selection.indices)
    return LowRankFactor(phi=phi, selection=selection, whitener=_whitener(phi, selection.indices))


def feature_matrix(spec: KernelSpec, landmarks, whitener: np.ndarray, points) -> np.ndarray:
    """Feature vectors for many points, one row per point; DataError unless W is finite, a row per landmark.

    Row x equals W^T (k(x_i, x))_{i in I} for the factor's whitener W; on
    the training points the rows are the rows of Phi, and inner products of
    rows reproduce the low-rank Gram matrix L and extend it to unseen points.
    """
    kvals = cross_gram(points, landmarks, spec)
    return kvals @ finite(whitener, "whitener", shape=(kvals.shape[1], None))


def approx_error(K, factor) -> float:
    """Operator-norm error ||K - Phi Phi^T||_2 from a dense eigendecomposition of the residual."""
    A = finite(K, "kernel matrix", shape="square")
    phi = finite(getattr(factor, "phi", factor), "factor", shape=(len(A), None))
    ev = np.linalg.eigvalsh(A - phi @ phi.T)
    return float(max(ev[-1], -ev[0], 0.0))


def _top_eig(matvec: Callable[[np.ndarray], np.ndarray], v0: np.ndarray):
    """Largest eigenvalue and a unit eigenvector of a symmetric operator.

    Lanczos from ``v0`` with full reorthogonalization (two Gram-Schmidt
    passes per step) on a Krylov space that grows until it converges, at
    most n vectors. Every ``LANCZOS_CHECK`` steps the top Ritz pair
    (theta, V s) of the tridiagonal T is accepted once its residual
    |beta s_k| is at most eps max(theta, eps^(2/3)), ARPACK's test at full
    precision; a space that stops growing (beta = 0) or fills all n
    dimensions is exact, so every call returns (theta, V s), after at most
    n matvecs. The basis is reserved as n x n, and only its used rows are
    touched.
    """
    n = v0.shape[0]
    eps = np.finfo(float).eps
    basis = np.empty((n, n))
    alpha, beta = np.empty(n), np.empty(n)
    basis[0] = v0 / math.sqrt(v0 @ v0)
    for j in range(n):
        m = j + 1
        V = basis[:m]
        w = matvec(basis[j])
        h = V @ w
        w -= h @ V
        h2 = V @ w
        w -= h2 @ V
        alpha[j] = h[j] + h2[j]
        beta[j] = math.sqrt(w @ w)
        if m % LANCZOS_CHECK == 0 or m == n or beta[j] == 0.0:
            T = np.zeros((m, m))  # eigh reads the lower triangle only
            T.flat[:: m + 1] = alpha[:m]
            T.flat[m :: m + 1] = beta[: m - 1]
            theta, S = np.linalg.eigh(T)
            if m == n or abs(beta[j] * S[-1, -1]) <= eps * max(theta[-1], eps ** (2 / 3)):
                return float(theta[-1]), S[:, -1] @ V
        np.divide(w, beta[j], out=basis[m])


def prefix_errors(K, phi, ranks) -> tuple[np.ndarray, np.ndarray]:
    """Trace- and operator-norm errors of K - Phi_p Phi_p^T for each p in ``ranks``.

    One pass serves every prefix of a nested factor. The trace error is
    tr K minus the running sum of squared column norms. The operator error
    is the top eigenvalue of the PSD residual, found by Lanczos
    (:func:`_top_eig`, full precision, at most n matvecs) on
    x -> K x - Phi_p (Phi_p^T x). The first rank starts from a fixed unit
    vector g, each later rank from the previous rank's top eigenvector plus
    ``LANCZOS_MIX * g``, which keeps a component along every eigenvector: a
    pure warm start can be nearly orthogonal to the new top eigenvector, and
    Lanczos then settles on a lower one. g comes from a fixed seed, so
    reruns are identical. Only where the trace error is at most
    ``LANCZOS_RTOL * tr K`` (it bounds the operator error, so the residual
    is rounding) is the dense :func:`approx_error` used instead. Ranks are
    integers >= 0, capped at the columns of Phi as slicing phi[:, :p] would.
    DataError unless K is finite and square and Phi finite with a row per
    row of K.
    """
    A = finite(K, "kernel matrix", shape="square")
    phi = finite(phi, "factor", shape=(len(A), None))
    n, m = phi.shape
    tr = float(np.trace(A))
    trace_left = tr - np.concatenate(([0.0], np.cumsum(np.sum(phi * phi, axis=0))))
    ranks = finite(ranks, "ranks", shape=(None,)).tolist()
    caps = [min(scalar(p, "rank", int, ">= 0"), m) for p in ranks]
    op_errs = np.empty(len(caps))
    g = np.random.default_rng(0).standard_normal(n)
    g /= np.linalg.norm(g)
    v0 = g
    for i, p in enumerate(caps):
        if i > 0 and p == caps[i - 1]:
            op_errs[i] = op_errs[i - 1]
            continue
        phi_p = phi[:, :p]
        if trace_left[p] > LANCZOS_RTOL * tr:
            theta, top = _top_eig(lambda x: A @ x - phi_p @ (phi_p.T @ x), v0)
            op_errs[i] = max(theta, 0.0)
            v0 = top + LANCZOS_MIX * g
        else:
            op_errs[i] = approx_error(A, phi_p)
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


def make_column_oracle(K) -> Callable[[np.ndarray], np.ndarray]:
    """Row oracle ``idx -> K[idx, :]`` over an already-materialized matrix.

    The rows are read as columns of K, transposed, so that a matrix that is
    symmetric only up to rounding factors the same as from its columns.
    """
    A = np.asarray(K, dtype=float)
    return lambda idx: A[:, idx].T


def materialized_diag(K) -> np.ndarray:
    return np.diag(np.asarray(K, dtype=float)).copy()
