"""Kernel ridge regression: exact smoother, reduced low-rank solver, Newton.

All solvers use the (... + n lambda I) convention; callers always pass the
per-sample regularization parameter lambda, never n * lambda.

Linear systems go through a symmetric positive-definite factorization with
an eigendecomposition-based pseudo-solve fallback, since useful lambdas can
sit near machine precision for fast-decay kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import ConfigError, DataError, NumericalError, ParseError
from .kernels import KernelSpec, cross_gram
from .lowrank import LowRankFactor, feature_matrix
from .stats import _check_lambda

LOSSES = ("square", "logistic")


@dataclass
class RidgeFit:
    """A fitted model: exact (alpha, length n) or low-rank (w, length p)."""

    mode: str  # "exact" or "lowrank"
    lam: float
    loss: str
    coef: np.ndarray
    indices: np.ndarray | None = None  # selected columns, low-rank mode
    iterations: int = 1


def _solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive (semi)definite A.

    Cholesky first; on failure, eigendecomposition pseudo-solve with
    non-positive eigenvalues dropped. Inputs that are indefinite beyond
    rounding tolerance are a caller error and raise instead of being masked.
    """
    try:
        low = np.linalg.cholesky(A)
        return np.linalg.solve(low.T, np.linalg.solve(low, b))
    except np.linalg.LinAlgError:
        s, u = np.linalg.eigh(A)
        if s[0] < -1e-8 * max(abs(s[-1]), 1e-300):
            raise NumericalError(
                f"matrix is not positive semidefinite beyond tolerance "
                f"(eigenvalue range [{s[0]:.3e}, {s[-1]:.3e}])"
            ) from None
        inv = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
        return u @ (inv * (u.T @ b))


def krr_exact(K, y, lam: float):
    """Exact ridge smoother: alpha = (K + n lambda I)^(-1) y, zhat = K alpha.

    Returns (fit, zhat); O(n^3).
    """
    _check_lambda(lam)
    A = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    alpha = _solve_psd(A + n * lam * np.eye(n), y)
    zhat = A @ alpha
    return RidgeFit(mode="exact", lam=lam, loss="square", coef=alpha), zhat


def krr_lowrank(factor: LowRankFactor, y, lam: float):
    """Reduced ridge solve (Phi^T Phi + n lambda I) w = Phi^T y, zhat = Phi w.

    By the push-through identity zhat equals L (L + n lambda I)^(-1) y for
    L = Phi Phi^T; cost O(p^2 n + p^3). Non-finite features or targets
    raise DataError.
    """
    _check_lambda(lam)
    phi = factor.phi
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(y))):
        raise DataError("low-rank ridge needs finite features and targets")
    n, p = phi.shape
    G = phi.T @ phi + n * lam * np.eye(p)
    w = _solve_psd(G, phi.T @ y)
    fit = RidgeFit(
        mode="lowrank", lam=lam, loss="square", coef=w, indices=factor.selection.indices
    )
    return fit, phi @ w


def _loss_terms(loss: str, y: np.ndarray, u: np.ndarray):
    """Pointwise value, first and second derivative in the margin u."""
    if loss == "square":
        r = u - y
        return 0.5 * r * r, r, np.ones_like(u)
    if loss == "logistic":
        m = y * u
        val = np.logaddexp(0.0, -m)
        e = np.exp(-np.abs(m))  # sigma(-m) = 1 / (1 + e^m), without overflow
        sig = np.where(m > 0.0, e, 1.0) / (1.0 + e)
        return val, -y * sig, sig * (1.0 - sig)
    raise ConfigError(f"unsupported loss {loss!r}")


def _objective(loss, phi, y, w, lam):
    val, _, _ = _loss_terms(loss, y, phi @ w)
    return float(np.mean(val) + 0.5 * lam * (w @ w))


def newton_solve(
    factor: LowRankFactor,
    y,
    lam: float,
    loss: str = "square",
    max_iter: int = 100,
    grad_rtol: float = 1e-10,
) -> RidgeFit:
    """Damped Newton on (1/n) sum loss(y_i, (Phi w)_i) + (lambda/2) ||w||^2.

    The square loss converges in exactly one step; the logistic loss uses
    the exact Hessian Phi^T D Phi / n + lambda I and a halving line search
    that only accepts descent steps. Labels must be in {-1, +1} for the
    logistic loss.
    """
    _check_lambda(lam)
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    phi = factor.phi
    y = np.asarray(y, dtype=float)
    n, p = phi.shape
    if loss == "logistic" and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ConfigError("logistic loss needs labels in {-1, +1}")

    tol = grad_rtol * max(1.0, float(np.linalg.norm(phi.T @ y)) / n)
    w = np.zeros(p)
    obj = _objective(loss, phi, y, w, lam)
    for it in range(1, max_iter + 1):
        u = phi @ w
        _, d1, d2 = _loss_terms(loss, y, u)
        grad = phi.T @ d1 / n + lam * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return RidgeFit(
                mode="lowrank", lam=lam, loss=loss, coef=w,
                indices=factor.selection.indices, iterations=it - 1,
            )
        H = (phi.T * d2) @ phi / n + lam * np.eye(p)
        step = _solve_psd(H, -grad)
        t = 1.0
        for _ in range(60):
            w_new = w + t * step
            obj_new = _objective(loss, phi, y, w_new, lam)
            if obj_new < obj:
                break
            t *= 0.5
        else:
            raise NumericalError(
                f"Newton line search stalled at iteration {it} "
                f"(|grad|={gnorm:.3e}, objective={obj:.6e})"
            )
        w, obj = w_new, obj_new
    u = phi @ w
    _, d1, _ = _loss_terms(loss, y, u)
    gnorm = float(np.linalg.norm(phi.T @ d1 / n + lam * w))
    if gnorm <= tol:
        return RidgeFit(
            mode="lowrank", lam=lam, loss=loss, coef=w,
            indices=factor.selection.indices, iterations=max_iter,
        )
    raise NumericalError(
        f"Newton failed to converge in {max_iter} iterations "
        f"(|grad|={gnorm:.3e}, tolerance={tol:.3e})"
    )


def predict(
    fit: RidgeFit,
    test_points,
    spec: KernelSpec,
    train_points=None,
    landmarks=None,
    whitener: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a fit on new points.

    Exact mode needs ``train_points`` (f(x) = sum_i alpha_i k(x, x_i));
    low-rank mode needs ``landmarks`` and ``whitener`` (f(x) = <w, phi(x)>).
    """
    if fit.mode == "exact":
        if train_points is None:
            raise ConfigError("exact fit needs train_points")
        return cross_gram(test_points, train_points, spec) @ fit.coef
    if fit.mode == "lowrank":
        if landmarks is None or whitener is None:
            raise ConfigError("low-rank fit needs landmarks and whitener")
        return feature_matrix(spec, landmarks, whitener, test_points) @ fit.coef
    raise ConfigError(f"unknown fit mode {fit.mode!r}")


FIT_FORMAT_VERSION = 1
FIT_MODES = ("exact", "lowrank")
FIT_META = {"mode": str, "lambda": float, "loss": str, "indices": list[int]}


def save_fit(path, fit: RidgeFit) -> None:
    """Write a ``nyridge-fit v1`` CSV: mode, lambda, loss, indices, then a coef column."""
    meta = [("mode", fit.mode), ("lambda", float(fit.lam)), ("loss", fit.loss)]
    if fit.indices is not None:
        meta.append(("indices", fit.indices))
    rows = [(c,) for c in fit.coef]
    csvio.write(path, meta, ["coef"], rows, version=("fit", FIT_FORMAT_VERSION))


def load_fit(path) -> RidgeFit:
    """Inverse of :func:`save_fit`.

    Besides the format's own checks (:func:`nyridge.csvio.read`), a missing
    ``mode``/``lambda``/``loss``, a mode other than exact or lowrank, a
    lambda that is not > 0 or a loss not in ``LOSSES`` raise ParseError.
    """
    required = ("mode", "lambda", "loss")
    version = ("fit", FIT_FORMAT_VERSION)
    meta, rows = csvio.read(path, version, FIT_META, required=required, header=["coef"])
    if meta["mode"] not in FIT_MODES:
        raise ParseError(f"{path}: mode must be one of {FIT_MODES}, got {meta['mode']!r}")
    if not meta["lambda"] > 0:
        raise ParseError(f"{path}: lambda must be > 0, got {meta['lambda']!r}")
    if meta["loss"] not in LOSSES:
        raise ParseError(f"{path}: loss must be one of {LOSSES}, got {meta['loss']!r}")
    return RidgeFit(meta["mode"], meta["lambda"], meta["loss"], rows[:, 0], meta.get("indices"))
