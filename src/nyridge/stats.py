"""Degrees of freedom, exact bias/variance, rank bounds, and rate fitting.

For the ridge smoother zhat = K (K + n lambda I)^(-1) y with fixed design,
E y = z and noise covariance sigma^2 I, the expected in-sample error splits
into closed forms

    bias     = n lambda^2 z^T (K + n lambda I)^(-2) z
    variance = (sigma^2 / n) tr K^2 (K + n lambda I)^(-2)

so every experiment here evaluates errors analytically; Monte-Carlo noise
draws appear only as cross-check oracles in the tests.

Three degrees-of-freedom quantities are tracked, with
d_max >= d_trace >= d_ave:

    d_max   = n max_i [K (K + n lambda I)^(-1)]_ii
    d_trace = tr K (K + n lambda I)^(-1)
    d_ave   = tr K^2 (K + n lambda I)^(-2)

All of them are functions of the spectrum of K and of the coefficients of z
on its eigenbasis. :class:`Spectrum` is the single home of these closed
forms. It is built by one FFT of the first row (the circulant K of a grid
problem), by a dense eigendecomposition (any K: the reference behind
:func:`dof` and :func:`bias_variance`), by a thin SVD of a factor Phi
(low-rank smoothers L = Phi Phi^T), or, for every prefix Phi[:, :p] of a
nested factor at once, by one thin QR of Phi. The error and d.o.f.
functions here are thin wrappers over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, VacuousBoundError
from .lowrank import nested_factor, sample_columns
from .synthetic import FixedDesignProblem, check_sigma2


def _rng_for(seed, *key) -> np.random.Generator:
    """Deterministic per-work-item generator: (master seed, row key)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    )


def _check_lambda(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ConfigError(f"lambda must be finite and > 0 (got {lam!r})")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a PSD smoother matrix and the signal's energy on them.

    ``eigs`` are clipped to >= 0. ``coef2[i]`` is the squared coefficient of
    z on the i-th unit eigenvector (None until a signal is projected) and
    ``resid2`` the energy of z outside the eigenbasis: 0 for a full K,
    ||z_perp||^2 for a low-rank factor. ``basis`` holds the orthonormal
    eigenvectors as columns, whose squared rows weight the leverage; it is
    None for a circulant K, whose basis is the Fourier one and whose leverage
    is constant, so that d_max = d_trace. When ``frame`` (n x p, orthonormal
    columns) is set, ``basis`` holds the eigenvectors in the frame's
    coordinates and the n x p eigenvectors ``frame @ basis`` are only formed
    when ``dof`` needs the leverage.
    """

    eigs: np.ndarray
    n: int
    coef2: np.ndarray | None = None
    resid2: float = 0.0
    basis: np.ndarray | None = None
    frame: np.ndarray | None = None

    @classmethod
    def dense(cls, K, z=None) -> "Spectrum":
        """Symmetric eigendecomposition of a general PSD K."""
        s, u = np.linalg.eigh(np.asarray(K, dtype=float))
        spec = cls(np.clip(s, 0.0, None), s.size, basis=u)
        return spec if z is None else spec.project(z)

    @classmethod
    def circulant(cls, row0, z=None) -> "Spectrum":
        """FFT of the (mirrored, hence symmetric) first row of a circulant K."""
        eigs = np.fft.fft(np.asarray(row0, dtype=float)).real
        spec = cls(np.clip(eigs, 0.0, None), eigs.size)
        return spec if z is None else spec.project(z)

    @classmethod
    def lowrank(cls, phi, z=None) -> "Spectrum":
        """Thin SVD of Phi: the nonzero spectrum of L = Phi Phi^T in O(n p^2)."""
        phi = np.asarray(phi, dtype=float)
        u, s, _ = np.linalg.svd(phi, full_matrices=False)
        spec = cls(s * s, phi.shape[0], basis=u)
        return spec if z is None else spec.project(z)

    @classmethod
    def prefixes(cls, phi, z) -> Callable[[int], "Spectrum"]:
        """Spectra of every prefix factor Phi[:, :p] from one thin QR of Phi.

        With Phi = QR, Phi[:, :p] = Q_p R_p for R_p = R[:p, :p], so the
        rank-p smoother has the eigenvalues of R_p R_p^T = W S W^T (p x p),
        the coefficients W^T (Q^T z)[:p] and the residual energy
        ||z||^2 - ||(Q^T z)[:p]||^2; its eigenvectors Q_p W are built only if
        ``dof`` asks for them. Returns p -> spectrum; p is capped at the
        number of columns of Phi, as slicing Phi[:, :p] would.
        """
        z = np.asarray(z, dtype=float)
        q, r = np.linalg.qr(np.asarray(phi, dtype=float))

        def prefix(p: int) -> Spectrum:
            rp = r[:p, :p]
            s, w = np.linalg.eigh(rp @ rp.T)
            return cls(np.clip(s, 0.0, None), q.shape[0], basis=w, frame=q[:, :p]).project(z)

        return prefix

    def project(self, z) -> "Spectrum":
        """The same spectrum with ``coef2`` and ``resid2`` of the signal z."""
        z = np.asarray(z, dtype=float)
        if self.basis is None:
            f = np.fft.fft(z)
            return replace(self, coef2=(f.real**2 + f.imag**2) / self.n, resid2=0.0)
        uz = self.basis.T @ (z if self.frame is None else self.frame.T @ z)
        resid2 = 0.0
        if self.basis.shape[1] < self.n:
            resid2 = max(float(z @ z - uz @ uz), 0.0)
        return replace(self, coef2=uz * uz, resid2=resid2)

    @cached_property
    def _max_eig(self) -> float:
        return float(np.max(self.eigs))

    def bias(self, lam: float) -> float:
        _check_lambda(lam)
        nl = self.n * lam
        top = self._max_eig + nl  # numpy overflows only for a finite nl
        if math.isfinite(nl) and not top * top < math.inf:
            raise NumericalError(f"(eig + n lambda)^2 at lambda={lam!r} is not finite")
        fitted = float(np.sum(self.coef2 / (self.eigs + nl) ** 2))
        return self.n * lam * lam * fitted + self.resid2 / self.n

    def variance(self, sigma2: float, lam: float) -> float:
        _check_lambda(lam)
        ratio = self.eigs / (self.eigs + self.n * lam)
        return sigma2 / self.n * float(np.sum(ratio * ratio))

    def bias_variance(self, sigma2: float, lam: float) -> tuple[float, float]:
        return self.bias(lam), self.variance(sigma2, lam)

    def error(self, sigma2: float, lam: float) -> float:
        """Expected in-sample error bias + variance."""
        return self.bias(lam) + self.variance(sigma2, lam)

    def dof(self, lam: float) -> tuple[float, float, float]:
        """(d_max, d_trace, d_ave); d_max = d_trace when the leverage is constant."""
        _check_lambda(lam)
        r = self.eigs / (self.eigs + self.n * lam)
        d_trace = float(np.sum(r))
        if self.basis is None:
            d_max = d_trace
        else:
            u = self.basis if self.frame is None else self.frame @ self.basis
            d_max = float(self.n * np.max(np.einsum("ji,i,ji->j", u, r, u)))
        return d_max, d_trace, float(np.sum(r * r))


def problem_spectrum(problem: FixedDesignProblem) -> Spectrum:
    """Spectrum of the problem's K with the coefficients of its current z.

    One FFT of the first row; K is never assembled.
    """
    return Spectrum.circulant(problem.row0, problem.z)


def dof(K, lam: float) -> tuple[float, float, float]:
    """(d_max, d_trace, d_ave) from one symmetric eigendecomposition."""
    return Spectrum.dense(K).dof(lam)


def bias_variance(K, z, sigma2: float, lam: float) -> tuple[float, float]:
    """Closed-form expected in-sample error terms for the exact smoother."""
    sigma2 = check_sigma2(sigma2)
    return Spectrum.dense(K, z).bias_variance(sigma2, lam)


def lowrank_bias_variance(phi, z, sigma2: float, lam: float) -> tuple[float, float]:
    """Bias/variance of the smoother built on L = Phi Phi^T, via thin SVD.

    O(n p^2) instead of a dense n x n eigendecomposition: directions
    orthogonal to the column space carry eigenvalue zero, so their bias
    contribution is ||z_perp||^2 / n.
    """
    return Spectrum.lowrank(phi, z).bias_variance(sigma2, lam)


def theorem_rank_bound(d_max: float, delta: float, n: int, r2: float, lam: float) -> int:
    """Sufficient rank ceil((32 d / delta + 2) log(n R^2 / (delta lambda))).

    Raises :class:`VacuousBoundError` when n R^2 <= delta lambda, where the
    logarithm is non-positive and the bound carries no information.
    """
    if not (0.0 < delta < 1.0):
        raise ConfigError("delta must be in (0, 1)")
    _check_lambda(lam)
    arg = n * r2 / (delta * lam)
    if arg <= 1.0:
        raise VacuousBoundError(
            f"rank bound vacuous: n R^2 / (delta lambda) = {arg:.3e} <= 1"
        )
    return int(math.ceil((32.0 * d_max / delta + 2.0) * math.log(arg)))


@dataclass
class TheoremCheck:
    """Monte-Carlo check of the column-sampling error-ratio bound."""

    ratio_mean: float
    bound: float  # 1 + 4 delta
    holds: bool
    high_prob_threshold: float  # (1 - delta/2)^(-2)
    frac_above_threshold: float
    high_prob_bound: float  # n exp(-p / (32 d / delta + 2))
    p: int
    trials: int
    err_full: float
    ratios: np.ndarray


def verify_theorem(
    problem: FixedDesignProblem,
    lam: float,
    delta: float,
    p: int,
    trials: int,
    seed,
) -> TheoremCheck:
    """Empirical mean of [bias(L) + variance(L)] / [bias(K) + variance(K)].

    Both errors are closed forms (no noise sampling needed in fixed design);
    randomness enters only through the column subsets. Also reports the
    fraction of draws whose ratio exceeds the high-probability threshold
    (1 - delta/2)^(-2), next to its bound n exp(-p / (32 d / delta + 2)).
    """
    if not (0.0 < delta < 1.0):
        raise ConfigError("delta must be in (0, 1)")
    n = problem.n
    if not (1 <= p <= n):
        raise ConfigError(f"need 1 <= p <= n, got p={p}")
    if trials < 1:
        raise ConfigError(f"need trials >= 1, got {trials}")
    spec = problem_spectrum(problem)
    err_full = spec.error(problem.sigma2, lam)
    A = problem.K.entries
    ratios = np.empty(trials)
    for t in range(trials):
        phi = nested_factor(A, sample_columns(n, p, _rng_for(seed, t)).indices)
        bl, vl = lowrank_bias_variance(phi, problem.z, problem.sigma2, lam)
        ratios[t] = (bl + vl) / err_full
    d_max, _, _ = spec.dof(lam)
    thresh = (1.0 - delta / 2.0) ** -2
    return TheoremCheck(
        ratio_mean=float(np.mean(ratios)),
        bound=1.0 + 4.0 * delta,
        holds=bool(np.mean(ratios) <= 1.0 + 4.0 * delta),
        high_prob_threshold=thresh,
        frac_above_threshold=float(np.mean(ratios > thresh)),
        high_prob_bound=float(min(1.0, n * math.exp(-p / (32.0 * d_max / delta + 2.0)))),
        p=p,
        trials=trials,
        err_full=err_full,
        ratios=ratios,
    )


def lemma_deviations(psis, p: int, trials: int, seed) -> np.ndarray:
    """lambda_max[Psi^T Psi / n - Psi_I^T Psi_I / p] per matrix and trial.

    Trial t draws its p row indices I from ``_rng_for(seed, t)``. The draw
    depends only on (seed, t, n, p), so one draw serves every matrix in
    ``psis`` (all with n rows). Returns a (len(psis), trials) array.
    """
    psis = [np.asarray(psi, dtype=float) for psi in psis]
    n = psis[0].shape[0]
    if any(psi.shape[0] != n for psi in psis):
        raise ConfigError("every matrix needs the same number of rows")
    if not (1 <= p <= n):
        raise ConfigError(f"need 1 <= p <= n, got p={p}")
    if trials < 1:
        raise ConfigError(f"need trials >= 1, got {trials}")
    grams = [psi.T @ psi / n for psi in psis]
    devs = np.empty((len(psis), trials))
    for t in range(trials):
        idx = _rng_for(seed, t).choice(n, size=p, replace=False)
        for f, (psi, A) in enumerate(zip(psis, grams)):
            sub = psi[idx]
            devs[f, t] = np.linalg.eigvalsh(A - sub.T @ sub / p)[-1]
    return devs


def lemma_tail(psi, p: int, t_grid, devs) -> list[tuple[float, float, float]]:
    """Rows (t, empirical_prob, bound) of the deviations ``devs`` of psi's subsets.

    empirical_prob is the fraction of ``devs`` above t; the bound is
    r exp(-p t^2 / 2 / (lambda_max(Psi^T Psi / n) (R^2 + t/3))) clipped to 1,
    with R^2 the computed maximum squared row norm.
    """
    psi = np.asarray(psi, dtype=float)
    n, r = psi.shape
    lam_max = float(np.linalg.eigvalsh(psi.T @ psi / n)[-1])
    r2 = float(np.max(np.sum(psi * psi, axis=1)))
    rows = []
    for tval in np.asarray(t_grid, dtype=float):
        emp = float(np.mean(devs > tval))
        bound = min(1.0, r * math.exp(-p * tval * tval / 2.0 / (lam_max * (r2 + tval / 3.0))))
        rows.append((float(tval), emp, bound))
    return rows


class RankSweeper:
    """Sufficient-rank searches over a lambda grid with factor reuse.

    Random trials draw one permutation each; prefixes of a fixed-order
    Cholesky factor then give every nested column subset at once. The
    pivoted path is deterministic, so a single greedy factor serves all
    requested ranks. Spectra come from one thin QR of each factor's leading
    columns (:meth:`Spectrum.prefixes`), redone only when a search reaches
    past the next power of two; a rank-p spectrum then costs one p x p
    ``eigh``, and per-(trial, p) spectra are cached, making repeated
    sufficient-rank queries across a lambda grid cheap.
    """

    def __init__(self, problem: FixedDesignProblem, trials: int = 10, seed=0):
        if trials < 1:
            raise ConfigError(f"need trials >= 1, got {trials}")
        self.problem = problem
        self.trials = trials
        self.seed = seed
        self._perm_factors: list[np.ndarray] | None = None
        self._pivoted: np.ndarray | None = None
        self._prefixes: dict = {}
        self._spectra: dict = {}

    def factors(self, method: str) -> list[np.ndarray]:
        A = self.problem.K.entries
        n = self.problem.n
        if method == "random":
            if self._perm_factors is None:
                self._perm_factors = [
                    nested_factor(A, _rng_for(self.seed, t).permutation(n))
                    for t in range(self.trials)
                ]
            return self._perm_factors
        if method == "pivoted":
            if self._pivoted is None:
                self._pivoted = nested_factor(A, None)
            return [self._pivoted]
        raise ConfigError(f"unknown method {method!r}")

    def _spectrum(self, method: str, t: int, p: int) -> Spectrum:
        key = (method, t, p)
        got = self._spectra.get(key)
        if got is None:
            phi = self.factors(method)[t]
            width, prefix = self._prefixes.get((method, t), (0, None))
            if p > width and width < phi.shape[1]:
                # factor the leading power-of-two columns: the searches rarely
                # need a whole factor, and regrowing at most doubles the work
                width = min(1 << (p - 1).bit_length(), phi.shape[1])
                prefix = Spectrum.prefixes(phi[:, :width], self.problem.z)
                self._prefixes[(method, t)] = (width, prefix)
            got = self._spectra[key] = prefix(p)
        return got

    def error(self, method: str, p: int, lam: float) -> float:
        """Mean closed-form expected error of the rank-p approximation."""
        sigma2 = self.problem.sigma2
        count = len(self.factors(method))
        total = sum(self._spectrum(method, t, p).error(sigma2, lam) for t in range(count))
        return total / count

    def full_error(self, lam: float) -> float:
        return problem_spectrum(self.problem).error(self.problem.sigma2, lam)

    def sufficient_rank(self, lam: float, method: str, tol: float = 0.01) -> int:
        """Smallest p with mean error <= (1 + tol) * full error; doubling + bisection.

        Returns n when no smaller rank suffices. A full error that is not
        finite (an overflow at a huge lambda) raises NumericalError, because
        no rank could be compared with it.
        """
        if not tol > 0:
            raise ConfigError(f"tol must be > 0, got {tol!r}")
        n = self.problem.n

        def ok(p: int) -> bool:
            return self.error(method, p, lam) <= target

        target = (1.0 + tol) * self.full_error(lam)
        if not math.isfinite(target):
            raise NumericalError(f"full-matrix error at lambda={lam!r} is not finite")
        p = 1
        while p < n and not ok(p):
            p *= 2
        p = min(p, n)
        if not ok(p):
            return n
        if p == 1:
            return 1
        lo, hi = p // 2, p
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi


@dataclass
class LambdaChoice:
    lambda_star: float
    error_star: float
    saturated: bool
    grid_index: int


def default_lambda_grid(trace_over_n: float, num: int = 40) -> np.ndarray:
    """40 log-spaced points spanning [1e-16, 1] times tr(K)/n."""
    return trace_over_n * np.logspace(-16.0, 0.0, num)


def optimal_lambda(problem: FixedDesignProblem, grid=None) -> LambdaChoice:
    """Grid minimizer of the closed-form error, with one local refinement.

    The spectrum is the problem's (:func:`problem_spectrum`): the FFT of the
    assembled floating-point first row of K, which is the spectrum a
    circulant solver sees. For very fast eigenvalue decays the computed
    eigenvalues keep a machine-precision floor, so the minimizer can hit it;
    that regime is flagged through ``saturated`` (argmin at the smallest grid
    point or lambda* < 1e-15).
    """
    if grid is None:
        grid = default_lambda_grid(problem.mean_diag)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ConfigError("lambda grid must be nonempty and increasing")
    spec = problem_spectrum(problem)
    errs = np.array([spec.error(problem.sigma2, lam) for lam in grid])
    i = int(np.argmin(errs))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    sub = np.geomspace(lo, hi, 12)
    sub_errs = np.array([spec.error(problem.sigma2, lam) for lam in sub])
    j = int(np.argmin(sub_errs))
    lam_star, err_star = float(sub[j]), float(sub_errs[j])
    if errs[i] < err_star:
        lam_star, err_star = float(grid[i]), float(errs[i])
    return LambdaChoice(
        lambda_star=lam_star,
        error_star=err_star,
        saturated=bool(i == 0 or lam_star < 1e-15),
        grid_index=i,
    )


@dataclass
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    inputs: tuple


def fit_rate(pairs) -> RateFit:
    """Least-squares slope of log(value) against log(n)."""
    pts = [(float(a), float(b)) for a, b in pairs]
    if len(pts) < 4:
        raise ConfigError(f"rate fit needs >= 4 pairs, got {len(pts)}")
    if not all(a > 0 and v > 0 for a, v in pts):
        raise ConfigError("rate fit needs positive sizes and values")
    x = np.log([a for a, _ in pts])
    y = np.log([v for _, v in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(
        exponent=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r2,
        inputs=tuple(pts),
    )
