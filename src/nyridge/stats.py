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
forms, and :meth:`Spectrum.terms` their one formula: it scores a whole
lambda array in (lambda x eigenvalue) tiles of at most ``SCORE_BLOCK``
elements.
A spectrum is built by one real FFT of the first row (the circulant K of a
grid problem: the half spectrum r = 0..n/2, each eigenvalue weighted by
its multiplicity), by a dense eigendecomposition (any K: the reference
behind :func:`dof` and :func:`bias_variance`), by one thin QR of a factor
Phi for the low-rank smoothers L = Phi_p Phi_p^T of every prefix
Phi[:, :p] at once, or by a thin SVD of Phi (the reference the QR path is
tested against). Each constructor takes the signal (the FFT one its
Fourier coefficients) and computes its energies on the eigenspaces once;
a constructor given none scores the zero signal z = 0, whose bias is 0.
The error and d.o.f. functions here are thin wrappers over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ConfigError, DataError, NumericalError, VacuousBoundError, array, finite, floats, generator, scalar
)
from .lowrank import nested_factor, subset_size


def n_lambdas(lams, n: int) -> np.ndarray:
    """n lambda for every lambda of ``lams``, flattened: the one lambda rule.

    DataError naming the first lambda not finite and > 0; NumericalError unless n max(lambda) is finite.
    """
    lams = floats(lams, "lambda").reshape(-1)
    if not (lams.size and lams.min() > 0 and n * float(lams.max()) < math.inf):
        finite(lams, "lambda", shape=(None,), bound="> 0")
        raise NumericalError(f"n lambda at lambda={float(lams.max())!r} is not finite")
    return n * lams


def _energies(uz: np.ndarray, zz: float, n: int) -> tuple[np.ndarray, float]:
    """(coef2, resid2) of coefficients uz on orthonormal vectors of R^n, for zz = ||z||^2."""
    resid2 = max(float(zz - uz @ uz), 0.0) if uz.size < n else 0.0
    return uz * uz, resid2


# elements of one (lambda x eigenvalue) tile that Spectrum.terms scores at
# once: a spectrum longer than this is cut into blocks of this many
# eigenvalues, scored one lambda at a time
SCORE_BLOCK = 1 << 15


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a PSD smoother matrix and the signal's energy on them.

    ``eigs`` are clipped to >= 0. ``weight[i]`` is the multiplicity of
    ``eigs[i]`` (None means 1 each): a circulant K keeps only its half
    spectrum r = 0..n/2, whose eigenvalues r and n - r coincide. ``coef2[i]``
    is the energy of z on the eigenspace of ``eigs[i]`` and ``resid2`` the
    energy of z outside the eigenbasis: 0 for a full K, ||z_perp||^2 for a
    low-rank factor. Every constructor takes the signal and computes these
    energies once; a missing signal is z = 0 (zero ``coef2``, ``resid2`` 0).
    The leverage behind d_max is known in one of two ways: a circulant K
    (``weight`` set) has the Fourier basis, whose leverage is constant, so
    that d_max = d_trace; a dense or thin-SVD spectrum keeps its orthonormal
    eigenvectors as the columns of ``basis``, whose squared rows weight it.
    A prefix spectrum keeps neither.
    """

    eigs: np.ndarray
    n: int
    coef2: np.ndarray
    resid2: float = 0.0
    basis: np.ndarray | None = None
    weight: np.ndarray | None = None

    @classmethod
    def dense(cls, K, z=None) -> "Spectrum":
        """Symmetric eigendecomposition of a general PSD K, with the signal z (None: z = 0).

        DataError unless K is finite and square and z finite with an entry per row.
        """
        s, u = np.linalg.eigh(finite(K, "kernel matrix", shape="square"))
        coef2 = np.zeros(s.size) if z is None else np.square(u.T @ finite(z, "signal", shape=(s.size,)))
        return cls(np.clip(s, 0.0, None), s.size, coef2, basis=u)

    @classmethod
    def circulant(cls, row0, zhat=None) -> "Spectrum":
        """Half spectrum of a circulant K: the real FFT of its (mirrored, hence symmetric) first row.

        Eigenvalue r = 0..n/2 has multiplicity 2, except r = 0 and, for an
        even n, the Nyquist term r = n/2. ``zhat[r]`` = sum_j z_j
        exp(-2 pi i r j / n) for r = 0..n/2, as ``np.fft.rfft(z)`` gives
        them (None: z = 0); the energy on eigenvalue r is weight_r |zhat_r|^2 / n,
        so that the energies sum to ||z||^2. DataError unless ``row0`` is a
        finite vector and ``zhat`` has n // 2 + 1 finite entries.
        """
        row0 = finite(row0, "first row", shape=(None,))
        n = row0.size
        eigs = np.clip(np.fft.rfft(row0).real, 0.0, None)  # the complex transform is freed here
        weight = np.full(eigs.size, 2.0)
        weight[0] = 1.0
        if n % 2 == 0:
            weight[-1] = 1.0
        if zhat is None:
            return cls(eigs, n, np.zeros(eigs.size), weight=weight)
        zhat = array(zhat, "zhat")  # checked through views of its real and imaginary parts, not a copy
        for part in (zhat.real, zhat.imag) if np.iscomplexobj(zhat) else (zhat,):
            finite(part, "zhat", shape=eigs.shape)
        return cls(eigs, n, weight * ((np.real(zhat) ** 2 + np.imag(zhat) ** 2) / n), weight=weight)

    @classmethod
    def lowrank(cls, phi, z) -> "Spectrum":
        """Thin SVD of Phi: the nonzero spectrum of L = Phi Phi^T in O(n p^2).

        DataError unless Phi and z are finite and z has an entry per row of Phi.
        """
        phi = finite(phi, "factor", shape=(None, None))
        z = finite(z, "signal", shape=(phi.shape[0],))
        u, s, _ = np.linalg.svd(phi, full_matrices=False)
        return cls(s * s, phi.shape[0], *_energies(u.T @ z, z @ z, phi.shape[0]), basis=u)

    @classmethod
    def prefixes(cls, phi, z) -> Callable[[int], "Spectrum"]:
        """Spectra of every prefix factor Phi[:, :p] from one thin QR of Phi.

        With Phi = QR, Phi[:, :p] = Q_p R_p for R_p = R[:p, :p], so the
        rank-p smoother has the eigenvalues of R_p R_p^T = W S W^T (p x p),
        the coefficients W^T (Q^T z)[:p] and the residual energy
        ||z||^2 - ||W^T (Q^T z)[:p]||^2, with Q^T z and ||z||^2 formed once.
        A prefix spectrum keeps no eigenvectors, so its ``dof`` raises.
        Returns p -> spectrum for an int p >= 0 that the caller has checked,
        capped at the columns of Phi as slicing Phi[:, :p] would. DataError
        unless Phi and z are finite and z has an entry per row of Phi.
        """
        phi = finite(phi, "factor", shape=(None, None))
        z = finite(z, "signal", shape=(phi.shape[0],))
        q, r = np.linalg.qr(phi)
        qz, zz, n = q.T @ z, float(z @ z), q.shape[0]

        def prefix(p: int) -> Spectrum:
            rp = r[:p, :p]
            s, w = np.linalg.eigh(rp @ rp.T)
            return cls(np.clip(s, 0.0, None), n, *_energies(w.T @ qz[:p], zz, n))

        return prefix

    def terms(self, lams) -> np.ndarray:
        """Rows (bias, d_trace, d_ave) at every lambda of ``lams``: a (3, len(lams)) array.

        With d_i = eig_i + n lambda, s_i = n lambda / d_i and r_i = eig_i / d_i:
        bias = (sum_i coef2_i s_i^2 + resid2) / n (0 for the zero signal),
        d_trace = sum_i w_i r_i and d_ave = sum_i w_i r_i^2 for the
        multiplicities w; the variance is sigma2 d_ave / n. The work runs in
        (lambda x eigenvalue) tiles of at most ``SCORE_BLOCK`` elements that
        share d_i between the three sums. The eigenvalue blocks are the same
        for every lambda, so each lambda's sums run in the same order however
        the lambdas are grouped: scoring an array equals scoring one lambda at
        a time bit for bit. The lambdas are checked by :func:`n_lambdas`.
        """
        nls = n_lambdas(lams, self.n)
        eigs, weight, coef2 = self.eigs, self.weight, self.coef2
        cols = max(1, min(eigs.size, SCORE_BLOCK))
        step = max(1, SCORE_BLOCK // cols)
        out = np.zeros((3, nls.size))
        for i in range(0, nls.size, step):
            nl = nls[i : i + step, None]
            for j in range(0, eigs.size, cols):
                e = eigs[j : j + cols]
                d = e + nl
                r, s = e / d, nl / d
                out[0, i : i + step] += (coef2[j : j + cols] * (s * s)).sum(axis=1)
                wr = r if weight is None else weight[j : j + cols] * r
                out[1, i : i + step] += wr.sum(axis=1)
                out[2, i : i + step] += (wr * r).sum(axis=1)
        out[0] = (out[0] + self.resid2) / self.n
        return out

    def errors(self, sigma2: float, lams) -> np.ndarray:
        """Expected in-sample error bias + variance at every lambda of ``lams``."""
        bias, _, d_ave = self.terms(lams)
        return bias + sigma2 / self.n * d_ave

    def bias_variance(self, sigma2: float, lam: float) -> tuple[float, float]:
        """(bias, variance) at one lambda: (sum_i coef2_i s_i^2 + resid2) / n and sigma2 d_ave / n."""
        bias, _, d_ave = self.terms([scalar(lam, "lambda")])[:, 0].tolist()
        return bias, sigma2 / self.n * d_ave

    def error(self, sigma2: float, lam: float) -> float:
        """Expected in-sample error bias + variance."""
        return sum(self.bias_variance(sigma2, lam))

    def dof(self, lam: float) -> tuple[float, float, float]:
        """(d_max, d_trace, d_ave); d_max = d_trace for a circulant K, ConfigError without eigenvectors."""
        _, d_trace, d_ave = self.terms([scalar(lam, "lambda")])[:, 0].tolist()
        if self.weight is not None:
            return d_trace, d_trace, d_ave
        if self.basis is None:
            raise ConfigError("d_max needs the leverage, which a spectrum without eigenvectors lacks")
        r = self.eigs / (self.eigs + self.n * lam)
        return float(self.n * np.max(np.einsum("ji,i,ji->j", self.basis, r, self.basis))), d_trace, d_ave


@dataclass
class FixedDesignProblem:
    """The first row of a circulant kernel matrix, the noiseless target and the noise level.

    The n x n ``K`` and the spectrum (one real FFT of ``row0`` and one of ``z``, without K) are
    built on first access and cached; reassigning ``row0`` drops both, reassigning ``z`` the spectrum.
    """

    row0: np.ndarray
    z: np.ndarray
    sigma2: float

    def __setattr__(self, name, value):
        for cached in {"row0": ("K", "spectrum"), "z": ("spectrum",)}.get(name, ()):
            self.__dict__.pop(cached, None)
        super().__setattr__(name, value)

    @property
    def n(self) -> int:
        return self.row0.shape[0]

    @cached_property
    def K(self) -> np.ndarray:
        r = np.arange(self.n)
        return self.row0[(r[None, :] - r[:, None]) % self.n]

    @cached_property
    def spectrum(self) -> Spectrum:
        """Half spectrum of K with the coefficients of z, one real FFT of each; DataError unless finite."""
        z = finite(self.z, "signal", shape=np.shape(self.row0))
        return Spectrum.circulant(self.row0, np.fft.rfft(z))

    @property
    def mean_diag(self) -> float:
        """tr(K) / n, read off the first row."""
        return float(self.row0[0])

    def full_error(self, lam: float) -> float:
        """The exact smoother's expected error, that ratios divide by; NumericalError unless finite, > 0."""
        err = self.spectrum.error(self.sigma2, lam)
        if not 0.0 < err < math.inf:
            raise NumericalError(f"full-matrix error at lambda={lam!r} is {err!r}; no ratio to it")
        return err


def problem_spectrum(problem: FixedDesignProblem) -> Spectrum:
    """The problem's cached spectrum, :attr:`FixedDesignProblem.spectrum`."""
    return problem.spectrum


def dof(K, lam: float) -> tuple[float, float, float]:
    """(d_max, d_trace, d_ave) from one symmetric eigendecomposition."""
    return Spectrum.dense(K).dof(lam)


def bias_variance(K, z, sigma2: float, lam: float) -> tuple[float, float]:
    """Closed-form expected in-sample error terms for the exact smoother."""
    sigma2 = scalar(sigma2, "sigma2", float, ">= 0")
    return Spectrum.dense(K, z).bias_variance(sigma2, lam)


def lowrank_bias_variance(phi, z, sigma2: float, lam: float) -> tuple[float, float]:
    """Bias/variance of the smoother built on L = Phi Phi^T, via one thin QR of Phi.

    O(n p^2) instead of a dense n x n eigendecomposition: directions
    orthogonal to the column space carry eigenvalue zero, so their bias
    contribution is ||z_perp||^2 / n.
    """
    prefix = Spectrum.prefixes(phi, z)  # checks phi and z
    return prefix(np.shape(phi)[1]).bias_variance(scalar(sigma2, "sigma2", float, ">= 0"), lam)


def theorem_rank_bound(d_max: float, delta: float, n: int, r2: float, lam: float) -> int:
    """Sufficient rank ceil((32 d / delta + 2) log(n R^2 / (delta lambda))).

    Raises :class:`VacuousBoundError` when n R^2 <= delta lambda, where the
    logarithm is non-positive and the bound carries no information.
    """
    d_max, delta = scalar(d_max, "d_max", float, ">= 0"), scalar(delta, "delta", float, "in (0, 1)")
    n, r2 = scalar(n, "n", int, ">= 1"), scalar(r2, "r2", float, ">= 0")
    lam = scalar(lam, "lambda", float, "> 0")
    arg = n * r2 / (delta * lam)
    if arg <= 1.0:
        raise VacuousBoundError(
            f"rank bound vacuous: n R^2 / (delta lambda) = {arg:.3e} <= 1"
        )
    bound = (32.0 * d_max / delta + 2.0) * math.log(arg)
    if not math.isfinite(bound):
        raise NumericalError(f"rank bound at lambda={lam!r} is not finite")
    return int(math.ceil(bound))


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

    Both errors are closed forms (no noise sampling needed in fixed design); randomness enters
    only through the column subsets, trial t's as ``sample_columns(n, p, generator(seed, t))``
    draws it. Also reports the fraction of draws whose ratio exceeds the high-probability
    threshold (1 - delta/2)^(-2), next to its bound n exp(-p / (32 d / delta + 2)).
    """
    delta = scalar(delta, "delta", float, "in (0, 1)")
    n = problem.spectrum.n  # checks row0 and z first
    p, trials = subset_size(n, p), scalar(trials, "trials", int, ">= 1")
    err_full = problem.full_error(lam)
    ratios = np.empty(trials)
    for t in range(trials):
        phi = nested_factor(problem.K, generator(seed, t).choice(n, size=p, replace=False))
        bl, vl = lowrank_bias_variance(phi, problem.z, problem.sigma2, lam)
        ratios[t] = (bl + vl) / err_full
    d_max, _, _ = problem.spectrum.dof(lam)
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
        ratios=ratios,
    )


def lemma_deviations(psis, p: int, trials: int, seed) -> np.ndarray:
    """lambda_max[Psi^T Psi / n - Psi_I^T Psi_I / p] per matrix and trial.

    Trial t draws its p row indices I from ``generator(seed, t)``. The draw
    depends only on (seed, t, n, p), so one draw serves every matrix in
    ``psis`` (at least one, finite, all with n rows, else DataError). Returns a (len(psis), trials) array.
    """
    if not len(psis):
        raise DataError("lemma deviations need at least one matrix")
    n = finite(psis[0], "matrix 0", shape=(None, None)).shape[0]
    psis = [finite(psi, f"matrix {f}", shape=(n, None)) for f, psi in enumerate(psis)]
    p, trials = subset_size(n, p), scalar(trials, "trials", int, ">= 1")
    grams = [psi.T @ psi / n for psi in psis]
    devs = np.empty((len(psis), trials))
    for t in range(trials):
        idx = generator(seed, t).choice(n, size=p, replace=False)
        for f, (psi, A) in enumerate(zip(psis, grams)):
            sub = psi[idx]
            devs[f, t] = np.linalg.eigvalsh(A - sub.T @ sub / p)[-1]
    return devs


def lemma_tail(psi, p: int, t_grid, devs) -> list[tuple[float, float, float]]:
    """Rows (t, empirical_prob, bound) of the deviations ``devs`` of psi's subsets.

    empirical_prob is the fraction of ``devs`` above t; the bound is r exp(-p t^2 / 2 /
    (lambda_max(Psi^T Psi / n) (R^2 + t/3))) clipped to 1, R^2 the largest squared row norm.
    DataError unless psi, t_grid and devs are finite (a matrix, two vectors); ConfigError unless 1 <= p <= n.
    """
    psi = finite(psi, "matrix", shape=(None, None))
    n, r = psi.shape
    p = subset_size(n, p)
    t_grid = finite(t_grid, "t grid", shape=(None,))
    devs = finite(devs, "deviations", shape=(None,))
    lam_max = float(np.linalg.eigvalsh(psi.T @ psi / n)[-1])
    r2 = float(np.max(np.sum(psi * psi, axis=1)))
    rows = []
    for tval in t_grid:
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
    sufficient-rank queries across a lambda grid cheap; a prefix spectrum
    holds O(p) numbers. Every rank is compared with the problem's own full
    error (:meth:`FixedDesignProblem.full_error`).
    """

    def __init__(self, problem: FixedDesignProblem, trials: int = 10, seed=0):
        trials = scalar(trials, "trials", int, ">= 1")
        problem.spectrum  # noqa: B018  checks row0 and z before K is built
        self.problem = problem
        self.trials = trials
        self.seed = seed
        self._factors: dict[str, list[np.ndarray]] = {}
        self._prefixes: dict = {}
        self._spectra: dict = {}

    def factors(self, method: str) -> list[np.ndarray]:
        if method not in ("random", "pivoted"):
            raise ConfigError(f"unknown method {method!r}")
        if method not in self._factors:
            if method == "random":
                orders = (generator(self.seed, t).permutation(self.problem.n) for t in range(self.trials))
            else:
                orders = [None]
            self._factors[method] = [nested_factor(self.problem.K, order) for order in orders]
        return self._factors[method]

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

    def sufficient_rank(self, lam: float, method: str, tol: float = 0.01) -> int:
        """Smallest p with mean error <= (1 + tol) * full error; doubling + bisection.

        Returns n when no smaller rank suffices. NumericalError unless the full error
        (:meth:`FixedDesignProblem.full_error`) is finite and > 0: no rank compares with it.
        """
        tol = scalar(tol, "tol", float, "> 0")
        n = self.problem.n
        target = (1.0 + tol) * self.problem.full_error(lam)

        def ok(p: int) -> bool:
            return self.error(method, p, lam) <= target

        p = 1
        while p < n and not ok(p):
            p *= 2
        p = min(p, n)
        if not ok(p):
            return n
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


def default_lambda_grid(trace_over_n: float) -> np.ndarray:
    """40 log-spaced points spanning [1e-16, 1] times tr(K)/n."""
    return trace_over_n * np.logspace(-16.0, 0.0, 40)


def optimal_lambda(spec: Spectrum, sigma2: float, grid) -> LambdaChoice:
    """Grid minimizer of the closed-form error of ``spec``, with one local refinement.

    The caller builds the spectrum once and passes it here and to
    :meth:`Spectrum.dof`. A grid problem's spectrum is the real FFT of the
    assembled floating-point first row of K, which is the spectrum a
    circulant solver sees, and its grid is ``default_lambda_grid(row0[0])``.
    For very fast eigenvalue decays the computed eigenvalues keep a
    machine-precision floor, so the minimizer can hit it; that regime is
    flagged through ``saturated`` (argmin at the smallest grid point or
    lambda* < 1e-15). The grid and the 12-point refinement are each scored
    as one lambda array (:meth:`Spectrum.errors`). ConfigError unless
    sigma2 is finite and >= 0.
    """
    sigma2 = scalar(sigma2, "sigma2", float, ">= 0")
    grid = finite(grid, "lambda grid", shape=(None,))
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("lambda grid must be increasing")
    errs = spec.errors(sigma2, grid)
    i = int(np.argmin(errs))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    sub = np.geomspace(lo, hi, 12)
    sub_errs = spec.errors(sigma2, sub)
    j = int(np.argmin(sub_errs))
    lam_star, err_star = float(sub[j]), float(sub_errs[j])
    if errs[i] < err_star:
        lam_star, err_star = float(grid[i]), float(errs[i])
    return LambdaChoice(
        lambda_star=lam_star,
        error_star=err_star,
        saturated=bool(i == 0 or lam_star < 1e-15),
    )


@dataclass
class RateFit:
    exponent: float
    intercept: float
    r_squared: float


def fit_rate(pairs) -> RateFit:
    """Least-squares slope of log(value) against log(n); ConfigError unless n takes 2 distinct values."""
    pts = finite(pairs, "rate fit pairs", shape=(None, 2), bound="> 0")
    if len(pts) < 4:
        raise ConfigError(f"rate fit needs >= 4 pairs, got {len(pts)}")
    if np.all(pts[:, 0] == pts[0, 0]):
        raise ConfigError(f"rate fit needs at least 2 distinct sizes, got only n = {float(pts[0, 0])!r}")
    x, y = np.log(pts).T
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(exponent=float(coef[0]), intercept=float(coef[1]), r_squared=r2)
