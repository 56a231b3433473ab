"""Fixed-design problem generators with analytically known spectra.

On the uniform grid x_i = (i-1)/n every translation-invariant periodic
kernel yields a circulant Gram matrix, so its exact eigenvalues follow from
folding the kernel's Fourier coefficients over residues mod n:

    eig_r = n * sum_{i >= 1, i = +/- r (mod n)} mu_i,   r = 0..n-1.

Polynomial tails are summed exactly through the Hurwitz zeta function and
exponential tails through geometric closed forms, so no truncation error
enters at all. Signals f(x) = sum_i 2 sqrt(nu_i) cos(2 i pi x) are built the
same way on grids; off-grid evaluation uses closed forms where they exist
and the polylogarithm otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isfinite, pi

import numpy as np
from scipy.linalg import circulant
from scipy.special import zeta as hurwitz_zeta

from . import csvio
from .errors import ConfigError
from .kernels import (
    SUPPORTED_BETAS,
    KernelMatrix,
    KernelSpec,
    _periodic_poly_values,
    cross_gram,
    gram,
)

POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class DecayLaw:
    """Eigenvalue or signal-coefficient decay: i^(-2 rate) or exp(-rate i)."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind == POLYNOMIAL:
            if not 0.5 < self.rate < inf:
                raise ConfigError(
                    f"polynomial decay needs a finite rate > 1/2 (got {self.rate!r})"
                )
        elif self.kind == EXPONENTIAL:
            if not 0 < self.rate < inf:
                raise ConfigError(f"exponential decay needs a finite rate > 0 (got {self.rate!r})")
        else:
            raise ConfigError(f"unknown decay kind {self.kind!r}")

    def values(self, idx) -> np.ndarray:
        """mu_i (or nu_i) at the given 1-based indices."""
        i = np.asarray(idx, dtype=float)
        if self.kind == POLYNOMIAL:
            return i ** (-2.0 * self.rate)
        return np.exp(-self.rate * i)


@dataclass(frozen=True)
class SpectrumSpec:
    """Decay laws for kernel eigenvalues (mu) and signal coefficients (nu)."""

    mu: DecayLaw
    nu: DecayLaw

    @classmethod
    def polynomial(cls, beta: float, delta: float) -> "SpectrumSpec":
        return cls(DecayLaw(POLYNOMIAL, beta), DecayLaw(POLYNOMIAL, delta))


@dataclass
class FixedDesignProblem:
    """Design points, kernel matrix, noiseless target, and noise level.

    Grid problems keep the mirrored first row ``row0`` of their circulant
    kernel matrix and assemble the n x n ``K`` only on first access, so that
    spectral computations (FFT of ``row0``) never allocate it.
    """

    points: np.ndarray
    z: np.ndarray
    sigma2: float
    spectrum: SpectrumSpec | None = None
    row0: np.ndarray | None = None  # first row of K (grid designs)
    kernel_matrix: KernelMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.row0 is None) == (self.kernel_matrix is None):
            raise ConfigError("FixedDesignProblem needs exactly one of row0 and kernel_matrix")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def K(self) -> KernelMatrix:
        if self.kernel_matrix is None:
            self.kernel_matrix = KernelMatrix(circulant(self.row0))
        return self.kernel_matrix

    @property
    def mean_diag(self) -> float:
        """tr(K) / n, read off the first row for grid designs."""
        if self.row0 is not None:
            return float(self.row0[0])
        return self.K.trace() / self.n


def check_sigma2(sigma2) -> float:
    """The noise variance as a float; ConfigError unless finite and >= 0."""
    value = float(sigma2)
    if not (isfinite(value) and value >= 0.0):
        raise ConfigError(f"sigma2 must be finite and >= 0 (got {sigma2!r})")
    return value


def kernel_spec_for(mu: DecayLaw) -> KernelSpec:
    """The closed-form periodic kernel whose Fourier coefficients are 2 mu_i."""
    if mu.kind == POLYNOMIAL:
        beta = mu.rate
        if int(beta) != beta or int(beta) not in SUPPORTED_BETAS:
            raise ConfigError(
                f"grid problems need beta in {SUPPORTED_BETAS} (got {beta!r})"
            )
        return KernelSpec.periodic_poly(int(beta))
    return KernelSpec.periodic_exp(mu.rate)


def _residue_fold(law: DecayLaw, scale: float, n: int) -> np.ndarray:
    """a_r = sum_{i>=1, i = r (mod n)} law_i^scale for r = 0..n-1, exactly.

    ``scale`` = 1 folds mu_i (eigenvalues), 1/2 folds sqrt(nu_i) (signal).
    """
    r = np.arange(n, dtype=float)
    if law.kind == POLYNOMIAL:
        s = 2.0 * law.rate * scale
        if not s > 1.0:
            raise ConfigError(
                f"series sum_i i^(-{s:g}) diverges; decay rate too small"
            )
        out = np.empty(n)
        out[1:] = n ** (-s) * hurwitz_zeta(s, r[1:] / n)
        out[0] = n ** (-s) * hurwitz_zeta(s, 1.0)
        return out
    a = law.rate * scale
    common = 1.0 / (1.0 - np.exp(-a * n))
    out = np.exp(-a * r) * common
    out[0] = np.exp(-a * n) * common
    return out


def eig_circulant(mu: DecayLaw, n: int) -> np.ndarray:
    """Exact eigenvalues of the grid kernel matrix, in frequency order.

    eig_r = n (a_r + a_{(n-r) mod n}) where a is the residue fold of mu;
    wrap-around tails are closed forms (Hurwitz zeta / geometric series).
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    a = _residue_fold(mu, 1.0, n)
    return n * (a + a[(-np.arange(n)) % n])


def signal_on_grid(nu: DecayLaw, n: int) -> np.ndarray:
    """z_j = f((j-1)/n) for f(x) = sum_i 2 sqrt(nu_i) cos(2 i pi x), exactly.

    The series is folded over residues mod n and evaluated with one inverse
    FFT; all wrap-around tails are closed forms.
    """
    amp = 2.0 * _residue_fold(nu, 0.5, n)
    return n * np.real(np.fft.ifft(amp))


def signal_values(nu: DecayLaw, x) -> np.ndarray:
    """f(x) = sum_i 2 sqrt(nu_i) cos(2 i pi x) at arbitrary points.

    Exponential decay and even-integer polynomial decay have closed forms;
    other polynomial rates fall back to the polylogarithm (mpmath).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if nu.kind == EXPONENTIAL:
        # geometric series with ratio exp(-kappa/2 + 2 pi i x)
        h = nu.rate / 2.0
        c = np.cos(2.0 * pi * xs)
        eh = np.exp(h)
        return 2.0 * (eh * c - 1.0) / (eh * eh - 2.0 * eh * c + 1.0)
    s = nu.rate  # exponent of sqrt(nu_i) = i^(-s)
    if not s > 1.0:
        raise ConfigError(f"signal series diverges for delta <= 1 (got {s!r})")
    if s == int(s) and int(s) % 2 == 0:
        return np.asarray(_periodic_poly_values(xs, int(s) // 2), dtype=float)
    import mpmath

    out = np.empty_like(xs)
    for k, xi in enumerate(xs):
        out[k] = 2.0 * float(
            mpmath.re(mpmath.polylog(s, mpmath.exp(2j * mpmath.pi * float(xi))))
        )
    return out


def _circulant_row(spec: KernelSpec, n: int) -> np.ndarray:
    """First row of the grid Gram matrix, which is circulant.

    The row is mirrored around n/2 so that the circulant K is also exactly
    symmetric (k((n-r)/n) equals k(r/n) only up to an ulp otherwise).
    """
    pts = np.arange(n, dtype=float) / n
    row0 = cross_gram(np.zeros(1), pts, spec).reshape(-1)
    r = np.arange(n)
    return row0[np.minimum(r, n - r)]


def grid_problem(n: int, spectrum: SpectrumSpec, sigma2: float) -> FixedDesignProblem:
    """Uniform-grid problem: x_i = (i-1)/n, circulant K.

    K itself is assembled from its first row on first access to ``.K``; its
    exact eigenvalues are ``eig_circulant(spectrum.mu, n)``.
    """
    if n < 2:
        raise ConfigError("n must be >= 2")
    sigma2 = check_sigma2(sigma2)
    spec = kernel_spec_for(spectrum.mu)
    return FixedDesignProblem(
        points=np.arange(n, dtype=float) / n,
        z=signal_on_grid(spectrum.nu, n),
        sigma2=sigma2,
        spectrum=spectrum,
        row0=_circulant_row(spec, n),
    )


def random_design_problem(
    n: int, spectrum: SpectrumSpec, sigma2: float, seed
) -> FixedDesignProblem:
    """Same kernel and signal on i.i.d. uniform points in [0, 1]."""
    if n < 2:
        raise ConfigError("n must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pts = rng.random(n)
    spec = kernel_spec_for(spectrum.mu)
    return FixedDesignProblem(
        points=pts,
        z=signal_values(spectrum.nu, pts),
        sigma2=check_sigma2(sigma2),
        spectrum=spectrum,
        kernel_matrix=gram(pts, spec),
    )


def draw_noise(n: int, sigma2: float, trials: int, seed) -> np.ndarray:
    """trials x n matrix of i.i.d. centered Gaussian noise, seeded."""
    sigma2 = check_sigma2(sigma2)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if sigma2 == 0.0:
        return np.zeros((trials, n))
    return np.sqrt(sigma2) * rng.standard_normal((trials, n))


def sigma2_for_snr(z, snr: float) -> float:
    """Noise variance giving signal power / noise power = snr^2."""
    if not snr > 0:
        raise ConfigError(f"snr must be > 0 (got {snr!r})")
    snr2 = snr * snr  # an underflow to 0 means a sigma2 too large to represent
    return float(np.mean(np.square(z))) / snr2 if snr2 > 0 else inf


def save_problem(problem: FixedDesignProblem, csv_path) -> None:
    """points,z as CSV plus a JSON metadata sidecar ``<csv_path>.meta.json``."""
    csvio.write(csv_path, [], ["point", "z"], zip(problem.points, problem.z))
    meta = {"sigma2": problem.sigma2, "n": problem.n}
    if problem.spectrum is not None:
        meta["mu"] = {"kind": problem.spectrum.mu.kind, "rate": problem.spectrum.mu.rate}
        meta["nu"] = {"kind": problem.spectrum.nu.kind, "rate": problem.spectrum.nu.rate}
    with open(str(csv_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
