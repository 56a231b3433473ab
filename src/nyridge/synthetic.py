"""Fixed-design problems on the uniform grid, with analytically known spectra.

On the uniform grid x_i = (i-1)/n the periodic kernel with eigenvalue decay
mu_i = i^(-2 beta) yields a circulant Gram matrix, so its exact eigenvalues
follow from folding the kernel's Fourier coefficients over residues mod n:

    eig_r = n * sum_{i >= 1, i = +/- r (mod n)} mu_i,   r = 0..n-1.

The tails are summed exactly through the Hurwitz zeta function, so no
truncation error enters at all. Signals f(x) = sum_i 2 sqrt(nu_i)
cos(2 i pi x) with nu_i = i^(-2 delta) are built the same way on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite

import numpy as np
from scipy.linalg import circulant
from scipy.special import zeta as hurwitz_zeta

from .errors import ConfigError
from .kernels import KernelMatrix, KernelSpec, cross_gram


@dataclass(frozen=True)
class SpectrumSpec:
    """The grid family: eigenvalues mu_i = i^(-2 beta), signal coefficients nu_i = i^(-2 delta).

    This is the one statement of the family's domain: beta must name a
    tabulated periodic kernel (:class:`KernelSpec` checks it) and the signal
    series sum_i 2 sqrt(nu_i) = 2 sum_i i^(-delta) must converge, so delta > 1.
    """

    beta: int
    delta: float

    def __post_init__(self):
        KernelSpec.periodic_poly(self.beta)
        if not 1.0 < self.delta < inf:
            raise ConfigError(f"delta must be finite and > 1 (got {self.delta!r})")

    @classmethod
    def polynomial(cls, beta: int, delta: float) -> "SpectrumSpec":
        return cls(beta, delta)


@dataclass
class FixedDesignProblem:
    """Grid points, the first row of the kernel matrix, noiseless target, noise level.

    The problem keeps the mirrored first row ``row0`` of its circulant
    kernel matrix and assembles the n x n ``K`` only on first access (then
    cached in ``kernel_matrix``), so that spectral computations (FFT of
    ``row0``) never allocate it.
    """

    points: np.ndarray
    z: np.ndarray
    sigma2: float
    spectrum: SpectrumSpec
    row0: np.ndarray
    kernel_matrix: KernelMatrix | None = field(default=None, init=False, repr=False)

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
        """tr(K) / n, read off the first row."""
        return float(self.row0[0])


def check_sigma2(sigma2) -> float:
    """The noise variance as a float; ConfigError unless finite and >= 0."""
    value = float(sigma2)
    if not (isfinite(value) and value >= 0.0):
        raise ConfigError(f"sigma2 must be finite and >= 0 (got {sigma2!r})")
    return value


def _residue_fold(s: float, n: int) -> np.ndarray:
    """a_r = sum_{i>=1, i = r (mod n)} i^(-s) for r = 0..n-1, exactly.

    s = 2 beta folds the eigenvalues mu_i, s = delta the signal amplitudes
    sqrt(nu_i). Each class is its leading term plus a Hurwitz zeta tail,
    r^(-s) + n^(-s) zeta(s, 1 + r/n). That tail factor is at most zeta(s), so
    at a large s the product is n^(-s) underflowing to 0, where
    n^(-s) zeta(s, r/n) would be 0 times an overflowing zeta, a NaN.
    """
    if not s > 1.0:
        raise ConfigError(f"series sum_i i^(-{s:g}) diverges; decay rate too small")
    r = np.arange(n, dtype=float)
    out = np.empty(n)
    out[1:] = r[1:] ** (-s) + n ** (-s) * hurwitz_zeta(s, 1.0 + r[1:] / n)
    out[0] = n ** (-s) * hurwitz_zeta(s, 1.0)
    return out


def eig_circulant(beta: float, n: int) -> np.ndarray:
    """Exact eigenvalues of the grid kernel matrix with mu_i = i^(-2 beta), in frequency order.

    eig_r = n (a_r + a_{(n-r) mod n}) where a is the residue fold of mu;
    wrap-around tails are Hurwitz zeta closed forms.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    a = _residue_fold(2.0 * beta, n)
    return n * (a + a[(-np.arange(n)) % n])


def signal_on_grid(delta: float, n: int) -> np.ndarray:
    """z_j = f((j-1)/n) for f(x) = sum_i 2 i^(-delta) cos(2 i pi x), exactly.

    The series is folded over residues mod n and evaluated with one inverse
    FFT; all wrap-around tails are closed forms.
    """
    amp = 2.0 * _residue_fold(delta, n)
    return n * np.real(np.fft.ifft(amp))


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
    exact eigenvalues are ``eig_circulant(spectrum.beta, n)``.
    """
    if n < 2:
        raise ConfigError("n must be >= 2")
    sigma2 = check_sigma2(sigma2)
    spec = KernelSpec.periodic_poly(spectrum.beta)
    return FixedDesignProblem(
        points=np.arange(n, dtype=float) / n,
        z=signal_on_grid(spectrum.delta, n),
        sigma2=sigma2,
        spectrum=spectrum,
        row0=_circulant_row(spec, n),
    )


def draw_noise(n: int, sigma2: float, trials: int, seed) -> np.ndarray:
    """trials x n matrix of i.i.d. centered Gaussian noise, seeded."""
    sigma2 = check_sigma2(sigma2)
    if sigma2 == 0.0:
        return np.zeros((trials, n))
    return np.sqrt(sigma2) * np.random.default_rng(seed).standard_normal((trials, n))


def sigma2_for_snr(z, snr: float) -> float:
    """Noise variance giving signal power / noise power = snr^2."""
    if not snr > 0:
        raise ConfigError(f"snr must be > 0 (got {snr!r})")
    snr2 = snr * snr  # an underflow to 0 means a sigma2 too large to represent
    return float(np.mean(np.square(z))) / snr2 if snr2 > 0 else inf
