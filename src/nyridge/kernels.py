"""Kernel functions and Gram-matrix assembly.

A translation-invariant periodic kernel on [0, 1] with known Fourier
coefficients, for the synthetic experiments, plus a Gaussian kernel for
vector data, each named by a :class:`KernelSpec` and evaluated block-wise
by :func:`cross_gram`:

* periodic-polynomial: k(x, y) = sum_{i>=1} 2 i^(-2 beta) cos(2 i pi (x - y))
  = (-1)^(beta+1) (2 pi)^(2 beta) B_{2 beta}(frac(x - y)) / (2 beta)!,
  in closed form through Bernoulli polynomials.
* gaussian: exp(-||x - y||^2 / (2 bandwidth^2)).

Every function here raises DataError for no points, a non-finite coordinate
or Gaussian points of two dimensions. All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf, pi

import numpy as np

from .errors import ConfigError, NumericalError, finite, generator, scalar

# Output entries per block of rows in ``_sqdist`` (512 KB of doubles).
SQDIST_BLOCK = 1 << 16

# Points that ``median_distance_bandwidth`` draws from larger data.
BANDWIDTH_SUBSAMPLE = 500

# Degrees 2*beta with tabulated Bernoulli polynomial coefficients.
SUPPORTED_BETAS = (1, 2, 3, 4, 8)
BERNOULLI_DEGREES = tuple(2 * b for b in SUPPORTED_BETAS)


def _bernoulli_numbers(n_max: int) -> list[Fraction]:
    """First Bernoulli numbers B_0..B_n_max (B_1 = -1/2) as exact fractions."""
    bern = [Fraction(0)] * (n_max + 1)
    bern[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = sum(Fraction(comb(n + 1, k)) * bern[k] for k in range(n))
        bern[n] = -acc / (n + 1)
    return bern


def _bernoulli_poly_coeffs(degree: int) -> np.ndarray:
    """Coefficients of B_degree(x), highest power first (np.polyval order)."""
    bern = _bernoulli_numbers(degree)
    coeffs = [Fraction(comb(degree, k)) * bern[degree - k] for k in range(degree + 1)]
    return np.array([float(c) for c in reversed(coeffs)])


# Generated once at import from the recurrence; exact rational arithmetic.
BERNOULLI_POLY_COEFFS: dict[int, np.ndarray] = {
    deg: _bernoulli_poly_coeffs(deg) for deg in BERNOULLI_DEGREES
}


def _folded(delta):
    """The fractional part u of -|delta|, mapped to [0, 0.5] as min(u, 1 - u).

    The kernel is even in delta and B_2m(u) = B_2m(1 - u), so this argument
    gives the same value as delta itself. Taking -|delta| makes it
    bit-identical for +delta and -delta, and so the kernel exactly symmetric
    in floating point: frac(delta) and frac(-delta) = 1 - frac(delta) can
    differ by a rounding (delta = 0.3 does). The grid's first row,
    k(0, x_j), has delta <= 0 already.
    """
    u = -np.abs(delta)
    u = u - np.floor(u)
    return 0.5 - np.abs(u - 0.5)


def _periodic_poly_values(delta, beta: int):
    """Vectorized closed form of the polynomial-decay periodic kernel, beta in SUPPORTED_BETAS."""
    m = 2 * beta
    u = _folded(delta)
    scale = (-1.0) ** (beta + 1) * (2.0 * pi) ** m / factorial(m)
    return scale * np.polyval(BERNOULLI_POLY_COEFFS[m], u)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its single parameter.

    ``kind`` is ``"periodic-polynomial"`` (param = beta, one of
    ``SUPPORTED_BETAS``) or ``"gaussian"`` (param = bandwidth, finite and > 0).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "periodic-polynomial":
            if scalar(self.param, "beta", int) not in SUPPORTED_BETAS:
                raise ConfigError(f"beta must be an integer in {SUPPORTED_BETAS} (got {self.param!r})")
        elif self.kind == "gaussian":
            scalar(self.param, "bandwidth", float, "> 0")
        else:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def periodic_poly(cls, beta: int) -> "KernelSpec":
        return cls("periodic-polynomial", beta)

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian", bandwidth)


def _as_points(points, kind: str, dim=None) -> np.ndarray:
    """Finite points: a vector (periodic kernel) or a row of ``dim`` coordinates per point (Gaussian)."""
    pts = np.asarray(points, dtype=float)
    if kind == "periodic-polynomial":
        return finite(pts.reshape(-1), "points", shape=(None,))
    return finite(pts.reshape(-1, 1) if pts.ndim == 1 else pts, "points", shape=(None, dim))


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b.

    Summed feature by feature from coordinate differences, in the order a
    direct loop over the features takes, so the result is exactly 0 for equal
    points and equals ``cdist(a, b, "sqeuclidean")`` bit for bit. The
    expansion |a|^2 + |b|^2 - 2 a.b would cancel, and break k(x, x) = 1.
    Rows of a are taken ``SQDIST_BLOCK`` output entries at a time, so that
    the per-feature passes stay in cache.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    rows = max(1, SQDIST_BLOCK // max(b.shape[0], 1))
    diff = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for i in range(0, a.shape[0], rows):
        block = out[i : i + rows]
        d = diff[: block.shape[0]]
        for ak, bk in zip(a[i : i + rows].T, b.T):
            np.subtract(ak[:, None], bk, out=d)
            np.square(d, out=d)
            block += d
    return out


def cross_gram(points_a, points_b, spec: KernelSpec) -> np.ndarray:
    """Rectangular kernel matrix k(a_i, b_j)."""
    pa = _as_points(points_a, spec.kind)
    return _kernel_block(pa, _as_points(points_b, spec.kind, pa.shape[-1]), spec)


def _kernel_block(pa: np.ndarray, pb: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """:func:`cross_gram` of points that ``_as_points`` has already shaped and checked."""
    if spec.kind == "periodic-polynomial":
        return _periodic_poly_values(pa[:, None] - pb[None, :], int(spec.param))
    # 2 bw^2 overflows for any bw > 1e154; a float ** that overflows raises
    scale = inf if spec.param > 1e154 else 2.0 * spec.param ** 2
    if not 0.0 < scale < inf:
        raise NumericalError(f"bandwidth {spec.param!r} is out of range: 2 bandwidth^2 = {scale!r}")
    # exp(-sq / scale), each step in sq's own buffer
    sq = _sqdist(pa, pb)
    np.negative(sq, out=sq)
    with np.errstate(over="ignore"):  # sq / scale -> -inf gives exp(-inf) = 0, the exact limit
        np.divide(sq, scale, out=sq)
    return np.exp(sq, out=sq)


def gram(points, spec: KernelSpec) -> np.ndarray:
    """Assemble the n x n Gram matrix K_ij = k(x_i, x_j).

    The output is symmetric by construction: the periodic kernel is evaluated
    through an argument folded onto [0, 0.5] (identical floats for +/- the
    same difference), and the Gaussian through symmetric squared distances,
    which are exactly 0 on the diagonal, so that k(x, x) = exp(-0) = 1.
    """
    pts = _as_points(points, spec.kind)
    return _kernel_block(pts, pts, spec)


def median_distance_bandwidth(features, seed: int = 0) -> float:
    """Median pairwise distance on ``BANDWIDTH_SUBSAMPLE`` points; standard Gaussian bandwidth heuristic."""
    X = _as_points(features, "gaussian")
    n = X.shape[0]
    if n > BANDWIDTH_SUBSAMPLE:
        idx = generator(seed).choice(n, size=BANDWIDTH_SUBSAMPLE, replace=False)
        X = X[np.sort(idx)]
    d = np.sqrt(_sqdist(X, X))
    off = d[np.triu_indices_from(d, k=1)]
    m = off.size
    if m == 0:
        return 1.0
    # the median as np.median takes it, without np.median's import of numpy.ma
    part = np.partition(off, ((m - 1) // 2, m // 2))
    med = float((part[(m - 1) // 2] + part[m // 2]) / 2)
    return med if med > 0 else 1.0
