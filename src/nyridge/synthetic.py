"""Fixed-design problems on the uniform grid, with analytically known spectra.

On the uniform grid x_i = (i-1)/n the periodic kernel with eigenvalue decay
mu_i = i^(-2 beta) yields a circulant Gram matrix, so its exact eigenvalues
follow from folding the kernel's Fourier coefficients over residues mod n:

    eig_r = n * sum_{i >= 1, i = +/- r (mod n)} mu_i,   r = 0..n-1.

The tails are summed exactly through the Hurwitz zeta function, so no
truncation error enters at all; :func:`hurwitz_zeta` evaluates it by
Euler-Maclaurin summation (Johansson, arXiv:1309.2877), in the same steps
as the Cephes library. Signals f(x) = sum_i 2 sqrt(nu_i)
cos(2 i pi x) with nu_i = i^(-2 delta) are built the same way on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import ConfigError, generator, scalar
from .kernels import KernelSpec, cross_gram
from .stats import FixedDesignProblem


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
        scalar(self.delta, "delta", float, "> 1")


# Cephes' Euler-Maclaurin constants (2k)! / B_2k, k = 1..12, its stop
# threshold, and the elements ``hurwitz_zeta`` takes at a time.
EULER_MACLAURIN = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
MACHEP = 2.0**-53
ZETA_BLOCK = 4096


def _zeta_block(s: float, q: np.ndarray) -> np.ndarray:
    """:func:`hurwitz_zeta` on one block of arguments, each row one step of every sum."""
    m = q.size
    a = np.empty((10, m))  # q, q + 1, ..., q + 9, adding 1 at a time
    a[0] = q
    for i in range(1, 10):
        np.add(a[i - 1], 1.0, out=a[i])
    terms = np.float_power(a, -s)
    sums = np.empty((9, m))
    np.add(terms[0], terms[1], out=sums[0])
    for i in range(1, 9):
        np.add(sums[i - 1], terms[i + 1], out=sums[i])
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where every term underflowed
        small = terms[1:] / sums < MACHEP
    # A term below MACHEP relative to its sum ends the sum. The ratio falls
    # along each column, so a column whose last ratio is not small has none.
    out = sums[-1].copy()
    live = ~small[-1]
    if not live.all():
        first = np.take_along_axis(sums, np.argmax(small, axis=0)[None], axis=0)[0]
        out[~live] = first[~live]
    tail = np.flatnonzero(live & (terms[9] > 0.0))  # an underflowed b makes every correction 0
    if tail.size == 0:
        return out
    b, w = terms[9, tail], a[9, tail]
    total = out[tail] + b * w / (s - 1.0) - 0.5 * b
    live = np.ones(tail.size, dtype=bool)
    t, ratio = np.empty(tail.size), np.empty(tail.size)
    factor, k = 1.0, 0.0
    for coeff in EULER_MACLAURIN:
        factor *= s + k
        np.divide(b, w, out=b)
        np.multiply(factor, b, out=t)
        np.divide(t, coeff, out=t)
        np.add(total, t, out=total, where=live)
        np.divide(t, total, out=ratio)
        live &= np.abs(ratio, out=ratio) >= MACHEP
        if not live.any():
            break
        k += 1.0
        factor *= s + k
        np.divide(b, w, out=b)
        k += 1.0
    out[tail] = total
    return out


def hurwitz_zeta(s: float, q: np.ndarray) -> np.ndarray:
    """zeta(s, q) = sum_{k>=0} (k + q)^(-s) for real s > 1 and a 1-d array of q >= 1.

    Euler-Maclaurin summation in Cephes' steps: 9 direct terms, the integral
    of the tail, then up to 12 Bernoulli corrections; each element stops at
    its first term below MACHEP relative to its sum. The sums run in
    Cephes' order, ``ZETA_BLOCK`` elements at a time, and ``float_power``
    calls the C library's pow, so the result matches Cephes bit for bit.
    An element whose power term has underflowed to 0 takes no corrections:
    they are 0, but at a huge s their rising factorial overflows, and Cephes
    returns 0 * inf = NaN there.
    """
    q = np.asarray(q, dtype=float)
    return np.concatenate(
        [_zeta_block(s, q[i : i + ZETA_BLOCK]) for i in range(0, q.size, ZETA_BLOCK)]
    )


def residue_tails(s: float, n: int) -> np.ndarray:
    """zeta(s, 1 + r/n) for r = 0..n-1: the Hurwitz zeta tails of the residue classes mod n.

    A divisor of n reads its own tails off these (:func:`_residue_fold`).
    """
    if not s > 1.0:
        raise ConfigError(f"series sum_i i^(-{s:g}) diverges; decay rate too small")
    return hurwitz_zeta(s, 1.0 + np.arange(n, dtype=float) / n)


def _residue_fold(s: float, n: int, tails: np.ndarray | None = None) -> np.ndarray:
    """a_r = sum_{i>=1, i = r (mod n)} i^(-s) for r = 0..n-1, exactly.

    s = 2 beta folds the eigenvalues mu_i, s = delta the signal amplitudes
    sqrt(nu_i). Each class is its leading term plus a Hurwitz zeta tail,
    r^(-s) + n^(-s) zeta(s, 1 + r/n). That tail factor is at most zeta(s), so
    at a large s the product is n^(-s) underflowing to 0, where
    n^(-s) zeta(s, r/n) would be 0 times an overflowing zeta, a NaN.

    ``tails`` is ``residue_tails(s, N)`` of a multiple N = n m of n (by
    default N = n), read at every m-th entry. That slice is this size's
    own tails, bit for bit: r / n and (r m) / N are both the correctly
    rounded quotient of the same rational, exactly as long as r m < 2^53,
    so 1 + r/n is the same float at both sizes, and zeta acts elementwise.
    """
    if tails is None:
        tails = residue_tails(s, n)
    r = np.arange(n, dtype=float)
    out = n ** (-s) * tails[:: tails.size // n]
    out[1:] += r[1:] ** (-s)
    return out


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """The length-n array x_r = half[min(r, n - r)] from its entries r = 0..n/2, by slices."""
    return np.concatenate((half, half[(n + 1) // 2 - 1 : 0 : -1]))


def eig_circulant(beta: float, n: int) -> np.ndarray:
    """Exact eigenvalues of the grid kernel matrix with mu_i = i^(-2 beta), in frequency order.

    eig_r = n (a_r + a_{(n-r) mod n}) for the residue fold a of mu: the mirror
    of ``signal_fourier(2 beta, n)``. Wrap-around tails are zeta closed forms.
    """
    n = scalar(n, "n", int, ">= 1")
    return _mirror(signal_fourier(2.0 * beta, n), n)


def signal_on_grid(delta: float, n: int) -> np.ndarray:
    """z_j = f((j-1)/n) for f(x) = sum_i 2 i^(-delta) cos(2 i pi x), exactly.

    The series is folded over residues mod n and evaluated with one inverse
    FFT; all wrap-around tails are closed forms.
    """
    amp = 2.0 * _residue_fold(delta, n)
    return n * np.real(np.fft.ifft(amp))


def signal_fourier(delta: float, n: int, tails: np.ndarray | None = None) -> np.ndarray:
    """Fourier coefficients zhat_r of ``signal_on_grid(delta, n)`` for r = 0..n/2, without forming z.

    z is n Re(ifft(2 a)) for the real residue fold a, so its coefficients are
    real: zhat_r = n (a_r + a_{(n-r) mod n}), at delta = 2 beta the eigenvalues
    that :func:`eig_circulant` mirrors. ``tails`` may be
    ``residue_tails(delta, N)`` of a multiple N of n (:func:`_residue_fold`).
    """
    a = _residue_fold(delta, n, tails)
    out = a[: n // 2 + 1].copy()  # r pairs with n - r: 0 with itself, 1..n/2 through a reversed slice
    out[0] += a[0]
    out[1:] += a[: (n - 1) // 2 : -1]
    return np.multiply(out, n, out=out)


def grid_row(beta: int, n: int) -> np.ndarray:
    """First row of the grid Gram matrix of the kernel with mu_i = i^(-2 beta), which is circulant.

    The kernel is evaluated at r/n for r = 0..n/2 only and mirrored, so that
    the circulant K is also exactly symmetric (k((n-r)/n) equals k(r/n) only
    up to an ulp otherwise).

    For n = N / m, ``grid_row(beta, N)[::m]`` is this row bit for bit: its
    entry r is the kernel at min(r m, N - r m)/N = m min(r, n - r)/N, which
    is the same float as min(r, n - r)/n (both correctly round the same
    rational, exactly as long as r m < 2^53), and the kernel acts elementwise.
    """
    pts = np.arange(n // 2 + 1, dtype=float) / n
    half = cross_gram(np.zeros(1), pts, KernelSpec.periodic_poly(beta)).reshape(-1)
    return _mirror(half, n)


def grid_problem(n: int, spectrum: SpectrumSpec, sigma2: float) -> FixedDesignProblem:
    """Uniform-grid problem: x_i = (i-1)/n, circulant K.

    K itself is assembled from its first row on first access to ``.K``; its
    exact eigenvalues are ``eig_circulant(spectrum.beta, n)``.
    """
    n, sigma2 = scalar(n, "n", int, ">= 2"), scalar(sigma2, "sigma2", float, ">= 0")
    return FixedDesignProblem(grid_row(spectrum.beta, n), signal_on_grid(spectrum.delta, n), sigma2)


def draw_noise(n: int, sigma2: float, trials: int, seed) -> np.ndarray:
    """trials x n matrix of i.i.d. centered Gaussian noise, seeded; ConfigError unless n, trials >= 0."""
    sigma2 = scalar(sigma2, "sigma2", float, ">= 0")
    n, trials = scalar(n, "n", int, ">= 0"), scalar(trials, "trials", int, ">= 0")
    return np.sqrt(sigma2) * generator(seed).standard_normal((trials, n))


def sigma2_for_snr(power: float, snr: float) -> float:
    """Noise variance giving a signal of mean square ``power`` signal power / noise power = snr^2."""
    snr = scalar(snr, "snr", float, "> 0")
    snr2 = snr * snr  # an underflow to 0 means a sigma2 too large to represent
    return power / snr2 if snr2 > 0 else inf
