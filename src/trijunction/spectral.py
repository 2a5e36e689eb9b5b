"""Chebyshev and Fourier machinery on [0, 1] x S^1.

The x coordinate lives on [0, 1] and is discretized with Chebyshev-Lobatto
nodes x_j = (1 - cos(pi j / (nx-1))) / 2, so both boundary circles are grid
rows and differentiation is spectrally accurate.  The y coordinate is the
unit-circumference circle R/Z, discretized with ny equispaced points and
handled by real FFTs: periodic data is read as its ``np.fft.rfft`` spectrum.

Everything here is plain array plumbing: differentiation matrices,
barycentric interpolation, Chebyshev series transforms (the analysis and
the synthesis are each a product with a cached matrix; no FFT runs along
x), cumulative integrals, Clenshaw-Curtis weights, and periodic spectral
helpers.

Sampled data has one layout, the fields': the x (Chebyshev node) axis is
the second to last, or the only axis of a 1-D array, and the y (periodic)
axis is the last.  Leading axes stack independent samples, such as the
three sheets of a (3, nx, ny) field.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto grid on [0, 1]
# ---------------------------------------------------------------------------

def cheb_nodes(nx: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [0, 1], increasing, x_0 = 0, x_{nx-1} = 1."""
    if nx < 2:
        raise ValueError("need at least 2 Chebyshev nodes")
    j = np.arange(nx)
    return (1.0 - np.cos(np.pi * j / (nx - 1))) / 2.0


@lru_cache(maxsize=None)
def cheb_diff_matrix(nx: int) -> np.ndarray:
    """First-derivative collocation matrix on the [0, 1] Lobatto nodes.

    Standard construction on xi = cos(pi j / N) with the negative-sum trick
    for the diagonal (exact row sums zero, so constants differentiate to
    exactly zero), then rescaled by dxi/dx = -2.
    """
    N = nx - 1
    j = np.arange(nx)
    xi = np.cos(np.pi * j / N)
    c = np.ones(nx)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** j
    X = np.tile(xi, (nx, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(nx))
    D -= np.diag(D.sum(axis=1))
    D *= -2.0
    D.flags.writeable = False
    return D


@lru_cache(maxsize=None)
def cheb_diff2_matrix(nx: int) -> np.ndarray:
    D = cheb_diff_matrix(nx)
    D2 = D @ D
    # negative-sum trick again: exact zero row sums keep low-degree
    # polynomials accurate at production resolutions
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -D2.sum(axis=1))
    D2.flags.writeable = False
    return D2


@lru_cache(maxsize=None)
def _bary_weights(nx: int) -> np.ndarray:
    """Barycentric weights for the Lobatto nodes (halved at the endpoints)."""
    w = (-1.0) ** np.arange(nx)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def bary_matrix(nx: int, xq) -> np.ndarray:
    """(q, nx) barycentric interpolation matrix from Lobatto samples to the q points xq.

    Row j holds the normalized weights w_m / (xq_j - x_m) of the second
    barycentric formula (Berrut & Trefethen, SIAM Rev. 46, 2004), so one
    product with the samples interpolates.  A target within 1e-15 of a node
    gets that node's unit row: node hits are returned verbatim.
    """
    diff = np.asarray(xq, dtype=float).reshape(-1, 1) - cheb_nodes(nx)
    hit = np.abs(diff) <= 1e-15
    kern = _bary_weights(nx) / np.where(hit, 1.0, diff)
    B = kern / kern.sum(axis=1, keepdims=True)
    rows, cols = np.nonzero(hit)
    B[rows] = 0.0
    B[rows, cols] = 1.0
    return B


@lru_cache(maxsize=None)
def _cheb_cosine_table(n: int) -> np.ndarray:
    """T[j, m] = cos(pi j m / (n - 1)) = T_m(xi_j): a series evaluated at the Lobatto nodes.

    The angle index jm is reduced mod 2(n - 1) first, so every entry is the
    cosine of an angle in [0, 2 pi): the rounding of pi j m for large j m
    would otherwise put noise into the analysis above the derivative pass's
    chop threshold.  T is symmetric.
    """
    jm = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))
    T = np.cos(np.pi * jm / (n - 1))
    T.flags.writeable = False
    return T


@lru_cache(maxsize=None)
def _cheb_analysis_matrix(n: int) -> np.ndarray:
    """A[m, j] = (2 / N) T[m, j] / (c_m c_j), N = n - 1, c_0 = c_N = 2 and 1 otherwise.

    One product with A is the DCT-I of the Lobatto samples, outer terms
    halved: the coefficients of the interpolating Chebyshev series.
    """
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    A = (2.0 / (n - 1)) * _cheb_cosine_table(n) / np.outer(c, c)
    A.flags.writeable = False
    return A


def cheb_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev series coefficients (in xi = 1 - 2x) of Lobatto samples.

    Returns coefficients a_n with f = sum a_n T_n(xi), along the node axis.
    The analysis is one product with a cached (n, n) matrix per (n, m) slab,
    so a slab's coefficients are bit for bit those it has alone.
    """
    values = np.asarray(values, dtype=float)
    return _cheb_analysis_matrix(values.shape[max(values.ndim - 2, 0)]) @ values


@lru_cache(maxsize=None)
def cheb_coefficient_diff_matrix(n: int, order: int) -> np.ndarray:
    """Maps Chebyshev coefficients (in xi) of length n to those of the order-th xi-derivative.

    d/dxi T_j = 2 j sum' T_k over k < j with j - k odd, the k = 0 term
    halved (Trefethen, Spectral Methods in MATLAB, ch. 6-7).  The entries
    are integers or halves, and so are those of the powers, so the matrix is
    exact in floating point.
    """
    j = np.arange(n)
    odd_gap = (j[None, :] > j[:, None]) & ((j[None, :] - j[:, None]) % 2 == 1)
    C1 = np.where(odd_gap, 2.0 * j[None, :], 0.0)
    C1[0] /= 2.0
    C = np.linalg.matrix_power(C1, order)
    C.flags.writeable = False
    return C


@lru_cache(maxsize=None)
def _cheb_synthesis_matrix(n: int, orders: tuple[int, ...]) -> np.ndarray:
    """Maps Chebyshev coefficients (in xi) to the x-derivative values at the nodes.

    One (n, n) block per order, stacked: (-2)^k T C_k, where C_k is
    :func:`cheb_coefficient_diff_matrix` and T is :func:`_cheb_cosine_table`,
    which evaluates a series at the Lobatto nodes.  The factor
    (-2)^k is (dxi/dx)^k.
    """
    T = _cheb_cosine_table(n)
    M = np.concatenate([(-2.0) ** k * (T @ cheb_coefficient_diff_matrix(n, k))
                        for k in orders])
    M.flags.writeable = False
    return M


def cheb_derivative_values(values: np.ndarray, order: int | tuple[int, ...],
                           out: np.ndarray | None = None) -> np.ndarray:
    """Spectral x-derivative of Lobatto samples, differentiated in coefficient space.

    One Chebyshev analysis (a product with the cached analysis matrix)
    gives the series coefficients; one batched product with the cached
    synthesis block of every requested order differentiates them and
    evaluates the result at the nodes.  Going through coefficients avoids
    the large cancellations of dense differentiation matrices: polynomials
    of low degree come out exact, and constants map to exactly zero.
    ``order`` is an int, or a tuple of ints for several derivatives from one
    pass, stacked along a new leading axis.  The result is written into
    ``out`` when given, and returned.
    """
    values = np.asarray(values, dtype=float)
    node = max(values.ndim - 2, 0)
    n = values.shape[node]
    orders = order if isinstance(order, tuple) else (order,)
    if out is None:
        out = np.empty((len(orders),) + values.shape)
    elif not isinstance(order, tuple):
        out = out[None]
    a = cheb_coefficients(values)
    # chop sub-round-off tail coefficients (per column): they carry no
    # information and differentiation would amplify them by O(N^2) per order
    mag = np.abs(a)
    a[mag < 4.0 * np.finfo(float).eps * mag.max(axis=node, keepdims=True)] = 0.0
    # one product per order and (n, m) slab: each slab bit for bit as alone
    blocks = _cheb_synthesis_matrix(n, orders).reshape((len(orders),) + (1,) * node + (n, n))
    np.matmul(blocks, a, out=out)
    return out if isinstance(order, tuple) else out[0]


def cheb_cumulative_integral(values: np.ndarray) -> np.ndarray:
    """Values of x -> integral_0^x f dt at the Lobatto nodes, for one column of samples."""
    values = np.asarray(values, dtype=float)
    A = np.polynomial.chebyshev.chebint(cheb_coefficients(values))
    # d/dx = -2 d/dxi, so integral_0^x f = (A(1) - A(xi)) / 2
    return (np.polynomial.chebyshev.chebval(1.0, A)
            - np.polynomial.chebyshev.chebval(1.0 - 2.0 * cheb_nodes(len(values)), A)) / 2.0


@lru_cache(maxsize=None)
def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [0, 1] (n Lobatto points)."""
    # integral over [-1, 1] of T_m is 2/(1-m^2) for even m and 0 for odd m;
    # fold the analysis matrix into per-node weights, halved for the [0, 1] map
    m = np.arange(n)
    moments = np.zeros(n)
    moments[::2] = 2.0 / (1.0 - m[::2] ** 2)
    nodes = cheb_nodes(n)
    w = 0.5 * _cheb_analysis_matrix(n).T @ moments
    nodes.flags.writeable = False
    w.flags.writeable = False
    return nodes, w


# ---------------------------------------------------------------------------
# Periodic direction (unit circumference, wavenumber factor 2*pi*k)
# ---------------------------------------------------------------------------

def fourier_nodes(ny: int) -> np.ndarray:
    return np.arange(ny) / ny


@lru_cache(maxsize=None)
def _derivative_factors(n: int, orders: tuple[int, ...], ndim: int) -> np.ndarray:
    """The mode multipliers (2 pi i k)^m of an n-point grid, one row per order,
    shaped to multiply the transform of an ndim array."""
    k = np.arange(n // 2 + 1)
    factors = np.stack([(2j * np.pi * k) ** m for m in orders])
    if n % 2 == 0:
        factors[[m % 2 == 1 for m in orders], -1] = 0.0
    factors = factors.reshape((len(orders),) + (1,) * (ndim - 1) + (len(k),))
    factors.flags.writeable = False
    return factors


def fourier_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral y-derivative of periodic samples (last axis), one rfft/irfft pair.

    An odd derivative zeroes the Nyquist mode on an even grid.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    factor = _derivative_factors(n, (order,), values.ndim)[0]
    return np.fft.irfft(np.fft.rfft(values) * factor, n=n)


def fourier_jet(values: np.ndarray, ux: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The y-derivatives u_y, u_yy and u_xy of a jet, written into the three
    slots of ``out``, a (3,) + ``values.shape`` array, in that order, and
    returned.

    ``values`` holds the periodic samples u and ``ux`` their x-derivative, of
    one shape.  Their two spectra go into one complex buffer, the factors
    (2 pi i k)^m are applied in place, and one inverse transform fills the
    three slots: each is bit for bit :func:`fourier_derivative` of its data.
    """
    n = values.shape[-1]
    d1, d2 = _derivative_factors(n, (1, 2), values.ndim)
    X = np.empty((3,) + values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    np.fft.rfft(values, out=X[0])
    np.multiply(X[0], d2, out=X[1])
    X[0] *= d1
    np.fft.rfft(ux, out=X[2])
    X[2] *= d1
    return np.fft.irfft(X, n=n, out=out)


def fourier_interpolate(values: np.ndarray, yq) -> np.ndarray:
    """The trigonometric interpolant of periodic samples (last axis) at arbitrary y.

    Mode k of the ``np.fft.rfft`` spectrum X contributes
    w_k (Re X_k cos(2 pi k y) - Im X_k sin(2 pi k y)) / n, with w_k = 2 except
    w = 1 at k = 0 and at the Nyquist mode of an even grid.  The rfft of real
    samples has Im X_k = 0 exactly at both, so the Nyquist mode is taken as
    a cosine.  The phase is 2 pi (k y mod 1), so it rounds to about eps
    where k y is exact, as on the nodes j/n of a power-of-two n, and the
    node values come back to round-off; an inexact y (j/90, say) still
    carries its own rounding times k.  The result has the leading axes of
    ``values``, then the shape of ``yq``.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    X = np.fft.rfft(values)
    X[..., 1:(n + 1) // 2] *= 2.0
    phase = 2.0 * np.pi * (np.multiply.outer(np.asarray(yq, dtype=float),
                                             np.arange(X.shape[-1])) % 1.0)
    return (np.tensordot(X.real, np.cos(phase), axes=([-1], [-1]))
            - np.tensordot(X.imag, np.sin(phase), axes=([-1], [-1]))) / n


def bary_eval(cols: np.ndarray, x) -> np.ndarray | float:
    """Point q of ``x`` evaluated on column q of (nx, q) Lobatto samples.

    The diagonal of ``bary_matrix(nx, x) @ cols``; ``x`` may have any shape
    of q points, and a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    flat = np.einsum("qj,jq->q", bary_matrix(cols.shape[0], x), cols)
    return flat.reshape(x.shape) if x.shape else float(flat[0])


def interpolate(values: np.ndarray, x, y) -> np.ndarray | float:
    """Spectral interpolant of (nx, ny) grid samples at arbitrary points.

    Fourier in y, then barycentric in x; scalar points give a float.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return bary_eval(fourier_interpolate(values, y.reshape(-1)), x)


def aliasing_fraction(X: np.ndarray, n: int) -> float:
    """Fraction of spectral energy in the top third of the periodic spectrum.

    Reads the ``np.fft.rfft`` spectrum X of n-point data, mode axis last,
    over all leading axes together.  By Parseval the energy of mode k is
    |X_k|^2 at k = 0 and at the Nyquist mode of an even grid, and
    2 |X_k|^2 otherwise (each over n^2, which cancels in the fraction).  A
    finite spectrum too large to square is read scaled by an exact power of
    two, which the fraction does not see; any other is read unscaled.
    """
    with np.errstate(over="ignore"):
        energy = X.real ** 2 + X.imag ** 2
        energy[..., 1:(n + 1) // 2] *= 2.0
        total = energy.sum()
    if total == np.inf and np.isfinite(X).all():
        # |X_k| / 2^e < 1 for e the binary exponent of the largest |X_k|
        return aliasing_fraction(X * 2.0 ** -np.frexp(np.abs(X).max())[1], n)
    if total == 0.0:
        return 0.0
    cut = 2 * (n // 2) // 3
    return float(energy[..., cut + 1:].sum() / total)
