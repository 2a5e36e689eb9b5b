"""Chebyshev and Fourier machinery on [0, 1] x S^1.

The x coordinate lives on [0, 1] and is discretized with Chebyshev-Lobatto
nodes x_j = (1 - cos(pi j / (nx-1))) / 2, so both boundary circles are grid
rows and differentiation is spectrally accurate.  The y coordinate is the
unit-circumference circle R/Z, discretized with ny equispaced points and
handled by real FFTs (cos/sin mode pairs).

Everything here is plain array plumbing: differentiation matrices,
barycentric interpolation, Chebyshev series transforms, cumulative
integrals, Clenshaw-Curtis weights, and periodic spectral helpers.
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


def _dct1(values: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along axis 0: the real FFT of the even extension."""
    return np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real


def cheb_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev series coefficients (in xi = 1 - 2x) of Lobatto samples.

    Node axis first; returns coefficients a_n with f = sum a_n T_n(xi).
    """
    values = np.asarray(values, dtype=float)
    N = values.shape[0] - 1
    a = _dct1(values) / N
    a[0] /= 2.0
    a[-1] /= 2.0
    return a


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
    :func:`cheb_coefficient_diff_matrix` and T[j, m] = cos(pi j m / (n - 1))
    = T_m(xi_j) evaluates a series at the Lobatto nodes.  The factor
    (-2)^k is (dxi/dx)^k.
    """
    jm = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))
    T = np.cos(np.pi * jm / (n - 1))
    M = np.concatenate([(-2.0) ** k * (T @ cheb_coefficient_diff_matrix(n, k))
                        for k in orders])
    M.flags.writeable = False
    return M


def cheb_derivative_values(values: np.ndarray, order: int | tuple[int, ...],
                           out: np.ndarray | None = None) -> np.ndarray:
    """Spectral x-derivative of Lobatto samples, differentiated in coefficient space.

    One Chebyshev analysis (a DCT-I) gives the series coefficients; one
    batched product with the cached synthesis block of every requested
    order differentiates them and evaluates the result at the nodes.  Going
    through coefficients avoids the large cancellations of dense
    differentiation matrices: polynomials of low degree come out exact, and
    constants map to exactly zero.  Node axis first.  ``order`` is an int,
    or a tuple of ints for several derivatives from one pass, stacked along
    a new leading axis.  The result is written into ``out`` when given, and
    returned.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    orders = order if isinstance(order, tuple) else (order,)
    if out is None:
        out = np.empty((len(orders),) + values.shape)
    elif not isinstance(order, tuple):
        out = out[None]
    a = cheb_coefficients(values)
    # chop sub-round-off tail coefficients (per column): they carry no
    # information and differentiation would amplify them by O(N^2) per order
    mag = np.abs(a)
    a[mag < 4.0 * np.finfo(float).eps * mag.max(axis=0)] = 0.0
    # one product per order and (n, m) slab, the node axis moved next to
    # last: a slab comes out bit for bit as it would alone
    if a.ndim == 1:
        a, dest = a[:, None], out[..., None]
    else:
        a, dest = np.moveaxis(a, 0, -2), np.moveaxis(out, 1, -2)
    blocks = _cheb_synthesis_matrix(n, orders).reshape(
        (len(orders),) + (1,) * (a.ndim - 2) + (n, n))
    np.matmul(blocks, a, out=dest)
    return out if isinstance(order, tuple) else out[0]


def cheb_cumulative_integral(values: np.ndarray) -> np.ndarray:
    """Values of x -> integral_0^x f dt at the Lobatto nodes (node axis first)."""
    values = np.asarray(values, dtype=float)
    a = cheb_coefficients(values)
    flat = a.reshape(a.shape[0], -1)
    out = np.empty_like(flat)
    nodes_xi = 1.0 - 2.0 * cheb_nodes(values.shape[0])
    for m in range(flat.shape[1]):
        A = np.polynomial.chebyshev.chebint(flat[:, m])
        # d/dx = -2 d/dxi, so integral_0^x f = (A(1) - A(xi)) / 2
        out[:, m] = (np.polynomial.chebyshev.chebval(1.0, A)
                     - np.polynomial.chebyshev.chebval(nodes_xi, A)) / 2.0
    return out.reshape(values.shape)


@lru_cache(maxsize=None)
def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [0, 1] (n Lobatto points)."""
    N = n - 1
    j = np.arange(n)
    nodes = cheb_nodes(n)
    # integral over [-1, 1] of T_m is 2/(1-m^2) for even m; fold the DCT
    # analysis into per-node weights, then halve for the [0, 1] map.
    m = np.arange(0, N + 1, 2)
    moments = 2.0 / (1.0 - m ** 2)
    cm = np.ones_like(m, dtype=float)
    if m[0] == 0:
        cm[0] = 2.0
    if m[-1] == N:
        cm[-1] = 2.0
    cj = np.ones(n)
    cj[0] = cj[-1] = 2.0
    cosmat = np.cos(np.pi * np.outer(j, m) / N)     # (n, |m|)
    w = (2.0 / (N * cj)) * (cosmat @ (moments / cm))
    w *= 0.5
    nodes.flags.writeable = False
    w.flags.writeable = False
    return nodes, w


# ---------------------------------------------------------------------------
# Periodic direction (unit circumference, wavenumber factor 2*pi*k)
# ---------------------------------------------------------------------------

def fourier_nodes(ny: int) -> np.ndarray:
    return np.arange(ny) / ny


def fourier_coefficients(values: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin coefficients of real samples: f = c_0 + sum c_k cos + s_k sin."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    A = np.fft.rfft(values, axis=axis).swapaxes(axis, -1)
    c = 2.0 * A.real / n
    s = -2.0 * A.imag / n
    c[..., 0] /= 2.0
    s[..., 0] = 0.0
    if n % 2 == 0:
        c[..., -1] /= 2.0
        s[..., -1] = 0.0
    return c.swapaxes(-1, axis), s.swapaxes(-1, axis)


def fourier_synthesis(c: np.ndarray, s: np.ndarray, n: int, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`fourier_coefficients` onto the n-point grid."""
    c = np.asarray(c, dtype=float).swapaxes(axis, -1)
    s = np.asarray(s, dtype=float).swapaxes(axis, -1)
    A = (c - 1j * s) * (n / 2.0)
    A[..., 0] *= 2.0
    if n % 2 == 0:
        A[..., -1] *= 2.0
    return np.fft.irfft(A, n=n, axis=-1).swapaxes(-1, axis)


@lru_cache(maxsize=None)
def _derivative_factors(n: int, orders: tuple[int, ...], axis: int, ndim: int) -> np.ndarray:
    """The mode multipliers (2 pi i k)^m of an n-point grid, one row per order,
    shaped to multiply the transform of an ndim array along ``axis``."""
    k = np.arange(n // 2 + 1)
    factors = np.stack([(2j * np.pi * k) ** m for m in orders])
    if n % 2 == 0:
        factors[[m % 2 == 1 for m in orders], -1] = 0.0
    factors = factors.reshape((len(orders),) + (1,) * axis + (len(k),) + (1,) * (ndim - axis - 1))
    factors.flags.writeable = False
    return factors


def fourier_derivative(values: np.ndarray, order: int | tuple[int, ...],
                       axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Spectral derivative along a periodic axis.

    ``order`` is an int, or a tuple of ints for several derivatives from one
    forward transform and one inverse transform of the stacked products,
    stacked along a new leading axis.  An odd derivative zeroes the Nyquist
    mode on an even grid.  The result is written into ``out`` when given,
    and returned.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    axis %= values.ndim
    orders = order if isinstance(order, tuple) else (order,)
    if out is not None and not isinstance(order, tuple):
        out = out[None]
    factors = _derivative_factors(n, orders, axis, values.ndim)
    out = np.fft.irfft(np.fft.rfft(values, axis=axis) * factors, n=n, axis=axis + 1, out=out)
    return out if isinstance(order, tuple) else out[0]


def trig_eval(c: np.ndarray, s: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary y.

    ``c``/``s`` have the mode axis last; result broadcasts leading axes of the
    coefficients against the shape of ``yq`` appended at the end.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    yq = np.asarray(yq, dtype=float)
    k = np.arange(c.shape[-1])
    phase = 2.0 * np.pi * np.multiply.outer(yq, k)       # yq.shape + (K+1,)
    cosv = np.cos(phase)
    sinv = np.sin(phase)
    # leading coeff axes x query axes
    return np.tensordot(c, cosv, axes=([-1], [-1])) + np.tensordot(s, sinv, axes=([-1], [-1]))


def interpolate(values: np.ndarray, x, y) -> np.ndarray | float:
    """Spectral interpolant of (nx, ny) grid samples at arbitrary points.

    Fourier in y, then barycentric in x; scalar points give a float.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    c, s = fourier_coefficients(values, axis=1)
    cols = trig_eval(c, s, y.reshape(-1))               # (nx, q)
    # point q reads its own column: the diagonal of bary_matrix @ cols
    B = bary_matrix(values.shape[0], x)                 # (q, nx)
    flat = np.einsum("qj,jq->q", B, cols)
    return flat.reshape(x.shape) if x.shape else float(flat[0])


def aliasing_fraction(c: np.ndarray, s: np.ndarray, n: int) -> float:
    """Fraction of spectral energy in the top third of the periodic spectrum.

    Reads the :func:`fourier_coefficients` of n-point data, mode axis last,
    over all leading axes together.  By Parseval the energy of mode k is
    c_0^2 for k = 0, c_K^2 for the Nyquist mode of an even grid, and
    (c_k^2 + s_k^2) / 2 otherwise.
    """
    energy = 0.5 * (c ** 2 + s ** 2)
    energy[..., 0] = c[..., 0] ** 2
    if n % 2 == 0:
        energy[..., -1] = c[..., -1] ** 2
    total = energy.sum()
    if total == 0.0:
        return 0.0
    cut = 2 * (n // 2) // 3
    return float(energy[..., cut + 1:].sum() / total)
