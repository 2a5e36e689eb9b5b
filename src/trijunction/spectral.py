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


def cheb_interp(values: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Barycentric interpolation from Lobatto samples to arbitrary x in [0, 1].

    ``values`` has the node axis first and may carry trailing axes; ``xq``
    may be any shape.  Exact node hits are returned verbatim.
    """
    values = np.asarray(values, dtype=float)
    nx = values.shape[0]
    nodes = cheb_nodes(nx)
    w = _bary_weights(nx)
    xq = np.asarray(xq, dtype=float)
    flat = xq.reshape(-1)

    diff = flat[:, None] - nodes[None, :]          # (q, nx)
    hit = np.isclose(diff, 0.0, rtol=0.0, atol=1e-15)
    diff_safe = np.where(hit, 1.0, diff)
    kern = w[None, :] / diff_safe
    num = kern @ values.reshape(nx, -1)            # (q, rest)
    den = kern.sum(axis=1)
    out = num / den[:, None]

    rows, cols = np.nonzero(hit)
    if rows.size:
        out[rows] = values.reshape(nx, -1)[cols]
    return out.reshape(xq.shape + values.shape[1:])


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


def cheb_values(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`cheb_coefficients`."""
    b = np.asarray(coeffs, dtype=float).copy()
    b[0] *= 2.0
    b[-1] *= 2.0
    return _dct1(b) / 2.0


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


def cheb_derivative_values(values: np.ndarray, order: int | tuple[int, ...]) -> np.ndarray:
    """Spectral x-derivative of Lobatto samples, differentiated in coefficient space.

    Transform-space differentiation avoids the large cancellations of dense
    differentiation matrices: polynomials of low degree come out exact, and
    constants map to exactly zero.  Node axis first.  ``order`` is an int,
    or a tuple of ints for several derivatives from one coefficient pass,
    stacked along a new leading axis.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    a = cheb_coefficients(values)
    # chop sub-round-off tail coefficients (per column): they carry no
    # information and differentiation would amplify them by O(N^2) per order
    scale = np.max(np.abs(a), axis=0, keepdims=True)
    a = np.where(np.abs(a) < 4.0 * np.finfo(float).eps * scale, 0.0, a).reshape(n, -1)

    def derivative(k: int) -> np.ndarray:
        b = cheb_coefficient_diff_matrix(n, k) @ a
        return (-2.0) ** k * cheb_values(b).reshape(values.shape)

    if isinstance(order, tuple):
        return np.stack([derivative(k) for k in order])
    return derivative(order)


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
    A = np.fft.rfft(values, axis=axis)
    A = np.moveaxis(A, axis, -1)
    c = 2.0 * A.real / n
    s = -2.0 * A.imag / n
    c[..., 0] /= 2.0
    s[..., 0] = 0.0
    if n % 2 == 0:
        c[..., -1] /= 2.0
        s[..., -1] = 0.0
    return np.moveaxis(c, -1, axis), np.moveaxis(s, -1, axis)


def fourier_synthesis(c: np.ndarray, s: np.ndarray, n: int, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`fourier_coefficients` onto the n-point grid."""
    c = np.moveaxis(np.asarray(c, dtype=float), axis, -1)
    s = np.moveaxis(np.asarray(s, dtype=float), axis, -1)
    A = (c - 1j * s) * (n / 2.0)
    A[..., 0] *= 2.0
    if n % 2 == 0:
        A[..., -1] *= 2.0
    out = np.fft.irfft(A, n=n, axis=-1)
    return np.moveaxis(out, -1, axis)


def fourier_derivative(values: np.ndarray, order: int, axis: int = -1) -> np.ndarray:
    """Spectral derivative of order 1 or 2 along a periodic axis."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    A = np.fft.rfft(values, axis=axis)
    k = np.arange(n // 2 + 1)
    factor = (2j * np.pi * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[-1] = 0.0                      # odd derivative of the Nyquist mode
    shape = [1] * values.ndim
    shape[axis] = len(k)
    A = A * factor.reshape(shape)
    return np.fft.irfft(A, n=n, axis=axis)


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


def aliasing_fraction(values: np.ndarray, axis: int = -1) -> float:
    """Fraction of spectral energy in the top third of the periodic spectrum."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    A = np.moveaxis(np.fft.rfft(values, axis=axis), axis, -1)
    K = n // 2
    weight = np.full(A.shape[-1], 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    energy = weight * np.abs(A) ** 2
    total = energy.sum()
    if total == 0.0:
        return 0.0
    cut = (2 * K) // 3
    return float(energy[..., cut + 1:].sum() / total)
