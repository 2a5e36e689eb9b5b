"""Discrete triple fields on [0, 1] x S^1.

A field is sampled on a tensor grid: Chebyshev-Lobatto in x (so the two
boundary circles are grid rows), equispaced in the periodic y direction.
Differentiation is spectral in both directions.

A field owns one read-only (3, nx, ny) array, and its derivatives of order
<= 2 one read-only (5, 3, nx, ny) block, slots u_x, u_y, u_yy, u_xy, u_xx,
which the derivative passes fill in place: the jet's five arrays are
C-contiguous views of it, and the norm proxy reads each sheet's three
second derivatives as one view of the adjacent slots.

Norms of Hoelder type are not finitely computable, so this module provides
discrete *proxies*: the grid maximum of the function and its derivatives
plus a divided-difference seminorm of the top derivatives sampled at dyadic
lags along grid rows and columns.  The proxies drive guards and diagnostics
only, never the solve path.

The seminorm evaluates lags best-first and skips those that cannot raise
it.  Lag 1 is evaluated in y and in x.  A difference at a longer lag is a
sum of lag-1 differences and at most the range ``span = max A - min A``, so
a y-lag L is bounded by min(span, L M1), M1 the largest lag-1 difference,
and an x-lag from row r by the dyadic window sums B_2L[r] = B_L[r] +
B_L[r + L] of the lag-1 row maxima B_1, capped at ``span`` (window sums,
not differences of a cumulative sum, whose cancellation on the clustered
Chebyshev rows no small allowance covers).  Each bound is scaled by
1 + 1e-12, which covers the at most log2(n) + 3 roundings of the bound and
of the difference it bounds.  The lags are then evaluated in descending
order of bound / dist^alpha until the next bound is no more than the
maximum found; since rounded subtraction and division are monotone, a
skipped lag cannot raise that maximum, and the value is the one every lag
gives, bit for bit.  A non-finite ``span`` evaluates every lag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral


class AliasingWarning(UserWarning):
    """Periodic data puts non-negligible energy in the top third of its spectrum."""


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid: nx Chebyshev-Lobatto points in x, ny periodic points in y."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError("nx must be at least 8")
        if self.ny < 8 or self.ny % 2 != 0:
            raise ValueError("ny must be even and at least 8")

    @cached_property
    def x(self) -> np.ndarray:
        x = spectral.cheb_nodes(self.nx)
        x.flags.writeable = False
        return x

    @cached_property
    def y(self) -> np.ndarray:
        y = spectral.fourier_nodes(self.ny)
        y.flags.writeable = False
        return y


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class Jet(NamedTuple):
    """Spectral first and second derivatives of a triple field: read-only,
    C-contiguous (3, nx, ny) arrays, row i - 1 belonging to sheet i."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray


def _check_same_grid(a: Grid2D, b: Grid2D):
    if a != b:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class TripleField:
    """Heights of the three sheets: one read-only (3, nx, ny) array on one grid.

    ``values`` may also be given as a list of three (nx, ny) arrays; sheet i
    is the row ``values[i - 1]``.  The constructor copies what it is given,
    so no later write to the caller's array shows in the field; arrays the
    package has just made are adopted without a copy (:meth:`_adopt`).
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", self._checked(_frozen(self.values)))

    def _checked(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (3, self.grid.nx, self.grid.ny):
            raise ValueError(f"values shape {v.shape} does not match (3, "
                             f"{self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        return v

    @classmethod
    def _adopt(cls, grid: Grid2D, values: np.ndarray) -> "TripleField":
        """The field of a float array no one else holds, frozen in place, not copied."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        values.flags.writeable = False
        object.__setattr__(field, "values", field._checked(values))
        return field

    @classmethod
    def zero(cls, grid: Grid2D) -> "TripleField":
        return cls._adopt(grid, np.zeros((3, grid.nx, grid.ny)))

    @cached_property
    def _jet_block(self) -> np.ndarray:
        """The read-only (5, 3, nx, ny) block behind :attr:`jet` (see the module docstring)."""
        v = self.values
        block = np.empty((5,) + v.shape)
        # one Chebyshev analysis of the whole array gives u_x and u_xx, one
        # Fourier pass u_y and u_yy, and one more u_xy, each written in place
        spectral.cheb_derivative_values(np.moveaxis(v, 1, 0), (1, 2),
                                        out=np.moveaxis(block[::4], 2, 1))
        spectral.fourier_derivative(v, (1, 2), out=block[1:3])
        spectral.fourier_derivative(block[0], 1, out=block[3])
        block.flags.writeable = False
        return block

    @cached_property
    def jet(self) -> Jet:
        """Every derivative of total order <= 2 of the three sheets, computed once.

        The five arrays are C-contiguous views of one read-only block, so
        each sheet's row is one contiguous stretch of memory.  The field is
        immutable, so the cached arrays never go stale.
        """
        ux, uy, uyy, uxy, uxx = self._jet_block
        return Jet(ux=ux, uy=uy, uxx=uxx, uxy=uxy, uyy=uyy)

    def traces(self, end: str = "inner") -> np.ndarray:
        """(3, ny) boundary rows: 'inner' is the x = 0 circle, 'outer' the x = 1 circle."""
        if end not in ("inner", "outer"):
            raise ValueError("end must be 'inner' or 'outer'")
        return self.values[:, 0 if end == "inner" else -1]

    def __add__(self, other: "TripleField") -> "TripleField":
        _check_same_grid(self.grid, other.grid)
        return TripleField._adopt(self.grid, self.values + other.values)

    def __sub__(self, other: "TripleField") -> "TripleField":
        _check_same_grid(self.grid, other.grid)
        return TripleField._adopt(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "TripleField":
        return TripleField._adopt(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class BoundaryTriple:
    """Three periodic scalar maps on the y grid (boundary data at x = 1)."""

    ny: int
    values: np.ndarray          # (3, ny)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (3, self.ny):
            raise ValueError(f"boundary values must have shape (3, {self.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @classmethod
    def zero(cls, ny: int) -> "BoundaryTriple":
        return cls(ny, np.zeros((3, ny)))

    def __mul__(self, scalar: float) -> "BoundaryTriple":
        return BoundaryTriple(self.ny, self.values * float(scalar))

    __rmul__ = __mul__


def checked_fourier_coefficients(values: np.ndarray, label: str,
                                 floor: float | np.ndarray = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin coefficients along the last axis; warn if the top third carries
    more than 1e-8 of the energy.

    The check reads the same coefficients the caller gets, so periodic data
    is analysed once.  Data below ``floor`` in sup norm is not checked:
    round-off-level inputs have white spectra and would trip the relative
    check meaninglessly.  An array ``floor`` holds one floor per leading row
    of ``values``, and each row is checked on its own.
    """
    values = np.asarray(values, dtype=float)
    c, s = spectral.fourier_coefficients(values)
    floor = np.asarray(floor, dtype=float)
    sups = np.abs(values).max(axis=tuple(range(floor.ndim, values.ndim)))
    for row in map(tuple, np.argwhere(sups > floor)):
        frac = spectral.aliasing_fraction(c[row], s[row], values.shape[-1])
        if frac > 1e-8:
            warnings.warn(f"{label}: top-third spectral energy fraction {frac:.3e} "
                          "exceeds 1e-8", AliasingWarning, stacklevel=4)
    return c, s


# ---------------------------------------------------------------------------
# Discrete norm proxies (guards and diagnostics only)
# ---------------------------------------------------------------------------

def _dyadic_lags(n: int) -> list[int]:
    lags, lag = [], 1
    while lag < n:
        lags.append(lag)
        lag *= 2
    return lags


def _y_lag(values: np.ndarray, lag: int, diff: np.ndarray) -> float:
    """max |A(., y + lag) - A(., y)| along the periodic last axis, into ``diff``."""
    n = values.shape[-1]
    # np.roll(values, -lag, axis=-1) - values without the roll copy:
    # the unwrapped part, then the wrap past the seam
    np.subtract(values[..., lag:], values[..., :-lag], out=diff[..., :n - lag])
    np.subtract(values[..., :lag], values[..., n - lag:], out=diff[..., n - lag:])
    return float(np.abs(diff, out=diff).max())


def _x_lag(A: np.ndarray, lag: int, diff: np.ndarray) -> np.ndarray:
    """Per row r, max |A(x_{r + lag}, .) - A(x_r, .)| over the stack and y."""
    D = np.subtract(A[:, lag:, :], A[:, :-lag, :], out=diff[:, :A.shape[1] - lag, :])
    return np.abs(D, out=D).max(axis=(0, 2))


@lru_cache(maxsize=None)
def _lag_distances(grid: Grid2D, alpha: float) -> tuple[dict, dict]:
    """dist^alpha per dyadic lag, once per grid and alpha: a number in y, row pairs in x."""
    x, nx, ny = grid.x, grid.nx, grid.ny
    return ({lag: (min(lag, ny - lag) / ny) ** alpha for lag in _dyadic_lags(ny)},
            {lag: _frozen(np.abs(x[lag:] - x[:-lag]) ** alpha) for lag in _dyadic_lags(nx)})


def _holder_seminorm_2d(A, grid: Grid2D, alpha: float) -> float:
    """max |A(p) - A(q)| / dist(p, q)^alpha over row/column pairs at dyadic lags,
    evaluated best bound first (see the module docstring).

    ``A`` is a (k, nx, ny) array, a view of any strides included, or k
    (nx, ny) arrays; the value is a max over the k of them, in any order.
    """
    A = np.asarray(A)
    diff = np.empty_like(A)                     # one buffer for every lag
    dy, dx = _lag_distances(grid, alpha)

    def y_value(lag):
        return _y_lag(A, lag, diff) / dy[lag]

    def x_value(lag):
        return float((_x_lag(A, lag, diff) / dx[lag]).max())

    span = float((A.max(axis=(1, 2)) - A.min(axis=(1, 2))).max())
    if not np.isfinite(span):
        # NaN or overflow: the bounds do not hold, so every lag
        best = 0.0
        for value, lags in ((y_value, dy), (x_value, dx)):
            for lag in lags:
                best = max(best, value(lag))
        return best

    m1 = _y_lag(A, 1, diff)
    rows = _x_lag(A, 1, diff)                   # B_1[r]
    best = max(m1 / dy[1], float((rows / dx[1]).max()))
    slack = 1.0 + 1e-12
    todo = [(min(span, min(lag, grid.ny - lag) * m1) * slack / dy[lag], y_value, lag)
            for lag in list(dy)[1:]]
    for lag in list(dx)[:-1]:
        rows = rows[:-lag] + rows[lag:]         # B_2L[r] = B_L[r] + B_L[r + L]
        todo.append((float((np.minimum(rows, span) * slack / dx[2 * lag]).max()),
                     x_value, 2 * lag))
    for bound, value, lag in sorted(todo, key=lambda t: -t[0]):
        if bound <= best:
            break
        best = max(best, value(lag))
    return best


def _holder_seminorm_1d(values: np.ndarray, alpha: float) -> float:
    """Divided differences at dyadic lags along the periodic last axis."""
    n = values.shape[-1]
    diff = np.empty_like(values)
    best = 0.0
    for lag in _dyadic_lags(n):
        d = min(lag, n - lag) / n
        best = max(best, _y_lag(values, lag, diff) / d ** alpha)
    return best


def norm_proxy(u: TripleField, alpha: float, order: int = 2) -> float:
    """Discrete stand-in for the C^{order, alpha} norm of a triple field.

    The sum over the sheets of the grid maximum of every derivative up to
    ``order`` plus the Hoelder seminorm of the top ones.  Each sheet is read
    in place: its row of the values, and views of its rows of the jet block
    (order 0 computes no jet).
    """
    if order == 0:
        derivs, top = [], u.values[None]
    else:
        block = u._jet_block            # slots u_x, u_y, then u_yy, u_xy, u_xx
        derivs = [block[:2] if order == 1 else block]
        top = block[:2] if order == 1 else block[2:]
    total = 0.0
    for i in range(3):
        rows = [u.values[i]] + [d[:, i] for d in derivs]
        sup = np.max([r.max() for r in rows] + [-r.min() for r in rows])
        total += float(sup) + _holder_seminorm_2d(top[:, i], u.grid, alpha)
    return total


def periodic_proxy(values: np.ndarray, alpha: float, order: int = 2) -> float:
    """Discrete C^{order, alpha} proxy of a periodic map sampled on the y grid."""
    values = np.asarray(values, dtype=float)
    derivs = [values]
    for _ in range(order):
        derivs.append(spectral.fourier_derivative(derivs[-1], 1))
    sup_part = max(float(np.max(np.abs(d))) for d in derivs)
    return sup_part + _holder_seminorm_1d(derivs[-1], alpha)


def boundary_proxy(phi: BoundaryTriple, alpha: float, order: int = 2) -> float:
    return sum(periodic_proxy(row, alpha, order) for row in phi.values)
