"""Discrete triple fields on [0, 1] x S^1.

A field is sampled on a tensor grid: Chebyshev-Lobatto in x (so the two
boundary circles are grid rows), equispaced in the periodic y direction.
Differentiation is spectral in both directions.

A field owns one read-only (3, nx, ny) array, and its derivatives of order
<= 2 one read-only (5, 3, nx, ny) block, slots u_x, u_y, u_yy, u_xy, u_xx,
which the derivative passes fill in place: one Chebyshev pass writes u_x
and u_xx, and one Fourier pass over u and u_x (``spectral.fourier_jet``)
the three adjacent slots u_y, u_yy, u_xy.  The jet's five arrays are
C-contiguous views of the block, and the norm proxy reads the three second
derivatives of a group of sheets as one view of the adjacent slots.

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
of the difference it bounds.  Since rounded subtraction and division are
monotone, a lag whose bound / dist^alpha is no more than the maximum found
cannot raise that maximum, so the value is the one every lag gives, bit
for bit.  A non-finite ``span`` evaluates every lag.

The search runs over a group of sheets, a (slots, sheets, nx, ny) stack.
The lag-1 passes run over the whole group; M1, B_1, the spans, the bounds
and the maxima found are per sheet.  The lags are taken in descending
order of their largest bound over the group, and each runs once, over the
sheets from the first to the last whose bound for it still exceeds its
maximum, until the largest bound left is no more than the smallest
maximum.  A sheet that did not need a lag reads a value no larger than its
bound, which is a value of its own seminorm, so each sheet's value is the
one it has alone.

``Grid2D.sheet_groups`` is the size rule that both per-iterate kernels,
this search and the mean curvature H, follow: all three sheets in one
group while 3 nx ny <= ``GROUP_LIMIT`` = 2^15 elements, else one sheet per
group.  A group pays numpy's per-call cost once for three sheets, which is
most of the work on small grids (9,216 elements at 48x64).  On large grids
the passes are memory-bound instead, and a group's buffers (eight work
arrays of 3 nx ny doubles for H, 2 MiB at the limit) leave a per-core L2
cache, so one sheet at a time is faster.  On one pinned core of a 2-vCPU
Xeon host, H and the proxy took 0.21 and 0.24 ms grouped against 0.28 and
0.39 ms per sheet at 48x64, and 2.25 and 1.53 ms against 1.73 and 1.42 ms
at 96x256.

Every pass over the jet block is a flat loop.  numpy cannot flatten a
lag-offset (nx, ny) view, so ``A[..., L:] - A[..., :-L]`` runs one short
loop per grid row, which cost more than the arithmetic.  A y-lag therefore
reads each C-contiguous slab as one flat row and subtracts it from itself
shifted by L, into a buffer of C-contiguous slabs (a reshape of any other
buffer would be a copy, and the writes would be lost); only the last L
columns of each grid row reach into the next row, and they are overwritten
with the wrap past the seam.  max |d| is max(max d, -min d), with no abs
pass; a NaN gives NaN, as abs().max() does.  An x-lag is whole rows apart,
so it is flat already; it keeps its abs pass, since one reduction of |d|
over the stack and y measured faster than max and min reductions.  The
proxy takes every sheet's sup and span from one max and one min pass over
the values and one over the jet block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral

# the most elements, 3 nx ny, at which the three sheets share one set of
# numpy calls (see the module docstring)
GROUP_LIMIT = 2 ** 15


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

    def sheet_groups(self) -> tuple[slice, ...]:
        """The sheets that the H kernel and the Hoelder search take in one set
        of numpy calls: all three while 3 nx ny <= ``GROUP_LIMIT``, else one
        at a time (see the module docstring)."""
        if 3 * self.nx * self.ny <= GROUP_LIMIT:
            return (slice(0, 3),)
        return (slice(0, 1), slice(1, 2), slice(2, 3))


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
        # one Chebyshev analysis of the whole array gives u_x and u_xx, and
        # one Fourier pass over u and u_x the adjacent slots u_y, u_yy, u_xy
        spectral.cheb_derivative_values(v, (1, 2), out=block[::4])
        spectral.fourier_jet(v, block[0], out=block[1:4])
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


def checked_spectrum(values: np.ndarray, label: str, check: bool | np.ndarray) -> np.ndarray:
    """The ``np.fft.rfft`` spectrum along the last axis; warn if its top third
    carries more than 1e-8 of the energy.

    The check reads the spectrum the caller gets, so periodic data is
    analysed once.  ``check`` marks the data to check: one flag for the
    whole array, or an array of flags, one per leading row of ``values``,
    each row checked on its own.  The caller leaves round-off-level data
    unmarked: it has a white spectrum and would trip the relative check
    meaninglessly.  The warning names the line three frames up: in the
    linear solve (entry point, then ``_solve_stack``, then this check), the
    line that called the solve.
    """
    values = np.asarray(values, dtype=float)
    X = np.fft.rfft(values)
    for row in map(tuple, np.argwhere(check)):
        frac = spectral.aliasing_fraction(X[row], values.shape[-1])
        if frac > 1e-8:
            warnings.warn(f"{label}: top-third spectral energy fraction {frac:.3e} "
                          "exceeds 1e-8", AliasingWarning, stacklevel=4)
    return X


# ---------------------------------------------------------------------------
# Discrete norm proxies (guards and diagnostics only)
# ---------------------------------------------------------------------------

def _dyadic_lags(n: int) -> list[int]:
    lags, lag = [], 1
    while lag < n:
        lags.append(lag)
        lag *= 2
    return lags


def _y_lag(values: np.ndarray, lag: int, diff: np.ndarray, axis=None):
    """max |A(., y + lag) - A(., y)| along the periodic last axis, reduced over
    ``axis`` (every axis by default).  The differences go into ``diff``, an
    array of the same shape whose (nx, ny) slabs are C-contiguous: one flat
    subtraction per slab, then the seam columns (see the module docstring)."""
    n = values.shape[-1]
    flat = values.shape[:-2] + (-1,)
    rows = values.reshape(flat)                 # a view of C-contiguous slabs, else a copy
    out = np.reshape(diff, flat, copy=False)    # a view, or it raises: writes land in diff
    np.subtract(rows[..., lag:], rows[..., :-lag], out=out[..., :-lag])
    np.subtract(values[..., :lag], values[..., n - lag:], out=diff[..., n - lag:])
    # max |d| without an abs pass; np.maximum keeps a NaN as abs().max() does
    return np.maximum(diff.max(axis), -diff.min(axis))


def _x_lag(A: np.ndarray, lag: int, diff: np.ndarray) -> np.ndarray:
    """Per row r, max |A(x_{r + lag}, .) - A(x_r, .)| over the slots and y: one
    row of maxima per sheet of a (slots, sheets, nx, ny) stack."""
    D = np.subtract(A[..., lag:, :], A[..., :-lag, :], out=diff[..., :A.shape[-2] - lag, :])
    return np.abs(D, out=D).max(axis=(0, -1))


@lru_cache(maxsize=None)
def _lag_distances(grid: Grid2D, alpha: float) -> tuple[dict, dict]:
    """dist^alpha per dyadic lag, once per grid and alpha: a number in y, row pairs in x."""
    x, nx, ny = grid.x, grid.nx, grid.ny
    return ({lag: (min(lag, ny - lag) / ny) ** alpha for lag in _dyadic_lags(ny)},
            {lag: _frozen(np.abs(x[lag:] - x[:-lag]) ** alpha) for lag in _dyadic_lags(nx)})


def _holder_seminorm_2d(A, grid: Grid2D, alpha: float, spans=None) -> list[float]:
    """Per sheet, max |A(p) - A(q)| / dist(p, q)^alpha over its slots' row and
    column pairs at dyadic lags, evaluated best bound first (see the module
    docstring).

    ``A`` is a (slots, sheets, nx, ny) stack, a view of any strides included.
    A caller that has each array's extrema passes ``spans``, per sheet the
    largest max - min among its slots.
    """
    A = np.asarray(A)
    diff = np.empty(A.shape)                    # one C-contiguous buffer for every lag
    dy, dx = _lag_distances(grid, alpha)

    def y_value(lag, sheets=slice(None)):
        return _y_lag(A[:, sheets], lag, diff[:, sheets], (0, 2, 3)) / dy[lag]

    def x_value(lag, sheets=slice(None)):
        return (_x_lag(A[:, sheets], lag, diff[:, sheets]) / dx[lag]).max(axis=-1)

    if spans is None:
        spans = (A.max(axis=(2, 3)) - A.min(axis=(2, 3))).max(axis=0)
    if not np.isfinite(spans).all():
        # NaN or overflow: the bounds do not hold, so every lag (np.maximum keeps a NaN)
        best = 0.0
        for value, lags in ((y_value, dy), (x_value, dx)):
            for lag in lags:
                best = np.maximum(best, value(lag))
        return best.tolist()

    m1 = _y_lag(A, 1, diff, (0, 2, 3))
    rows = _x_lag(A, 1, diff)                   # B_1[s, r]
    best = np.maximum(m1 / dy[1], (rows / dx[1]).max(axis=-1)).tolist()
    slack = 1.0 + 1e-12
    pairs = list(zip(spans.tolist(), m1.tolist()))
    todo = [([min(span, min(lag, grid.ny - lag) * m) * slack / dy[lag] for span, m in pairs],
             y_value, lag) for lag in list(dy)[1:]]
    for lag in list(dx)[:-1]:
        rows = rows[:, :-lag] + rows[:, lag:]   # B_2L[r] = B_L[r] + B_L[r + L]
        todo.append(((np.minimum(rows, spans[:, None]) * slack / dx[2 * lag]).max(axis=-1)
                     .tolist(), x_value, 2 * lag))
    for bounds, value, lag in sorted(todo, key=lambda t: -max(t[0])):
        if max(bounds) <= min(best):
            break
        need = [s for s, bound in enumerate(bounds) if bound > best[s]]
        if need:
            # one pass over the sheets from the first to the last that need it
            sheets = slice(need[0], need[-1] + 1)
            for s, found in enumerate(value(lag, sheets).tolist(), sheets.start):
                best[s] = max(best[s], found)
    return best


def _holder_seminorm_1d(values: np.ndarray, alpha: float) -> float:
    """Divided differences at dyadic lags along the periodic last axis."""
    n = values.shape[-1]
    diff = np.empty(values.shape)
    best = 0.0
    for lag in _dyadic_lags(n):
        d = min(lag, n - lag) / n
        best = np.maximum(best, _y_lag(values, lag, diff) / d ** alpha)   # keeps a NaN
    return float(best)


def norm_proxy(u: TripleField, alpha: float, order: int = 2) -> float:
    """Discrete stand-in for the C^{order, alpha} norm of a triple field.

    The sum over the sheets of the grid maximum of every derivative up to
    ``order`` plus the Hoelder seminorm of the top ones.  Each sheet is read
    in place: its row of the values, and views of its rows of the jet block
    (order 0 computes no jet).  The extrema of every array of every sheet
    come from one max and one min pass over the values and one over the
    block, and serve both the sups and the seminorms' spans.
    """
    v = u.values
    hi, lo = v.max(axis=(1, 2)), v.min(axis=(1, 2))
    sups, spans, tops = np.maximum(hi, -lo), hi - lo, v[None]
    if order:
        # jet slots u_x, u_y, then u_yy, u_xy, u_xx: the top ones are the last
        derivs = u._jet_block[:2] if order == 1 else u._jet_block
        hi, lo = derivs.max(axis=(2, 3)), derivs.min(axis=(2, 3))
        sups = np.maximum(sups, np.maximum(hi.max(axis=0), -lo.min(axis=0)))
        spans = (hi - lo)[-order - 1:].max(axis=0)
        tops = derivs[-order - 1:]
    seminorms = []
    for sheets in u.grid.sheet_groups():
        seminorms += _holder_seminorm_2d(tops[:, sheets], u.grid, alpha, spans[sheets])
    total = 0.0
    for i in range(3):
        total += float(sups[i]) + seminorms[i]
    return total


def periodic_proxy(values: np.ndarray, alpha: float, order: int = 2) -> float:
    """Discrete C^{order, alpha} proxy of a periodic map sampled on the y grid."""
    values = np.asarray(values, dtype=float)
    derivs = [values]
    for _ in range(order):
        derivs.append(spectral.fourier_derivative(derivs[-1], 1))
    sup_part = float(np.max([np.abs(d).max() for d in derivs]))      # keeps a NaN
    return sup_part + _holder_seminorm_1d(derivs[-1], alpha)


def boundary_proxy(phi: BoundaryTriple, alpha: float, order: int = 2) -> float:
    return sum(periodic_proxy(row, alpha, order) for row in phi.values)
