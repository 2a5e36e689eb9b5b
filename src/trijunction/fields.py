"""Discrete scalar and triple fields on [0, 1] x S^1.

A field is sampled on a tensor grid: Chebyshev-Lobatto in x (so the two
boundary circles are grid rows), equispaced in the periodic y direction.
Differentiation is spectral in both directions.  Norms of Hoelder type are
not finitely computable, so this module provides discrete *proxies*: the
grid maximum of the function and its derivatives plus a divided-difference
seminorm of the top derivatives sampled at dyadic lags along grid rows and
columns.  The proxies drive guards and diagnostics only, never the solve
path.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
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
    """Spectral first and second derivatives of one field, read-only (nx, ny) arrays."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray


@dataclass(frozen=True)
class ScalarField:
    """Real samples of shape (nx, ny); immutable, implicitly 1-periodic in y."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(f"values shape {v.shape} does not match grid "
                             f"({self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        return cls(grid, fn(X, Y))

    @classmethod
    def zero(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def jet(self) -> Jet:
        """Every derivative of total order <= 2, computed once per field.

        The x-derivatives share one Chebyshev coefficient pass; the field is
        immutable, so the cached arrays never go stale.
        """
        v = self.values
        ux, uxx = spectral.cheb_derivative_values(v, (1, 2))
        jet = Jet(ux=ux, uy=spectral.fourier_derivative(v, 1, axis=1), uxx=uxx,
                  uxy=spectral.fourier_derivative(ux, 1, axis=1),
                  uyy=spectral.fourier_derivative(v, 2, axis=1))
        for a in jet:
            a.flags.writeable = False
        return jet

    def eval(self, x, y) -> np.ndarray:
        """Spectral interpolation at arbitrary points (Fourier in y, barycentric in x)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        c, s = spectral.fourier_coefficients(self.values, axis=1)
        cols = spectral.trig_eval(c, s, y.reshape(-1))      # (nx, q)
        xq = x.reshape(-1)
        # column-wise barycentric interpolation at per-point x targets
        nodes = self.grid.x
        w = spectral._bary_weights(self.grid.nx)
        diff = xq[None, :] - nodes[:, None]
        hit = np.isclose(diff, 0.0, rtol=0.0, atol=1e-15)
        kern = w[:, None] / np.where(hit, 1.0, diff)
        flat = (kern * cols).sum(axis=0) / kern.sum(axis=0)
        rows, q = np.nonzero(hit)
        if rows.size:
            flat[q] = cols[rows, q]
        return flat.reshape(x.shape) if x.shape else float(flat[0])


def _check_same_grid(a: Grid2D, b: Grid2D):
    if a != b:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class TripleField:
    """Three scalar fields (one per sheet) on a shared grid."""

    components: tuple[ScalarField, ScalarField, ScalarField]

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("a triple field has exactly three components")
        g = self.components[0].grid
        for f in self.components[1:]:
            _check_same_grid(g, f.grid)

    @classmethod
    def from_arrays(cls, grid: Grid2D, arrays) -> "TripleField":
        return cls(tuple(ScalarField(grid, a) for a in arrays))

    @classmethod
    def zero(cls, grid: Grid2D) -> "TripleField":
        return cls.from_arrays(grid, [np.zeros((grid.nx, grid.ny))] * 3)

    @property
    def grid(self) -> Grid2D:
        return self.components[0].grid

    def sheet(self, i: int) -> ScalarField:
        """Component for sheet i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise ValueError("sheet index must be 1, 2 or 3")
        return self.components[i - 1]

    def traces(self, end: str = "inner") -> np.ndarray:
        """(3, ny) boundary rows of the components."""
        return np.stack([trace(f, end) for f in self.components])

    def __add__(self, other: "TripleField") -> "TripleField":
        return TripleField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "TripleField") -> "TripleField":
        return TripleField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar: float) -> "TripleField":
        return TripleField(tuple(f * scalar for f in self.components))

    __rmul__ = __mul__

    def sup(self) -> float:
        return max(f.sup() for f in self.components)


@dataclass(frozen=True)
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

    @classmethod
    def from_functions(cls, ny: int, fns) -> "BoundaryTriple":
        y = spectral.fourier_nodes(ny)
        return cls(ny, np.stack([np.asarray(fn(y), dtype=float) for fn in fns]))

    def component(self, i: int) -> np.ndarray:
        if i not in (1, 2, 3):
            raise ValueError("component index must be 1, 2 or 3")
        return self.values[i - 1]

    def __mul__(self, scalar: float) -> "BoundaryTriple":
        return BoundaryTriple(self.ny, self.values * float(scalar))

    __rmul__ = __mul__

    def aliasing_suspect(self, threshold: float = 1e-8) -> bool:
        return any(spectral.aliasing_fraction(row) > threshold for row in self.values)


# ---------------------------------------------------------------------------
# Spectral calculus on fields
# ---------------------------------------------------------------------------

def diff(field: ScalarField, order_x: int, order_y: int) -> ScalarField:
    """Mixed spectral derivative; order_x + order_y <= 2."""
    if order_x < 0 or order_y < 0 or order_x + order_y > 2:
        raise ValueError("supported derivative orders: total degree <= 2")
    if order_x + order_y == 0:
        return ScalarField(field.grid, field.values)
    return ScalarField(field.grid, getattr(field.jet, "u" + "x" * order_x + "y" * order_y))


def laplacian(field: ScalarField) -> ScalarField:
    return ScalarField(field.grid, field.jet.uxx + field.jet.uyy)


def trace(field: ScalarField, end: str) -> np.ndarray:
    """Boundary row: 'inner' is the x = 0 circle, 'outer' the x = 1 circle."""
    if end == "inner":
        return field.values[0].copy()
    if end == "outer":
        return field.values[-1].copy()
    raise ValueError("end must be 'inner' or 'outer'")


def normal_derivative_inner(field: ScalarField) -> np.ndarray:
    """Outward normal derivative on the inner circle; the normal points in -x."""
    return -field.jet.ux[0]


# ---------------------------------------------------------------------------
# Discrete norm proxies (guards and diagnostics only)
# ---------------------------------------------------------------------------

def _dyadic_lags(n: int) -> list[int]:
    lags, lag = [], 1
    while lag < n:
        lags.append(lag)
        lag *= 2
    return lags


def _holder_seminorm_2d(arrays, grid: Grid2D, alpha: float) -> float:
    """max |A(p) - A(q)| / dist(p, q)^alpha over row/column pairs at dyadic lags."""
    best = 0.0
    x = grid.x
    for A in arrays:
        for lag in _dyadic_lags(grid.ny):
            d = min(lag, grid.ny - lag) / grid.ny
            if d == 0.0:
                continue
            num = np.max(np.abs(np.roll(A, -lag, axis=1) - A))
            best = max(best, num / d ** alpha)
        for lag in _dyadic_lags(grid.nx):
            dx = np.abs(x[lag:] - x[:-lag]) ** alpha
            num = np.max(np.abs(A[lag:, :] - A[:-lag, :]), axis=1)
            best = max(best, float(np.max(num / dx)))
    return best


def _holder_seminorm_1d(values: np.ndarray, alpha: float) -> float:
    n = values.shape[-1]
    best = 0.0
    for lag in _dyadic_lags(n):
        d = min(lag, n - lag) / n
        if d == 0.0:
            continue
        num = np.max(np.abs(np.roll(values, -lag, axis=-1) - values))
        best = max(best, num / d ** alpha)
    return best


def scalar_field_proxy(field: ScalarField, alpha: float, order: int = 2) -> float:
    """Discrete stand-in for the C^{order, alpha} norm of one field."""
    derivs = [[field.values]]
    if order >= 1:
        derivs.append([field.jet.ux, field.jet.uy])
    if order >= 2:
        derivs.append([field.jet.uxx, field.jet.uxy, field.jet.uyy])
    sup_part = max(float(np.max(np.abs(a))) for group in derivs for a in group)
    return sup_part + _holder_seminorm_2d(derivs[-1], field.grid, alpha)


def norm_proxy(u: TripleField, alpha: float) -> float:
    """Triple proxy: sum of the per-sheet proxies."""
    return sum(scalar_field_proxy(f, alpha) for f in u.components)


def triple_field_proxy(u: TripleField, alpha: float, order: int) -> float:
    return sum(scalar_field_proxy(f, alpha, order) for f in u.components)


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


# ---------------------------------------------------------------------------
# CSV serialization (debugging / cross-tool comparison)
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def field_to_csv(field: ScalarField, delta: float, header: dict | None = None) -> str:
    lines = []
    for key, val in (header or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append("nx,ny,delta")
    lines.append(f"{field.grid.nx},{field.grid.ny},{delta!r}")
    for row in field.values:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def save_field_csv(field: ScalarField, path: str, delta: float, header: dict | None = None):
    atomic_write_text(path, field_to_csv(field, delta, header))


def load_field_csv(path: str) -> tuple[ScalarField, float, dict]:
    """Inverse of :func:`save_field_csv`; returns (field, delta, header dict)."""
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    nx = ny = None
    delta = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    header[key.strip()] = val.strip()
                continue
            if nx is None:
                if line != "nx,ny,delta":
                    raise ValueError(f"unexpected CSV header line: {line!r}")
                nx = -1
                continue
            if nx == -1:
                a, b, c = line.split(",")
                nx, ny, delta = int(a), int(b), float(c)
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if nx is None or nx == -1:
        raise ValueError("malformed field CSV: missing size header")
    values = np.array(rows)
    grid = Grid2D(nx, ny)
    return ScalarField(grid, values), delta, header


def warn_if_aliased(values: np.ndarray, label: str, threshold: float = 1e-8,
                    floor: float = 0.0) -> bool:
    """Flag periodic data whose top-third spectral energy is non-negligible.

    Data below ``floor`` in sup norm is skipped: round-off-level inputs have
    white spectra and would trip the relative check meaninglessly.
    """
    values = np.asarray(values, dtype=float)
    if float(np.max(np.abs(values))) <= floor:
        return False
    frac = spectral.aliasing_fraction(values, axis=-1)
    if frac > threshold:
        warnings.warn(f"{label}: top-third spectral energy fraction {frac:.3e} "
                      f"exceeds {threshold:.0e}", AliasingWarning, stacklevel=3)
        return True
    return False
