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


@dataclass(frozen=True, eq=False)
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

        The x-derivatives share one Chebyshev coefficient pass, u_y and u_yy
        one Fourier pass; the field is immutable, so the cached arrays never
        go stale.
        """
        v = self.values
        ux, uxx = spectral.cheb_derivative_values(v, (1, 2))
        uy, uyy = spectral.fourier_derivative(v, (1, 2), axis=1)
        jet = Jet(ux=ux, uy=uy, uxx=uxx,
                  uxy=spectral.fourier_derivative(ux, 1, axis=1), uyy=uyy)
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
        # point q reads its own column: the diagonal of bary_matrix @ cols
        B = spectral.bary_matrix(self.grid.nx, x)           # (q, nx)
        flat = np.einsum("qj,jq->q", B, cols)
        return flat.reshape(x.shape) if x.shape else float(flat[0])


def _check_same_grid(a: Grid2D, b: Grid2D):
    if a != b:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class TripleField:
    """Heights of the three sheets: one read-only (3, nx, ny) array on one grid.

    ``values`` may also be given as a list of three (nx, ny) arrays.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (3, self.grid.nx, self.grid.ny):
            raise ValueError(f"values shape {v.shape} does not match (3, "
                             f"{self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, grid: Grid2D) -> "TripleField":
        return cls(grid, np.zeros((3, grid.nx, grid.ny)))

    @cached_property
    def _sheets(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        # views into the frozen, already checked array: no copy, no second check
        sheets = tuple(object.__new__(ScalarField) for _ in range(3))
        for f, v in zip(sheets, self.values):
            object.__setattr__(f, "grid", self.grid)
            object.__setattr__(f, "values", v)
        return sheets

    def sheet(self, i: int) -> ScalarField:
        """Sheet i in {1, 2, 3} as a scalar field viewing ``values[i - 1]``."""
        if i not in (1, 2, 3):
            raise ValueError("sheet index must be 1, 2 or 3")
        return self._sheets[i - 1]

    def traces(self, end: str = "inner") -> np.ndarray:
        """(3, ny) boundary rows: 'inner' is the x = 0 circle, 'outer' the x = 1 circle."""
        if end not in ("inner", "outer"):
            raise ValueError("end must be 'inner' or 'outer'")
        return self.values[:, 0 if end == "inner" else -1]

    def __add__(self, other: "TripleField") -> "TripleField":
        _check_same_grid(self.grid, other.grid)
        return TripleField(self.grid, self.values + other.values)

    def __sub__(self, other: "TripleField") -> "TripleField":
        _check_same_grid(self.grid, other.grid)
        return TripleField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "TripleField":
        return TripleField(self.grid, self.values * float(scalar))

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

    def component(self, i: int) -> np.ndarray:
        if i not in (1, 2, 3):
            raise ValueError("component index must be 1, 2 or 3")
        return self.values[i - 1]

    def __mul__(self, scalar: float) -> "BoundaryTriple":
        return BoundaryTriple(self.ny, self.values * float(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Spectral calculus on fields
# ---------------------------------------------------------------------------

def laplacian(field: ScalarField) -> ScalarField:
    return ScalarField(field.grid, field.jet.uxx + field.jet.uyy)


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
    A = np.stack(arrays)
    best = _holder_seminorm_1d(A, alpha)        # the periodic y-lags
    x, nx = grid.x, grid.nx
    diff = np.empty_like(A)                     # one buffer for every lag
    for lag in _dyadic_lags(nx):
        dx = np.abs(x[lag:] - x[:-lag]) ** alpha
        D = np.subtract(A[:, lag:, :], A[:, :-lag, :], out=diff[:, :nx - lag, :])
        num = np.max(np.abs(D, out=D), axis=(0, 2))
        best = max(best, float(np.max(num / dx)))
    return best


def _holder_seminorm_1d(values: np.ndarray, alpha: float) -> float:
    """Divided differences at dyadic lags along the periodic last axis."""
    n = values.shape[-1]
    diff = np.empty_like(values)
    best = 0.0
    for lag in _dyadic_lags(n):
        d = min(lag, n - lag) / n
        # np.roll(values, -lag, axis=-1) - values without the roll copy:
        # the unwrapped part, then the wrap past the seam
        np.subtract(values[..., lag:], values[..., :-lag], out=diff[..., :n - lag])
        np.subtract(values[..., :lag], values[..., n - lag:], out=diff[..., n - lag:])
        best = max(best, float(np.max(np.abs(diff, out=diff))) / d ** alpha)
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


def norm_proxy(u: TripleField, alpha: float, order: int = 2) -> float:
    """Triple proxy: sum of the per-sheet proxies."""
    return sum(scalar_field_proxy(u.sheet(i), alpha, order) for i in (1, 2, 3))


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


def csv_text(columns: str, row_format: str, rows, header: dict | None = None,
             preamble: tuple[str, ...] = ()) -> str:
    """The text of one CSV artifact: a ``# key = value`` comment per header
    entry, the column line, any ``preamble`` lines, then one ``row_format``
    line per row, all rows formatted by one %-format."""
    lines = [f"# {k} = {v}" for k, v in (header or {}).items()]
    lines.append(columns)
    lines.extend(preamble)
    rows = list(rows)
    flat = tuple(v for row in rows for v in row)
    return "\n".join(lines) + "\n" + (row_format + "\n") * len(rows) % flat


def read_csv(path: str) -> tuple[dict[str, str], list[str]]:
    """Inverse of :func:`csv_text` up to parsing: the header dict and the other
    non-blank lines (column line first), stripped."""
    header: dict[str, str] = {}
    lines: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    header[key.strip()] = val.strip()
            elif line:
                lines.append(line)
    return header, lines


def parse_table(lines: list[str]) -> np.ndarray:
    """Comma-separated float rows, parsed in one conversion."""
    return np.array([line.split(",") for line in lines], dtype=float)


def field_to_csv(field: ScalarField, delta: float, header: dict | None = None) -> str:
    return csv_text("nx,ny,delta", ",".join(["%.17g"] * field.grid.ny),
                    field.values.tolist(), header,
                    (f"{field.grid.nx},{field.grid.ny},{delta!r}",))


def save_field_csv(field: ScalarField, path: str, delta: float, header: dict | None = None):
    atomic_write_text(path, field_to_csv(field, delta, header))


def load_field_csv(path: str) -> tuple[ScalarField, float, dict]:
    """Inverse of :func:`save_field_csv`; returns (field, delta, header dict)."""
    header, lines = read_csv(path)
    if lines[:1] != ["nx,ny,delta"] or len(lines) < 2:
        raise ValueError("malformed field CSV: no 'nx,ny,delta' size header")
    a, b, c = lines[1].split(",")
    grid = Grid2D(int(a), int(b))
    return ScalarField(grid, parse_table(lines[2:])), float(c), header


def checked_fourier_coefficients(values: np.ndarray, label: str,
                                 floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin coefficients along the last axis; warn if the top third carries
    more than 1e-8 of the energy.

    The check reads the same coefficients the caller gets, so periodic data
    is analysed once.  Data below ``floor`` in sup norm is not checked:
    round-off-level inputs have white spectra and would trip the relative
    check meaninglessly.
    """
    values = np.asarray(values, dtype=float)
    c, s = spectral.fourier_coefficients(values)
    if float(np.max(np.abs(values))) > floor:
        frac = spectral.aliasing_fraction(c, s, values.shape[-1])
        if frac > 1e-8:
            warnings.warn(f"{label}: top-third spectral energy fraction {frac:.3e} "
                          "exceeds 1e-8", AliasingWarning, stacklevel=3)
    return c, s
