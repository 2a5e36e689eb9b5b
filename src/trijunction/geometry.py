"""Static geometry of the triple junction Y x S^1 and its perturbations.

The unperturbed configuration is the product of the plane cone Y (three rays
meeting at 120 degrees) with the unit circle.  Each sheet i carries a unit
ray direction -n_i and a unit normal nu_i (n_i rotated by +90 degrees).
A perturbation is described by three height functions u_i on [0, 1] x S^1;
sheet i is the image of

    (x, y)  ->  (-x n_i + u_i(x, y) nu_i + eta(x) w_i(y),  y),

where w_i is the junction offset built from the inner boundary traces and
eta is a C^2 cutoff equal to 1 near the junction and 0 past 2*delta.  The
offset makes all three sheets meet along a common curve (the spine) whenever
the traces sum to zero pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral
from .fields import TripleField

SQRT3 = math.sqrt(3.0)


class CompatibilityViolation(ValueError):
    """Inner traces do not sum to zero, so the sheets cannot share a spine."""


def _check_sheet(i: int):
    if i not in (1, 2, 3):
        raise ValueError(f"sheet index must be 1, 2 or 3, got {i!r}")


# the standard frame: n_1 = (-1, 0), the others rotated by +-120 degrees;
# nu_i is n_i rotated by +90 degrees.  One row per sheet, read-only.
N = np.array([[-1.0, 0.0], [0.5, -SQRT3 / 2.0], [0.5, SQRT3 / 2.0]])
NU = np.array([[0.0, -1.0], [SQRT3 / 2.0, 0.5], [-SQRT3 / 2.0, 0.5]])
N.flags.writeable = NU.flags.writeable = False


@dataclass(frozen=True, eq=False)
class JunctionFrame:
    """The six unit vectors of the junction: ray directions n_i, normals nu_i,
    row i - 1 for sheet i.

    Only the standard frame (:data:`N`, :data:`NU`) is meant: the closed forms
    of :func:`wall_scalars` (the 1/sqrt 3 and the cyclic rows), G's -2/sqrt 3
    and ``linear.DECOUPLE``'s Neumann rows hold for it alone.
    """

    n: np.ndarray           # (3, 2)
    nu: np.ndarray          # (3, 2)


FRAME = JunctionFrame(N, NU)


def frame_vectors() -> JunctionFrame:
    """A new frame of the standard vectors :data:`N` and :data:`NU`."""
    return JunctionFrame(N, NU)


@dataclass(frozen=True)
class CutoffProfile:
    """C^2 cutoff: 1 on [0, delta], 0 on [2 delta, 1], quintic in between.

    The transition is the quintic smoothstep s(t) = 6t^5 - 15t^4 + 10t^3
    applied to t = (2 delta - x) / delta.  Its slope is at most 15/(8 delta),
    inside the required bound 2/delta, and s', s'' vanish at both joins.
    """

    delta: float = 0.25

    def __post_init__(self):
        if not 1.8e-154 <= self.delta < 0.5:    # eta'' = 10/(sqrt(3) delta^2) overflows below
            raise ValueError(f"delta must lie in [1.8e-154, 1/2), got {self.delta!r}")

    def __call__(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (eta, eta', eta'') at x; x must lie in [0, 1]."""
        x = np.asarray(x, dtype=float)
        if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
            raise ValueError("cutoff argument outside [0, 1]")
        d = self.delta
        t = np.clip((2.0 * d - x) / d, 0.0, 1.0)
        eta = t ** 3 * (6.0 * t ** 2 - 15.0 * t + 10.0)
        dsdt = 30.0 * t ** 2 * (t - 1.0) ** 2
        d2sdt2 = 60.0 * t * (2.0 * t - 1.0) * (t - 1.0)
        eta1 = dsdt * (-1.0 / d)
        eta2 = d2sdt2 / d ** 2
        plateau = (x <= d) | (x >= 2.0 * d)
        eta = np.where(x <= d, 1.0, np.where(x >= 2.0 * d, 0.0, eta))
        eta1 = np.where(plateau, 0.0, eta1)
        eta2 = np.where(plateau, 0.0, eta2)
        if eta.ndim == 0:
            return float(eta), float(eta1), float(eta2)
        return eta, eta1, eta2

    @property
    def smallness_radius(self) -> float:
        """delta/10: the proxy radius of the smallness regime, the default trust radius."""
        return self.delta / 10.0

    @lru_cache(maxsize=None)
    def on_grid(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eta, eta', eta'') at the grid's x nodes, read-only (nx, 1) columns, once per grid."""
        columns = np.stack(self(grid.x))[..., None]
        columns.flags.writeable = False
        return tuple(columns)


# ---------------------------------------------------------------------------
# Junction offsets and the spine
# ---------------------------------------------------------------------------

def wall_scalars(traces: np.ndarray) -> np.ndarray:
    """(3, ny) array of <w_i, n_i> = (u_{i-1}(0,.) - u_{i+1}(0,.)) / sqrt(3)."""
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2 or traces.shape[0] != 3:
        raise ValueError("traces must have shape (3, ny)")
    return (traces[[2, 0, 1]] - traces[[1, 2, 0]]) / SQRT3


def check_compatibility(traces: np.ndarray):
    """Raise :class:`CompatibilityViolation` unless sum_i u_i(0, y) = 0 within 1e-10."""
    defect = float(np.max(np.abs(np.asarray(traces, dtype=float).sum(axis=0))))
    if defect > 1e-10:
        raise CompatibilityViolation(
            f"trace sum reaches {defect:.3e} (tolerance 1.0e-10); "
            "the three sheets do not meet along a common spine")


def spine_samples(rows: np.ndarray, frame: JunctionFrame = FRAME) -> np.ndarray:
    """The sheet-1 formula v = <w_1, n_1> n_1 + u_1 nu_1 on (3, ny) rows, shape (2, ny).

    On the inner traces it is the spine at the y nodes (all three sheets'
    formulas agree when the traces pass :func:`check_compatibility`, which
    it does not check); it is linear, so on the rows of d_y u(0, .) it is v'.
    """
    rows = np.asarray(rows, dtype=float)
    return np.outer(frame.n[0], wall_scalars(rows)[0]) + np.outer(frame.nu[0], rows[0])


# ---------------------------------------------------------------------------
# Sheet parametrization
# ---------------------------------------------------------------------------

def embed_point(i: int, x, y, u: TripleField, frame: JunctionFrame,
                cutoff: CutoffProfile) -> np.ndarray:
    """Map parameter points of sheet i into R^2 x S^1 (unrolled as R^3).

    Returns (..., 3) arrays (p1, p2, y); scalar inputs give a flat (3,)
    point.  Heights are interpolated spectrally, so (x, y) need not be grid
    points.
    """
    _check_sheet(i)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    nx = u.grid.nx
    # one trigonometric interpolation of the sheet's rows and the three inner
    # traces; the wall is the formula of the interpolated traces
    cols = spectral.fourier_interpolate(np.concatenate([u.values[i - 1], u.traces()]),
                                        y.reshape(-1))              # (nx + 3, q)
    ui = spectral.bary_eval(cols[:nx], x)
    wi = wall_scalars(cols[nx:])[i - 1].reshape(x.shape)
    eta, _, _ = cutoff(x)
    p = _sheet_map(i, x, ui, eta * wi, frame)
    return np.concatenate([p, np.mod(y, 1.0)[..., None]], axis=-1)


def _sheet_map(i: int, x, height, offset, frame: JunctionFrame) -> np.ndarray:
    """(p1, p2) of sheet i: -x n_i + u_i nu_i + eta w_i n_i, broadcast over the inputs."""
    return (np.multiply.outer(-x, frame.n[i - 1])
            + np.multiply.outer(height, frame.nu[i - 1])
            + np.multiply.outer(offset, frame.n[i - 1]))


# ---------------------------------------------------------------------------
# Embeddedness
# ---------------------------------------------------------------------------

def embed_margin(u: TripleField, cutoff: CutoffProfile) -> float:
    """min over (i, x, y) of 1 - eta'(x) <w_i, n_i>(y): positive keeps each sheet a graph."""
    w = wall_scalars(u.traces())                # (3, ny)
    _, eta1, _ = cutoff.on_grid(u.grid)         # (nx, 1)
    # the product is largest at a corner of the box of its factors, and
    # rounding is monotone, so the four corner products give the minimum over
    # the whole grid exactly
    return float(min(1.0 - e * wv for e in (eta1.min(), eta1.max())
                     for wv in (w.min(), w.max())))


# ---------------------------------------------------------------------------
# Surface meshing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Triangulated union of the three sheets in unrolled (p1, p2, y) coordinates."""

    vertices: np.ndarray        # (nv, 3)
    faces: np.ndarray           # (nf, 3), 0-based indices
    face_sheet: np.ndarray      # (nf,) sheet tag in {1, 2, 3}


def check_mesh_resolution(resolution: tuple[int, int]):
    """Raise ValueError unless the mesh has at least 2 points in x and 3 in y."""
    mx, my = resolution
    if mx < 2 or my < 3:
        raise ValueError(f"mesh resolution must be at least 2x3, got {mx}x{my}")


def mesh_surface(u: TripleField, resolution: tuple[int, int], cutoff: CutoffProfile,
                 frame: JunctionFrame = FRAME) -> SurfaceMesh:
    """Triangulate the perturbed surface.

    The y seam at 0 is cut (vertices at y = 0 and y = 1 are distinct), and
    the spine row is shared by the three sheets so the junction is watertight.
    The sheet parametrization of :func:`embed_point` is evaluated on the
    tensor grid at once: the trigonometric interpolant of the three sheets
    at the mesh y's, then one barycentric matrix for the mesh x's; the spine
    and the walls are the formulas of the interpolated traces.
    """
    check_mesh_resolution(resolution)
    mx, my = resolution
    xs = np.linspace(0.0, 1.0, mx)[1:]          # x = 0 is the spine row
    ys = np.linspace(0.0, 1.0, my + 1)          # duplicated seam

    cols = spectral.fourier_interpolate(u.values, ys)               # (3, nx, my+1)
    heights = spectral.bary_matrix(u.grid.nx, xs) @ cols           # (3, mx-1, my+1)
    # the interpolated traces are row x = 0; meshing never refuses incompatible ones
    spine_pts = np.column_stack([*spine_samples(cols[:, 0], frame), ys])
    walls = wall_scalars(cols[:, 0])
    eta, _, _ = cutoff(xs)
    verts = [spine_pts]
    for i in (1, 2, 3):
        p = _sheet_map(i, xs[:, None], heights[i - 1], np.outer(eta, walls[i - 1]), frame)
        z = np.broadcast_to(ys, p.shape[:2])[..., None]
        verts.append(np.concatenate([p, z], axis=-1).reshape(-1, 3))

    # vertex ids on each sheet's (mx, my+1) grid: row 0 is the shared spine
    per_sheet = (mx - 1) * (my + 1)
    ids = np.empty((3, mx, my + 1), dtype=int)
    ids[:, 0] = np.arange(my + 1)
    ids[:, 1:] = (my + 1 + np.arange(3 * per_sheet)).reshape(3, mx - 1, my + 1)
    a, b = ids[:, :-1, :-1], ids[:, 1:, :-1]
    c, d = ids[:, 1:, 1:], ids[:, :-1, 1:]
    # two triangles per cell, cells in (x, y) order within each sheet
    faces = np.stack([np.stack([a, b, c], axis=-1),
                      np.stack([a, c, d], axis=-1)], axis=3).reshape(-1, 3)
    vertices = np.vstack(verts)
    faces.flags.writeable = vertices.flags.writeable = False
    return SurfaceMesh(
        vertices=vertices,
        faces=faces,
        face_sheet=np.repeat([1, 2, 3], 2 * (mx - 1) * my),
    )
