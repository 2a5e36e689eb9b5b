"""Linear solver for the coupled junction system.

The linearized problem asks for three heights with prescribed interior
forcing, prescribed outer (x = 1) traces, and junction conditions on the
inner circle: the traces sum to zero and two Neumann combinations match
given data.  The change of variables v = DECOUPLE u,

    v1 = u1 + u2 + u3,   v2 = u2 - u3,   v3 = u1 - (u2 + u3) / 2,

decouples it into one Dirichlet scalar problem (v1) and two mixed
Neumann/Dirichlet scalar problems (v2, v3).  Each scalar problem is solved
per Fourier mode in y, where it reduces to the two-point ODE
a'' - (2 pi k)^2 a = f_k on [0, 1].  Every mode shares the x operator, so
the Chebyshev collocation solve diagonalizes it once per grid and kind and
solves all modes with two matrix products.

The modes are the raw ``np.fft.rfft`` spectrum X_k, k = 0 .. ny // 2, read
as floats: mode k is the column pair (Re X_k, Im X_k), both solved with
(2 pi k)^2.  The ODE is linear, so each column solves as the cos/sin
coefficient it is a fixed multiple of, and the complex view of the
solutions goes straight back through ``np.fft.irfft``: no coefficient is
rescaled on the way in or out.  A forcing-free solve (zero forcing and zero
Neumann data, as the first Picard step from the cone is) needs no mode
solve: its modes are the outer data's spectrum times the per-mode harmonic
profiles, cached once per grid and kind in the same pair layout.  The
closed-form formula path, an independent check of this solve, lives in
:mod:`trijunction.oracles`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal

import numpy as np

from . import spectral
from .fields import BoundaryTriple, Grid2D, TripleField, checked_spectrum

Kind = Literal["dirichlet", "mixed"]

# the junction change of variables v = DECOUPLE u and its exact inverse; row
# j of DECOUPLE also gives junction condition j (trace sum, then the two
# Neumann combinations)
DECOUPLE = np.array([[1.0, 1.0, 1.0],
                     [0.0, 1.0, -1.0],
                     [1.0, -0.5, -0.5]])
RECOMPOSE = np.array([[1.0, 0.0, 2.0],
                      [1.0, 1.5, -1.0],
                      [1.0, -1.5, -1.0]]) / 3.0
DECOUPLE.flags.writeable = False
RECOMPOSE.flags.writeable = False


# ---------------------------------------------------------------------------
# Chebyshev collocation, all modes at once by matrix diagonalization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mode_basis(nx: int, kind: Kind) -> tuple:
    """Eigenbasis of the collocated mode operator with its boundary rows eliminated.

    Pinned values (a(0) for the Dirichlet kind, a(1) for both) are
    substituted out rather than kept as identity rows, so they hold exactly
    in the solution; for the mixed kind the Neumann row is solved for a(0)
    and eliminated.  What remains acts on the interior values alone as
    B - (2 pi k)^2 I, and B = V diag(w) V^-1 is shared by every k (Haidvogel
    & Zang, J. Comput. Phys. 30, 1979).  Returns (V, V^-1, w, phi_col, g_col,
    a0_row, a0_phi, a0_g): the right-hand-side columns multiplying the data
    phi and g, and a(0) = a0_row . a_interior + a0_phi phi + a0_g g.
    """
    D1 = spectral.cheb_diff_matrix(nx)
    D2 = spectral.cheb_diff2_matrix(nx)
    B = D2[1:-1, 1:-1].copy()
    phi_col = D2[1:-1, -1].copy()
    g_col = a0_row = np.zeros(nx - 2)
    a0_phi = a0_g = 0.0
    if kind == "mixed":
        # Neumann row -D1[0] . a = g, solved for a(0)
        d = D1[0, 0]
        a0_row, a0_phi, a0_g = -D1[0, 1:-1] / d, -D1[0, -1] / d, -1.0 / d
        c0 = D2[1:-1, 0]
        B += np.outer(c0, a0_row)
        phi_col += c0 * a0_phi
        g_col = c0 * a0_g
    w, V = np.linalg.eig(B)
    if np.iscomplexobj(V):
        raise np.linalg.LinAlgError(
            f"{kind} mode operator at nx = {nx} has no real eigenbasis")
    return V, np.linalg.inv(V), w, phi_col, g_col, a0_row, a0_phi, a0_g


def _solve_modes(kind: Kind, lam2, f: np.ndarray, phi, g,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Solve a'' - lam2 a = f for every column of ``f`` at once.

    ``f`` is (nx, m) on the Lobatto grid or a (p, nx, m) stack of such
    blocks; ``lam2`` is a scalar or the (m,) per-column (2 pi k)^2, and
    ``phi``, ``g`` are scalars or per-column data, (1, m) or (p, 1, m).  Each
    product runs block by block, so a block solves bit for bit as alone.
    The solution is written into ``out`` when given, and returned.
    """
    V, V_inv, w, phi_col, g_col, a0_row, a0_phi, a0_g = _mode_basis(f.shape[-2], kind)
    rhs = f[..., 1:-1, :] - phi_col[:, None] * phi - g_col[:, None] * g
    a = np.empty_like(f) if out is None else out
    a[..., 1:-1, :] = V @ ((V_inv @ rhs) / (w[:, None] - lam2))
    a[..., :1, :] = a0_row[None] @ a[..., 1:-1, :] + a0_phi * phi + a0_g * g
    a[..., -1:, :] = phi
    return a


@lru_cache(maxsize=None)
def _mode_lam2(ny: int) -> np.ndarray:
    """Read-only (2 pi k)^2 per mode column of an ny-point grid in the pair
    layout: k = 0 .. ny // 2, each twice, for Re X_k and Im X_k."""
    lam2 = np.repeat((2.0 * math.pi * np.arange(ny // 2 + 1)) ** 2, 2)
    lam2.flags.writeable = False
    return lam2


@lru_cache(maxsize=None)
def _harmonic_profiles(nx: int, ny: int, kind: Kind) -> np.ndarray:
    """Read-only solutions of a'' - (2 pi k)^2 a = 0 with unit outer data and
    zero Neumann data, (nx, m) with the m mode columns of :func:`_mode_lam2`."""
    lam2 = _mode_lam2(ny)
    H = _solve_modes(kind, lam2, np.zeros((nx, lam2.size)), 1.0, 0.0)
    H.flags.writeable = False
    return H


# ---------------------------------------------------------------------------
# The scalar solve on the full grid
# ---------------------------------------------------------------------------

def _check_ny(ny: int, *named):
    """Raise ValueError naming the first given (name, array) whose last axis is not ny long."""
    for name, a in named:
        if a is not None and np.shape(a)[-1:] != (ny,):
            raise ValueError(f"{name} has shape {np.shape(a)}; the forcing has ny = {ny}")


def _solve_stack(nx: int, p: np.ndarray, nd: int, f: np.ndarray | None,
                 g: np.ndarray | None) -> np.ndarray:
    """Solve Lap v_j = f_j, v_j(1, .) = p_j for m problems: (m, ny) outer data
    and (m, nx, ny) forcing ``f`` on an nx-row grid.

    The first ``nd`` problems are of Dirichlet kind, the others of mixed
    kind with (m - nd, ny) Neumann data ``g``; ``f`` and ``g`` None stand for
    zero forcing and zero Neumann data.  One rfft per input kind, one mode
    solve per problem kind and one irfft serve all m problems; each
    problem keeps its own round-off floor, and an input whose sup is not
    above it is not checked for aliasing.  When every forcing and Neumann
    datum is zero, only the outer data is analysed and the modes are its
    spectrum times the cached harmonic profiles.
    """
    m, ny = p.shape
    f_sup = np.zeros(m) if f is None else np.abs(f).max(axis=(1, 2))
    g_sup = np.zeros(m - nd) if g is None else np.abs(g).max(axis=1)
    p_sup = np.abs(p).max(axis=1)
    scale = np.maximum(f_sup, p_sup)
    scale[nd:] = np.maximum(scale[nd:], g_sup)
    floor = 5e-14 * np.maximum(1.0, scale)
    lam2 = _mode_lam2(ny)
    forced = bool(f_sup.any() or g_sup.any())
    rhs = checked_spectrum(f, "forcing", f_sup > floor).view(float) if forced else 0.0
    data = checked_spectrum(p[:, None], "outer boundary data", p_sup > floor).view(float)
    a = np.empty((m, nx, lam2.size))
    if forced:
        neumann = checked_spectrum(g[:, None], "inner Neumann data",
                                   g_sup > floor[nd:]).view(float)
        _solve_modes("dirichlet", lam2, rhs[:nd], data[:nd], 0.0, out=a[:nd])
        _solve_modes("mixed", lam2, rhs[nd:], data[nd:], neumann, out=a[nd:])
    else:
        # forcing-free: each mode is its outer datum times its harmonic profile
        np.multiply(_harmonic_profiles(nx, ny, "dirichlet"), data[:nd], out=a[:nd])
        np.multiply(_harmonic_profiles(nx, ny, "mixed"), data[nd:], out=a[nd:])
    return np.fft.irfft(a.view(complex), n=ny, axis=-1)


def solve_scalar(f: np.ndarray, phi_out: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Solve Lap v = f on (nx, ny) samples with v(1, .) = phi_out.

    Without ``g`` the problem is of Dirichlet kind, v(0, .) = 0; with it, of
    mixed kind, with outward normal derivative g at x = 0."""
    f = np.asarray(f, dtype=float)
    _check_ny(f.shape[-1], ("phi_out", phi_out), ("g", g))
    g = np.empty((0, f.shape[-1])) if g is None else np.asarray(g, dtype=float)[None]
    return _solve_stack(f.shape[0], np.asarray(phi_out, dtype=float)[None], 1 - len(g),
                        f[None], g)[0]


# ---------------------------------------------------------------------------
# The coupled junction system
# ---------------------------------------------------------------------------

def boundary_operator(u: TripleField) -> np.ndarray:
    """(3, ny) junction-condition rows at x = 0: the first row of DECOUPLE
    applied to the traces (their sum), the other two to the outward normal
    derivatives (dn u2 - dn u3, dn u1 - (dn u2 + dn u3)/2); the outward
    normal at x = 0 points in -x, so dn = -d_x."""
    dn = -u.jet.ux[:, 0]
    return np.vstack([DECOUPLE[:1] @ u.traces(), DECOUPLE[1:] @ dn])


def solve_linear_system(F: TripleField, G: np.ndarray, phi: BoundaryTriple) -> TripleField:
    """Solve the coupled system: Lap u = F, junction conditions (0, G), u(1,.) = phi.

    The decoupled unknowns v = DECOUPLE u solve one Dirichlet problem (v1)
    and two mixed problems (v2, v3) with the rows of G as Neumann data; u is
    RECOMPOSE v."""
    grid = F.grid
    G = np.asarray(G, dtype=float)
    _check_ny(grid.ny, ("phi", phi.values), ("G", G))
    f = (DECOUPLE @ F.values.reshape(3, -1)).reshape(F.values.shape)
    v = _solve_stack(grid.nx, DECOUPLE @ phi.values, 1, f, G)
    return _recomposed(grid, v)


def solve_harmonic(phi: BoundaryTriple, grid: Grid2D) -> TripleField:
    """:func:`solve_linear_system` with zero forcing and zero junction data:
    Lap u = 0, junction conditions (0, 0, 0), u(1, .) = phi.

    Builds no zero forcing: the outer data is the one input analysed, and
    the modes are its spectrum times the cached harmonic profiles.
    """
    _check_ny(grid.ny, ("phi", phi.values))
    return _recomposed(grid, _solve_stack(grid.nx, DECOUPLE @ phi.values, 1, None, None))


def _recomposed(grid: Grid2D, v: np.ndarray) -> TripleField:
    """The field u = RECOMPOSE v of the (3, nx, ny) decoupled solutions ``v``."""
    return TripleField._adopt(grid, (RECOMPOSE @ v.reshape(3, -1)).reshape(v.shape))
