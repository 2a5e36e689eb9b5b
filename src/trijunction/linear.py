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
solves all modes with two matrix products.  The closed-form formula path,
an independent check of this solve, lives in :mod:`trijunction.oracles`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal

import numpy as np

from . import spectral
from .fields import BoundaryTriple, TripleField, checked_fourier_coefficients

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


def _solve_modes(kind: Kind, lam2, f: np.ndarray, phi, g) -> np.ndarray:
    """Solve a'' - lam2 a = f for every column of ``f`` at once.

    ``f`` is (nx, m) on the Lobatto grid or a (p, nx, m) stack of such
    blocks; ``lam2`` is a scalar or the (m,) per-column (2 pi k)^2, and
    ``phi``, ``g`` are scalars or per-column data, (1, m) or (p, 1, m).  Each
    product runs block by block, so a block solves bit for bit as alone.
    """
    V, V_inv, w, phi_col, g_col, a0_row, a0_phi, a0_g = _mode_basis(f.shape[-2], kind)
    rhs = f[..., 1:-1, :] - phi_col[:, None] * phi - g_col[:, None] * g
    a = np.empty_like(f)
    a[..., 1:-1, :] = V @ ((V_inv @ rhs) / (w[:, None] - lam2))
    a[..., :1, :] = a0_row[None] @ a[..., 1:-1, :] + a0_phi * phi + a0_g * g
    a[..., -1:, :] = phi
    return a


def _interior_defect(a: np.ndarray, lam2, f: np.ndarray) -> np.ndarray:
    """Max interior |a'' - lam2 a - f| over the node axis (per column), for
    ``a`` and ``f`` shaped as in :func:`_solve_modes`."""
    res = spectral.cheb_diff2_matrix(a.shape[-2]) @ a - lam2 * a - f
    return np.abs(res[..., 1:-1, :]).max(axis=-2)


# ---------------------------------------------------------------------------
# The scalar solve on the full grid
# ---------------------------------------------------------------------------

def _check_ny(ny: int, *named):
    """Raise ValueError naming the first given (name, array) whose last axis is not ny long."""
    for name, a in named:
        if a is not None and np.shape(a)[-1:] != (ny,):
            raise ValueError(f"{name} has shape {np.shape(a)}; the forcing has ny = {ny}")


def _solve_stack(f: np.ndarray, p: np.ndarray, g: np.ndarray, debug: list | None) -> np.ndarray:
    """Solve Lap v_j = f_j, v_j(1, .) = p_j for (m, nx, ny) forcing and (m, ny) outer data.

    The last len(g) problems are of mixed kind with Neumann data ``g``, the
    others of Dirichlet kind.  One Fourier analysis per input kind, one mode
    solve per problem kind and one synthesis serve all m problems; each
    problem's aliasing check keeps its own floor.
    """
    m, _, ny = f.shape
    nd = m - len(g)
    scale = np.maximum(np.abs(f).max(axis=(1, 2)), np.abs(p).max(axis=1))
    scale[nd:] = np.maximum(scale[nd:], np.abs(g).max(axis=1))
    floor = 5e-14 * np.maximum(1.0, scale)
    # per problem, one column per cos and per sin mode; the sin parts of k = 0
    # and of the Nyquist mode vanish on the even grid and solve to exact zeros
    rhs, data, neumann = (np.concatenate(checked_fourier_coefficients(x, label, fl), axis=-1)
                          for x, label, fl in ((f, "forcing", floor),
                                               (p[:, None], "outer boundary data", floor),
                                               (g[:, None], "inner Neumann data", floor[nd:])))
    K = ny // 2
    lam2 = np.tile((2.0 * math.pi * np.arange(K + 1)) ** 2, 2)
    a = np.concatenate([_solve_modes("dirichlet", lam2, rhs[:nd], data[:nd], 0.0),
                        _solve_modes("mixed", lam2, rhs[nd:], data[nd:], neumann)])
    if debug is not None:
        residual = _interior_defect(a, lam2, rhs).reshape(m, 2, K + 1)
        debug.extend({"k": k, "part": part, "kind": "dirichlet" if j < nd else "mixed",
                      "path": "collocation", "residual": float(residual[j, i, k])}
                     for j in range(m) for k in range(K + 1)
                     for i, part in enumerate(("cos", "sin")) if part == "cos" or 0 < k < K)
    return spectral.fourier_synthesis(a[..., :K + 1], a[..., K + 1:], ny)


def solve_scalar(f: np.ndarray, phi_out: np.ndarray, g: np.ndarray | None = None,
                 debug: list | None = None) -> np.ndarray:
    """Solve Lap v = f on (nx, ny) samples with v(1, .) = phi_out.

    Without ``g`` the problem is of Dirichlet kind, v(0, .) = 0; with it, of
    mixed kind, with outward normal derivative g at x = 0.  A ``debug`` list
    gains one record per solved mode.
    """
    f = np.asarray(f, dtype=float)
    _check_ny(f.shape[-1], ("phi_out", phi_out), ("g", g))
    g = np.empty((0, f.shape[-1])) if g is None else np.asarray(g, dtype=float)[None]
    return _solve_stack(f[None], np.asarray(phi_out, dtype=float)[None], g, debug)[0]


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


def solve_linear_system(F: TripleField, G: tuple[np.ndarray, np.ndarray],
                        phi: BoundaryTriple, debug: list | None = None) -> TripleField:
    """Solve the coupled system: Lap u = F, junction conditions (0, G1, G2), u(1,.) = phi.

    The decoupled unknowns v = DECOUPLE u solve one Dirichlet problem (v1)
    and two mixed problems (v2, v3) with Neumann data G1 and G2; u is
    RECOMPOSE v.  A ``debug`` list gains one record per solved mode of v1, v2, v3.
    """
    _check_ny(F.grid.ny, ("phi", phi.values), ("G", G[0]), ("G", G[1]))
    v = _solve_stack(np.tensordot(DECOUPLE, F.values, axes=1), DECOUPLE @ phi.values,
                     np.array(G, dtype=float), debug)
    return TripleField._adopt(F.grid, np.tensordot(RECOMPOSE, v, axes=1))
