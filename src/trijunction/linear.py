"""Linear solver for the coupled junction system.

The linearized problem asks for three heights with prescribed interior
forcing, prescribed outer (x = 1) traces, and junction conditions on the
inner circle: the traces sum to zero and two Neumann combinations match
given data.  The change of variables

    v1 = u1 + u2 + u3,   v2 = u2 - u3,   v3 = u1 - (u2 + u3) / 2

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from . import spectral
from .fields import (BoundaryTriple, ScalarField, TripleField, checked_fourier_coefficients,
                     csv_text, normal_derivative_inner)

Kind = Literal["dirichlet", "mixed"]


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

    ``f`` is (nx, m) on the Lobatto grid; ``lam2``, ``phi`` and ``g`` are
    scalars or (m,) arrays of per-column (2 pi k)^2 and boundary data.
    """
    V, V_inv, w, phi_col, g_col, a0_row, a0_phi, a0_g = _mode_basis(f.shape[0], kind)
    rhs = f[1:-1] - phi_col[:, None] * phi - g_col[:, None] * g
    a = np.empty_like(f)
    a[1:-1] = V @ ((V_inv @ rhs) / (w[:, None] - lam2))
    a[0] = a0_row @ a[1:-1] + a0_phi * phi + a0_g * g
    a[-1] = phi
    return a


def _interior_defect(a: np.ndarray, lam2, f: np.ndarray) -> np.ndarray:
    """Max interior |a'' - lam2 a - f| over the node axis (per column)."""
    res = spectral.cheb_diff2_matrix(a.shape[0]) @ a - lam2 * a - f
    return np.max(np.abs(res[1:-1]), axis=0)


# ---------------------------------------------------------------------------
# Scalar solvers on the full grid
# ---------------------------------------------------------------------------

def _solve_scalar(f: ScalarField, phi_out: np.ndarray, g: np.ndarray | None,
                  kind: Kind, debug: list | None) -> ScalarField:
    grid = f.grid
    phi_out = np.asarray(phi_out, dtype=float)
    scale = max(float(np.max(np.abs(f.values))), float(np.max(np.abs(phi_out))),
                0.0 if g is None else float(np.max(np.abs(g))))
    floor = 5e-14 * max(1.0, scale)
    fc, fs = checked_fourier_coefficients(f.values, "forcing", floor=floor)
    pc, ps = checked_fourier_coefficients(phi_out, "outer boundary data", floor=floor)
    if g is not None:
        gc, gs = checked_fourier_coefficients(g, "inner Neumann data", floor=floor)
    else:
        gc = gs = np.zeros(pc.shape)

    # one column per cos and per sin mode; the sin parts of k = 0 and of the
    # Nyquist mode vanish on the even grid and solve to exact zeros
    K = grid.ny // 2
    lam2 = np.tile((2.0 * math.pi * np.arange(K + 1)) ** 2, 2)
    rhs = np.hstack([fc, fs])
    a = _solve_modes(kind, lam2, rhs, np.concatenate([pc, ps]), np.concatenate([gc, gs]))
    if debug is not None:
        residual = _interior_defect(a, lam2, rhs).reshape(2, K + 1)
        debug.extend({"k": k, "part": part, "kind": kind, "path": "collocation",
                      "residual": float(residual[j, k])}
                     for k in range(K + 1) for j, part in enumerate(("cos", "sin"))
                     if part == "cos" or 0 < k < K)
    return ScalarField(grid, spectral.fourier_synthesis(a[:, :K + 1], a[:, K + 1:],
                                                        grid.ny, axis=1))


def solve_dirichlet(f: ScalarField, phi_out: np.ndarray,
                    debug: list | None = None) -> ScalarField:
    """Solve Lap v = f with v(0, .) = 0 and v(1, .) = phi_out."""
    return _solve_scalar(f, phi_out, None, "dirichlet", debug)


def solve_mixed(f: ScalarField, g: np.ndarray, phi_out: np.ndarray,
                debug: list | None = None) -> ScalarField:
    """Solve Lap v = f with outward normal derivative g at x = 0, v(1, .) = phi_out."""
    return _solve_scalar(f, phi_out, g, "mixed", debug)


# ---------------------------------------------------------------------------
# Decoupling / recomposition of the triple system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoupledProblems:
    """The three scalar problems produced from (F, G, phi)."""

    dirichlet_f: ScalarField
    dirichlet_phi: np.ndarray
    diff_f: ScalarField             # v2 = u2 - u3
    diff_g: np.ndarray
    diff_phi: np.ndarray
    mean_f: ScalarField             # v3 = u1 - (u2 + u3)/2
    mean_g: np.ndarray
    mean_phi: np.ndarray


def decouple(F: TripleField, G: tuple[np.ndarray, np.ndarray],
             phi: BoundaryTriple) -> DecoupledProblems:
    """Split the coupled junction system into its three scalar problems.

    Linearity of the Laplacian forces the forcing of the difference problem
    to be F_2 - F_3 (matching v2 = u2 - u3).
    """
    F1, F2, F3 = (F.sheet(i) for i in (1, 2, 3))
    G1, G2 = (np.asarray(g, dtype=float) for g in G)
    p1, p2, p3 = (phi.component(i) for i in (1, 2, 3))
    return DecoupledProblems(
        dirichlet_f=F1 + F2 + F3,
        dirichlet_phi=p1 + p2 + p3,
        diff_f=F2 - F3,
        diff_g=G1,
        diff_phi=p2 - p3,
        mean_f=F1 - 0.5 * (F2 + F3),
        mean_g=G2,
        mean_phi=p1 - 0.5 * (p2 + p3),
    )


def recompose(v1: ScalarField, v2: ScalarField, v3: ScalarField) -> TripleField:
    """Invert the decoupling: exact linear-algebra identity."""
    u1 = (1.0 / 3.0) * (v1 + 2.0 * v3)
    u2 = (1.0 / 3.0) * (v1 - v3) + 0.5 * v2
    u3 = (1.0 / 3.0) * (v1 - v3) - 0.5 * v2
    return TripleField((u1, u2, u3))


def boundary_operator(u: TripleField) -> np.ndarray:
    """(3, ny) rows: trace sum, dn u2 - dn u3, dn u1 - (dn u2 + dn u3)/2 at x = 0."""
    tr = u.traces()
    dn = np.stack([normal_derivative_inner(u.sheet(i)) for i in (1, 2, 3)])
    return np.stack([
        tr.sum(axis=0),
        dn[1] - dn[2],
        dn[0] - 0.5 * (dn[1] + dn[2]),
    ])


def solve_linear_system(F: TripleField, G: tuple[np.ndarray, np.ndarray],
                        phi: BoundaryTriple, debug: list | None = None) -> TripleField:
    """Solve the coupled system: Lap u = F, junction conditions (0, G1, G2), u(1,.) = phi."""
    probs = decouple(F, G, phi)
    v1 = solve_dirichlet(probs.dirichlet_f, probs.dirichlet_phi, debug)
    v2 = solve_mixed(probs.diff_f, probs.diff_g, probs.diff_phi, debug)
    v3 = solve_mixed(probs.mean_f, probs.mean_g, probs.mean_phi, debug)
    return recompose(v1, v2, v3)


def mode_debug_csv(records: list[dict]) -> str:
    return csv_text("k,part,kind,path,residual", "%d,%s,%s,%s,%.6e",
                    ((r["k"], r["part"], r["kind"], r["path"], r["residual"]) for r in records))
