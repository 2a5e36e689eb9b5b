"""Exact geometric nonlinearities of the perturbed junction.

Two defect quantities drive the fixed-point iteration:

* the interior defect F_i = Lap(u_i) - H_i, where H_i is the mean curvature
  scalar tr(g^{-1} h) of sheet i computed exactly from the parametrization
  (first fundamental form g, second fundamental form h, unit normal);

* the junction defect (G_1, G_2) obtained by projecting the conormal sum
  S(y) = xi_1 + xi_2 + xi_3 onto a basis of the plane orthogonal to the
  spine tangent and folding the projections into the two Neumann-type
  boundary combinations.

Both vanish identically on the two exact families (rigid translations of the
cone and rotations of its rays) and are quadratically small in the height
functions, which is certified numerically by
:func:`trijunction.oracles.structural_certificate` rather than encoded term
by term.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .fields import Jet, TripleField
from .geometry import (SQRT3, CutoffProfile, JunctionFrame, frame_vectors,
                       spine_samples, wall_scalars)


class DegenerateMetric(RuntimeError):
    """The perturbation is too large: the induced metric lost definiteness."""


def _wall_data(u: TripleField, cutoff: CutoffProfile):
    """Wall data the three sheets share.

    The (3, ny) wall scalars <w_i, n_i> and their first and second
    y-derivatives, then the cutoff eta, eta', eta'' as (nx, 1) columns.
    """
    w = wall_scalars(u.traces())
    return (w, *spectral.fourier_derivative(w, (1, 2)), *cutoff.on_grid(u.grid))


def _sheet_scalars(i: int, jet: Jet, wall) -> np.ndarray:
    """Mean curvature tr(g^{-1} h) of sheet i from its row of the jet and the wall data."""
    ux, uy, uxx, uxy, uyy = (a[i - 1] for a in jet)
    w, w1, w2, E, E1, E2 = wall
    W, W1, W2 = w[i - 1], w1[i - 1], w2[i - 1]

    # tangents: e1 = (-n + u_x nu + eta' w, 0), e2 = (u_y nu + eta w', 1);
    # a1, a2 are their n-components, u_x, u_y their nu-components
    E1W = E1 * W
    a1 = E1W - 1.0
    a2 = E * W1

    g11 = a1 ** 2 + ux ** 2
    g12 = a1 * a2 + ux * uy
    g22 = a2 ** 2 + uy ** 2 + 1.0
    det = g11 * g22 - g12 ** 2

    denom = 1.0 - E1W
    if denom.min() < 1e-3 or det.min() < 1e-6:
        raise DegenerateMetric(f"sheet {i}: min(1 - eta' <w,n>) = {denom.min():.3e}, "
                               f"min det g = {det.min():.3e}")

    beta = ux / denom
    gamma = -uy - beta * E * W1
    norm = np.sqrt(1.0 + beta ** 2 + gamma ** 2)

    h11 = (uxx + beta * E2 * W) / norm
    h12 = (uxy + beta * E1 * W1) / norm
    h22 = (uyy + beta * E * W2) / norm
    return (g22 * h11 - 2.0 * g12 * h12 + g11 * h22) / det


def mean_curvature(u: TripleField, cutoff: CutoffProfile) -> np.ndarray:
    """Mean curvature tr(g^{-1} h) of the three sheets, one (3, nx, ny) array.

    Raises :class:`DegenerateMetric` when a sheet's metric loses definiteness.
    """
    wall = _wall_data(u, cutoff)
    return np.stack([_sheet_scalars(i, u.jet, wall) for i in (1, 2, 3)])


def F_eval(u: TripleField, cutoff: CutoffProfile) -> TripleField:
    """Interior defect F_i = Lap(u_i) - tr(g^{-1} h)_i of the three sheets."""
    return TripleField(u.grid, u.jet.uxx + u.jet.uyy - mean_curvature(u, cutoff))


# ---------------------------------------------------------------------------
# Conormal balance on the spine
# ---------------------------------------------------------------------------

def _conormals(u: TripleField, frame: JunctionFrame):
    """The unit conormals of the spine inside the three sheets, one (3, ny, 3)
    array from one spine pass, and the inner rows of d_x u_i and d_y u_i.

    Conormal i projects the sheet tangent tau_i = (-n_i + d_x u_i(0,.) nu_i, 0)
    orthogonally to the spine tangent T = (v'(y), 1) and normalizes.  It points
    from the spine into the sheet: at u = 0 it reduces to (-n_i, 0).
    """
    dxu0, ny = u.jet.ux[:, 0], u.grid.ny
    vprime = spectral.fourier_derivative(spine_samples(u.traces(), frame), 1, axis=0)
    T = np.column_stack([vprime, np.ones(ny)])
    tau = np.zeros((3, ny, 3))
    tau[..., :2] = -frame.n[:, None] + dxu0[..., None] * frame.nu[:, None]
    proj = tau - ((tau * T).sum(axis=2) / (T * T).sum(axis=1))[..., None] * T
    return proj / np.linalg.norm(proj, axis=2, keepdims=True), dxu0, u.jet.uy[:, 0]


def G_eval(u: TripleField, frame: JunctionFrame | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Junction defect pair (G_1, G_2) on the y grid.

    With S the conormal sum and the basis b_1 = (n_1, (d_y u_2 - d_y u_3)/sqrt 3),
    b_2 = (nu_1, -d_y u_1) of the plane orthogonal to the spine tangent,

        G_1 = (dn u_2 - dn u_3) - (2/sqrt 3) <S, b_1>,
        G_2 = (dn u_1 - (dn u_2 + dn u_3)/2) + <S, b_2>,

    where dn = -d_x at the inner circle.  The linear parts of the projections
    cancel the explicit Neumann combinations, so both maps are quadratically
    small, and the fixed-point equations dn u_2 - dn u_3 = G_1,
    dn u_1 - (dn u_2 + dn u_3)/2 = G_2 are equivalent to S = 0.
    """
    G1, G2, _ = _junction_defect(u, frame or frame_vectors())
    return G1, G2


def _junction_defect(u: TripleField, frame: JunctionFrame):
    """(G_1, G_2, S) from one spine and conormal pass; see :func:`G_eval`."""
    xi, dxu0, dyu0 = _conormals(u, frame)
    S = xi[0] + xi[1] + xi[2]
    ny = u.grid.ny

    b1 = np.empty((ny, 3))
    b1[:, :2] = frame.n_vec(1)
    b1[:, 2] = (dyu0[1] - dyu0[2]) / SQRT3
    b2 = np.empty((ny, 3))
    b2[:, :2] = frame.nu_vec(1)
    b2[:, 2] = -dyu0[0]

    P1 = (S * b1).sum(axis=1)
    P2 = (S * b2).sum(axis=1)

    dn = -dxu0
    G1 = (dn[1] - dn[2]) - (2.0 / SQRT3) * P1
    G2 = (dn[0] - 0.5 * (dn[1] + dn[2])) + P2
    return G1, G2, S
