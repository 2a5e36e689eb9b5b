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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .fields import Jet, TripleField
from .geometry import (SQRT3, CutoffProfile, JunctionFrame, frame_vectors,
                       spine_from_traces, wall_scalars)


class DegenerateMetric(RuntimeError):
    """The perturbation is too large: the induced metric lost definiteness."""


def _mean_curvature(g11, g12, g22, det, h11, h12, h22) -> np.ndarray:
    """tr(g^{-1} h) from the metric and shape-form entries."""
    return (g22 * h11 - 2.0 * g12 * h12 + g11 * h22) / det


@dataclass(frozen=True)
class MetricShapeData:
    """Per-grid-point geometry of one sheet.

    Tangents e1, e2 and the unit normal live in the unrolled chart of
    R^2 x S^1 (shape (nx, ny, 3)); g is the induced metric, h the second
    fundamental form, and beta, gamma the normal-slope scalars.
    """

    e1: np.ndarray
    e2: np.ndarray
    g: np.ndarray            # (nx, ny, 2, 2)
    g_inv: np.ndarray
    det_g: np.ndarray
    nu_tilde: np.ndarray     # (nx, ny, 3), unit
    beta: np.ndarray
    gamma: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray

    def mean_curvature(self) -> np.ndarray:
        return _mean_curvature(self.g[..., 0, 0], self.g[..., 0, 1], self.g[..., 1, 1],
                               self.det_g, self.h11, self.h12, self.h22)


def _wall_data(u: TripleField, cutoff: CutoffProfile):
    """Wall data the three sheets share.

    The (3, ny) wall scalars <w_i, n_i> and their first and second
    y-derivatives, then the cutoff eta, eta', eta'' as (nx, 1) columns.
    """
    w = wall_scalars(u.traces())
    eta, eta1, eta2 = cutoff(u.grid.x)
    w1, w2 = spectral.fourier_derivative(w, (1, 2))
    return w, w1, w2, eta[:, None], eta1[:, None], eta2[:, None]


class _SheetScalars(NamedTuple):
    """Pointwise (nx, ny) metric and shape scalars of one sheet."""

    a1: np.ndarray           # n-components of the plane parts of e1, e2
    a2: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    norm: np.ndarray         # |N| = sqrt(1 + beta^2 + gamma^2)
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    H: np.ndarray            # tr(g^{-1} h)


def _sheet_scalars(i: int, jet: Jet, wall) -> _SheetScalars:
    """Metric, shape form and mean curvature of sheet i from its jet and the wall data."""
    ux, uy, uxx, uxy, uyy = jet
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
    if float(np.min(denom)) < 1e-3 or float(np.min(det)) < 1e-6:
        raise DegenerateMetric(
            f"sheet {i}: min(1 - eta' <w,n>) = {float(np.min(denom)):.3e}, "
            f"min det g = {float(np.min(det)):.3e}")

    beta = ux / denom
    gamma = -uy - beta * E * W1
    norm = np.sqrt(1.0 + beta ** 2 + gamma ** 2)

    h11 = (uxx + beta * E2 * W) / norm
    h12 = (uxy + beta * E1 * W1) / norm
    h22 = (uyy + beta * E * W2) / norm
    return _SheetScalars(a1, a2, g11, g12, g22, det, beta, gamma, norm, h11, h12, h22,
                         _mean_curvature(g11, g12, g22, det, h11, h12, h22))


def metric_shape_data(i: int, u: TripleField, cutoff: CutoffProfile,
                      frame: JunctionFrame | None = None) -> MetricShapeData:
    """Assemble tangents, metric, normal and second fundamental form of sheet i."""
    frame = frame or frame_vectors()
    n_i = frame.n_vec(i)
    nu_i = frame.nu_vec(i)
    jet = u.sheet(i).jet
    s = _sheet_scalars(i, jet, _wall_data(u, cutoff))

    plane1 = s.a1[..., None] * n_i + jet.ux[..., None] * nu_i
    plane2 = s.a2[..., None] * n_i + jet.uy[..., None] * nu_i
    e1 = np.concatenate([plane1, np.zeros(plane1.shape[:-1] + (1,))], axis=-1)
    e2 = np.concatenate([plane2, np.ones(plane2.shape[:-1] + (1,))], axis=-1)
    nu_plane = s.beta[..., None] * n_i + nu_i
    nu_tilde = np.concatenate([nu_plane, s.gamma[..., None]], axis=-1) / s.norm[..., None]

    g = np.empty(s.g11.shape + (2, 2))
    g[..., 0, 0] = s.g11
    g[..., 0, 1] = s.g12
    g[..., 1, 0] = s.g12
    g[..., 1, 1] = s.g22
    g_inv = np.empty_like(g)
    g_inv[..., 0, 0] = s.g22 / s.det
    g_inv[..., 0, 1] = -s.g12 / s.det
    g_inv[..., 1, 0] = -s.g12 / s.det
    g_inv[..., 1, 1] = s.g11 / s.det

    return MetricShapeData(e1=e1, e2=e2, g=g, g_inv=g_inv, det_g=s.det,
                           nu_tilde=nu_tilde, beta=s.beta, gamma=s.gamma,
                           h11=s.h11, h12=s.h12, h22=s.h22)


def F_eval(u: TripleField, cutoff: CutoffProfile,
           frame: JunctionFrame | None = None) -> TripleField:
    """Interior defect F_i = Lap(u_i) - tr(g^{-1} h)_i, one field per sheet.

    Reads only the mean-curvature scalars of each sheet; the mean curvature
    is frame-independent, so ``frame`` is accepted for symmetry with
    :func:`G_eval` and not used.
    """
    wall = _wall_data(u, cutoff)
    out = []
    for i in (1, 2, 3):
        jet = u.sheet(i).jet
        out.append(jet.uxx + jet.uyy - _sheet_scalars(i, jet, wall).H)
    return TripleField(u.grid, out)


# ---------------------------------------------------------------------------
# Conormal balance on the spine
# ---------------------------------------------------------------------------

def _spine_quantities(u: TripleField, frame: JunctionFrame):
    """Spine slope v' (ny, 2) and the inner rows of d_x u_i and d_y u_i (3, ny)."""
    vprime = spine_from_traces(u.traces(), frame).derivative()
    jets = [u.sheet(i).jet for i in (1, 2, 3)]
    dxu0 = np.stack([jet.ux[0] for jet in jets])
    dyu0 = np.stack([jet.uy[0] for jet in jets])
    return vprime, dxu0, dyu0


def _conormal(i: int, vprime: np.ndarray, dxu0: np.ndarray,
              frame: JunctionFrame) -> np.ndarray:
    ny = vprime.shape[0]
    tau = np.empty((ny, 3))
    tau[:, :2] = -frame.n_vec(i) + dxu0[i - 1][:, None] * frame.nu_vec(i)
    tau[:, 2] = 0.0
    T = np.column_stack([vprime, np.ones(ny)])
    coef = (tau * T).sum(axis=1) / (T * T).sum(axis=1)
    proj = tau - coef[:, None] * T
    return proj / np.linalg.norm(proj, axis=1, keepdims=True)


def conormal_xi(i: int, u: TripleField, frame: JunctionFrame | None = None) -> np.ndarray:
    """Unit conormal of the spine inside sheet i, sampled over y; shape (ny, 3).

    Built by projecting the sheet tangent tau_i = (-n_i + d_x u_i(0,.) nu_i, 0)
    orthogonally to the spine tangent (v'(y), 1) and normalizing.  Points from
    the spine into the sheet: at u = 0 it reduces to (-n_i, 0).
    """
    frame = frame or frame_vectors()
    vprime, dxu0, _ = _spine_quantities(u, frame)
    return _conormal(i, vprime, dxu0, frame)


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
    vprime, dxu0, dyu0 = _spine_quantities(u, frame)
    S = sum(_conormal(i, vprime, dxu0, frame) for i in (1, 2, 3))
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
