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
functions, which is certified numerically by :func:`structural_certificate`
rather than encoded term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import Grid2D, ScalarField, TripleField, laplacian, norm_proxy
from .geometry import (SQRT3, CutoffProfile, JunctionFrame, frame_vectors,
                       spine_from_traces, wall_scalars)


class DegenerateMetric(RuntimeError):
    """The perturbation is too large: the induced metric lost definiteness."""


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
        return (self.g[..., 1, 1] * self.h11
                - 2.0 * self.g[..., 0, 1] * self.h12
                + self.g[..., 0, 0] * self.h22) / self.det_g


def metric_shape_data(i: int, u: TripleField, cutoff: CutoffProfile,
                      frame: JunctionFrame | None = None) -> MetricShapeData:
    """Assemble tangents, metric, normal and second fundamental form of sheet i."""
    frame = frame or frame_vectors()
    grid = u.grid
    n_i = frame.n_vec(i)
    nu_i = frame.nu_vec(i)

    ux, uy, uxx, uxy, uyy = u.sheet(i).jet

    w = wall_scalars(u.traces())[i - 1]                     # (ny,)
    w1 = spectral.fourier_derivative(w, 1)
    w2 = spectral.fourier_derivative(w, 2)
    eta, eta1, eta2 = cutoff(grid.x)
    W = np.broadcast_to(w, (grid.nx, grid.ny))
    W1 = np.broadcast_to(w1, (grid.nx, grid.ny))
    W2 = np.broadcast_to(w2, (grid.nx, grid.ny))
    E = eta[:, None]
    E1 = eta1[:, None]
    E2 = eta2[:, None]

    # tangents: e1 = (-n + u_x nu + eta' w, 0), e2 = (u_y nu + eta w', 1)
    a1 = E1 * W - 1.0            # n-component of the plane part of e1
    b1 = ux                      # nu-component
    a2 = E * W1
    b2 = uy

    g11 = a1 ** 2 + b1 ** 2
    g12 = a1 * a2 + b1 * b2
    g22 = a2 ** 2 + b2 ** 2 + 1.0
    det = g11 * g22 - g12 ** 2

    denom = 1.0 - E1 * W
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

    plane1 = a1[..., None] * n_i + b1[..., None] * nu_i
    plane2 = a2[..., None] * n_i + b2[..., None] * nu_i
    e1 = np.concatenate([plane1, np.zeros(plane1.shape[:-1] + (1,))], axis=-1)
    e2 = np.concatenate([plane2, np.ones(plane2.shape[:-1] + (1,))], axis=-1)
    nu_plane = beta[..., None] * n_i + nu_i
    nu_tilde = np.concatenate([nu_plane, gamma[..., None]], axis=-1) / norm[..., None]

    g = np.empty(g11.shape + (2, 2))
    g[..., 0, 0] = g11
    g[..., 0, 1] = g12
    g[..., 1, 0] = g12
    g[..., 1, 1] = g22
    g_inv = np.empty_like(g)
    g_inv[..., 0, 0] = g22 / det
    g_inv[..., 0, 1] = -g12 / det
    g_inv[..., 1, 0] = -g12 / det
    g_inv[..., 1, 1] = g11 / det

    return MetricShapeData(e1=e1, e2=e2, g=g, g_inv=g_inv, det_g=det,
                           nu_tilde=nu_tilde, beta=beta, gamma=gamma,
                           h11=h11, h12=h12, h22=h22)


def mean_curvature_scalar(i: int, u: TripleField, cutoff: CutoffProfile,
                          frame: JunctionFrame | None = None) -> ScalarField:
    """tr(g^{-1} h) of sheet i on the grid."""
    data = metric_shape_data(i, u, cutoff, frame)
    return ScalarField(u.grid, data.mean_curvature())


def F_eval(u: TripleField, cutoff: CutoffProfile,
           frame: JunctionFrame | None = None) -> TripleField:
    """Interior defect F_i = Lap(u_i) - tr(g^{-1} h)_i, one field per sheet."""
    frame = frame or frame_vectors()
    out = []
    for i in (1, 2, 3):
        lap = laplacian(u.sheet(i)).values
        H = metric_shape_data(i, u, cutoff, frame).mean_curvature()
        out.append(lap - H)
    return TripleField.from_arrays(u.grid, out)


# ---------------------------------------------------------------------------
# Conormal balance on the spine
# ---------------------------------------------------------------------------

def _spine_quantities(u: TripleField, frame: JunctionFrame):
    """Spine slope v' (ny, 2) and the inner rows of d_x u_i and d_y u_i (3, ny)."""
    vprime = spine_from_traces(u.traces(), frame).derivative()
    dxu0 = np.stack([f.jet.ux[0] for f in u.components])
    dyu0 = np.stack([f.jet.uy[0] for f in u.components])
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


def _conormal_sum(vprime: np.ndarray, dxu0: np.ndarray, frame: JunctionFrame) -> np.ndarray:
    return sum(_conormal(i, vprime, dxu0, frame) for i in (1, 2, 3))


def conormal_xi(i: int, u: TripleField, frame: JunctionFrame | None = None) -> np.ndarray:
    """Unit conormal of the spine inside sheet i, sampled over y; shape (ny, 3).

    Built by projecting the sheet tangent tau_i = (-n_i + d_x u_i(0,.) nu_i, 0)
    orthogonally to the spine tangent (v'(y), 1) and normalizing.  Points from
    the spine into the sheet: at u = 0 it reduces to (-n_i, 0).
    """
    frame = frame or frame_vectors()
    vprime, dxu0, _ = _spine_quantities(u, frame)
    return _conormal(i, vprime, dxu0, frame)


def conormal_defect(u: TripleField, frame: JunctionFrame | None = None) -> np.ndarray:
    """S(y) = xi_1 + xi_2 + xi_3; identically zero at stationarity."""
    frame = frame or frame_vectors()
    vprime, dxu0, _ = _spine_quantities(u, frame)
    return _conormal_sum(vprime, dxu0, frame)


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
    frame = frame or frame_vectors()
    vprime, dxu0, dyu0 = _spine_quantities(u, frame)
    S = _conormal_sum(vprime, dxu0, frame)
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
    return G1, G2


# ---------------------------------------------------------------------------
# Numerical certification of quadratic smallness
# ---------------------------------------------------------------------------

def random_compatible_field(grid: Grid2D, rng: np.random.Generator,
                            frame: JunctionFrame | None = None,
                            max_mode: int = 3, amplitude: float = 1.0) -> TripleField:
    """Random smooth triple field whose inner traces sum to zero.

    Traces are manufactured as <v(y), nu_i> for a random plane curve v, so
    compatibility holds by construction; a random interior part vanishing at
    x = 0 is added on top.
    """
    frame = frame or frame_vectors()
    x, y = grid.x, grid.y
    K = max_mode + 1
    vc = rng.standard_normal((2, K))
    vs = rng.standard_normal((2, K))
    vy = spectral.trig_eval(vc, vs, y)                  # (2, ny)
    profile = np.cos(0.5 * np.pi * x)[:, None]          # 1 at x=0, 0 at x=1
    arrays = []
    for i in (1, 2, 3):
        tr_part = (frame.nu_vec(i) @ vy)[None, :] * profile
        bulk_c = rng.standard_normal((3, K))
        bulk_s = rng.standard_normal((3, K))
        modes = spectral.trig_eval(bulk_c, bulk_s, y)   # (3, ny)
        poly = np.stack([x, x ** 2, x ** 3], axis=0)    # all vanish at x = 0
        arrays.append(amplitude * (tr_part + poly.T @ modes))
    return TripleField.from_arrays(grid, arrays)


def scaled_to_proxy(u: TripleField, target: float, alpha: float) -> TripleField:
    """Rescale a nonzero field so its norm proxy equals ``target``."""
    p = norm_proxy(u, alpha)
    if p == 0.0:
        raise ValueError("cannot rescale the zero field")
    return u * (target / p)


@dataclass(frozen=True)
class StructuralCertificate:
    """Empirical quadratic-smallness constants for the two defects."""

    c_F: float               # max ||F(u)||_inf / proxy(u)^2 over the samples
    c_G: float
    sample_radius: float
    n_samples: int
    alpha: float
    ratios_F: np.ndarray
    ratios_G: np.ndarray

    def to_text(self) -> str:
        lines = [
            "structural smallness certificate",
            f"  samples          : {self.n_samples}",
            f"  proxy radius     : {self.sample_radius:.6g}",
            f"  holder exponent  : {self.alpha}",
            f"  C_F estimate     : {self.c_F:.6g}",
            f"  C_G estimate     : {self.c_G:.6g}",
            f"  per-sample F quotients: min {self.ratios_F.min():.3g} "
            f"max {self.ratios_F.max():.3g}",
            f"  per-sample G quotients: min {self.ratios_G.min():.3g} "
            f"max {self.ratios_G.max():.3g}",
        ]
        return "\n".join(lines) + "\n"


def structural_certificate(sample_radius: float, n_samples: int, grid: Grid2D,
                           cutoff: CutoffProfile, frame: JunctionFrame | None = None,
                           alpha: float = 0.5, seed: int = 0) -> StructuralCertificate:
    """Estimate the smallest constants with ||F||, ||G|| <= C * proxy(u)^2.

    Samples random compatible fields of the given proxy radius.  The radius
    must respect the smallness regime (at most delta / 10).
    """
    if sample_radius > cutoff.delta / 10.0:
        raise ValueError("sample radius exceeds the smallness regime delta/10")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    frame = frame or frame_vectors()
    rng = np.random.default_rng(seed)
    qF, qG = [], []
    for _ in range(n_samples):
        u = scaled_to_proxy(random_compatible_field(grid, rng, frame), sample_radius, alpha)
        F = F_eval(u, cutoff, frame)
        G1, G2 = G_eval(u, frame)
        p2 = sample_radius ** 2
        qF.append(F.sup() / p2)
        qG.append(max(np.max(np.abs(G1)), np.max(np.abs(G2))) / p2)
    return StructuralCertificate(
        c_F=float(np.max(qF)), c_G=float(np.max(qG)),
        sample_radius=sample_radius, n_samples=n_samples, alpha=alpha,
        ratios_F=np.array(qF), ratios_G=np.array(qG))
