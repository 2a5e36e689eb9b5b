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

H is evaluated in place, into work arrays the three sheets share, and is
bit for bit the value of its closed-form expression.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .fields import Jet, TripleField
from .geometry import (SQRT3, CutoffProfile, JunctionFrame, frame_vectors,
                       spine_samples, wall_scalars)


class DegenerateMetric(RuntimeError):
    """The perturbation is too large: the induced metric lost definiteness or overflowed."""


def _wall_data(u: TripleField, cutoff: CutoffProfile):
    """Wall data the three sheets share.

    The (3, ny) wall scalars <w_i, n_i> and their first and second
    y-derivatives, then the cutoff eta, eta', eta'' as (nx, 1) columns.
    """
    w = wall_scalars(u.traces())
    return (w, *spectral.fourier_derivative(w, (1, 2)), *cutoff.on_grid(u.grid))


def _sheet_scalars(i: int, jet: Jet, wall, work: np.ndarray, out: np.ndarray):
    """Mean curvature tr(g^{-1} h) of sheet i, from its row of the jet and the
    wall data, written into the (nx, ny) ``out``.

    With a1 = eta' <w,n> - 1 and a2 = eta <w',n> the n-components of the
    tangents e1 = (-n + u_x nu + eta' w, 0) and e2 = (u_y nu + eta w', 1),
    whose nu-components are u_x and u_y:

        g11 = a1^2 + u_x^2,  g12 = a1 a2 + u_x u_y,  g22 = a2^2 + u_y^2 + 1,
        beta = u_x / (1 - eta' <w,n>),  gamma = -u_y - beta eta <w',n>,
        h11 = (u_xx + beta eta'' <w,n>) / N,  h12 = (u_xy + beta eta' <w',n>) / N,
        h22 = (u_yy + beta eta <w'',n>) / N,  N = sqrt(1 + beta^2 + gamma^2),
        H = (g22 h11 - 2 g12 h12 + g11 h22) / det g.

    The code evaluates these into the eight (nx, ny) arrays of ``work`` one
    operation at a time, in the order Python evaluates the expressions
    above, so H is the value they give, bit for bit.
    """
    ux, uy, uxx, uxy, uyy = (a[i - 1] for a in (jet.ux, jet.uy, jet.uxx, jet.uxy, jet.uyy))
    w, w1, w2, E, E1, E2 = wall
    W, W1, W2 = w[i - 1], w1[i - 1], w2[i - 1]
    a1, a2, g11, g12, g22, det, denom, tmp = work

    np.multiply(E1, W, out=denom)               # eta' <w,n>, until it becomes denom
    np.subtract(denom, 1.0, out=a1)
    np.multiply(E, W1, out=a2)
    np.add(np.square(a1, out=g11), np.square(ux, out=tmp), out=g11)
    np.add(np.multiply(a1, a2, out=g12), np.multiply(ux, uy, out=tmp), out=g12)
    np.add(np.square(a2, out=g22), np.square(uy, out=tmp), out=g22)
    np.add(g22, 1.0, out=g22)
    np.subtract(np.multiply(g11, g22, out=det), np.square(g12, out=tmp), out=det)
    np.subtract(1.0, denom, out=denom)
    if denom.min() < 1e-3 or det.min() < 1e-6:
        raise DegenerateMetric(f"sheet {i}: min(1 - eta' <w,n>) = {denom.min():.3e}, "
                               f"min det g = {det.min():.3e}")

    # a1 and a2 are free from here on: they hold beta, then gamma and each h
    beta = np.divide(ux, denom, out=a1)
    gamma = np.multiply(np.multiply(beta, E, out=a2), W1, out=a2)
    np.subtract(np.negative(uy, out=tmp), gamma, out=gamma)
    norm = np.add(np.square(beta, out=denom), 1.0, out=denom)
    np.sqrt(np.add(norm, np.square(gamma, out=tmp), out=norm), out=norm)

    def h(u2, Ek, Wk):
        """(u2 + beta Ek Wk) / N, into a2."""
        hk = np.multiply(np.multiply(beta, Ek, out=a2), Wk, out=a2)
        return np.divide(np.add(u2, hk, out=hk), norm, out=hk)

    np.multiply(g22, h(uxx, E2, W), out=out)
    out -= np.multiply(np.multiply(2.0, g12, out=tmp), h(uxy, E1, W1), out=tmp)
    out += np.multiply(g11, h(uyy, E, W2), out=tmp)
    out /= det


def mean_curvature(u: TripleField, cutoff: CutoffProfile) -> np.ndarray:
    """Mean curvature tr(g^{-1} h) of the three sheets, one (3, nx, ny) array.

    The three sheets share one set of eight (nx, ny) work arrays.  Raises
    :class:`DegenerateMetric` when a sheet's metric loses definiteness or
    is not finite: an overflowing or invalid operation stops the evaluation.
    """
    wall = _wall_data(u, cutoff)
    H = np.empty(u.values.shape)
    work = np.empty((8,) + u.values.shape[1:])
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in (1, 2, 3):
                _sheet_scalars(i, u.jet, wall, work, H[i - 1])
    except FloatingPointError as exc:
        raise DegenerateMetric(f"sheet {i}: the metric is not finite ({exc})") from None
    return H


def F_eval(u: TripleField, cutoff: CutoffProfile) -> TripleField:
    """Interior defect F_i = Lap(u_i) - tr(g^{-1} h)_i of the three sheets."""
    F = u.jet.uxx + u.jet.uyy
    F -= mean_curvature(u, cutoff)
    return TripleField._adopt(u.grid, F)


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
    vprime = spectral.fourier_derivative(spine_samples(u.traces(), frame), 1)
    T = np.column_stack([*vprime, np.ones(ny)])
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
