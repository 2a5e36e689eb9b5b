"""Exact geometric nonlinearities of the perturbed junction.

Two defect quantities drive the fixed-point iteration:

* the interior defect F_i = Lap(u_i) - H_i, where H_i is the mean curvature
  scalar tr(g^{-1} h) of sheet i computed exactly from the parametrization
  (first fundamental form g, second fundamental form h, unit normal);

* the junction defect G = N(u) + P, one (2, ny) array: N(u) are the two
  Neumann combinations of the junction conditions (``linear.DECOUPLE``'s
  rows) and P projects the conormal sum S(y) = xi_1 + xi_2 + xi_3 onto a
  basis of the plane orthogonal to the spine tangent.

H and P themselves certify stationarity (``picard.residual_record``).  F
and G vanish identically on the two exact families (rigid translations of
the cone and rotations of its rays) and are quadratically small in the
height functions, which is certified numerically by
:func:`trijunction.oracles.structural_certificate` rather than encoded term
by term.

Every derivative is read from the field's jet: the walls and the spine are
linear in the inner traces, so their y-derivatives are the same formulas on
the jet's inner rows of u_y and u_yy.  H uses the identity D N = sqrt(det g)
between the unit normal's length N, the wall factor D = 1 - eta' <w,n> and
the metric, so it takes one square root and one division (see
:func:`_sheet_scalars`).  It is evaluated in place, for the sheet groups of
``Grid2D.sheet_groups`` (all three sheets per numpy call on small grids),
and is bit for bit the value of its closed-form expression.
"""

from __future__ import annotations

import numpy as np

from .fields import Jet, TripleField
from .geometry import (N, NU, SQRT3, CutoffProfile, check_compatibility, spine_samples,
                       wall_scalars)
from .linear import DECOUPLE


class DegenerateMetric(RuntimeError):
    """The perturbation is too large: the induced metric lost definiteness or overflowed."""


def _wall_data(u: TripleField, cutoff: CutoffProfile):
    """Wall data the three sheets share: the (3, ny) wall scalars <w_i, n_i> and
    their first and second y-derivatives, then eta, eta', eta'' as (nx, 1) columns."""
    rows = u.traces(), u.jet.uy[:, 0], u.jet.uyy[:, 0]
    return (*map(wall_scalars, rows), *cutoff.on_grid(u.grid))


def _sheet_scalars(sheets: slice, jet: Jet, wall, work: np.ndarray, out: np.ndarray):
    """Mean curvature tr(g^{-1} h) of a group of sheets, from their rows of the
    jet and the wall data, written into the (k, nx, ny) ``out``.

    With a1 = eta' <w,n> - 1 and a2 = eta <w',n> the n-components of the
    tangents e1 = (-n + u_x nu + eta' w, 0) and e2 = (u_y nu + eta w', 1),
    whose nu-components are u_x and u_y, and D = 1 - eta' <w,n>:

        g11 = a1^2 + u_x^2,  g12 = a1 a2 + u_x u_y,  g22 = a2^2 + u_y^2 + 1,
        H = (g22 (D u_xx + u_x eta'' <w,n>) - 2 g12 (D u_xy + u_x eta' <w',n>)
             + g11 (D u_yy + u_x eta <w'',n>)) / (det g sqrt(det g)).

    This is (g22 h11 - 2 g12 h12 + g11 h22) / det g with h_jk the second
    fundamental form: the unit normal's length N = sqrt(1 + beta^2 + gamma^2),
    beta = u_x / D and gamma = -u_y - beta eta <w',n>, is exactly
    sqrt(det g) / D, so D N = sqrt(det g), and h_jk carries the factor D
    in its numerator.  The code evaluates the expression above into the
    eight (k, nx, ny) arrays of ``work`` one operation at a time, in the
    order Python evaluates it, so H is its value, bit for bit.

    Raises :class:`DegenerateMetric`, naming the group's first sheet and the
    group's minima, when D or det g is too small; under numpy's ``errstate`` an
    overflow raises FloatingPointError.
    """
    ux, uy, uyy, uxy, uxx = (a[sheets] for a in jet)
    w, w1, w2, E, E1, E2 = wall
    W, W1, W2 = (r[sheets, None] for r in (w, w1, w2))
    a1, a2, g11, g12, g22, det, D, tmp = work

    np.multiply(E1, W, out=D)                   # eta' <w,n>, until it becomes D
    np.subtract(D, 1.0, out=a1)
    np.multiply(E, W1, out=a2)
    np.add(np.square(a1, out=g11), np.square(ux, out=tmp), out=g11)
    np.add(np.multiply(a1, a2, out=g12), np.multiply(ux, uy, out=tmp), out=g12)
    np.add(np.square(a2, out=g22), np.square(uy, out=tmp), out=g22)
    np.add(g22, 1.0, out=g22)
    np.subtract(np.multiply(g11, g22, out=det), np.square(g12, out=tmp), out=det)
    np.subtract(1.0, D, out=D)
    if D.min() < 1e-3 or det.min() < 1e-6:
        raise DegenerateMetric(f"sheet {sheets.start + 1}: min(1 - eta' <w,n>) = "
                               f"{D.min():.3e}, min det g = {det.min():.3e}")

    # a1 and a2 are free from here on: a1 takes each bracket of H in turn
    np.multiply(np.multiply(ux, E2, out=a1), W, out=a1)
    np.add(np.multiply(D, uxx, out=a2), a1, out=a1)
    np.multiply(g22, a1, out=out)
    np.multiply(np.multiply(ux, E1, out=a1), W1, out=a1)
    np.add(np.multiply(D, uxy, out=a2), a1, out=a1)
    out -= np.multiply(np.multiply(2.0, g12, out=tmp), a1, out=tmp)
    np.multiply(np.multiply(ux, E, out=a1), W2, out=a1)
    np.add(np.multiply(D, uyy, out=a2), a1, out=a1)
    out += np.multiply(g11, a1, out=tmp)
    out /= np.multiply(det, np.sqrt(det, out=tmp), out=tmp)


def mean_curvature(u: TripleField, cutoff: CutoffProfile) -> np.ndarray:
    """Mean curvature tr(g^{-1} h) of the three sheets, one (3, nx, ny) array.

    The sheets are evaluated in the groups of ``Grid2D.sheet_groups``, into
    one set of eight work arrays.  Raises :class:`DegenerateMetric` when a
    sheet's metric loses definiteness or is not finite: an overflowing or
    invalid operation stops the evaluation.  The error names the first
    failing sheet and that sheet's own minima, as groups of one do: a group
    that fails is evaluated again one sheet at a time.
    """
    wall = _wall_data(u, cutoff)
    H = np.empty(u.values.shape)
    groups = u.grid.sheet_groups()
    work = np.empty((8, groups[0].stop - groups[0].start) + u.values.shape[1:])
    with np.errstate(over="raise", invalid="raise"):
        try:
            for sheets in groups:
                _sheet_scalars(sheets, u.jet, wall, work, H[sheets])
            return H
        except (DegenerateMetric, FloatingPointError):
            pass
        for i in range(3):
            try:
                _sheet_scalars(slice(i, i + 1), u.jet, wall, work[:, :1], H[i:i + 1])
            except FloatingPointError as exc:
                raise DegenerateMetric(f"sheet {i + 1}: the metric is not finite ({exc})") from None
    return H


def F_eval(u: TripleField, cutoff: CutoffProfile) -> TripleField:
    """Interior defect F_i = Lap(u_i) - tr(g^{-1} h)_i of the three sheets."""
    F = u.jet.uxx + u.jet.uyy
    F -= mean_curvature(u, cutoff)
    return TripleField._adopt(u.grid, F)


# ---------------------------------------------------------------------------
# Conormal balance on the spine
# ---------------------------------------------------------------------------

def _conormals(u: TripleField):
    """The unit conormals of the spine inside the three sheets, one (3, ny, 3)
    array, the inner rows of d_x u_i, and the (2, ny) spine slope v'; raises
    CompatibilityViolation unless the traces share a spine.

    Conormal i projects the sheet tangent tau_i = (-n_i + d_x u_i(0,.) nu_i, 0)
    orthogonally to the spine tangent T = (v'(y), 1) and normalizes.  It points
    from the spine into the sheet: at u = 0 it reduces to (-n_i, 0).
    """
    check_compatibility(u.traces())
    dxu0, ny = u.jet.ux[:, 0], u.grid.ny
    vprime = spine_samples(u.jet.uy[:, 0])
    T = np.column_stack([*vprime, np.ones(ny)])
    tau = np.zeros((3, ny, 3))
    tau[..., :2] = -N[:, None] + dxu0[..., None] * NU[:, None]
    proj = tau - ((tau * T).sum(axis=2) / (T * T).sum(axis=1))[..., None] * T
    return proj / np.linalg.norm(proj, axis=2, keepdims=True), dxu0, vprime


def G_eval(u: TripleField) -> np.ndarray:
    """Junction defect G = N(u) + P, one (2, ny) array on the y grid.

    N(u) = ``DECOUPLE[1:] @ dn`` are the two Neumann combinations of the
    junction conditions (dn u_2 - dn u_3, dn u_1 - (dn u_2 + dn u_3)/2, with
    dn = -d_x at the inner circle), the rows of
    :func:`~trijunction.linear.boundary_operator`.  P holds the projections
    (-(2/sqrt 3) <S, b_1>, <S, b_2>) of the conormal sum S onto the basis
    b_k = (e_k, -<v', e_k>), (e_1, e_2) = (n_1, nu_1), of the plane
    orthogonal to the spine tangent (v', 1).  The linear part of P cancels N,
    so G is quadratically small, and the fixed-point equations N(u) = G are
    equivalent to S = 0.
    """
    return _junction_defect(u)[0]


def _junction_defect(u: TripleField):
    """(G, P, S) from one spine and conormal pass; see :func:`G_eval`."""
    xi, dxu0, vprime = _conormals(u)
    S = xi[0] + xi[1] + xi[2]
    e = np.stack([N[0], NU[0]])
    b = np.empty((2, u.grid.ny, 3))         # b_1 and b_2 at every y
    b[..., :2] = e[:, None]
    b[..., 2] = -(e @ vprime)
    P = (S * b).sum(axis=2)
    P[0] *= -2.0 / SQRT3
    return DECOUPLE[1:] @ -dxu0 + P, P, S
