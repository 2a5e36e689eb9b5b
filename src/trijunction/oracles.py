"""Independent low-tech checks of the spectral machinery.

Everything here deliberately avoids the closed-form geometry and the
spectral solvers: mean curvature is re-derived from finite differences of
embedded surface points alone, and the linear problems are re-solved with
second-order finite differences on a uniform grid, or mode by mode with the
closed-form exponential-kernel solutions.  Agreement between these oracles
and the production paths is what certifies the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import BoundaryTriple, Grid2D, ScalarField, TripleField
from .geometry import CutoffProfile, JunctionFrame, embed_point, frame_vectors
from .curvature import conormal_xi
from .linear import ModeProblem, decouple, recompose

_EXP_WINDOW = 45.0        # kernel tail cut: exp(-45) is far below double round-off
_N_QUAD = 96


# ---------------------------------------------------------------------------
# Finite-difference mean curvature from embedded points only
# ---------------------------------------------------------------------------

def fd_mean_curvature(i: int, u: TripleField, point: tuple[float, float], h: float,
                      cutoff: CutoffProfile, frame: JunctionFrame | None = None) -> float:
    """Mean curvature of sheet i at an interior point, from surface samples.

    Builds the first and second fundamental forms by centered differences of
    a 5 x 5 block of embedded points at spacing h in the unrolled chart
    (where the ambient metric is the identity) and returns tr(g^{-1} h).
    Wholly independent of the closed-form curvature path: only the sheet
    parametrization is shared.
    """
    frame = frame or frame_vectors()
    if not 1e-5 <= h <= 1e-2:
        raise ValueError("step size h must lie in [1e-5, 1e-2]")
    x0, y0 = point
    if x0 - 2 * h < 0.0 or x0 + 2 * h > 1.0:
        raise ValueError("finite-difference stencil leaves the domain")

    offs = np.arange(-2, 3)
    X = x0 + h * offs[:, None] * np.ones(5)[None, :]
    Y = y0 + h * np.ones(5)[:, None] * offs[None, :]    # y wraps periodically
    P = embed_point(i, X, Y, u, frame, cutoff)           # (5, 5, 3)
    # undo the seam wrap so differences across y = 0 stay smooth
    P[..., 2] = Y

    c = P[2, 2]
    Px = (P[3, 2] - P[1, 2]) / (2 * h)
    Py = (P[2, 3] - P[2, 1]) / (2 * h)
    Pxx = (P[3, 2] - 2 * c + P[1, 2]) / h ** 2
    Pyy = (P[2, 3] - 2 * c + P[2, 1]) / h ** 2
    Pxy = (P[3, 3] - P[3, 1] - P[1, 3] + P[1, 1]) / (4 * h ** 2)

    E = Px @ Px
    Fm = Px @ Py
    G = Py @ Py
    normal = np.cross(Px, Py)
    normal /= np.linalg.norm(normal)
    L = Pxx @ normal
    M = Pxy @ normal
    N = Pyy @ normal
    return float((G * L - 2 * Fm * M + E * N) / (E * G - Fm ** 2))


# ---------------------------------------------------------------------------
# Finite-difference solver for the scalar model problems
# ---------------------------------------------------------------------------

def fd_linear_solve(f, g, phi, shape: tuple[int, int],
                    kind: str = "mixed") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order finite-difference solve of the scalar problems.

    ``f(x, y)``, ``g(y)``, ``phi(y)`` are callables (g is ignored for the
    Dirichlet kind).  Returns (xs, ys, values) on a uniform (mx, my) tensor
    grid.  The 5-point Laplacian diagonalizes over the periodic direction, so
    each discrete Fourier mode is a tridiagonal solve in x; the Neumann
    condition enters through a ghost point, keeping second order.
    """
    mx, my = shape
    if mx < 3 or my < 4:
        raise ValueError("grid too small for the finite-difference oracle")
    if kind not in ("dirichlet", "mixed"):
        raise ValueError(f"unknown problem kind {kind!r}")
    hx = 1.0 / (mx - 1)
    hy = 1.0 / my
    xs = np.linspace(0.0, 1.0, mx)
    ys = np.arange(my) * hy

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fv = np.asarray(f(X, Y), dtype=float)
    gv = np.zeros(my) if g is None else np.asarray(g(ys), dtype=float)
    pv = np.asarray(phi(ys), dtype=float)

    fh = np.fft.rfft(fv, axis=1)
    gh = np.fft.rfft(gv)
    ph = np.fft.rfft(pv)

    K = my // 2
    sym = 4.0 * np.sin(np.pi * np.arange(K + 1) * hy) ** 2 / hy ** 2
    # one (mx, mx) system per mode, solved as a batch; rows 1..mx-2: standard
    # second difference minus the FD mode symbol
    D2 = (np.eye(mx, k=1) - 2.0 * np.eye(mx) + np.eye(mx, k=-1)) / hx ** 2
    A = D2 - sym[:, None, None] * np.eye(mx)
    rhs = fh.copy()
    if kind == "dirichlet":
        A[:, 0] = np.eye(mx)[0]
        rhs[0] = 0.0
    else:
        # ghost point at x = -hx: (v1 - v_-1)/(2 hx) = v'(0) = -g
        A[:, 0, 1] = 2.0 / hx ** 2
        rhs[0] = fh[0] - 2.0 * gh / hx
    A[:, -1] = np.eye(mx)[-1]
    rhs[-1] = ph
    out = np.linalg.solve(A, rhs.T[:, :, None])[:, :, 0].T
    values = np.fft.irfft(out, n=my, axis=1)
    return xs, ys, values


# ---------------------------------------------------------------------------
# Closed-form mode solutions: exponential kernels, overflow-safe
# ---------------------------------------------------------------------------

def _partial_integrals(f: np.ndarray, lam: float, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """P1(x) = int_x^1 f e^{lam (x - t)} dt and P2(x) = int_0^x f e^{lam (t - x)} dt.

    Both kernels peak at t = x with decay rate lam, so the integration window
    is clipped where the kernel falls below round-off.  Off the grid f is
    its Chebyshev series, summed by Clenshaw.
    """
    nx = f.shape[0]
    x = spectral.cheb_nodes(nx)
    coeffs = spectral.cheb_coefficients(f)

    def ev(t: np.ndarray) -> np.ndarray:
        return np.polynomial.chebyshev.chebval(1.0 - 2.0 * t, coeffs)

    width = 1.0 if lam == 0.0 else min(1.0, _EXP_WINDOW / lam)
    nodes, weights = spectral.clenshaw_curtis(n_quad)

    hi = np.minimum(1.0, x + width)
    t1 = x[:, None] + nodes[None, :] * (hi - x)[:, None]
    k1 = np.exp(lam * (x[:, None] - t1))
    P1 = ((ev(t1) * k1) @ weights) * (hi - x)

    lo = np.maximum(0.0, x - width)
    t2 = lo[:, None] + nodes[None, :] * (x - lo)[:, None]
    k2 = np.exp(lam * (t2 - x[:, None]))
    P2 = ((ev(t2) * k2) @ weights) * (x - lo)
    return P1, P2


def mode_solve_formula(p: ModeProblem, n_quad: int = _N_QUAD) -> np.ndarray:
    """Closed-form mode solution: a(1) = phi, and a(0) = 0 or a'(0) = -g by kind.

    For k = 0 this is the double integral of the forcing plus the affine
    function meeting the boundary data; for k >= 1 the exponential-kernel
    solution with its two integration constants, algebraically rearranged so
    that every exponential has a non-positive argument (the constants'
    numerators and the denominator are divided by the largest exponential,
    and the outer exponentials are folded into the kernels).  The kinds
    differ only in the sign s and the Neumann datum g.
    """
    x = spectral.cheb_nodes(p.f.shape[0])
    s, g = (-1.0, 0.0) if p.kind == "dirichlet" else (1.0, p.g)
    if p.k == 0:
        dbl = spectral.cheb_cumulative_integral(spectral.cheb_cumulative_integral(p.f))
        if p.kind == "dirichlet":
            return dbl + (p.phi - dbl[-1]) * x
        return dbl - g * x + p.phi - dbl[-1] + g

    lam = 2.0 * math.pi * p.k
    P1, P2 = _partial_integrals(p.f, lam, n_quad)
    # int_0^1 f e^{-lam t} dt and int_0^1 f e^{lam (t - 1)} dt
    I_minus, I_plus = P1[0], P2[-1]
    den = 1.0 + s * math.exp(-2.0 * lam)
    B = ((2.0 * lam * p.phi + I_plus) * np.exp(lam * (x - 1.0))
         + (s * I_minus - 2.0 * g) * np.exp(lam * (x - 2.0))) / den
    D = (-s * (2.0 * lam * p.phi + I_plus) * np.exp(-lam * (x + 1.0))
         + (s * I_minus - 2.0 * g) * np.exp(-lam * x)) / den
    return (-P1 + B - P2 - D) / (2.0 * lam)


def mode_solve_dirichlet(p: ModeProblem, n_quad: int = _N_QUAD) -> np.ndarray:
    """:func:`mode_solve_formula` for a problem of Dirichlet kind."""
    if p.kind != "dirichlet":
        raise ValueError("mode problem is not of Dirichlet kind")
    return mode_solve_formula(p, n_quad)


def mode_solve_mixed(p: ModeProblem, n_quad: int = _N_QUAD) -> np.ndarray:
    """:func:`mode_solve_formula` for a problem of mixed kind."""
    if p.kind != "mixed":
        raise ValueError("mode problem is not of mixed kind")
    return mode_solve_formula(p, n_quad)


def _formula_scalar(f: ScalarField, phi_out: np.ndarray, g: np.ndarray,
                    kind: str) -> ScalarField:
    grid = f.grid
    fc, fs = spectral.fourier_coefficients(f.values, axis=1)
    pc, ps = spectral.fourier_coefficients(phi_out)
    gc, gs = spectral.fourier_coefficients(g)
    K = grid.ny // 2
    ac = np.zeros((grid.nx, K + 1))
    as_ = np.zeros((grid.nx, K + 1))
    for k in range(K + 1):
        ac[:, k] = mode_solve_formula(ModeProblem(k, kind, fc[:, k], pc[k], gc[k]))
        if 0 < k < K:
            as_[:, k] = mode_solve_formula(ModeProblem(k, kind, fs[:, k], ps[k], gs[k]))
    return ScalarField(grid, spectral.fourier_synthesis(ac, as_, grid.ny, axis=1))


def formula_linear_solve(F: TripleField, G: tuple[np.ndarray, np.ndarray],
                         phi: BoundaryTriple) -> TripleField:
    """The coupled linear solve with every mode taken from the closed forms.

    Same decoupling as :func:`trijunction.linear.solve_linear_system`, but
    each scalar problem is solved mode by mode with the exponential-kernel
    formulas, independently of the collocation solve.
    """
    p = decouple(F, G, phi)
    return recompose(
        _formula_scalar(p.dirichlet_f, p.dirichlet_phi, np.zeros(phi.ny), "dirichlet"),
        _formula_scalar(p.diff_f, p.diff_phi, p.diff_g, "mixed"),
        _formula_scalar(p.mean_f, p.mean_phi, p.mean_g, "mixed"))


# ---------------------------------------------------------------------------
# Junction angles and exact reference families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleReport:
    """Pairwise angles between the three spine conormals, per y node."""

    angles: np.ndarray          # (3, ny): pairs (1,2), (2,3), (3,1)
    max_deviation: float        # from 2 pi / 3

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_deviation <= tol


def junction_angle_check(u: TripleField, frame: JunctionFrame | None = None) -> AngleReport:
    """Angles between the sheet conormals along the spine; 120 degrees at stationarity."""
    frame = frame or frame_vectors()
    xi = [conormal_xi(i, u, frame) for i in (1, 2, 3)]
    pairs = ((0, 1), (1, 2), (2, 0))
    angles = np.stack([
        np.arccos(np.clip((xi[a] * xi[b]).sum(axis=1), -1.0, 1.0)) for a, b in pairs])
    return AngleReport(angles=angles,
                       max_deviation=float(np.max(np.abs(angles - 2.0 * np.pi / 3.0))))


def exact_family(kind: str, value, grid: Grid2D, cutoff: CutoffProfile,
                 frame: JunctionFrame | None = None) -> tuple[BoundaryTriple, TripleField]:
    """Boundary data and exact solution of a rigid-motion family.

    ``translate``: the cone shifted by a plane vector c gives constant
    heights u_i = <c, nu_i>.  ``rotate``: tilting all three rays by the same
    slope beta gives u_i = beta x.  Both are genuinely stationary, so they
    serve as end-to-end regression targets.
    """
    frame = frame or frame_vectors()
    limit = cutoff.delta / 20.0
    if kind == "translate":
        c = np.asarray(value, dtype=float)
        if c.shape != (2,):
            raise ValueError("translation takes a plane vector (cx, cy)")
        if np.linalg.norm(c) > limit:
            raise ValueError(f"|c| = {np.linalg.norm(c):.3g} exceeds the "
                             f"smallness limit delta/20 = {limit:.3g}")
        arrays = [np.full((grid.nx, grid.ny), float(frame.nu_vec(i) @ c))
                  for i in (1, 2, 3)]
    elif kind == "rotate":
        beta = float(value)
        if abs(beta) > limit:
            raise ValueError(f"|beta| = {abs(beta):.3g} exceeds the "
                             f"smallness limit delta/20 = {limit:.3g}")
        arrays = [np.tile(beta * grid.x[:, None], (1, grid.ny)) for _ in range(3)]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    u = TripleField.from_arrays(grid, arrays)
    return BoundaryTriple(grid.ny, u.traces("outer")), u
