"""Verification of the production path: independent oracles and empirical certificates.

Most oracles avoid the closed-form geometry and the spectral solvers: mean
curvature is re-derived from finite differences of embedded surface points
alone, and the linear problems are re-solved with second-order finite
differences on a uniform grid, or mode by mode with the closed-form
exponential-kernel solutions.  Agreement between these oracles and the
production paths is what certifies the latter.  One shares production code:
the junction-angle check reads the conormals of ``curvature._conormals``,
which G also reads, so it is independent of F but not of G (as the
"independent of" column of ``cli.CERTIFICATES`` says).

The certificates run the production path itself on random inputs and
report the constants the fixed-point argument needs, as measured, not
proved: quadratic smallness of F and G, the linear solve's data-to-solution
ratio, and the step map's contraction along two nearby orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import (BoundaryTriple, Grid2D, TripleField, boundary_proxy, norm_proxy,
                     periodic_proxy)
from .geometry import FRAME, NU, CutoffProfile, JunctionFrame, check_frame, embed_point
from .curvature import F_eval, G_eval, _conormals
from .linear import DECOUPLE, RECOMPOSE, Kind, solve_linear_system
from .picard import (GuardViolation, SolveOptions, _assemble_report, _guard_record,
                     picard_step)

_EXP_WINDOW = 45.0        # kernel tail cut: exp(-45) is far below double round-off
_N_QUAD = 96


# ---------------------------------------------------------------------------
# Finite-difference mean curvature from embedded points only
# ---------------------------------------------------------------------------

def fd_mean_curvature(i: int, u: TripleField, point: tuple[float, float] | np.ndarray,
                      h: float, cutoff: CutoffProfile,
                      frame: JunctionFrame = FRAME) -> float | np.ndarray:
    """Mean curvature of sheet i at interior points, from surface samples.

    Builds the first and second fundamental forms by centered differences of
    a 3 x 3 block of embedded points at spacing h in the unrolled chart
    (where the ambient metric is the identity) and returns tr(g^{-1} h).
    ``point`` is one (x, y) pair, which gives a float, or an (n, 2) array,
    which gives n values from one embedding of all n stencils (x in [h, 1 - h]).
    Wholly independent of the closed-form curvature path: only the sheet
    parametrization is shared.
    """
    check_frame(frame)
    if not 1e-5 <= h <= 1e-2:
        raise ValueError("step size h must lie in [1e-5, 1e-2]")
    pts = np.asarray(point, dtype=float)
    x0, y0 = pts.reshape(-1, 2).T
    if np.any(x0 - h < 0.0) or np.any(x0 + h > 1.0):
        raise ValueError("finite-difference stencil leaves the domain")

    offs = h * np.arange(-1, 2)
    X = np.broadcast_to(x0[:, None, None] + offs[:, None], (x0.size, 3, 3))
    Y = np.broadcast_to(y0[:, None, None] + offs[None, :], (x0.size, 3, 3))
    P = embed_point(i, X, Y, u, cutoff)                  # (n, 3, 3, 3), y wraps
    # undo the seam wrap so differences across y = 0 stay smooth
    P[..., 2] = Y

    c = P[:, 1, 1]
    Px = (P[:, 2, 1] - P[:, 0, 1]) / (2 * h)
    Py = (P[:, 1, 2] - P[:, 1, 0]) / (2 * h)
    Pxx = (P[:, 2, 1] - 2 * c + P[:, 0, 1]) / h ** 2
    Pyy = (P[:, 1, 2] - 2 * c + P[:, 1, 0]) / h ** 2
    Pxy = (P[:, 2, 2] - P[:, 2, 0] - P[:, 0, 2] + P[:, 0, 0]) / (4 * h ** 2)

    E = np.einsum("nk,nk->n", Px, Px)
    Fm = np.einsum("nk,nk->n", Px, Py)
    G = np.einsum("nk,nk->n", Py, Py)
    normal = np.cross(Px, Py)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    L = np.einsum("nk,nk->n", Pxx, normal)
    M = np.einsum("nk,nk->n", Pxy, normal)
    N = np.einsum("nk,nk->n", Pyy, normal)
    H = (G * L - 2 * Fm * M + E * N) / (E * G - Fm ** 2)
    return float(H[0]) if pts.ndim == 1 else H


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

@dataclass(frozen=True, eq=False)
class ModeProblem:
    """One Fourier mode's two-point boundary value problem.

    ``f`` holds the forcing coefficient function on the Chebyshev grid,
    ``phi`` the Dirichlet datum at x = 1, and ``g`` the Neumann datum at the
    inner circle (mixed kind only; the outward normal there points in -x, so
    the ODE-side condition is a'(0) = -g).  Dirichlet kind pins a(0) = 0.
    """

    k: int
    kind: Kind
    f: np.ndarray
    phi: float
    g: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("wavenumber must be nonnegative")
        if self.kind not in ("dirichlet", "mixed"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))


def _partial_integrals(f: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
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
    nodes, weights = spectral.clenshaw_curtis(_N_QUAD)

    hi = np.minimum(1.0, x + width)
    t1 = x[:, None] + nodes[None, :] * (hi - x)[:, None]
    k1 = np.exp(lam * (x[:, None] - t1))
    P1 = ((ev(t1) * k1) @ weights) * (hi - x)

    lo = np.maximum(0.0, x - width)
    t2 = lo[:, None] + nodes[None, :] * (x - lo)[:, None]
    k2 = np.exp(lam * (t2 - x[:, None]))
    P2 = ((ev(t2) * k2) @ weights) * (x - lo)
    return P1, P2


def mode_solve_formula(p: ModeProblem) -> np.ndarray:
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
    P1, P2 = _partial_integrals(p.f, lam)
    # int_0^1 f e^{-lam t} dt and int_0^1 f e^{lam (t - 1)} dt
    I_minus, I_plus = P1[0], P2[-1]
    den = 1.0 + s * math.exp(-2.0 * lam)
    B = ((2.0 * lam * p.phi + I_plus) * np.exp(lam * (x - 1.0))
         + (s * I_minus - 2.0 * g) * np.exp(lam * (x - 2.0))) / den
    D = (-s * (2.0 * lam * p.phi + I_plus) * np.exp(-lam * (x + 1.0))
         + (s * I_minus - 2.0 * g) * np.exp(-lam * x)) / den
    return (-P1 + B - P2 - D) / (2.0 * lam)


def _formula_scalar(f: np.ndarray, phi_out: np.ndarray, g: np.ndarray,
                    kind: str) -> np.ndarray:
    # the problem is linear in its data: each column of the rfft spectra read
    # as floats, the pair (Re X_k, Im X_k) of mode k, solves on its own
    F, P, G = (np.fft.rfft(a).view(float) for a in (f, phi_out, g))
    A = np.stack([mode_solve_formula(ModeProblem(j // 2, kind, F[:, j], P[j], G[j]))
                  for j in range(F.shape[1])], axis=1)
    return np.fft.irfft(A.view(complex), n=f.shape[1])


def formula_linear_solve(F: TripleField, G: np.ndarray, phi: BoundaryTriple) -> TripleField:
    """The coupled linear solve with every mode taken from the closed forms.

    Same change of variables as :func:`trijunction.linear.solve_linear_system`
    (``DECOUPLE``, then ``RECOMPOSE``), but each scalar problem is solved
    mode by mode with the exponential-kernel formulas, independently of the
    collocation solve.
    """
    f = np.tensordot(DECOUPLE, F.values, axes=1)
    p = DECOUPLE @ phi.values
    v = np.stack([_formula_scalar(f[0], p[0], np.zeros(phi.ny), "dirichlet"),
                  _formula_scalar(f[1], p[1], G[0], "mixed"),
                  _formula_scalar(f[2], p[2], G[1], "mixed")])
    return TripleField(F.grid, np.tensordot(RECOMPOSE, v, axes=1))


# ---------------------------------------------------------------------------
# Junction angles and exact reference families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AngleReport:
    """Pairwise angles between the three spine conormals, per y node."""

    angles: np.ndarray          # (3, ny): pairs (1,2), (2,3), (3,1)
    max_deviation: float        # from 2 pi / 3


def junction_angle_check(u: TripleField, frame: JunctionFrame = FRAME) -> AngleReport:
    """Angles between the sheet conormals along the spine; 120 degrees at stationarity."""
    check_frame(frame)
    xi, _, _ = _conormals(u)
    pairs = ((0, 1), (1, 2), (2, 0))
    angles = np.stack([
        np.arccos(np.clip((xi[a] * xi[b]).sum(axis=1), -1.0, 1.0)) for a, b in pairs])
    return AngleReport(angles=angles,
                       max_deviation=float(np.max(np.abs(angles - 2.0 * np.pi / 3.0))))


def exact_family(kind: str, value, grid: Grid2D,
                 cutoff: CutoffProfile) -> tuple[BoundaryTriple, TripleField]:
    """Boundary data and exact solution of a rigid-motion family.

    ``translate``: the cone shifted by a plane vector c gives constant
    heights u_i = <c, nu_i>.  ``rotate``: tilting all three rays by the same
    slope beta gives u_i = beta x.  Both are genuinely stationary, so they
    serve as end-to-end regression targets.
    """
    limit = cutoff.delta / 20.0
    if kind == "translate":
        c = np.asarray(value, dtype=float)
        if c.shape != (2,):
            raise ValueError("translation takes a plane vector (cx, cy)")
        if np.linalg.norm(c) > limit:
            raise ValueError(f"|c| = {np.linalg.norm(c):.3g} exceeds the "
                             f"smallness limit delta/20 = {limit:.3g}")
        arrays = [np.full((grid.nx, grid.ny), float(NU[i - 1] @ c)) for i in (1, 2, 3)]
    elif kind == "rotate":
        beta = float(value)
        if abs(beta) > limit:
            raise ValueError(f"|beta| = {abs(beta):.3g} exceeds the "
                             f"smallness limit delta/20 = {limit:.3g}")
        arrays = [np.tile(beta * grid.x[:, None], (1, grid.ny)) for _ in range(3)]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    u = TripleField(grid, arrays)
    return BoundaryTriple(grid.ny, u.traces("outer")), u


# ---------------------------------------------------------------------------
# Empirical certificates: quadratic smallness, linear stability, contraction
# ---------------------------------------------------------------------------

def _trig_sum(c: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k c_k cos(2 pi k y) + s_k sin(2 pi k y), mode axis last, at the points y."""
    phase = 2.0 * np.pi * np.multiply.outer(y, np.arange(c.shape[-1]))
    return (np.tensordot(c, np.cos(phase), axes=([-1], [-1]))
            + np.tensordot(s, np.sin(phase), axes=([-1], [-1])))


def random_compatible_field(grid: Grid2D, rng: np.random.Generator,
                            max_mode: int = 3, amplitude: float = 1.0) -> TripleField:
    """Random smooth triple field whose inner traces sum to zero.

    Traces are manufactured as <v(y), nu_i> for a random plane curve v, so
    compatibility holds by construction; a random interior part vanishing at
    x = 0 is added on top.
    """
    x, y = grid.x, grid.y
    K = max_mode + 1
    vc = rng.standard_normal((2, K))
    vs = rng.standard_normal((2, K))
    vy = _trig_sum(vc, vs, y)                           # (2, ny)
    profile = np.cos(0.5 * np.pi * x)[:, None]          # 1 at x=0, 0 at x=1
    arrays = []
    for i in (1, 2, 3):
        tr_part = (NU[i - 1] @ vy)[None, :] * profile
        bulk_c = rng.standard_normal((3, K))
        bulk_s = rng.standard_normal((3, K))
        modes = _trig_sum(bulk_c, bulk_s, y)            # (3, ny)
        poly = np.stack([x, x ** 2, x ** 3], axis=0)    # all vanish at x = 0
        arrays.append(amplitude * (tr_part + poly.T @ modes))
    return TripleField(grid, arrays)


def scaled_to_proxy(u: TripleField, target: float, alpha: float) -> TripleField:
    """Rescale a nonzero field so its norm proxy equals ``target``."""
    p = norm_proxy(u, alpha)
    if p == 0.0:
        raise ValueError("cannot rescale the zero field")
    return u * (target / p)


@dataclass(frozen=True, eq=False)
class StructuralCertificate:
    """Empirical quadratic-smallness constants for the two defects."""

    c_F: float               # max ||F(u)||_inf / proxy(u)^2 over the samples
    c_G: float
    sample_radius: float
    n_samples: int
    alpha: float
    ratios_F: np.ndarray
    ratios_G: np.ndarray


def structural_certificate(sample_radius: float, n_samples: int, grid: Grid2D,
                           cutoff: CutoffProfile, alpha: float = 0.5,
                           seed: int = 0) -> StructuralCertificate:
    """Estimate the smallest constants with ||F||, ||G|| <= C * proxy(u)^2.

    Samples random compatible fields of the given proxy radius.  The radius
    must respect the smallness regime (at most ``cutoff.smallness_radius``).
    """
    if sample_radius > cutoff.smallness_radius:
        raise ValueError("sample radius exceeds the smallness regime delta/10")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    qF, qG = [], []
    for _ in range(n_samples):
        u = scaled_to_proxy(random_compatible_field(grid, rng), sample_radius, alpha)
        p2 = sample_radius ** 2
        qF.append(F_eval(u, cutoff).sup() / p2)
        qG.append(np.abs(G_eval(u)).max() / p2)
    return StructuralCertificate(
        c_F=float(np.max(qF)), c_G=float(np.max(qG)),
        sample_radius=sample_radius, n_samples=n_samples, alpha=alpha,
        ratios_F=np.array(qF), ratios_G=np.array(qG))


@dataclass
class ContractionEstimates:
    """Empirical constants of the solve map; all probed, none proved.

    ``c_lin`` bounds proxy(solution) / proxy(data) over random inputs;
    ``c1`` and ``c2`` are the absorption and difference constants of the
    fixed-point argument, filled in by the contraction diagnostics.
    """

    c_lin: float
    c1: float | None = None
    c2: float | None = None

    @property
    def r_tilde(self) -> float | None:
        if self.c1 is None or self.c2 is None:
            return None
        return min(1.0 / self.c1, 1.0 / (4.0 * self.c2), 1.0)


def random_smooth_field(grid: Grid2D, rng: np.random.Generator,
                        max_mode: int = 3) -> np.ndarray:
    """Band-limited random (nx, ny) samples: low Fourier modes in y, low polynomials in x."""
    K = max_mode + 1
    c = rng.standard_normal((4, K))
    s = rng.standard_normal((4, K))
    modes = _trig_sum(c, s, grid.y)                     # (4, ny)
    poly = np.stack([np.ones_like(grid.x), grid.x, grid.x ** 2, grid.x ** 3])
    return poly.T @ modes


def random_smooth_map(ny: int, rng: np.random.Generator, max_mode: int = 3) -> np.ndarray:
    K = max_mode + 1
    c = rng.standard_normal(K)
    s = rng.standard_normal(K)
    return _trig_sum(c, s, spectral.fourier_nodes(ny))


def schauder_probe(n_samples: int, grid: Grid2D, alpha: float = 0.5,
                   seed: int = 0) -> tuple[ContractionEstimates, np.ndarray]:
    """Probe the solution-to-data proxy-norm ratio over random unit inputs.

    Returns the estimates (c_lin filled) and the per-sample ratios.  The
    continuum estimate bounds the solution's order-2 norm by the forcing's
    order-0, the Neumann data's order-1 and the boundary data's order-2
    norms; the probe measures the discrete analogue.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_samples):
        F = TripleField(grid, [random_smooth_field(grid, rng) for _ in range(3)])
        G = (random_smooth_map(grid.ny, rng), random_smooth_map(grid.ny, rng))
        phi = BoundaryTriple(grid.ny, np.stack([random_smooth_map(grid.ny, rng)
                                                for _ in range(3)]))
        data_norm = (norm_proxy(F, alpha, order=0)
                     + sum(periodic_proxy(g, alpha, order=1) for g in G)
                     + sum(periodic_proxy(row, alpha, order=2) for row in phi.values))
        u = solve_linear_system(F, G, phi)
        ratios.append(norm_proxy(u, alpha) / data_norm)
    ratios = np.array(ratios)
    return ContractionEstimates(c_lin=float(ratios.max())), ratios


# the linear solve's own round-off level in proxy units
_ROUND_OFF_PROXY = 1e-11


def contraction_diagnostics(phi: BoundaryTriple, opts: SolveOptions, grid: Grid2D,
                            cutoff: CutoffProfile, n_iter: int = 6, seed: int = 0,
                            start_scale: float = 1e-4) -> tuple[ContractionEstimates, list[float]]:
    """Measure the step map's Lipschitz behavior along two nearby orbits.

    Runs the iteration from zero and from a small random start and reports
    proxy(A u_n - A v_n) / proxy(u_n - v_n) per iteration, stopping once the
    orbits have merged to round-off.  Also assembles empirical constants:
    c_lin from a linear-solve probe, c1 and c2 from quadratic-smallness and
    difference quotients along the orbits; c1 is None when the orbit of zero
    and the data are both at round-off.
    """
    rng = np.random.default_rng(seed)
    u = TripleField.zero(grid)
    v = scaled_to_proxy(random_compatible_field(grid, rng), start_scale, opts.alpha)

    updates: list[float] = []           # the sup-norm updates of the orbit of zero
    orbit_proxies = [norm_proxy(u, opts.alpha)]     # proxy of u_n = A^n(0), n = 0, 1, ...
    ratios: list[float] = []
    diff_quotients: list[float] = []
    du = norm_proxy(u - v, opts.alpha)
    for it in range(n_iter):
        nu, nv = orbit_proxies[-1], norm_proxy(v, opts.alpha)
        # stop once the two orbits have merged to round-off: below that the
        # quotients measure noise, not the step map (the absolute floor covers
        # the solve's own round-off level in proxy units)
        if du < max(1e-9 * max(nu, nv), _ROUND_OFF_PROXY):
            break
        Au = picard_step(u, phi, cutoff)
        Av = picard_step(v, phi, cutoff)
        updates.append(float(np.abs(Au.values - u.values).max()))
        guards = _guard_record(Au, opts, cutoff)
        if not guards.within_guard:
            # the orbits left the trust ball: the data is outside the
            # contraction regime and must fail loudly, not produce quiet ratios
            report = _assemble_report(updates, Au, phi, cutoff, guards, converged=False)
            raise GuardViolation(
                f"diagnostic orbit left the trust ball at iteration {it + 1} "
                f"(proxy {guards.norm_proxy:.3e} > guard {guards.r_guard:.3e})", Au, report)
        orbit_proxies.append(guards.norm_proxy)
        dA = norm_proxy(Au - Av, opts.alpha)
        ratios.append(dA / du)
        denom = du * (nu + nv)
        if denom > 0:
            diff_quotients.append(dA / denom)
        u, v, du = Au, Av, dA

    est, _ = schauder_probe(4, grid, opts.alpha, seed=seed)
    c2 = max(diff_quotients) if diff_quotients else None

    # absorption constant: ||A(u)|| <= c1 (||u||^2 + ||phi||), probed on the
    # orbit of zero at u_1 .. u_m, continuing the orbit the loop above walked
    m = min(n_iter, 4)
    while len(orbit_proxies) < m + 2:
        u = picard_step(u, phi, cutoff)
        orbit_proxies.append(norm_proxy(u, opts.alpha))
    phi_norm = boundary_proxy(phi, opts.alpha)
    # a denominator at round-off (below the square of the merge test's
    # floor) divides noise by noise: zero data has an orbit of round-off and
    # no absorption constant to measure
    c1_samples = [after / (before ** 2 + phi_norm)
                  for before, after in zip(orbit_proxies[1:m + 1], orbit_proxies[2:m + 2])
                  if before ** 2 + phi_norm > _ROUND_OFF_PROXY ** 2]
    c1 = max(c1_samples) if c1_samples else None

    return ContractionEstimates(c_lin=est.c_lin, c1=c1, c2=c2), ratios
