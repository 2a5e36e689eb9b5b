"""Fixed-point iteration for the stationary junction system.

Starting from zero, each step freezes the nonlinear right-hand sides at the
previous iterate and solves the linear junction system:

    u_{n+1} = solution of  Lap w = F(u_n),  junction data (0, G(u_n)),
                           w = phi on the outer circle.

Because F and G are quadratically small near zero, the step map contracts on
a small ball and the iterates converge geometrically for small boundary
data.  The driver enforces a ball-radius guard (leaving it means the data is
outside the contraction regime), measures update norms in the sup norm, and
certifies the limit through residuals rather than norms: interior defect,
junction defect, conormal balance, and trace errors are all reported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curvature import DegenerateMetric, F_eval, G_eval, conormal_defect
from .fields import (BoundaryTriple, Grid2D, TripleField, boundary_proxy,
                     laplacian, norm_proxy, trace)
from .geometry import CutoffProfile, JunctionFrame, check_c0_compatibility, frame_vectors
from .linear import ContractionEstimates, boundary_operator, solve_linear_system


class NoConvergence(RuntimeError):
    """Iteration budget exhausted; carries the last iterate and its report."""

    def __init__(self, msg: str, field: TripleField, report: "SolveReport"):
        super().__init__(msg)
        self.field = field
        self.report = report


class GuardViolation(RuntimeError):
    """Iterate left the trust ball; the data is too large for the scheme."""

    def __init__(self, msg: str, field: TripleField, report: "SolveReport"):
        super().__init__(msg)
        self.field = field
        self.report = report


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the fixed-point driver.

    ``r_guard`` defaults to min(delta/10, 0.05): the smallness radius the
    embedding argument needs.  ``eps_warn`` is a data-size warning threshold
    only (the existence theory is not constructive about it); when crossed
    the solve proceeds and flags the report.
    """

    tol: float = 1e-10
    max_iter: int = 50
    r_guard: float | None = None
    alpha: float = 0.5
    eps_warn: float | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.r_guard is not None and self.r_guard <= 0:
            raise ValueError("r_guard must be positive")

    def guard_radius(self, delta: float) -> float:
        return self.r_guard if self.r_guard is not None else min(delta / 10.0, 0.05)


@dataclass(frozen=True)
class ResidualRecord:
    """Pointwise stationarity certificates of a candidate solution."""

    laplace: float          # max interior |Lap u_i - F_i(u)|
    boundary: float         # max junction-condition defect over the two Neumann rows
    conormal_sup: float     # sup_y |xi_1 + xi_2 + xi_3|
    outer_trace: float      # max |u_i(1, .) - phi_i|
    trace_sum: float        # max |sum_i u_i(0, .)|


@dataclass(frozen=True)
class GuardRecord:
    norm_proxy: float
    r_guard: float
    within_guard: bool
    embed_margin: float
    smallness_ok: bool
    eps_warned: bool


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    update_norms: tuple[float, ...]
    contraction_ratios: tuple[float, ...]
    final_residuals: ResidualRecord
    guards: GuardRecord
    converged: bool


def picard_step(u: TripleField, phi: BoundaryTriple, cutoff: CutoffProfile,
                frame: JunctionFrame | None = None) -> TripleField:
    """One application of the step map: linear solve with frozen nonlinearities."""
    frame = frame or frame_vectors()
    return solve_linear_system(F_eval(u, cutoff, frame), G_eval(u, frame), phi)


def residual_record(u: TripleField, phi: BoundaryTriple, cutoff: CutoffProfile,
                    frame: JunctionFrame | None = None) -> ResidualRecord:
    """Evaluate all stationarity residuals of a candidate solution."""
    frame = frame or frame_vectors()
    F = F_eval(u, cutoff, frame)
    G1, G2 = G_eval(u, frame)
    lap = max(float(np.max(np.abs(
        (laplacian(u.sheet(i)) - F.sheet(i)).values[1:-1, :]))) for i in (1, 2, 3))
    B = boundary_operator(u)
    bres = max(float(np.max(np.abs(B[1] - G1))), float(np.max(np.abs(B[2] - G2))))
    S = conormal_defect(u, frame)
    outer = max(float(np.max(np.abs(trace(u.sheet(i), "outer") - phi.component(i))))
                for i in (1, 2, 3))
    return ResidualRecord(
        laplace=lap,
        boundary=bres,
        conormal_sup=float(np.max(np.linalg.norm(S, axis=1))),
        outer_trace=outer,
        trace_sum=float(np.max(np.abs(B[0]))),
    )


def _guard_record(u: TripleField, opts: SolveOptions, cutoff: CutoffProfile,
                  eps_warned: bool) -> GuardRecord:
    comp = check_c0_compatibility(u, cutoff, opts.alpha)
    r = opts.guard_radius(cutoff.delta)
    return GuardRecord(
        norm_proxy=comp.norm_proxy,
        r_guard=r,
        within_guard=bool(comp.norm_proxy <= r),
        embed_margin=comp.monotonic_margin,
        smallness_ok=comp.smallness_ok,
        eps_warned=eps_warned,
    )


def solve_nonlinear(phi: BoundaryTriple, opts: SolveOptions, grid: Grid2D,
                    cutoff: CutoffProfile,
                    frame: JunctionFrame | None = None) -> tuple[TripleField, SolveReport]:
    """Iterate the step map from zero until the sup-norm update drops below tol.

    Raises :class:`GuardViolation` when an iterate leaves the trust ball and
    :class:`NoConvergence` when the iteration budget runs out; both carry the
    last iterate and the full report for post-mortem inspection.
    """
    frame = frame or frame_vectors()
    if phi.ny != grid.ny:
        raise ValueError("boundary data and grid disagree on ny")

    eps_warned = False
    if opts.eps_warn is not None:
        phi_norm = boundary_proxy(phi, opts.alpha)
        if phi_norm > opts.eps_warn:
            eps_warned = True
            warnings.warn(
                f"boundary proxy norm {phi_norm:.3e} exceeds the smallness "
                f"threshold {opts.eps_warn:.3e}; convergence is not guaranteed",
                stacklevel=2)

    u = TripleField.zero(grid)
    updates: list[float] = []
    r = opts.guard_radius(cutoff.delta)
    guards = None

    for it in range(1, opts.max_iter + 1):
        try:
            u_next = picard_step(u, phi, cutoff, frame)
        except DegenerateMetric as exc:
            # the previous iterate already left the embeddable regime; the
            # zero start has the flat metric, so that iterate has a guard record
            report = _assemble_report(it - 1, updates, u, phi, cutoff, frame, guards,
                                      converged=False)
            raise GuardViolation(
                f"iteration {it}: the iterate left the embeddable regime ({exc})",
                u, report) from exc
        upd = (u_next - u).sup()
        updates.append(upd)
        u = u_next
        guards = _guard_record(u, opts, cutoff, eps_warned)

        if guards.norm_proxy > r:
            report = _assemble_report(it, updates, u, phi, cutoff, frame, guards,
                                      converged=False)
            raise GuardViolation(
                f"iterate {it} has proxy norm {guards.norm_proxy:.3e} > guard radius {r:.3e}",
                u, report)
        if upd < opts.tol:
            report = _assemble_report(it, updates, u, phi, cutoff, frame, guards,
                                      converged=True)
            return u, report

    report = _assemble_report(opts.max_iter, updates, u, phi, cutoff, frame, guards,
                              converged=False)
    trend = "non-decreasing" if len(updates) >= 2 and updates[-1] >= updates[-2] \
        else "still decreasing"
    raise NoConvergence(
        f"no convergence after {opts.max_iter} iterations "
        f"(last update {updates[-1]:.3e}, trend {trend})", u, report)


def _assemble_report(iterations: int, updates: list[float], u: TripleField,
                     phi: BoundaryTriple, cutoff: CutoffProfile,
                     frame: JunctionFrame, guards: GuardRecord,
                     converged: bool) -> SolveReport:
    ratios = tuple(updates[j + 1] / updates[j]
                   for j in range(len(updates) - 1) if updates[j] > 0.0)
    try:
        residuals = residual_record(u, phi, cutoff, frame)
    except DegenerateMetric:
        # the iterate is outside the regime where the defects make sense;
        # report what can still be evaluated
        B = boundary_operator(u)
        outer = max(float(np.max(np.abs(trace(u.sheet(i), "outer") - phi.component(i))))
                    for i in (1, 2, 3))
        residuals = ResidualRecord(
            laplace=float("nan"), boundary=float("nan"), conormal_sup=float("nan"),
            outer_trace=outer, trace_sum=float(np.max(np.abs(B[0]))))
    return SolveReport(
        iterations=iterations,
        update_norms=tuple(updates),
        contraction_ratios=ratios,
        final_residuals=residuals,
        guards=guards,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Contraction diagnostics
# ---------------------------------------------------------------------------

def contraction_diagnostics(phi: BoundaryTriple, opts: SolveOptions, grid: Grid2D,
                            cutoff: CutoffProfile, frame: JunctionFrame | None = None,
                            n_iter: int = 6, seed: int = 0,
                            start_scale: float = 1e-4) -> tuple[ContractionEstimates, list[float]]:
    """Measure the step map's Lipschitz behavior along two nearby orbits.

    Runs the iteration from zero and from a small random start and reports
    proxy(A u_n - A v_n) / proxy(u_n - v_n) per iteration, stopping once the
    orbits have merged to round-off.  Also assembles empirical constants:
    c_lin from a linear-solve probe, c1 and c2 from quadratic-smallness and
    difference quotients along the orbits.
    """
    from .curvature import random_compatible_field, scaled_to_proxy
    from .linear import schauder_probe

    frame = frame or frame_vectors()
    rng = np.random.default_rng(seed)
    u = TripleField.zero(grid)
    v = scaled_to_proxy(random_compatible_field(grid, rng, frame), start_scale, opts.alpha)

    r = opts.guard_radius(cutoff.delta)
    ratios: list[float] = []
    diff_quotients: list[float] = []
    for it in range(n_iter):
        du = norm_proxy(u - v, opts.alpha)
        # stop once the two orbits have merged to round-off: below that the
        # quotients measure noise, not the step map (the absolute floor covers
        # the solve's own round-off level in proxy units)
        scale = max(norm_proxy(u, opts.alpha), norm_proxy(v, opts.alpha))
        if du < max(1e-9 * scale, 1e-11):
            break
        Au = picard_step(u, phi, cutoff, frame)
        Av = picard_step(v, phi, cutoff, frame)
        proxy_next = norm_proxy(Au, opts.alpha)
        if proxy_next > r:
            # the orbits left the trust ball: the data is outside the
            # contraction regime and must fail loudly, not produce quiet ratios
            guards = _guard_record(Au, opts, cutoff, False)
            report = _assemble_report(it + 1, [], Au, phi, cutoff, frame, guards,
                                      converged=False)
            raise GuardViolation(
                f"diagnostic orbit left the trust ball at iteration {it + 1} "
                f"(proxy {proxy_next:.3e} > guard {r:.3e})", Au, report)
        dA = norm_proxy(Au - Av, opts.alpha)
        ratios.append(dA / du)
        denom = du * (norm_proxy(u, opts.alpha) + norm_proxy(v, opts.alpha))
        if denom > 0:
            diff_quotients.append(dA / denom)
        u, v = Au, Av

    est, _ = schauder_probe(4, grid, opts.alpha, seed=seed)
    c2 = max(diff_quotients) if diff_quotients else None

    # absorption constant: ||A(u)|| <= c1 (||u||^2 + ||phi||), probed on the orbit
    phi_norm = boundary_proxy(phi, opts.alpha)
    c1_samples = []
    w = TripleField.zero(grid)
    for _ in range(min(n_iter, 4)):
        w = picard_step(w, phi, cutoff, frame)
        nw = norm_proxy(w, opts.alpha)
        base = nw ** 2 + phi_norm
        if base > 0:
            c1_samples.append(norm_proxy(picard_step(w, phi, cutoff, frame), opts.alpha) / base)
    c1 = max(c1_samples) if c1_samples else None

    return ContractionEstimates(c_lin=est.c_lin, c1=c1, c2=c2), ratios


def suggest_eps_threshold(grid: Grid2D, cutoff: CutoffProfile,
                          frame: JunctionFrame | None = None, alpha: float = 0.5,
                          r: float | None = None, n_samples: int = 4,
                          seed: int = 0) -> float:
    """Empirical data-size threshold eps ~ r (1/C1 - r) from probed constants."""
    from .curvature import structural_certificate
    from .linear import schauder_probe

    frame = frame or frame_vectors()
    r = min(cutoff.delta / 10.0, 0.05) if r is None else r
    est, _ = schauder_probe(n_samples, grid, alpha, seed=seed)
    cert = structural_certificate(cutoff.delta / 20.0, n_samples, grid, cutoff, frame,
                                  alpha, seed=seed)
    c1 = est.c_lin * max(cert.c_F + cert.c_G, 1.0)
    if 1.0 / c1 <= r:
        return 0.0
    return r * (1.0 / c1 - r)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_csv(report: SolveReport, header: dict | None = None) -> str:
    lines = [f"# {k} = {v}" for k, v in (header or {}).items()]
    lines.append("iteration,update_norm,contraction_ratio")
    for j, upd in enumerate(report.update_norms):
        ratio = f"{report.contraction_ratios[j - 1]:.17g}" \
            if 1 <= j <= len(report.contraction_ratios) else ""
        lines.append(f"{j + 1},{upd:.17g},{ratio}")
    return "\n".join(lines) + "\n"


def report_summary(report: SolveReport) -> str:
    r = report.final_residuals
    g = report.guards
    lines = [
        "fixed-point solve summary",
        f"  converged          : {report.converged}",
        f"  iterations         : {report.iterations}",
        f"  last update norm   : {report.update_norms[-1]:.6e}" if report.update_norms
        else "  last update norm   : n/a",
        f"  laplace residual   : {r.laplace:.6e}",
        f"  junction residual  : {r.boundary:.6e}",
        f"  conormal |S|_inf   : {r.conormal_sup:.6e}",
        f"  outer trace error  : {r.outer_trace:.6e}",
        f"  trace sum error    : {r.trace_sum:.6e}",
        f"  norm proxy         : {g.norm_proxy:.6e} (guard {g.r_guard:.6e}, "
        f"within: {g.within_guard})",
        f"  embed margin       : {g.embed_margin:.6f}",
        f"  smallness flag     : {g.smallness_ok}",
        f"  eps warning        : {g.eps_warned}",
    ]
    return "\n".join(lines) + "\n"
