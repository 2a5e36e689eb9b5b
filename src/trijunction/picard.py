"""Fixed-point iteration for the stationary junction system.

Starting from zero, each step freezes the nonlinear right-hand sides at the
previous iterate and solves the linear junction system:

    u_{n+1} = solution of  Lap w = F(u_n),  junction data (0, G(u_n)),
                           w = phi on the outer circle.

Because F and G are quadratically small near zero, the step map contracts on
a small ball and the iterates converge geometrically for small boundary
data.  The driver enforces a ball-radius guard (leaving it means the data is
outside the contraction regime), measures update norms in the sup norm, and
certifies the limit through residuals rather than norms: mean curvature,
conormal projections, conormal balance and trace errors are all reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import DegenerateMetric, F_eval, G_eval, _junction_defect, mean_curvature
from .fields import BoundaryTriple, Grid2D, TripleField, norm_proxy
from .geometry import FRAME, CutoffProfile, JunctionFrame, check_frame, embed_margin
from .linear import DECOUPLE, solve_harmonic, solve_linear_system


class SolveFailure(RuntimeError):
    """A solve that stopped without converging; carries the last iterate and its report."""

    def __init__(self, msg: str, field: TripleField, report: "SolveReport"):
        super().__init__(msg)
        self.field = field
        self.report = report


class NoConvergence(SolveFailure):
    """Iteration budget exhausted."""


class GuardViolation(SolveFailure):
    """Iterate left the trust ball; the data is too large for the scheme."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the fixed-point driver.

    ``r_guard`` defaults to ``CutoffProfile.smallness_radius``, the radius
    delta/10 the embedding argument needs.  ``alpha`` is the Hoelder
    exponent of the guard proxy.
    """

    tol: float = 1e-10
    max_iter: int = 50
    r_guard: float | None = None
    alpha: float = 0.5

    def __post_init__(self):
        # each test is false for NaN, so a NaN knob fails here instead of
        # silently disabling the stop test, the guard or the Hoelder term
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.r_guard is not None and not 0.0 < self.r_guard < math.inf:
            raise ValueError(f"r_guard must be finite and positive, got {self.r_guard!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class ResidualRecord:
    """Pointwise stationarity certificates of a candidate solution."""

    laplace: float          # max interior |H_i|: what |Lap u_i - F_i(u)| reduces to
    boundary: float         # max |P|: the conormal projections, the junction rows' defect
    conormal_sup: float     # sup_y |xi_1 + xi_2 + xi_3|
    outer_trace: float      # max |u_i(1, .) - phi_i|
    trace_sum: float        # max |sum_i u_i(0, .)|


@dataclass(frozen=True)
class GuardRecord:
    norm_proxy: float
    r_guard: float
    embed_margin: float
    smallness_ok: bool          # proxy < smallness radius, a radius not stored here

    @property
    def within_guard(self) -> bool:
        return bool(self.norm_proxy <= self.r_guard)


@dataclass(frozen=True)
class SolveReport:
    update_norms: tuple[float, ...]         # the sup-norm update of each iteration
    final_residuals: ResidualRecord
    guards: GuardRecord
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.update_norms)

    @property
    def contraction_ratios(self) -> tuple[float, ...]:
        u = self.update_norms               # each update over a nonzero one before it
        return tuple(u[j + 1] / u[j] for j in range(len(u) - 1) if u[j] > 0.0)


def picard_step(u: TripleField, phi: BoundaryTriple, cutoff: CutoffProfile) -> TripleField:
    """One application of the step map: linear solve with frozen nonlinearities."""
    return solve_linear_system(F_eval(u, cutoff), G_eval(u), phi)


def residual_record(u: TripleField, phi: BoundaryTriple, cutoff: CutoffProfile) -> ResidualRecord:
    """Evaluate all stationarity residuals of a candidate solution."""
    H = mean_curvature(u, cutoff)
    _, P, S = _junction_defect(u)
    return ResidualRecord(float(np.abs(H[:, 1:-1]).max()), float(np.abs(P).max()),
                          float(np.linalg.norm(S, axis=1).max()), *_trace_errors(u, phi))


def _trace_errors(u: TripleField, phi: BoundaryTriple) -> tuple[float, float]:
    """The residuals ``outer_trace`` and ``trace_sum``, read off the values alone."""
    return (float(np.abs(u.traces("outer") - phi.values).max()),
            float(np.abs(DECOUPLE[:1] @ u.traces()).max()))


def _guard_record(u: TripleField, opts: SolveOptions, cutoff: CutoffProfile) -> GuardRecord:
    # a jet beyond the float range reads as an inf or NaN proxy: a failed guard
    with np.errstate(over="ignore", invalid="ignore"):
        proxy = norm_proxy(u, opts.alpha)
    r = opts.r_guard if opts.r_guard is not None else cutoff.smallness_radius
    return GuardRecord(proxy, r, embed_margin(u, cutoff), bool(proxy < cutoff.smallness_radius))


def solve_nonlinear(phi: BoundaryTriple, opts: SolveOptions, grid: Grid2D,
                    cutoff: CutoffProfile,
                    frame: JunctionFrame = FRAME) -> tuple[TripleField, SolveReport]:
    """Iterate the step map from zero until the sup-norm update drops below tol.

    Raises :class:`GuardViolation` when an iterate leaves the trust ball and
    :class:`NoConvergence` when the iteration budget runs out; both are a
    :class:`SolveFailure` and carry the last iterate and the full report for
    post-mortem inspection."""
    check_frame(frame)
    if phi.ny != grid.ny:
        raise ValueError("boundary data and grid disagree on ny")

    u = TripleField.zero(grid)
    updates: list[float] = []
    guards = None                   # the guard record of u, once u is an iterate
    failure = cause = None          # the failure's class, and the error that caused it

    for it in range(1, opts.max_iter + 1):
        try:
            # an overflow stops the step: its result would not be finite
            with np.errstate(over="raise", invalid="raise"):
                # the zero start is the stationary cone, where F and G vanish:
                # the first step is the harmonic solve of the boundary data
                u_next = (solve_harmonic(phi, grid) if it == 1 else
                          picard_step(u, phi, cutoff))
        except DegenerateMetric as exc:
            # only steps after the first evaluate the metric: the previous
            # iterate already left the embeddable regime
            failure, cause = GuardViolation, exc
            msg = f"iteration {it}: the iterate left the embeddable regime ({exc})"
            break
        except FloatingPointError as exc:
            failure, cause = GuardViolation, exc
            msg = f"iteration {it}: the step left the float range ({exc})"
            break
        # the first update is from the zero start: sup |u_1|, bit for bit |u_1 - 0|
        updates.append(u_next.sup() if it == 1 else
                       float(np.abs(u_next.values - u.values).max()))
        u = u_next
        guards = _guard_record(u, opts, cutoff)
        if not guards.within_guard:
            failure = GuardViolation
            msg = (f"iterate {it} has proxy norm {guards.norm_proxy:.3e} "
                   f"> guard radius {guards.r_guard:.3e}")
            break
        if updates[-1] < opts.tol:
            break
    else:
        failure = NoConvergence
        trend = "non-decreasing" if len(updates) >= 2 and updates[-1] >= updates[-2] \
            else "still decreasing"
        msg = (f"no convergence after {opts.max_iter} iterations "
               f"(last update {updates[-1]:.3e}, trend {trend})")

    if guards is None:              # the first step failed: report the zero start
        guards = _guard_record(u, opts, cutoff)
    report = _assemble_report(updates, u, phi, cutoff, guards, converged=failure is None)
    if failure is not None:
        raise failure(msg, u, report) from cause
    return u, report


def _assemble_report(updates: list[float], u: TripleField, phi: BoundaryTriple,
                     cutoff: CutoffProfile, guards: GuardRecord, converged: bool) -> SolveReport:
    """The report of the iterate ``u`` that the sup-norm ``updates`` led to."""
    try:
        residuals = residual_record(u, phi, cutoff)
    except DegenerateMetric:
        # the iterate is outside the regime where the defects make sense;
        # report what can still be evaluated
        nan = float("nan")
        residuals = ResidualRecord(nan, nan, nan, *_trace_errors(u, phi))
    return SolveReport(tuple(updates), residuals, guards, converged)
