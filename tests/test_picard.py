"""Fixed-point driver: exact families, guards, contraction reporting."""

import numpy as np
import pytest

from trijunction import (BoundaryTriple, GuardViolation, NoConvergence, SolveOptions,
                         TripleField, boundary_operator, check_c0_compatibility,
                         contraction_diagnostics, picard_step, solve_nonlinear, trace)
from trijunction.picard import report_summary, report_to_csv, residual_record

from conftest import random_boundary, rotation_field, translation_field


OPTS = SolveOptions()


def test_picard_step_zero(grid, cutoff, frame):
    u0 = TripleField.zero(grid)
    step = picard_step(u0, BoundaryTriple.zero(grid.ny), cutoff, frame)
    assert step.sup() < 1e-15


def test_picard_step_constant_phi_is_linear_extension(grid, cutoff, frame):
    c = 0.01
    phi = BoundaryTriple(grid.ny, np.full((3, grid.ny), c))
    u1 = picard_step(TripleField.zero(grid), phi, cutoff, frame)
    B = boundary_operator(u1)
    assert np.max(np.abs(B)) < 1e-12                  # junction data vanishes
    for i in (1, 2, 3):
        assert np.max(np.abs(trace(u1.sheet(i), "outer") - c)) < 1e-14


def test_solve_zero_boundary(grid, cutoff, frame):
    u, report = solve_nonlinear(BoundaryTriple.zero(grid.ny), OPTS, grid, cutoff, frame)
    assert u.sup() < 1e-15
    assert report.iterations <= 1
    assert report.converged


def test_solve_translation_family(grid, cutoff, frame):
    c = (0.01, 0.0)
    exact = translation_field(grid, frame, c)
    phi = BoundaryTriple(grid.ny, exact.traces("outer"))
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    err = max((u.sheet(i) - exact.sheet(i)).sup() for i in (1, 2, 3))
    assert err < 1e-8
    assert report.converged and report.iterations <= 10
    # the reconstructed spine is the translation vector
    from trijunction import spine_from_traces
    spine = spine_from_traces(u.traces(), frame)
    assert np.max(np.abs(spine.values() - np.array(c))) < 1e-10


def test_solve_rotation_family(grid, frame):
    # the tilted-ray solution has proxy norm 3 beta, so the embedding regime
    # needs delta > 30 beta; delta = 0.35 accommodates beta = 0.01
    from trijunction import CutoffProfile
    cutoff = CutoffProfile(0.35)
    beta = 0.01
    exact = rotation_field(grid, beta)
    phi = BoundaryTriple(grid.ny, np.full((3, grid.ny), beta))
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    err = max((u.sheet(i) - exact.sheet(i)).sup() for i in (1, 2, 3))
    assert err < 1e-8
    assert report.converged and report.iterations <= 10


def test_converged_solution_passes_residuals_and_guards(grid, cutoff, frame, monkeypatch):
    from trijunction import spectral
    calls = []
    transform = spectral.cheb_coefficients
    monkeypatch.setattr(spectral, "cheb_coefficients",
                        lambda values: calls.append(1) or transform(values))
    rng = np.random.default_rng(20)
    phi = random_boundary(grid.ny, rng, 0.005)
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    # the sheets of u0, u1 and u2 are the only fields differentiated: one
    # x-transform each is 9, and 18 would allow two
    assert report.iterations == 2
    assert len(calls) <= 18
    r = report.final_residuals
    assert r.trace_sum < 1e-10
    assert r.outer_trace < 1e-10
    assert r.conormal_sup < 1e-6
    assert r.boundary < 1e-9
    assert report.guards.within_guard
    comp = check_c0_compatibility(u, cutoff)
    assert comp.monotonic_margin > 0.0
    assert comp.smallness_ok


def test_update_norms_decay_and_ratios_recorded(grid, cutoff, frame):
    rng = np.random.default_rng(21)
    phi = random_boundary(grid.ny, rng, 0.005)
    _, report = solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    upd = report.update_norms
    assert all(upd[j + 1] <= 0.9 * upd[j] for j in range(len(upd) - 1))
    for j, ratio in enumerate(report.contraction_ratios):
        assert ratio == pytest.approx(upd[j + 1] / upd[j], rel=1e-12)


def test_fixed_point_reapplication(grid, cutoff, frame):
    rng = np.random.default_rng(22)
    phi = random_boundary(grid.ny, rng, 0.004)
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    again = picard_step(u, phi, cutoff, frame)
    assert (again - u).sup() < 10 * OPTS.tol


def test_guard_violation_on_large_data(grid, cutoff, frame):
    rng = np.random.default_rng(23)
    phi = random_boundary(grid.ny, rng, cutoff.delta)
    with pytest.raises((GuardViolation, NoConvergence)) as exc_info:
        solve_nonlinear(phi, OPTS, grid, cutoff, frame)
    exc = exc_info.value
    # post-mortem payload is attached
    assert isinstance(exc.field, TripleField)
    assert len(exc.report.update_norms) == exc.report.iterations
    assert not exc.report.converged


def test_no_convergence_carries_history(grid_small, cutoff, frame):
    rng = np.random.default_rng(24)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    tight = SolveOptions(tol=1e-30, max_iter=3)
    with pytest.raises(NoConvergence) as exc_info:
        solve_nonlinear(phi, tight, grid_small, cutoff, frame)
    assert exc_info.value.report.iterations == 3
    assert len(exc_info.value.report.update_norms) == 3


def test_eps_warning_flagged(grid_small, cutoff, frame):
    rng = np.random.default_rng(25)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    opts = SolveOptions(eps_warn=1e-6)
    with pytest.warns(UserWarning, match="smallness"):
        _, report = solve_nonlinear(phi, opts, grid_small, cutoff, frame)
    assert report.guards.eps_warned


def test_determinism_bit_identical(grid_small, cutoff, frame):
    rng = np.random.default_rng(26)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    u_a, rep_a = solve_nonlinear(phi, OPTS, grid_small, cutoff, frame)
    u_b, rep_b = solve_nonlinear(phi, OPTS, grid_small, cutoff, frame)
    assert rep_a == rep_b
    for i in (1, 2, 3):
        assert np.array_equal(u_a.sheet(i).values, u_b.sheet(i).values)


def test_contraction_diagnostics_zero_data(grid_small, cutoff, frame):
    est, ratios = contraction_diagnostics(BoundaryTriple.zero(grid_small.ny), OPTS,
                                          grid_small, cutoff, frame, seed=0)
    assert all(r < 1.0 for r in ratios)
    assert est.c_lin > 0


def test_contraction_diagnostics_small_data(grid_small, cutoff, frame):
    rng = np.random.default_rng(27)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    est, ratios = contraction_diagnostics(phi, OPTS, grid_small, cutoff, frame, seed=1)
    assert len(ratios) >= 1
    assert all(r < 1.0 for r in ratios)
    assert all(r < 0.6 for r in ratios[1:])
    assert est.c1 is not None and est.c2 is not None
    assert est.r_tilde is not None and 0 < est.r_tilde <= 1.0


def test_contraction_stress_not_hidden(grid_small, cutoff, frame):
    # far beyond the guard the run must either report non-contracting ratios
    # or fail loudly with a regime error, never diverge silently
    from trijunction import DegenerateMetric
    rng = np.random.default_rng(28)
    phi = random_boundary(grid_small.ny, rng, 0.05)
    try:
        est, ratios = contraction_diagnostics(phi * 10.0, OPTS, grid_small, cutoff,
                                              frame, seed=2)
        assert any(r >= 1.0 for r in ratios) or not ratios
    except (GuardViolation, NoConvergence, DegenerateMetric):
        pass


def test_report_serialization(grid_small, cutoff, frame):
    rng = np.random.default_rng(29)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    _, report = solve_nonlinear(phi, OPTS, grid_small, cutoff, frame)
    csv = report_to_csv(report, {"delta": cutoff.delta})
    lines = csv.splitlines()
    assert lines[0] == f"# delta = {cutoff.delta}"
    assert lines[1] == "iteration,update_norm,contraction_ratio"
    assert len(lines) == 2 + report.iterations
    text = report_summary(report)
    assert "converged" in text and "conormal" in text


def test_residual_record_zero_field(grid, cutoff, frame):
    rec = residual_record(TripleField.zero(grid), BoundaryTriple.zero(grid.ny),
                          cutoff, frame)
    assert rec.laplace == 0.0
    assert rec.trace_sum == 0.0
    assert rec.outer_trace == 0.0
    assert rec.conormal_sup < 1e-15


def test_suggest_eps_threshold(grid_small, cutoff, frame):
    from trijunction.picard import suggest_eps_threshold
    eps = suggest_eps_threshold(grid_small, cutoff, frame, n_samples=2, seed=1)
    assert np.isfinite(eps) and eps >= 0.0
    # the probed threshold should admit the data sizes the solver handles
    assert eps > 1e-4


def test_solution_grid_independent(cutoff, frame):
    # the same low-mode boundary data solved on two resolutions gives the
    # same continuum solution (spectrally converged in both grids)
    rng = np.random.default_rng(44)
    coef = rng.standard_normal((3, 2, 3))

    def phi_for(ny, scale):
        y = np.arange(ny) / ny
        rows = [sum(ci[0][k] * np.cos(2 * np.pi * k * y)
                    + ci[1][k] * np.sin(2 * np.pi * k * y) for k in range(3))
                for ci in coef]
        return BoundaryTriple(ny, scale * np.stack(rows))

    from trijunction import Grid2D, boundary_proxy
    scale = 0.004 / boundary_proxy(phi_for(64, 1.0), 0.5)
    sols = {}
    for nx, ny in ((48, 64), (64, 96)):
        u, _ = solve_nonlinear(phi_for(ny, scale), OPTS, Grid2D(nx, ny), cutoff, frame)
        sols[(nx, ny)] = u
    xs = np.array([0.1, 0.3, 0.5, 0.9])
    ys = np.array([0.05, 0.4, 0.7, 0.95])
    X, Y = np.meshgrid(xs, ys)
    d = max(np.max(np.abs(sols[(48, 64)].sheet(i).eval(X, Y)
                          - sols[(64, 96)].sheet(i).eval(X, Y))) for i in (1, 2, 3))
    assert d < 1e-10
