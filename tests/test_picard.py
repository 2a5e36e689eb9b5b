"""Fixed-point driver: exact families, guards, contraction reporting."""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from trijunction import (BoundaryTriple, DegenerateMetric, G_eval, Grid2D, GuardViolation,
                         NoConvergence, SolveFailure, SolveOptions, TripleField,
                         boundary_operator, contraction_diagnostics, exact_family,
                         mean_curvature, picard_step, solve_linear_system, solve_nonlinear)
from trijunction.curvature import _junction_defect
from trijunction.cli import report_summary, report_to_csv
from trijunction.oracles import random_compatible_field
from trijunction.picard import residual_record

from conftest import (benchmark_inputs, count_calls, random_boundary, rotation_field,
                      spine_series, translation_field)


OPTS = SolveOptions()


@pytest.mark.parametrize("bad", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
    {"r_guard": float("nan")}, {"r_guard": float("inf")}, {"r_guard": -0.1},
    {"alpha": float("nan")}, {"alpha": -3.0}, {"alpha": 0.0}, {"alpha": 1.5},
    {"max_iter": 0}])
def test_solve_options_reject_nan_and_out_of_range(bad):
    # a NaN tol or r_guard never compares true, so it would silently disable
    # the stop test or the guard; a NaN alpha would drop the Hoelder term
    with pytest.raises(ValueError):
        SolveOptions(**bad)


def test_solve_options_fields_and_edges():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == \
        ["tol", "max_iter", "r_guard", "alpha"]
    SolveOptions(tol=1e-300, r_guard=1e300, alpha=1.0)


def test_picard_step_zero(grid, cutoff):
    u0 = TripleField.zero(grid)
    step = picard_step(u0, BoundaryTriple.zero(grid.ny), cutoff)
    assert step.sup() < 1e-15


def test_picard_step_constant_phi_is_linear_extension(grid, cutoff):
    c = 0.01
    phi = BoundaryTriple(grid.ny, np.full((3, grid.ny), c))
    u1 = picard_step(TripleField.zero(grid), phi, cutoff)
    B = boundary_operator(u1)
    assert np.max(np.abs(B)) < 1e-12                  # junction data vanishes
    for i in (1, 2, 3):
        assert np.max(np.abs(u1.traces("outer")[i - 1] - c)) < 1e-14


def test_solve_zero_boundary(grid, cutoff):
    u, report = solve_nonlinear(BoundaryTriple.zero(grid.ny), OPTS, grid, cutoff)
    assert u.sup() < 1e-15
    assert report.iterations <= 1
    assert report.converged


def test_solve_translation_family(grid, cutoff):
    c = (0.01, 0.0)
    exact = translation_field(grid, c)
    phi = BoundaryTriple(grid.ny, exact.traces("outer"))
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    err = (u - exact).sup()
    assert err < 1e-8
    assert report.converged and report.iterations <= 10
    # the reconstructed spine is the translation vector
    spine = spine_series(u.traces())
    assert np.max(np.abs(spine - np.array(c)[:, None])) < 1e-10


def test_solve_rotation_family(grid):
    # the tilted-ray solution has proxy norm 3 beta, so the embedding regime
    # needs delta > 30 beta; delta = 0.35 accommodates beta = 0.01
    from trijunction import CutoffProfile
    cutoff = CutoffProfile(0.35)
    beta = 0.01
    exact = rotation_field(grid, beta)
    phi = BoundaryTriple(grid.ny, np.full((3, grid.ny), beta))
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    err = (u - exact).sup()
    assert err < 1e-8
    assert report.converged and report.iterations <= 10


def test_converged_solution_passes_residuals_and_guards(grid, cutoff, monkeypatch):
    from trijunction import curvature, picard, spectral
    calls = []
    transform = spectral.cheb_coefficients
    monkeypatch.setattr(spectral, "cheb_coefficients",
                        lambda values: calls.append(1) or transform(values))
    H_calls = []
    curvature_of = curvature.mean_curvature
    for module in (curvature, picard):      # F_eval's and residual_record's binding
        monkeypatch.setattr(module, "mean_curvature",
                            lambda *a, **k: H_calls.append(1) or curvature_of(*a, **k))
    F_calls = []
    defect = picard.F_eval
    monkeypatch.setattr(picard, "F_eval",
                        lambda *a, **k: F_calls.append(1) or defect(*a, **k))
    rng = np.random.default_rng(20)
    phi = random_boundary(grid.ny, rng, 0.005)
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    # the zero start is never differentiated, so u1 and u2 are the only
    # fields that are: one x-transform of all three sheets each; F is
    # evaluated at u1 for the second step, and the residuals of u2 read H
    # directly: one evaluation of H per differentiated field
    assert report.iterations == 2
    assert len(calls) == 2
    assert len(F_calls) == 1
    assert len(H_calls) == 2
    r = report.final_residuals
    assert r.trace_sum < 1e-10
    assert r.outer_trace < 1e-10
    assert r.conormal_sup < 1e-6
    assert r.boundary < 1e-9
    assert report.guards.within_guard
    assert report.guards.embed_margin > 0.0
    assert report.guards.smallness_ok


def test_a_warm_solve_differentiates_each_iterate_once(grid, cutoff, monkeypatch):
    # the jet is the one derivative pass: u1 and u2 make one Fourier pass
    # each (u_y, u_yy and u_xy), and the wall and spine slopes are read from
    # it; the FFTs are the two jets' 3 + 3 and the two linear solves' spectra
    # of their data
    from trijunction import spectral
    phi = random_boundary(grid.ny, np.random.default_rng(20), 0.005)
    solve_nonlinear(phi, OPTS, grid, cutoff)           # warm the per-grid caches
    calls = count_calls(monkeypatch, spectral, ("fourier_derivative", "fourier_jet"))
    ffts = count_calls(monkeypatch, np.fft, ("rfft", "irfft"))
    _, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    assert report.iterations == 2
    assert calls == {"fourier_derivative": 0, "fourier_jet": 2}
    assert ffts == {"rfft": 8, "irfft": 4}


@pytest.mark.parametrize("nx,ny", [(48, 64), (96, 256)])
def test_residual_record_reads_the_certificates_directly(nx, ny, cutoff):
    # on the benchmark's library inputs, laplace is the interior |H| and
    # boundary the conormal projections |P| exactly, with no Lap u - F or
    # junction rows - G round trip; G is one (2, ny) array, N(u) + P
    grid = Grid2D(nx, ny)
    for seed in (1, 2, 3):
        for phi in benchmark_inputs().library_inputs(seed, ny, 16):
            u, report = solve_nonlinear(phi, OPTS, grid, cutoff)
            rec = residual_record(u, phi, cutoff)
            assert rec == report.final_residuals
            assert rec.laplace == np.abs(mean_curvature(u, cutoff)[:, 1:-1]).max()
            G, P, _ = _junction_defect(u)
            assert rec.boundary == np.abs(P).max()
            assert type(G_eval(u)) is np.ndarray and G.shape == (2, ny)
            assert np.array_equal(G_eval(u), G)
            assert np.array_equal(G, boundary_operator(u)[1:] + P)


def test_first_iterate_is_linear_solve_of_boundary_data(grid, cutoff):
    # F(0) = 0 and G(0) = 0 on the stationary cone, so the first step is the
    # linear solve of phi with no forcing and no junction data
    rng = np.random.default_rng(24)
    phi = random_boundary(grid.ny, rng, 0.005)
    u, report = solve_nonlinear(phi, SolveOptions(tol=1.0, max_iter=1), grid, cutoff)
    zero = np.zeros(grid.ny)
    expected = solve_linear_system(TripleField.zero(grid), (zero, zero), phi)
    assert report.iterations == 1 and report.converged
    assert np.array_equal(u.values, expected.values)
    assert report.update_norms == (expected.sup(),)


def test_update_norms_decay_and_ratios_recorded(grid, cutoff):
    rng = np.random.default_rng(21)
    phi = random_boundary(grid.ny, rng, 0.005)
    _, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    upd = report.update_norms
    assert all(upd[j + 1] <= 0.9 * upd[j] for j in range(len(upd) - 1))
    for j, ratio in enumerate(report.contraction_ratios):
        assert ratio == pytest.approx(upd[j + 1] / upd[j], rel=1e-12)


def test_fixed_point_reapplication(grid, cutoff):
    rng = np.random.default_rng(22)
    phi = random_boundary(grid.ny, rng, 0.004)
    u, report = solve_nonlinear(phi, OPTS, grid, cutoff)
    again = picard_step(u, phi, cutoff)
    assert (again - u).sup() < 10 * OPTS.tol
    # the returned iterate is step 2 applied to step 1's iterate, bit for bit
    u1, _ = solve_nonlinear(phi, SolveOptions(tol=1.0), grid, cutoff)
    assert report.iterations == 2
    assert np.array_equal(picard_step(u1, phi, cutoff).values, u.values)


def test_guard_violation_on_large_data(grid, cutoff):
    rng = np.random.default_rng(23)
    phi = random_boundary(grid.ny, rng, cutoff.delta)
    with pytest.raises(SolveFailure) as exc_info:
        solve_nonlinear(phi, OPTS, grid, cutoff)
    exc = exc_info.value
    # post-mortem payload is attached
    assert isinstance(exc.field, TripleField)
    assert len(exc.report.update_norms) == exc.report.iterations
    assert not exc.report.converged


def test_no_convergence_carries_history(grid_small, cutoff):
    rng = np.random.default_rng(24)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    tight = SolveOptions(tol=1e-30, max_iter=3)
    with pytest.raises(NoConvergence) as exc_info:
        solve_nonlinear(phi, tight, grid_small, cutoff)
    assert exc_info.value.report.iterations == 3
    assert len(exc_info.value.report.update_norms) == 3


def test_determinism_bit_identical(grid_small, cutoff):
    rng = np.random.default_rng(26)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    u_a, rep_a = solve_nonlinear(phi, OPTS, grid_small, cutoff)
    u_b, rep_b = solve_nonlinear(phi, OPTS, grid_small, cutoff)
    assert rep_a == rep_b
    assert np.array_equal(u_a.values, u_b.values)


def test_contraction_diagnostics_zero_data(grid_small, cutoff):
    est, ratios = contraction_diagnostics(BoundaryTriple.zero(grid_small.ny), OPTS,
                                          grid_small, cutoff, seed=0)
    assert all(r < 1.0 for r in ratios)
    assert est.c_lin > 0
    # the orbit of zero is round-off: no absorption constant to measure
    assert est.c1 is None and est.r_tilde is None


def test_contraction_diagnostics_small_data(grid_small, cutoff):
    rng = np.random.default_rng(27)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    est, ratios = contraction_diagnostics(phi, OPTS, grid_small, cutoff, seed=1)
    assert len(ratios) >= 1
    assert all(r < 1.0 for r in ratios)
    assert all(r < 0.6 for r in ratios[1:])
    assert est.c1 is not None and est.c2 is not None
    assert est.r_tilde is not None and 0 < est.r_tilde <= 1.0


def test_contraction_diagnostics_computes_each_proxy_and_step_once(grid_small, cutoff,
                                                                   monkeypatch):
    from trijunction import oracles, picard
    seen = {"norm_proxy": [], "picard_step": []}

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(u, *args, **kwargs):
            order = args[1] if name == "norm_proxy" and len(args) > 1 else None
            seen[name].append((u.values.tobytes(), order))
            return fn(u, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(oracles, "norm_proxy")
    spy(picard, "norm_proxy")           # the guard record's proxy
    spy(oracles, "picard_step")
    rng = np.random.default_rng(27)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    _, ratios = contraction_diagnostics(phi, OPTS, grid_small, cutoff, seed=1)
    assert len(ratios) == 1             # the orbits merge after one step
    # no field is measured or stepped twice, even as an equal copy: the c1
    # probe continues the orbit of zero that the ratio loop walked
    for name, calls in seen.items():
        assert len(set(calls)) == len(calls), name
    # scaling the random start v; the ratio loop: zero, u - v, v, the guard of
    # A u, A u - A v, then A v before the merge test; the c1 probe: u_2 .. u_5;
    # the linear probe: 2 per sample
    assert len(seen["norm_proxy"]) == 1 + 6 + 4 + 2 * 4
    # two steps per ratio, then the orbit of zero on to u_5
    assert len(seen["picard_step"]) == 2 + 4


def test_contraction_stress_not_hidden(grid_small, cutoff):
    # far beyond the guard the run must either report non-contracting ratios
    # or fail loudly with a regime error, never diverge silently
    rng = np.random.default_rng(28)
    phi = random_boundary(grid_small.ny, rng, 0.05)
    try:
        est, ratios = contraction_diagnostics(phi * 10.0, OPTS, grid_small, cutoff, seed=2)
        assert any(r >= 1.0 for r in ratios) or not ratios
    except (SolveFailure, DegenerateMetric):
        pass


@pytest.mark.filterwarnings("ignore::trijunction.fields.AliasingWarning")   # out-of-regime data
def test_contraction_diagnostics_failure_report_is_consistent(cutoff):
    # the diagnostic orbit leaves the trust ball; its report must count the
    # steps it took, as solve_nonlinear's reports do
    grid = Grid2D(16, 16)
    phi, _ = exact_family("translate", (0.01, 0), grid, cutoff)
    with pytest.raises(GuardViolation) as exc_info:
        contraction_diagnostics(phi * 3.0, OPTS, grid, cutoff, start_scale=0.2)
    report = exc_info.value.report
    assert report.iterations >= 1
    assert len(report.update_norms) == report.iterations
    assert not report.converged and not report.guards.within_guard
    assert report.guards.norm_proxy > report.guards.r_guard


@pytest.mark.filterwarnings("ignore::trijunction.fields.AliasingWarning")   # out-of-regime data
def test_degenerate_metric_stops_the_solve_with_a_guard_violation(cutoff):
    # data far past the guard (lifted here) bends a sheet until it is no
    # longer a graph: the step after that iterate cannot evaluate the metric
    grid = Grid2D(16, 16)
    c = 30.0 * np.cos(2 * np.pi * grid.y)
    phi = BoundaryTriple(grid.ny, np.stack([c, -c, np.zeros(grid.ny)]))
    with pytest.raises(GuardViolation, match="left the embeddable regime") as exc_info:
        solve_nonlinear(phi, SolveOptions(r_guard=1e6), grid, cutoff)
    exc = exc_info.value
    assert str(exc).startswith("iteration 3:")
    assert isinstance(exc.__cause__, DegenerateMetric)
    report = exc.report
    assert report.iterations == len(report.update_norms) == 2
    assert not report.converged
    r = report.final_residuals
    assert np.isnan(r.laplace) and np.isnan(r.boundary) and np.isnan(r.conormal_sup)
    assert np.isfinite(r.outer_trace)
    # the guard record of the last iterate already shows the lost embedding
    assert report.guards.within_guard and report.guards.embed_margin < 0.0
    assert isinstance(exc.field, TripleField)


def test_report_serialization(grid_small, cutoff):
    rng = np.random.default_rng(29)
    phi = random_boundary(grid_small.ny, rng, 0.004)
    _, report = solve_nonlinear(phi, OPTS, grid_small, cutoff)
    csv = report_to_csv(report, {"delta": cutoff.delta})
    lines = csv.splitlines()
    assert lines[0] == f"# delta = {cutoff.delta}"
    assert lines[1] == "iteration,update_norm,contraction_ratio"
    assert len(lines) == 2 + report.iterations
    text = report_summary(report)
    assert "converged" in text and "conormal" in text


def test_residual_record_zero_field(grid, cutoff):
    rec = residual_record(TripleField.zero(grid), BoundaryTriple.zero(grid.ny),
                          cutoff)
    assert rec.laplace == 0.0
    assert rec.trace_sum == 0.0
    assert rec.outer_trace == 0.0
    assert rec.conormal_sup < 1e-15


def test_solution_grid_independent(cutoff):
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
        u, _ = solve_nonlinear(phi_for(ny, scale), OPTS, Grid2D(nx, ny), cutoff)
        sols[(nx, ny)] = u
    xs = np.array([0.1, 0.3, 0.5, 0.9])
    ys = np.array([0.05, 0.4, 0.7, 0.95])
    X, Y = np.meshgrid(xs, ys)
    from trijunction.spectral import interpolate
    d = max(np.max(np.abs(interpolate(sols[(48, 64)].values[i], X, Y)
                          - interpolate(sols[(64, 96)].values[i], X, Y))) for i in range(3))
    assert d < 1e-10


def test_two_threads_share_fields_and_reports_bit_for_bit(cutoff):
    # values are immutable and operations pure: two threads that race to fill
    # one shared field's jet, on a grid no other test warms (so the per-grid
    # caches start cold too), get what one thread gets alone
    grid = Grid2D(22, 52)
    rng = np.random.default_rng(44)
    phi = random_boundary(grid.ny, rng, 0.005)
    shared = random_compatible_field(grid, rng, amplitude=1e-3)
    start = threading.Barrier(2)

    def work(u):
        step = picard_step(u, phi, cutoff)
        record = residual_record(u, phi, cutoff)
        solution, report = solve_nonlinear(phi, OPTS, grid, cutoff)
        return step.values, record, solution.values, report

    def racing():
        start.wait(timeout=60)
        return work(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                         # switch threads as often as it can
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [job.result(timeout=120) for job in [pool.submit(racing) for _ in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    alone = work(TripleField(grid, shared.values))      # a fresh field, its jet unfilled
    for run in runs:
        assert np.array_equal(run[0], alone[0]) and np.array_equal(run[2], alone[2])
        assert run[1] == alone[1] and run[3] == alone[3]


# maps of boundary data and solutions, (3, ..., ny) arrays, under which the
# cone Y x S^1 is invariant: a shift and a reflection of S^1, and the
# dihedral group of the three rays, whose reflection swaps two sheets and
# reverses their normals
SYMMETRIES = {
    "y-shift": lambda a: np.roll(a, 1, axis=-1),
    "y-reflection": lambda a: a[..., -np.arange(a.shape[-1])],
    "cyclic relabelling": lambda a: a[[1, 2, 0]],
    "swap 2, 3 and negate": lambda a: -a[[0, 2, 1]],
}


def swap_without_sign(a):
    """Swap sheets 2 and 3 but keep their normals: not a symmetry of the cone."""
    return a[[0, 2, 1]]


@pytest.mark.parametrize("proxy, r_guard", [
    pytest.param(0.01, None, id="proxy-0.01"),
    # out of the default regime: the alarm fires on round-off in the inner
    # Neumann data (ROADMAP item 4, a round-off-aware resolution test)
    pytest.param(0.4, 1e3, id="proxy-0.4", marks=pytest.mark.filterwarnings(
        "ignore:inner Neumann data:trijunction.fields.AliasingWarning"))])
def test_the_solver_commutes_with_the_symmetries_of_the_cone(grid, cutoff, proxy, r_guard):
    # the solution of mapped data is the mapped solution, to round-off
    # relative to sup |u|; the control map's defect is the nonlinear part
    opts = SolveOptions(r_guard=r_guard)

    def defect(phi, u, g):
        v, _ = solve_nonlinear(BoundaryTriple(grid.ny, g(phi.values)), opts, grid, cutoff)
        return np.abs(v.values - g(u.values)).max() / u.sup()

    for phi in benchmark_inputs().library_inputs(2, grid.ny, 4, proxy):
        u, _ = solve_nonlinear(phi, opts, grid, cutoff)
        for name, g in SYMMETRIES.items():
            assert defect(phi, u, g) <= 1e-10, name
        assert defect(phi, u, swap_without_sign) >= 1e-8
