"""Acceptance gate: the eight end-to-end criteria, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from trijunction import (BoundaryTriple, CutoffProfile, Grid2D, ModeProblem,
                         SolveFailure, SolveOptions,
                         TripleField, boundary_operator, exact_family,
                         fd_linear_solve, fd_mean_curvature, frame_vectors,
                         junction_angle_check, mean_curvature, solve_linear_system,
                         solve_nonlinear, solve_scalar, F_eval, G_eval)
from trijunction.linear import DECOUPLE, RECOMPOSE
from trijunction.oracles import (mode_solve_formula, random_compatible_field,
                                 random_smooth_field, random_smooth_map, scaled_to_proxy)
from trijunction.spectral import cheb_nodes, interpolate

from conftest import mode_solve_collocation, random_boundary

GRID = Grid2D(48, 64)
FRAME = frame_vectors()


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_family_reproduction():
    """Translate and rotate data reproduce the closed-form stationary surfaces."""
    results = []
    # the rotation solution has proxy norm 3*beta = 0.03, so its smallness
    # regime needs delta > 0.3; both deltas are legitimate parameter choices
    for kind, value, delta in (("translate", (0.01, 0.0), 0.25),
                               ("rotate", 0.01, 0.35)):
        cutoff = CutoffProfile(delta)
        phi, exact = exact_family(kind, value, GRID, cutoff, FRAME)
        t0 = time.perf_counter()
        u, rep = solve_nonlinear(phi, SolveOptions(), GRID, cutoff, FRAME)
        elapsed = time.perf_counter() - t0
        err = (u - exact).sup()
        results.append((kind, err, rep.iterations, elapsed))
    ok = all(err < 1e-8 and it <= 10 and dt < 30.0 for _, err, it, dt in results)
    report(1, ok, "; ".join(f"{k}: err={e:.2e}, iters={i}, {t:.2f}s"
                            for k, e, i, t in results))


def test_criterion_2_stationarity_certification():
    """Independent oracles certify 5 converged random-data solutions."""
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(101)
    pts = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.15, 0.5, 0.85)]
    worst = {"H": 0.0, "angle": 0.0, "trace_sum": 0.0, "outer": 0.0}
    for _ in range(5):
        phi = random_boundary(GRID.ny, rng, 0.005)
        u, rep = solve_nonlinear(phi, SolveOptions(), GRID, cutoff, FRAME)
        assert rep.converged
        h_max = max(abs(fd_mean_curvature(i, u, pt, 1e-3, cutoff, FRAME))
                    for i in (1, 2, 3) for pt in pts)
        worst["H"] = max(worst["H"], h_max)
        worst["angle"] = max(worst["angle"],
                             junction_angle_check(u, FRAME).max_deviation)
        worst["trace_sum"] = max(worst["trace_sum"], rep.final_residuals.trace_sum)
        worst["outer"] = max(worst["outer"], rep.final_residuals.outer_trace)
    ok = (worst["H"] <= 1e-4 and worst["angle"] <= 1e-4
          and worst["trace_sum"] <= 1e-10 and worst["outer"] <= 1e-10)
    report(2, ok, f"max |H|={worst['H']:.2e}, angle dev={worst['angle']:.2e} rad, "
                  f"trace sum={worst['trace_sum']:.2e}, outer={worst['outer']:.2e}")


def test_criterion_3_linear_solver_correctness():
    """Manufactured solutions, dual-path agreement, and large-k stability."""
    X, Y = np.meshgrid(GRID.x, GRID.y, indexing="ij")
    exact_d = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    v = solve_scalar(-5 * np.pi ** 2 * exact_d, np.zeros(GRID.ny))
    err_d = np.max(np.abs(v - exact_d))

    exact_m = np.cosh(2 * np.pi * X) * np.cos(2 * np.pi * Y) / np.cosh(2 * np.pi)
    v = solve_scalar(np.zeros((GRID.nx, GRID.ny)), np.cos(2 * np.pi * GRID.y),
                     np.zeros(GRID.ny))
    err_m = np.max(np.abs(v - exact_m))

    x = cheb_nodes(GRID.nx)
    f = np.cos(3 * x) + x ** 3 - 0.5 * x
    rel = 0.0
    for k in range(1, 17):
        for kind in ("dirichlet", "mixed"):
            p = ModeProblem(k=k, kind=kind, f=f, phi=0.37, g=-0.21)
            ac = mode_solve_collocation(p)
            rel = max(rel, np.max(np.abs(ac - mode_solve_formula(p)))
                      / np.max(np.abs(ac)))

    finite = all(np.all(np.isfinite(mode_solve_formula(
        ModeProblem(k=512, kind=kind, f=f, phi=1.0, g=1.0))))
        and np.all(np.isfinite(mode_solve_collocation(
            ModeProblem(k=512, kind=kind, f=f, phi=1.0, g=1.0))))
        for kind in ("dirichlet", "mixed"))

    ok = err_d < 1e-8 and err_m < 1e-8 and rel < 1e-8 and finite
    report(3, ok, f"MMS dirichlet={err_d:.2e}, mixed={err_m:.2e}, "
                  f"path agreement k<=16: {rel:.2e}, k=512 finite: {finite}")


def test_criterion_4_quadratic_smallness():
    """Halving the field amplitude cuts both defects by at least 3.5."""
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(202)
    worst_F, worst_G = np.inf, np.inf
    for _ in range(20):
        u = scaled_to_proxy(random_compatible_field(GRID, rng, FRAME),
                            cutoff.delta / 20.0, 0.5)
        f1 = F_eval(u, cutoff).sup()
        f2 = F_eval(0.5 * u, cutoff).sup()
        g1 = max(np.max(np.abs(g)) for g in G_eval(u, FRAME))
        g2 = max(np.max(np.abs(g)) for g in G_eval(0.5 * u, FRAME))
        worst_F = min(worst_F, f1 / f2)
        worst_G = min(worst_G, g1 / g2)
    ok = worst_F >= 3.5 and worst_G >= 3.5
    report(4, ok, f"min halving ratio: F={worst_F:.3f}, G={worst_G:.3f} (ideal 4)")


def test_criterion_5_contraction_behavior():
    """Update ratios stay below 1 throughout and below 0.6 from iteration 3 on."""
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(303)
    opts = SolveOptions(tol=1e-13, max_iter=15)
    all_ok = True
    details = []
    for _ in range(3):
        phi = random_boundary(GRID.ny, rng, 0.005)
        _, rep = solve_nonlinear(phi, opts, GRID, cutoff, FRAME)
        ratios = rep.contraction_ratios
        ok = all(r < 1.0 for r in ratios) and all(r < 0.6 for r in ratios[1:])
        all_ok &= ok and len(ratios) >= 1
        details.append("[" + ", ".join(f"{r:.1e}" for r in ratios) + "]")
    report(5, all_ok, f"update ratios per run: {'; '.join(details)}")


def test_criterion_6_decouple_recompose_identity():
    """Exact round-trip algebra and the coupled junction operator."""
    rng = np.random.default_rng(404)
    u = TripleField(GRID, [rng.standard_normal((GRID.nx, GRID.ny)) for _ in range(3)])
    back = np.tensordot(RECOMPOSE, np.tensordot(DECOUPLE, u.values, axes=1), axes=1)
    ulp = np.finfo(float).eps
    roundtrip = np.max(np.abs(back - u.values))
    rt_ok = roundtrip <= 4 * ulp * u.sup()

    F = TripleField(GRID, [random_smooth_field(GRID, rng) for _ in range(3)])
    G = (random_smooth_map(GRID.ny, rng), random_smooth_map(GRID.ny, rng))
    phi = BoundaryTriple(GRID.ny, np.stack([random_smooth_map(GRID.ny, rng)
                                            for _ in range(3)]))
    sol = solve_linear_system(F, G, phi)
    B = boundary_operator(sol)
    scale = max(F.sup(), max(np.max(np.abs(g)) for g in G), 1.0)
    b_res = max(np.max(np.abs(B[0])), np.max(np.abs(B[1] - G[0])),
                np.max(np.abs(B[2] - G[1])))
    ok = rt_ok and b_res < 1e-8 * scale
    report(6, ok, f"roundtrip={roundtrip:.2e} (<= 4 ulp * scale), "
                  f"junction-operator residual={b_res:.2e}")


def test_criterion_7_fd_oracle_orders():
    """Both finite-difference oracles converge at second order."""
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(505)
    u = scaled_to_proxy(random_compatible_field(GRID, rng, FRAME), 0.012, 0.5)
    pt = (0.52, 0.77)
    ref = interpolate(mean_curvature(u, cutoff)[1], *pt)
    errs = [abs(fd_mean_curvature(2, u, pt, h, cutoff, FRAME) - ref)
            for h in (8e-3, 4e-3, 2e-3)]
    slopes_h = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]

    f = lambda X, Y: -5 * np.pi ** 2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    exact = lambda X, Y: np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    errs2 = []
    for N in (16, 32, 64):
        xs, ys, vals = fd_linear_solve(f, None, lambda y: np.zeros_like(y),
                                       (N + 1, N), "dirichlet")
        Xs, Ys = np.meshgrid(xs, ys, indexing="ij")
        errs2.append(np.max(np.abs(vals - exact(Xs, Ys))))
    slopes_n = [np.log2(errs2[j] / errs2[j + 1]) for j in range(2)]

    ok = all(1.8 <= s <= 2.2 for s in slopes_h + slopes_n)
    report(7, ok, f"curvature slopes (h): {[f'{s:.2f}' for s in slopes_h]}, "
                  f"solver slopes (grid): {[f'{s:.2f}' for s in slopes_n]}")


def test_criterion_8_guard_behavior():
    """Data at the cutoff scale fails loudly with a complete diagnostic report."""
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(606)
    phi = random_boundary(GRID.ny, rng, cutoff.delta)
    try:
        solve_nonlinear(phi, SolveOptions(), GRID, cutoff, FRAME)
        report(8, False, "oversized data converged silently")
        return
    except SolveFailure as exc:
        rep = exc.report
        complete = (rep.iterations >= 1
                    and len(rep.update_norms) == rep.iterations
                    and not rep.converged
                    and rep.guards.r_guard > 0
                    and isinstance(exc.field, TripleField))
        kind = type(exc).__name__
    report(8, complete, f"{kind} raised with {rep.iterations} iteration(s) recorded, "
                        f"proxy={rep.guards.norm_proxy:.3e} vs guard "
                        f"{rep.guards.r_guard:.3e}")
