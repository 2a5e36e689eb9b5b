"""Independent finite-difference oracles and exact reference families."""

import numpy as np
import pytest

from trijunction import (CutoffProfile, SolveOptions, TripleField,
                         exact_family, fd_linear_solve, fd_mean_curvature,
                         junction_angle_check, mean_curvature, solve_nonlinear,
                         solve_scalar, F_eval, G_eval, curvature)
from trijunction.oracles import random_compatible_field, scaled_to_proxy
from trijunction.spectral import interpolate

from conftest import random_boundary, rotation_field


def test_fd_mean_curvature_flat_and_translate(grid, cutoff, frame):
    u0 = TripleField.zero(grid)
    assert abs(fd_mean_curvature(1, u0, (0.4, 0.3), 1e-3, cutoff, frame)) < 1e-8
    _, ut = exact_family("translate", (0.01, 0.0), grid, cutoff, frame)
    for i in (1, 2, 3):
        assert abs(fd_mean_curvature(i, ut, (0.37, 0.61), 1e-3, cutoff, frame)) < 1e-6


def test_fd_mean_curvature_matches_spectral(grid, cutoff, frame):
    rng = np.random.default_rng(30)
    u = scaled_to_proxy(random_compatible_field(grid, rng, frame), 0.012, 0.5)
    pt = (0.4371, 0.2619)
    H_at = interpolate(mean_curvature(u, cutoff)[0], *pt)
    fd_h = fd_mean_curvature(1, u, pt, 1e-3, cutoff, frame)
    fd_h2 = fd_mean_curvature(1, u, pt, 5e-4, cutoff, frame)
    # Richardson: the h-step error bounds the truncation constant
    assert abs(fd_h - H_at) <= 4.0 * abs(fd_h - fd_h2) + 1e-9
    assert abs(fd_h - H_at) < 1e-6


def test_fd_mean_curvature_refinement_slope(grid, cutoff, frame):
    rng = np.random.default_rng(31)
    u = scaled_to_proxy(random_compatible_field(grid, rng, frame), 0.012, 0.5)
    pt = (0.52, 0.77)
    ref = interpolate(mean_curvature(u, cutoff)[1], *pt)
    errs = [abs(fd_mean_curvature(2, u, pt, h, cutoff, frame) - ref)
            for h in (8e-3, 4e-3, 2e-3)]
    slopes = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
    for s in slopes:
        assert 1.8 <= s <= 2.2


def test_fd_mean_curvature_domain_checks(grid, cutoff, frame):
    u0 = TripleField.zero(grid)
    with pytest.raises(ValueError):
        fd_mean_curvature(1, u0, (0.001, 0.3), 1e-3, cutoff, frame)
    with pytest.raises(ValueError):
        fd_mean_curvature(1, u0, (0.5, 0.3), 1e-1, cutoff, frame)


def test_fd_linear_solve_zero():
    zero1 = lambda y: np.zeros_like(y)
    zero2 = lambda x, y: np.zeros_like(x)
    for kind in ("dirichlet", "mixed"):
        _, _, vals = fd_linear_solve(zero2, zero1, zero1, (17, 16), kind)
        assert np.max(np.abs(vals)) == 0.0


def test_fd_linear_solve_manufactured_slope():
    f = lambda X, Y: -5 * np.pi ** 2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    exact = lambda X, Y: np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    errs = []
    for N in (16, 32, 64):
        xs, ys, vals = fd_linear_solve(f, None, lambda y: np.zeros_like(y),
                                       (N + 1, N), "dirichlet")
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        errs.append(np.max(np.abs(vals - exact(X, Y))))
    slopes = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
    for s in slopes:
        assert 1.8 <= s <= 2.2


def test_fd_linear_solve_mixed_manufactured_slope():
    # v = cos(pi x / 2) cos(2 pi y): v_x(0) = 0, v(1, .) = 0
    lam = np.pi ** 2 / 4 + 4 * np.pi ** 2
    f = lambda X, Y: -lam * np.cos(np.pi * X / 2) * np.cos(2 * np.pi * Y)
    exact = lambda X, Y: np.cos(np.pi * X / 2) * np.cos(2 * np.pi * Y)
    zero1 = lambda y: np.zeros_like(y)
    errs = []
    for N in (16, 32, 64):
        xs, ys, vals = fd_linear_solve(f, zero1, zero1, (N + 1, N), "mixed")
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        errs.append(np.max(np.abs(vals - exact(X, Y))))
    slopes = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
    for s in slopes:
        assert 1.8 <= s <= 2.2


def test_fd_linear_solve_agrees_with_spectral(grid):
    rng = np.random.default_rng(32)

    def rand_map():
        a, b, c = 0.3 * rng.standard_normal(3)
        return lambda y, a=a, b=b, c=c: (a + b * np.cos(2 * np.pi * y)
                                         + c * np.sin(2 * np.pi * y))

    fy1, fy2, gm, pm = rand_map(), rand_map(), rand_map(), rand_map()
    ffun = lambda X, Y: fy1(Y) * (1 - X) + fy2(Y) * X ** 2
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    v_spec = solve_scalar(ffun(X, Y), pm(grid.y), gm(grid.y))
    for N in (16, 32, 64):
        xs, ys, vals = fd_linear_solve(ffun, gm, pm, (N + 1, N), "mixed")
        Xs, Ys = np.meshgrid(xs, ys, indexing="ij")
        assert np.max(np.abs(vals - interpolate(v_spec, Xs, Ys))) < 5.0 / N ** 2


def test_junction_angles_flat_and_rotation(grid, frame, cutoff):
    rep = junction_angle_check(TripleField.zero(grid), frame)
    assert rep.max_deviation < 1e-14
    assert rep.angles.shape == (3, grid.ny)
    rep = junction_angle_check(rotation_field(grid, 0.01), frame)
    assert rep.max_deviation < 1e-12


def test_junction_angles_converged_solution(grid, cutoff, frame):
    rng = np.random.default_rng(33)
    phi = random_boundary(grid.ny, rng, 0.005)
    u, _ = solve_nonlinear(phi, SolveOptions(), grid, cutoff, frame)
    rep = junction_angle_check(u, frame)
    assert rep.max_deviation < 1e-4


def test_junction_angles_rebuild_the_spine_once(grid_small, frame, monkeypatch):
    # the three conormals share one spine: one reconstruction per check, and
    # the angles are those between the conormals G_eval reads
    u = scaled_to_proxy(random_compatible_field(grid_small, np.random.default_rng(5), frame),
                        0.01, 0.5)
    calls = []
    monkeypatch.setattr(curvature, "spine_samples",
                        lambda *a, f=curvature.spine_samples: calls.append(1) or f(*a))
    rep = junction_angle_check(u, frame)
    assert len(calls) == 1
    xi = curvature._conormals(u, frame)[0]
    for row, (a, b) in zip(rep.angles, ((0, 1), (1, 2), (2, 0))):
        assert np.array_equal(row, np.arccos(np.clip((xi[a] * xi[b]).sum(axis=1), -1.0, 1.0)))


def test_exact_family_values(grid, cutoff, frame):
    phi, u = exact_family("translate", (0.01, 0.0), grid, cutoff, frame)
    expected = 0.01 * np.array([0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2])
    for i in (1, 2, 3):
        assert np.max(np.abs(phi.values[i - 1] - expected[i - 1])) < 1e-15

    phi, u = exact_family("rotate", 0.01, grid, cutoff, frame)
    assert np.max(np.abs(phi.values - 0.01)) < 1e-15

    for kind, val in (("translate", (0.01, 0.0)), ("rotate", 0.01)):
        _, u = exact_family(kind, val, grid, cutoff, frame)
        assert F_eval(u, cutoff).sup() < 1e-12
        G1, G2 = G_eval(u, frame)
        assert max(np.max(np.abs(G1)), np.max(np.abs(G2))) < 1e-12


def test_exact_family_magnitude_guard(grid, cutoff, frame):
    limit = cutoff.delta / 20.0
    with pytest.raises(ValueError):
        exact_family("translate", (2 * limit, 0.0), grid, cutoff, frame)
    with pytest.raises(ValueError):
        exact_family("rotate", 2 * limit, grid, cutoff, frame)
    with pytest.raises(ValueError):
        exact_family("shear", 0.01, grid, cutoff, frame)


def test_fd_mean_curvature_across_periodic_seam(grid, cutoff, frame):
    # the stencil wraps around y = 0 without a jump
    rng = np.random.default_rng(34)
    u = scaled_to_proxy(random_compatible_field(grid, rng, frame), 0.01, 0.5)
    ref = mean_curvature(u, cutoff)[2]
    for y0 in (0.001, 0.999):
        fd = fd_mean_curvature(3, u, (0.45, y0), 1e-3, cutoff, frame)
        assert abs(fd - interpolate(ref, 0.45, y0)) < 1e-6


def test_fd_mean_curvature_batch_matches_single_points(grid, frame):
    # one embedding of all stencils gives the single-point values; the probes
    # include stencils across the y = 0 seam, at the cutoff joins and at the
    # edge of the domain
    cutoff = CutoffProfile(0.2)
    rng = np.random.default_rng(35)
    u = scaled_to_proxy(random_compatible_field(grid, rng, frame), 0.01, 0.5)
    h = 1e-3
    xs = (2 * h, cutoff.delta, 0.3, 2 * cutoff.delta, 0.7, 1.0 - 2 * h)
    points = np.array([(x, y) for x in xs for y in (0.0005, 0.1, 0.45, 0.999)])
    for i in (1, 2, 3):
        batch = fd_mean_curvature(i, u, points, h, cutoff, frame)
        single = [fd_mean_curvature(i, u, tuple(pt), h, cutoff, frame) for pt in points]
        assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
        assert all(isinstance(v, float) for v in single)
        assert np.max(np.abs(batch - single)) <= 1e-12
        one = fd_mean_curvature(i, u, points[:1], h, cutoff, frame)
        assert one.shape == (1,) and abs(one[0] - single[0]) <= 1e-12
    with pytest.raises(ValueError):
        fd_mean_curvature(1, u, np.array([(0.5, 0.3), (h, 0.3)]), h, cutoff, frame)
