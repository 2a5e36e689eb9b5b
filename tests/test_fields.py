"""Discrete fields: spectral calculus, traces, norm proxies, CSV round trips."""

import numpy as np
import pytest

from trijunction import (AliasingWarning, BoundaryTriple, Grid2D, ScalarField,
                         TripleField, boundary_proxy, diff, laplacian,
                         load_field_csv, norm_proxy, normal_derivative_inner,
                         periodic_proxy, save_field_csv, trace)
from trijunction.fields import scalar_field_proxy, warn_if_aliased

from conftest import translation_field


def test_grid_nodes(grid):
    assert grid.x[0] == 0.0
    assert grid.x[-1] == 1.0
    assert np.allclose(np.diff(grid.y), 1.0 / grid.ny)
    with pytest.raises(ValueError):
        Grid2D(4, 64)
    with pytest.raises(ValueError):
        Grid2D(48, 63)


def test_diff_polynomial_exact(grid):
    f = ScalarField.from_function(grid, lambda x, y: x ** 2)
    d = diff(f, 2, 0)
    assert np.max(np.abs(d.values - 2.0)) < 1e-10


def test_diff_fourier_exact(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * y))
    d = diff(f, 0, 1)
    expected = 2 * np.pi * np.cos(2 * np.pi * grid.y)
    assert np.max(np.abs(d.values - expected[None, :])) < 1e-10


def test_laplacian_manufactured():
    grid = Grid2D(32, 16)
    f = ScalarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * y) * np.sin(np.pi * x))
    lap = laplacian(f)
    assert np.max(np.abs(lap.values + 5 * np.pi ** 2 * f.values)) < 1e-8


def test_laplacian_trivial_cases(grid):
    const = ScalarField.from_function(grid, lambda x, y: np.full_like(x, 0.7))
    assert laplacian(const).sup() < 1e-11
    linear = ScalarField.from_function(grid, lambda x, y: 0.01 * x)
    assert laplacian(linear).sup() < 1e-12


def test_laplacian_harmonic():
    grid = Grid2D(48, 16)
    f = ScalarField.from_function(grid, lambda x, y: np.sinh(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert laplacian(f).sup() < 1e-6 * f.sup()


def test_trace_rows(grid):
    f = ScalarField.from_function(grid, lambda x, y: 0.3 * x)
    assert np.allclose(trace(f, "outer"), 0.3, atol=1e-15)
    assert np.allclose(trace(f, "inner"), 0.0, atol=1e-15)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((grid.nx, grid.ny))
    g = ScalarField(grid, vals)
    assert np.array_equal(trace(g, "inner"), vals[0])
    assert np.array_equal(trace(g, "outer"), vals[-1])
    with pytest.raises(ValueError):
        trace(g, "left")


def test_normal_derivative_inner(grid):
    f = ScalarField.from_function(grid, lambda x, y: 0.25 * x)
    assert np.max(np.abs(normal_derivative_inner(f) + 0.25)) < 1e-12
    const = ScalarField.from_function(grid, lambda x, y: np.full_like(x, 1.3))
    assert np.max(np.abs(normal_derivative_inner(const))) < 1e-12


def test_normal_derivative_analytic():
    grid = Grid2D(48, 16)
    f = ScalarField.from_function(grid, lambda x, y: np.sinh(2 * np.pi * x) * np.sin(2 * np.pi * y))
    expected = -2 * np.pi * np.sin(2 * np.pi * grid.y)
    assert np.max(np.abs(normal_derivative_inner(f) - expected)) < 1e-6


def test_diff_linearity(grid):
    rng = np.random.default_rng(1)
    a = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
    b = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
    lhs = diff(a + 2.0 * b, 1, 1).values
    rhs = diff(a, 1, 1).values + 2.0 * diff(b, 1, 1).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_trace_commutes_with_mode_differentiation(grid):
    from trijunction.spectral import fourier_derivative
    rng = np.random.default_rng(2)
    f = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
    via_field = trace(diff(f, 0, 1), "inner")
    via_row = fourier_derivative(trace(f, "inner"), 1)
    assert np.max(np.abs(via_field - via_row)) < 1e-10


def test_spectral_accuracy_improves_superalgebraically():
    # analytic in x, band-limited in y: halving the x resolution must cost
    # far more than any fixed power would
    errs = []
    for nx in (10, 20):
        grid = Grid2D(nx, 16)
        f = ScalarField.from_function(grid, lambda x, y: np.exp(x) * np.cos(2 * np.pi * y))
        d = diff(f, 1, 0)
        errs.append(np.max(np.abs(d.values - f.values)))
    assert errs[1] < errs[0] / 100.0


def test_eval_interpolates(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(1.3 * x) + np.cos(2 * np.pi * y))
    xq = np.array([0.123, 0.5, 0.987])
    yq = np.array([0.21, 0.73, 0.05])
    out = f.eval(xq, yq)
    assert np.max(np.abs(out - (np.sin(1.3 * xq) + np.cos(2 * np.pi * yq)))) < 1e-12
    # scalar input returns a scalar, grid points hit exactly
    assert f.eval(grid.x[3], grid.y[5]) == pytest.approx(f.values[3, 5], abs=1e-14)


def test_norm_proxy_zero_and_translation(grid, frame):
    assert norm_proxy(TripleField.zero(grid), 0.5) == 0.0
    u = translation_field(grid, frame, (0.01, 0.0))
    # constants keep only the zeroth-order term: 0.01 * (0 + 2 * sqrt(3)/2)
    assert norm_proxy(u, 0.5) == pytest.approx(0.01 * np.sqrt(3.0), rel=1e-9)


def test_norm_proxy_homogeneous(grid_small):
    rng = np.random.default_rng(3)
    u = TripleField.from_arrays(
        grid_small, [rng.standard_normal((grid_small.nx, grid_small.ny)) for _ in range(3)])
    p = norm_proxy(u, 0.5)
    assert norm_proxy(0.5 * u, 0.5) == pytest.approx(0.5 * p, rel=1e-14)
    assert norm_proxy(0.3 * u, 0.5) == pytest.approx(0.3 * p, rel=1e-12)


def test_norm_proxy_triangle_inequality(grid_small):
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = TripleField.from_arrays(
            grid_small, [rng.standard_normal((grid_small.nx, grid_small.ny)) for _ in range(3)])
        b = TripleField.from_arrays(
            grid_small, [rng.standard_normal((grid_small.nx, grid_small.ny)) for _ in range(3)])
        assert norm_proxy(a + b, 0.5) <= norm_proxy(a, 0.5) + norm_proxy(b, 0.5) + 1e-12


def test_periodic_proxy_orders():
    ny = 64
    y = np.arange(ny) / ny
    g = np.cos(2 * np.pi * y)
    p0 = periodic_proxy(g, 0.5, order=0)
    p2 = periodic_proxy(g, 0.5, order=2)
    assert p2 >= (2 * np.pi) ** 2          # includes the second derivative sup
    assert p0 >= 1.0
    assert p2 > p0


def test_boundary_triple_validation():
    with pytest.raises(ValueError):
        BoundaryTriple(16, np.zeros((2, 16)))
    with pytest.raises(ValueError):
        BoundaryTriple(16, np.full((3, 16), np.nan))
    phi = BoundaryTriple.zero(16)
    assert boundary_proxy(phi, 0.5) == 0.0


def test_field_csv_roundtrip(tmp_path, grid_small):
    rng = np.random.default_rng(5)
    f = ScalarField(grid_small, rng.standard_normal((grid_small.nx, grid_small.ny)))
    path = str(tmp_path / "f.csv")
    save_field_csv(f, path, 0.25, {"family": "translate:0.01,0"})
    g, delta, header = load_field_csv(path)
    assert delta == 0.25
    assert header["family"] == "translate:0.01,0"
    assert np.array_equal(g.values, f.values)


def test_fields_immutable(grid_small):
    f = ScalarField.zero(grid_small)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    for arr in f.jet:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_jet_is_cached_and_matches_fresh_derivatives(grid_small):
    from trijunction import spectral
    rng = np.random.default_rng(4)
    f = ScalarField(grid_small, rng.standard_normal((grid_small.nx, grid_small.ny)))
    assert f.jet is f.jet
    ux = spectral.cheb_derivative_values(f.values, 1)
    fresh = {"ux": ux,
             "uy": spectral.fourier_derivative(f.values, 1, axis=1),
             "uxx": spectral.cheb_derivative_values(f.values, 2),
             "uxy": spectral.fourier_derivative(ux, 1, axis=1),
             "uyy": spectral.fourier_derivative(f.values, 2, axis=1)}
    for name, arr in f.jet._asdict().items():
        assert np.array_equal(arr, fresh[name]), name
    assert np.array_equal(diff(f, 1, 1).values, fresh["uxy"])


def test_aliasing_warning_fires_and_floor_suppresses():
    ny = 64
    y = np.arange(ny) / ny
    noisy = np.sin(2 * np.pi * 30 * y)
    with pytest.warns(AliasingWarning):
        warn_if_aliased(noisy, "test data")
    # round-off-level data is ignored
    assert not warn_if_aliased(1e-15 * noisy, "tiny", floor=5e-14)


def test_scalar_field_proxy_order0_is_sup_plus_seminorm(grid_small):
    f = ScalarField.from_function(grid_small, lambda x, y: np.full_like(x, 2.0))
    assert scalar_field_proxy(f, 0.5, order=0) == pytest.approx(2.0)


def test_triple_field_requires_shared_grid():
    a = ScalarField.zero(Grid2D(16, 16))
    b = ScalarField.zero(Grid2D(16, 32))
    with pytest.raises(ValueError):
        TripleField((a, a, b))


def test_boundary_aliasing_flag():
    ny = 64
    y = np.arange(ny) / ny
    clean = BoundaryTriple(ny, np.stack([np.cos(2 * np.pi * y)] * 3))
    assert not clean.aliasing_suspect()
    dirty = BoundaryTriple(ny, np.stack([np.cos(2 * np.pi * y),
                                         np.sin(2 * np.pi * 30 * y),
                                         np.zeros(ny)]))
    assert dirty.aliasing_suspect()
