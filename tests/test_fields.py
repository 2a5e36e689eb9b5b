"""Discrete fields: spectral calculus, traces, norm proxies, CSV round trips."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trijunction import (AliasingWarning, BoundaryTriple, CutoffProfile, Grid2D, SolveOptions,
                         TripleField, boundary_proxy, fields, norm_proxy,
                         periodic_proxy, picard, solve_nonlinear)
from trijunction.cli import atomic_write_text, read_table, table_csv
from trijunction.fields import (_dyadic_lags, _holder_seminorm_1d, _holder_seminorm_2d,
                               checked_spectrum)
from trijunction.spectral import bary_matrix, fourier_interpolate, interpolate

from conftest import (GROUPING_GRIDS, ONE_GROUP, PER_SHEET, benchmark_inputs, count_calls,
                      regrouped, translation_field)


def sampled(grid, fn):
    """A triple field whose three sheets all sample fn(x, y)."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return TripleField(grid, [fn(X, Y)] * 3)


def lap(u):
    return u.jet.uxx + u.jet.uyy


def random_triple(grid, seed):
    return TripleField(grid, np.random.default_rng(seed).standard_normal((3, grid.nx, grid.ny)))


def test_grid_nodes(grid):
    assert grid.x[0] == 0.0
    assert grid.x[-1] == 1.0
    assert np.allclose(np.diff(grid.y), 1.0 / grid.ny)
    with pytest.raises(ValueError):
        Grid2D(4, 64)
    with pytest.raises(ValueError):
        Grid2D(48, 63)


def test_diff_polynomial_exact(grid):
    u = sampled(grid, lambda x, y: x ** 2)
    assert np.max(np.abs(u.jet.uxx - 2.0)) < 1e-10


def test_diff_fourier_exact(grid):
    u = sampled(grid, lambda x, y: np.sin(2 * np.pi * y))
    expected = 2 * np.pi * np.cos(2 * np.pi * grid.y)
    assert np.max(np.abs(u.jet.uy - expected)) < 1e-10


def test_laplacian_manufactured():
    grid = Grid2D(32, 16)
    u = sampled(grid, lambda x, y: np.sin(2 * np.pi * y) * np.sin(np.pi * x))
    assert np.max(np.abs(lap(u) + 5 * np.pi ** 2 * u.values)) < 1e-8


def test_laplacian_trivial_cases(grid):
    const = sampled(grid, lambda x, y: np.full_like(x, 0.7))
    assert np.max(np.abs(lap(const))) < 1e-11
    linear = sampled(grid, lambda x, y: 0.01 * x)
    assert np.max(np.abs(lap(linear))) < 1e-12


def test_laplacian_harmonic():
    grid = Grid2D(48, 16)
    u = sampled(grid, lambda x, y: np.sinh(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert np.max(np.abs(lap(u))) < 1e-6 * u.sup()


def test_trace_rows(grid):
    u = sampled(grid, lambda x, y: 0.3 * x)
    assert np.allclose(u.traces("outer"), 0.3, atol=1e-15)
    assert np.allclose(u.traces("inner"), 0.0, atol=1e-15)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((3, grid.nx, grid.ny))
    g = TripleField(grid, vals)
    assert np.array_equal(g.traces("inner"), vals[:, 0])
    assert np.array_equal(g.traces("outer"), vals[:, -1])
    with pytest.raises(ValueError):
        g.traces("left")


def inner_normal_derivative(u):
    """The outward normal at x = 0 points in -x."""
    return -u.jet.ux[:, 0]


def test_inner_normal_derivative(grid):
    u = sampled(grid, lambda x, y: 0.25 * x)
    assert np.max(np.abs(inner_normal_derivative(u) + 0.25)) < 1e-12
    const = sampled(grid, lambda x, y: np.full_like(x, 1.3))
    assert np.max(np.abs(inner_normal_derivative(const))) < 1e-12


def test_normal_derivative_analytic():
    grid = Grid2D(48, 16)
    u = sampled(grid, lambda x, y: np.sinh(2 * np.pi * x) * np.sin(2 * np.pi * y))
    expected = -2 * np.pi * np.sin(2 * np.pi * grid.y)
    assert np.max(np.abs(inner_normal_derivative(u) - expected)) < 1e-6


def test_diff_linearity(grid):
    a, b = random_triple(grid, 1), random_triple(grid, 11)
    lhs = (a + 2.0 * b).jet.uxy
    rhs = a.jet.uxy + 2.0 * b.jet.uxy
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_trace_commutes_with_mode_differentiation(grid):
    from trijunction.spectral import fourier_derivative
    u = random_triple(grid, 2)
    via_field = u.jet.uy[:, 0]
    via_row = fourier_derivative(u.traces(), 1)
    assert np.max(np.abs(via_field - via_row)) < 1e-10


def test_spectral_accuracy_improves_superalgebraically():
    # analytic in x, band-limited in y: halving the x resolution must cost
    # far more than any fixed power would
    errs = []
    for nx in (10, 20):
        grid = Grid2D(nx, 16)
        u = sampled(grid, lambda x, y: np.exp(x) * np.cos(2 * np.pi * y))
        errs.append(np.max(np.abs(u.jet.ux - u.values)))
    assert errs[1] < errs[0] / 100.0


def test_eval_interpolates(grid):
    f = sampled(grid, lambda x, y: np.sin(1.3 * x) + np.cos(2 * np.pi * y)).values[0]
    xq = np.array([0.123, 0.5, 0.987])
    yq = np.array([0.21, 0.73, 0.05])
    out = interpolate(f, xq, yq)
    assert np.max(np.abs(out - (np.sin(1.3 * xq) + np.cos(2 * np.pi * yq)))) < 1e-12
    # scalar input returns a scalar, grid points hit exactly
    assert interpolate(f, grid.x[3], grid.y[5]) == pytest.approx(f[3, 5], abs=1e-14)


def test_norm_proxy_zero_and_translation(grid):
    assert norm_proxy(TripleField.zero(grid), 0.5) == 0.0
    u = translation_field(grid, (0.01, 0.0))
    # constants keep only the zeroth-order term: 0.01 * (0 + 2 * sqrt(3)/2)
    assert norm_proxy(u, 0.5) == pytest.approx(0.01 * np.sqrt(3.0), rel=1e-9)


def test_norm_proxy_homogeneous(grid_small):
    rng = np.random.default_rng(3)
    u = TripleField(grid_small, rng.standard_normal((3, grid_small.nx, grid_small.ny)))
    p = norm_proxy(u, 0.5)
    assert norm_proxy(0.5 * u, 0.5) == pytest.approx(0.5 * p, rel=1e-14)
    assert norm_proxy(0.3 * u, 0.5) == pytest.approx(0.3 * p, rel=1e-12)


def test_norm_proxy_triangle_inequality(grid_small):
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = TripleField(grid_small, rng.standard_normal((3, grid_small.nx, grid_small.ny)))
        b = TripleField(grid_small, rng.standard_normal((3, grid_small.nx, grid_small.ny)))
        assert norm_proxy(a + b, 0.5) <= norm_proxy(a, 0.5) + norm_proxy(b, 0.5) + 1e-12


def _seminorm_2d(arrays, grid, alpha):
    """The best-first search on one sheet whose slots are ``arrays``."""
    return _holder_seminorm_2d(np.asarray(arrays)[:, None], grid, alpha)[0]


def _roll_seminorm_2d(arrays, grid, alpha):
    """Reference: every periodic y-lag as an ``np.roll`` copy, one array at a
    time, combined by np.maximum, so that a NaN anywhere gives NaN."""
    best = 0.0
    x = grid.x
    for A in arrays:
        for lag in _dyadic_lags(grid.ny):
            d = min(lag, grid.ny - lag) / grid.ny
            best = np.maximum(best, np.max(np.abs(np.roll(A, -lag, axis=1) - A)) / d ** alpha)
        for lag in _dyadic_lags(grid.nx):
            dx = np.abs(x[lag:] - x[:-lag]) ** alpha
            num = np.max(np.abs(A[lag:, :] - A[:-lag, :]), axis=1)
            best = np.maximum(best, np.max(num / dx))
    return float(best)


def _roll_seminorm_1d(values, alpha):
    n = values.shape[-1]
    best = 0.0
    for lag in _dyadic_lags(n):
        d = min(lag, n - lag) / n
        best = np.maximum(best,
                          np.max(np.abs(np.roll(values, -lag, axis=-1) - values)) / d ** alpha)
    return float(best)


@pytest.mark.parametrize("nx,ny", [(8, 8), (9, 10), (48, 64)])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_holder_seminorms_equal_roll_reference(nx, ny, alpha):
    rng = np.random.default_rng(nx * ny)
    grid = Grid2D(nx, ny)
    for _ in range(4):
        arrays = list(rng.standard_normal((3, nx, ny)))
        assert _seminorm_2d(arrays, grid, alpha) == _roll_seminorm_2d(arrays, grid, alpha)
        row = rng.standard_normal(ny)
        assert _holder_seminorm_1d(row, alpha) == _roll_seminorm_1d(row, alpha)


def _benchmark_iterates(nx, ny, n):
    """Every iterate the guard sees while solving the first ``n`` seed-1
    benchmark inputs at nx x ny (``perfbench/inputs.py``)."""
    grid, cutoff, seen = Grid2D(nx, ny), CutoffProfile(0.25), []

    def spy(u, alpha, order=2):
        seen.append(u)
        return norm_proxy(u, alpha, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(picard, "norm_proxy", spy)
        for phi in benchmark_inputs().library_inputs(1, ny, n):
            solve_nonlinear(phi, SolveOptions(), grid, cutoff)
    assert len(seen) == 2 * n                   # two iterates per solve
    return grid, seen


def _top_derivatives(u):
    """Per sheet, the three arrays whose Hoelder seminorm the proxy takes."""
    return [[u.jet.uxx[i], u.jet.uxy[i], u.jet.uyy[i]] for i in range(3)]


@pytest.mark.parametrize("nx,ny,n", [(48, 64, 8), (96, 256, 3)])
def test_pruned_seminorm_equals_roll_reference_on_solver_iterates(nx, ny, n):
    grid, iterates = _benchmark_iterates(nx, ny, n)
    for u in iterates:
        for arrays in _top_derivatives(u):
            for alpha in (0.1, 0.5, 1.0):
                assert (_seminorm_2d(arrays, grid, alpha)
                        == _roll_seminorm_2d(arrays, grid, alpha))


@pytest.mark.parametrize("nx,ny", [(9, 10), (48, 64)])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_pruned_seminorm_equals_roll_reference_on_spikes_steps_and_constants(nx, ny, alpha):
    grid = Grid2D(nx, ny)
    zero = np.zeros((nx, ny))
    spike = zero.copy()
    spike[nx // 3, ny // 4] = 1.0
    step = zero.copy()
    step[1:] = -2.5                             # across the first Chebyshev interval
    corner = zero.copy()
    corner[0, 0] = 3.0
    # smooth profiles whose longest lags carry the maximum at small alpha
    ramp = zero + grid.x[:, None]
    wave = zero + np.sin(2 * np.pi * grid.y)
    cases = [[spike, zero, zero], [zero, step, zero], [spike, step, -spike],
             [corner, zero, zero], [zero + 1.75] * 3, [zero] * 3,
             [ramp, zero, zero], [zero, wave, 0.5 * ramp]]
    for arrays in cases:
        assert (_seminorm_2d(arrays, grid, alpha)
                == _roll_seminorm_2d(arrays, grid, alpha))


def _layouts(stack):
    """The same kind of data in the layouts a lag pass may be handed: C and
    Fortran stacks, reversed rows, every other column, a strided stack of
    C-contiguous slabs (the jet block's), and a list of arrays."""
    k, nx, ny = stack.shape
    wide = np.repeat(stack, 2, axis=-1)
    wide[..., 1::2] = -7.0                      # what a wrong stride would read
    spaced = np.zeros((2 * k, nx, ny))
    spaced[::2] = stack
    return {"C": stack, "fortran": np.asfortranarray(stack), "reversed rows": stack[:, ::-1],
            "every other column": wide[..., ::2], "strided slabs": spaced[::2],
            "list": list(stack)}


@pytest.mark.parametrize("nx,ny", [(9, 10), (48, 64)])
def test_lag_passes_equal_roll_reference_on_any_layout(nx, ny):
    # a y-lag reads each slab as one flat row: a slab that is not C-contiguous
    # is copied in, but the difference is always written into the buffer, and
    # the seam columns always hold the wrap
    rng = np.random.default_rng(nx + ny)
    grid = Grid2D(nx, ny)
    # random data, whose short x-lags on the clustered Chebyshev rows dominate
    # the seminorm, and data constant in x, where the y-lags decide it
    stacks = [rng.standard_normal((3, nx, ny)), np.repeat(rng.standard_normal((3, 1, ny)), nx, 1)]
    for name, A in [item for stack in stacks for item in _layouts(stack).items()]:
        ref = np.asarray(A)
        for lag in _dyadic_lags(ny):
            diff = np.full(ref.shape, np.nan)   # a write lost in a copy stays NaN
            assert fields._y_lag(ref, lag, diff) == np.abs(np.roll(ref, -lag, -1) - ref).max()
            assert np.array_equal(diff, np.roll(ref, -lag, -1) - ref), (name, lag)
        for alpha in (0.1, 0.5, 1.0):
            assert (_seminorm_2d(A, grid, alpha)
                    == _roll_seminorm_2d(ref, grid, alpha)), (name, alpha)
    # periodic rows: contiguous, strided and reversed
    wide = rng.standard_normal(2 * ny)
    for row in (wide[:ny], wide[::2], wide[::-2]):
        for alpha in (0.1, 0.5, 1.0):
            assert _holder_seminorm_1d(row, alpha) == _roll_seminorm_1d(row, alpha)


def test_seminorm_of_jet_block_views_equals_roll_reference_on_96x256_iterates():
    # the proxy hands the seminorm a view of three C-contiguous slabs of the
    # jet block, strided across the stack; no copy and the same value
    grid, iterates = _benchmark_iterates(96, 256, 3)
    for u in iterates:
        for i in range(3):
            view = u._jet_block[2:, i]
            assert np.shares_memory(view.reshape(3, -1), u._jet_block)
            for alpha in (0.1, 0.5, 1.0):
                assert (_seminorm_2d(view, grid, alpha)
                        == _roll_seminorm_2d(view, grid, alpha))


def _with_non_finite(rng, shape, frac):
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    mask = rng.random(shape) < frac
    A[mask] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], mask.sum())
    return A


@pytest.mark.parametrize("frac", [0.0, 0.02, 0.3])
def test_lag_passes_propagate_nan_and_inf_as_abs_max(frac):
    # a NaN, an inf or an overflowing difference gives each pass the value
    # abs().max() gives it; a one-array seminorm then matches the roll
    # reference, and a NaN in any lag makes both NaN
    rng = np.random.default_rng(int(frac * 100))
    grid = Grid2D(9, 10)
    with np.errstate(all="ignore"):
        for _ in range(40):
            for name, A in _layouts(_with_non_finite(rng, (3, 9, 10), frac)).items():
                A = np.asarray(A)
                for lag in (1, 2, 4, 8):
                    got = fields._y_lag(A, lag, np.empty(A.shape))
                    ref = np.abs(np.roll(A, -lag, -1) - A).max()
                    assert np.array_equal(got, ref, equal_nan=True), (name, lag)
                    rows = fields._x_lag(A, lag, np.empty(A.shape))
                    ref = np.abs(A[:, lag:] - A[:, :-lag]).max(axis=(0, 2))
                    assert np.array_equal(rows, ref, equal_nan=True), (name, lag)
                for alpha in (0.1, 0.5, 1.0):
                    assert np.array_equal(_seminorm_2d(A[:1], grid, alpha),
                                          _roll_seminorm_2d(A[:1], grid, alpha), equal_nan=True)
                    assert np.array_equal(_holder_seminorm_1d(A[0, 0], alpha),
                                          _roll_seminorm_1d(A[0, 0], alpha), equal_nan=True)


@pytest.mark.parametrize("shape,rule,other", GROUPING_GRIDS)
def test_a_group_of_three_gives_the_norm_proxy_of_three_groups_of_one(shape, rule, other,
                                                                       monkeypatch):
    # a sheet that did not need a lag the group ran reads a value no larger
    # than its bound, so the grouping cannot change any proxy
    grid, iterates = _benchmark_iterates(*shape, 2)
    assert grid.sheet_groups() == rule
    cases = iterates + [random_triple(grid, 16),
                        sampled(grid, lambda X, Y: X * np.sin(2 * np.pi * Y))]
    proxies = [norm_proxy(u, alpha, order) for u in cases
               for alpha in (0.1, 0.5, 1.0) for order in (0, 1, 2)]
    regrouped(monkeypatch, other)
    assert proxies == [norm_proxy(u, alpha, order) for u in cases
                       for alpha in (0.1, 0.5, 1.0) for order in (0, 1, 2)]


@pytest.mark.parametrize("frac", [0.0, 0.02, 0.3])
def test_grouped_seminorms_with_nan_or_inf_spans_equal_roll_reference(frac):
    # a non-finite span in one sheet evaluates every lag of the group; every
    # sheet still reads the roll reference's value, in either grouping
    rng = np.random.default_rng(7 + int(frac * 100))
    grid = Grid2D(9, 10)
    with np.errstate(all="ignore"):
        for _ in range(20):
            stack = _with_non_finite(rng, (3, 3, 9, 10), frac)
            stack[:, rng.integers(3)] = rng.standard_normal((3, 9, 10))   # one finite sheet
            for alpha in (0.1, 0.5, 1.0):
                ref = [_roll_seminorm_2d(stack[:, i], grid, alpha) for i in range(3)]
                for groups in (ONE_GROUP, PER_SHEET):
                    got = [v for s in groups for v in _holder_seminorm_2d(stack[:, s], grid, alpha)]
                    assert np.array_equal(got, ref, equal_nan=True), (groups, alpha)


def test_a_nan_reaches_the_seminorm_and_the_periodic_proxy():
    # Python's max(0.0, nan) is 0.0: combining lags or derivative sups with
    # it would read a NaN row as smooth.  1e307 cos(2 pi y) overflows its
    # first derivative's spectrum, which comes back NaN
    row = np.zeros(16)
    row[5] = np.nan
    y = np.arange(64) / 64
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_holder_seminorm_1d(row, 0.5))
        assert np.isnan(periodic_proxy(1e307 * np.cos(2 * np.pi * y), 0.5))


def test_seminorm_evaluates_at_most_four_lags_on_benchmark_iterates(monkeypatch):
    # lag 1 in y and in x, then at most two more: the bounds prune the rest
    # (15 lags at 96x256, 12 at 48x64), so a fall-back to every lag fails here
    calls = []
    for name in ("_y_lag", "_x_lag"):
        lag_fn = getattr(fields, name)
        monkeypatch.setattr(fields, name,
                            lambda *a, f=lag_fn: calls.append(a[1]) or f(*a))
    for nx, ny in [(48, 64), (96, 256)]:
        grid, iterates = _benchmark_iterates(nx, ny, 4)
        for u in iterates:
            for arrays in _top_derivatives(u):
                calls.clear()
                _seminorm_2d(arrays, grid, SolveOptions().alpha)
                assert 2 <= len(calls) <= 4, (nx, ny, calls)


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
    f = rng.standard_normal((grid_small.nx, grid_small.ny))
    path = str(tmp_path / "f.csv")
    atomic_write_text(path, table_csv("nx,ny,delta", f"{grid_small.nx},{grid_small.ny},0.25", f,
                                      {"family": "translate:0.01,0"}))
    header, size, g = read_table(path, "nx,ny,delta")
    assert float(size["delta"]) == 0.25
    assert header["family"] == "translate:0.01,0"
    assert np.array_equal(g, f)
    # a table that disagrees with its size line is malformed
    with open(path, "a") as fh:
        fh.write(",".join(["0"] * grid_small.ny) + "\n")
    with pytest.raises(ValueError):
        read_table(path, "nx,ny,delta")


def _field_csv_per_value(values, delta, header=None):
    """Reference field writer: one f-string per value."""
    lines = [f"# {key} = {val}" for key, val in (header or {}).items()]
    lines.append("nx,ny,delta")
    lines.append(f"{values.shape[0]},{values.shape[1]},{delta!r}")
    lines += [",".join(f"{v:.17g}" for v in row) for row in values]
    return "\n".join(lines) + "\n"


def test_field_csv_text_matches_per_value_writer(grid_small):
    rng = np.random.default_rng(6)
    values = rng.standard_normal((grid_small.nx, grid_small.ny))
    values *= 10.0 ** rng.integers(-300, 300, size=values.shape)
    values[0, :6] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.0, 1e16]
    for delta, header in ((0.25, None), (0.1 + 0.2, {"family": "", "phi1": "1:0.5:0"})):
        size = f"{values.shape[0]},{values.shape[1]},{delta!r}"
        assert table_csv("nx,ny,delta", size, values, header) \
            == _field_csv_per_value(values, delta, header)


def test_eval_matches_bary_matrix_of_fourier_interpolate(grid):
    # one barycentric kernel: eval is bary_matrix applied to the y-interpolated columns
    rng = np.random.default_rng(7)
    f = rng.standard_normal((grid.nx, grid.ny))
    xq = np.concatenate([rng.uniform(0.0, 1.0, 20), grid.x[[0, 5, 17, -1]]])
    yq = np.concatenate([rng.uniform(0.0, 1.0, 20), grid.y[[0, 3, 40, -1]]])
    ref = np.array([(bary_matrix(grid.nx, [x]) @ fourier_interpolate(f, y))[0]
                    for x, y in zip(xq, yq)])
    assert np.max(np.abs(interpolate(f, xq, yq) - ref)) <= 1e-14
    # node hits in x are exact rows of the barycentric matrix
    B = bary_matrix(grid.nx, xq)
    assert np.array_equal(B[-4:], np.eye(grid.nx)[[0, 5, 17, -1]])
    assert np.max(np.abs(B.sum(axis=1) - 1.0)) <= 1e-14


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_fields(draw):
    nx = draw(st.integers(8, 11))
    ny = draw(st.sampled_from([8, 10, 12]))
    return draw(hnp.arrays(float, (nx, ny), elements=FINITE))


@settings(max_examples=25, deadline=None)
@given(f=_finite_fields(), delta=FINITE)
def test_field_csv_roundtrips_any_finite_field(f, delta):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.csv")
        with open(path, "w") as fh:
            fh.write(table_csv("nx,ny,delta", f"{f.shape[0]},{f.shape[1]},{delta!r}", f))
        header, size, g = read_table(path, "nx,ny,delta")
    assert g.shape == f.shape
    assert np.array_equal(g, f)
    assert float(size["delta"]) == delta
    assert header == {}


def test_fields_immutable(grid_small):
    u = TripleField.zero(grid_small)
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 1.0
    for arr in u.jet:
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_triple_sheets_are_read_only_views(grid_small):
    rng = np.random.default_rng(6)
    source = rng.standard_normal((3, grid_small.nx, grid_small.ny))
    u = TripleField(grid_small, source)
    source[0, 0, 0] = 5.0                     # the triple holds its own copy
    assert u.values[0, 0, 0] != 5.0
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 1.0
    for i in (1, 2, 3):
        sheet = u.values[i - 1]             # sheet i: a view, no copy
        assert sheet.base is u.values and sheet.flags.c_contiguous
        with pytest.raises(ValueError):
            sheet[0, 0] = 1.0
    assert np.array_equal(u.traces(), u.values[:, 0])
    assert np.array_equal(u.traces("outer"), u.values[:, -1])


def test_jet_is_cached_and_matches_fresh_derivatives(grid_small, monkeypatch):
    from trijunction import spectral
    calls = []
    for name in ("cheb_coefficients", "fourier_derivative", "fourier_jet"):
        fn = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    u = random_triple(grid_small, 4)
    assert u.jet is u.jet
    # one pass over the whole (3, nx, ny) array: one Chebyshev analysis, and
    # one Fourier pass for u_y, u_yy and u_xy
    assert sorted(calls) == ["cheb_coefficients", "fourier_jet"]
    fresh = TripleField(grid_small, u.values)
    for name, arr in u.jet._asdict().items():
        assert np.array_equal(arr, getattr(fresh.jet, name)), name


def test_jet_takes_no_fft_along_x(grid_small, monkeypatch):
    # the Chebyshev analysis is a matrix product: the only transforms of a
    # warm jet are the Fourier pass along y, the spectra of u and u_x and one
    # inverse transform of the three products
    random_triple(grid_small, 4).jet                     # warm the per-grid caches
    u = random_triple(grid_small, 5)
    calls = count_calls(monkeypatch, np.fft, ("rfft", "irfft"))
    u.jet
    assert calls == {"rfft": 2, "irfft": 1}


def test_jet_rows_are_contiguous_and_equal_the_per_sheet_derivatives(grid_small):
    from trijunction import spectral
    u = random_triple(grid_small, 9)
    shape = (3, grid_small.nx, grid_small.ny)
    for name, arr in u.jet._asdict().items():
        assert arr.shape == shape and arr.flags.c_contiguous, name
        assert not arr.flags.writeable, name
    for i, v in enumerate(u.values):
        ux = spectral.cheb_derivative_values(v, 1)
        per_sheet = {"ux": ux,
                     "uy": spectral.fourier_derivative(v, 1),
                     "uxx": spectral.cheb_derivative_values(v, 2),
                     "uxy": spectral.fourier_derivative(ux, 1),
                     "uyy": spectral.fourier_derivative(v, 2)}
        for name, arr in u.jet._asdict().items():
            assert np.array_equal(arr[i], per_sheet[name]), (i, name)


@pytest.mark.parametrize("nx,ny", [(16, 10), (33, 30), (48, 62)])
def test_jet_rows_equal_the_per_sheet_x_derivatives_on_any_grid(nx, ny):
    # each (order, sheet) pair is its own matrix product, so a sheet's row
    # does not depend on how many columns the product shares with the other
    # sheets (a single product over all three columns differed in the last
    # bits from the per-sheet one on grids with ny not a multiple of 8)
    from trijunction import spectral
    u = random_triple(Grid2D(nx, ny), 5)
    for i, v in enumerate(u.values):
        assert np.array_equal(u.jet.ux[i], spectral.cheb_derivative_values(v, 1))
        assert np.array_equal(u.jet.uxx[i], spectral.cheb_derivative_values(v, 2))


def test_jet_arrays_are_read_only_views_of_one_block(grid_small):
    u = random_triple(grid_small, 11)
    block = u.jet.ux.base
    assert block.shape == (5, 3, grid_small.nx, grid_small.ny) and not block.flags.writeable
    for name, arr in u.jet._asdict().items():
        assert arr.base is block, name
        assert arr.flags.c_contiguous and not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    # the three second derivatives, which the guard's seminorm reads, are adjacent
    starts = sorted(a.__array_interface__["data"][0]
                    for a in (u.jet.uxx, u.jet.uxy, u.jet.uyy))
    assert np.diff(starts).tolist() == [u.jet.uxx.nbytes] * 2


def test_jet_and_norm_proxy_make_no_stacked_or_contiguous_copy(grid_small, monkeypatch):
    norm_proxy(random_triple(grid_small, 12), 0.5)          # warm the per-grid caches
    calls = []
    for name in ("stack", "ascontiguousarray"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name,
                            lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    u = random_triple(grid_small, 13)
    u.jet
    for order in (0, 1, 2):
        norm_proxy(u, 0.5, order)
    assert calls == []


def _stacked_norm_proxy(u, alpha, order):
    """The norm proxy as a stack of copies: every derivative up to ``order``
    as its own array, the top ones stacked per sheet for the seminorm."""
    groups = [[u.values]]
    if order >= 1:
        groups.append([u.jet.ux, u.jet.uy])
    if order >= 2:
        groups.append([u.jet.uxx, u.jet.uxy, u.jet.uyy])
    sups = np.max([np.abs(a).max(axis=(1, 2)) for group in groups for a in group], axis=0)
    total = 0.0
    for i in range(3):
        total += float(sups[i]) + _seminorm_2d(np.stack([a[i] for a in groups[-1]]),
                                                      u.grid, alpha)
    return total


def test_norm_proxy_equals_the_stacked_computation_on_solver_iterates():
    grid, iterates = _benchmark_iterates(48, 64, 4)
    for u in iterates:
        for order in (0, 1, 2):
            assert norm_proxy(u, 0.5, order) == _stacked_norm_proxy(u, 0.5, order), order


def test_triple_field_copies_what_it_is_given(grid_small):
    rng = np.random.default_rng(14)
    shape = (3, grid_small.nx, grid_small.ny)
    writable = rng.standard_normal(shape)
    view = writable[...]
    view.flags.writeable = False                # read-only, but its base is not
    as_float32 = rng.standard_normal(shape).astype(np.float32)
    strided = rng.standard_normal((3, grid_small.nx, 2 * grid_small.ny))[..., ::2]
    for source, owner in ((writable, writable), (view, writable),
                          (as_float32, as_float32), (strided, strided.base)):
        before = np.array(source, dtype=float)
        u = TripleField(grid_small, source)
        owner += 1.0
        assert np.array_equal(u.values, before)
        assert not u.values.flags.writeable and u.values.flags.c_contiguous


def test_fields_the_package_makes_are_read_only(grid_small):
    u = random_triple(grid_small, 15)
    for w in (TripleField.zero(grid_small), u + u, u - u, 2.0 * u):
        assert not w.values.flags.writeable
        with pytest.raises(ValueError):
            w.values[0, 0, 0] = 1.0
    assert np.array_equal((u + u).values, u.values + u.values)


def test_aliasing_warning_fires_and_floor_suppresses():
    ny = 64
    y = np.arange(ny) / ny
    noisy = np.sin(2 * np.pi * 30 * y)
    clean = np.cos(2 * np.pi * y)
    with pytest.warns(AliasingWarning):
        X = checked_spectrum(noisy, "test data", True)
    # the check hands back the one analysis it read
    assert np.array_equal(X, np.fft.rfft(noisy))
    # unmarked data (the caller's round-off floor) is ignored, and clean data passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked_spectrum(1e-15 * noisy, "tiny", False)
        checked_spectrum(clean, "clean", True)
        checked_spectrum(np.stack([clean, noisy]), "rows", np.array([True, False]))
    # a mask checks each marked leading row on its own
    with pytest.warns(AliasingWarning) as record:
        checked_spectrum(np.stack([noisy, clean, noisy])[:, None], "rows",
                         np.array([True, True, False]))
    assert len(record) == 1


def test_norm_proxy_order0_is_sup_plus_seminorm(grid_small):
    # a constant has no seminorm: each sheet adds its sup alone
    u = TripleField(grid_small, np.full((3, grid_small.nx, grid_small.ny), 2.0))
    assert norm_proxy(u, 0.5, order=0) == pytest.approx(6.0)


def test_triple_field_requires_shared_grid():
    g, h = Grid2D(16, 16), Grid2D(16, 32)
    for bad in (np.zeros((3, 16, 32)), np.zeros((2, 16, 16)),
                [np.zeros((16, 16)), np.zeros((16, 16)), np.zeros((16, 32))]):
        with pytest.raises(ValueError):
            TripleField(g, bad)
    with pytest.raises(ValueError):
        TripleField(g, np.full((3, 16, 16), np.nan))
    a, b = TripleField.zero(g), TripleField.zero(h)
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError):
            op()
