"""Mode solvers (collocation and closed-form paths), decoupling, field solvers."""

import warnings

import numpy as np
import pytest

from trijunction import (DECOUPLE, RECOMPOSE, AliasingWarning, BoundaryTriple, Grid2D,
                         ModeProblem, SolveOptions, TripleField, boundary_operator,
                         schauder_probe, solve_linear_system, solve_nonlinear, solve_scalar)
from trijunction import linear
from trijunction.linear import _mode_lam2, _solve_modes, solve_harmonic
from trijunction.oracles import (formula_linear_solve, mode_solve_formula, random_smooth_field,
                                 random_smooth_map)
from trijunction.spectral import bary_matrix, cheb_diff2_matrix, cheb_nodes

from conftest import count_calls, mode_solve_collocation, random_boundary

ULP4 = 4 * np.finfo(float).eps


def _ode_defect(a, lam2, f):
    """Max interior |a'' - lam2 a - f| per column of an (nx, m) or (p, nx, m)
    block of mode columns, a'' by the collocation matrix."""
    res = cheb_diff2_matrix(a.shape[-2]) @ a - lam2 * a - f
    return np.abs(res[..., 1:-1, :]).max(axis=-2)


def _pair_lam2(ny):
    """(2 pi k)^2 per rfft column pair of an ny-point grid, k = 0 .. ny // 2."""
    return np.repeat((2.0 * np.pi * np.arange(ny // 2 + 1)) ** 2, 2)


def _cos_sin_weight(ny):
    """The factor that reads rfft mode k of an ny-point grid as a cos/sin
    coefficient: 1/ny at k = 0 and the Nyquist mode, 2/ny otherwise."""
    k = np.arange(ny // 2 + 1)
    return np.where((k == 0) | (2 * k == ny), 1.0, 2.0) / ny


# ---------------------------------------------------------------------------
# Single-mode solves against closed forms
# ---------------------------------------------------------------------------

def test_mode_dirichlet_harmonic_closed_form():
    nx = 48
    x = cheb_nodes(nx)
    p = ModeProblem(k=1, kind="dirichlet", f=np.zeros(nx), phi=1.0)
    exact = np.sinh(2 * np.pi * x) / np.sinh(2 * np.pi)
    for a in (mode_solve_formula(p), mode_solve_collocation(p)):
        assert np.max(np.abs(a - exact)) < 1e-10
    mid_val = float((bary_matrix(nx, [0.5]) @ mode_solve_formula(p))[0])
    assert mid_val == pytest.approx(np.sinh(np.pi) / np.sinh(2 * np.pi), rel=1e-11)


def test_mode_dirichlet_k0_linear():
    nx = 48
    p = ModeProblem(k=0, kind="dirichlet", f=np.zeros(nx), phi=0.7)
    exact = 0.7 * cheb_nodes(nx)
    assert np.max(np.abs(mode_solve_formula(p) - exact)) < 1e-14
    assert np.max(np.abs(mode_solve_collocation(p) - exact)) < 1e-11


def test_mode_mixed_harmonic_closed_form():
    nx = 48
    x = cheb_nodes(nx)
    p = ModeProblem(k=1, kind="mixed", f=np.zeros(nx), phi=1.0, g=0.0)
    exact = np.cosh(2 * np.pi * x) / np.cosh(2 * np.pi)
    for a in (mode_solve_formula(p), mode_solve_collocation(p)):
        assert np.max(np.abs(a - exact)) < 1e-12
    assert mode_solve_formula(p)[0] == pytest.approx(1.0 / np.cosh(2 * np.pi), rel=1e-12)


def test_mode_mixed_k0_affine():
    nx = 48
    x = cheb_nodes(nx)
    p = ModeProblem(k=0, kind="mixed", f=np.zeros(nx), phi=0.0, g=1.0)
    assert np.max(np.abs(mode_solve_formula(p) - (1.0 - x))) < 1e-13
    assert np.max(np.abs(mode_solve_collocation(p) - (1.0 - x))) < 1e-11


def test_mode_boundary_conditions_enforced():
    nx = 48
    rng = np.random.default_rng(0)
    f = np.cos(3 * cheb_nodes(nx)) - 0.4
    for k in (0, 1, 5):
        pd = ModeProblem(k=k, kind="dirichlet", f=f, phi=0.31)
        a = mode_solve_collocation(pd)
        assert abs(a[0]) < 1e-12 and abs(a[-1] - 0.31) < 1e-12
        pm = ModeProblem(k=k, kind="mixed", f=f, phi=0.31, g=-0.17)
        a = mode_solve_collocation(pm)
        assert abs(a[-1] - 0.31) < 1e-12
        from trijunction.spectral import cheb_derivative_values
        assert abs(-cheb_derivative_values(a, 1)[0] - (-0.17)) < 1e-9


def test_mode_formula_matches_collocation_low_k():
    nx = 48
    x = cheb_nodes(nx)
    f = np.cos(3 * x) + x ** 3 - 0.5 * x
    for k in range(1, 17):
        for kind in ("dirichlet", "mixed"):
            p = ModeProblem(k=k, kind=kind, f=f, phi=0.37, g=-0.21)
            ac = mode_solve_collocation(p)
            af = mode_solve_formula(p)
            rel = np.max(np.abs(ac - af)) / np.max(np.abs(ac))
            assert rel < 1e-8, (k, kind, rel)


def test_mode_formula_matches_collocation_k200_resolved():
    # an unresolved boundary layer makes a 48-point comparison meaningless;
    # on a fine grid both paths agree far below the required 1e-8
    nx = 1024
    x = cheb_nodes(nx)
    f = np.cos(3 * x) + x ** 3 - 0.5 * x
    for kind in ("dirichlet", "mixed"):
        p = ModeProblem(k=200, kind=kind, f=f, phi=0.37, g=-0.21)
        ac = mode_solve_collocation(p)
        af = mode_solve_formula(p)
        assert np.max(np.abs(ac - af)) / np.max(np.abs(ac)) < 1e-8


def test_mode_k512_finite():
    nx = 48
    f = np.cos(3 * cheb_nodes(nx))
    for kind in ("dirichlet", "mixed"):
        p = ModeProblem(k=512, kind=kind, f=f, phi=1.0, g=1.0)
        assert np.all(np.isfinite(mode_solve_formula(p)))
        assert np.all(np.isfinite(mode_solve_collocation(p)))


def test_mode_residual_production_path():
    for nx in (8, 9, 33, 48, 96):
        grid = Grid2D(nx, 64)
        x = cheb_nodes(grid.nx)
        f = np.exp(-x) + 0.3 * x ** 2
        for k in range(0, grid.ny // 2 + 1, 4):
            for kind in ("dirichlet", "mixed"):
                p = ModeProblem(k=k, kind=kind, f=f, phi=0.4, g=0.2)
                a = mode_solve_collocation(p)
                scale = np.max(np.abs(f)) + abs(p.phi) + abs(p.g)
                residual = _ode_defect(a[:, None], (2.0 * np.pi * k) ** 2, f[:, None])
                assert residual < 1e-8 * scale, (nx, k, kind)


def test_mode_problem_validation():
    with pytest.raises(ValueError):
        ModeProblem(k=-1, kind="dirichlet", f=np.zeros(8), phi=0.0)
    with pytest.raises(ValueError):
        ModeProblem(k=1, kind="robin", f=np.zeros(8), phi=0.0)


# ---------------------------------------------------------------------------
# Decouple / recompose
# ---------------------------------------------------------------------------

def test_decouple_constant_examples(grid):
    ny = grid.ny
    p = DECOUPLE @ np.ones((3, ny))
    assert np.allclose(p[0], 3.0, atol=ULP4)
    assert np.max(np.abs(p[1])) <= ULP4
    assert np.max(np.abs(p[2])) <= ULP4

    F = TripleField(grid, [np.full((grid.nx, ny), v) for v in (1.0, 2.0, 3.0)])
    f = np.tensordot(DECOUPLE, F.values, axes=1)
    assert np.allclose(f[0], 6.0, atol=ULP4)
    assert np.allclose(f[1], -1.0, atol=ULP4)
    assert np.allclose(f[2], -1.5, atol=ULP4)


def test_recompose_examples(grid):
    ones = np.ones((grid.nx, grid.ny))
    z = np.zeros_like(ones)
    u = np.tensordot(RECOMPOSE, np.stack([3 * ones, z, z]), axes=1)
    for i in (1, 2, 3):
        assert np.allclose(u[i - 1], 1.0, atol=ULP4)
    u = np.tensordot(RECOMPOSE, np.stack([z, 2 * ones, z]), axes=1)
    assert np.allclose(u[0], 0.0, atol=ULP4)
    assert np.allclose(u[1], 1.0, atol=ULP4)
    assert np.allclose(u[2], -1.0, atol=ULP4)


def test_decouple_recompose_roundtrip_4ulp(grid_small):
    rng = np.random.default_rng(2)
    u = TripleField(grid_small, rng.standard_normal((3, grid_small.nx, grid_small.ny)))
    back = np.tensordot(RECOMPOSE, np.tensordot(DECOUPLE, u.values, axes=1), axes=1)
    scale = u.sup()
    for i in (1, 2, 3):
        assert np.max(np.abs(back[i - 1] - u.values[i - 1])) <= 4 * ULP4 * scale


# ---------------------------------------------------------------------------
# Field-level solvers
# ---------------------------------------------------------------------------

def test_solve_dirichlet_manufactured(grid):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    exact = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    v = solve_scalar(-5 * np.pi ** 2 * exact, np.zeros(grid.ny))
    assert np.max(np.abs(v - exact)) < 1e-8


def test_solve_dirichlet_zero_unique(grid):
    v = solve_scalar(np.zeros((grid.nx, grid.ny)), np.zeros(grid.ny))
    assert np.max(np.abs(v)) == 0.0


def test_solve_dirichlet_superposition(grid_small):
    rng = np.random.default_rng(3)
    f1 = random_smooth_field(grid_small, rng)
    f2 = random_smooth_field(grid_small, rng)
    p1 = random_smooth_map(grid_small.ny, rng)
    p2 = random_smooth_map(grid_small.ny, rng)
    lhs = solve_scalar(f1 + 0.7 * f2, p1 + 0.7 * p2)
    rhs = solve_scalar(f1, p1) + 0.7 * solve_scalar(f2, p2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_solve_mixed_closed_form(grid):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    phi = np.cos(2 * np.pi * grid.y)
    v = solve_scalar(np.zeros((grid.nx, grid.ny)), phi, np.zeros(grid.ny))
    exact = np.cosh(2 * np.pi * X) * np.cos(2 * np.pi * Y) / np.cosh(2 * np.pi)
    assert np.max(np.abs(v - exact)) < 1e-8


def test_solve_mixed_zero_and_neumann_trace(grid_small):
    zero = np.zeros((grid_small.nx, grid_small.ny))
    v = solve_scalar(zero, np.zeros(grid_small.ny), np.zeros(grid_small.ny))
    assert np.max(np.abs(v)) == 0.0
    rng = np.random.default_rng(4)
    g = random_smooth_map(grid_small.ny, rng)
    v = TripleField(grid_small, [solve_scalar(zero, np.zeros(grid_small.ny), g)] * 3)
    # the outward normal at x = 0 points in -x
    assert np.max(np.abs(-v.jet.ux[:, 0] - g)) < 1e-8 * np.max(np.abs(g))


def test_solve_linear_system_zero(grid):
    u = solve_linear_system(TripleField.zero(grid),
                            (np.zeros(grid.ny), np.zeros(grid.ny)),
                            BoundaryTriple.zero(grid.ny))
    assert u.sup() == 0.0


def test_solve_linear_system_constant_phi_traces(grid):
    c = 0.01
    phi = BoundaryTriple(grid.ny, np.full((3, grid.ny), c))
    u = solve_linear_system(TripleField.zero(grid),
                            (np.zeros(grid.ny), np.zeros(grid.ny)), phi)
    B = boundary_operator(u)
    assert np.max(np.abs(B[0])) < 1e-14            # trace sum exactly pinned
    for i in (1, 2, 3):
        assert np.max(np.abs(u.traces("outer")[i - 1] - c)) < 1e-13


def test_solve_linear_system_residual_oracle(grid_small):
    rng = np.random.default_rng(5)
    F = TripleField(grid_small, [random_smooth_field(grid_small, rng) for _ in range(3)])
    G = (random_smooth_map(grid_small.ny, rng), random_smooth_map(grid_small.ny, rng))
    phi = BoundaryTriple(grid_small.ny, np.stack([random_smooth_map(grid_small.ny, rng)
                                                  for _ in range(3)]))
    u = solve_linear_system(F, G, phi)
    scale = max(F.sup(), max(np.max(np.abs(g)) for g in G),
                float(np.max(np.abs(phi.values))))
    lap = np.max(np.abs((u.jet.uxx + u.jet.uyy - F.values)[:, 1:-1]))
    assert lap < 1e-8 * scale
    B = boundary_operator(u)
    assert np.max(np.abs(B[0])) < 1e-8 * scale
    assert np.max(np.abs(B[1] - G[0])) < 1e-8 * scale
    assert np.max(np.abs(B[2] - G[1])) < 1e-8 * scale
    for i in (1, 2, 3):
        assert np.max(np.abs(u.traces("outer")[i - 1] - phi.values[i - 1])) \
            < 1e-10 * scale


def test_solve_linear_system_formula_path_agrees(grid_small):
    rng = np.random.default_rng(6)
    F = TripleField(grid_small, [random_smooth_field(grid_small, rng) for _ in range(3)])
    G = (random_smooth_map(grid_small.ny, rng), random_smooth_map(grid_small.ny, rng))
    phi = BoundaryTriple(grid_small.ny, np.stack([random_smooth_map(grid_small.ny, rng)
                                                  for _ in range(3)]))
    u_col = solve_linear_system(F, G, phi)
    u_for = formula_linear_solve(F, G, phi)
    diff = (u_col - u_for).sup()
    assert diff < 1e-8 * max(1.0, u_col.sup())


def _random_linear_data(grid, rng):
    F = TripleField(grid, [random_smooth_field(grid, rng) for _ in range(3)])
    G = (random_smooth_map(grid.ny, rng), random_smooth_map(grid.ny, rng))
    phi = BoundaryTriple(grid.ny, np.stack([random_smooth_map(grid.ny, rng)
                                            for _ in range(3)]))
    return F, G, phi


def test_linear_solve_takes_one_fourier_analysis_per_input(grid_small, monkeypatch):
    # three scalar problems, one analysis per input kind for all of them: the
    # forcing, the outer data and the Neumann data of the two mixed ones; the
    # aliasing checks read the same analyses, and one synthesis returns all three
    F, G, phi = _random_linear_data(grid_small, np.random.default_rng(13))
    calls = count_calls(monkeypatch, np.fft, ("rfft", "irfft"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # smooth data: no aliasing warning
        solve_linear_system(F, G, phi)
    assert calls == {"rfft": 3, "irfft": 1}


def _forcing_free_solve(grid, phi):
    zero = np.zeros(grid.ny)
    return solve_linear_system(TripleField.zero(grid), (zero, zero), phi)


@pytest.mark.parametrize("nx, ny", [(32, 32), (48, 64), (96, 256), (40, 90)])
def test_forcing_free_solve_agrees_with_the_mode_solve(nx, ny):
    # zero forcing and zero junction data: the modes are the outer data's
    # spectrum times the cached harmonic profiles, which must agree with
    # the eigenbasis solve of the same problems to round-off
    grid = Grid2D(nx, ny)
    rng = np.random.default_rng(nx + ny)
    phi = BoundaryTriple(ny, np.stack([random_smooth_map(ny, rng, max_mode=ny // 4)
                                       for _ in range(3)]))
    u = _forcing_free_solve(grid, phi)
    lam2 = _mode_lam2(ny)
    data = np.fft.rfft(DECOUPLE @ phi.values).view(float)[:, None]
    a = np.concatenate([
        _solve_modes("dirichlet", lam2, np.zeros((1, nx, lam2.size)), data[:1], 0.0),
        _solve_modes("mixed", lam2, np.zeros((2, nx, lam2.size)), data[1:], 0.0)])
    expected = np.tensordot(RECOMPOSE, np.fft.irfft(a.view(complex), n=ny), axes=1)
    assert np.max(np.abs(u.values - expected)) <= 1e-14 * np.max(np.abs(expected))


def _fourier_coefficients(values):
    """cos/sin coefficients of real samples (last axis): f = c_0 + sum c_k cos + s_k sin."""
    n = values.shape[-1]
    A = np.fft.rfft(values)
    c = 2.0 * A.real / n
    s = -2.0 * A.imag / n
    c[..., 0] /= 2.0
    s[..., 0] = 0.0
    if n % 2 == 0:
        c[..., -1] /= 2.0
        s[..., -1] = 0.0
    return c, s


def _fourier_synthesis(c, s, n):
    """Inverse of :func:`_fourier_coefficients` onto the n-point grid."""
    A = (c - 1j * s) * (n / 2.0)
    A[..., 0] *= 2.0
    if n % 2 == 0:
        A[..., -1] *= 2.0
    return np.fft.irfft(A, n=n)


def _cos_sin_solve(nx, p, nd, f=None, g=None):
    """The stacked scalar solve in cos/sin coefficient columns: the
    ``_fourier_coefficients`` of each input, one ``_solve_modes`` per kind
    with the cos columns' (2 pi k)^2 followed by the sin columns', and
    ``_fourier_synthesis``.  ``f`` None is the forcing-free solve: each mode
    is its outer coefficient times the harmonic profile of its column."""
    K = p.shape[-1] // 2
    lam2 = np.tile((2.0 * np.pi * np.arange(K + 1)) ** 2, 2)

    def columns(x):
        return np.concatenate(_fourier_coefficients(x), axis=-1)

    data = columns(p[:, None])
    if f is None:
        dirichlet, mixed = (_solve_modes(kind, lam2, np.zeros((nx, lam2.size)), 1.0, 0.0)
                            for kind in ("dirichlet", "mixed"))
        a = np.concatenate([dirichlet * data[:nd], mixed * data[nd:]])
    else:
        rhs = columns(f)
        a = np.concatenate([_solve_modes("dirichlet", lam2, rhs[:nd], data[:nd], 0.0),
                            _solve_modes("mixed", lam2, rhs[nd:], data[nd:], columns(g[:, None]))])
    return _fourier_synthesis(a[..., :K + 1], a[..., K + 1:], p.shape[-1])


def _pair_and_cos_sin_solves(nx, ny, white):
    """(solution, cos/sin reference) per entry point.

    The data is band-limited (modes <= 3, the kind Picard iterates carry) or,
    with ``white``, standard normal, so that every mode is of order one."""
    rng = np.random.default_rng(nx * ny + white)
    grid = Grid2D(nx, ny)
    if white:
        F, G, phi = (TripleField(grid, rng.standard_normal((3, nx, ny))),
                     tuple(rng.standard_normal((2, ny))),
                     BoundaryTriple(ny, rng.standard_normal((3, ny))))
    else:
        F, G, phi = _random_linear_data(grid, rng)
    f, p = np.tensordot(DECOUPLE, F.values, axes=1), DECOUPLE @ phi.values
    zero = np.zeros(ny)
    cases = [
        (lambda: solve_linear_system(F, G, phi).values,
         lambda: _cos_sin_solve(nx, p, 1, f, np.array(G))),
        (lambda: solve_linear_system(TripleField.zero(grid), (zero, zero), phi).values,
         lambda: _cos_sin_solve(nx, p, 1)),
        (lambda: solve_harmonic(phi, grid).values,
         lambda: _cos_sin_solve(nx, p, 1)),
        (lambda: solve_scalar(f[0], p[0]),
         lambda: _cos_sin_solve(nx, p[:1], 1, f[:1], np.empty((0, ny)))[0]),
        (lambda: solve_scalar(f[1], p[1], G[0]),
         lambda: _cos_sin_solve(nx, p[1:2], 0, f[1:2], G[0][None])[0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)     # white data
        for solve, reference in cases:
            u, ref = solve(), reference()
            if ref.ndim == 3:
                ref = np.tensordot(RECOMPOSE, ref, axes=1)
            yield u, ref


@pytest.mark.parametrize("nx, ny", [(32, 32), (48, 64), (96, 256)])
def test_pair_layout_solve_is_the_cos_sin_solve_bit_for_bit(nx, ny):
    # with ny a power of two every cos/sin normalization is a power of two, so
    # each rfft column solves to an exact multiple of its coefficient column.
    # The last columns of a mode product may round differently from the
    # others: cos K is one of them in the pair layout, sin K - 1 in the
    # cos/sin layout.  Those two modes carry round-off alone in band-limited
    # data, so the fields come out equal.
    for u, ref in _pair_and_cos_sin_solves(nx, ny, white=False):
        assert np.array_equal(u, ref)


@pytest.mark.parametrize("nx, ny, white", [(16, 10, False), (40, 90, False), (16, 10, True),
                                           (40, 90, True), (32, 32, True), (96, 256, True)])
def test_pair_layout_solve_agrees_with_the_cos_sin_solve(nx, ny, white):
    # ny not a power of two: the normalizations round; white data: the edge
    # columns carry order-one modes.  Either way the solves agree to round-off
    for u, ref in _pair_and_cos_sin_solves(nx, ny, white):
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nx, ny", [(32, 32), (16, 10)])
def test_mode_records_read_in_cos_sin_coefficient_units(nx, ny):
    # a forcing-free solve's rfft columns are the data's spectrum times the
    # harmonic profiles; times the factor that makes each a cos/sin
    # coefficient (c_0 = X_0 / ny, c_K = X_K / ny at the Nyquist mode, and
    # c_k = 2 Re X_k / ny, s_k = -2 Im X_k / ny), they synthesize the solve
    grid = Grid2D(nx, ny)
    phi = BoundaryTriple(ny, np.random.default_rng(24).standard_normal((3, ny)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        u = solve_harmonic(phi, grid)
    a = _harmonic_mode_columns(nx, phi).reshape(3, nx, -1, 2) * _cos_sin_weight(ny)[:, None]
    v = _fourier_synthesis(a[..., 0], -a[..., 1], ny)
    assert np.max(np.abs(u.values - np.tensordot(RECOMPOSE, v, axes=1))) <= 1e-14 * u.sup()


def _harmonic_mode_columns(nx, phi):
    """The (3, nx, m) mode columns of the forcing-free solve of ``phi``: the
    rfft pairs of DECOUPLE phi times the cached harmonic profiles."""
    data = np.fft.rfft(DECOUPLE @ phi.values).view(float)[:, None]
    return np.concatenate([linear._harmonic_profiles(nx, phi.ny, "dirichlet") * data[:1],
                           linear._harmonic_profiles(nx, phi.ny, "mixed") * data[1:]])


def test_forcing_free_solve_takes_one_transform_each_way_and_no_mode_solve(grid_small,
                                                                        monkeypatch):
    # on a warm grid the outer data is the one input analysed, and the cached
    # profiles replace the mode solves
    _, _, phi = _random_linear_data(grid_small, np.random.default_rng(20))
    _forcing_free_solve(grid_small, phi)                # warm the per-grid caches
    calls = count_calls(monkeypatch, np.fft, ("rfft", "irfft"))
    calls.update(count_calls(monkeypatch, linear, ("_solve_modes",)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _forcing_free_solve(grid_small, phi)
    assert calls == {"rfft": 1, "irfft": 1, "_solve_modes": 0}


def test_linear_solve_stays_in_the_rfft_spectrum(grid_small, monkeypatch):
    # the inputs' rfft spectra are solved as they are: one analysis per input
    # kind in, one synthesis out
    F, G, phi = _random_linear_data(grid_small, np.random.default_rng(22))
    solve_linear_system(F, G, phi)                      # warm the per-grid caches
    calls = count_calls(monkeypatch, np.fft, ("rfft", "irfft"))
    solve_linear_system(F, G, phi)
    assert calls == {"rfft": 3, "irfft": 1}


@pytest.mark.parametrize("entry", ["solve_linear_system", "solve_harmonic", "solve_scalar"])
def test_aliasing_warning_names_the_callers_line(grid_small, entry):
    ny = grid_small.ny
    noise = np.sin(2 * np.pi * 14 * grid_small.y)      # mode 14 of 16: top third
    phi = BoundaryTriple(ny, np.stack([noise, noise, noise]))
    zero = np.zeros(ny)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "solve_linear_system":
            solve_linear_system(TripleField.zero(grid_small), (zero, zero), phi)
        elif entry == "solve_harmonic":
            solve_harmonic(phi, grid_small)
        else:
            solve_scalar(np.zeros((grid_small.nx, ny)), noise)
    assert len(caught) == 1 and caught[0].category is AliasingWarning
    assert caught[0].filename == __file__


def test_forcing_free_first_step_records_every_mode(grid, cutoff):
    # a run stopped at iterate 1 returns the forcing-free step: the synthesis
    # of its mode columns, every one of which (each k, cos and sin) meets its
    # ODE to round-off in cos/sin coefficient units
    rng = np.random.default_rng(21)
    phi = random_boundary(grid.ny, rng, 0.005)
    first, _ = solve_nonlinear(phi, SolveOptions(tol=1.0, max_iter=1), grid, cutoff)
    a = _harmonic_mode_columns(grid.nx, phi)
    v = np.fft.irfft(a.view(complex), n=grid.ny, axis=-1)
    assert np.array_equal(first.values, (RECOMPOSE @ v.reshape(3, -1)).reshape(v.shape))
    residual = (_ode_defect(a, _pair_lam2(grid.ny), 0.0).reshape(3, -1, 2)
                * _cos_sin_weight(grid.ny)[:, None])
    assert np.all(np.isfinite(residual)) and residual.max() <= 1e-12


@pytest.mark.parametrize("which, label", [("F", "forcing"), ("phi", "outer boundary data"),
                                          ("G", "inner Neumann data")])
def test_linear_solve_warns_on_aliased_inputs(grid_small, which, label):
    F, G, phi = _random_linear_data(grid_small, np.random.default_rng(14))
    noise = np.sin(2 * np.pi * 14 * grid_small.y)      # mode 14 of 16: top third
    if which == "F":
        F = F + TripleField(grid_small, [np.outer(1.0 + grid_small.x, noise)] * 3)
    elif which == "phi":
        phi = BoundaryTriple(grid_small.ny, phi.values + noise)
    else:
        G = (G[0] + noise, G[1])
    with pytest.warns(AliasingWarning, match=label):
        solve_linear_system(F, G, phi)


@pytest.mark.parametrize("nx, ny", [(32, 32), (12, 18)])
def test_stacked_solve_equals_three_scalar_solves(nx, ny):
    # the three decoupled problems share one analysis per input kind, one mode
    # solve per kind and one synthesis; each must come out bit for bit as the
    # one-problem solve of its own data
    grid = Grid2D(nx, ny)
    F, G, phi = _random_linear_data(grid, np.random.default_rng(15))
    u = solve_linear_system(F, G, phi)
    f = np.tensordot(DECOUPLE, F.values, axes=1)
    p = DECOUPLE @ phi.values
    v = [solve_scalar(f[0], p[0]), solve_scalar(f[1], p[1], G[0]), solve_scalar(f[2], p[2], G[1])]
    assert np.array_equal(u.values, np.tensordot(RECOMPOSE, np.stack(v), axes=1))


def test_round_off_in_one_problem_beside_order_one_data_does_not_warn(grid_small):
    # equal forcings leave v2 = F2 - F3 and v3 = F1 - (F2 + F3)/2 at round-off,
    # with white spectra; each problem's own floor skips them while the O(1)
    # v1 = F1 + F2 + F3 is checked and clean
    rng = np.random.default_rng(16)
    h = random_smooth_field(grid_small, rng)
    F = TripleField(grid_small, [h, h * (1.0 + 1e-16 * rng.standard_normal(h.shape)), h])
    f = np.tensordot(DECOUPLE, F.values, axes=1)
    assert 0.0 < np.max(np.abs(f[1:])) < 1e-15 and np.max(np.abs(f[0])) > 0.1
    zero = np.zeros(grid_small.ny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_linear_system(F, (zero, zero), BoundaryTriple.zero(grid_small.ny))


def test_large_data_in_one_problem_does_not_lift_another_problems_floor(grid_small):
    # G1 of size 1e3 lifts v2's floor to 5e-11; v3 has nothing but 1e-12 of
    # white Neumann data, which its own floor (5e-14) lets through to the check
    rng = np.random.default_rng(19)
    G = (1e3 * np.cos(2 * np.pi * grid_small.y), 1e-12 * rng.standard_normal(grid_small.ny))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_linear_system(TripleField.zero(grid_small), G, BoundaryTriple.zero(grid_small.ny))
    assert [str(w.message).split(":")[0] for w in caught] == ["inner Neumann data"]


@pytest.mark.parametrize("which, row, label", [("F", 2, "forcing"),
                                               ("phi", 0, "outer boundary data"),
                                               ("G", 2, "inner Neumann data")])
def test_aliasing_in_one_decoupled_problem_warns_with_its_label(grid_small, which, row, label):
    F, G, phi = _random_linear_data(grid_small, np.random.default_rng(17))
    noise = np.sin(2 * np.pi * 14 * grid_small.y)      # mode 14 of 16: top third
    f = np.tensordot(DECOUPLE, F.values, axes=1)
    p = DECOUPLE @ phi.values
    if which == "F":
        f[row] += np.outer(1.0 + grid_small.x, noise)
        F = TripleField(grid_small, np.tensordot(RECOMPOSE, f, axes=1))
    elif which == "phi":
        p[row] += noise
        phi = BoundaryTriple(grid_small.ny, RECOMPOSE @ p)
    else:                                               # G[j] is v_{j+2}'s Neumann data
        G = tuple(g + noise if j + 1 == row else g for j, g in enumerate(G))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_linear_system(F, G, phi)
    assert [str(w.message).split(":")[0] for w in caught] == [label]
    assert caught[0].category is AliasingWarning


@pytest.mark.parametrize("which", ["phi", "G"])
def test_linear_solve_names_an_input_of_the_wrong_ny(grid_small, which):
    F, G, phi = _random_linear_data(grid_small, np.random.default_rng(18))
    if which == "phi":
        phi = BoundaryTriple(grid_small.ny - 2, np.zeros((3, grid_small.ny - 2)))
    else:
        G = np.zeros((2, grid_small.ny - 2))
    with pytest.raises(ValueError, match=rf"^{which} has shape .* ny = {grid_small.ny}"):
        solve_linear_system(F, G, phi)


@pytest.mark.parametrize("which", ["phi_out", "g"])
def test_scalar_solve_names_an_input_of_the_wrong_ny(grid_small, which):
    f = np.zeros((grid_small.nx, grid_small.ny))
    data = {"phi_out": np.zeros(grid_small.ny), "g": np.zeros(grid_small.ny)}
    data[which] = np.zeros(grid_small.ny + 2)
    with pytest.raises(ValueError, match=rf"^{which} has shape \({grid_small.ny + 2},\)"):
        solve_scalar(f, data["phi_out"], data["g"])


@pytest.mark.parametrize("ny", [8, 9])
def test_each_solved_mode_column_has_one_record(ny):
    # ny columns per problem: the cosine of each k <= ny / 2 and the sine of
    # each k with 0 < 2k < ny, which on an odd grid includes the top mode
    # (the other sines are zero).  Each column of the solution's spectrum,
    # read in cos/sin coefficient units, meets a'' - (2 pi k)^2 a = f_k
    nx, y = 16, np.arange(ny) / ny
    x = cheb_nodes(nx)
    f = np.outer(1.0 - x ** 2, np.cos(2 * np.pi * y))
    for g in (None, 0.1 * np.cos(2 * np.pi * y)):
        v = solve_scalar(f, np.sin(2 * np.pi * y), g)
        a, fk = ((np.fft.rfft(w) * _cos_sin_weight(ny)).view(float) for w in (v, f))
        assert _ode_defect(a, _pair_lam2(ny), fk).max() < 1e-10, (ny, g is None)


# ---------------------------------------------------------------------------
# Stability probe
# ---------------------------------------------------------------------------

def test_schauder_probe_stable_and_bounded(grid_small):
    est8, ratios8 = schauder_probe(8, grid_small, seed=8)
    est16, ratios16 = schauder_probe(16, grid_small, seed=8)
    assert np.isfinite(est8.c_lin) and est8.c_lin > 0
    assert est16.c_lin <= 1.2 * est8.c_lin       # stable under doubling
    assert est8.r_tilde is None                  # c1, c2 not yet probed


def test_schauder_probe_phi_only_ratio_at_least_one(grid_small):
    # the solution attains its boundary data, so its order-2 proxy cannot be
    # smaller than the data's
    from trijunction.fields import norm_proxy, periodic_proxy
    rng = np.random.default_rng(9)
    phi = BoundaryTriple(grid_small.ny, np.stack([random_smooth_map(grid_small.ny, rng)
                                                  for _ in range(3)]))
    u = solve_linear_system(TripleField.zero(grid_small),
                            (np.zeros(grid_small.ny), np.zeros(grid_small.ny)), phi)
    data = sum(periodic_proxy(row, 0.5, order=2) for row in phi.values)
    assert norm_proxy(u, 0.5, order=2) >= data * (1.0 - 1e-9)


def test_schauder_probe_grid_insensitive():
    est_a, _ = schauder_probe(6, Grid2D(32, 32), seed=10)
    est_b, _ = schauder_probe(6, Grid2D(48, 64), seed=10)
    assert abs(est_b.c_lin - est_a.c_lin) <= 0.2 * est_a.c_lin


def test_mode_formula_matches_collocation_k64_resolved():
    nx = 384
    x = cheb_nodes(nx)
    rng = np.random.default_rng(12)
    f = (rng.standard_normal() * np.cos(3 * x) + rng.standard_normal() * x ** 2
         + rng.standard_normal() * np.exp(-x))
    for kind in ("dirichlet", "mixed"):
        p = ModeProblem(k=64, kind=kind, f=f, phi=0.4, g=0.3)
        ac = mode_solve_collocation(p)
        af = mode_solve_formula(p)
        assert np.max(np.abs(ac - af)) / np.max(np.abs(ac)) < 1e-8
