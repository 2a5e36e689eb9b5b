"""Mean-curvature defect, conormal balance, and quadratic-smallness certificates."""

import numpy as np
import pytest

from trijunction import (BoundaryTriple, DegenerateMetric, Grid2D, GuardViolation,
                         SolveOptions, TripleField, F_eval, G_eval, mean_curvature,
                         solve_nonlinear, structural_certificate)
from trijunction.curvature import _conormals, _wall_data
from trijunction.geometry import N, NU, spine_samples, wall_scalars
from trijunction.oracles import random_compatible_field, scaled_to_proxy
from trijunction.spectral import fourier_derivative

from conftest import GROUPING_GRIDS, regrouped, rotation_field, translation_field


def G_sup(u):
    G1, G2 = G_eval(u)
    return max(np.max(np.abs(G1)), np.max(np.abs(G2)))


def H_sup(i, u, cutoff):
    return np.max(np.abs(mean_curvature(u, cutoff)[i - 1]))


def conormal_sum(u):
    """S(y) = xi_1 + xi_2 + xi_3; identically zero at stationarity."""
    return sum(_conormals(u)[0])


def random_small(grid, proxy, seed):
    rng = np.random.default_rng(seed)
    return scaled_to_proxy(random_compatible_field(grid, rng), proxy, 0.5)


# ---------------------------------------------------------------------------
# Mean curvature and the interior defect
# ---------------------------------------------------------------------------

def test_degenerate_metric_raises(grid_small, cutoff):
    d = cutoff.delta
    u = TripleField(
        grid_small, [np.full((grid_small.nx, grid_small.ny), v) for v in (0.0, d, -d)])
    with pytest.raises(DegenerateMetric, match="sheet 1"):
        mean_curvature(u, cutoff)
    with pytest.raises(DegenerateMetric):
        F_eval(u, cutoff)
    # heights of 1e300 overflow the metric: a DegenerateMetric, not an
    # overflow warning and a NaN curvature
    huge = 1e300 * random_small(grid_small, 0.01, seed=6)
    with pytest.raises(DegenerateMetric, match="sheet 1: the metric is not finite"):
        F_eval(huge, cutoff)


def test_F_eval_reads_the_metric_shape_mean_curvature(grid, cutoff):
    # one formula for H: the interior defect is Lap(u_i) minus the public
    # mean_curvature, bit for bit (compared as F, since a - (a - H) need not
    # round back to H)
    u = random_small(grid, 0.02, seed=3)
    F = F_eval(u, cutoff)
    H = mean_curvature(u, cutoff)
    assert H.shape == (3, grid.nx, grid.ny)
    assert np.array_equal(F.values, u.jet.uxx + u.jet.uyy - H)


def _expression_H(u, cutoff, i):
    """H of sheet i as the closed-form expression, one temporary per operation.
    Returns (H, D, det); H is None when the metric is degenerate."""
    ux, uy, uxx, uxy, uyy = (a[i - 1] for a in (u.jet.ux, u.jet.uy, u.jet.uxx,
                                                   u.jet.uxy, u.jet.uyy))
    w, w1, w2, E, E1, E2 = _wall_data(u, cutoff)
    W, W1, W2 = w[i - 1], w1[i - 1], w2[i - 1]
    E1W = E1 * W
    a1 = E1W - 1.0
    a2 = E * W1
    g11 = a1 ** 2 + ux ** 2
    g12 = a1 * a2 + ux * uy
    g22 = a2 ** 2 + uy ** 2 + 1.0
    det = g11 * g22 - g12 ** 2
    D = 1.0 - E1W
    if D.min() < 1e-3 or det.min() < 1e-6:
        return None, D, det
    num = (g22 * (D * uxx + ux * E2 * W) - 2.0 * g12 * (D * uxy + ux * E1 * W1)
           + g11 * (D * uyy + ux * E * W2))
    return num / (det * np.sqrt(det)), D, det


def _second_fundamental_form_H(u, cutoff, i, dtype):
    """H of sheet i as (g22 h11 - 2 g12 h12 + g11 h22) / det g, with the unit
    normal's length N = sqrt(1 + beta^2 + gamma^2) taken from the slopes
    beta and gamma, evaluated in ``dtype`` from the float jet and wall data."""
    ux, uy, uxx, uxy, uyy = (np.asarray(a[i - 1], dtype) for a in u.jet)
    w, w1, w2, E, E1, E2 = (np.asarray(a, dtype) for a in _wall_data(u, cutoff))
    W, W1, W2 = w[i - 1], w1[i - 1], w2[i - 1]
    a1 = E1 * W - 1.0
    a2 = E * W1
    g11 = a1 ** 2 + ux ** 2
    g12 = a1 * a2 + ux * uy
    g22 = a2 ** 2 + uy ** 2 + 1.0
    det = g11 * g22 - g12 ** 2
    beta = ux / (1.0 - E1 * W)
    gamma = -uy - beta * E * W1
    norm = np.sqrt(1.0 + beta ** 2 + gamma ** 2)
    h11 = (uxx + beta * E2 * W) / norm
    h12 = (uxy + beta * E1 * W1) / norm
    h22 = (uyy + beta * E * W2) / norm
    return (g22 * h11 - 2.0 * g12 * h12 + g11 * h22) / det


@pytest.mark.parametrize("proxy,seed", [(0.001, 1), (0.02, 2), (0.2, 3)])
def test_mean_curvature_equals_the_expression_bit_for_bit(grid, cutoff, proxy, seed):
    u = random_small(grid, proxy, seed)
    H = mean_curvature(u, cutoff)
    for i in (1, 2, 3):
        assert np.array_equal(H[i - 1], _expression_H(u, cutoff, i)[0]), i


@pytest.mark.parametrize("proxy,seed", [(0.001, 1), (0.02, 2), (0.2, 3)])
def test_mean_curvature_is_as_accurate_as_the_second_fundamental_form(grid, cutoff, proxy, seed):
    # D N = sqrt(det g) is an identity, so the closed form divides once where
    # the beta, gamma, N form divides five times; against that form in
    # extended precision, its round-off is at most twice the float form's
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps / 100
    u = random_small(grid, proxy, seed)
    H = mean_curvature(u, cutoff)
    exact = np.stack([_second_fundamental_form_H(u, cutoff, i, np.longdouble) for i in (1, 2, 3)])
    before = np.stack([_second_fundamental_form_H(u, cutoff, i, float) for i in (1, 2, 3)])
    assert np.abs(H - exact).max() <= 2.0 * np.abs(before - exact).max()


@pytest.mark.parametrize("shape,rule,other", GROUPING_GRIDS)
def test_a_group_of_three_gives_the_curvature_of_three_groups_of_one(shape, rule, other,
                                                                      cutoff, monkeypatch):
    grid = Grid2D(*shape)
    assert grid.sheet_groups() == rule
    for proxy, seed in [(0.001, 1), (0.02, 2), (0.2, 3)]:
        u = random_small(grid, proxy, seed)
        H = mean_curvature(u, cutoff)
        with monkeypatch.context() as mp:
            regrouped(mp, other)
            assert np.array_equal(mean_curvature(u, cutoff), H), seed


@pytest.mark.parametrize("shape,rule,other", GROUPING_GRIDS)
@pytest.mark.parametrize("heights,first", [((0.0, -1.0, 1.0), 2), ((1.0, -1.0, -1.0), 3)],
                         ids=["sheet2", "sheet3"])
def test_a_degenerate_group_names_its_first_failing_sheet_and_its_own_minima(
        shape, rule, other, heights, first, cutoff, monkeypatch):
    # constant offsets of +-delta tilt the walls until 1 - eta' <w,n> < 0; in
    # the first case sheet 3 fails too, with lower minima than sheet 2's
    grid = Grid2D(*shape)
    offsets = cutoff.delta * np.array(heights)[:, None, None]
    u = TripleField(grid, random_small(grid, 0.3, 0).values + offsets)
    failing = [i for i in (1, 2, 3) if _expression_H(u, cutoff, i)[0] is None]
    assert failing[0] == first
    _, D, det = _expression_H(u, cutoff, first)
    expected = f"sheet {first}: min(1 - eta' <w,n>) = {D.min():.3e}, min det g = {det.min():.3e}"
    for groups in (rule, other):
        with monkeypatch.context() as mp:
            regrouped(mp, groups)
            with pytest.raises(DegenerateMetric) as exc_info:
                mean_curvature(u, cutoff)
        assert str(exc_info.value) == expected and exc_info.value.__context__ is None


@pytest.mark.filterwarnings("ignore::trijunction.fields.AliasingWarning")   # out-of-regime data
def test_degenerate_metric_message_names_the_expression_minima(cutoff):
    # the iterate on which the Grid2D(16, 16) solve of test_picard's
    # degenerate recipe stops: its first failing sheet and minima
    grid = Grid2D(16, 16)
    c = 30.0 * np.cos(2 * np.pi * grid.y)
    phi = BoundaryTriple(grid.ny, np.stack([c, -c, np.zeros(grid.ny)]))
    with pytest.raises(GuardViolation) as exc_info:
        solve_nonlinear(phi, SolveOptions(r_guard=1e6), grid, cutoff)
    u = exc_info.value.field
    i, (_, D, det) = next((i, r) for i in (1, 2, 3)
                          if (r := _expression_H(u, cutoff, i))[0] is None)
    expected = (f"sheet {i}: min(1 - eta' <w,n>) = {D.min():.3e}, "
                f"min det g = {det.min():.3e}")
    assert str(exc_info.value.__cause__) == expected
    with pytest.raises(DegenerateMetric) as direct:
        mean_curvature(u, cutoff)
    assert str(direct.value) == expected


def test_mean_curvature_zero_on_flat(grid, cutoff):
    assert H_sup(1, TripleField.zero(grid), cutoff) == 0.0


def test_mean_curvature_zero_on_exact_families(grid, cutoff):
    ut = translation_field(grid, (0.01, 0.0))
    ub = rotation_field(grid, 0.01)
    for i in (1, 2, 3):
        assert H_sup(i, ut, cutoff) < 1e-12
        assert H_sup(i, ub, cutoff) < 1e-12


def test_F_zero_cases(grid, cutoff):
    assert F_eval(TripleField.zero(grid), cutoff).sup() == 0.0
    assert F_eval(rotation_field(grid, 0.01), cutoff).sup() < 1e-12
    assert F_eval(translation_field(grid, (0.01, 0.0)), cutoff).sup() < 1e-12


def test_F_quadratic_scaling(grid_small, cutoff):
    u = random_small(grid_small, 0.012, seed=1)
    sups = [F_eval((0.5 ** j) * u, cutoff).sup() for j in range(3)]
    for j in range(2):
        assert sups[j] / sups[j + 1] >= 3.5
    # the ratio ||F(t u)||/t^2 stays bounded as t shrinks
    ratios = [sups[j] / (0.5 ** j) ** 2 for j in range(3)]
    assert max(ratios) <= 2.0 * min(ratios)


# ---------------------------------------------------------------------------
# Conormals and the junction defect
# ---------------------------------------------------------------------------

def test_conormal_flat(grid):
    u0 = TripleField.zero(grid)
    for i in (1, 2, 3):
        xi = _conormals(u0)[0][i - 1]
        expected = np.concatenate([-N[i - 1], [0.0]])
        assert np.max(np.abs(xi - expected)) < 1e-15


def test_conormal_unit_and_orthogonal_to_spine(grid_small):
    u = random_small(grid_small, 0.01, seed=2)
    vprime = fourier_derivative(spine_samples(u.traces()), 1)
    T = np.column_stack([*vprime, np.ones(grid_small.ny)])
    for i in (1, 2, 3):
        xi = _conormals(u)[0][i - 1]
        assert np.max(np.abs(np.linalg.norm(xi, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs((xi * T).sum(axis=1))) < 1e-13


def test_conormal_rotation_closed_form(grid):
    # tilting the rays: tangent -n_i + beta nu_i, no spine motion, so the
    # projection leaves it fixed and normalization divides by sqrt(1+beta^2)
    beta = 0.01
    ub = rotation_field(grid, beta)
    for i in (1, 2, 3):
        xi = _conormals(ub)[0][i - 1]
        expected = np.concatenate([(-N[i - 1] + beta * NU[i - 1]), [0.0]])
        expected /= np.sqrt(1.0 + beta ** 2)
        assert np.max(np.abs(xi - expected)) < 1e-13


def test_conormal_defect_cases(grid, grid_small):
    assert np.max(np.abs(conormal_sum(TripleField.zero(grid)))) < 1e-15
    assert np.max(np.abs(conormal_sum(rotation_field(grid, 0.01)))) < 1e-14
    # linear scaling in the field size
    sups = []
    for t in (1.0, 0.5, 0.25):
        u = t * random_small(grid_small, 0.01, seed=3)
        sups.append(np.max(np.abs(conormal_sum(u))))
    assert sups[0] / sups[1] == pytest.approx(2.0, rel=0.2)
    assert sups[1] / sups[2] == pytest.approx(2.0, rel=0.2)


def test_G_zero_cases(grid, cutoff):
    G1, G2 = G_eval(TripleField.zero(grid))
    assert np.max(np.abs(G1)) < 1e-14 and np.max(np.abs(G2)) < 1e-14
    assert G_sup(rotation_field(grid, 0.01)) < 1e-12
    assert G_sup(translation_field(grid, (0.01, 0.0))) < 1e-12


def test_G_quadratic_scaling(grid_small):
    u = random_small(grid_small, 0.012, seed=4)
    sups = [G_sup((0.5 ** j) * u) for j in range(3)]
    for j in range(2):
        assert sups[j] / sups[j + 1] >= 3.5


@pytest.mark.parametrize("nx,ny", [(48, 64), (96, 256)])
def test_wall_and_spine_slopes_from_the_jet_are_the_fft_derivatives(nx, ny, cutoff):
    # the walls and the spine are linear in the inner traces, so the wall and
    # spine formulas on the jet's inner rows give their derivatives; they
    # differ from differentiating the formulas' samples by the round-off of
    # those samples carried through the m-th derivative, whose symbol is at
    # most (pi ny)^m: a few ulp of the samples' sup, times (pi ny)^m
    def agree(slope, samples, m):
        ref = fourier_derivative(samples, m)
        bound = 4 * np.spacing(np.abs(samples).max()) * (np.pi * ny) ** m
        return np.abs(slope - ref).max() <= bound

    for seed in range(10):
        u = random_small(Grid2D(nx, ny), 0.02, seed)
        w, w1, w2, *_ = _wall_data(u, cutoff)
        assert np.array_equal(w, wall_scalars(u.traces()))
        assert agree(w1, w, 1) and agree(w2, w, 2), seed
        assert agree(_conormals(u)[2], spine_samples(u.traces()), 1), seed


def test_G_is_junction_condition_minus_projection(grid_small):
    # the fixed-point equations dn u2 - dn u3 = G1 etc. hold exactly when the
    # conormal sum vanishes; check the algebraic rearrangement directly
    from trijunction.geometry import SQRT3

    u = random_small(grid_small, 0.01, seed=5)
    G1, G2 = G_eval(u)
    S = conormal_sum(u)
    dn = -u.jet.ux[:, 0]                     # the outward normal at x = 0 is -x
    dy0 = fourier_derivative(u.traces(), 1)
    b1 = np.column_stack([np.tile(N[0], (grid_small.ny, 1)),
                          (dy0[1] - dy0[2]) / SQRT3])
    b2 = np.column_stack([np.tile(NU[0], (grid_small.ny, 1)), -dy0[0]])
    lhs1 = (dn[1] - dn[2]) - G1
    lhs2 = (dn[0] - 0.5 * (dn[1] + dn[2])) - G2
    assert np.max(np.abs(lhs1 - (2.0 / SQRT3) * (S * b1).sum(1))) < 1e-14
    assert np.max(np.abs(lhs2 + (S * b2).sum(1))) < 1e-14


# ---------------------------------------------------------------------------
# Structural certificate
# ---------------------------------------------------------------------------

def test_structural_certificate_finite_and_stable(grid_small, cutoff):
    radius = cutoff.delta / 20.0
    cert6 = structural_certificate(radius, 6, grid_small, cutoff, seed=11)
    cert12 = structural_certificate(radius, 12, grid_small, cutoff, seed=11)
    assert np.isfinite(cert6.c_F) and np.isfinite(cert6.c_G)
    assert cert6.c_F > 0 and cert6.c_G > 0
    # doubling the samples moves the max-estimates by a bounded factor
    assert cert12.c_F <= 1.2 * cert6.c_F or cert6.c_F <= 1.2 * cert12.c_F
    assert cert12.c_F >= cert6.c_F            # max over a superset of draws


def test_structural_certificate_guards():
    from trijunction import CutoffProfile, Grid2D
    grid = Grid2D(16, 16)
    cutoff = CutoffProfile(0.25)
    with pytest.raises(ValueError):
        structural_certificate(cutoff.delta, 4, grid, cutoff)    # radius too large
    with pytest.raises(ValueError):
        structural_certificate(cutoff.delta / 20.0, 0, grid, cutoff)
