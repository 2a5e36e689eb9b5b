"""Junction frame, cutoff, spine reconstruction, parametrization, meshing."""

import numpy as np
import pytest

from trijunction import (CompatibilityViolation, CutoffProfile, SolveOptions, TripleField,
                         embed_margin, embed_point, mesh_surface, spectral)
from trijunction.cli import mesh_to_obj
from trijunction.curvature import _conormals
from trijunction.geometry import (FRAME, N, NU, SurfaceMesh, check_compatibility, frame_vectors,
                                 spine_samples, wall_scalars)
from trijunction.oracles import random_compatible_field, scaled_to_proxy
from trijunction.picard import _guard_record

from conftest import count_calls, rotation_field, spine_series, translation_field

ULP4 = 4 * np.finfo(float).eps
PRED = (3, 1, 2)            # cyclic order 1 -> 2 -> 3 -> 1: PRED[i - 1] precedes i
SUCC = (2, 3, 1)


def test_cyclic_indexing(grid, cutoff):
    # the wall scalar of sheet i is (u_pred(i) - u_succ(i)) / sqrt 3
    traces = np.random.default_rng(0).standard_normal((3, 8))
    w = wall_scalars(traces)
    for i in (1, 2, 3):
        expected = (traces[PRED[i - 1] - 1] - traces[SUCC[i - 1] - 1]) / np.sqrt(3.0)
        assert np.array_equal(w[i - 1], expected)
    # sheets are numbered 1, 2, 3 where a caller names one
    u = TripleField.zero(grid)
    for i in (0, 4):
        with pytest.raises(ValueError, match="sheet index"):
            embed_point(i, 0.5, 0.0, u, cutoff)


def test_frame_vector_values():
    s3h = np.sqrt(3.0) / 2.0
    assert np.array_equal(N[0], [-1.0, 0.0])
    assert np.max(np.abs(N[1] - [0.5, -s3h])) <= ULP4
    assert np.max(np.abs(N[2] - [0.5, s3h])) <= ULP4
    assert np.array_equal(NU[0], [0.0, -1.0])
    assert np.max(np.abs(NU[1] - [s3h, 0.5])) <= ULP4
    assert np.max(np.abs(NU[2] - [-s3h, 0.5])) <= ULP4


def test_the_frame_constants_are_shared_and_read_only():
    # every formula reads N and NU, and FRAME is the default of the three
    # frame takers: a writable row would carry one caller's edit into every
    # later solve
    for a in (N, NU, FRAME.n, FRAME.nu):
        assert a.shape == (3, 2) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    assert FRAME.n is N and FRAME.nu is NU
    made = frame_vectors()
    assert made is not FRAME and made.n is N and made.nu is NU


def test_frame_sums_and_inner_products():
    assert np.max(np.abs(N.sum(axis=0))) <= ULP4
    assert np.max(np.abs(NU.sum(axis=0))) <= ULP4
    s3h = np.sqrt(3.0) / 2.0
    for i in (1, 2, 3):
        assert abs(np.dot(N[i - 1], N[i - 1]) - 1.0) <= ULP4
        assert abs(np.dot(NU[i - 1], NU[i - 1]) - 1.0) <= ULP4
        assert abs(np.dot(N[i - 1], NU[i - 1])) <= ULP4
        for j in (1, 2, 3):
            if i != j:
                assert abs(np.dot(N[i - 1], N[j - 1]) + 0.5) <= ULP4
                assert abs(np.dot(NU[i - 1], NU[j - 1]) + 0.5) <= ULP4
        assert abs(np.dot(N[i - 1], NU[PRED[i - 1] - 1]) - s3h) <= ULP4
        assert abs(np.dot(N[i - 1], NU[SUCC[i - 1] - 1]) + s3h) <= ULP4


def test_cutoff_plateaus_and_midpoint():
    prof = CutoffProfile(0.25)
    d = prof.delta
    assert prof(d / 2) == (1.0, 0.0, 0.0)
    assert prof(2 * d) == (0.0, 0.0, 0.0)
    eta, _, _ = prof(3 * d / 2)
    assert eta == pytest.approx(0.5, abs=1e-15)
    # C^2 joins
    for x in (d, 2 * d):
        _, d1, d2 = prof(x)
        assert d1 == 0.0 and d2 == 0.0


def test_cutoff_monotone_and_slope_bound():
    prof = CutoffProfile(0.2)
    xs = np.linspace(0.0, 1.0, 5001)
    eta, d1, _ = prof(xs)
    assert np.all(np.diff(eta) <= 1e-15)
    assert np.max(np.abs(d1)) <= 2.0 / prof.delta + 1e-12
    assert np.all((eta >= 0.0) & (eta <= 1.0))


def test_cutoff_derivatives_match_finite_differences():
    prof = CutoffProfile(0.25)
    xs = np.linspace(0.26, 0.49, 7)           # transition region
    errs = []
    for h in (1e-3, 5e-4):
        eta_p, d1_p, d2_p = prof(xs + h)
        eta_m, d1_m, d2_m = prof(xs - h)
        _, d1, d2 = prof(xs)
        errs.append((np.max(np.abs((eta_p - eta_m) / (2 * h) - d1)),
                     np.max(np.abs((d1_p - d1_m) / (2 * h) - d2))))
    # second-order convergence of both centered differences
    for j in (0, 1):
        assert 3.0 < errs[0][j] / errs[1][j] < 5.0


def test_cutoff_rejects_out_of_range():
    prof = CutoffProfile(0.25)
    with pytest.raises(ValueError):
        prof(-0.1)
    with pytest.raises(ValueError):
        prof(1.2)
    with pytest.raises(ValueError):
        CutoffProfile(0.6)
    # below 1.8e-154 eta'' = 10/(sqrt(3) delta^2) overflows, and further down
    # delta^2 underflows to 0, so the plateau nodes would divide 0 by 0
    for delta in (1.79e-154, 1e-200, 1e-320):
        with pytest.raises(ValueError, match=r"\[1\.8e-154, 1/2\)"):
            CutoffProfile(delta)


def test_cutoff_at_the_smallest_delta_has_a_finite_second_derivative():
    d = 1.8e-154
    x = 2 * d - np.linspace(0.0, 1.0, 1001) * d
    _, _, eta2 = CutoffProfile(d)(x)
    assert np.isfinite(eta2).all() and np.abs(eta2).max() > 1e308


def test_wall_offset_zero_and_constant(grid):
    ny = grid.ny
    zeros = np.zeros((3, ny))
    assert np.max(np.abs(np.outer(wall_scalars(zeros)[0], N[0]))) == 0.0

    c = np.array([0.01, 0.0])
    traces = np.stack([np.full(ny, NU[i - 1] @ c) for i in (1, 2, 3)])
    w1 = np.outer(wall_scalars(traces)[0], N[0])
    # equals <c, n_1> n_1 = (0.01, 0)
    assert np.max(np.abs(w1 - np.array([0.01, 0.0]))) < 1e-15


def test_wall_offset_matches_spine_projection():
    # with compatible traces, w_i(y) = <v(y), n_i> n_i for the reconstructed spine
    ny = 64
    rng = np.random.default_rng(6)
    y = np.arange(ny) / ny
    vx = 0.01 * np.cos(2 * np.pi * y) + 0.003 * np.sin(4 * np.pi * y)
    vy = -0.004 + 0.008 * np.sin(2 * np.pi * y)
    traces = [vx * NU[i - 1, 0] + vy * NU[i - 1, 1] for i in (1, 2, 3)]
    v = spine_series(np.stack(traces))
    for i in (1, 2, 3):
        wi = np.outer(wall_scalars(np.stack(traces))[i - 1], N[i - 1])
        expected = np.outer(N[i - 1] @ v, N[i - 1])
        assert np.max(np.abs(wi - expected)) < 1e-12


def test_spine_from_traces_examples(grid):
    ny = grid.ny
    assert np.max(np.abs(spine_series(np.zeros((3, ny))))) == 0.0

    c = np.array([0.01, 0.0])
    traces = np.stack([np.full(ny, NU[i - 1] @ c) for i in (1, 2, 3)])
    assert np.max(np.abs(spine_series(traces) - c[:, None])) < 1e-15
    ys = np.arange(4 * ny) / (4 * ny)           # a refined grid
    assert np.max(np.linalg.norm(spine_series(traces, ys), axis=0)) \
        == pytest.approx(0.01, abs=1e-15)


def test_spine_reconstructions_agree_for_all_sheets():
    # all three per-sheet formulas give the same curve when traces sum to zero
    ny = 64
    rng = np.random.default_rng(7)
    y = np.arange(ny) / ny
    v = np.stack([0.01 * np.cos(2 * np.pi * y) - 0.002 * np.sin(6 * np.pi * y),
                  0.007 * np.sin(2 * np.pi * y) + 0.001 * np.cos(4 * np.pi * y)])
    traces = np.stack([NU[i - 1] @ v for i in (1, 2, 3)])
    w = wall_scalars(traces)
    recon = [w[i - 1][:, None] * N[i - 1] + traces[i - 1][:, None] * NU[i - 1]
             for i in (1, 2, 3)]
    spread = max(np.max(np.abs(recon[a] - recon[b])) for a in range(3) for b in range(3))
    assert spread < 1e-12


def test_spine_samples_are_the_formula_and_the_series_at_the_nodes():
    # spine.csv writes the samples; the Fourier series of a band-limited spine
    # reproduces them at the y nodes to within 16 ulp of sup |v|, the
    # round-off of its analysis and synthesis
    rng = np.random.default_rng(9)
    for ny in (8, 64, 256):
        arg = 2 * np.pi * np.outer(np.arange(4), np.arange(ny) / ny)
        v = 0.01 * (rng.standard_normal((2, 4)) @ np.cos(arg)
                    + rng.standard_normal((2, 4)) @ np.sin(arg))
        traces = np.stack([NU[i - 1] @ v for i in (1, 2, 3)])
        traces[2] = -traces[0] - traces[1]
        samples = spine_samples(traces)
        assert np.array_equal(samples, np.outer(N[0], wall_scalars(traces)[0])
                              + np.outer(NU[0], traces[0]))
        series = spine_series(traces)
        sup = np.max(np.abs(samples))
        assert np.max(np.abs(series - samples)) <= 16 * np.spacing(sup)


def test_spine_rejects_incompatible_traces(grid_small):
    # check_compatibility is the one trace-sum policy: a sum below 1e-10
    # passes, one of 1e-6 is refused with the sum it reached, and so are the
    # conormals of a field whose traces reach it
    traces = np.zeros((3, grid_small.ny))
    traces[0] += 1e-11
    check_compatibility(traces)
    traces[0] += 1e-6
    with pytest.raises(CompatibilityViolation, match=r"^trace sum reaches 1\.000e-06 "
                       r"\(tolerance 1\.0e-10\); the three sheets do not meet"):
        check_compatibility(traces)
    values = np.zeros((3, grid_small.nx, grid_small.ny))
    values[:, 0] = traces
    with pytest.raises(CompatibilityViolation):
        _conormals(TripleField(grid_small, values))


def test_embed_point_examples(grid, cutoff):
    u0 = TripleField.zero(grid)
    assert np.allclose(embed_point(1, 0.5, 0.25, u0, cutoff), [0.5, 0.0, 0.25],
                       atol=1e-15)

    # spine point of the translated cone
    ut = translation_field(grid, (0.01, 0.0))
    for i in (1, 2, 3):
        p = embed_point(i, 0.0, 0.37, ut, cutoff)
        assert np.max(np.abs(p - [0.01, 0.0, 0.37])) < 1e-14

    ub = rotation_field(grid, 0.01)
    p = embed_point(1, 1.0, 0.0, ub, cutoff)
    assert np.max(np.abs(p - [1.0, -0.01, 0.0])) < 1e-14


def test_embed_point_spine_independence(grid, cutoff):
    rng = np.random.default_rng(8)
    y = grid.y
    v = np.stack([0.01 * np.cos(2 * np.pi * y), 0.005 * np.sin(2 * np.pi * y)])
    arrays = [np.tile(NU[i - 1] @ v, (grid.nx, 1)) for i in (1, 2, 3)]
    u = TripleField(grid, arrays)
    ys = np.array([0.0, 0.11, 0.5, 0.93])
    pts = [embed_point(i, np.zeros_like(ys), ys, u, cutoff) for i in (1, 2, 3)]
    assert max(np.max(np.abs(pts[a] - pts[b])) for a in range(3) for b in range(3)) < 1e-13


def test_embed_point_equivariance(grid, cutoff):
    # cyclic shift of the heights + 120 degree rotation of the plane leaves
    # the parametrized surface fixed
    rng = np.random.default_rng(9)
    y = grid.y
    v = np.stack([0.004 * np.cos(2 * np.pi * y), 0.006 * np.sin(4 * np.pi * y)])
    arrays = []
    for i in (1, 2, 3):
        interior = 0.002 * np.outer(grid.x, np.sin(2 * np.pi * y + i))
        arrays.append(np.tile(NU[i - 1] @ v, (grid.nx, 1)) + interior)
    u = TripleField(grid, arrays)
    shifted = TripleField(grid, u.values[[2, 0, 1]])

    th = 2 * np.pi / 3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    xs = np.array([0.1, 0.45, 0.88])
    ys = np.array([0.3, 0.72, 0.05])
    for i in (1, 2, 3):
        base = embed_point(PRED[i - 1], xs, ys, u, cutoff)
        rotated = embed_point(i, xs, ys, shifted, cutoff)
        assert np.max(np.abs(rotated[:, :2] - base[:, :2] @ R.T)) < 1e-13
        assert np.max(np.abs(rotated[:, 2] - base[:, 2])) < 1e-15


def test_embed_point_interpolates_the_sheet_and_its_traces_once(grid, cutoff,
                                                                  monkeypatch):
    # one trigonometric interpolation (one rfft) of the sheet's rows and the
    # three inner traces per call; the point is the sheet map of the sheet's
    # interpolant and of the wall interpolated on its own, to round-off
    u = random_compatible_field(grid, np.random.default_rng(10), amplitude=1e-2)
    xs = np.array([[0.0, 0.1, 0.3], [0.45, 0.7, 1.0]])
    ys = np.array([[0.37, 0.02, 0.99], [0.5, 0.21, 0.0]])
    eta = cutoff(xs)[0]
    for i in (1, 2, 3):
        height = spectral.interpolate(u.values[i - 1], xs, ys)
        wall = spectral.fourier_interpolate(wall_scalars(u.traces())[i - 1], ys)
        ref = (np.multiply.outer(-xs, N[i - 1]) + np.multiply.outer(height, NU[i - 1])
               + np.multiply.outer(eta * wall, N[i - 1]))
        with monkeypatch.context() as mp:
            calls = count_calls(mp, spectral, ("fourier_interpolate",))
            rffts = count_calls(mp, np.fft, ("rfft",))
            p = embed_point(i, xs, ys, u, cutoff)
        assert calls == {"fourier_interpolate": 1} and rffts == {"rfft": 1}
        assert p.shape == xs.shape + (3,)
        assert np.max(np.abs(p[..., :2] - ref)) <= 1e-15
        assert np.array_equal(p[..., 2], np.mod(ys, 1.0))


def test_embed_margin_and_smallness_flag(grid, cutoff):
    zero = TripleField.zero(grid)
    assert embed_margin(zero, cutoff) == 1.0
    assert _guard_record(zero, SolveOptions(), cutoff).smallness_ok

    assert embed_margin(rotation_field(grid, 0.01), cutoff) == 1.0

    # artificially large traces break the monotonicity margin and smallness
    d = cutoff.delta
    big = TripleField(
        grid, [np.full((grid.nx, grid.ny), v) for v in (d, 0.0, -d)])
    assert embed_margin(big, cutoff) < 1.0
    guards = _guard_record(big, SolveOptions(), cutoff)
    assert guards.embed_margin == embed_margin(big, cutoff)
    assert not guards.smallness_ok and not guards.within_guard


class _SlopeOnly:
    """A cutoff stand-in with a prescribed eta' on the grid (eta = eta'' = 0)."""

    delta = 0.25

    def __init__(self, eta1):
        self.eta1 = eta1

    def __call__(self, x):
        return np.zeros_like(x), self.eta1, np.zeros_like(x)

    def on_grid(self, grid):
        return self(grid.x)


def test_embed_margin_from_four_products_equals_the_full_product(grid_small, cutoff):
    # the margin min over (i, x, y) of 1 - eta'(x) w_i(y) comes from the four
    # corner products; it must equal the whole (3, nx, ny) product bit for bit,
    # whatever the signs of eta', zeros (and -0.0) included.  The w_i sum to
    # zero, so w takes both signs or is zero.
    nx, ny = grid_small.nx, grid_small.ny
    rng = np.random.default_rng(12)
    slopes = [cutoff(grid_small.x)[1], np.zeros(nx), -np.zeros(nx)]
    fields = [TripleField.zero(grid_small)]
    for _ in range(6):
        scale = 10.0 ** rng.integers(-3, 4)
        eta1 = scale * rng.standard_normal(nx) * rng.integers(0, 2, nx)
        slopes += [eta1, np.abs(eta1), -np.abs(eta1)]
        values = rng.standard_normal((3, nx, ny))
        values[:, 0, rng.integers(0, 2, ny) == 1] = rng.standard_normal()  # w = 0 there
        fields.append(TripleField(grid_small, values))
    for u in fields:
        w = wall_scalars(u.traces())
        for eta1 in slopes:
            expected = float(np.min(1.0 - np.einsum("x,iy->ixy", eta1, w)))
            assert embed_margin(u, _SlopeOnly(eta1)) == expected


def face_areas(mesh):
    a = mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 2]] - mesh.vertices[mesh.faces[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def test_mesh_surface_flat_and_translated(grid, cutoff):
    mesh = mesh_surface(TripleField.zero(grid), (4, 6), cutoff)
    # spine collapses onto the axis (0, 0) x S^1
    spine_pts = mesh.vertices[:7]
    assert np.max(np.abs(spine_pts[:, :2])) < 1e-15
    assert np.all(face_areas(mesh) > 0.0)

    ut = translation_field(grid, (0.01, 0.0))
    mesh = mesh_surface(ut, (4, 6), cutoff)
    assert np.max(np.abs(mesh.vertices[:7, :2] - [0.01, 0.0])) < 1e-14

    with pytest.raises(ValueError):
        mesh_surface(ut, (1, 6), cutoff)


def test_mesh_triangles_nonzero_on_random_field(grid_small):
    cutoff = CutoffProfile(0.25)
    rng = np.random.default_rng(10)
    u = scaled_to_proxy(random_compatible_field(grid_small, rng), 0.01, 0.5)
    mesh = mesh_surface(u, (8, 12), cutoff)
    assert np.min(face_areas(mesh)) > 0.0


def test_obj_export_structure(grid, cutoff, tmp_path):
    ut = translation_field(grid, (0.01, 0.0))
    mesh = mesh_surface(ut, (3, 4), cutoff)
    text = mesh_to_obj(mesh, {"delta": 0.25, "nx": grid.nx})
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert "# delta = 0.25" in lines
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == mesh.vertices.shape[0]
    assert nf == mesh.faces.shape[0]
    for i in (1, 2, 3):
        assert f"g sheet{i}" in lines
    # face indices are 1-based and in range
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(t) for t in ln.split()[1:]]
            assert all(1 <= j <= nv for j in idx)


def _mesh_per_point(u, resolution, cutoff):
    """Reference meshing: embed_point at every vertex, faces from a vertex-id double loop."""
    mx, my = resolution
    xs = np.linspace(0.0, 1.0, mx)
    ys = np.linspace(0.0, 1.0, my + 1)
    verts = [np.column_stack([*spine_series(u.traces(), ys), ys])]
    faces, tags = [], []
    offset = my + 1
    for i in (1, 2, 3):
        X, Y = np.meshgrid(xs[1:], ys, indexing="ij")
        pts = embed_point(i, X, Y, u, cutoff).reshape(-1, 3)
        pts[:, 2] = Y.reshape(-1)
        verts.append(pts)

        def vid(j, m):
            return m if j == 0 else offset + (j - 1) * (my + 1) + m

        for j in range(mx - 1):
            for m in range(my):
                a, b, c, d = vid(j, m), vid(j + 1, m), vid(j + 1, m + 1), vid(j, m + 1)
                faces += [(a, b, c), (a, c, d)]
                tags += [i, i]
        offset += (mx - 1) * (my + 1)
    return np.vstack(verts), np.array(faces, dtype=int), np.array(tags, dtype=int)


def _obj_per_line(mesh, header):
    """Reference OBJ writer: one f-string per line."""
    lines = ["# triple-junction surface mesh (unrolled coordinates p1 p2 y)"]
    lines += [f"# {key} = {val}" for key, val in header.items()]
    lines += [f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}" for v in mesh.vertices]
    for i in (1, 2, 3):
        lines.append(f"g sheet{i}")
        lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}"
                  for f in mesh.faces[mesh.face_sheet == i]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("resolution", [(2, 3), (4, 6), (33, 64)])
def test_mesh_surface_matches_per_point_meshing(grid, resolution):
    cutoff = CutoffProfile(0.2)
    rng = np.random.default_rng(11)
    u = scaled_to_proxy(random_compatible_field(grid, rng), 0.01, 0.5)
    mesh = mesh_surface(u, resolution, cutoff)
    verts, faces, tags = _mesh_per_point(u, resolution, cutoff)
    assert np.array_equal(mesh.faces, faces)
    assert np.array_equal(mesh.face_sheet, tags)
    assert mesh.vertices.shape == verts.shape
    assert np.max(np.abs(mesh.vertices - verts)) <= 1e-14


def test_mesh_surface_interpolates_the_field_once(grid, cutoff, monkeypatch):
    # the spine row and the walls are the formulas of the interpolated traces,
    # not interpolants of their own
    from trijunction import spectral
    u = scaled_to_proxy(random_compatible_field(grid, np.random.default_rng(12)),
                        0.01, 0.5)
    calls = count_calls(monkeypatch, spectral, ("fourier_interpolate",))
    mesh = mesh_surface(u, (9, 16), cutoff)
    assert calls == {"fourier_interpolate": 1}
    ys = np.linspace(0.0, 1.0, 17)
    traces = spectral.fourier_interpolate(u.values, ys)[:, 0]
    assert np.array_equal(mesh.vertices[:17, :2].T, spine_samples(traces))


def test_obj_text_matches_per_line_writer(grid, cutoff):
    rng = np.random.default_rng(12)
    u = scaled_to_proxy(random_compatible_field(grid, rng), 0.01, 0.5)
    mesh = mesh_surface(u, (9, 16), cutoff)
    header = {"delta": 0.25, "note": "a = b"}
    assert mesh_to_obj(mesh, header) == _obj_per_line(mesh, header)
    # awkward values: negative zero, subnormals, exponents, exact integers
    odd = SurfaceMesh(vertices=np.array([[-0.0, 5e-324, 1e300], [1.0, -2.5e-7, 123456789012.5],
                                         [0.1, 1 / 3, -1e-5]]),
                      faces=np.array([[0, 1, 2], [2, 1, 0]]), face_sheet=np.array([1, 3]))
    assert mesh_to_obj(odd, {}) == _obj_per_line(odd, {})


def test_spine_stays_within_regime(grid_small, cutoff):
    # in the smallness regime (proxy < delta/10) the spine stays within delta/5
    rng = np.random.default_rng(40)
    ys = np.arange(4 * grid_small.ny) / (4 * grid_small.ny)     # a refined grid
    for _ in range(3):
        u = scaled_to_proxy(random_compatible_field(grid_small, rng),
                            cutoff.delta / 10.0 * 0.99, 0.5)
        spine = spine_series(u.traces(), ys)
        assert np.max(np.linalg.norm(spine, axis=0)) < cutoff.delta / 5.0


def test_rotation_embed_margin_and_smallness_in_regime(grid):
    # u_i = beta x has triple proxy 3 beta; with delta = 0.35 it sits inside
    # the smallness regime, and its traces vanish, so the margin is exactly 1
    cutoff = CutoffProfile(0.35)
    u = rotation_field(grid, 0.01)
    assert embed_margin(u, cutoff) == 1.0
    assert _guard_record(u, SolveOptions(), cutoff).smallness_ok
