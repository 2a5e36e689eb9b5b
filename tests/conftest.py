import importlib.util
import os

import numpy as np
import pytest

from trijunction import BoundaryTriple, CutoffProfile, Grid2D, TripleField, boundary_proxy
from trijunction.geometry import NU, spine_samples
from trijunction.linear import _solve_modes
from trijunction.spectral import fourier_interpolate, fourier_nodes


@pytest.fixture(scope="session")
def cutoff():
    return CutoffProfile(0.25)


@pytest.fixture(scope="session")
def grid():
    """Default production grid."""
    return Grid2D(48, 64)


@pytest.fixture(scope="session")
def grid_small():
    """Coarser grid for the heavier statistical tests."""
    return Grid2D(32, 32)


def translation_field(grid, c):
    """Exact stationary family: constant heights <c, nu_i>."""
    c = np.asarray(c, dtype=float)
    return TripleField(
        grid, [np.full((grid.nx, grid.ny), float(NU[i - 1] @ c)) for i in (1, 2, 3)])


def spine_series(traces, ys=None):
    """The Fourier series of the spine samples at ``ys`` (default: the y nodes), (2, len(ys))."""
    ys = fourier_nodes(np.shape(traces)[1]) if ys is None else np.asarray(ys, float)
    return fourier_interpolate(spine_samples(traces), ys)


def benchmark_inputs():
    """The benchmark's seeded input module, ``perfbench/inputs.py``."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs", os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                         "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def rotation_field(grid, beta):
    """Exact stationary family: tilted rays, heights beta * x."""
    return TripleField(
        grid, [np.tile(beta * grid.x[:, None], (1, grid.ny)) for _ in range(3)])


def random_boundary(ny, rng, proxy_target, alpha=0.5, max_mode=2):
    """Random band-limited boundary triple scaled to a given proxy norm."""
    k = np.arange(max_mode + 1)
    rows = []
    y = np.arange(ny) / ny
    for _ in range(3):
        c = rng.standard_normal(max_mode + 1)
        s = rng.standard_normal(max_mode + 1)
        rows.append((c[:, None] * np.cos(2 * np.pi * np.outer(k, y))
                     + s[:, None] * np.sin(2 * np.pi * np.outer(k, y))).sum(axis=0))
    phi = BoundaryTriple(ny, np.stack(rows))
    return phi * (proxy_target / boundary_proxy(phi, alpha))


def mode_solve_collocation(p):
    """One ``oracles.ModeProblem`` through the production solve, as a single column."""
    return _solve_modes(p.kind, (2.0 * np.pi * p.k) ** 2, p.f[:, None], p.phi, p.g)[:, 0]


def count_calls(monkeypatch, module, names):
    """Replace each named function of ``module`` by a counting wrapper; the
    returned dict holds the counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


ONE_GROUP = (slice(0, 3),)
PER_SHEET = (slice(0, 1), slice(1, 2), slice(2, 3))
# a grid on each side of the sheet-group size rule: its shape, the groups the
# rule gives it, and the other grouping
GROUPING_GRIDS = [pytest.param((48, 64), ONE_GROUP, PER_SHEET, id="48x64"),
                  pytest.param((96, 256), PER_SHEET, ONE_GROUP, id="96x256")]


def regrouped(monkeypatch, groups):
    """Make every grid take its sheets in ``groups``."""
    monkeypatch.setattr(Grid2D, "sheet_groups", lambda self: groups)
