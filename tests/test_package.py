"""Package-wide properties: the public names and the value types' equality."""

import numpy as np

import trijunction
from trijunction import (BoundaryTriple, CutoffProfile, Grid2D, ModeProblem, TripleField,
                         frame_vectors, junction_angle_check, mesh_surface,
                         structural_certificate)


def test_public_names_resolve():
    names = {}
    exec("from trijunction import *", names)
    assert len(trijunction.__all__) == len(set(trijunction.__all__))
    for name in trijunction.__all__:
        assert name in names and names[name] is getattr(trijunction, name), name


def test_array_holding_dataclasses_compare_by_identity():
    grid = Grid2D(8, 8)
    cutoff = CutoffProfile(0.25)
    u = TripleField.zero(grid)
    makers = [
        lambda: TripleField.zero(grid),
        lambda: BoundaryTriple.zero(grid.ny),
        frame_vectors,
        lambda: mesh_surface(u, (2, 3), cutoff),
        lambda: junction_angle_check(u),
        lambda: ModeProblem(k=0, kind="dirichlet", f=np.zeros(8), phi=0.0),
        lambda: structural_certificate(0.001, 1, grid, cutoff),
    ]
    for make in makers:
        a, twin = make(), make()
        assert a == a and not a != a
        assert a != twin and not a == twin, type(a).__name__
        assert len({a, twin}) == 2 and hash(a) == hash(a)
    # the grid and the cutoff hold scalars only and keep value equality
    assert Grid2D(8, 8) == grid and hash(Grid2D(8, 8)) == hash(grid)
    assert CutoffProfile(0.25) == cutoff
