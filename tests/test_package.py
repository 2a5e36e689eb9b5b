"""Package-wide properties: the public names, the value types' equality and the
module layering."""

import ast
import os
import re

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


def test_only_the_cli_touches_files():
    # the "Artifact I/O" section of cli.py formats, writes and reads every run
    # file: no other module imports os or tempfile or calls open()
    package = os.path.dirname(trijunction.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "cli.py" in modules and len(modules) > 1
    for name in modules:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        opens = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "open"]
        if name == "cli.py":
            assert {"os", "tempfile"} <= imported and opens
        else:
            assert not imported & {"os", "tempfile"}, name
            assert not opens, (name, opens)


def test_no_module_moves_an_array_axis():
    # sampled data has one layout, x second to last and y last, so no module
    # transposes for a helper: none calls np.moveaxis
    package = os.path.dirname(trijunction.__file__)
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        moves = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr == "moveaxis"]
        assert not moves, (name, moves)


def test_only_the_fields_differentiate():
    # the jet (and the data proxy of boundary maps) is the one place that
    # calls the spectral derivative helpers; every other derivative is read
    # from it, so curvature does not even import spectral
    package = os.path.dirname(trijunction.__file__)
    helpers = {"fourier_derivative", "cheb_derivative_values"}
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) in helpers]
        assert bool(calls) == (name == "fields.py"), (name, calls)
        if name == "curvature.py":
            imported = [(getattr(node, "module", None) or "") + "." + alias.name
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
            assert not [m for m in imported if "spectral" in m], imported


def test_declared_numpy_floor_has_the_fft_out_argument():
    # spectral.fourier_derivative passes out= to np.fft.irfft, which numpy
    # added in 2.0.0; an older numpy raises TypeError on the hot path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        spec = re.search(r'"numpy>=([0-9.]+)"', fh.read())
    assert spec is not None
    assert tuple(int(part) for part in spec.group(1).split(".")[:2]) >= (2, 0)
