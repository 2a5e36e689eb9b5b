"""Package-wide properties: the public names, the value types' equality and the
module layering."""

import ast
import os
import re

import numpy as np
import pytest

import trijunction
from trijunction import cli
from trijunction import (BoundaryTriple, CutoffProfile, Grid2D, ModeProblem, SolveOptions,
                         TripleField, fd_mean_curvature, junction_angle_check, mesh_surface,
                         solve_nonlinear, structural_certificate)
from trijunction.geometry import N, NU, JunctionFrame, frame_vectors


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


def test_no_function_takes_a_debug_parameter():
    # the linear solve has one code path and one output: no function carries
    # a side channel for diagnostics
    package = os.path.dirname(trijunction.__file__)
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        debug = [node.lineno for node in ast.walk(tree)      # ast.arg: a parameter
                 if isinstance(node, ast.arg) and node.arg == "debug"]
        assert not debug, (name, debug)


# the entry points that still take a frame, each checking it against N and NU
FRAME_TAKERS = {"solve_nonlinear", "fd_mean_curvature", "junction_angle_check"}


def test_the_frame_is_one_constant_built_in_geometry():
    # the junction frame is a fixed datum: the geometry reads N and NU, only
    # the three entry points take a frame, defaulting to the one constant
    # FRAME, and only geometry builds a frame
    package = os.path.dirname(trijunction.__file__)
    takers = {}
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional, [None] * (len(positional) - len(args.defaults))
                              + args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                for a, d in pairs:
                    if a.arg == "frame":
                        takers[getattr(node, "name", "<lambda>")] = d and ast.unparse(d)
        builds = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("frame_vectors", "JunctionFrame")]
        assert bool(builds) == (name == "geometry.py"), (name, builds)
    assert takers == dict.fromkeys(FRAME_TAKERS, "FRAME")


def test_the_frame_takers_reject_any_frame_but_the_standard_one():
    # the closed forms hold for the standard frame alone: a frame with one
    # normal rotated by 1e-3 rad is refused, not silently used
    grid, cutoff = Grid2D(8, 8), CutoffProfile(0.25)
    u, phi = TripleField.zero(grid), BoundaryTriple.zero(grid.ny)
    c, s = np.cos(1e-3), np.sin(1e-3)
    nu = NU.copy()
    nu[1] = [c * NU[1, 0] - s * NU[1, 1], s * NU[1, 0] + c * NU[1, 1]]
    calls = [lambda f: solve_nonlinear(phi, SolveOptions(), grid, cutoff, f),
             lambda f: fd_mean_curvature(1, u, (0.5, 0.5), 1e-3, cutoff, f),
             lambda f: junction_angle_check(u, f)]
    for call in calls:
        with pytest.raises(ValueError, match="standard"):
            call(JunctionFrame(N, nu))
        call(frame_vectors())


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


def test_declared_numpy_floor_has_fft_out_and_reshape_copy():
    # spectral.fourier_jet passes out= to np.fft.rfft and np.fft.irfft, which
    # numpy added in 2.0, and fields._y_lag passes copy=False to np.reshape, which
    # numpy added in 2.1; an older numpy raises TypeError on the hot path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        spec = re.search(r'"numpy>=([0-9.]+)"', fh.read())
    assert spec is not None
    assert tuple(int(part) for part in spec.group(1).split(".")[:2]) >= (2, 1)


def test_the_benchmark_copies_of_verify_s_step_and_bounds_match_the_table():
    # perfbench/worker.py restates verify's FD step and two bounds instead of
    # importing them; read them with ast, so the benchmark is neither imported
    # nor changed.  Its probe points are left out: they already differ.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "worker.py")) as fh:
        tree = ast.parse(fh.read())
    copied = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FD_STEP", "FD_BOUND", "ANGLE_BOUND")}
    assert copied == {"FD_STEP": cli.FD_STEP,
                      "FD_BOUND": cli.CERTIFICATES["fd_mean_curvature"][1],
                      "ANGLE_BOUND": cli.CERTIFICATES["junction_angles"][1]}
