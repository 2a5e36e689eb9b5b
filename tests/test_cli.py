"""End-to-end command-line workflows: solve, verify, sweep, export-mesh."""

import os
import stat
import subprocess
import sys

import numpy as np

import trijunction
from trijunction.cli import (EXIT_CONFIG, EXIT_GATES, EXIT_GUARD, EXIT_NO_CONVERGENCE,
                             EXIT_OK, EXIT_VERIFY_FAIL, load_artifacts, main)
from trijunction import load_field_csv


def run(argv):
    return main(argv)


def test_solve_translate_family(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    for name in ("u1.csv", "u2.csv", "u3.csv", "phi.csv", "report.csv", "summary.txt",
                 "residuals.csv", "spine.csv", "surface.obj", "modes.csv",
                 "config_used.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    # solution matches the closed form
    u2, delta, header = load_field_csv(os.path.join(out, "u2.csv"))
    assert delta == 0.25
    assert header["family"] == "translate:0.01,0"
    assert np.max(np.abs(u2.values - 0.01 * np.sqrt(3) / 2)) < 1e-8
    # spine sits at the translation vector
    rows = [ln.split(",") for ln in open(os.path.join(out, "spine.csv"))
            if ln.strip() and not ln.startswith("#") and not ln.startswith("y,")]
    spine = np.array([[float(t) for t in r] for r in rows])
    assert np.max(np.abs(spine[:, 1] - 0.01)) < 1e-10
    assert np.max(np.abs(spine[:, 2])) < 1e-10


def test_solve_zero_boundary(tmp_path):
    out = str(tmp_path / "zero")
    assert run(["solve", "--out", out]) == EXIT_OK
    u1, _, _ = load_field_csv(os.path.join(out, "u1.csv"))
    assert np.max(np.abs(u1.values)) < 1e-12


def test_solve_oversized_boundary_trips_guard(tmp_path):
    out = str(tmp_path / "big")
    code = run(["solve", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--out", out])
    assert code in (EXIT_GUARD, EXIT_NO_CONVERGENCE)
    # diagnostic artifacts are still written
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_solve_converged_but_gates_failed(tmp_path):
    # tol = 1 stops at the first (linear) iterate, whose conormal defect is
    # quadratic in the data and far above its 1e-6 gate
    out = str(tmp_path / "loose")
    assert run(["solve", "--phi1", "1:0.2:0", "--phi2", "1:-0.1:0.2",
                "--phi3", "1:-0.1:-0.2", "--tol", "1", "--r-guard", "1000",
                "--out", out]) == EXIT_GATES
    assert "converged          : True" in open(os.path.join(out, "summary.txt")).read()


def test_solve_config_errors(tmp_path):
    assert run(["solve", "--family", "bogus:1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--delta", "0.7", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--ny", "63", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--phi1", "a:1:2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--family", "translate:0.01,0", "--phi1", "0:1:0",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    # family magnitude beyond delta/20 is a data error surfaced as config
    assert run(["solve", "--family", "translate:0.2,0", "--out", str(tmp_path)]) \
        == EXIT_CONFIG


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo configuration\n"
                   "family = translate:0.01,0\n"
                   "ny = 32\n"
                   "delta = 0.3\n")
    out = str(tmp_path / "run")
    assert run(["solve", "--config", str(cfg), "--ny", "64", "--out", out]) == EXIT_OK
    u1, delta, header = load_field_csv(os.path.join(out, "u1.csv"))
    assert delta == 0.3                       # from the file
    assert u1.grid.ny == 64                   # flag overrides the file
    cfg.write_text("nonsense line\n")
    assert run(["solve", "--config", str(cfg), "--out", out]) == EXIT_CONFIG


def test_verify_round_trip(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    assert run(["verify", out]) == EXIT_OK


def test_verify_zero_run(tmp_path):
    out = str(tmp_path / "zero")
    assert run(["solve", "--out", out]) == EXIT_OK
    assert run(["verify", out]) == EXIT_OK


def test_verify_detects_corruption(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    # corrupt one field: add a bump that breaks stationarity
    path = os.path.join(out, "u1.csv")
    lines = open(path).read().splitlines()
    header_end = next(j for j, ln in enumerate(lines) if ln == "nx,ny,delta") + 2
    row = [float(t) for t in lines[header_end + 10].split(",")]
    row = [v + 0.03 for v in row]
    lines[header_end + 10] = ",".join(f"{v:.17g}" for v in row)
    open(path, "w").write("\n".join(lines) + "\n")
    assert run(["verify", out]) == EXIT_VERIFY_FAIL


def test_verify_unreadable(tmp_path):
    assert run(["verify", str(tmp_path / "missing")]) == EXIT_VERIFY_FAIL


def test_sweep_translate(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--family", "translate:0.01,0",
                "--scales", "0,0.5,1.0", "--out", out]) == EXIT_OK
    text = open(os.path.join(out, "sweep.csv")).read()
    lines = text.strip().splitlines()
    assert lines[0] == "scale,status,iterations,final_residual,last_contraction_ratio"
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[1] == "converged" for r in rows)
    assert int(rows[0][2]) <= 1               # zero scale: 0-1 iterations
    assert float(rows[1][3]) < 1e-8 and float(rows[2][3]) < 1e-8
    iters = [int(r[2]) for r in rows]
    assert iters == sorted(iters)             # nondecreasing with scale
    captured = capsys.readouterr()
    assert "monotone" in captured.out


def test_sweep_records_failures_and_continues(tmp_path):
    out = str(tmp_path / "sweep2")
    # scale 5 pushes translate:0.04 beyond delta/20: recorded as error row
    assert run(["sweep", "--family", "translate:0.01,0", "--scales", "1.0,5.0",
                "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "converged"
    assert lines[2].split(",")[1] in ("error", "guard_violation", "no_convergence")


def test_sweep_without_convergence_exits_no_convergence(tmp_path):
    out = str(tmp_path / "sweep3")
    assert run(["sweep", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--scales", "0.5,1.0",
                "--out", out]) == EXIT_NO_CONVERGENCE
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["guard_violation"] * 2


def test_sweep_requires_boundary(tmp_path):
    assert run(["sweep", "--scales", "1.0", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_export_mesh(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    target = os.path.join(out, "fine.obj")
    assert run(["export-mesh", out, "--resolution", "9x12", "--out", target]) == EXIT_OK
    text = open(target).read()
    assert text.count("g sheet") == 3
    nv = sum(1 for ln in text.splitlines() if ln.startswith("v "))
    assert nv == 13 + 3 * 8 * 13              # shared spine + 3 sheets
    assert run(["export-mesh", out, "--resolution", "bad"]) == EXIT_CONFIG


def test_phi_coefficient_boundary(tmp_path):
    out = str(tmp_path / "modes")
    assert run(["solve", "--phi1", "1:1e-6:0", "--phi2", "1:-5e-7:1e-6",
                "--phi3", "1:-5e-7:-1e-6", "--out", out]) == EXIT_OK
    assert run(["verify", out]) == EXIT_OK


def test_solver_option_errors_exit_config(tmp_path):
    out = str(tmp_path / "x")
    assert run(["solve", "--r-guard", "-0.1", "--out", out]) == EXIT_CONFIG
    assert run(["solve", "--tol=-1e-10", "--out", out]) == EXIT_CONFIG
    assert run(["solve", "--max-iter", "0", "--out", out]) == EXIT_CONFIG
    assert run(["sweep", "--family", "rotate:0.01", "--scales", "1.0",
                "--tol=-1", "--out", out]) == EXIT_CONFIG


def test_verify_failed_run_artifacts(tmp_path):
    # a guard-tripped run still writes artifacts; verify must fail cleanly
    out = str(tmp_path / "tripped")
    code = run(["solve", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--out", out])
    assert code in (EXIT_GUARD, EXIT_NO_CONVERGENCE)
    assert run(["verify", out]) == EXIT_VERIFY_FAIL


def test_solve_artifacts_get_umask_mode(tmp_path):
    out = str(tmp_path / "run")
    old = os.umask(0o027)
    try:
        assert run(["solve", "--out", out]) == EXIT_OK
    finally:
        os.umask(old)
    for name in os.listdir(out):
        assert stat.S_IMODE(os.stat(os.path.join(out, name)).st_mode) == 0o640, name


def test_load_artifacts_round_trips_config(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--phi1", "1:1e-6:0", "--phi2", "1:-5e-7:1e-6",
                "--phi3", "1:-5e-7:-1e-6", "--r-guard", "0.05",
                "--mesh-resolution", "9x12", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "config_used.txt")) as fh:
        written = dict(ln.split(" = ", 1) for ln in fh.read().splitlines())
    assert {"r_guard", "phi1", "phi2", "phi3", "mesh_resolution"} <= set(written)
    cfg, _, _, _ = load_artifacts(out)
    assert {k: str(v) for k, v in cfg.echo().items()} == written
    target = os.path.join(out, "export.obj")
    assert run(["export-mesh", out, "--out", target]) == EXIT_OK
    with open(target) as fh:
        header = dict(ln[2:].rstrip("\n").split(" = ", 1) for ln in fh
                      if ln.startswith("# ") and " = " in ln)
    # the export names the resolution it meshed at, not the stored one
    assert header.pop("mesh_resolution") == "33x64"
    del written["mesh_resolution"]
    assert {k: header[k] for k in written} == written


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(trijunction.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, trijunction.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
