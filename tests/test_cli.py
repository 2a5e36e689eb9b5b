"""End-to-end command-line workflows: solve, verify, sweep, export-mesh."""

import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trijunction
from trijunction import AliasingWarning, CutoffProfile, Grid2D, SolveOptions, fd_mean_curvature
from trijunction import cli
from trijunction.cli import (EXIT_CONFIG, EXIT_GATES, EXIT_GUARD, EXIT_NO_CONVERGENCE,
                             EXIT_OK, EXIT_VERIFY_FAIL, RESIDUAL_NAMES, RunConfig,
                             apply_config_values, load_artifacts, main, read_table,
                             report_to_csv)
from trijunction.geometry import N, NU, wall_scalars
from trijunction.picard import SolveFailure, SolveReport, residual_record, solve_nonlinear
from trijunction.spectral import cheb_coefficients

from conftest import count_calls


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
    header, size, u2 = read_table(os.path.join(out, "u2.csv"), "nx,ny,delta")
    assert float(size["delta"]) == 0.25
    assert header["family"] == "translate:0.01,0"
    assert np.max(np.abs(u2 - 0.01 * np.sqrt(3) / 2)) < 1e-8
    # spine sits at the translation vector
    rows = [ln.split(",") for ln in open(os.path.join(out, "spine.csv"))
            if ln.strip() and not ln.startswith("#") and not ln.startswith("y,")]
    spine = np.array([[float(t) for t in r] for r in rows])
    assert np.max(np.abs(spine[:, 1] - 0.01)) < 1e-10
    assert np.max(np.abs(spine[:, 2])) < 1e-10


def test_solve_zero_boundary(tmp_path):
    out = str(tmp_path / "zero")
    assert run(["solve", "--out", out]) == EXIT_OK
    _, _, u1 = read_table(os.path.join(out, "u1.csv"), "nx,ny,delta")
    assert np.max(np.abs(u1)) < 1e-12


def test_solve_oversized_boundary_trips_guard(tmp_path):
    out = str(tmp_path / "big")
    code = run(["solve", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--out", out])
    assert code in (EXIT_GUARD, EXIT_NO_CONVERGENCE)
    # diagnostic artifacts are still written
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_overflowing_boundary_data_trips_the_guard_quietly(tmp_path, capsys):
    # data of size 1e300 overflows the aliasing check's energies and the
    # metric; the run exits with a guard violation and no RuntimeWarning
    # (the suite turns one into an error), and the summary prints the huge
    # embed margin in the %.6e form of every other number
    out = str(tmp_path / "huge")
    assert run(["solve", "--phi1", "1:1e300:1e300", "--out", out]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert "laplace residual   : nan" in err
    assert re.search(r"^  embed margin       : -\d\.\d{6}e\+\d+$", err, re.M)


@pytest.mark.parametrize("size", ["1e303", "1e305", "1e308"])
def test_data_near_the_float_range_trips_the_guard_quietly(tmp_path, capsys, size):
    # 1e303 leaves a finite first iterate far outside the guard, 1e305
    # overflows its jet, 1e308 the spectrum of the data itself; each run ends
    # in one labelled guard violation and the summary, and writes modes.csv,
    # with no traceback and no RuntimeWarning (the suite turns one into an
    # error)
    out = str(tmp_path / "huge")
    assert run(["solve", "--phi1", f"1:{size}:{size}", "--out", out]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("guard violation: ") and err.count("guard violation") == 1
    assert err.splitlines()[1] == "fixed-point solve summary"
    assert "converged          : False" in open(os.path.join(out, "summary.txt")).read()


def test_data_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    # the cosine and sine terms of sheet 1 sum past the float range
    assert run(["solve", "--phi1", "1:1.7e308:1.7e308", "--out", str(tmp_path)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: boundary values must be finite\n"


@pytest.mark.parametrize("argv", [["solve", "--bogus", "1"], ["verify"], []])
def test_usage_errors_are_config_errors(capsys, argv):
    # argparse's own exit code, 2, is "no convergence" here
    assert run(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main([*argv[:1], "--help"])
    assert exc.value.code == 0


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
    # a delta so small that the cutoff's eta'' overflows
    for delta in ("1e-200", "1e-320"):
        assert run(["solve", "--delta", delta, "--phi1", "1:1e-6:0", "--phi2", "1:-1e-6:0",
                    "--out", str(tmp_path)]) == EXIT_CONFIG, delta
    assert run(["solve", "--ny", "63", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--phi1", "a:1:2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--family", "translate:0.01,0", "--phi1", "0:1:0",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    # family magnitude beyond delta/20 is a data error surfaced as config
    assert run(["solve", "--family", "translate:0.2,0", "--out", str(tmp_path)]) \
        == EXIT_CONFIG
    # malformed numbers are config errors, not argparse's usage error (2)
    for flags in (["--nx", "abc"], ["--delta", "x"], ["--max-iter", "1.5"]):
        assert run(["solve", *flags, "--out", str(tmp_path)]) == EXIT_CONFIG, flags
        assert run(["sweep", "--family", "rotate:0.01", "--scales", "1.0", *flags,
                    "--out", str(tmp_path)]) == EXIT_CONFIG, flags


@pytest.mark.parametrize("family", ["foo:1", "translate:abc", "rotate:x"])
@pytest.mark.parametrize("command", [["solve"], ["sweep", "--scales", "0.5,1"]],
                         ids=["solve", "sweep"])
def test_a_malformed_family_is_a_config_error(tmp_path, monkeypatch, capsys, family, command):
    # the family is parsed with the other keys, so sweep stops before any
    # solve instead of recording one error row per scale
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    out = tmp_path / "run"
    assert run([*command, "--family", family, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("modes", [("64:0.001:0", "64:-0.001:0"),
                                   ("32:0:0.001", "32:0:-0.001")])
def test_modes_the_grid_cannot_carry_are_config_errors(tmp_path, monkeypatch, capsys, modes):
    # at ny = 64 mode 64 aliases to the constant mode, and the sine of mode 32
    # vanishes at every node: either run would solve other data than it echoes
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "solve_nonlinear", no_solve)
    out = str(tmp_path / "run")
    flags = ["--phi1", modes[0], "--phi2", modes[1], "--out", out]
    assert run(["solve", *flags]) == EXIT_CONFIG
    assert run(["sweep", *flags, "--scales", "1.0"]) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert capsys.readouterr().err.count("is not carried by ny = 64 points") == 2


def test_modes_the_grid_carries_are_accepted(tmp_path):
    # the cosine of mode ny / 2 is carried; so is every mode on a finer grid
    RunConfig(phi_coeffs={1: [(32, 0.001, 0.0)], 2: [(32, -0.001, 0.0)]}).validate()
    RunConfig(ny=128, phi_coeffs={1: [(64, 0.001, 0.0), (63, 0.0, 0.001)]}).validate()
    out = str(tmp_path / "run")
    with pytest.warns(AliasingWarning, match="^outer boundary data: "):
        assert run(["solve", "--phi1", "32:0.001:0", "--phi2", "32:-0.001:0",
                    "--out", out]) == EXIT_GUARD


@pytest.mark.filterwarnings("ignore::trijunction.fields.AliasingWarning")   # out-of-regime data
def test_degenerate_metric_exits_guard(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["solve", "--phi1", "1:30:0", "--phi2", "1:-30:0", "--r-guard", "1e6",
                "--nx", "16", "--ny", "16", "--out", out]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("guard violation: iteration 3: the iterate left the embeddable regime")
    assert "iterations         : 2" in err
    assert os.path.exists(os.path.join(out, "summary.txt"))


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo configuration\n"
                   "family = translate:0.01,0\n"
                   "ny = 32\n"
                   "delta = 0.3\n")
    out = str(tmp_path / "run")
    assert run(["solve", "--config", str(cfg), "--ny", "64", "--out", out]) == EXIT_OK
    _, size, u1 = read_table(os.path.join(out, "u1.csv"), "nx,ny,delta")
    assert float(size["delta"]) == 0.3        # from the file
    assert u1.shape[1] == 64                  # flag overrides the file
    cfg.write_text("nonsense line\n")
    assert run(["solve", "--config", str(cfg), "--out", out]) == EXIT_CONFIG


def _flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)


def test_solve_and_sweep_take_exactly_the_config_keys_as_flags(capsys):
    keys = ["--delta", "--alpha", "--nx", "--ny", "--tol", "--max-iter", "--r-guard",
            "--family", "--mesh-resolution", "--phi1", "--phi2", "--phi3", "--out"]
    assert _flags(capsys, "solve") == ["--help", "--config", *keys]
    assert _flags(capsys, "sweep") == ["--help", "--config", *keys, "--scales"]


# a text per config key that differs from its default and is its own echo
KEY_TEXTS = {"delta": "0.3", "alpha": "0.75", "nx": "12", "ny": "20", "tol": "1e-09",
             "max_iter": "7", "r_guard": "0.01", "family": "translate:0.001,0",
             "mesh_resolution": "9x12", "phi1": "1:1e-06:0.0", "phi2": "0:-1e-06:0.0",
             "phi3": "2:0.0:1e-06"}


@pytest.mark.parametrize("via", ["flag", "config file"])
@pytest.mark.parametrize("key", list(cli.CONFIG_KEYS))
def test_each_config_key_round_trips(tmp_path, key, via):
    # the text given as a flag or a config file line comes back unchanged in
    # config_used.txt and from the artifact header that load_artifacts reads
    out = str(tmp_path / "run")
    values = {"nx": "16", "ny": "16", "out": out}
    values[key] = out if key == "out" else KEY_TEXTS[key]
    if via == "flag":
        argv = ["solve"] + [item for k, v in values.items()
                            for item in ("--" + k.replace("_", "-"), v)]
    else:
        (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = ["solve", "--config", str(tmp_path / "run.cfg")]
    assert run(argv) == EXIT_OK
    with open(os.path.join(out, "config_used.txt")) as fh:
        written = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    echo = load_artifacts(out)[0].echo()
    if key == "out":
        assert key not in written and key not in echo
    else:
        assert written[key] == echo[key] == values[key]


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


SMALL_PHI = ["--phi1", "1:1e-5:0", "--phi2", "2:0:1e-5", "--phi3", "0:2e-6:0"]


def _verdicts(printed: str) -> dict[str, str]:
    rows = (re.match(r"(.+?) {2,}(PASS|FAIL)  ", ln) for ln in printed.splitlines())
    return {row[1]: row[2] for row in rows}


def test_every_verdict_reads_the_certificate_table(tmp_path, monkeypatch, capsys):
    # a bound just below what a passing run measures fails exactly its own
    # verify row (verify exits 1) and, when solve gates it, the solve (exit
    # 5): every verdict reads its bound from the one table when it is made
    assert list(cli.RESIDUAL_GATES.items()) == [
        ("conormal_sup", 1e-6), ("trace_sum", 1e-10), ("outer_trace", 1e-10)]
    measured, check = {}, cli.check_certificates

    def spy(command, found):
        measured.update((name, pair[0]) for name, pair in found.items() if pair is not None)
        return check(command, found)

    out = str(tmp_path / "run")
    with monkeypatch.context() as m:
        m.setattr(cli, "check_certificates", spy)
        assert run(["solve", *SMALL_PHI, "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", out]) == EXIT_OK
    labels = list(_verdicts(capsys.readouterr().out))
    assert labels == [label for label, *_ in cli.CERTIFICATES.values() if label]
    for name, (label, bound, gates, independent) in cli.CERTIFICATES.items():
        if bound is None:
            assert not gates and label is None, name
            continue
        with monkeypatch.context() as m:
            m.setitem(cli.CERTIFICATES, name,
                      (label, np.nextafter(measured[name], -np.inf), gates, independent))
            capsys.readouterr()
            assert run(["verify", out]) == (EXIT_VERIFY_FAIL if label else EXIT_OK), name
            verdicts = _verdicts(capsys.readouterr().out)
            assert list(verdicts) == labels
            assert [lbl for lbl, v in verdicts.items() if v == "FAIL"] == [label] * bool(label)
            code = run(["solve", *SMALL_PHI, "--out", str(tmp_path / name)])
            assert code == (EXIT_GATES if "solve" in gates else EXIT_OK), name


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


def test_sweep_failure_rows_hold_the_report_residual(tmp_path, monkeypatch):
    # every row with a report writes max(laplace, boundary) of its final
    # residuals and its last contraction ratio, whatever its status
    reports = []

    def spy(*args):
        try:
            u, report = solve_nonlinear(*args)
        except SolveFailure as exc:
            reports.append(exc.report)
            raise
        reports.append(report)
        return u, report

    monkeypatch.setattr(cli, "solve_nonlinear", spy)
    out = str(tmp_path / "sweep4")
    assert run(["sweep", "--family", "rotate:0.01", "--scales", "0.5,1.0", "--max-iter", "1",
                "--out", out]) == EXIT_NO_CONVERGENCE
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert len(reports) == 2
    for line, status, rep in zip(lines[1:], ("no_convergence", "guard_violation"), reports):
        res = max(rep.final_residuals.laplace, rep.final_residuals.boundary)
        assert rep.iterations == 1 and res < 1e-10
        assert line.split(",")[1:] == [status, "1", f"{res:.6e}", "nan"]


def test_sweep_requires_boundary(tmp_path):
    assert run(["sweep", "--scales", "1.0", "--out", str(tmp_path)]) == EXIT_CONFIG
    # a scale that is not a finite number is a config error before any solve
    out = str(tmp_path / "s")
    for scales in ("abc", "1e400,nan", "1.0,inf", ","):
        assert run(["sweep", "--family", "rotate:0.01", "--scales", scales,
                    "--out", out]) == EXIT_CONFIG, scales
    assert not os.path.exists(out)


def test_unusable_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "solve_nonlinear", lambda *a, **k: solves.append(1))
    regular_file = tmp_path / "file"
    regular_file.write_text("not a directory\n")
    for out in ("", str(regular_file)):
        assert run(["solve", "--family", "rotate:0.01", "--out", out]) == EXIT_CONFIG
        assert run(["sweep", "--family", "rotate:0.01", "--scales", "1.0",
                    "--out", out]) == EXIT_CONFIG
    assert solves == []
    assert capsys.readouterr().err.count("config error: cannot create output directory") == 4
    assert regular_file.read_text() == "not a directory\n"


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


def test_export_mesh_to_an_unusable_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    meshed = []
    monkeypatch.setattr(cli, "mesh_surface", lambda *a, **k: meshed.append(1))
    capsys.readouterr()
    # an existing directory, and a file below a regular file
    for target in (out, os.path.join(out, "u1.csv", "fine.obj")):
        assert run(["export-mesh", out, "--out", target]) == EXIT_CONFIG
    assert meshed == []
    assert capsys.readouterr().err.count("config error: ") == 2


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(trijunction.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_load_artifacts_rejects_artifacts_that_do_not_fit(tmp_path):
    coarse, out = str(tmp_path / "coarse"), str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--ny", "32", "--out", coarse]) \
        == EXIT_OK
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    phi_path, u3_path = os.path.join(out, "phi.csv"), os.path.join(out, "u3.csv")
    phi_text, u3_text = open(phi_path).read(), open(u3_path).read()
    assert "# delta = 0.25\n" in u3_text
    bad_delta = u3_text.replace("# delta = 0.25\n", "# delta = 0.7\n")
    cases = [  # (file, corrupted text, command, word the message names)
        (phi_path, open(os.path.join(coarse, "phi.csv")).read(), "verify", "ny"),
        (u3_path, bad_delta, "verify", "delta"),
        (u3_path, bad_delta, "export-mesh", "delta")]
    for path, text, command, word in cases:
        with open(path, "w") as fh:
            fh.write(text)
        # a fresh interpreter, as from a shell, so a traceback would show
        proc = subprocess.run([sys.executable, "-m", "trijunction.cli", command, out],
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        with open(phi_path, "w") as fh:
            fh.write(phi_text)
        with open(u3_path, "w") as fh:
            fh.write(u3_text)
        assert proc.returncode == EXIT_VERIFY_FAIL, (command, proc.stderr)
        assert "cannot load artifacts: " in proc.stderr and word in proc.stderr, command
        assert "Traceback" not in proc.stderr, command


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--scales", "1.0"]], ids=["solve", "sweep"])
def test_a_failed_artifact_write_exits_config_without_a_traceback(tmp_path, argv):
    # a directory where an artifact file goes: the solve runs, the write fails
    out = tmp_path / "run"
    (out / ("sweep.csv" if argv[0] == "sweep" else "summary.txt")).mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "trijunction.cli", *argv, "--family",
                           "translate:0.01,0", "--out", str(out)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "cannot write artifacts: " in proc.stderr and "Traceback" not in proc.stderr


def test_a_failed_write_into_a_reused_out_mixes_no_two_runs(tmp_path, capsys):
    # a second solve into the same --out fails at summary.txt: no file of the
    # first run may remain beside one of the second, and verify must refuse
    out = str(tmp_path / "mix")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    os.remove(os.path.join(out, "summary.txt"))
    os.mkdir(os.path.join(out, "summary.txt"))
    assert run(["solve", "--family", "translate:0.005,0", "--out", out]) == EXIT_CONFIG
    families = set()
    for name in os.listdir(out):
        if os.path.isfile(os.path.join(out, name)):
            with open(os.path.join(out, name)) as fh:
                families.update(line.split("=", 1)[1].strip() for line in fh
                                if line.lstrip("# ").startswith("family ="))
    assert len(families) <= 1, families
    capsys.readouterr()
    assert run(["verify", out]) == EXIT_VERIFY_FAIL
    assert capsys.readouterr().err.startswith("cannot load artifacts: ")


def test_export_mesh_write_failure_exits_config(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK

    def fail(path, text):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "atomic_write_text", fail)
    capsys.readouterr()
    assert run(["export-mesh", out, "--out", os.path.join(out, "fine.obj")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("cannot write artifacts: ")


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("solved") / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--nx", "16", "--ny", "16",
                "--out", out]) == EXIT_OK
    return out


EARLY_STOPS = {  # (argv, exit code, stderr label); every artifact write fails
    "solve-config": (["solve", "--nx", "abc"], EXIT_CONFIG, "config error"),
    "sweep-config": (["sweep", "--scales", "x"], EXIT_CONFIG, "config error"),
    "export-mesh-config": (["export-mesh", "RUN", "--resolution", "bad"], EXIT_CONFIG,
                           "config error"),
    "verify-load": (["verify", "MISSING"], EXIT_VERIFY_FAIL, "cannot load artifacts"),
    "export-mesh-load": (["export-mesh", "MISSING"], EXIT_VERIFY_FAIL, "cannot load artifacts"),
    "solve-write": (["solve"], EXIT_CONFIG, "cannot write artifacts"),
    "sweep-write": (["sweep", "--family", "rotate:0.001", "--scales", "1.0"], EXIT_CONFIG,
                    "cannot write artifacts"),
    "export-mesh-write": (["export-mesh", "RUN", "--out", "OUT/x.obj"], EXIT_CONFIG,
                          "cannot write artifacts")}


@pytest.mark.parametrize("stop", list(EARLY_STOPS))
def test_each_early_stop_prints_one_labelled_line(tmp_path, monkeypatch, capsys, solved_run,
                                                 stop):
    def fail(path, text):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "atomic_write_text", fail)
    argv, code, label = EARLY_STOPS[stop]
    paths = {"RUN": solved_run, "MISSING": str(tmp_path / "missing"), "OUT": str(tmp_path)}
    argv = [re.sub("RUN|MISSING|OUT", lambda m: paths[m.group()], a) for a in argv]
    if argv[0] in ("solve", "sweep"):
        argv[1:1] = ["--nx", "16", "--ny", "16", "--out", str(tmp_path / "out")]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(label + ": ") and err.count("\n") == 1, err


def _obj_header(path):
    with open(path) as fh:
        return dict(ln[2:].rstrip("\n").split(" = ", 1) for ln in fh
                    if ln.startswith("# ") and " = " in ln)


def test_solve_and_export_mesh_write_the_same_obj_header(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    target = os.path.join(out, "export.obj")
    assert run(["export-mesh", out, "--out", target]) == EXIT_OK
    solved, exported = _obj_header(os.path.join(out, "surface.obj")), _obj_header(target)
    assert set(solved) == set(exported)
    assert {f"residual_{name}" for name in RESIDUAL_NAMES} <= set(solved)
    assert solved == exported


def test_mesh_resolution_below_minimum_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "run")
    # rejected before the solve, so no artifact directory is left behind
    assert run(["solve", "--family", "translate:0.01,0", "--mesh-resolution", "1x2",
                "--out", out]) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert run(["export-mesh", out, "--resolution", "1x2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least 2x3" in err
    assert run(["export-mesh", out, "--resolution", "2x3"]) == EXIT_OK


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
    # a NaN r_guard or tol never compares true, and a NaN alpha drops the
    # Hoelder term: each is a config error before anything is written
    for flags in (["--r-guard", "nan"], ["--tol", "nan"], ["--tol", "inf"],
                  ["--alpha", "nan"], ["--alpha=-3"], ["--alpha", "1.5"]):
        assert run(["solve", *flags, "--out", out]) == EXIT_CONFIG, flags
        assert run(["sweep", "--family", "rotate:0.01", "--scales", "1.0", *flags,
                    "--out", out]) == EXIT_CONFIG, flags
    assert not os.path.exists(out)


def test_verify_reports_incompatible_traces(tmp_path, capsys):
    # traces that no longer sum to zero have no common spine: verify prints
    # FAIL rows instead of dying in the angle oracle
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    path = os.path.join(out, "u1.csv")
    lines = open(path).read().splitlines()
    inner = next(j for j, ln in enumerate(lines) if ln == "nx,ny,delta") + 2
    row = [float(t) for t in lines[inner].split(",")]
    row[5] += 1e-6
    lines[inner] = ",".join(f"{v:.17g}" for v in row)
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", out]) == EXIT_VERIFY_FAIL
    printed = capsys.readouterr().out.splitlines()
    for name in ("junction angles", "trace sum"):
        assert any(ln.startswith(name) and ln[len(name):].split()[0] == "FAIL"
                   for ln in printed), name


def test_verify_failed_run_artifacts(tmp_path):
    # a guard-tripped run still writes artifacts; verify must fail cleanly
    out = str(tmp_path / "tripped")
    code = run(["solve", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--out", out])
    assert code in (EXIT_GUARD, EXIT_NO_CONVERGENCE)
    assert run(["verify", out]) == EXIT_VERIFY_FAIL


VERIFY_ROWS = ["mean curvature (FD oracle)", "junction angles", "junction conditions",
               "trace sum", "outer trace"]


@pytest.mark.parametrize("argv", [
    ["--phi1", "1:1e303:1e303"], ["--phi1", "1:1e305:1e305"],
    pytest.param(["--phi1", "1:30:0", "--phi2", "1:-30:0", "--r-guard", "1e6",
                  "--nx", "16", "--ny", "16"],
                 marks=pytest.mark.filterwarnings(                   # out-of-regime data
                     "ignore::trijunction.fields.AliasingWarning"))])
def test_verify_out_of_regime_artifacts_fails_every_row_quietly(tmp_path, capsys, argv):
    # fields that overflow the certificates or leave the embeddable regime:
    # each certificate prints a row, a NaN or inf one fails its test, and no
    # RuntimeWarning is printed (the suite turns one into an error); the
    # trace rows read the values alone, so they are printed too
    out = str(tmp_path / "run")
    assert run(["solve", *argv, "--out", out]) == EXIT_GUARD
    capsys.readouterr()
    assert run(["verify", out]) == EXIT_VERIFY_FAIL
    printed = capsys.readouterr().out.splitlines()
    assert [ln.split("  ")[0] for ln in printed] == VERIFY_ROWS
    assert all(ln[len(name):].split()[0] == "FAIL" for ln, name in zip(printed, VERIFY_ROWS[:3]))


def test_verify_names_no_location_for_a_non_finite_fd_curvature(tmp_path, capsys):
    # the FD oracle's |H| is NaN at every probe of this run: the row says so
    # and fails, and names no sheet or point, which would only be the first NaN
    out = str(tmp_path / "run")
    assert run(["solve", "--phi1", "1:1e303:1e303", "--out", out]) == EXIT_GUARD
    capsys.readouterr()
    assert run(["verify", out]) == EXIT_VERIFY_FAIL
    row = capsys.readouterr().out.splitlines()[0]
    name = "mean curvature (FD oracle)"
    assert row.startswith(name) and row[len(name):].split()[0] == "FAIL"
    assert row.endswith("|H| is non-finite at 36 of 36 probes (h = 0.001)")
    assert "sheet" not in row and "(x, y)" not in row


def test_verify_differentiates_the_stored_field_once(tmp_path, monkeypatch, capsys):
    # the jet is verify's one Fourier pass (u_y, u_yy and u_xy): the angle
    # check and the residuals read the wall and spine slopes from it; an
    # in-regime run prints its six rows in order
    from trijunction import spectral
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    capsys.readouterr()
    calls = count_calls(monkeypatch, spectral, ("fourier_derivative", "fourier_jet"))
    assert run(["verify", out]) == EXIT_OK
    assert calls == {"fourier_derivative": 0, "fourier_jet": 1}
    printed = capsys.readouterr().out.splitlines()
    assert [ln.split("  ")[0] for ln in printed] == VERIFY_ROWS + ["stored residual match"]


def test_verify_interpolates_each_sheet_once(tmp_path, monkeypatch, capsys):
    # the FD oracle embeds each sheet's stencils with one trigonometric
    # interpolation of the sheet and its inner traces: 3 in all, not 6
    from trijunction import spectral
    out = str(tmp_path / "run")
    assert run(["solve", "--family", "translate:0.01,0", "--out", out]) == EXIT_OK
    calls = count_calls(monkeypatch, spectral, ("fourier_interpolate",))
    assert run(["verify", out]) == EXIT_OK
    assert calls == {"fourier_interpolate": 3}


def test_run_config_defaults_are_the_solver_defaults():
    # each solver default is stated once, by the type that owns it
    grid, cutoff, opts = RunConfig().setup()
    assert grid == Grid2D(48, 64)
    assert cutoff == CutoffProfile()
    assert opts == SolveOptions()


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
    header = _obj_header(target)
    # the export names the resolution it meshed at, not the stored one
    assert header.pop("mesh_resolution") == "33x64"
    del written["mesh_resolution"]
    assert {k: header[k] for k in written} == written


def _modes_csv_lines(out):
    """The lines of a run's modes.csv, recomputed one by one from its stored
    config and fields: per sheet, max over x of |X_k| w_k / ny for each rfft
    mode k (w_k = 2, or 1 at k = 0 and the Nyquist mode), then max over y of
    |a_n| for each Chebyshev degree n."""
    cfg, u, _, _ = load_artifacts(out)
    lines = [f"# {k} = {v}" for k, v in cfg.echo().items()] + ["sheet,basis,mode,max_abs"]
    for i, values in enumerate(u.values, 1):
        X = np.fft.rfft(values, axis=1)
        for k in range(cfg.ny // 2 + 1):
            w = 1.0 if k == 0 or 2 * k == cfg.ny else 2.0
            lines.append(f"{i},fourier,{k},{np.abs(X[:, k]).max() * (w / cfg.ny):.6e}")
        a = cheb_coefficients(values)
        lines += [f"{i},chebyshev,{n},{np.abs(a[n]).max():.6e}" for n in range(cfg.nx)]
    return lines


def test_modes_csv_comes_from_the_solve_that_produced_the_fields(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--phi1", "1:1e-5:0", "--phi2", "1:-5e-6:1e-5",
                "--phi3", "1:-5e-6:-1e-5", "--out", out]) == EXIT_OK
    lines = _modes_csv_lines(out)
    # per sheet, the 33 rfft modes of ny = 64 and the 48 degrees of nx = 48
    assert sum(not line.startswith("#") for line in lines) == 1 + 3 * (33 + 48)
    with open(os.path.join(out, "modes.csv")) as fh:
        assert fh.read() == "\n".join(lines) + "\n"


def test_modes_csv_written_on_guard_violation(tmp_path):
    out = str(tmp_path / "big")
    assert run(["solve", "--phi1", "0:0.25:0", "--phi2", "1:0.2:0.1",
                "--phi3", "1:-0.2:-0.1", "--out", out]) == EXIT_GUARD
    with open(os.path.join(out, "modes.csv")) as fh:
        assert fh.read() == "\n".join(_modes_csv_lines(out)) + "\n"


def test_artifact_csv_text_matches_per_line_writers(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--phi1", "0:1e-5:0, 2:2e-6:-1e-6", "--phi2", "1:-5e-6:1e-5",
                "--phi3", "1:-5e-6:-1e-5", "--out", out]) == EXIT_OK
    cfg, u, phi, _ = load_artifacts(out)
    head = [f"# {k} = {v}" for k, v in cfg.echo().items()]
    rec = residual_record(u, phi, CutoffProfile(cfg.delta))
    # the spine rows are the samples of v = <w_1, n_1> n_1 + u_1(0, .) nu_1
    spine = np.outer(wall_scalars(u.traces())[0], N[0]) + np.outer(u.traces()[0], NU[0])
    ys = np.arange(cfg.ny) / cfg.ny
    expected = {
        "phi.csv": head + ["ny", str(phi.ny)]
        + [",".join(f"{v:.17g}" for v in row) for row in phi.values],
        "residuals.csv": head + ["name,value"]
        + [f"{name},{getattr(rec, name):.17g}" for name in RESIDUAL_NAMES],
        "spine.csv": head + ["y,v1,v2"]
        + [f"{y:.17g},{v1:.17g},{v2:.17g}" for y, (v1, v2) in zip(ys, spine)],
    }
    for name, lines in expected.items():
        with open(os.path.join(out, name)) as fh:
            assert fh.read() == "\n".join(lines) + "\n", name
    report = SolveReport(3, (0.5, 0.25, 0.0), (0.5,), rec, None, False)
    assert report_to_csv(report, {"a": 1}) == (
        "# a = 1\niteration,update_norm,contraction_ratio\n"
        "1,0.5,\n2,0.25,0.5\n3,0,\n")


def test_verify_probes_the_cutoff_joins(tmp_path, monkeypatch, capsys):
    probes = []

    def spy(i, u, points, h, cutoff):
        probes.append(np.asarray(points))
        return fd_mean_curvature(i, u, points, h, cutoff)

    monkeypatch.setattr(cli, "fd_mean_curvature", spy)
    for delta, xs in (("0.2", [0.2, 0.3, 0.4, 0.5, 0.7]),
                      ("0.25", [0.25, 0.3, 0.5, 0.7]),
                      # the x = delta stencil reaches x = 0 exactly
                      ("0.001", [0.001, 0.002, 0.3, 0.5, 0.7]),
                      # the x = delta stencil would leave [0, 1]: skipped
                      ("0.0005", [0.001, 0.3, 0.5, 0.7])):
        out = str(tmp_path / delta)
        assert run(["solve", "--delta", delta, "--family", "translate:1e-5,0",
                    "--out", out]) == EXIT_OK
        probes.clear()
        capsys.readouterr()
        assert run(["verify", out]) == EXIT_OK
        assert len(probes) == 3                # one batched call per sheet
        for pts in probes:
            assert sorted(set(pts[:, 0])) == xs
            assert pts.shape == (3 * len(xs), 2)
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("mean curvature (FD oracle)"))
        assert "PASS" in line and " at sheet " in line and "(x, y) = (" in line


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


def _coeffs(ny):
    # modes below ny / 2, whose cosine and sine the grid both carries
    return st.lists(st.tuples(st.integers(0, min(64, ny // 2 - 1)), FINITE, FINITE),
                    max_size=4)


FAMILIES = st.one_of(
    st.none(),
    st.builds(lambda cx, cy: f"translate:{cx!r},{cy!r}", FINITE, FINITE),
    st.builds(lambda beta: f"rotate:{beta!r}", FINITE))


@st.composite
def _valid_configs(draw):
    family = draw(FAMILIES)
    ny = 2 * draw(st.integers(4, 512))
    phis = {} if family else draw(st.dictionaries(st.sampled_from([1, 2, 3]), _coeffs(ny)))
    cfg = RunConfig(
        delta=draw(st.floats(min_value=1e-6, max_value=0.5, exclude_max=True)),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
        nx=draw(st.integers(8, 512)),
        ny=ny,
        tol=draw(POSITIVE),
        max_iter=draw(st.integers(1, 10_000)),
        r_guard=draw(st.none() | POSITIVE),
        family=family,
        phi_coeffs=phis,
        mesh_resolution=(draw(st.integers(2, 400)), draw(st.integers(3, 400))))
    cfg.validate()
    return cfg


@settings(max_examples=50, deadline=None)
@given(cfg=_valid_configs())
def test_config_echo_is_a_fixed_point(cfg):
    # config_used.txt writes `key = str(value)`; reading it back must give
    # the same echo
    again = RunConfig()
    apply_config_values(again, {k: str(v) for k, v in cfg.echo().items()})
    again.validate()
    assert again.echo() == cfg.echo()


def test_cli_import_loads_no_scipy():
    code = ("import sys, trijunction.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_names_every_config_key_with_its_default_and_every_exit_code():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    defaults = {**RunConfig().echo(), "out": RunConfig().out}
    for key in cli.CONFIG_KEYS:
        row = re.search(rf"^\| `{key}` \|(.*)$", readme, re.M)
        assert row is not None, key
        if defaults.get(key):
            assert f"`{defaults[key]}`" in row.group(1), key
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == set(range(6))
    for code in codes:
        assert f"`{code}`" in readme, code
