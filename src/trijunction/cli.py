"""Command-line entry point.

Subcommands:

* ``solve``        run the fixed-point solver and write all artifacts
* ``verify``       reload solve artifacts and re-run the independent oracles
* ``sweep``        run the solver across scaled copies of a boundary family
* ``export-mesh``  re-mesh stored solution fields into an OBJ file

Configuration is a flat ``key = value`` text file plus command-line
overrides; every artifact embeds the effective configuration in its header
for reproducibility.  Exit codes:

* 0  success
* 1  verification failure or unreadable artifacts
* 2  no convergence (``sweep``: no scale converged)
* 3  guard violation
* 4  bad configuration
* 5  converged, but the residual gates failed
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .curvature import DegenerateMetric, F_eval, G_eval
from .fields import (BoundaryTriple, Grid2D, TripleField, atomic_write_text,
                     load_field_csv, save_field_csv)
from .geometry import (CompatibilityViolation, CutoffProfile, frame_vectors,
                       mesh_surface, spine_from_traces, write_obj)
from .linear import mode_debug_csv, solve_linear_system
from .oracles import exact_family, fd_mean_curvature, junction_angle_check
from .picard import (GuardViolation, NoConvergence, SolveOptions, SolveReport,
                     report_summary, report_to_csv, residual_record, solve_nonlinear)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_GUARD = 3
EXIT_CONFIG = 4
EXIT_GATES = 5

RESIDUAL_GATES = {"conormal_sup": 1e-6, "trace_sum": 1e-10, "outer_trace": 1e-10}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    delta: float = 0.25
    alpha: float = 0.5
    nx: int = 48
    ny: int = 64
    tol: float = 1e-10
    max_iter: int = 50
    r_guard: float | None = None
    family: str | None = None
    phi_coeffs: dict[int, list[tuple[int, float, float]]] = field(default_factory=dict)
    out: str = "run"
    mesh_resolution: tuple[int, int] = (33, 64)

    def echo(self) -> dict:
        d = {
            "delta": self.delta, "alpha": self.alpha, "nx": self.nx, "ny": self.ny,
            "tol": self.tol, "max_iter": self.max_iter,
            "r_guard": "" if self.r_guard is None else self.r_guard,
            "family": self.family or "",
            "mesh_resolution": f"{self.mesh_resolution[0]}x{self.mesh_resolution[1]}",
        }
        for i in (1, 2, 3):
            if i in self.phi_coeffs:
                d[f"phi{i}"] = format_coeffs(self.phi_coeffs[i])
        return d

    def validate(self):
        if not 0.0 < self.delta < 0.5:
            raise ConfigError("delta must lie in (0, 1/2)")
        if self.ny % 2 != 0 or self.ny < 8:
            raise ConfigError("ny must be even and at least 8")
        if self.nx < 8:
            raise ConfigError("nx must be at least 8")
        if self.family is not None and self.phi_coeffs:
            raise ConfigError("give either a named family or phi coefficient lists, not both")
        for i, triples in self.phi_coeffs.items():
            for k, c, s in triples:
                if k < 0 or not (np.isfinite(c) and np.isfinite(s)):
                    raise ConfigError(f"bad phi{i} coefficient triple ({k},{c},{s})")


def parse_coeffs(text: str) -> list[tuple[int, float, float]]:
    """Parse 'k:cos:sin, k:cos:sin, ...' triples."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"coefficient triple must be k:cos:sin, got {chunk!r}")
        out.append((int(parts[0]), float(parts[1]), float(parts[2])))
    return out


def format_coeffs(triples: list[tuple[int, float, float]]) -> str:
    return ", ".join(f"{k}:{c!r}:{s!r}" for k, c, s in triples)


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def apply_config_values(cfg: RunConfig, raw: dict[str, str]):
    """Set ``cfg`` fields from ``key = value`` text (config file, flags, artifact header)."""
    try:
        for key, val in raw.items():
            if key in ("delta", "alpha", "tol"):
                setattr(cfg, key, float(val))
            elif key in ("nx", "ny", "max_iter"):
                setattr(cfg, key, int(val))
            elif key == "r_guard":
                cfg.r_guard = float(val) if val else None
            elif key == "family":
                cfg.family = val or None
            elif key in ("phi1", "phi2", "phi3"):
                cfg.phi_coeffs[int(key[-1])] = parse_coeffs(val)
            elif key == "out":
                cfg.out = val
            elif key == "mesh_resolution":
                a, _, b = val.partition("x")
                cfg.mesh_resolution = (int(a), int(b))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        apply_config_values(cfg, load_config_file(args.config))
    for key in ("delta", "alpha", "nx", "ny", "tol", "max_iter", "r_guard", "out"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    apply_config_values(cfg, {key: getattr(args, key) for key in
                              ("family", "phi1", "phi2", "phi3", "mesh_resolution")
                              if getattr(args, key, None)})
    cfg.validate()
    return cfg


def parse_family(text: str) -> tuple[str, object]:
    kind, _, rest = text.partition(":")
    if kind == "translate":
        try:
            cx, cy = (float(t) for t in rest.split(","))
        except ValueError as exc:
            raise ConfigError(f"translate family needs cx,cy, got {rest!r}") from exc
        return kind, (cx, cy)
    if kind == "rotate":
        try:
            return kind, float(rest)
        except ValueError as exc:
            raise ConfigError(f"rotate family needs beta, got {rest!r}") from exc
    raise ConfigError(f"unknown family {kind!r} (use translate:cx,cy or rotate:beta)")


def boundary_from_config(cfg: RunConfig, grid: Grid2D, cutoff: CutoffProfile,
                         scale: float = 1.0) -> BoundaryTriple:
    if cfg.family:
        kind, value = parse_family(cfg.family)
        if kind == "translate":
            value = (value[0] * scale, value[1] * scale)
        else:
            value = value * scale
        phi, _ = exact_family(kind, value, grid, cutoff)
        return phi
    rows = np.zeros((3, grid.ny))
    y = grid.y
    for i, triples in cfg.phi_coeffs.items():
        for k, c, s in triples:
            rows[i - 1] += c * np.cos(2 * np.pi * k * y) + s * np.sin(2 * np.pi * k * y)
    return BoundaryTriple(grid.ny, rows * scale)


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------

def _boundary_csv(phi: BoundaryTriple, header: dict) -> str:
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append("ny")
    lines.append(str(phi.ny))
    for row in phi.values:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _load_boundary_csv(path: str) -> BoundaryTriple:
    rows = []
    ny = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ny is None:
                if line != "ny":
                    raise ValueError(f"unexpected boundary CSV header {line!r}")
                ny = -1
            elif ny == -1:
                ny = int(line)
            else:
                rows.append([float(t) for t in line.split(",")])
    return BoundaryTriple(ny, np.array(rows))


def _residuals_csv(rec, header: dict) -> str:
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append("name,value")
    for name in ("laplace", "boundary", "conormal_sup", "outer_trace", "trace_sum"):
        lines.append(f"{name},{getattr(rec, name):.17g}")
    return "\n".join(lines) + "\n"


def _load_residuals_csv(path: str) -> dict[str, float]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "name,value":
                continue
            name, _, val = line.partition(",")
            out[name] = float(val)
    return out


def _spine_csv(u: TripleField, header: dict) -> str:
    spine = spine_from_traces(u.traces(), tol=np.inf)
    vals = spine.values()
    ys = spectral.fourier_nodes(u.grid.ny)
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append("y,v1,v2")
    for y, (v1, v2) in zip(ys, vals):
        lines.append(f"{y:.17g},{v1:.17g},{v2:.17g}")
    return "\n".join(lines) + "\n"


def write_artifacts(out: str, cfg: RunConfig, u: TripleField, phi: BoundaryTriple,
                    report: SolveReport):
    os.makedirs(out, exist_ok=True)
    echo = cfg.echo()
    for i in (1, 2, 3):
        save_field_csv(u.sheet(i), os.path.join(out, f"u{i}.csv"), cfg.delta, echo)
    atomic_write_text(os.path.join(out, "phi.csv"), _boundary_csv(phi, echo))
    atomic_write_text(os.path.join(out, "report.csv"), report_to_csv(report, echo))
    atomic_write_text(os.path.join(out, "summary.txt"),
                      report_summary(report) + "\nconfig:\n"
                      + "".join(f"  {k} = {v}\n" for k, v in echo.items()))
    atomic_write_text(os.path.join(out, "residuals.csv"),
                      _residuals_csv(report.final_residuals, echo))
    atomic_write_text(os.path.join(out, "spine.csv"), _spine_csv(u, echo))
    atomic_write_text(os.path.join(out, "config_used.txt"),
                      "".join(f"{k} = {v}\n" for k, v in echo.items()))

    cutoff = CutoffProfile(cfg.delta)
    header = dict(echo)
    r = report.final_residuals
    header["residual_laplace"] = f"{r.laplace:.6e}"
    header["residual_conormal"] = f"{r.conormal_sup:.6e}"
    mesh = mesh_surface(u, cfg.mesh_resolution, cutoff, header=header)
    write_obj(mesh, os.path.join(out, "surface.obj"))

    try:
        debug: list = []
        solve_linear_system(F_eval(u, cutoff), G_eval(u), phi, debug=debug)
        atomic_write_text(os.path.join(out, "modes.csv"), mode_debug_csv(debug))
    except (DegenerateMetric, CompatibilityViolation):
        pass        # defect fields are not evaluable on an out-of-regime iterate


def load_artifacts(path: str) -> tuple[RunConfig, TripleField, BoundaryTriple, dict]:
    fields = []
    delta = None
    header: dict = {}
    for i in (1, 2, 3):
        f, delta, header = load_field_csv(os.path.join(path, f"u{i}.csv"))
        fields.append(f)
    u = TripleField(tuple(fields))
    phi = _load_boundary_csv(os.path.join(path, "phi.csv"))
    cfg = RunConfig(delta=delta)
    apply_config_values(cfg, header)
    stored = _load_residuals_csv(os.path.join(path, "residuals.csv"))
    return cfg, u, phi, stored


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        grid = Grid2D(cfg.nx, cfg.ny)
        cutoff = CutoffProfile(cfg.delta)
        phi = boundary_from_config(cfg, grid, cutoff)
        opts = SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter, r_guard=cfg.r_guard,
                            alpha=cfg.alpha)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        u, report = solve_nonlinear(phi, opts, grid, cutoff)
    except GuardViolation as exc:
        write_artifacts(cfg.out, cfg, exc.field, phi, exc.report)
        print(f"guard violation: {exc}", file=sys.stderr)
        print(report_summary(exc.report), file=sys.stderr)
        return EXIT_GUARD
    except NoConvergence as exc:
        write_artifacts(cfg.out, cfg, exc.field, phi, exc.report)
        print(f"no convergence: {exc}", file=sys.stderr)
        print(report_summary(exc.report), file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    write_artifacts(cfg.out, cfg, u, phi, report)
    print(report_summary(report))
    gates_ok = all(getattr(report.final_residuals, name) <= bound
                   for name, bound in RESIDUAL_GATES.items())
    if not gates_ok:
        print("converged, but residual gates failed", file=sys.stderr)
        return EXIT_GATES
    print(f"artifacts written to {cfg.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg, u, phi, stored = load_artifacts(args.artifacts)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifacts: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    cutoff = CutoffProfile(cfg.delta)
    frame = frame_vectors()

    results: list[tuple[str, bool, str]] = []

    h = 1e-3
    points = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.1, 0.45, 0.8)]
    worst = max(abs(fd_mean_curvature(i, u, pt, h, cutoff, frame))
                for i in (1, 2, 3) for pt in points)
    results.append(("mean curvature (FD oracle)", worst <= 1e-4,
                    f"max |H| = {worst:.3e} (h = {h})"))

    angles = junction_angle_check(u, frame)
    results.append(("junction angles", angles.max_deviation <= 1e-4,
                    f"max deviation from 120 deg = {angles.max_deviation:.3e} rad"))

    try:
        rec = residual_record(u, phi, cutoff, frame)
        results.append(("junction conditions", rec.boundary <= 1e-6,
                        f"defect = {rec.boundary:.3e}"))
        results.append(("trace sum", rec.trace_sum <= 1e-10, f"{rec.trace_sum:.3e}"))
        results.append(("outer trace", rec.outer_trace <= 1e-10,
                        f"{rec.outer_trace:.3e}"))
        stored_ok = all(
            abs(stored.get(name, np.nan) - getattr(rec, name))
            <= 1e-12 + 1e-9 * abs(getattr(rec, name))
            for name in ("laplace", "boundary", "conormal_sup", "outer_trace",
                         "trace_sum"))
        results.append(("stored residual match", stored_ok,
                        "recomputed residuals reproduce stored values"))
    except DegenerateMetric as exc:
        results.append(("junction conditions", False,
                        f"field outside the embeddable regime: {exc}"))

    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_sweep(args) -> int:
    try:
        cfg = build_config(args)
        scales = [float(t) for t in args.scales.split(",") if t.strip()]
        if not scales:
            raise ConfigError("empty scale list")
        if not cfg.family and not cfg.phi_coeffs:
            raise ConfigError("sweep needs a boundary family or phi coefficients")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        grid = Grid2D(cfg.nx, cfg.ny)
        cutoff = CutoffProfile(cfg.delta)
        opts = SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter, r_guard=cfg.r_guard,
                            alpha=cfg.alpha)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = ["scale,status,iterations,final_residual,last_contraction_ratio"]
    iter_counts = []
    for scale in scales:
        try:
            phi = boundary_from_config(cfg, grid, cutoff, scale=scale)
            u, report = solve_nonlinear(phi, opts, grid, cutoff)
            res = max(report.final_residuals.laplace, report.final_residuals.boundary)
            ratio = report.contraction_ratios[-1] if report.contraction_ratios else float("nan")
            rows.append(f"{scale},converged,{report.iterations},{res:.6e},{ratio:.6e}")
            iter_counts.append((scale, report.iterations))
        except GuardViolation as exc:
            rows.append(f"{scale},guard_violation,{exc.report.iterations},,")
        except NoConvergence as exc:
            rows.append(f"{scale},no_convergence,{exc.report.iterations},"
                        f"{exc.report.update_norms[-1]:.6e},")
        except ValueError as exc:
            rows.append(f"{scale},error,,,")
            print(f"scale {scale}: {exc}", file=sys.stderr)

    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "sweep.csv")
    atomic_write_text(path, "\n".join(rows) + "\n")
    print("\n".join(rows))
    if len(iter_counts) >= 2:
        ordered = sorted(iter_counts)
        monotone = all(a[1] <= b[1] for a, b in zip(ordered, ordered[1:]))
        print(f"iterations vs scale monotone nondecreasing: {monotone}")
    print(f"sweep written to {path}")
    return EXIT_OK if iter_counts else EXIT_NO_CONVERGENCE


def cmd_export_mesh(args) -> int:
    try:
        cfg, u, phi, stored = load_artifacts(args.artifacts)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifacts: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    try:
        a, _, b = args.resolution.partition("x")
        resolution = (int(a), int(b))
    except ValueError:
        print(f"bad resolution {args.resolution!r}", file=sys.stderr)
        return EXIT_CONFIG
    cutoff = CutoffProfile(cfg.delta)
    cfg.mesh_resolution = resolution
    header = cfg.echo()
    header.update({f"residual_{k}": f"{v:.6e}" for k, v in stored.items()})
    mesh = mesh_surface(u, resolution, cutoff, header=header)
    out = args.out or os.path.join(args.artifacts, "surface.obj")
    write_obj(mesh, out)
    print(f"mesh written to {out}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--r-guard", dest="r_guard", type=float)
    p.add_argument("--family", help="translate:cx,cy or rotate:beta")
    p.add_argument("--phi1", help="boundary modes for sheet 1 as k:cos:sin,...")
    p.add_argument("--phi2")
    p.add_argument("--phi3")
    p.add_argument("--out", help="output directory")
    p.add_argument("--mesh-resolution", dest="mesh_resolution", help="e.g. 33x64")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trijunction",
        description="Stationary perturbations of the triple-junction surface: "
                    "solve, verify, sweep, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the fixed-point solver")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="re-run oracles on solve artifacts")
    p.add_argument("artifacts", help="directory written by solve")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="solve across scaled boundary data")
    _add_config_flags(p)
    p.add_argument("--scales", required=True, help="comma-separated scale factors")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("export-mesh", help="write an OBJ mesh from stored fields")
    p.add_argument("artifacts")
    p.add_argument("--resolution", default="33x64")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_mesh)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
