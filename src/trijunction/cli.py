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
* 4  bad configuration or usage, or artifacts that cannot be written
* 5  converged, but the residual gates failed
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .curvature import DegenerateMetric
from .fields import BoundaryTriple, Grid2D, TripleField
from .geometry import (CompatibilityViolation, CutoffProfile, SurfaceMesh,
                       check_mesh_resolution, mesh_surface, spine_samples)
from .oracles import exact_family, fd_mean_curvature, junction_angle_check
from .picard import (GuardViolation, NoConvergence, ResidualRecord, SolveFailure, SolveOptions,
                     SolveReport, _trace_errors, residual_record, solve_nonlinear)
from .spectral import cheb_coefficients

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_GUARD = 3
EXIT_CONFIG = 4
EXIT_GATES = 5

# Every certificate of a solution once, in the order verify prints its rows:
# its verify row label (None: no row), its bound (None: reported, not gated),
# the commands it gates, and what it is independent of.  Its name is the
# ResidualRecord field it reads, or the oracle or check cmd_verify runs.
CERTIFICATES = {
    "fd_mean_curvature": ("mean curvature (FD oracle)", 1e-4, ("verify",), "the jet and H"),
    "junction_angles": ("junction angles", 1e-4, ("verify",), "F, but not G: it reads _conormals"),
    "laplace": (None, None, (), "nothing: the solve's own record"),
    "boundary": ("junction conditions", 1e-6, ("verify",), "the solve: it recomputes"),
    "conormal_sup": (None, 1e-6, ("solve",), "nothing: the solve's own record"),
    "trace_sum": ("trace sum", 1e-10, ("solve", "verify"), "every derivative: values only"),
    "outer_trace": ("outer trace", 1e-10, ("solve", "verify"), "every derivative: values only"),
    "stored_match": ("stored residual match", 1e-9, ("verify",), "the solve: it recomputes"),
}
RESIDUAL_GATES = {name: bound for name, (_, bound, gates, _) in CERTIFICATES.items()
                  if "solve" in gates}

# verify's finite-difference probes: x in PROBE_X plus the cutoff joins
# delta, 2 delta, where the solution is least smooth, times y in PROBE_Y; a
# probe whose stencil (step FD_STEP) leaves [0, 1] is skipped
PROBE_X = (0.3, 0.5, 0.7)
PROBE_Y = (0.1, 0.45, 0.8)
FD_STEP = 1e-3

# the exit code and the stderr label of each way a solve can fail
SOLVE_FAILURES = {GuardViolation: (EXIT_GUARD, "guard violation"),
                  NoConvergence: (EXIT_NO_CONVERGENCE, "no convergence")}


# The early stops of a command, each with its exit code and stderr label:
# main() prints "label: message" and returns the code.
class ConfigError(ValueError):
    code, label = EXIT_CONFIG, "config error"


class UnreadableArtifacts(Exception):
    code, label = EXIT_VERIFY_FAIL, "cannot load artifacts"


class UnwritableArtifacts(Exception):
    code, label = EXIT_CONFIG, "cannot write artifacts"


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: argparse's exit 2 is "no convergence" here."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


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


def parse_resolution(text: str) -> tuple[int, int]:
    """An 'AxB' mesh resolution; :func:`check_mesh_resolution` bounds it."""
    a, _, b = text.partition("x")
    return int(a), int(b)


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


# Every config key once, in the order the artifacts echo them: the parser of
# its text (a config file line, a flag and an artifact header are all read
# as text), its echo writer (None: not echoed) and its flag help.  An unset
# r_guard or family is None, read from and echoed as empty text; phiN is
# RunConfig.phi_coeffs[N], echoed only when given.
CONFIG_KEYS = {
    "delta": (float, str, "cutoff scale, in (0, 1/2)"),
    "alpha": (float, str, "Hoelder proxy exponent, in (0, 1]"),
    "nx": (int, str, "Chebyshev-Lobatto points in x, at least 8"),
    "ny": (int, str, "equispaced points in y, even and at least 8"),
    "tol": (float, str, "update-norm tolerance"),
    "max_iter": (int, str, "most Picard iterations"),
    "r_guard": (lambda text: float(text) if text else None, str,
                "trust radius (empty: delta/10)"),
    "family": (lambda text: text or None, str, "translate:cx,cy or rotate:beta"),
    "mesh_resolution": (parse_resolution, lambda value: "%dx%d" % value, "e.g. 33x64"),
    **{f"phi{i}": (parse_coeffs, format_coeffs, f"boundary modes of sheet {i} as k:cos:sin,...")
       for i in (1, 2, 3)},
    "out": (str, None, "output directory"),
}


@dataclass
class RunConfig:
    # the solver knobs default to the defaults of the types setup() builds
    delta: float = CutoffProfile.delta
    alpha: float = SolveOptions.alpha
    nx: int = 48
    ny: int = 64
    tol: float = SolveOptions.tol
    max_iter: int = SolveOptions.max_iter
    r_guard: float | None = SolveOptions.r_guard
    family: str | None = None
    phi_coeffs: dict[int, list[tuple[int, float, float]]] = field(default_factory=dict)
    out: str = "run"
    mesh_resolution: tuple[int, int] = (33, 64)
    # (kind, value) of the named family, set by validate()
    parsed_family: tuple[str, object] | None = field(default=None, init=False, repr=False)

    def echo(self) -> dict[str, str]:
        values = {**vars(self), **{f"phi{i}": c for i, c in self.phi_coeffs.items()}}
        return {key: "" if values[key] is None else write(values[key])
                for key, (_, write, _) in CONFIG_KEYS.items() if write and key in values}

    def validate(self):
        """The checks no solver type owns, each raising ``ValueError``;
        :meth:`setup` runs the others."""
        if self.family is not None and self.phi_coeffs:
            raise ConfigError("give either a named family or phi coefficient lists, not both")
        for i, triples in self.phi_coeffs.items():
            for k, c, s in triples:
                if k < 0 or not (np.isfinite(c) and np.isfinite(s)):
                    raise ConfigError(f"bad phi{i} coefficient triple ({k},{c},{s})")
                if k > self.ny // 2 or (k == self.ny // 2 and s != 0.0):
                    raise ConfigError(
                        f"phi{i} triple {k}:{c!r}:{s!r} is not carried by ny = {self.ny} "
                        f"points: modes above {self.ny // 2} alias to lower ones, and "
                        f"the sine of mode {self.ny // 2} vanishes at every node")
        check_mesh_resolution(self.mesh_resolution)
        self.parsed_family = parse_family(self.family) if self.family else None

    def setup(self) -> tuple[Grid2D, CutoffProfile, SolveOptions]:
        """The grid, cutoff and solver options of this run; a value they
        reject raises ``ValueError``."""
        return (Grid2D(self.nx, self.ny), CutoffProfile(self.delta),
                SolveOptions(tol=self.tol, max_iter=self.max_iter,
                             r_guard=self.r_guard, alpha=self.alpha))


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
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            value = CONFIG_KEYS[key][0](val)
            if key.startswith("phi"):
                cfg.phi_coeffs[int(key[3:])] = value
            else:
                setattr(cfg, key, value)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file, then the flags given, each read as a ``key = value`` line."""
    cfg = RunConfig()
    if args.config:
        apply_config_values(cfg, load_config_file(args.config))
    apply_config_values(cfg, {key: getattr(args, key) for key in CONFIG_KEYS
                              if getattr(args, key) is not None})
    cfg.validate()
    return cfg


def make_out_dir(path: str):
    """Create the output directory before any solve runs, so that an unusable
    ``--out`` is a :class:`ConfigError`, not a failure after the solve."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from None


def boundary_from_config(cfg: RunConfig, grid: Grid2D, cutoff: CutoffProfile,
                         scale: float = 1.0) -> BoundaryTriple:
    if cfg.parsed_family:
        kind, value = cfg.parsed_family
        phi, _ = exact_family(kind, np.multiply(value, scale), grid, cutoff)
        return phi
    rows = np.zeros((3, grid.ny))
    y = grid.y
    # a sum beyond the float range is left to BoundaryTriple, which rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, triples in cfg.phi_coeffs.items():
            for k, c, s in triples:
                rows[i - 1] += c * np.cos(2 * np.pi * k * y) + s * np.sin(2 * np.pi * k * y)
        return BoundaryTriple(grid.ny, rows * scale)


# ---------------------------------------------------------------------------
# Artifact I/O: the one place that formats, writes and reads run files
# ---------------------------------------------------------------------------

RESIDUAL_NAMES = tuple(f.name for f in fields(ResidualRecord))


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(columns: str, row_format: str, rows, header: dict | None = None,
             preamble: tuple[str, ...] = ()) -> str:
    """The text of one CSV artifact: a ``# key = value`` comment per header
    entry, the column line, any ``preamble`` lines, then one ``row_format``
    line per row, all rows formatted by one %-format."""
    lines = [f"# {k} = {v}" for k, v in (header or {}).items()]
    lines.append(columns)
    lines.extend(preamble)
    rows = list(rows)
    flat = tuple(v for row in rows for v in row)
    return "\n".join(lines) + "\n" + (row_format + "\n") * len(rows) % flat


def read_csv(path: str) -> tuple[dict[str, str], list[str]]:
    """Inverse of :func:`csv_text` up to parsing: the header dict and the other
    non-blank lines (column line first), stripped."""
    header: dict[str, str] = {}
    lines: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    header[key.strip()] = val.strip()
            elif line:
                lines.append(line)
    return header, lines


def table_csv(columns: str, size: str, table: np.ndarray, header: dict | None = None) -> str:
    """A "column line, size line, table" artifact: ``u{i}.csv`` (``nx,ny,delta``)
    or ``phi.csv`` (``ny``), the table in ``%.17g``, so reloading is bit-exact."""
    return csv_text(columns, ",".join(["%.17g"] * table.shape[-1]), table.tolist(), header,
                    (size,))


def read_table(path: str, columns: str) -> tuple[dict[str, str], dict[str, str], np.ndarray]:
    """Inverse of :func:`table_csv`: the header, the size line by column name
    and the table, whose trailing dimensions must be the size line's nx, ny."""
    header, lines = read_csv(path)
    names = columns.split(",")
    size = lines[1].split(",") if lines[:1] == [columns] and len(lines) > 1 else []
    if len(size) != len(names):
        raise ValueError(f"malformed {path}: no {columns!r} size line")
    size = dict(zip(names, size))
    table = np.array([line.split(",") for line in lines[2:]], dtype=float)
    dims = tuple(int(size[k]) for k in ("nx", "ny") if k in size)
    if table.shape[-len(dims):] != dims:
        raise ValueError(f"{path} holds a {table.shape} table, its size line says {dims}")
    return header, size, table


def report_to_csv(report: SolveReport, header: dict | None = None) -> str:
    ratios = [""] + [f"{r:.17g}" for r in report.contraction_ratios]
    rows = [(j + 1, upd, ratios[j] if j < len(ratios) else "")
            for j, upd in enumerate(report.update_norms)]
    return csv_text("iteration,update_norm,contraction_ratio", "%d,%.17g,%s", rows, header)


def report_summary(report: SolveReport) -> str:
    r = report.final_residuals
    g = report.guards
    lines = [
        "fixed-point solve summary",
        f"  converged          : {report.converged}",
        f"  iterations         : {report.iterations}",
        f"  last update norm   : {report.update_norms[-1]:.6e}" if report.update_norms
        else "  last update norm   : n/a",
        f"  laplace residual   : {r.laplace:.6e}",
        f"  junction residual  : {r.boundary:.6e}",
        f"  conormal |S|_inf   : {r.conormal_sup:.6e}",
        f"  outer trace error  : {r.outer_trace:.6e}",
        f"  trace sum error    : {r.trace_sum:.6e}",
        f"  norm proxy         : {g.norm_proxy:.6e} (guard {g.r_guard:.6e}, "
        f"within: {g.within_guard})",
        f"  embed margin       : {g.embed_margin:.6e}",
        f"  smallness flag     : {g.smallness_ok}",
    ]
    return "\n".join(lines) + "\n"


def spectral_record_csv(u: TripleField, header: dict) -> str:
    """``modes.csv``: per sheet, the field's Fourier then Chebyshev coefficient
    sizes.  Mode k reads max over x of |X_k| w_k / ny, X the rfft along y and
    w_k = 2, or 1 at k = 0 and the Nyquist mode (its cos/sin coefficients'
    size); degree n reads max over y of |a_n|."""
    k, ny = np.arange(u.grid.ny // 2 + 1), u.grid.ny
    weight = np.where((k == 0) | (2 * k == ny), 1.0, 2.0) / ny
    tables = (("fourier", np.abs(np.fft.rfft(u.values)).max(axis=-2) * weight),
              ("chebyshev", np.abs(cheb_coefficients(u.values)).max(axis=-1)))
    rows = [(i, basis, n, size) for i in (1, 2, 3) for basis, table in tables
            for n, size in enumerate(table[i - 1].tolist())]
    return csv_text("sheet,basis,mode,max_abs", "%d,%s,%d,%.6e", rows, header)


def mesh_to_obj(mesh: SurfaceMesh, header: dict) -> str:
    """Wavefront OBJ text: a comment line per header entry, the vertices, then
    one face group per sheet.

    Coordinates are the unrolled chart (p1, p2, y); the ambient R^2 x S^1
    has no isometric embedding into R^3, so the y axis is exported as-is.
    Each block is one %-format over all its numbers.
    """
    parts = ["# triple-junction surface mesh (unrolled coordinates p1 p2 y)\n"]
    parts += [f"# {key} = {val}\n" for key, val in header.items()]
    parts.append("v %.12g %.12g %.12g\n" * len(mesh.vertices)
                 % tuple(mesh.vertices.ravel().tolist()))
    for i in (1, 2, 3):
        faces = mesh.faces[mesh.face_sheet == i] + 1
        parts.append(f"g sheet{i}\n" + "f %d %d %d\n" * len(faces)
                     % tuple(faces.ravel().tolist()))
    return "".join(parts)


def _mesh_header(cfg: RunConfig, residuals: dict[str, float]) -> dict:
    """The OBJ header: the config echo and ``residual_<name>`` for every residual."""
    header = cfg.echo()
    header.update({f"residual_{name}": f"{residuals.get(name, np.nan):.6e}"
                   for name in RESIDUAL_NAMES})
    return header


def write_artifacts(out: str, cfg: RunConfig, u: TripleField, phi: BoundaryTriple,
                    report: SolveReport):
    """Write every artifact of a run.  Every text is formatted before the
    first file is written, and an earlier run's files are removed before it,
    so a failed write mixes no two runs."""
    echo = cfg.echo()
    config = [f"{k} = {v}\n" for k, v in echo.items()]
    rec = report.final_residuals
    size = f"{u.grid.nx},{u.grid.ny},{cfg.delta!r}"
    spine = np.column_stack([u.grid.y, *spine_samples(u.traces())])
    mesh = mesh_surface(u, cfg.mesh_resolution, CutoffProfile(cfg.delta))
    texts = {f"u{i}.csv": table_csv("nx,ny,delta", size, values, echo)
             for i, values in enumerate(u.values, 1)}
    texts.update({
        "phi.csv": table_csv("ny", str(phi.ny), phi.values, echo),
        "report.csv": report_to_csv(report, echo),
        "summary.txt": report_summary(report) + "\nconfig:\n"
                       + "".join("  " + line for line in config),
        "residuals.csv": csv_text("name,value", "%s,%.17g",
                                  [(name, getattr(rec, name)) for name in RESIDUAL_NAMES], echo),
        "spine.csv": csv_text("y,v1,v2", "%.17g,%.17g,%.17g", spine.tolist(), echo),
        "config_used.txt": "".join(config),
        "surface.obj": mesh_to_obj(mesh, _mesh_header(cfg, vars(rec))),
        "modes.csv": spectral_record_csv(u, echo),
    })
    paths = [os.path.join(out, name) for name in texts]
    for path in filter(os.path.lexists, paths):
        os.remove(path)
    for path, text in zip(paths, texts.values()):
        atomic_write_text(path, text)


def load_artifacts(path: str) -> tuple[RunConfig, TripleField, BoundaryTriple, dict]:
    """The stored config, fields, boundary data and residuals of a run; raises
    :class:`UnreadableArtifacts` for artifacts that cannot be read or do not
    fit together."""
    try:
        sheets = [read_table(os.path.join(path, f"u{i}.csv"), "nx,ny,delta") for i in (1, 2, 3)]
        header, size, values = sheets[-1]
        u = TripleField(Grid2D(*values.shape), [table for _, _, table in sheets])
        _, phi_size, rows = read_table(os.path.join(path, "phi.csv"), "ny")
        phi = BoundaryTriple(int(phi_size["ny"]), rows)
        if phi.ny != u.grid.ny:
            raise ValueError(f"phi.csv has ny = {phi.ny}, the fields ny = {u.grid.ny}")
        cfg = RunConfig(delta=float(size["delta"]))
        apply_config_values(cfg, header)
        CutoffProfile(cfg.delta)            # a delta the cutoff rejects is unusable
        _, lines = read_csv(os.path.join(path, "residuals.csv"))
        stored = {name: float(val) for name, _, val in
                  (line.partition(",") for line in lines if line != "name,value")}
    except (OSError, ValueError) as exc:
        raise UnreadableArtifacts(exc) from None
    return cfg, u, phi, stored


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def check_certificates(command: str, found: dict) -> list[tuple[str, bool, str]]:
    """(row label, verdict, text) of each certificate ``command`` gates, in table
    order; ``found`` maps a name to its (value, text), or to None for no row."""
    return [(label, found[name][0] <= bound, found[name][1])
            for name, (label, bound, gates, _) in CERTIFICATES.items()
            if command in gates and found[name] is not None]


def cmd_solve(args) -> int:
    try:
        cfg = build_config(args)
        grid, cutoff, opts = cfg.setup()
        phi = boundary_from_config(cfg, grid, cutoff)
        make_out_dir(cfg.out)
    except ValueError as exc:           # a value the checks or exact_family reject
        raise ConfigError(exc) from None
    failure = None
    try:
        u, report = solve_nonlinear(phi, opts, grid, cutoff)
    except SolveFailure as exc:
        u, report, failure = exc.field, exc.report, exc
    try:
        write_artifacts(cfg.out, cfg, u, phi, report)
    except OSError as exc:
        raise UnwritableArtifacts(exc) from None
    if failure is not None:
        code, label = SOLVE_FAILURES[type(failure)]
        print(f"{label}: {failure}", file=sys.stderr)
        print(report_summary(report), file=sys.stderr)
        return code
    print(report_summary(report))
    found = {name: (value, "") for name, value in vars(report.final_residuals).items()}
    if not all(ok for _, ok, _ in check_certificates("solve", found)):
        print("converged, but residual gates failed", file=sys.stderr)
        return EXIT_GATES
    print(f"artifacts written to {cfg.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, u, phi, stored = load_artifacts(args.artifacts)
    cutoff = CutoffProfile(cfg.delta)
    points = np.array([(x, y) for x in sorted({*PROBE_X, cfg.delta, 2 * cfg.delta})
                       for y in PROBE_Y if 2 * FD_STEP <= x <= 1.0 - 2 * FD_STEP])
    found = {"stored_match": None}      # certificate name: (value, row text)
    # a field far out of the regime may overflow: its inf or NaN certificates
    # fail their bounds, without numpy warnings
    with np.errstate(all="ignore"):
        H = np.abs([fd_mean_curvature(i, u, points, FD_STEP, cutoff) for i in (1, 2, 3)])
        if np.isfinite(H).all():
            i, j = np.unravel_index(np.argmax(H), H.shape)
            found["fd_mean_curvature"] = H[i, j], (
                f"max |H| = {H[i, j]:.3e} (h = {FD_STEP}) at sheet {i + 1}, "
                f"(x, y) = ({points[j, 0]:.6g}, {points[j, 1]:.6g})")
        else:       # argmax would name the first NaN, a location that says nothing
            found["fd_mean_curvature"] = np.nan, (
                f"|H| is non-finite at {np.count_nonzero(~np.isfinite(H))} of "
                f"{H.size} probes (h = {FD_STEP})")
        try:
            dev = junction_angle_check(u).max_deviation
            found["junction_angles"] = dev, f"max deviation from 120 deg = {dev:.3e} rad"
        except CompatibilityViolation as exc:
            found["junction_angles"] = np.nan, f"no common spine: {exc}"
        try:
            rec = residual_record(u, phi, cutoff)
            found["boundary"] = rec.boundary, f"defect = {rec.boundary:.3e}"
            # in units of 1e-3 + |recomputed|, 1e-9 is 1e-12 absolute plus 1e-9 relative
            worst = np.max([abs(stored.get(name, np.nan) - value) / (1e-3 + abs(value))
                            for name, value in vars(rec).items()])
            found["stored_match"] = worst, "recomputed residuals reproduce stored values"
        except DegenerateMetric as exc:
            found["boundary"] = np.nan, f"field outside the embeddable regime: {exc}"
        except CompatibilityViolation as exc:
            found["boundary"] = np.nan, f"no common spine: {exc}"
        # the trace rows read the values alone, so every artifact set gets them
        for name, value in zip(("outer_trace", "trace_sum"), _trace_errors(u, phi)):
            found[name] = value, f"{value:.3e}"
    rows = check_certificates("verify", found)
    width = max(len(label) for label, _, _ in rows)
    for label, ok, text in rows:
        print(f"{label:<{width}}  {'PASS' if ok else 'FAIL'}  {text}")
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_VERIFY_FAIL


def cmd_sweep(args) -> int:
    try:
        cfg = build_config(args)
        scales = [float(t) for t in args.scales.split(",") if t.strip()]
        if not scales or not np.all(np.isfinite(scales)):
            raise ConfigError(f"scales must be a non-empty list of finite numbers, "
                              f"got {args.scales!r}")
        if not cfg.family and not cfg.phi_coeffs:
            raise ConfigError("sweep needs a boundary family or phi coefficients")
        grid, cutoff, opts = cfg.setup()
        make_out_dir(cfg.out)
    except ValueError as exc:           # a bad scale, or a value the checks reject
        raise ConfigError(exc) from None
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

    print("\n".join(rows))
    path = os.path.join(cfg.out, "sweep.csv")
    try:
        atomic_write_text(path, "\n".join(rows) + "\n")
    except OSError as exc:
        raise UnwritableArtifacts(exc) from None
    if len(iter_counts) >= 2:
        ordered = sorted(iter_counts)
        monotone = all(a[1] <= b[1] for a, b in zip(ordered, ordered[1:]))
        print(f"iterations vs scale monotone nondecreasing: {monotone}")
    print(f"sweep written to {path}")
    return EXIT_OK if iter_counts else EXIT_NO_CONVERGENCE


def cmd_export_mesh(args) -> int:
    cfg, u, _, stored = load_artifacts(args.artifacts)
    try:
        resolution = parse_resolution(args.resolution)
        check_mesh_resolution(resolution)
    except ValueError as exc:
        raise ConfigError(f"bad resolution {args.resolution!r}: {exc}") from None
    out = args.out or os.path.join(args.artifacts, "surface.obj")
    if os.path.isdir(out):
        raise ConfigError(f"output path {out!r} is a directory")
    make_out_dir(os.path.dirname(os.path.abspath(out)))
    cfg.mesh_resolution = resolution
    mesh = mesh_surface(u, resolution, CutoffProfile(cfg.delta))
    try:
        atomic_write_text(out, mesh_to_obj(mesh, _mesh_header(cfg, stored)))
    except OSError as exc:
        raise UnwritableArtifacts(exc) from None
    print(f"mesh written to {out}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser):
    # every flag is a string that apply_config_values parses like a config line
    p.add_argument("--config", help="flat key = value configuration file")
    for key, (_, _, text) in CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)


def main(argv=None) -> int:
    parser = _Parser(
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

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, UnreadableArtifacts, UnwritableArtifacts) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
