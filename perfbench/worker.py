"""Child-process side of the benchmark; ``run.py`` starts it in a fresh interpreter.

Modes:

* ``setup``    import trijunction, build the grid, cutoff and frame for one
               given input, run the first (cold-cache) solve, and exit; the
               caller times the whole process.
* ``library``  set up once, then run closed-loop ``solve_nonlinear`` ops for
               a fixed wall time, gate every op, time ``setup`` processes
               spread over the run, and print one JSON result.  With
               ``--trace 1`` every other op is traced.
* ``cli``      run ``trijunction.cli.main`` with the tracer installed and write
               the spans to a file (traced CLI round trips).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

# ``setup`` processes are timed, so the module level imports only what they need
import inputs
from trijunction import geometry, oracles, picard
from trijunction.fields import Grid2D

HERE = os.path.dirname(os.path.abspath(__file__))
DELTA = 0.25
N_INPUTS = 16
FD_STEP = 1e-3
FD_BOUND = 1e-4
ANGLE_BOUND = 1e-4
# the probe points of ``trijunction verify``
PROBES = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.1, 0.45, 0.8)]


class Problem:
    """Everything an op needs that is built once per process."""

    def __init__(self, nx: int, ny: int):
        self.grid = Grid2D(nx, ny)
        self.cutoff = geometry.CutoffProfile(DELTA)
        self.frame = geometry.frame_vectors()
        self.opts = picard.SolveOptions()


def solve_op(prob: Problem, phi):
    """One op: a ``solve_nonlinear`` call.  Returns (seconds, (u, report) or error)."""
    t0 = perf_counter()
    try:
        out = picard.solve_nonlinear(phi, prob.opts, prob.grid, prob.cutoff, prob.frame)
    except Exception as exc:            # any raise is a failed op, not a crash
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out


def check_op(prob: Problem, result) -> str | None:
    """Gate one op's output; return the reason it failed, or None."""
    if isinstance(result, str):
        return result
    from trijunction.cli import RESIDUAL_GATES
    u, report = result
    if not report.converged:
        return "not converged"
    for name, bound in RESIDUAL_GATES.items():
        value = getattr(report.final_residuals, name)
        if not value <= bound:
            return f"residual {name} = {value:.3e} > {bound:.0e}"
    try:
        worst = max(abs(oracles.fd_mean_curvature(i, u, pt, FD_STEP, prob.cutoff, prob.frame))
                    for i in (1, 2, 3) for pt in PROBES)
        dev = oracles.junction_angle_check(u, prob.frame).max_deviation
    except Exception as exc:            # an oracle that cannot evaluate the output fails it
        return f"check raised {type(exc).__name__}: {exc}"
    if not worst <= FD_BOUND:
        return f"FD mean curvature {worst:.3e} > {FD_BOUND:.0e}"
    if not dev <= ANGLE_BOUND:
        return f"junction angle deviation {dev:.3e} > {ANGLE_BOUND:.0e}"
    return None


def cmd_setup(args) -> int:
    prob = Problem(args.nx, args.ny)
    _, result = solve_op(prob, inputs.triple(json.loads(args.coeffs), args.ny))
    if isinstance(result, str) or not result[1].converged:
        print(f"first solve failed: {result}", file=sys.stderr)
        return 1
    return 0


def cmd_library(args) -> int:
    import loop
    import tracer as tracing

    prob = Problem(args.nx, args.ny)
    coeffs = inputs.coefficients(args.seed, args.ny, N_INPUTS)
    phis = [inputs.triple(c, args.ny) for c in coeffs]
    solve_op(prob, phis[0])                    # cold caches: untimed
    tr = None
    if args.trace:
        spec = loop.benchmark_spec(os.path.dirname(HERE))
        tr = tracing.Tracer(*tracing.targets(m["name"] for m in spec["per_layer"]))

    def run_op(k: int) -> dict:
        # with a tracer, every other op is traced; its untraced neighbour
        # before it sees the same host speed, so the pair gives the overhead
        traced = tr is not None and k % 2 == 1
        if traced:
            tr.install()
            tr.op, tr.tag = k, "op"
        dt, result = solve_op(prob, phis[k % N_INPUTS])
        if traced:
            tr.tag = "check"
        t0 = perf_counter()
        reason = check_op(prob, result)
        op = {"op": k, "traced": traced, "seconds": dt, "verify_s": perf_counter() - t0}
        if traced:
            tr.uninstall()
            tr.op = None
        if reason is not None:
            op["reason"] = reason
        return op

    def run_setup(j: int) -> dict:
        cmd = [sys.executable] + (["-X", "importtime"] if args.trace else []) + [
            os.path.join(HERE, "worker.py"), "setup", "--nx", str(args.nx),
            "--ny", str(args.ny), "--coeffs", json.dumps(coeffs[j % N_INPUTS].tolist())]
        child = loop.run_child(cmd)
        if child.code != 0:
            raise SystemExit(f"set-up failed ({child.code}): {child.err.strip()[-2000:]}")
        return {"seconds": child.wall, "imports": loop.import_times(child.err)}

    kernel = loop.Kernel()
    items = loop.closed_loop(kernel, args.seconds, args.n_setup, 1 + args.trace,
                             run_op, run_setup)
    out = {"items": items,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tr is not None:
        tr.dump(args.spans)
        layers = tracing.per_op_layers(tr.records(), tr.count_records())
        out["layers"] = tracing.layer_medians(
            layers, [it["op"] for it in items if it.get("traced")], tr.traced, tr.counted)
        out["absent"] = tr.absent
    print(json.dumps(out))
    return 0


def cmd_cli(args) -> int:
    import loop
    import tracer as tracing
    from trijunction import cli

    spec = loop.benchmark_spec(os.path.dirname(HERE))
    tr = tracing.Tracer(*tracing.targets(m["name"] for m in spec["per_layer"])).install()
    tr.op = args.op
    try:
        return cli.main(args.argv)
    finally:
        tr.uninstall()
        tr.dump(args.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--coeffs", required=True, help="JSON (3, 2, 3) cos/sin coefficients")
    p = sub.add_parser("library")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--n-setup", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="where the traced ops' spans go")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    return {"setup": cmd_setup, "library": cmd_library, "cli": cmd_cli}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
