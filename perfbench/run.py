"""Benchmark of the trijunction solver: one command, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 36 --trace 0

Workloads (closed loops with one client; the next op starts when the last ends):

* ``solve-default``  one ``solve_nonlinear`` call at 48x64 with warm caches
* ``solve-fine``     one ``solve_nonlinear`` call at 96x256 with warm caches
* ``cli-roundtrip``  a fresh-interpreter ``trijunction solve`` with seeded
                     ``--phi1..3`` lists at default settings, then
                     ``trijunction verify`` on its output directory

Timed seconds are scaled to a reference host speed (see ``loop.py``): the
host's speed steps by up to about 2x in phases of seconds to minutes, and a
fixed kernel timed beside every op tracks those steps.  The raw figures are
printed beside the scaled ones and kept in the run's record.

End-to-end metrics (``--trace 0``), on every workload:

* ``solves_per_s``  ops completed per second of scaled op time: one
                    ``solve_nonlinear`` call per library op, one
                    ``trijunction solve`` plus ``trijunction verify`` (processes,
                    interpreter start included) per round trip
* ``op_s.p50``      median scaled seconds per untraced op
* ``setup_s``       median scaled seconds of fresh interpreters that import
                    trijunction, build grid, cutoff and frame and run the
                    first cold solve; for ``cli-roundtrip``,
                    ``python -c "import trijunction.cli"``.  The samples are
                    spread over the run, among the ops.
* ``peak_rss_mb``   peak resident memory of the worker process, or of the
                    largest CLI child

Per-op seconds are also printed on the lines before the result, as p50 and
p90 (where at least 100 ops leave 10 beyond it, so not on ``cli-roundtrip``),
scaled and raw, with the fail fraction; on ``cli-roundtrip`` also the scaled
``cli_solve_s.p50`` and ``cli_verify_s.p50`` of the two commands.

Per-layer metrics (``--trace 1``): ``<module>.<function>.calls`` and
``.self_ms`` medians per op from an outside-in traced loop (see
``tracer.py``), ``fields.ScalarField.count``, ``io.bytes_written`` per round
trip, ``import.{numpy,scipy,trijunction}_ms`` (summed ``-X importtime`` self
times of each package's modules, median over the set-up samples) and
``trace.overhead_frac`` (median over traced ops of the op's scaled time over
that of the untraced op just before it, minus 1; ops alternate between the
two).  Metric names and units come from ``BENCHMARK.json``; the traced
functions are the ones its ``.calls`` names list.

An op fails if it raises, does not converge, breaks ``cli.RESIDUAL_GATES``,
or its FD mean curvature or junction-angle deviation exceeds 1e-4; a round
trip fails if either command exits nonzero.  ``failed / attempted`` is the
fail fraction.  Every child runs single-threaded (``OPENBLAS_NUM_THREADS=1``).
The last line of standard output is the JSON result; the lines before it
give the run context, the reference kernel's time at start and end, and the
unbounded figures.  The run keeps its records, spans and scratch files under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import loop

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {"solve-default": (48, 64), "solve-fine": (96, 256), "cli-roundtrip": None}
N_SETUP = 7               # set-up samples per run
TIME_BUDGET_S = 165.0     # the whole command must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


class Budget:
    """The time left before every child must have been killed."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - perf_counter()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def library_workload(args, root: str, budget: Budget) -> dict:
    nx, ny = WORKLOADS[args.workload]
    child = loop.run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "library", "--nx", str(nx),
         "--ny", str(ny), "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--n-setup", str(N_SETUP), "--trace", str(args.trace),
         "--spans", spans_path(root, args)], timeout=budget.left())
    if child.code != 0 or not child.out.strip():
        raise BenchError(f"library worker failed ({child.code}): {child.err.strip()[-2000:]}")
    res = json.loads(child.out.strip().splitlines()[-1])
    run = summarize(res["items"], res["peak_rss_mb"])
    if args.trace:
        run["absent"] = res["absent"]
        run["layers"] = finish_layers(res["layers"], res["items"], 0.0)
    return run


def cli_workload(args, root: str, budget: Budget, kernel: loop.Kernel) -> dict:
    scratch = tempfile.gettempdir()
    sys.path.insert(0, os.path.join(root, "src"))
    import inputs          # needs trijunction, so only after the path is set
    import tracer as tracing

    py = sys.executable
    pool = inputs.cli_inputs(args.seed, 64)
    importtime = ["-X", "importtime"] if args.trace else []

    def command(which: str, k: int, traced: bool) -> list[str]:
        if traced:
            return [py, os.path.join(HERE, "worker.py"), "cli", "--op", str(k),
                    "--spans", os.path.join(scratch, f"op{k}.{which}.json"), which]
        return [py, "-m", "trijunction.cli", which]

    def run_setup(j: int) -> dict:
        child = loop.run_child([py] + importtime + ["-c", "import trijunction.cli"],
                               timeout=budget.left())
        if child.code != 0:
            raise BenchError(f"set-up failed ({child.code}): {child.err.strip()[-2000:]}")
        return {"seconds": child.wall, "imports": loop.import_times(child.err)}

    dumps: list[dict] = []

    def run_op(k: int) -> dict:
        # with tracing, every other round trip is traced
        traced = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(scratch, f"op{k}")
        solve = loop.run_child(command("solve", k, traced) + pool[k % len(pool)]
                               + ["--out", out_dir], timeout=budget.left())
        written = dir_bytes(out_dir)
        verify = loop.run_child(command("verify", k, traced) + [out_dir],
                                timeout=budget.left())
        op = {"op": k, "traced": traced, "seconds": solve.wall + verify.wall,
              "solve_s": solve.wall, "verify_s": verify.wall,
              "rss_mb": max(solve.rss_mb, verify.rss_mb), "bytes": written}
        if solve.code != 0 or verify.code != 0:
            op["reason"] = (f"solve exit {solve.code}, verify exit {verify.code}: "
                            f"{(solve.err + verify.err).strip()[-500:]}")
        if traced:
            dumps.extend(d for d in (load_json(os.path.join(scratch, f"op{k}.{which}.json"))
                                     for which in ("solve", "verify")) if d is not None)
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    items = loop.closed_loop(kernel, args.seconds, N_SETUP, 1 + args.trace, run_op, run_setup)
    ops = [it for it in items if it["kind"] == "op"]
    run = summarize(items, max(o["rss_mb"] for o in ops))
    if args.trace:
        spans, counts = [], []
        for dump in dumps:
            base = len(spans)
            for s in dump["spans"]:        # renumber: ids must be unique across processes
                spans.append(dict(s, id=base + s["id"],
                                  parent=base + s["parent"] if s["parent"] >= 0 else -1))
            counts += dump["counts"]
        absent = sorted({name for dump in dumps for name in dump["absent"]})
        with open(spans_path(root, args), "w") as fh:
            json.dump({"spans": spans, "counts": counts, "absent": absent}, fh)
        traced_ops = [o for o in ops if o["traced"]]
        spec = loop.benchmark_spec(root)
        traced, counted = tracing.targets(m["name"] for m in spec["per_layer"])
        layers = tracing.layer_medians(tracing.per_op_layers(spans, counts),
                                       [o["op"] for o in traced_ops], traced, counted)
        run["absent"] = absent
        run["layers"] = finish_layers(layers, items,
                                      statistics.median(o["bytes"] for o in traced_ops))
    return run


def summarize(items: list[dict], rss_mb: float) -> dict:
    """End-to-end figures from the untraced ops; failures count over all ops."""
    ops = [it for it in items if it["kind"] == "op"]
    setups = [it for it in items if it["kind"] == "setup"]
    plain = [o for o in ops if not o["traced"]]
    failures = [{"op": o["op"], "reason": o["reason"]} for o in ops if "reason" in o]
    ok = sum(1 for o in plain if "reason" not in o)
    return {
        "attempted": len(ops), "failed": len(failures), "failures": failures,
        "solves_per_s": ok / sum(o["seconds"] * o["scale"] for o in plain),
        "raw_solves_per_s": ok / sum(o["seconds"] for o in plain),
        "setup_s": statistics.median(s["seconds"] * s["scale"] for s in setups),
        "raw_setup_s": statistics.median(s["seconds"] for s in setups),
        "op_s.p50": statistics.median(o["seconds"] * o["scale"] for o in plain),
        "peak_rss_mb": rss_mb,
        "op_s": [o["seconds"] * o["scale"] for o in plain],
        "raw_op_s": [o["seconds"] for o in plain],
        "items": items,
    }


def finish_layers(layers: dict, items: list[dict], bytes_written: float) -> dict:
    """Add the import, I/O and tracing-overhead figures to the traced medians."""
    out = dict(layers)
    out["io.bytes_written"] = bytes_written
    setups = [it for it in items if it["kind"] == "setup"]
    for name in ("numpy", "scipy", "trijunction"):
        out[f"import.{name}_ms"] = statistics.median(s["imports"][name] for s in setups)
    # neighbouring ops see the same host speed, so compare each traced op
    # with the untraced one before it
    ops = [it for it in items if it["kind"] == "op"]
    out["trace.overhead_frac"] = statistics.median(
        (b["seconds"] * b["scale"]) / (a["seconds"] * a["scale"])
        for a, b in zip(ops, ops[1:]) if b["traced"] and not a["traced"]) - 1.0
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*"))
               if os.path.isfile(p))


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def spans_path(root: str, args) -> str:
    return os.path.join(root, ".perfbench", f"spans-{args.workload}-seed{args.seed}.json")


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------

def run_context(root: str) -> dict:
    import numpy as np
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "ref_kernel_s": loop.REF_KERNEL_S,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def metrics(run: dict, spec: dict, trace: bool) -> dict:
    """Every metric ``BENCHMARK.json`` lists for this mode, with its unit from there."""
    if trace:
        return {m["name"]: {"value": run["layers"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": run[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def summary_lines(run: dict) -> list[str]:
    """Unbounded per-op seconds: p50 and p90 (given 100 samples, so 10 lie beyond it)."""
    lines = [f"raw solves_per_s = {run['raw_solves_per_s']:.6g} /s, "
             f"raw setup_s = {run['raw_setup_s']:.6g} s"]
    for key in ("op_s", "raw_op_s"):
        xs = run[key]
        line = f"{key}.p50 = {statistics.median(xs):.6g} s (n = {len(xs)})"
        if len(xs) >= 100:
            line += f", {key}.p90 = {statistics.quantiles(xs, n=10)[-1]:.6g} s"
        else:
            line += f", p90 not reported: n = {len(xs)} < 100"
        lines.append(line)
    plain = [it for it in run["items"] if it["kind"] == "op" and not it["traced"]]
    if "solve_s" in plain[0]:          # round trips: each command on its own
        lines += [f"cli_{key}.p50 = {statistics.median(o[key] * o['scale'] for o in plain):.6g} s"
                  for key in ("solve_s", "verify_s")]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trijunction solver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trijunction", "__init__.py")):
        print("perfbench: run from the root of a trijunction checkout "
              "(src/trijunction not found)", file=sys.stderr)
        return 2
    spec = loop.benchmark_spec(root)
    scratch = os.path.join(root, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    os.environ.update(THREAD_ENV)      # before numpy loads, in this process too
    # one CPU for the run and all its children, so the reference kernel
    # times the CPU the ops run on; unpinned, the kernel and a round trip's
    # children often ran on different CPUs and the scaling tracked the ops
    # poorly
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    budget = Budget(TIME_BUDGET_S)
    try:
        # compile and cache the package once, so no sample pays for bytecode
        warm = loop.run_child([sys.executable, "-c", "import trijunction.cli"],
                              timeout=budget.left())
        if warm.code != 0:
            raise BenchError(f"cannot import trijunction: {warm.err.strip()[-2000:]}")
        context = run_context(root)
        kernel = loop.Kernel()
        context["kernel_start_ms"] = loop.calibrate(kernel)
        if args.workload == "cli-roundtrip":
            run = cli_workload(args, root, budget, kernel)
        else:
            run = library_workload(args, root, budget)
        context["kernel_end_ms"] = loop.calibrate(kernel)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics(run, spec, bool(args.trace))}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "run": run, "result": result}
    with open(os.path.join(root, ".perfbench",
                           f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("context " + json.dumps(context))
    print(f"{args.workload}: attempted {run['attempted']}, failed {run['failed']}, "
          f"fail_frac {run['failed'] / run['attempted']:.6g}")
    for failure in run["failures"][:5]:
        print(f"  failed op {failure['op']}: {failure['reason']}")
    for line in summary_lines(run):
        print(line)
    if run.get("absent"):
        print("absent traced names: " + ", ".join(run["absent"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
