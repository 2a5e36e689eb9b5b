"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402


def span(sid, name, start, end, parent=-1, op=0, tag="op"):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "op": op, "tag": tag}


def test_self_time_of_nested_spans():
    spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 4.0, parent=0),
             span(2, "c", 2.0, 3.0, parent=1), span(3, "d", 5.0, 9.0, parent=0),
             span(4, "a", 20.0, 22.0, tag="check")]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0}
    layers = tracing.per_op_layers(spans, [])[0]
    assert layers["a.calls"] == 1            # the check span does not count
    assert layers["a.self_ms"] == pytest.approx(3e3)
    assert layers["d.self_ms"] == pytest.approx(4e3)


def test_tracer_records_parents_and_tolerates_absent_names():
    mod = types.ModuleType("fake")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(x) * 2\n", vars(mod))
    other = types.ModuleType("other")
    other.f = mod.f                             # bound by name elsewhere, too
    originals = (mod.f, mod.g)
    traced = [("fake", "f"), ("fake", "g"), ("fake", "gone"), ("nomod", "h")]
    tr = tracing.Tracer(traced, [("fake", "Missing")])
    tr.install({"fake": mod, "other": other})
    tr.op = 7
    assert other.f(1) == 4
    tr.uninstall()
    assert (mod.f, mod.g) == originals and other.f is originals[0]
    assert sorted(tr.absent) == ["fake.Missing", "fake.gone", "nomod.h"]
    recs = {r["name"]: r for r in tr.records()}
    assert recs["fake.g"]["parent"] == recs["fake.f"]["id"]
    assert recs["fake.f"]["parent"] == -1 and recs["fake.f"]["op"] == 7
    # metrics of names that never ran read zero instead of failing
    medians = tracing.layer_medians(tracing.per_op_layers(tr.records(), []), [7],
                                    traced + [("cli", "cmd_solve")], [])
    assert medians["fake.g.calls"] == 1 and medians["cli.cmd_solve.calls"] == 0


def test_tracer_targets_come_from_the_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    traced, counted = tracing.targets(names)
    assert ("picard", "solve_nonlinear") in traced and ("fields", "diff") in traced
    assert counted == [("fields", "ScalarField")]
    assert all(f"{m}.{f}.self_ms" in names for m, f in traced)


def test_closed_loop_spreads_setup_samples_and_scales_by_the_kernel():
    import loop
    clock = iter(range(1000))

    def kernel():                      # the host slows to half speed after item 3
        return loop.REF_KERNEL_S * (1 if next(clock) < 4 else 2)

    def run_op(k):
        time.sleep(0.01)
        return {"seconds": 1.0}

    items = loop.closed_loop(kernel, 0.1, 3, 1, run_op, lambda j: {"seconds": 2.0})
    kinds = [it["kind"] for it in items]
    assert kinds[0] == "setup" and kinds.count("setup") == 3 and kinds[-1] == "op"
    assert kinds.index("setup", 1) > 1          # the others come later, among the ops
    scales = [it["scale"] for it in items]
    assert scales[:3] == [1.0, 1.0, 1.0] and scales[3] == pytest.approx(2 / 3)
    assert all(s == 0.5 for s in scales[4:])


def test_oversized_data_counts_as_failed():
    import inputs
    import run
    import worker
    prob = worker.Problem(48, 64)
    # proxy = delta is far outside the guard ball (acceptance criterion 8)
    bad, good = (inputs.library_inputs(3, 64, 1, proxy)[0] for proxy in (worker.DELTA, 1e-2))
    reasons = [worker.check_op(prob, worker.solve_op(prob, phi)[1]) for phi in (bad, good)]
    assert "GuardViolation" in reasons[0] and reasons[1] is None
    items = [{"kind": "op", "op": k, "traced": False, "seconds": 1.0, "scale": 1.0}
             for k in range(2)]
    items[0]["reason"] = reasons[0]
    items.append({"kind": "setup", "seconds": 1.0, "scale": 1.0})
    summary = run.summarize(items, 1.0)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["solves_per_s"] == 0.5       # a failed op completes nothing


def bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["solve-default", "solve-fine", "cli-roundtrip"])
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "solve-default", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
