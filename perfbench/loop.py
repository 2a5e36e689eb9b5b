"""The closed loop shared by ``run.py`` and ``worker.py``, with host-speed scaling.

The host's speed steps between levels up to about 2x apart, in phases from
seconds to minutes long, and process CPU time follows wall time, so raw
seconds from runs minutes apart differ by more than any change worth
measuring.  A fixed reference kernel, in the same mix of work as the solver
(small matrix products and ufuncs, a Python loop over small objects, FFTs
and a DCT, small LU solves), runs before every timed item of the loop and
after the last one.  Each item's seconds are multiplied by ``REF_KERNEL_S``
over the mean of the two kernel times around it: that gives the item's
seconds on a host where the kernel takes ``REF_KERNEL_S``.  The kernel uses
only numpy and scipy, never the package under test, so a change to the
package moves the scaled figures and not the scale.

Nothing here imports numpy at module level: the caller fixes the BLAS thread
settings first.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter

# the kernel's median time on a 2-vCPU x86-64 host (numpy 2.4 with OpenBLAS,
# scipy 1.17, one BLAS thread); it only sets the unit of the scaled figures
REF_KERNEL_S = 0.008


def benchmark_spec(root: str) -> dict:
    """The checkout's ``BENCHMARK.json``: metric names, units and workloads."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Kernel:
    """The fixed reference work; calling it returns its wall seconds."""

    def __init__(self):
        import numpy as np
        import scipy.fft
        import scipy.linalg

        rng = np.random.default_rng(0)
        self.np, self.fft, self.linalg = np, scipy.fft, scipy.linalg
        self.a = rng.standard_normal((64, 64))
        self.x = rng.standard_normal((48, 64))
        self.lu = scipy.linalg.lu_factor(rng.standard_normal((50, 50)) + 50 * np.eye(50))
        self.b = rng.standard_normal(50)
        self()                                  # the first pass warms up

    def __call__(self) -> float:
        np, fft, a, x = self.np, self.fft, self.a, self.x
        t0 = perf_counter()
        for _ in range(20):
            a @ a
            np.sin(x) * np.exp(-x * x)
        total = 0
        for i in range(3000):
            pair = _Pair(i, i + 1)
            total += pair.a * pair.b
        for _ in range(20):
            fft.irfft(fft.rfft(x, axis=1), n=64, axis=1)
            fft.dct(x, type=1, axis=0)
        for _ in range(60):
            self.linalg.lu_solve(self.lu, self.b)
        return perf_counter() - t0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def calibrate(kernel: Kernel, n: int = 7) -> float:
    """Median kernel time in ms over ``n`` passes (reported at a run's start and end)."""
    times = sorted(kernel() for _ in range(n))
    return 1e3 * times[n // 2]


def closed_loop(kernel: Kernel, seconds: float, n_setup: int, min_ops: int,
                run_op, run_setup) -> list[dict]:
    """Run ops back to back for ``seconds`` of wall time, with set-up samples among them.

    ``run_op(k)`` and ``run_setup(j)`` return dicts with the item's timed
    ``seconds``.  Set-up sample ``j`` (of ``n_setup``) is due once
    ``j * seconds / n_setup`` have passed, so the samples spread over the
    run and meet the same host phases as the ops.  Every item gets ``kind``
    ("op" or "setup") and ``scale``, the factor that turns its seconds into
    seconds at the reference kernel speed.
    """
    items: list[dict] = []
    n_ops = n_set = 0
    before = kernel()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if n_set < n_setup and elapsed >= n_set * seconds / n_setup:
            item = dict(run_setup(n_set), kind="setup")
            n_set += 1
        elif elapsed < seconds or n_ops < min_ops:
            item = dict(run_op(n_ops), kind="op")
            n_ops += 1
        else:
            return items
        after = kernel()
        item["scale"] = REF_KERNEL_S / (0.5 * (before + after))
        before = after
        items.append(item)


@dataclass(frozen=True)
class Child:
    """Outcome of one finished child process."""

    code: int
    wall: float
    rss_mb: float
    out: str
    err: str


def run_child(cmd: list[str], timeout: float | None = None) -> Child:
    """Run ``cmd`` to completion; time it and read its peak RSS via wait4.

    With a ``timeout`` the child leads its own process group, and after
    ``timeout`` seconds the whole group is killed, so no descendant outlives
    the call.  Without one it stays in the caller's group, so killing the
    caller's group kills it too.
    """
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                start_new_session=timeout is not None)
        killer = None
        if timeout is not None:
            killer = threading.Timer(max(1.0, timeout), _kill_group, (proc.pid,))
            killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # interrupted: leave no process behind
            proc.kill()
            if timeout is not None:
                _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            if killer is not None:
                killer.cancel()
        wall = perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0,
                     out.read(), err.read())


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def import_times(stderr: str) -> dict[str, float]:
    """Summed ``-X importtime`` self times (ms) of numpy, scipy and trijunction modules."""
    totals = {"numpy": 0.0, "scipy": 0.0, "trijunction": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(parts[0]) / 1e3
    return totals
