"""Seeded inputs for the benchmark workloads.

The recipe follows the acceptance suite's ``random_boundary``: three
band-limited rows with standard-normal cos/sin coefficients for modes 0..2,
scaled to a fixed boundary proxy norm.  The benchmark scales to 1e-2, the
size the project's roadmap sets for benchmark traffic; the acceptance suite
itself draws at 5e-3.  Both sit inside the default guard ball (radius 0.025
at delta = 0.25), where Picard converges in two iterations.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from trijunction.fields import BoundaryTriple, boundary_proxy

MAX_MODE = 2
PROXY = 1e-2
ALPHA = 0.5
CLI_NY = 64          # the CLI's default grid is 48 x 64


def triple(coeffs, ny: int) -> BoundaryTriple:
    """The boundary triple on ``ny`` points with (3, 2, MAX_MODE + 1) cos/sin coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(MAX_MODE + 1)
    arg = 2 * np.pi * np.outer(k, np.arange(ny) / ny)
    rows = np.stack([(c[:, None] * np.cos(arg) + s[:, None] * np.sin(arg)).sum(axis=0)
                     for c, s in coeffs])
    return BoundaryTriple(ny, rows)


def coefficients(seed: int, ny: int, n: int, proxy: float = PROXY) -> list[np.ndarray]:
    """``n`` coefficient blocks whose triples on ``ny`` points have the given proxy norm."""
    rng = np.random.default_rng([seed, ny])
    out = []
    for _ in range(n):
        c = rng.standard_normal((3, 2, MAX_MODE + 1))
        out.append(c * (proxy / boundary_proxy(triple(c, ny), ALPHA)))
    return out


def library_inputs(seed: int, ny: int, n: int, proxy: float = PROXY) -> list[BoundaryTriple]:
    """``n`` boundary triples on ``ny`` points at the given proxy norm."""
    return [triple(c, ny) for c in coefficients(seed, ny, n, proxy)]


def cli_args(coeffs) -> list[str]:
    """The argument list ``--phi1 .. --phi3`` in the CLI's ``k:cos:sin`` form."""
    args = []
    for i, (c, s) in enumerate(coeffs, 1):
        args += [f"--phi{i}", ",".join(f"{k}:{float(c[k])!r}:{float(s[k])!r}"
                                       for k in range(MAX_MODE + 1))]
    return args


def cli_inputs(seed: int, n: int) -> list[list[str]]:
    """``n`` CLI argument lists at the CLI's default grid."""
    return [cli_args(c) for c in coefficients(seed, CLI_NY, n)]
