"""Reference tasks: fixed computations owned by the benchmark, timed next to every op.

The host this benchmark was sized on (2 vCPUs shared with other tenants)
changes speed by up to 1.7x for seconds to minutes at a time, in wall and
CPU time alike.  A reference task is a frozen miniature of the kind of work
an op does, written here and never taken from the package, so it slows down
with the host but not with the program.  Dividing an op's wall time by the
reference task timed just before it cancels most of the host's drift;
multiplying by the task's nominal time gives back milliseconds "at reference
host speed".  On a 90 s trace of 25 steering reports per op, the spread of
15 s medians was 0.47 raw and 0.018 normalised this way.

NOMINAL holds each task's median time on the reference host (Intel Xeon,
2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread) in its fast phase.
The constants only set the unit scale; comparisons between two commits on one
host do not depend on them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20180402)
_ROOT6 = np.linalg.cholesky(np.cov(_RNG.standard_normal((6, 64)))).T  # fixed 6x6 square root
_COMBOS = _RNG.choice([-1.0, 0.0, 1.0], size=(18, 6))  # fixed (18, 6) combination table
_SIGMA = _ROOT6.T @ _ROOT6 + np.eye(6)

# The 12 directed bipartitions of three modes as quadrature index lists.
_SPLITS = [([q for m in a for q in (2 * m, 2 * m + 1)], [q for m in b for q in (2 * m, 2 * m + 1)])
           for a, b in [((0,), (1,)), ((1,), (0,)), ((0,), (2,)), ((2,), (0,)), ((1,), (2,)),
                        ((2,), (1,)), ((0,), (1, 2)), ((1, 2), (0,)), ((1,), (0, 2)),
                        ((0, 2), (1,)), ((2,), (0, 1)), ((0, 1), (2,))]]


def _conditional_spectra(repeats: int) -> None:
    """Schur complement and spectrum for all 12 splits of a fixed 6x6 matrix."""
    m = _SIGMA
    for _ in range(repeats):
        for ia, ib in _SPLITS:
            a = m[np.ix_(ia, ia)]
            c = m[np.ix_(ia, ib)]
            np.linalg.cond(a)
            s = m[np.ix_(ib, ib)] - c.T @ np.linalg.solve(a, c)
            np.linalg.eigvalsh(s)


def _sample_and_measure(n: int, rng) -> None:
    """Draw (n, 6) Gaussian rows and take the variances of 18 combinations."""
    x = rng.standard_normal((n, 6)) @ _ROOT6
    (x @ _COMBOS.T).var(axis=0, ddof=1)


def small_algebra() -> None:
    """Many small numpy calls from Python: the shape of loss_map's work."""
    _conditional_spectra(4)


def small_tomography() -> None:
    """Small sample tables plus steering-sized algebra: the shape of tomo_many's work."""
    rng = np.random.default_rng(1)
    for _ in range(3):
        _sample_and_measure(2_000, rng)
    _conditional_spectra(3)


def streaming() -> None:
    """One 1M-row sample table and its 18 combinations (192 MB): tomo_large's work."""
    _sample_and_measure(1_000_000, np.random.default_rng(1))


def fresh_process() -> None:
    """A fresh interpreter that imports numpy: the shape of a cold CLI start."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


TASKS = {
    "small_algebra": small_algebra,
    "small_tomography": small_tomography,
    "streaming": streaming,
    "fresh_process": fresh_process,
}
NOMINAL_S = {
    "small_algebra": 0.0026,
    "small_tomography": 0.0039,
    "streaming": 0.30,
    "fresh_process": 0.14,
}


def timed(task: str) -> float:
    """Wall time of one run of a reference task, in seconds."""
    t0 = time.perf_counter()
    TASKS[task]()
    return time.perf_counter() - t0
