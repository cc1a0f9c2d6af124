"""Simulated covariance-matrix reconstruction from quadrature records.

Mirrors the measurement protocol: 18 variance measurements (6 single
quadratures, 6 minus-combinations, 6 plus-combinations across the three
modes) assembled into a 6x6 covariance matrix through the variance-sum
identities, with within-mode x-p covariances taken as 0.  Multi-trial
statistics give the mean and error bar of every steering value.

Every measured variance is v^T S v for the 6x6 sample covariance S of the
record, so a trial never holds its record: its samples are drawn in fixed
blocks into running sums, and memory does not grow with the number of
samples.  One streaming sampler serves :func:`sample_covariance` (one seed)
and :func:`reconstruct_trials` (one seed per trial).  It hands out blocks,
not whole trials, to up to one thread per usable CPU, so no CPU idles while
another finishes the last trials.  Each trial keeps its own seeded stream
and is drawn by one thread at a time, in order, so the results do not
depend on the number of threads.  Measuring, reconstruction, the rejection
floor and the steering values then run once over the (K, 6, 6) stack of all
trials.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .network import MODE_NAMES, combo_vector
from .steering import DIRECTIONS, SteeringReport, steering_stack
from .steering import steering_report  # noqa: F401 -- not called; the benchmark traces this name
from .symplectic import CovarianceMatrix, symmetric_part, symplectic_eigenvalues

# A reconstructed trial is kept when its minimum symplectic eigenvalue is at
# least this floor.  The floor sits well below 1 on purpose: a pure state
# reconstructed from finite samples lands just below the nu = 1 boundary
# (deviation ~ a few times 1/sqrt(n)), which is ordinary statistical noise,
# not a broken reconstruction.  Only far-out garbage is rejected; no
# projection or repair is ever applied.
REJECT_NU_FLOOR = 0.95

# Mode pairs in canonical order: AB, AC, BC.
_PAIRS = tuple(combinations(MODE_NAMES, 2))

#: The 18 measured variances, in protocol order: singles, minus combos, plus combos.
MEASUREMENT_LABELS: tuple[str, ...] = (
    *(f"{quad}{mode}" for mode in MODE_NAMES for quad in "xp"),
    *(f"{quad}{a}-{quad}{b}" for quad in "xp" for a, b in _PAIRS),
    *(f"x{a}+p{b}" for a, b in _PAIRS),
    *(f"p{a}+x{b}" for a, b in _PAIRS),
)

# Row k is the quadrature coefficient vector of measurement k.
_COMBO_MATRIX = np.array([combo_vector(label) for label in MEASUREMENT_LABELS])

# The variance -> covariance map, read off _COMBO_MATRIX.  Rows 0-5 measure
# quadrature 0-5 alone; each later row measures s_a q_a + s_b q_b with a < b,
# which fixes Cov(q_a, q_b) = s_a s_b (Var(row) - Var(q_a) - Var(q_b)) / 2.
_SLOT_A, _SLOT_B = np.array([np.flatnonzero(row) for row in _COMBO_MATRIX[6:]]).T
_SLOT_SIGN = np.array([np.prod(row[row != 0]) for row in _COMBO_MATRIX[6:]])


@dataclass(frozen=True)
class MeasurementSet:
    """The 18 variances of one reconstruction run, keyed by combination label."""

    variances: dict[str, float]

    def __post_init__(self) -> None:
        if tuple(self.variances.keys()) != MEASUREMENT_LABELS:
            raise ValueError("need exactly the 18 canonical measurement labels, in order")
        _check_variances(self.as_array())

    def as_array(self) -> np.ndarray:
        return np.array(list(self.variances.values()))


def _check_variances(variances: np.ndarray) -> None:
    if not np.all(np.isfinite(variances)) or np.any(variances < 0):
        raise ValueError("variances must be finite and non-negative")


# Rows of standard normals drawn per block by _normal_covariances: 8192 x 6
# doubles (384 KB) stay in the L2 cache.  Blocks of a default_rng stream
# concatenate to exactly the one large draw of sample_quadratures.
_BLOCK_ROWS = 8192


def _sampling_root(cm: CovarianceMatrix, n_samples: int) -> np.ndarray:
    """Symmetric square root of cm (eigendecomposition), after the sampling checks."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    w, vecs = np.linalg.eigh(cm.matrix)
    if w.min() < -1e-9 * max(1.0, abs(w.max())):
        raise ValueError("covariance matrix is not positive semidefinite")
    return (vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.T


def sample_quadratures(
    cm: CovarianceMatrix,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Draw mean-zero Gaussian quadrature records with covariance cm.

    Returns an (n_samples, 2N) array Z @ root, Z standard normal and root
    the symmetric matrix square root of cm, so the same seed always
    reproduces the same table.
    """
    root = _sampling_root(cm, n_samples)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, cm.matrix.shape[0])) @ root


def sample_covariance(
    cm: CovarianceMatrix,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> CovarianceMatrix:
    """Sample covariance (divisor n-1) of the table sample_quadratures would draw.

    Draws the same standard-normal stream Z in blocks of _BLOCK_ROWS rows and
    keeps only its column sums and Z^T Z, then returns
    root^T cov(Z) root = cov(Z @ root).  Equal to np.cov of the table to
    rounding (1e-12 relative); memory does not grow with n_samples.
    """
    root = _sampling_root(cm, n_samples)
    return CovarianceMatrix(root.T @ _normal_covariances(n_samples, root.shape[0], [seed])[0] @ root)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _normal_covariances(n_samples: int, dim: int, seeds: list) -> np.ndarray:
    """The (K, dim, dim) stack of cov(Z), Z n_samples standard-normal rows per seed.

    Each seed has its own generator, column sums and Z^T Z.  Up to one thread
    per usable CPU, the calling thread included, takes the next trial from a
    shared queue, draws one _BLOCK_ROWS block into its own buffer, adds it to
    that trial's totals and puts the trial back while rows remain.  numpy
    releases the GIL while it fills a block, so the threads overlap and end
    within one block of each other.  A trial is held by one thread at a time
    and its blocks are added in stream order, so every matrix is
    bit-identical to one drawn alone, whatever the thread count.

    A failure in trial i stops the scheduling of the trials after i, and the
    first failure in trial order is re-raised once every thread has ended.
    An interrupt in the calling thread empties the queue, so the other
    threads stop after their current block.
    """
    n_trials = len(seeds)
    workers = min(n_trials, _usable_cpus())
    rngs: list[np.random.Generator | None] = [None] * n_trials
    drawn = [0] * n_trials
    sums = np.zeros((n_trials, dim))
    grams = np.zeros((n_trials, dim, dim))
    waiting = deque(range(n_trials))
    stop = n_trials  # trials from this index on are no longer scheduled
    lock = threading.Lock()
    errors: dict[int, Exception] = {}

    def cancel(first: int) -> None:
        """Schedule no trial from first on; the caller holds the lock."""
        nonlocal stop
        stop = min(stop, first)
        kept = [index for index in waiting if index < stop]
        waiting.clear()
        waiting.extend(kept)

    def run() -> None:
        rows = min(_BLOCK_ROWS, n_samples)
        buf = np.empty((rows, dim))  # refilled in place: the same stream as fresh blocks
        ones = np.ones(rows)  # ones @ block sums columns faster than .sum(0)
        while True:
            with lock:
                if not waiting:
                    return
                index = waiting.popleft()
            try:
                if rngs[index] is None:
                    rngs[index] = np.random.default_rng(seeds[index])
                block = rngs[index].standard_normal(out=buf[:min(rows, n_samples - drawn[index])])
                sums[index] += ones[:len(block)] @ block
                grams[index] += block.T @ block
            except Exception as exc:  # re-raised in the calling thread
                with lock:
                    errors[index] = exc
                    cancel(index)
                continue
            drawn[index] += len(block)
            with lock:
                if drawn[index] < n_samples and index < stop:
                    waiting.append(index)

    threads = [threading.Thread(target=run) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run()
    except BaseException:  # an interrupt: the other threads end after their current block
        with lock:
            cancel(0)
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    mean = sums / n_samples
    return (grams - n_samples * (mean[:, :, None] * mean[:, None, :])) / (n_samples - 1)


def _variances(cov: np.ndarray) -> np.ndarray:
    """The 18 variances diag(C cov C^T), C = _COMBO_MATRIX, of a 6x6 covariance or a stack."""
    return ((_COMBO_MATRIX @ cov) * _COMBO_MATRIX).sum(axis=-1)


def _measurements(cov: np.ndarray) -> MeasurementSet:
    return MeasurementSet(variances=dict(zip(MEASUREMENT_LABELS, _variances(cov).tolist())))


def measure_set(samples: np.ndarray) -> MeasurementSet:
    """Unbiased sample variances (divisor n-1) of the 18 combinations."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 6:
        raise ValueError("expected an (n_samples, 6) table for a three-mode state")
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return _measurements(np.cov(samples, rowvar=False))


def population_measurements(cm: CovarianceMatrix) -> MeasurementSet:
    """The 18 variances v^T sigma v read off a covariance matrix.

    Noise-free for a state; for a sample covariance, the sample variances.
    """
    if cm.n_modes != 3:
        raise ValueError("expected a three-mode state")
    return _measurements(cm.matrix)


def covariance_from_measurements(ms: MeasurementSet) -> CovarianceMatrix:
    """Assemble the 6x6 covariance matrix from the 18 variances.

    Diagonal from the singles; each cross-mode covariance from the one
    combination that measures its slot, through the minus identity Cov =
    -1/2 [Var(u - v) - Var(u) - Var(v)] or the plus identity Cov = +1/2
    [Var(u + v) - Var(u) - Var(v)].  Within-mode x-p covariances are not
    measured and are set to 0.
    """
    return CovarianceMatrix(_covariance_from_variances(ms.as_array()))


def _covariance_from_variances(var: np.ndarray) -> np.ndarray:
    """The variance -> covariance map on the last axis: (..., 18) -> (..., 6, 6)."""
    out = np.zeros(var.shape[:-1] + (6, 6))
    out[..., range(6), range(6)] = var[..., :6]
    cov = _SLOT_SIGN * 0.5 * (var[..., 6:] - var[..., _SLOT_A] - var[..., _SLOT_B])
    out[..., _SLOT_A, _SLOT_B] = out[..., _SLOT_B, _SLOT_A] = cov
    return out


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregated reconstruction trials.

    matrices and min_symplectic_eigenvalues cover every trial in order;
    accepted lists the indices that passed the physicality floor, and reports
    aligns with accepted.  mean and std (sample, ddof=1) run over accepted
    trials only, keyed by steering direction.
    """

    n_samples: int
    n_trials: int
    seed: int
    matrices: tuple[CovarianceMatrix, ...]
    min_symplectic_eigenvalues: tuple[float, ...]
    accepted: tuple[int, ...]
    reports: tuple[SteeringReport, ...]
    mean: dict[str, float]
    std: dict[str, float]

    @property
    def rejected(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_trials) if i not in self.accepted)


def reconstruct_trials(
    cm_true: CovarianceMatrix,
    n_samples: int = 100_000,
    n_trials: int = 3,
    seed: int = 0,
) -> TrialStatistics:
    """Repeat sample -> measure -> reconstruct -> steering, then aggregate.

    Only the sampling runs per trial: each trial streams its sample
    covariance through the same sampler as :func:`sample_covariance`, so no
    sample table is ever held.  Up to one thread per usable CPU draws the
    trials block by block from a shared queue, so the threads finish within
    one block of each other, and the results do not depend on the number of
    threads.  Measuring the 18
    variances, the reconstruction, the rejection floor and the steering
    values then run once over the stack of all trials; every value equals
    that of the trial computed alone.

    Each trial uses a child seed spawned deterministically from (seed, trial
    index).  Trials whose reconstructed matrix falls below the physicality
    floor (min symplectic eigenvalue < REJECT_NU_FLOOR, or 0 when the matrix
    is not positive definite) are recorded and excluded from the
    statistics; nothing is repaired or projected.

    Raises
    ------
    RuntimeError
        If fewer than 2 trials survive (a standard deviation needs at least
        two accepted trials).
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    root = _sampling_root(cm_true, n_samples)
    children = np.random.SeedSequence(seed).spawn(n_trials)
    cov_z = _normal_covariances(n_samples, root.shape[0], children)

    sampled = root.T @ cov_z @ root
    if not np.all(np.isfinite(sampled)):
        raise ValueError("covariance matrix entries must be finite")
    variances = _variances(symmetric_part(sampled))
    _check_variances(variances)
    matrices = tuple(CovarianceMatrix(m) for m in _covariance_from_variances(variances))
    stack = np.array([m.matrix for m in matrices])

    nu_min = np.zeros(n_trials)  # stays 0 where a matrix is not positive definite
    definite = np.linalg.eigvalsh(stack).min(axis=-1) > 0
    if definite.any():
        nu_min[definite] = symplectic_eigenvalues(stack[definite]).min(axis=-1)
    accepted = np.flatnonzero(nu_min >= REJECT_NU_FLOOR)
    values = np.ascontiguousarray(steering_stack(stack[accepted]))

    if len(accepted) < 2:
        detail = ", ".join(f"trial {i}: nu_min={nu:.4f}" for i, nu in enumerate(nu_min))
        raise RuntimeError(
            f"only {len(accepted)} of {n_trials} trials reconstructed a physical "
            f"matrix (floor {REJECT_NU_FLOOR}); {detail}"
        )

    mean = dict(zip(DIRECTIONS, values.mean(axis=0).tolist()))
    std = dict(zip(DIRECTIONS, values.std(axis=0, ddof=1).tolist()))
    return TrialStatistics(
        n_samples=n_samples,
        n_trials=n_trials,
        seed=seed,
        matrices=matrices,
        min_symplectic_eigenvalues=tuple(nu_min.tolist()),
        accepted=tuple(accepted.tolist()),
        reports=tuple(SteeringReport(g=dict(zip(DIRECTIONS, row))) for row in values.tolist()),
        mean=mean,
        std=std,
    )
