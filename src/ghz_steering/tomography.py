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
time and memory per trial do not grow with n.  :func:`reconstruct_trials`
draws trial i of K from the i-th segments of two seeded streams, whatever K
is.  Measuring, reconstruction, one Cholesky factor per trial and the floor
then run once over the (K, 6, 6) stack, the steering values, from the same
factors, once over its accepted trials, and :class:`TrialStatistics` keeps
the stack and the (n_accepted, 12) steering values as arrays.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .network import MODE_NAMES, combo_vector
from .steering import DIRECTIONS, _factor, _g
from .steering import steering_report  # noqa: F401 -- not called; the benchmark traces this name
from .symplectic import NumericalError, _as_array, _cholesky, _factor_spectrum, symmetric_part

# A reconstructed trial is kept when its minimum symplectic eigenvalue is at
# least this floor.  The floor sits well below 1 on purpose: a pure state
# reconstructed from finite samples lands just below the nu = 1 boundary
# (deviation ~ a few times 1/sqrt(n)), which is ordinary statistical noise,
# not a broken reconstruction.  Only far-out garbage is rejected; no
# projection or repair is ever applied.
REJECT_NU_FLOOR = 0.95

# Largest admissible entry of a sample covariance.  The 18 variances are at
# most 4 times its largest entry and the symplectic spectra of the
# reconstruction at most 12 times, so all of them stay finite below it.
_SAMPLE_LIMIT = np.finfo(float).max / 16
_OUT_OF_RANGE = "sample covariance out of range: covariance matrix entries too large"

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
_SINGLES = np.arange(6)  # rows 0-5, the diagonal


def _sampling_root(cm: np.ndarray, n_samples: int) -> np.ndarray:
    """Symmetric square root of one matrix cm (eigendecomposition), after the sampling checks."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if n_samples - 1 > sys.float_info.max:  # the Wishart degrees of freedom are a float
        raise ValueError("too many samples: n_samples - 1 exceeds the largest float")
    w, vecs = np.linalg.eigh(_as_array(cm, single=True))
    if not np.isfinite(w).all():  # an eigenvalue past the largest float
        raise NumericalError(_OUT_OF_RANGE)
    if w[0] < -1e-9 * max(1.0, abs(w[-1])):  # w is ascending
        raise ValueError("covariance matrix is not positive semidefinite")
    return (vecs * np.sqrt(np.maximum(w, 0.0))) @ vecs.T


def sample_quadratures(
    cm: np.ndarray,
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
    return rng.standard_normal((n_samples, root.shape[0])) @ root


def _sample_covariances(root: np.ndarray, cov_z: np.ndarray) -> np.ndarray:
    """Symmetrized root^T cov_z root over a stack; NumericalError, not an overflow, past _SAMPLE_LIMIT."""
    with np.errstate(over="ignore", invalid="ignore"):  # an entry out of range raises below
        sampled = root.T @ cov_z @ root
    if not np.abs(sampled).max() <= _SAMPLE_LIMIT:
        raise NumericalError(_OUT_OF_RANGE)
    return symmetric_part(sampled)


def _bartlett_covariances(n_samples: int, dim: int, n_trials: int,
                          seed: int | np.random.SeedSequence) -> np.ndarray:
    """A (n_trials, dim, dim) stack of draws of cov(Z), Z n_samples standard-normal rows.

    (n-1) cov(Z) is Wishart(n-1, I), which is R^T R in distribution for the
    k x dim upper-trapezoidal Bartlett factor R, k = min(n-1, dim): R_ii^2 is
    chi-square with n-1-i degrees of freedom and every entry right of the
    diagonal is standard normal (Odell & Feiveson, JASA 61, 199, 1966).  With
    n <= dim the k rows give R^T R the rank n-1 that cov(Z) has.  The seed
    gives the two children of SeedSequence(seed).spawn(2), built directly, so
    a caller's SeedSequence does not advance: one call of the first draws
    every chi-square and one of the second every entry right of the diagonal
    in row order, both trial by trial, so trial i is the i-th segment of each
    stream whatever n_trials is.  (One shared stream would not do: a
    chi-square takes a variable number of raw draws.)  Float degrees of
    freedom let n_samples pass the int64 range.
    """
    entropy, key, pool = ((seed.entropy, seed.spawn_key, seed.pool_size)  # 4: SeedSequence's default
                          if isinstance(seed, np.random.SeedSequence) else (seed, (), 4))
    chi_rng, normal_rng = (np.random.default_rng(np.random.SeedSequence(
        entropy, spawn_key=(*key, child), pool_size=pool)) for child in (0, 1))
    dof = n_samples - 1
    k = min(dof, dim)
    rows, cols = _bartlett_slots(k, dim)
    factors = np.zeros((n_trials, k, dim))
    factors[:, rows[:k], cols[:k]] = np.sqrt(
        chi_rng.chisquare(dof - np.arange(k, dtype=float), size=(n_trials, k)))
    factors[:, rows[k:], cols[k:]] = normal_rng.standard_normal((n_trials, len(rows) - k))
    return factors.swapaxes(-1, -2) @ factors / dof


@functools.cache
def _bartlett_slots(k: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the entries of a k x dim Bartlett factor: the diagonal, then
    the entries right of it in row order.  Built once per shape, so read-only."""
    slots = tuple(np.r_[:k, i] for i in np.triu_indices(k, 1, dim))
    for index in slots:
        index.flags.writeable = False
    return slots


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (K, n, n) stack are positive definite, by one Cholesky over all of them.

    Column j's pivot is eliminated from every matrix at once, n steps in all; a
    matrix is positive definite when every pivot is positive.  Matrices that
    failed carry on with pivot 1, and their values no longer matter.
    """
    rest = stack.copy()
    definite = np.ones(len(stack), dtype=bool)
    with np.errstate(all="ignore"):  # the carried-on matrices may overflow
        for j in range(stack.shape[-1]):
            pivot = rest[:, j, j]
            definite &= pivot > 0.0
            column = rest[:, j + 1:, j] / np.where(definite, pivot, 1.0)[:, None]
            rest[:, j + 1:, j + 1:] -= column[:, :, None] * rest[:, None, j, j + 1:]
    return definite


def population_measurements(cov: np.ndarray) -> np.ndarray:
    """The (..., 18) variances v^T sigma v of a (..., 6, 6) array.

    Arrays are read as symplectic_eigenvalues reads them: symmetrized, NumericalError "not a
    state" if an entry is not finite.  Any other trailing shape raises "expected a three-mode
    state".  Noise-free for a state; for a sample covariance, the sample variances.
    """
    if np.shape(cov)[-2:] != (6, 6):
        raise ValueError("expected a three-mode state")
    return _variances(_as_array(cov))


def _variances(cov: np.ndarray) -> np.ndarray:
    """The (..., 18) variances v^T sigma v of a symmetric (..., 6, 6) array, unchecked."""
    return ((_COMBO_MATRIX @ cov) * _COMBO_MATRIX).sum(axis=-1)


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
    return _assemble(var)


def _assemble(var: np.ndarray) -> np.ndarray:
    """The (..., 6, 6) matrices of (..., 18) variances, unchecked, each exactly symmetric."""
    out = np.zeros(var.shape[:-1] + (6, 6))
    out[..., _SINGLES, _SINGLES] = var[..., :6]
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
        kept = set(self.accepted)
        return tuple(i for i in range(self.n_trials) if i not in kept)


def reconstruct_trials(
    cm_true: np.ndarray,
    n_samples: int = 100_000,
    n_trials: int = 3,
    seed: int = 0,
) -> TrialStatistics:
    """Repeat sample -> measure -> reconstruct -> steering, then aggregate.

    Each trial's sample covariance of n_samples records is one exact draw,
    equal in distribution to that of the table pipeline (sample_quadratures,
    then measure_set), so the cost of a trial does not depend on n_samples.
    Trial i is the i-th segment of the seed's two streams (see
    _bartlett_covariances) whatever n_trials is, and every value equals that
    of the trial computed alone.  One Cholesky factor per trial gives the
    spectra, bit for bit those of symplectic_eigenvalues, and serves the G of
    the accepted trials, bit for bit those of steering_stack; no rejected
    trial is factored for G.  Trials below the floor (min symplectic
    eigenvalue < REJECT_NU_FLOOR, or 0 when the factorization fails, which
    one batched test then decides for every row at once, or when a measured
    variance rounds below 0) are recorded and excluded from the statistics;
    nothing is repaired or projected.  mean and std of the accepted trials'
    G equal np.mean and np.std(ddof=1) bit for bit.

    Raises
    ------
    RuntimeError
        If fewer than 2 trials survive (a standard deviation needs at least
        two accepted trials).  The message counts the rejected trials that
        are not positive definite and those below the floor, and gives the
        largest rejected min symplectic eigenvalue.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials for a standard deviation")
    root = _sampling_root(cm_true, n_samples)
    if root.shape != (6, 6):
        raise ValueError("expected a three-mode state")
    cov_z = _bartlett_covariances(n_samples, root.shape[0], n_trials, seed)

    var = _variances(_sample_covariances(root, cov_z))
    stack = _assemble(var)
    stack.flags.writeable = False

    definite = slice(None)
    try:
        low = _cholesky(stack)
    except NumericalError:  # some matrix is not a state: test every row at once
        definite = _positive_definite(stack)
        low = _cholesky(stack[definite])
    nu_min = np.zeros(n_trials)  # stays 0 where a matrix is not positive definite
    nu_min[definite] = _factor_spectrum(low).min(axis=-1)
    nu_min[(var < 0.0).any(axis=-1)] = 0.0  # and where a variance rounds below 0: no state's
    kept = nu_min >= REJECT_NU_FLOOR
    accepted = kept.nonzero()[0]

    if len(accepted) < 2:
        rejected = nu_min[~kept]
        singular = np.count_nonzero(rejected == 0.0)
        raise RuntimeError(
            f"only {len(accepted)} of {n_trials} trials reconstructed a physical "
            f"matrix (floor {REJECT_NU_FLOOR}); {singular} not positive definite (nu_min=0), "
            f"{rejected.size - singular} below the floor, "
            f"largest rejected nu_min={rejected.max():.4f}"
        )

    values = _g(_factor(stack[accepted], low[kept[definite]]))  # ordering 0 is low's
    mean = values.sum(axis=0) / len(accepted)  # the steps of np.mean and np.std(ddof=1)
    dev = values - mean
    dev *= dev
    std = np.sqrt(dev.sum(axis=0) / (len(accepted) - 1))
    return TrialStatistics(
        n_samples=n_samples,
        n_trials=n_trials,
        seed=seed,
        matrices=stack,
        min_symplectic_eigenvalues=tuple(nu_min.tolist()),
        accepted=tuple(accepted.tolist()),
        g=values,
        mean=dict(zip(DIRECTIONS, mean.tolist())),
        std=dict(zip(DIRECTIONS, std.tolist())),
    )
