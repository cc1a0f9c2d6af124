"""Covariance-matrix algebra for Gaussian states of N bosonic modes.

Quadrature convention: x = a + a*, p = (a - a*)/i, so the vacuum state has
unit variance in both quadratures (shot-noise units).  All matrices use the
interleaved ordering (x1, p1, x2, p2, ...).  A state is physical when every
symplectic eigenvalue of its covariance matrix is >= 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Uncertainty-relation slack: physical means min symplectic eigenvalue >= 1 - PHYSICALITY_TOL,
# widened by the conditioning of the matrix (see physicality_floor).
PHYSICALITY_TOL = 1e-9

# Condition-number guard on the steering-party block of a Schur complement.
# No configuration in scope comes anywhere near this; exceeding it means the
# inversion would be numerically meaningless, so fail loudly instead.
CONDITION_LIMIT = 1e12

_NOT_A_STATE = "not a state: covariance matrix is not positive definite"


class NumericalError(ValueError):
    """A numerical guard failed: a block too ill-conditioned to invert, a
    matrix that should be a covariance matrix is not positive definite, or
    its entries are too large for the eigensolver."""


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 over the last two axes, formed without overflow.

    Halving before adding keeps every entry of a finite input finite, also
    entries near the largest float, where m + m^T would overflow to inf.
    """
    return 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized second moments of the quadratures of an N-mode Gaussian state.

    The wrapped array is symmetrized on ingest and frozen read-only.  No
    physicality requirement is imposed here; use :func:`is_physical`.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise ValueError("covariance matrix dimension must be 2N for N >= 1 modes")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        m = symmetric_part(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class Partition:
    """Directed bipartition: measurements on `steering` modes condition `steered` modes."""

    steering: tuple[int, ...]
    steered: tuple[int, ...]

    def __post_init__(self) -> None:
        steering = tuple(int(k) for k in self.steering)
        steered = tuple(int(k) for k in self.steered)
        if not steering or not steered:
            raise ValueError("both parties of a partition must contain at least one mode")
        if len(set(steering)) != len(steering) or len(set(steered)) != len(steered):
            raise ValueError("duplicate mode index within a party")
        if set(steering) & set(steered):
            raise ValueError("steering and steered parties must be disjoint")
        if min(steering + steered) < 0:
            raise ValueError("mode indices must be non-negative")
        object.__setattr__(self, "steering", steering)
        object.__setattr__(self, "steered", steered)


def _as_array(cm: CovarianceMatrix | np.ndarray) -> np.ndarray:
    if isinstance(cm, CovarianceMatrix):
        return cm.matrix
    return symmetric_part(np.asarray(cm, dtype=float))


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical symplectic form, the direct sum of [[0, 1], [-1, 0]] per mode.

    Built once per mode count and shared, so the array is read-only.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.flags.writeable = False
    return omega


def quadrature_indices(modes: tuple[int, ...] | list[int]) -> list[int]:
    """Row/column indices of the (x, p) pair of each listed mode."""
    return [q for m in modes for q in (2 * m, 2 * m + 1)]


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh, with a solver failure (non-finite input) raised as NumericalError."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        raise NumericalError("eigenvalue solver failed: matrix entries out of range") from None


def require_invertible(blocks: np.ndarray) -> None:
    """Guard before inverting symmetric blocks, one block or a stack (..., n, n).

    The 2-norm condition number of a symmetric block is the ratio of its
    largest to its smallest eigenvalue modulus.

    Raises
    ------
    NumericalError
        If any block is singular or its condition number exceeds CONDITION_LIMIT.
    """
    moduli = np.abs(_eigvalsh(blocks))
    smallest, largest = moduli.min(axis=-1), moduli.max(axis=-1)
    # written so that a nan modulus fails the test too, and huge moduli do not overflow
    if not np.all((smallest > 0.0) & (largest / CONDITION_LIMIT <= smallest)):
        raise NumericalError("steering party block not invertible")


def symplectic_eigenvalues(cm: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix, ascending.

    Takes one matrix, shape (2N, 2N), or a stack of them with any leading
    shape (..., 2N, 2N), and returns shape (..., N).  Every N takes the same
    route: with sigma = L L^T (Cholesky), i L^T Omega L is Hermitian and
    similar to i Omega sigma, so its eigenvalues are +-nu.  A Hermitian
    eigensolver is backward stable: each nu comes back to about machine
    epsilon times the largest one, also when two of them nearly coincide.

    Raises
    ------
    NumericalError
        If the input has a non-finite entry or is not positive definite
        (the Cholesky factorization fails): "not a state".
    """
    return _factor_spectrum(_cholesky(_require_finite(_as_array(cm))))


def _require_finite(m: np.ndarray) -> np.ndarray:
    """m itself; NumericalError "not a state" if an entry is not finite."""
    if not np.all(np.isfinite(m)):
        raise NumericalError(_NOT_A_STATE)
    return m


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Cholesky factors L of a stack (..., n, n); NumericalError "not a state" if one is not PD."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError(_NOT_A_STATE) from None


def _factor_spectrum(low: np.ndarray) -> np.ndarray:
    """Ascending symplectic spectrum of L L^T, from the +-nu eigenvalues of i L^T Omega L."""
    n = low.shape[-1] // 2
    return _eigvalsh(1j * (np.swapaxes(low, -1, -2) @ symplectic_form(n) @ low))[..., n:]


def physicality_floor(m: np.ndarray, nu_min: np.ndarray) -> np.ndarray:
    """The least admissible min symplectic eigenvalue of each matrix of a stack.

    m has shape (..., 2N, 2N) and nu_min shape (...).  The floor is
    1 - PHYSICALITY_TOL.  Where nu_min falls below it, the floor becomes
    1 - max(PHYSICALITY_TOL, eps * kappa), kappa = lambda_max / lambda_min
    the condition number of the matrix: the round-off of a computed spectrum
    grows with kappa, and on exact pure states it stays below eps * kappa / 10
    for r up to 8.  kappa is computed for those matrices only; one that is
    not positive definite gets a nan floor, which no nu_min meets.
    """
    floor = np.full(np.shape(nu_min), 1.0 - PHYSICALITY_TOL)
    low = ~(nu_min >= floor)
    if low.any():
        w = _eigvalsh(m[low])
        kappa = w[..., -1] / np.where(w[..., 0] > 0.0, w[..., 0], np.nan)
        floor[low] = 1.0 - np.maximum(PHYSICALITY_TOL, np.finfo(float).eps * kappa)
    return floor


def is_physical(cm: CovarianceMatrix | np.ndarray, tol: float | None = None) -> bool:
    """True when cm satisfies the uncertainty relation, within round-off.

    The min symplectic eigenvalue must reach 1 - tol, or, without tol, the
    condition-aware :func:`physicality_floor`.
    """
    m = _as_array(cm)
    if m.shape[0] % 2 or m.shape[0] == 0:
        return False
    try:
        nu_min = symplectic_eigenvalues(m).min()
        return bool(nu_min >= (1.0 - tol if tol is not None else physicality_floor(m, nu_min)))
    except NumericalError:  # not positive definite
        return False


def schur_complement(cm: CovarianceMatrix, partition: Partition) -> np.ndarray:
    """Covariance of the steered party conditioned on the steering party.

    Returns B - C^T A^{-1} C where A is the steering-party block, B the
    steered-party block, and C the cross block, in the interleaved ordering of
    the partition's own mode lists.
    """
    needed = max(partition.steering + partition.steered)
    if needed >= cm.n_modes:
        raise ValueError(f"partition uses mode {needed} but state has {cm.n_modes} modes")
    ia = quadrature_indices(partition.steering)
    ib = quadrature_indices(partition.steered)
    m = cm.matrix
    blk_a = m[np.ix_(ia, ia)]
    blk_b = m[np.ix_(ib, ib)]
    cross = m[np.ix_(ia, ib)]
    require_invertible(blk_a)
    return symmetric_part(blk_b - cross.T @ np.linalg.solve(blk_a, cross))


def purity(cm: CovarianceMatrix | np.ndarray) -> float:
    """Purity of the Gaussian state, 1/sqrt(det sigma); equals 1 for pure states.

    Raises NumericalError "not a state", as symplectic_eigenvalues does, unless
    cm is finite and positive definite and its determinant does not underflow.
    """
    m = _require_finite(_as_array(cm))
    _cholesky(m)
    det = np.linalg.det(m)
    if det <= 0:
        raise NumericalError(_NOT_A_STATE)
    return float(1.0 / np.sqrt(det))
