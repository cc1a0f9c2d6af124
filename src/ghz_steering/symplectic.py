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

_NOT_A_STATE = "not a state: covariance matrix is not positive definite"


class NumericalError(ValueError):
    """A numerical guard failed: a matrix that should be a covariance matrix
    is not finite or not positive definite, or its entries are too large for
    the eigensolver."""


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 over the last two axes, formed without overflow.

    Halving before adding keeps every entry of a finite input finite, also
    entries near the largest float, where m + m^T would overflow to inf.
    """
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


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


def _as_array(cm: np.ndarray, single: bool = False) -> np.ndarray:
    """The one ingest check: an array of shape (..., 2N, 2N), N >= 1 ((2N, 2N) if single), symmetrized.
    ValueError naming any other shape; NumericalError "not a state" if an entry is not finite."""
    m = np.asarray(cm, dtype=float)
    if (m.ndim < 2 or (single and m.ndim > 2) or m.shape[-1] != m.shape[-2]
            or m.shape[-1] == 0 or m.shape[-1] % 2):
        form = "(2N, 2N)" if single else "(..., 2N, 2N)"
        raise ValueError(f"expected covariance input of shape {form}, N >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericalError(_NOT_A_STATE)
    return symmetric_part(m)


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


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix, ascending.

    Takes one matrix, shape (2N, 2N), or a stack of them with any leading
    shape (..., 2N, 2N), and returns shape (..., N).  With sigma = L L^T
    (Cholesky), M = L^T Omega L is similar to Omega sigma, so its
    eigenvalues are +-i nu.  One and two modes take a closed form in L and
    M, each nu to a few eps relative, also when two coincide.  From three
    modes on, nu comes from the real symmetric M^T M where nu_max <= 64
    nu_min, within about eps * 64^2 = 9.1e-13 relative of the Hermitian i M,
    whose eigenvalues every other matrix takes, each nu to about eps times
    the largest.

    Raises
    ------
    ValueError
        If the input is not of shape (..., 2N, 2N), N >= 1.
    NumericalError
        If the input has a non-finite entry or is not positive definite
        (the Cholesky factorization fails): "not a state".
    """
    return _factor_spectrum(_cholesky(_as_array(cm)))


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Cholesky factors L of a stack (..., n, n); NumericalError "not a state" if one is not PD."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError(_NOT_A_STATE) from None


# Maps the flattened 4x4 M = L^T Omega L to half its self-dual part
# a = (m01 + m23, m02 - m13, m03 + m12), then half its anti-self-dual part
# b = (m01 - m23, m02 + m13, m03 - m12): row (i, j) holds the weights of m_ij.
_HALF_DUAL_PARTS = np.zeros((4, 4, 2, 3))
_HALF_DUAL_PARTS[[0, 0, 0], [1, 2, 3], :, range(3)] = 0.5
_HALF_DUAL_PARTS[[2, 1, 1], [3, 3, 2], :, range(3)] = [[0.5, -0.5], [-0.5, 0.5], [0.5, -0.5]]
_HALF_DUAL_PARTS = _HALF_DUAL_PARTS.reshape(16, 6)
_HALF_DUAL_PARTS.flags.writeable = False

# (|a|/2, |b|/2) @ _BOTH_SUMS puts nu+ = |a|/2 + |b|/2 in both columns.
_BOTH_SUMS = np.ones((2, 2))
_BOTH_SUMS.flags.writeable = False


# Largest nu_max / nu_min for which _many_mode_spectrum keeps its real route,
# whose own error in nu_min, about eps (nu_max / nu_min)^2 relative, then stays
# below eps * 64^2 = 9.1e-13.
_REAL_ROUTE_SPREAD = 64.0

# The trace of M^T M, 2 sum nu^2, that the real route needs: inside this range
# every entry of M^T M is finite and every nu^2 far above the subnormals.
_REAL_ROUTE_TRACE = (1e-280, 1e280)


def _factor_spectrum(low: np.ndarray) -> np.ndarray:
    """Ascending symplectic spectrum of L L^T from its Cholesky factors L, shape (..., 2N, 2N).

    One mode: nu = det L.  Two modes (Serafini, Illuminati and De Siena,
    J. Phys. B 37, L21, 2004): nu+ = (|a| + |b|) / 2 over the self-dual part
    a and the anti-self-dual part b of M = L^T Omega L, and nu- = det L / nu+
    (det L = Pf M), both to a few eps relative, also where nu+ = nu-.  From
    three modes on, :func:`_many_mode_spectrum`.
    """
    n = low.shape[-1] // 2
    if n > 2:
        return _many_mode_spectrum(low.swapaxes(-1, -2) @ symplectic_form(n) @ low)
    if n == 1:
        return (low[..., 0, 0] * low[..., 1, 1])[..., None]
    m = low.swapaxes(-1, -2) @ symplectic_form(2) @ low
    half_parts = (m.reshape(-1, 16) @ _HALF_DUAL_PARTS).reshape(-1, 2, 3)
    nus = np.hypot.reduce(half_parts, axis=-1) @ _BOTH_SUMS
    diag = low.diagonal(axis1=-2, axis2=-1).reshape(-1, 4)
    # det L / nu+ in an order that overflows only where nu does; min() keeps the pair ascending
    np.minimum(diag[:, 0] * diag[:, 1] / nus[:, 1] * (diag[:, 2] * diag[:, 3]), nus[:, 1],
               out=nus[:, 0])
    return nus.reshape(low.shape[:-2] + (2,))


def _many_mode_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending nu of a stack of real antisymmetric M = L^T Omega L, shape (..., 2N, 2N).

    M is normal with eigenvalues +-i nu, so the real symmetric M^T M has each
    nu^2 twice: nu is the square root of every other eigenvalue, negative
    round-off clipped to 0.  That eigensolve errs by about eps nu_max^2 in
    nu^2, so it is kept only where nu_max <= _REAL_ROUTE_SPREAD * nu_min and
    the trace of M^T M lies in _REAL_ROUTE_TRACE; each nu is then within about
    eps * _REAL_ROUTE_SPREAD**2 relative of the Hermitian route's (the rounding
    of M, about eps ||sigma|| in each nu, enters both).  Every other matrix
    takes the upper half of the eigenvalues of the Hermitian i M, each nu to
    about eps times the largest.
    """
    n = m.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):  # rows out of range go Hermitian
        squares = m.swapaxes(-1, -2) @ m
        trace = squares.trace(axis1=-2, axis2=-1)
    lowest, highest = _REAL_ROUTE_TRACE
    in_range = (lowest <= trace) & (trace <= highest)  # then |s_ij| <= max(s_ii, s_jj) is finite
    if not in_range.all():
        squares[~in_range] = 0.0
    nus = np.sqrt(np.maximum(_eigvalsh(squares)[..., 1::2], 0.0))
    hermitian = ~(in_range & (nus[..., -1] <= _REAL_ROUTE_SPREAD * nus[..., 0]))
    if hermitian.any():
        nus[hermitian] = _eigvalsh(1j * m[hermitian])[..., n:]
    return nus


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


def below_floor(cm: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (..., 2N, 2N) have min nu below their :func:`physicality_floor`.

    With f = 1 - PHYSICALITY_TOL, the fixed floor, sigma + i f Omega =
    f (sigma / f + i Omega) is positive definite exactly when sigma / f obeys
    the uncertainty relation (Simon, Mukunda and Dutta, PRA 49, 1567, 1994),
    that is min nu(sigma) > f, and every such state meets its floor.  One
    complex Cholesky factorization of the stack decides this with no spectrum.
    Only a stack it rejects gets its spectra and floors, which decide: a
    matrix may still meet a floor widened by its conditioning.  ValueError
    unless the shape is (..., 2N, 2N), N >= 1; NumericalError "not a state" if
    a matrix is not finite or not positive definite.
    """
    return _below_floor(_as_array(cm))


def _below_floor(m: np.ndarray) -> np.ndarray:
    """:func:`below_floor` of a stack m that :func:`_as_array` has read."""
    f_omega = (1.0 - PHYSICALITY_TOL) * symplectic_form(m.shape[-1] // 2)
    try:
        _cholesky(m + 1j * f_omega)
        return np.zeros(m.shape[:-2], dtype=bool)
    except NumericalError:  # not certified; the factorization raises if not a state
        nu_min = _factor_spectrum(_cholesky(m))[..., 0]
        return ~(nu_min >= physicality_floor(m, nu_min))


def is_physical(cm: np.ndarray) -> bool:
    """True when one matrix (2N, 2N) reaches its floor (see :func:`below_floor`), False
    when it is not a state; ValueError for any other shape."""
    try:
        return not _below_floor(_as_array(cm, single=True))
    except NumericalError:  # not a state
        return False


def schur_complement(cm: np.ndarray, partition: Partition) -> np.ndarray:
    """Covariance of the steered party conditioned on the steering party.

    Returns B - C^T A^{-1} C where A is the steering-party block, B the
    steered-party block, and C the cross block, in the interleaved ordering of
    the partition's own mode lists.  cm is one (2N, 2N) matrix, read by
    :func:`_as_array`.  NumericalError "not a state" unless A is positive definite.
    """
    m = _as_array(cm, single=True)
    needed = max(partition.steering + partition.steered)
    if needed >= m.shape[0] // 2:
        raise ValueError(f"partition uses mode {needed} but state has {m.shape[0] // 2} modes")
    ia = quadrature_indices(partition.steering)
    ib = quadrature_indices(partition.steered)
    blk_a = m[np.ix_(ia, ia)]
    blk_b = m[np.ix_(ib, ib)]
    cross = m[np.ix_(ia, ib)]
    _cholesky(blk_a)
    return symmetric_part(blk_b - cross.T @ np.linalg.solve(blk_a, cross))


def purity(cm: np.ndarray) -> float:
    """Purity of the Gaussian state, 1/sqrt(det sigma); equals 1 for pure states.

    Raises ValueError unless cm is one matrix of shape (2N, 2N), N >= 1, and
    NumericalError "not a state", as symplectic_eigenvalues does, unless cm is
    finite and positive definite and its determinant does not underflow.
    """
    m = _as_array(cm, single=True)
    _cholesky(m)
    det = np.linalg.det(m)
    if det <= 0:
        raise NumericalError(_NOT_A_STATE)
    return float(1.0 / np.sqrt(det))
