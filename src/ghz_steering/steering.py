"""Gaussian EPR steering: directed quantifiers, monogamy residuals, loss thresholds.

The quantifier for a directed bipartition comes from the symplectic spectrum
of the steered party's conditional covariance: G = max(0, -sum of ln(nu)
over conditional symplectic eigenvalues nu < 1).  G > 0 certifies steering
under Gaussian measurements; the direction matters.  This is the Gaussian
steerability of Kogias, Lee, Ragy and Adesso (PRL 114, 060403, 2015).
:func:`steering_stack` evaluates all 12 directions of a stack of three-mode
states as a (K, 12) array, from the Cholesky factors of each state in its
six mode orderings, and :func:`monogamy_stack` turns that array into the
(K, 6) monogamy residuals.  :func:`steering_report` and
:func:`monogamy_residuals` give one state's values as dicts in canonical key order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .network import MODE_NAMES, GhzConfig, build_ghz, lossy_stack
from .symplectic import (CovarianceMatrix, Partition, _cholesky, _factor_spectrum,
                         quadrature_indices, require_invertible, schur_complement,
                         symplectic_eigenvalues)

# Conditional symplectic eigenvalues this close to 1 count as exactly 1; keeps
# states sitting on the steering boundary from flickering into false positives.
BOUNDARY_CLAMP = 1e-10

# G above this threshold counts as steerable (used by threshold searches).
STEERING_EPS = 1e-8

# find_threshold evaluates the midpoints of this many bisection steps ahead
# in one stacked call: one call of 7 states costs about 1.3 calls of one.
BISECTION_LOOKAHEAD = 3

# Canonical order of the 12 directed bipartitions of (A, B, C).  "A" always
# denotes the mode that went through the lossy channel.
DIRECTIONS: tuple[str, ...] = (
    "A->B", "B->A", "A->C", "C->A", "B->C", "C->B",
    "A->BC", "BC->A", "B->AC", "AC->B", "C->AB", "AB->C",
)

# The six monogamy residuals: for each mode k, the collective-minus-pairwise
# combination with k steering (out) and k steered (in).
RESIDUAL_KEYS: tuple[str, ...] = ("A_out", "A_in", "B_out", "B_in", "C_out", "C_in")


def parse_direction(label: str) -> Partition:
    """Partition for a label like "A->B" or "BC->A" (modes A, B, C = 0, 1, 2)."""
    parts = label.split("->")
    if len(parts) != 2:
        raise ValueError(f"direction label must look like 'A->BC', got {label!r}")
    try:
        steering = tuple(MODE_NAMES.index(ch) for ch in parts[0])
        steered = tuple(MODE_NAMES.index(ch) for ch in parts[1])
    except ValueError:
        raise ValueError(f"unknown mode name in direction label {label!r}") from None
    return Partition(steering=steering, steered=steered)


def _quantifier(nus: np.ndarray) -> np.ndarray:
    """G over the last axis of conditional symplectic eigenvalues.

    Eigenvalues within BOUNDARY_CLAMP of 1 count as exactly 1, so G is a hard
    0 unless some eigenvalue is clearly below 1.
    """
    nus = np.where(np.abs(nus - 1.0) <= BOUNDARY_CLAMP, 1.0, nus)
    return np.maximum(0.0, np.where(nus < 1.0, -np.log(nus), 0.0).sum(axis=-1))


def gaussian_steering(cm: CovarianceMatrix, partition: Partition) -> float:
    """Steering quantifier of the steering party over the steered party.

    Non-negative by construction; exactly 0 when no conditional symplectic
    eigenvalue drops below 1 (after the boundary clamp).
    """
    return float(_quantifier(symplectic_eigenvalues(schur_complement(cm, partition))))


# The six mode orderings (a, b, c) of the stacked kernel and the quadrature
# order of each; every ordering gives a->b, those with a < b also ab->c and
# those with b < c also a->bc.
_ORDERINGS = tuple(itertools.permutations(range(3)))
_ORDERED = np.array([quadrature_indices(order) for order in _ORDERINGS])
_PAIR_FIRST = [k for k, (a, b, _) in enumerate(_ORDERINGS) if a < b]
_ONE_FIRST = [k for k, (_, b, c) in enumerate(_ORDERINGS) if b < c]
# The blocks require_invertible guards: each mode (_ONE) and each pair of modes (_REST).
_ONE = np.array([quadrature_indices((m,)) for m in range(3)])
_REST = np.array([quadrature_indices([k for k in range(3) if k != m]) for m in range(3)])


def _kernel_labels() -> list[str]:
    """Direction labels in the order the kernel computes them."""
    a, b, c = ([MODE_NAMES[m] for m in order] for order in zip(*_ORDERINGS))
    one_to_one = [f"{a[k]}->{b[k]}" for k in range(6)]
    two_to_one = [f"{a[k]}{b[k]}->{c[k]}" for k in _PAIR_FIRST]
    one_to_two = [f"{a[k]}->{b[k]}{c[k]}" for k in _ONE_FIRST]
    return one_to_one + two_to_one + one_to_two


# Column k of steering_stack's output is kernel column _TO_DIRECTIONS[k].
_TO_DIRECTIONS = np.array([_kernel_labels().index(label) for label in DIRECTIONS])


def steering_stack(states: np.ndarray) -> np.ndarray:
    """G of all 12 directions for a stack of three-mode covariance matrices.

    Takes symmetric matrices of shape (K, 6, 6), quadratures ordered
    (xA, pA, xB, pB, xC, pC), and returns shape (K, 12): column k is
    G(DIRECTIONS[k]).  Each value equals :func:`gaussian_steering` of that
    direction to rounding.

    With sigma in the mode order (a, b, c) factored as L L^T (Cholesky),
    the block of L below and right of a party's quadratures is the Cholesky
    factor of the conditional of the rest given that party.  So
    nu(a->b) = L22 L33 and nu(ab->c) = L44 L55 are products of diagonal
    entries: G is the log-det ratio 1/2 ln(det sigma_X / det sigma_XY) of
    Kogias et al., with no Schur complement formed or solved.  nu(a->bc) is
    the spectrum of the trailing 4x4 factor, from the Hermitian step of
    :func:`symplectic_eigenvalues`.  One batched factorization of all six
    orderings serves all 12 directions.

    Raises
    ------
    NumericalError
        "not invertible" if a steering-party block is too ill-conditioned to
        invert; otherwise "not a state" exactly when some matrix of the stack
        is not positive definite.
    """
    sigma = np.asarray(states, dtype=float)
    if sigma.ndim != 3 or sigma.shape[1:] != (6, 6):
        raise ValueError(f"expected a (K, 6, 6) stack of three-mode states, got shape {sigma.shape}")
    require_invertible(sigma[:, _ONE[:, :, None], _ONE[:, None, :]])
    require_invertible(sigma[:, _REST[:, :, None], _REST[:, None, :]])
    low = _cholesky(sigma[:, _ORDERED[:, :, None], _ORDERED[:, None, :]])  # (K, 6, 6, 6)
    diag = np.diagonal(low, axis1=-2, axis2=-1)  # (K, 6, 6): ordering, quadrature
    nus = np.ones((sigma.shape[0], 12, 2))  # a one-mode conditional's second entry stays 1: no term
    nus[:, :6, 0] = diag[..., 2] * diag[..., 3]
    nus[:, 6:9, 0] = diag[:, _PAIR_FIRST, 4] * diag[:, _PAIR_FIRST, 5]
    nus[:, 9:] = _factor_spectrum(low[:, _ONE_FIRST, 2:, 2:])
    return _quantifier(nus)[:, _TO_DIRECTIONS]


def steering_report(cm: CovarianceMatrix) -> dict[str, float]:
    """G of every directed bipartition of a three-mode state, keyed in DIRECTIONS order."""
    if cm.n_modes != 3:
        raise ValueError("steering report is defined for three-mode states")
    return dict(zip(DIRECTIONS, steering_stack(cm.matrix[None])[0].tolist()))


# Row k holds the columns of G(collective), G(pair 1) and G(pair 2) of the
# residual RESIDUAL_KEYS[k]: for mode m, steering out of m or into m.
_RESIDUALS = np.array([[DIRECTIONS.index(label) for label in terms] for terms in (
    ("A->BC", "A->B", "A->C"), ("BC->A", "B->A", "C->A"),
    ("B->AC", "B->A", "B->C"), ("AC->B", "A->B", "C->B"),
    ("C->AB", "C->A", "C->B"), ("AB->C", "A->C", "B->C"),
)])


def monogamy_stack(g: np.ndarray) -> np.ndarray:
    """Monogamy residuals of steering_stack output: shape (..., 12) -> (..., 6).

    Column k is RESIDUAL_KEYS[k]: G(collective) - G(pair 1) - G(pair 2),
    e.g. A_out = G(A->BC) - G(A->B) - G(A->C).  All are >= 0 for GHZ states.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-1:] != (len(DIRECTIONS),):
        raise ValueError(f"expected G of the 12 directions on the last axis, got shape {g.shape}")
    return g[..., _RESIDUALS[:, 0]] - g[..., _RESIDUALS[:, 1]] - g[..., _RESIDUALS[:, 2]]


def monogamy_residuals(cm: CovarianceMatrix) -> dict[str, float]:
    """Monogamy residuals of a three-mode state, keyed in RESIDUAL_KEYS order."""
    g = list(steering_report(cm).values())
    return dict(zip(RESIDUAL_KEYS, monogamy_stack(g).tolist()))


def find_threshold(config: GhzConfig, direction: str, tol: float = 1e-4) -> float:
    """Efficiency at which a direction switches between unsteerable and steerable.

    Bisects G(eta) - STEERING_EPS on the bracket [1e-6, 1].  Assumes G is
    monotone in eta across the bracket for the given direction (checked on a
    grid by the test suite, not enforced here).  The order of modes within a
    party does not matter: "CB->A" is "BC->A".

    Raises
    ------
    ValueError
        If tol is not positive (bisection would never stop), or both bracket
        ends are on the same side ("no threshold in range"), e.g. directions
        steerable at any nonzero efficiency.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    parse_direction(direction)  # validates the label
    column = DIRECTIONS.index("->".join("".join(sorted(p)) for p in direction.split("->")))
    lossless = build_ghz(config)

    def steerable(etas: list[float]) -> list[bool]:
        g = steering_stack(lossy_stack(lossless, 0, etas))[:, column]
        return (g - STEERING_EPS > 0).tolist()

    lo, hi = 1e-6, 1.0
    s_lo, s_hi = steerable([lo, hi])
    if s_lo == s_hi:
        raise ValueError(f"no threshold in range for direction {direction!r}")
    known: dict[float, bool] = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            ahead = _midpoints(lo, hi, BISECTION_LOOKAHEAD)
            known.update(zip(ahead, steerable(ahead)))
        if known[mid] == s_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint bisection can visit in its next `depth` steps from [lo, hi]."""
    if depth == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, depth - 1), *_midpoints(mid, hi, depth - 1)]
