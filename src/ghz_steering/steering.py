"""Gaussian EPR steering: directed quantifiers, monogamy residuals, loss thresholds.

The quantifier for a directed bipartition comes from the symplectic spectrum
of the steered party's conditional covariance: G = max(0, -sum of ln(nu)
over conditional symplectic eigenvalues nu < 1).  G > 0 certifies steering
under Gaussian measurements; the direction matters.  This is the Gaussian
steerability of Kogias, Lee, Ragy and Adesso (PRL 114, 060403, 2015).
:func:`steering_stack` evaluates all 12 directions of a stack of three-mode
states as a (K, 12) array, with no eigensolver, from the Cholesky factors of
each state in the three cyclic mode orderings (A, B, C), (B, C, A) and
(C, A, B) and the table of principal minors they give.  :func:`monogamy_stack`
turns that array into the (K, 6) monogamy residuals.  :func:`steering_report` and
:func:`monogamy_residuals` give one state's values as dicts in canonical key order.
:func:`find_threshold` reads exact loss thresholds off the same factors.
"""

from __future__ import annotations

import math

import numpy as np

from .network import MODE_NAMES, GhzConfig, build_states
from .symplectic import (CovarianceMatrix, Partition, _cholesky, _factor_spectrum,
                         _require_finite, quadrature_indices, schur_complement,
                         symplectic_eigenvalues)

# Conditional symplectic eigenvalues this close to 1 count as exactly 1; keeps
# states sitting on the steering boundary from flickering into false positives.
BOUNDARY_CLAMP = 1e-10

# G above this counts as steerable in `check`'s nullity test.
STEERING_EPS = 1e-8

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


def _clamp(nus: np.ndarray) -> np.ndarray:
    """Conditional symplectic eigenvalues, those within BOUNDARY_CLAMP of 1 set to exactly 1."""
    return np.where(np.abs(nus - 1.0) <= BOUNDARY_CLAMP, 1.0, nus)


def _quantifier(nus: np.ndarray) -> np.ndarray:
    """G over the last axis of conditional nu: 0 unless a nu is below 1 after :func:`_clamp`."""
    return 0.0 - np.log(np.minimum(_clamp(nus), 1.0)).sum(axis=-1)  # not -sum: G = 0 is +0.0


def gaussian_steering(cm: CovarianceMatrix, partition: Partition) -> float:
    """Steering quantifier of the steering party over the steered party.

    Non-negative by construction; exactly 0 when no conditional symplectic
    eigenvalue drops below 1 (after the boundary clamp).
    """
    return float(_quantifier(symplectic_eigenvalues(schur_complement(cm, partition))))


# The three cyclic mode orderings of the stacked kernel and the quadrature order
# of each.  Ordering o lists mode o first and leads with the single (o) and the
# pair (o, o + 1), so every mode and every pair of modes leads exactly one.
_ORDERINGS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_QUADRATURES = np.array([quadrature_indices(order) for order in _ORDERINGS])
_ORDERED = 6 * _QUADRATURES[:, :, None] + _QUADRATURES[:, None, :]  # in a flattened 6x6 state
_NEXT = [1, 2, 0]  # ordering o + 1 leads with the second mode of ordering o


def _column(direction: str) -> int:
    """Column of DIRECTIONS of a label whose parties list their modes in any order ("CB->A")."""
    label = "->".join("".join(sorted(party)) for party in direction.split("->"))
    if label not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}, expected one of {', '.join(DIRECTIONS)}")
    return DIRECTIONS.index(label)


# Ordering o = (a, b, c) reads row o: a->b, ab->c, b->a and a->bc.
_READ = np.array([[_column(d) for d in (f"{a}->{b}", f"{a}{b}->{c}", f"{b}->{a}", f"{a}->{b}{c}")]
                  for a, b, c in ([MODE_NAMES[m] for m in order] for order in _ORDERINGS)])
# P(X) of each direction's steering party X is minor [:, _X_ORDERING, _X_LAST]:
# (o, 0) for a->b and a->bc, (o, 1) for ab->c, and P(b) at (o + 1, 0) for b->a.
_X_ORDERING, _X_LAST = np.zeros((2, len(DIRECTIONS)), dtype=int)
_X_ORDERING[_READ] = [[o, o, _NEXT[o], o] for o in range(3)]
_X_LAST[_READ] = [0, 1, 0, 0]


def _conditionals(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional nu (K, 12, 2) in DIRECTIONS order and the principal minors (K, 3, 3)
    of each state, from its Cholesky factors in the three cyclic orderings.

    Minor [:, o, j] is P(S) = sqrt(det sigma_S) for the first j + 1 modes S of
    ordering o.
    """
    sigma = np.asarray(states, dtype=float)
    if sigma.ndim != 3 or sigma.shape[1:] != (6, 6):
        raise ValueError(f"expected a (K, 6, 6) stack of three-mode states, got shape {sigma.shape}")
    _require_finite(sigma)
    low = _cholesky(np.take(sigma.reshape(-1, 36), _ORDERED, axis=1))
    diag = np.diagonal(low, axis1=-2, axis2=-1)
    pairs = diag[..., 0::2] * diag[..., 1::2]  # the diagonal product of each mode's pair
    minors = np.multiply.accumulate(pairs, axis=-1)
    nus = np.ones((sigma.shape[0], 12, 2))  # a one-mode conditional's second entry stays 1: no term
    nus[:, _READ[:, :2], 0] = pairs[:, :, 1:]
    nus[:, _READ[:, 2], 0] = minors[:, :, 1] / minors[:, _NEXT, 0]
    nus[:, _READ[:, 3]] = _factor_spectrum(low[:, :, 2:, 2:])
    return nus, minors


def steering_stack(states: np.ndarray) -> np.ndarray:
    """G of all 12 directions for a stack of three-mode covariance matrices.

    Takes symmetric matrices of shape (K, 6, 6), quadratures ordered
    (xA, pA, xB, pB, xC, pC), and returns shape (K, 12): column k is
    G(DIRECTIONS[k]).  Each value equals :func:`gaussian_steering` of that
    direction to rounding.

    With sigma in a cyclic mode order (a, b, c) factored as L L^T (Cholesky),
    the block of L below and right of a party's quadratures is the Cholesky
    factor of the conditional of the rest given that party, and the product
    of L's leading diagonal entries is P(S) = sqrt(det sigma_S) of the
    leading modes S.  The three orderings give P of every mode, every pair
    and the whole state.  A one-mode steered party has nu(X->y) =
    P(Xy) / P(X), the log-det ratio G = 1/2 ln(det sigma_X / det sigma_Xy) of
    Kogias et al., with no Schur complement formed or solved.  Where the
    ordering lists X and then y, that ratio is a diagonal product,
    nu(a->b) = L22 L33 and nu(ab->c) = L44 L55; b->a divides P(ab) by P(b).
    nu(a->bc) is the spectrum of the trailing 4x4 factor, by the two-mode
    closed form of :func:`symplectic_eigenvalues`: the norms of the
    self-dual and anti-self-dual parts of L^T Omega L, and det L.  One
    batched factorization of the three orderings serves all 12 directions,
    and no direction needs an eigensolver.

    Raises
    ------
    NumericalError
        "not a state" exactly when some matrix of the stack has a non-finite
        entry or is not positive definite.
    """
    return _quantifier(_conditionals(states)[0])


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
    """Exact efficiency in (0, 1) at which a direction switches on or off.

    G changes sign where q(eta) = det sigma_X - det sigma_XY = det sigma_X *
    (1 - prod nu^2) does, nu the steered party's conditional spectrum, clamped
    as in G.  Every minor of sigma(eta) is quadratic in eta, so one kernel call
    at eta = 0, 1/2, 1 fixes q.  B->AC and C->AB take det sigma_X *
    prod(1 - nu^2), 0 at both ends (A is vacuum at 0, the state pure at 1):
    they never switch inside.  "CB->A" is "BC->A".  tol > 0 is an accuracy
    bound the exact root always meets.  ValueError for a direction outside
    DIRECTIONS, for tol <= 0, and "no threshold in range" unless G changes
    sign exactly once inside (0, 1): q == 0 (r = 0) raises, and so does an
    onset at eta = 0, where G grows like eta.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    k = _column(direction)
    nus, minors = _conditionals(build_states(config, [0.0, 0.5, 1.0]))
    nus = _clamp(nus[:, k])
    det_x = minors[:, _X_ORDERING[k], _X_LAST[k]] ** 2
    product_form = DIRECTIONS[k] in ("B->AC", "C->AB")
    q = det_x * (np.prod(1.0 - nus**2, axis=-1) if product_form else 1.0 - np.prod(nus**2, axis=-1))
    eta = _sign_change(*q.tolist())
    if eta is None:
        raise ValueError(f"no threshold in range for direction {direction!r}")
    return eta


def _sign_change(q0: float, qh: float, q1: float) -> float | None:
    """The one simple root in (0, 1) of the quadratic through (0, q0), (1/2, qh), (1, q1), or None.

    In t = eta / (1 - eta) it is (1 - eta)^2 (q1 t^2 + (4 qh - q0 - q1) t + q0), so a
    root at eta = 0 is t = 0 exactly and one at eta = 1 lowers the degree.  The
    roots in t come from the quadratic formula in the form that cancels no digits.
    Two roots inside, or a double one that round-off splits or makes complex, give None.
    """
    a, b, c = q1, 4.0 * qh - q0 - q1, q0
    if c == 0.0:  # t = 0 is a root exactly, and -b / a the other
        roots = [-b / a] if a != 0.0 else []
    elif a == 0.0:  # the root at eta = 1 has gone: b t + c is left
        roots = [-c / b] if b != 0.0 else []
    elif (disc := b * b - 4.0 * a * c) >= 0.0:
        h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [h / a, c / h]
    else:
        roots = []
    inside = [t for t in roots if t > 0.0]
    return inside[0] / (1.0 + inside[0]) if len(inside) == 1 else None
