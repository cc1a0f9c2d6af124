"""Gaussian EPR steering: directed quantifiers, monogamy residuals, loss sweeps.

The quantifier for a directed bipartition is computed from the symplectic
spectrum of the steered party's conditional covariance (Schur complement):
G = max(0, -sum of ln(nu) over conditional symplectic eigenvalues nu < 1).
G > 0 certifies steering under Gaussian measurements; the direction matters.
This is the Gaussian steerability of Kogias, Lee, Ragy and Adesso (PRL 114,
060403, 2015).  :func:`steering_stack` evaluates all 12 directions of a
three-mode state for a whole stack of states at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import MODE_NAMES, GhzConfig, build_ghz, build_states, lossy_stack
from .symplectic import (
    CovarianceMatrix,
    Partition,
    one_mode_spectrum,
    quadrature_indices,
    require_invertible,
    schur_complement,
    symmetric_part,
    symplectic_eigenvalues,
)

# Conditional symplectic eigenvalues this close to 1 count as exactly 1; keeps
# states sitting on the steering boundary from flickering into false positives.
BOUNDARY_CLAMP = 1e-10

# G above this threshold counts as steerable (used by threshold searches).
STEERING_EPS = 1e-8

# find_threshold evaluates the midpoints of this many bisection steps ahead
# in one stacked call: one call of 7 states costs about 1.5 calls of one.
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


# Index tables of the stacked kernel.  For each mode m (A, B, C): _ONE holds
# the quadratures of m, _REST those of the other two modes in order.  The
# blocks they cut serve both ways: the 1->2 and 1->1 directions steer with
# the _ONE block, the 2->1 directions with the _REST block.
_REST_MODES = tuple(tuple(k for k in range(3) if k != m) for m in range(3))
_ONE = np.array([quadrature_indices((m,)) for m in range(3)])
_REST = np.array([quadrature_indices(rest) for rest in _REST_MODES])


def _kernel_labels() -> list[str]:
    """Direction labels in the order the kernel computes them."""
    rest = ["".join(MODE_NAMES[k] for k in modes) for modes in _REST_MODES]
    one_to_one = [f"{MODE_NAMES[m]}->{MODE_NAMES[k]}" for m in range(3) for k in _REST_MODES[m]]
    two_to_one = [f"{rest[m]}->{MODE_NAMES[m]}" for m in range(3)]
    one_to_two = [f"{MODE_NAMES[m]}->{rest[m]}" for m in range(3)]
    return one_to_one + two_to_one + one_to_two


# Column k of steering_stack's output is kernel column _TO_DIRECTIONS[k].
_TO_DIRECTIONS = np.array([_kernel_labels().index(label) for label in DIRECTIONS])


def steering_stack(states: np.ndarray) -> np.ndarray:
    """G of all 12 directions for a stack of three-mode covariance matrices.

    Takes symmetric matrices of shape (K, 6, 6), quadratures ordered
    (xA, pA, xB, pB, xC, pC), and returns shape (K, 12): column k is
    G(DIRECTIONS[k]).  Each value equals :func:`gaussian_steering` of that
    direction to rounding.

    The three directions in which one mode m steers share one conditional,
    that of the other two modes given m: the 1->2 direction takes its whole
    spectrum, each 1->1 direction the spectrum of one 2x2 diagonal block.

    Raises
    ------
    NumericalError
        If a steering-party block is too ill-conditioned to invert, or a
        conditional covariance is not positive definite.
    """
    sigma = np.asarray(states, dtype=float)
    if sigma.ndim != 3 or sigma.shape[1:] != (6, 6):
        raise ValueError(f"expected a (K, 6, 6) stack of three-mode states, got shape {sigma.shape}")
    k = sigma.shape[0]
    one = sigma[:, _ONE[:, :, None], _ONE[:, None, :]]  # (K, 3, 2, 2): mode m
    rest = sigma[:, _REST[:, :, None], _REST[:, None, :]]  # (K, 3, 4, 4): the other two
    cross = sigma[:, _ONE[:, :, None], _REST[:, None, :]]  # (K, 3, 2, 4)
    cross_t = np.swapaxes(cross, -1, -2)
    require_invertible(one)
    require_invertible(rest)
    one_to_two = symmetric_part(rest - cross_t @ np.linalg.solve(one, cross))
    two_to_one = symmetric_part(one - cross @ np.linalg.solve(rest, cross_t))

    single = np.concatenate([
        np.stack([one_to_two[..., :2, :2], one_to_two[..., 2:, 2:]], axis=2).reshape(k, 6, 2, 2),
        two_to_one,
    ], axis=1)  # (K, 9, 2, 2): the 1->1 then the 2->1 conditionals
    nus = np.ones((k, 12, 2))  # a one-mode conditional's second entry stays 1: no term
    nus[:, :9, 0] = one_mode_spectrum(single)
    nus[:, 9:] = symplectic_eigenvalues(one_to_two)
    return _quantifier(nus)[:, _TO_DIRECTIONS]


@dataclass(frozen=True)
class SteeringReport:
    """All 12 directed steering values of a three-mode state.

    eta records the channel efficiency the state was built with, when known.
    """

    g: dict[str, float]
    eta: float | None = None

    def __post_init__(self) -> None:
        if tuple(self.g.keys()) != DIRECTIONS:
            raise ValueError("report must contain exactly the 12 canonical directions, in order")


@dataclass(frozen=True)
class MonogamyReport:
    """The six residuals of the pairwise-vs-collective steering inequalities."""

    residuals: dict[str, float]

    def __post_init__(self) -> None:
        if tuple(self.residuals.keys()) != RESIDUAL_KEYS:
            raise ValueError("residuals must contain exactly the six canonical keys, in order")


def steering_report(cm: CovarianceMatrix, eta: float | None = None) -> SteeringReport:
    """Evaluate the quantifier for every directed bipartition of a 3-mode state."""
    if cm.n_modes != 3:
        raise ValueError("steering report is defined for three-mode states")
    return SteeringReport(g=dict(zip(DIRECTIONS, steering_stack(cm.matrix[None])[0].tolist())),
                          eta=eta)


def residuals_from_report(report: SteeringReport) -> MonogamyReport:
    """Monogamy residuals from an existing report; all must be >= 0 for GHZ states."""
    g = report.g
    res = {
        "A_out": g["A->BC"] - g["A->B"] - g["A->C"],
        "A_in": g["BC->A"] - g["B->A"] - g["C->A"],
        "B_out": g["B->AC"] - g["B->A"] - g["B->C"],
        "B_in": g["AC->B"] - g["A->B"] - g["C->B"],
        "C_out": g["C->AB"] - g["C->A"] - g["C->B"],
        "C_in": g["AB->C"] - g["A->C"] - g["B->C"],
    }
    return MonogamyReport(residuals=res)


def monogamy_residuals(cm: CovarianceMatrix) -> MonogamyReport:
    """Monogamy residuals of a three-mode state."""
    return residuals_from_report(steering_report(cm))


@dataclass(frozen=True)
class SweepPoint:
    """One efficiency point of a loss sweep."""

    eta: float
    report: SteeringReport
    residuals: MonogamyReport


def sweep_eta(config: GhzConfig, etas: list[float] | tuple[float, ...] | np.ndarray) -> list[SweepPoint]:
    """Steering report and monogamy residuals for each channel efficiency.

    The eta field of config is overridden point by point; the squeezing and
    the network are held fixed.  All points are one :func:`steering_stack`
    call.
    """
    etas = [float(eta) for eta in etas]
    g = steering_stack(build_states(config, etas))
    points = []
    for eta, row in zip(etas, g.tolist()):
        report = SteeringReport(g=dict(zip(DIRECTIONS, row)), eta=eta)
        points.append(SweepPoint(eta=eta, report=report, residuals=residuals_from_report(report)))
    return points


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
