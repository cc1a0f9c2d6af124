"""Steering values computed apart from the package, to check its outputs against.

The output checks compare the package's G values with these, so that a
steering kernel that is fast but wrong (wrong scale, swapped directions,
wrong Schur block) fails its ops.  Only the documented conventions are
shared with the package: vacuum variance 1; inputs squeezed in x, p, x with
variances e^{-2r}; a beam splitter of power transmittance t acting on a mode
pair as [[sqrt(1-t), sqrt(t)], [sqrt(t), -sqrt(1-t)]]; modes 1, 2 mixed at
t1, mode 2 sign-flipped, modes 2, 3 mixed at t2; output order (A, B, C);
pure loss eta on mode A.  The arithmetic is separate: the x and p blocks are
built in mode space (the network does not mix x with p), every eta of a
sweep is done in one batched call, and symplectic eigenvalues are the moduli
of the eigenvalues of i Omega M rather than closed forms.

At r <= 1.7 the values agree with the package to about 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

DIRECTIONS = (
    "A->B", "B->A", "A->C", "C->A", "B->C", "C->B",
    "A->BC", "BC->A", "B->AC", "AC->B", "C->AB", "AB->C",
)


def _mode_mixer(t1: float, t2: float) -> np.ndarray:
    """3x3 mode-space matrix of the preparation network, output modes (A, B, C)."""
    c1, s1 = math.sqrt(1.0 - t1), math.sqrt(t1)
    c2, s2 = math.sqrt(1.0 - t2), math.sqrt(t2)
    first = np.array([[c1, s1, 0.0], [s1, -c1, 0.0], [0.0, 0.0, 1.0]])
    flip = np.diag([1.0, -1.0, 1.0])
    second = np.array([[1.0, 0.0, 0.0], [0.0, c2, s2], [0.0, s2, -c2]])
    return second @ flip @ first


def covariance(r: float, t1: float, t2: float, etas) -> np.ndarray:
    """(len(etas), 6, 6) covariance matrices, quadratures ordered xA, pA, xB, pB, xC, pC."""
    etas = np.asarray(etas, dtype=float)
    mix = _mode_mixer(t1, t2)
    squeeze = np.array([math.exp(-2 * r), math.exp(2 * r), math.exp(-2 * r)])
    blocks = [mix @ np.diag(squeeze) @ mix.T, mix @ np.diag(1.0 / squeeze) @ mix.T]  # x, p
    # Loss on A: its row and column scale by sqrt(eta), its variance gains 1 - eta.
    keep = np.ones((len(etas), 3))
    keep[:, 0] = np.sqrt(etas)
    sigma = np.zeros((len(etas), 6, 6))
    for q, block in enumerate(blocks):
        lossy = keep[:, :, None] * block * keep[:, None, :]
        lossy[:, 0, 0] += 1.0 - etas
        sigma[:, q::2, q::2] = lossy
    return sigma


def _quadratures(modes: str) -> list[int]:
    return [2 * "ABC".index(m) + q for m in modes for q in (0, 1)]


def steering(sigma: np.ndarray) -> dict[str, np.ndarray]:
    """G of every direction for a (k, 6, 6) stack: -sum ln nu over conditional nu < 1."""
    out = {}
    for label in DIRECTIONS:
        steerer, steered = label.split("->")
        ia, ib = _quadratures(steerer), _quadratures(steered)
        a = sigma[:, ia][:, :, ia]
        b = sigma[:, ib][:, :, ib]
        c = sigma[:, ia][:, :, ib]
        cond = b - np.swapaxes(c, 1, 2) @ np.linalg.solve(a, c)
        omega = np.kron(np.eye(len(steered)), [[0.0, 1.0], [-1.0, 0.0]])
        moduli = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cond)), axis=1)
        nus = moduli[:, ::2]  # each symplectic eigenvalue appears as +nu and -nu
        out[label] = -np.where(nus < 1.0, np.log(nus), 0.0).sum(axis=1)
    return out


def close(value: float, expected: float) -> bool:
    """Package value against the oracle: 1e-8 absolute plus 1e-8 relative."""
    return abs(value - expected) <= 1e-8 * (1.0 + abs(expected))
