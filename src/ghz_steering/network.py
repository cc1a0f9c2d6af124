"""Three-mode GHZ-type state preparation and the lossy transmission channel.

The preparation network squeezes three vacua (x, p, x), mixes beams one and
two on a 1:2 beam splitter, flips the sign of beam two, then mixes beams two
and three on a balanced beam splitter.  Output mode order is (A, B, C).
Transmission loss acts on mode A: the state that actually reaches the
analysis stage carries A' = sqrt(eta) A + sqrt(1 - eta) vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import CovarianceMatrix, _as_array, symplectic_form

# Tolerance for the defining relation S Omega S^T = Omega.
SYMPLECTIC_TOL = 1e-12


def r_to_squeezing_db(r: float) -> float:
    """Squeezing strength in dB: -10*log10(e^{-2r}) noise reduction below shot noise."""
    return 20.0 * r / math.log(10.0)


def squeezing_db_to_r(db: float) -> float:
    """Inverse of :func:`r_to_squeezing_db`."""
    return db * math.log(10.0) / 20.0


@dataclass(frozen=True)
class GhzConfig:
    """Experiment description: squeezing strengths, network transmittances, loss.

    r1, r3 squeeze x; r2 squeezes p.  t1 and t2 are the power transmittances
    of the two beam splitters.  eta is the channel efficiency on mode A.
    """

    r1: float = 0.339
    r2: float = 0.339
    r3: float = 0.339
    t1: float = 1.0 / 3.0
    t2: float = 0.5
    eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("t1", "t2", "eta"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @classmethod
    def from_squeezing_db(cls, db: float, **kwargs) -> "GhzConfig":
        """Build a config with equal squeezing on all three inputs, given in dB."""
        r = squeezing_db_to_r(db)
        return cls(r1=r, r2=r, r3=r, **kwargs)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Linear quadrature transform S with S Omega S^T = Omega."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("symplectic matrix must be square with even dimension")
        omega = symplectic_form(m.shape[0] // 2)
        if np.abs(m @ omega @ m.T - omega).max() > SYMPLECTIC_TOL:
            raise ValueError("matrix does not preserve the symplectic form")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class QuadCombo:
    """Signed combination of quadratures, e.g. x_A - x_B or p_A + p_B + p_C.

    Each term is (mode index, "x" or "p", +1 or -1).
    """

    terms: tuple[tuple[int, str, int], ...]

    def __post_init__(self) -> None:
        terms = tuple((int(m), q, int(s)) for m, q, s in self.terms)
        if not terms:
            raise ValueError("combination needs at least one term")
        seen = set()
        for mode, quad, sign in terms:
            if mode < 0:
                raise ValueError("mode indices must be non-negative")
            if quad not in ("x", "p"):
                raise ValueError(f"quadrature must be 'x' or 'p', got {quad!r}")
            if sign not in (1, -1):
                raise ValueError("signs must be +1 or -1")
            if (mode, quad) in seen:
                raise ValueError(f"duplicate term for mode {mode} quadrature {quad}")
            seen.add((mode, quad))
        object.__setattr__(self, "terms", terms)

    def indicator(self, n_modes: int) -> np.ndarray:
        """Coefficient vector of the combination over 2N interleaved quadratures."""
        vec = np.zeros(2 * n_modes)
        for mode, quad, sign in self.terms:
            if mode >= n_modes:
                raise ValueError(f"combination uses mode {mode} but state has {n_modes} modes")
            vec[2 * mode + (0 if quad == "x" else 1)] = float(sign)
        return vec


def mode_matrix_symplectic(mode_matrix: np.ndarray) -> SymplecticMatrix:
    """Embed a real orthogonal mode-space matrix as the same action on x and p sectors."""
    r = np.asarray(mode_matrix, dtype=float)
    n = r.shape[0]
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = r
    s[1::2, 1::2] = r
    return SymplecticMatrix(s)


def _beam_splitter_modes(n_modes: int, k: int, l: int, t: float) -> np.ndarray:
    """Mode-space matrix of a beam splitter of power transmittance t on modes k and l."""
    r = np.eye(n_modes)
    r[k, k] = math.sqrt(1.0 - t)
    r[k, l] = r[l, k] = math.sqrt(t)
    r[l, l] = -math.sqrt(1.0 - t)
    return r


def beam_splitter_symplectic(n_modes: int, k: int, l: int, t: float) -> SymplecticMatrix:
    """Beam splitter of power transmittance t on modes k and l.

    Mode-space action on the pair: [[sqrt(1-t), sqrt(t)], [sqrt(t), -sqrt(1-t)]].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    if k == l or min(k, l) < 0 or max(k, l) >= n_modes:
        raise ValueError("beam splitter needs two distinct in-range modes")
    return mode_matrix_symplectic(_beam_splitter_modes(n_modes, k, l, t))


def phase_flip_symplectic(n_modes: int, k: int) -> SymplecticMatrix:
    """180-degree rotation of mode k: (x, p) -> (-x, -p)."""
    if not 0 <= k < n_modes:
        raise ValueError("mode index out of range")
    r = np.eye(n_modes)
    r[k, k] = -1.0
    return mode_matrix_symplectic(r)


def network_mode_matrix(t1: float, t2: float) -> np.ndarray:
    """Composed 3x3 mode-space matrix of the preparation network.

    Beam splitter on (1, 2) with transmittance t1, sign flip of beam 2, beam
    splitter on (2, 3) with transmittance t2.  At the default t1=1/3, t2=1/2
    the first row is (sqrt(2/3), sqrt(1/3), 0).
    """
    flip = np.diag([1.0, -1.0, 1.0])
    return _beam_splitter_modes(3, 1, 2, t2) @ flip @ _beam_splitter_modes(3, 0, 1, t1)


def _squeezed_variances(r: float, squeezed: str) -> list[float]:
    """(Var x, Var p) of a squeezed vacuum: e^{-2r} squeezed, e^{2r} anti-squeezed."""
    if squeezed == "x":
        return [math.exp(-2.0 * r), math.exp(2.0 * r)]
    if squeezed == "p":
        return [math.exp(2.0 * r), math.exp(-2.0 * r)]
    raise ValueError(f"squeezed quadrature must be 'x' or 'p', got {squeezed!r}")


def squeezed_vacuum_cm(r: float, squeezed: str = "x") -> CovarianceMatrix:
    """Single-mode squeezed vacuum: variance e^{-2r} in the squeezed quadrature."""
    if r < 0:
        raise ValueError("squeezing parameter must be non-negative")
    return CovarianceMatrix(np.diag(_squeezed_variances(r, squeezed)))


def apply_symplectic(cm: CovarianceMatrix, s: SymplecticMatrix) -> CovarianceMatrix:
    """Transform the state: sigma -> S sigma S^T."""
    if s.n_modes != cm.n_modes:
        raise ValueError("mode count mismatch between state and transform")
    return CovarianceMatrix(s.matrix @ cm.matrix @ s.matrix.T)


def build_ghz(config: GhzConfig) -> CovarianceMatrix:
    """Lossless output of the preparation network, modes ordered (A, B, C).

    Inputs: x-squeezed r1, p-squeezed r2, x-squeezed r3.  The channel loss in
    config is NOT applied here; see :func:`build_state`.
    """
    sigma_in = np.diag(_squeezed_variances(config.r1, "x") + _squeezed_variances(config.r2, "p")
                       + _squeezed_variances(config.r3, "x"))
    net = mode_matrix_symplectic(network_mode_matrix(config.t1, config.t2))
    return apply_symplectic(CovarianceMatrix(sigma_in), net)


def lossy_stack(cm: CovarianceMatrix, mode: int, etas) -> np.ndarray:
    """Pure-loss channel on one mode for each efficiency in etas, as a (K, 2N, 2N) stack.

    Row k is sigma -> X sigma X^T + Y at etas[k]: X scales the mode's
    quadratures by sqrt(eta), Y adds (1 - eta) vacuum noise on that mode.
    Done as one broadcast scale-and-add over the stack.
    """
    etas = np.asarray(etas, dtype=float).reshape(-1)
    if not np.all((0.0 <= etas) & (etas <= 1.0)):
        raise ValueError("efficiency must lie in [0, 1]")
    if not 0 <= mode < cm.n_modes:
        raise ValueError("mode index out of range")
    dim = 2 * cm.n_modes
    sl = slice(2 * mode, 2 * mode + 2)
    scale = np.ones((etas.size, dim))
    scale[:, sl] = np.sqrt(etas)[:, None]
    noise = np.zeros((etas.size, dim, dim))
    noise[:, sl, sl] = (1.0 - etas)[:, None, None] * np.eye(2)
    out = scale[:, :, None] * cm.matrix * scale[:, None, :] + noise
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def lossy_channel(cm: CovarianceMatrix, mode: int, eta: float) -> CovarianceMatrix:
    """Pure-loss channel of efficiency eta on one mode: sigma -> X sigma X^T + Y.

    X scales the mode's quadratures by sqrt(eta); Y adds (1 - eta) vacuum
    noise on that mode.  Loss composes multiplicatively in eta.
    """
    return CovarianceMatrix(lossy_stack(cm, mode, [eta])[0])


def build_state(config: GhzConfig) -> CovarianceMatrix:
    """Network output after the channel: loss eta on mode A."""
    return lossy_channel(build_ghz(config), 0, config.eta)


def build_states(config: GhzConfig, etas) -> np.ndarray:
    """build_state at each channel efficiency in etas, as a (K, 6, 6) stack.

    The lossless state is built once; the loss on A is then one
    :func:`lossy_stack` call, equal to build_state(replace(config, eta=eta))
    row by row.
    """
    return lossy_stack(build_ghz(config), 0, etas)


def correlation_variance(cm: CovarianceMatrix, combo: QuadCombo) -> float:
    """Variance of a signed quadrature combination, v^T sigma v."""
    vec = combo.indicator(cm.n_modes)
    return float(vec @ _as_array(cm) @ vec)
