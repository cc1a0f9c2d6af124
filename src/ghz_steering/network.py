"""Three-mode GHZ-type state preparation and the lossy transmission channel.

The preparation network squeezes three vacua (x, p, x), mixes beams one and
two on a 1:2 beam splitter, flips the sign of beam two, then mixes beams two
and three on a balanced beam splitter.  Output mode order is (A, B, C).
Transmission loss acts on mode A: the state that actually reaches the
analysis stage carries A' = sqrt(eta) A + sqrt(1 - eta) vacuum.
:func:`build_states` is the one state builder, a stack over eta, and
:func:`build_state` its one-row form.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .symplectic import _as_array, symmetric_part

MODE_NAMES = "ABC"

# The declared squeezing domain is r in [0, MAX_SQUEEZING_R], up to 26.06 dB: well
# past the 15 dB record (Vahlbruch et al., PRL 117, 110801, 2016).  On it every
# built state is far from singular, so no conditioning guard is needed.
MAX_SQUEEZING_R = 3.0

# A combination label: terms [+-]?[xp]<mode>, every term after the first signed.
_COMBO_LABEL = re.compile(r"[+-]?[xp]\w(?:[+-][xp]\w)*")
_COMBO_TERM = re.compile(r"([+-]?)([xp])(\w)")


def r_to_squeezing_db(r: float) -> float:
    """Squeezing strength in dB: -10*log10(e^{-2r}) noise reduction below shot noise."""
    return 20.0 * r / math.log(10.0)


def squeezing_db_to_r(db: float) -> float:
    """Inverse of :func:`r_to_squeezing_db`."""
    return db * math.log(10.0) / 20.0


@dataclass(frozen=True)
class GhzConfig:
    """Experiment description: squeezing strengths, network transmittances, loss.

    r1, r3 squeeze x; r2 squeezes p; each lies in [0, MAX_SQUEEZING_R].  t1 and
    t2 are the power transmittances of the two beam splitters.  eta is the
    channel efficiency on mode A.
    """

    r1: float = 0.339
    r2: float = 0.339
    r3: float = 0.339
    t1: float = 1.0 / 3.0
    t2: float = 0.5
    eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3"):
            val = getattr(self, name)
            if not 0.0 <= val <= MAX_SQUEEZING_R:  # also nan
                db = r_to_squeezing_db
                raise ValueError(f"{name} = {float(val)!r} ({db(val):.4g} dB) is outside the squeezing "
                                 f"domain [0, {MAX_SQUEEZING_R:g}] (0 to {db(MAX_SQUEEZING_R):.4g} dB)")
        for name in ("t1", "t2", "eta"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def _beam_splitter_modes(k: int, l: int, t: float) -> np.ndarray:
    """3x3 mode-space matrix of a beam splitter of power transmittance t on modes k and l."""
    r = np.eye(3)
    r[k, k] = math.sqrt(1.0 - t)
    r[k, l] = r[l, k] = math.sqrt(t)
    r[l, l] = -math.sqrt(1.0 - t)
    return r


def network_mode_matrix(t1: float, t2: float) -> np.ndarray:
    """Composed 3x3 mode-space matrix of the preparation network.

    Beam splitter on (1, 2) with transmittance t1, sign flip of beam 2, beam
    splitter on (2, 3) with transmittance t2.  At the default t1=1/3, t2=1/2
    the first row is (sqrt(2/3), sqrt(1/3), 0).
    """
    flip = np.diag([1.0, -1.0, 1.0])
    return _beam_splitter_modes(1, 2, t2) @ flip @ _beam_splitter_modes(0, 1, t1)


def build_ghz(config: GhzConfig) -> np.ndarray:
    """Lossless output of the preparation network, a read-only (6, 6) array, modes (A, B, C).

    Inputs: x-squeezed r1, p-squeezed r2, x-squeezed r3, each with variance
    e^{-2r} in the squeezed and e^{2r} in the other quadrature.  The passive
    network acts alike on the x and p sectors.  The channel loss in config
    is NOT applied here; see :func:`build_state`.  The state depends on
    (r1, r2, r3, t1, t2) only and is built once per such key while it is
    among the last 64 keys: the same key returns the same read-only matrix.
    """
    return _lossless_state(config.r1, config.r2, config.r3, config.t1, config.t2)


@functools.lru_cache(maxsize=64)  # a sweep and its threshold, or repeated tomography runs
def _lossless_state(r1: float, r2: float, r3: float, t1: float, t2: float) -> np.ndarray:
    """The network output of :func:`build_ghz` for one (r1, r2, r3, t1, t2), symmetrized:
    net sigma_in net^T is not exactly symmetric in rounding."""
    sigma_in = np.diag([math.exp(-2.0 * r1), math.exp(2.0 * r1), math.exp(2.0 * r2),
                        math.exp(-2.0 * r2), math.exp(-2.0 * r3), math.exp(2.0 * r3)])
    net = np.zeros((6, 6))
    net[0::2, 0::2] = net[1::2, 1::2] = network_mode_matrix(t1, t2)
    state = symmetric_part(net @ sigma_in @ net.T)
    state.flags.writeable = False
    return state


def lossy_stack(cm: np.ndarray, etas) -> np.ndarray:
    """Pure-loss channel on mode A for each efficiency in etas, as a (K, 2N, 2N) stack.

    Row k is sigma -> X sigma X^T + Y at etas[k]: X scales A's quadratures by
    sqrt(eta), Y adds (1 - eta) vacuum noise on A.  Done as one broadcast
    scale-and-add over the stack; each row is exactly symmetric, as sigma is.
    """
    etas = np.asarray(etas, dtype=float).reshape(-1)
    if not ((0.0 <= etas) & (etas <= 1.0)).all():
        raise ValueError("efficiency must lie in [0, 1]")
    m = _as_array(cm, single=True)
    scale = np.ones((etas.size, m.shape[-1]))
    scale[:, :2] = np.sqrt(etas)[:, None]
    noise = np.zeros((etas.size,) + m.shape)  # adding it also turns the -0.0 of eta = 0 into +0.0
    noise[:, 0, 0] = noise[:, 1, 1] = 1.0 - etas
    return scale[:, :, None] * m * scale[:, None, :] + noise


def lossy_channel(cm: np.ndarray, eta: float) -> np.ndarray:
    """Pure-loss channel of efficiency eta on mode A, row 0 of :func:`lossy_stack`."""
    return lossy_stack(cm, [eta])[0]


def build_state(config: GhzConfig) -> np.ndarray:
    """Network output after the channel, loss eta on mode A: row 0 of :func:`build_states`, read-only."""
    state = build_states(config, [config.eta])[0]
    state.flags.writeable = False
    return state


def build_states(config: GhzConfig, etas) -> np.ndarray:
    """The state at each channel efficiency in etas, as a (K, 6, 6) stack: the lossless
    state built once, then one :func:`lossy_stack` call.  Row k is build_state(replace(config,
    eta=etas[k])) byte for byte."""
    return lossy_stack(build_ghz(config), etas)


def combo_vector(label: str) -> np.ndarray:
    """Coefficient vector over (xA, pA, xB, pB, xC, pC) of a signed quadrature combination.

    The label is a sum of terms [+-]?[xp][ABC], such as "xA", "xA-xB" or
    "pA+pB+pC"; each quadrature may appear once.
    """
    if not _COMBO_LABEL.fullmatch(label):
        raise ValueError(f"unreadable quadrature combination {label!r}")
    vec = np.zeros(2 * len(MODE_NAMES))
    for sign, quad, mode in _COMBO_TERM.findall(label):
        if mode not in MODE_NAMES:
            raise ValueError(f"unknown mode {mode!r} in combination {label!r}")
        slot = 2 * MODE_NAMES.index(mode) + "xp".index(quad)
        if vec[slot]:
            raise ValueError(f"{quad}{mode} appears twice in combination {label!r}")
        vec[slot] = -1.0 if sign == "-" else 1.0
    return vec


def correlation_variance(cm: np.ndarray, label: str) -> float:
    """Variance v^T sigma v of a three-mode combination, v = combo_vector(label)."""
    vec = combo_vector(label)
    m = _as_array(cm, single=True)
    if m.shape != (6, 6):
        raise ValueError("expected a three-mode state")
    return float(vec @ m @ vec)
