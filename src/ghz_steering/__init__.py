"""Gaussian EPR steering of a lossy three-mode GHZ state.

Covariance-matrix construction of the state, directed steering quantifiers
for all 12 bipartitions, monogamy residuals, and a simulated tomography
pipeline with statistical error bars.  See the README for the CLI.

The package exports what the CLI, the scripts and the README use; the
lower-level pieces live in the submodules ``symplectic``, ``network``,
``steering`` and ``tomography``.
"""

from .network import GhzConfig, build_state, build_states
from .steering import (
    DIRECTIONS,
    RESIDUAL_KEYS,
    find_threshold,
    monogamy_residuals,
    steering_report,
    steering_stack,
    sweep_eta,
)
from .symplectic import CovarianceMatrix, NumericalError
from .tomography import reconstruct_trials

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "DIRECTIONS",
    "GhzConfig",
    "NumericalError",
    "RESIDUAL_KEYS",
    "build_state",
    "build_states",
    "find_threshold",
    "monogamy_residuals",
    "reconstruct_trials",
    "steering_report",
    "steering_stack",
    "sweep_eta",
]
