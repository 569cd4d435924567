"""Null controls for the 1-D wave equation with vanishing fractional viscosity.

Spectral (sine-mode) setting throughout: the state is a finite list of
Fourier coefficients, controls are scalar functions of time acting through
a fixed spatial profile, and controllability is solved as a moment problem
against a biorthogonal family of exponentials.
"""

from .core import (
    ProblemConfig,
    QuadBudget,
    ModalState,
    ControlSignal,
    ConfigError,
    DegenerateAlphaError,
    validate_config,
    load_config,
    h0_norm_sq,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemConfig",
    "QuadBudget",
    "ModalState",
    "ControlSignal",
    "ConfigError",
    "DegenerateAlphaError",
    "validate_config",
    "load_config",
    "h0_norm_sq",
    "__version__",
]
