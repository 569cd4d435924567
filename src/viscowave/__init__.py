"""Null controls for the 1-D wave equation with vanishing fractional viscosity.

Spectral (sine-mode) setting throughout: the state is a finite list of
Fourier coefficients, controls are scalar functions of time acting through
a fixed spatial profile, and controllability is solved as a moment problem
against a biorthogonal family of exponentials.

Importing the package, or `viscowave.cli`, does not import the construction
layers (`weierstrass`, `multiplier`, `biorthogonal`).  Each module of the
package is also imported on first attribute access, so
`viscowave.biorthogonal` resolves after `import viscowave` alone.
"""

import importlib

from .core import (
    ProblemConfig,
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
    "ModalState",
    "ControlSignal",
    "ConfigError",
    "DegenerateAlphaError",
    "validate_config",
    "load_config",
    "h0_norm_sq",
    "__version__",
]


_MODULES = ("core", "spectrum", "weierstrass", "multiplier", "biorthogonal",
            "moment", "pde", "cli")


def __getattr__(name: str):
    """The package module `name`, imported on first access (PEP 562)."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
