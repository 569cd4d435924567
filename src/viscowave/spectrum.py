"""Eigenvalue families, the spectral weight, and the multiplier's first node.

Over nonzero integer index n, the damped-corrected system has

    lambda_n = i n + eps |n|^{2 alpha},

and eps = 0 gives the conservative limit i n.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ALPHA_DEGENERACY_TOL, ConfigError, DegenerateAlphaError

E = math.e


def _check_alpha(alpha: float) -> None:
    if abs(alpha - 0.5) < ALPHA_DEGENERACY_TOL:
        raise DegenerateAlphaError("alpha = 1/2 has no usable weight/root map")


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def lambda_vals(ns, eps: float, alpha: float) -> np.ndarray:
    """lambda_n = i n + eps |n|^{2 alpha}, vectorized over n."""
    ns = np.asarray(ns)
    return eps * np.abs(ns) ** (2.0 * alpha) + 1j * ns


def lambda_conj_vals(ns, eps: float, alpha: float) -> np.ndarray:
    """conj(lambda_n) = eps |n|^{2 alpha} - i n."""
    ns = np.asarray(ns)
    return eps * np.abs(ns) ** (2.0 * alpha) - 1j * ns


# ---------------------------------------------------------------------------
# weight function and inverse
# ---------------------------------------------------------------------------

def gamma_eps(eps: float, alpha: float) -> float:
    """Branch point of the weight for alpha > 1/2: (1/eps)^{1/(2a-1)}, inf on overflow."""
    if alpha <= 0.5:
        raise ConfigError("gamma_eps only defined for alpha > 1/2")
    if eps <= 0:
        raise ConfigError("gamma_eps needs eps > 0")
    with np.errstate(over="ignore"):
        return float(np.float_power(1.0 / eps, 1.0 / (2.0 * alpha - 1.0)))


def phi_eps(x, eps: float, alpha: float) -> np.ndarray:
    """The weight phi(x).

    alpha < 1/2: eps |x|^{2a} everywhere.
    alpha > 1/2: eps |x|^{2a} up to the branch point gamma, then
    (|x|/eps)^{1/(2a)}; the two branches agree at gamma.
    eps = 0 gives the zero weight.
    """
    _check_alpha(alpha)
    x = np.abs(np.asarray(x, dtype=float))
    if eps == 0:
        return np.zeros_like(x)
    if alpha < 0.5:
        return eps * x ** (2.0 * alpha)
    g = gamma_eps(eps, alpha)
    return np.where(x <= g, eps * x ** (2.0 * alpha),
                    (x / eps) ** (1.0 / (2.0 * alpha)))


def phi_eps_inverse(y, eps: float, alpha: float) -> np.ndarray:
    """Inverse of phi on [0, inf); branch selection at y = gamma uses
    phi(gamma) = gamma."""
    _check_alpha(alpha)
    if eps <= 0:
        raise ConfigError("phi inverse undefined for eps = 0")
    if alpha == 0:
        raise ConfigError("phi is constant at alpha = 0; no inverse")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ConfigError("phi inverse takes non-negative arguments")
    if alpha < 0.5:
        return (y / eps) ** (1.0 / (2.0 * alpha))
    g = gamma_eps(eps, alpha)
    return np.where(y <= g, (y / eps) ** (1.0 / (2.0 * alpha)),
                    eps * y ** (2.0 * alpha))


# ---------------------------------------------------------------------------
# multiplier node sequence
# ---------------------------------------------------------------------------

def node_start(m: int, eps: float, alpha: float) -> int:
    """First node index n_m = floor(phi(e |lambda_m|)) + 1."""
    lm = complex(lambda_vals(m, eps, alpha))
    return int(np.floor(float(phi_eps(E * abs(lm), eps, alpha)))) + 1


# ---------------------------------------------------------------------------
# proof constants for the node sums
# ---------------------------------------------------------------------------

def node_sum_bound(eps: float, alpha: float) -> float:
    """L2: explicit bound on sum_n 1/a_n (exponential type of the multiplier).

    ((4a+1)/2a) eps^{1/2a} e for alpha < 1/2, ((2a+1)/(2a-1)) e above.
    """
    _check_alpha(alpha)
    if alpha == 0:
        raise ConfigError("node sums undefined at alpha = 0")
    if alpha < 0.5:
        return (4.0 * alpha + 1.0) / (2.0 * alpha) * eps ** (1.0 / (2.0 * alpha)) * E
    return (2.0 * alpha + 1.0) / (2.0 * alpha - 1.0) * E


def node_tail_sq_constant(alpha: float) -> float:
    """D: constant in sum_{n >= n_m} 1/a_n^2 <= D (1 + |Re lambda_m|)/|lambda_m|^2."""
    _check_alpha(alpha)
    if alpha == 0:
        raise ConfigError("node sums undefined at alpha = 0")
    if alpha < 0.5:
        return 2.0 ** alpha * E * E
    return 4.0 * alpha / (1.0 - alpha) * E * E
