"""Moment right-hand sides, control synthesis, and the Gram oracle.

A null control for the truncated system is exactly an L^2 function v on
(0, T) whose integrals against e^{conj(lambda_n) t} (time recentered to
(-T/2, T/2)) hit prescribed values c_n built from the initial data.  Two
independent routes are implemented:

  * series synthesis: v = sum_m c_m * family_m(t - T/2) with a biorthogonal
    family, the constructive route; every member is an exponential sum on
    the family's shared rates and zero outside the family's window, so v is
    one exponential sum on them, and its norm and imaginary-part bound come
    from its weights;
  * minimal-norm synthesis: v = sum_k beta_k e^{lambda_k (t - T/2)} with
    beta solved from the Hermitian Gram matrix, a classical finite moment
    problem that knows nothing about the family and therefore serves as an
    oracle for it.

The Gram matrix has the closed form G_{nk} = T sinhc((conj(lambda_n) +
lambda_k) T/2), diagonal-limit entry T included, so no quadrature enters
the oracle.  It, the exact moment check of both routes' controls and the
Ingham numerator all come from the shared kernel `core.exp_integral` (the
series control's moment check from its contracted form, which sums the
control's terms by the resolvent identity, one Cauchy row per moment), and
both routes refuse a control whose exact moment residual exceeds MOMENT_TOL
of the largest moment.  The Gram eigenvalue solve reports its condition
number and never regularizes it away.  That number does not single out
the excluded exponent alpha = 1/2: measured in mpmath it grows smoothly in
alpha through 1/2, and alpha 0.6 and 0.75 are worse conditioned.  What
diverges as alpha -> 1/2+ is the biorthogonal construction's constants
(`spectrum.node_sum_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, ControlSignal, ModalState, exp_integral, exp_sum_norm,
                   h0_norm_sq)
from .spectrum import lambda_vals


MOMENT_TOL = 1e-6  # largest accepted moment residual, relative to max |c_n|


class SingularGramError(ConfigError):
    def __init__(self, cond: float, why: str = "numerically singular"):
        super().__init__(f"Gram matrix {why} (cond ~ {cond:.3e}); "
                         "refusing to regularize silently")
        self.cond = cond


class MomentResidualError(ConfigError):
    """A control misses its moments by more than MOMENT_TOL of max |c_n|."""


def _check_moments(route: str, residual: float, rhs) -> None:
    limit = MOMENT_TOL * float(np.max(np.abs(rhs), initial=0.0))
    if not residual <= limit:
        raise MomentResidualError(f"{route} control misses its moments by {residual:.3e}"
                                  f" > {MOMENT_TOL:g} x max |c_n| = {limit:.3e}")


def moment_rhs(n, data: ModalState, T: float, eps: float, alpha: float):
    """c_n = -e^{-conj(lambda_n) T/2} (u1_|n| + lambda_n u0_|n|) / f_|n|, for one
    index n or an array of them (then an array of the same shape)."""
    n = np.asarray(n)
    if np.any(n == 0):
        raise ConfigError("index 0 is not in the lattice")
    modes, mode = np.asarray(data.indices), np.abs(n)
    pos = np.searchsorted(modes, mode)   # ModalState's indices ascend
    missing = mode[np.append(modes, 0)[pos] != mode]   # past the last mode reads 0
    if missing.size:
        raise ConfigError(f"data has no mode {int(missing.flat[0])}")
    lam = lambda_vals(n, eps, alpha)
    u0, u1, profile = (np.asarray(v, dtype=complex)[pos]
                       for v in (data.u0, data.u1, data.profile))
    # ModalState keeps every profile entry nonzero
    return -np.exp(-np.conj(lam) * T / 2.0) * (u1 + lam * u0) / profile


@dataclass(frozen=True)
class MomentSystem:
    """Finite moment problem on (-T/2, T/2)."""
    indices: tuple
    eps: float
    alpha: float
    horizon: float
    rhs: tuple

    @classmethod
    def build(cls, data: ModalState, T: float, eps: float, alpha: float) -> "MomentSystem":
        idx = []
        for n in data.indices:
            idx.extend([-n, n])
        idx = tuple(sorted(idx))
        rhs = tuple(moment_rhs(idx, data, T, eps, alpha))
        return cls(indices=idx, eps=eps, alpha=alpha, horizon=T, rhs=rhs)

    @property
    def lambdas(self) -> np.ndarray:
        return lambda_vals(np.asarray(self.indices), self.eps, self.alpha)

    def conjugate_symmetry_residual(self) -> float:
        idx = np.asarray(self.indices)
        rhs = np.asarray(self.rhs)
        res = 0.0
        for j, n in enumerate(idx):
            k = int(np.where(idx == -n)[0][0])
            res = max(res, float(abs(rhs[j] - np.conj(rhs[k]))))
        return res


def gram_matrix(indices, eps: float, alpha: float, T: float) -> np.ndarray:
    """G_{nk} = int_{-T/2}^{T/2} e^{conj(lambda_n) t} e^{lambda_k t} dt,
    closed form T sinhc(s T/2) with s the eigenvalue pair sum."""
    lams = lambda_vals(np.asarray(indices), eps, alpha)
    return exp_integral(np.conj(lams)[:, None], 0.0, lams[None, :], 0.0,
                        -T / 2.0, T / 2.0)


@dataclass(frozen=True)
class MinNormResult:
    control: ControlSignal
    cond: float
    norm: float            # exact sqrt(beta* G beta), beta = control.weights
    moment_residual: float  # max |G beta - c|


def minnorm_control(system: MomentSystem) -> MinNormResult:
    """Minimal-norm exponential-sum control for the moment system; refuses
    (SingularGramError) non-finite or singular Gram matrices."""
    T = system.horizon
    G = gram_matrix(system.indices, system.eps, system.alpha, T)
    c = np.asarray(system.rhs, dtype=complex)
    if not np.all(np.isfinite(G)):
        raise SingularGramError(np.inf, "has non-finite entries")
    w, V = np.linalg.eigh(G)
    cond = float(w[-1] / w[0]) if w[0] > 0 else np.inf
    if w[0] <= 0 or not np.isfinite(cond):
        raise SingularGramError(cond)
    beta = V @ ((V.conj().T @ c) / w)
    resid = float(np.max(np.abs(G @ beta - c)))
    _check_moments("Gram", resid, c)
    vnorm = float(np.sqrt(max(np.real(np.vdot(beta, G @ beta)), 0.0)))
    ctrl = ControlSignal(weights=beta, rates=system.lambdas, center=T / 2.0,
                         support=(0.0, T))
    return MinNormResult(control=ctrl, cond=cond, norm=vnorm, moment_residual=resid)


@dataclass(frozen=True)
class SeriesResult:
    control: ControlSignal
    norm: float
    imag_residual: float
    h0_norm_sq: float
    moment_residual: float  # exact max_n |moment_n - c_n|


def synthesize_control_series(data: ModalState, family, T: float) -> SeriesResult:
    """v(t) = sum_m c_m * family_m(t - T/2) on (0, T), with the moments c_m
    of the family's (eps, alpha); at eps = 0, lambda_n = i n whatever alpha.

    Every member of `family` is an exponential sum on the family's shared
    `rates`, with weights `weights[m]`, valid on `window` (recentered time)
    and zero outside; so the control is one exponential sum on those rates
    with weights W = sum_m c_m weights[m], supported on the window shifted
    by T/2.  T below the family's `min_horizon` is refused (ConfigError),
    and the moments' exact residual is checked.  The norm is
    `core.exp_sum_norm(W, period)`.  For conjugate-symmetric moments
    imag_residual = sum_j |W_j - conj W_{n-j}| / 2 bounds sup_t |Im v(t)|:
    the rates are mirror-symmetric, so conj(v) has weights conj(W[::-1]).
    """
    sys = MomentSystem.build(data, T, family.eps, family.alpha)
    fam_idx = set(family.indices)
    missing = [n for n in sys.indices if n not in fam_idx]
    if missing:
        raise ConfigError(f"family lacks indices {missing}")

    if T < family.min_horizon:
        raise ConfigError(f"horizon {T:.3f} below the family's min_horizon "
                          f"{family.min_horizon:.3f}")

    weights = np.zeros(len(family.rates), dtype=complex)
    for n, cn in zip(sys.indices, sys.rhs):
        weights += cn * family.weights[n]
    lo, hi = family.window
    ctrl = ControlSignal(weights=weights, rates=family.rates, center=T / 2.0,
                         support=(lo + T / 2.0, hi + T / 2.0))
    resid = moment_verification(ctrl, sys)
    _check_moments("series", resid, sys.rhs)

    imag_res = 0.0
    if sys.conjugate_symmetry_residual() < 1e-10:
        if not np.array_equal(family.rates, -family.rates[::-1]):
            raise ConfigError("family rates are not mirror-symmetric")
        imag_res = float(np.sum(np.abs(weights - np.conj(weights[::-1])))) / 2.0
    return SeriesResult(control=ctrl, norm=exp_sum_norm(weights, family.period),
                        imag_residual=imag_res,
                        h0_norm_sq=h0_norm_sq(data), moment_residual=resid)


def moment_verification(control: ControlSignal, system: MomentSystem) -> float:
    """max_n |int v(t+T/2) e^{conj(lambda_n) t} dt - c_n|, exactly: the
    control is an exponential sum, integrated by `exp_integral`'s contracted
    form, one resolvent row per moment."""
    lo, hi = control.support
    out = exp_integral(np.conj(system.lambdas), system.horizon / 2.0, control.rates,
                       control.center, lo, hi, control.weights)
    return float(np.max(np.abs(out - np.asarray(system.rhs))))


def ingham_ratio(indices, coeffs, eps: float, alpha: float, T: float,
                 omega_weight: float, gram=None) -> float:
    """int_{-T}^{T} |sum beta_n e^{lambda_n t}|^2 dt divided by the weighted
    coefficient mass sum |beta_n|^2 e^{-omega_weight eps |n|^{2a}}.

    The integral runs over (-T, T), twice the moment interval, so the
    numerator is the quadratic form of the Gram matrix at horizon 2T; gram
    is that matrix if the caller already has it (`ingham_trials` builds it
    once for all its draws).  Its entries grow like e^{2 eps |n|^{2a} T}; a
    numerator that overflows raises ConfigError, as does a weighted mass
    that is not finite and positive.
    """
    idx = np.asarray(indices)
    b = np.asarray(coeffs, dtype=complex)
    if len(idx) != len(b):
        raise ConfigError("indices and coefficients disagree in length")
    if not np.any(b):
        raise ConfigError("all-zero coefficient sequence")
    with np.errstate(over="ignore", invalid="ignore"):
        if gram is None:
            gram = gram_matrix(idx, eps, alpha, 2.0 * T)
        num = float(np.real(np.vdot(b, gram @ b)))
        den = float(np.sum(np.abs(b) ** 2 * np.exp(-omega_weight * eps
                                                   * np.abs(idx) ** (2.0 * alpha))))
    if not (np.isfinite(den) and den > 0):  # also every non-finite omega_weight
        raise ConfigError(f"weighted coefficient mass {den} at omega weight "
                          f"{omega_weight} is not finite and positive")
    if not np.isfinite(num):
        raise _numerator_overflow(T, int(np.max(np.abs(idx))))
    return num / den


def _numerator_overflow(T: float, n_max: int) -> ConfigError:
    return ConfigError(f"Gram numerator over (-{T:g}, {T:g}) is not finite: modes up "
                       f"to |n| = {n_max} overflow double precision at this horizon")


def ingham_trials(n_max: int, eps: float, alpha: float, T: float,
                  omega_weight: float, n_trials: int = 100,
                  seed: int = 123) -> np.ndarray:
    """Ratios over random complex-gaussian coefficient draws.

    Each ratio bounds the best lower constant of the Ingham-type inequality
    from above, so the minimum over the draws is an upper bound on that
    constant, not the constant itself.  The draws put O(1) weight on the high
    modes, whose numerator mass grows like e^{2 eps |n|^{2 alpha} T}, so the
    minimum can exceed the constant by many orders of magnitude.  The 2T
    Gram matrix is built once for every draw; a draw takes its real parts
    first, then its imaginary parts.

    The matrix is positive semidefinite, so its largest entry is the
    diagonal one at |n| = n_max; that entry alone is evaluated first, and a
    horizon at which it overflows is refused before the matrix is built.
    """
    if not np.all(np.isfinite(gram_matrix([n_max], eps, alpha, 2.0 * T))):
        raise _numerator_overflow(T, n_max)
    idx = np.array([n for n in range(-n_max, n_max + 1) if n != 0])
    gram = gram_matrix(idx, eps, alpha, 2.0 * T)
    rng = np.random.default_rng(seed)
    out = np.empty(n_trials)
    for k in range(n_trials):
        b = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        out[k] = ingham_ratio(idx, b, eps, alpha, T, omega_weight, gram)
    return out
