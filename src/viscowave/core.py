"""Configuration, modal data model, and shared numeric helpers.

Fourier convention is un-normalized throughout: g_hat_n = int_0^pi g(x) sin(nx) dx,
so physical L2 norms carry a pi/2 factor (||g||^2 = (pi/2) sum |a_n|^2 when
g = sum a_n sin(nx)).  Initial data enter as coefficient lists, never as
sampled functions; all dynamics downstream are modal.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# alpha values this close to 1/2 are treated as the degenerate case
ALPHA_DEGENERACY_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid problem configuration or modal data."""


class DegenerateAlphaError(ConfigError):
    """alpha = 1/2: the eigenvalue family is spectrally degenerate."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadBudget:
    """Quadrature budget for the frequency-side transform.

    half_width: truncation |x| <= half_width for the Fourier integral, or
        None to probe the integrand decay and pick the smallest width whose
        envelope falls below 1e-12.
    points_per_unit: sample density of the x grid (the actual spacing is
        refined so the FFT length is a power of two).
    """
    half_width: float | None = None
    points_per_unit: float = 20.0

    def __post_init__(self):
        if self.half_width is not None and self.half_width <= 0:
            raise ConfigError("quad half_width must be positive or None")
        if self.points_per_unit <= 0:
            raise ConfigError("quad points_per_unit must be positive")


@dataclass(frozen=True)
class ProblemConfig:
    """Single source of experiment parameters.

    alpha, epsilon: fractional exponent and viscosity strength, both in [0,1).
    horizon_T: control horizon (0,T).
    n_modes: truncation N of the modal system.
    delta: width of the sinc factor in the interpolant.
    omega_mode: "fitted" fits the envelope exponent from the product itself;
        "fixed" uses omega_value as given.
    decay_boost: extra sinc powers multiplied into the interpolant; each one
        adds delta to the declared exponential type and one power of 1/|x|
        decay on the real axis.
    smoothing_a: half-width a of the triangle smoothing kernel.
    """
    alpha: float
    epsilon: float
    horizon_T: float = TWO_PI
    n_modes: int = 8
    delta: float = 0.25
    omega_mode: str = "fitted"
    omega_value: float | None = None
    decay_boost: int = 7
    quad: QuadBudget = field(default_factory=QuadBudget)
    smoothing_a: float = 0.5

    @property
    def alpha_is_degenerate(self) -> bool:
        return abs(self.alpha - 0.5) < ALPHA_DEGENERACY_TOL


def validate_config(cfg: ProblemConfig, for_synthesis: bool = False) -> ProblemConfig:
    """Check a config and return it unchanged.

    for_synthesis=True additionally rejects alpha = 1/2, which is only
    acceptable for degeneracy diagnostics (the modal moment equations are
    not solvable there).
    """
    if not 0.0 <= cfg.alpha < 1.0:
        raise ConfigError(f"alpha must be in [0,1), got {cfg.alpha}")
    if not 0.0 <= cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0,1), got {cfg.epsilon}")
    if cfg.horizon_T <= 0:
        raise ConfigError("horizon_T must be positive")
    if cfg.n_modes < 1:
        raise ConfigError("n_modes must be >= 1")
    if cfg.delta <= 0:
        raise ConfigError("delta must be positive")
    if cfg.decay_boost < 0:
        raise ConfigError("decay_boost must be >= 0")
    if cfg.smoothing_a < 0:
        raise ConfigError("smoothing_a must be >= 0")
    if cfg.omega_mode not in ("fitted", "fixed"):
        raise ConfigError(f"omega_mode must be 'fitted' or 'fixed', got {cfg.omega_mode!r}")
    if cfg.omega_mode == "fixed" and (cfg.omega_value is None or cfg.omega_value < 0):
        raise ConfigError("omega_mode 'fixed' requires a non-negative omega_value")
    if for_synthesis and cfg.alpha_is_degenerate:
        raise DegenerateAlphaError(
            "alpha = 1/2 is spectrally degenerate; control synthesis refused "
            "(degeneracy diagnostics still run)")
    return cfg


def load_config(path: str) -> ProblemConfig:
    """Read a ProblemConfig from an INI-style file.

    Sections [problem] and [quad] mirror the dataclass field names; missing
    keys keep their defaults.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    kw = {}
    if parser.has_section("problem"):
        sec = parser["problem"]
        for key, conv in (("alpha", float), ("epsilon", float), ("horizon_T", float),
                          ("n_modes", int), ("delta", float), ("omega_value", float),
                          ("decay_boost", int), ("smoothing_a", float)):
            if key in sec:
                kw[key] = conv(sec[key])
        if "omega_mode" in sec:
            kw["omega_mode"] = sec["omega_mode"].strip()
    if "alpha" not in kw or "epsilon" not in kw:
        raise ConfigError("config must set problem.alpha and problem.epsilon")
    if parser.has_section("quad"):
        sec = parser["quad"]
        hw: float | None = None
        if "half_width" in sec and sec["half_width"].strip().lower() != "auto":
            hw = float(sec["half_width"])
        ppu = float(sec.get("points_per_unit", QuadBudget.points_per_unit))
        kw["quad"] = QuadBudget(half_width=hw, points_per_unit=ppu)
    return validate_config(ProblemConfig(**kw))


# ---------------------------------------------------------------------------
# modal data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModalState:
    """Finite modal data: per-mode (u0, u1) coefficients plus the profile.

    indices: strictly increasing positive mode numbers n.
    u0, u1: complex coefficients of position and velocity.
    profile: f_hat_n for the same indices; every value must be nonzero,
        a zero profile coefficient makes the mode uncontrollable.
    """
    indices: tuple[int, ...]
    u0: tuple[complex, ...]
    u1: tuple[complex, ...]
    profile: tuple[complex, ...]

    def __post_init__(self):
        n = len(self.indices)
        if not (len(self.u0) == len(self.u1) == len(self.profile) == n):
            raise ConfigError("indices, u0, u1, profile must have equal length")
        prev = 0
        for idx in self.indices:
            if idx <= prev:
                raise ConfigError("mode indices must be strictly increasing positive integers")
            prev = idx
        for idx, fh in zip(self.indices, self.profile):
            if fh == 0:
                raise ConfigError(f"profile coefficient for mode {idx} is zero; "
                                  "that mode cannot be controlled")

    @classmethod
    def from_arrays(cls, indices, u0, u1, profile) -> "ModalState":
        return cls(tuple(int(i) for i in indices),
                   tuple(complex(v) for v in u0),
                   tuple(complex(v) for v in u1),
                   tuple(complex(v) for v in profile))


@dataclass(frozen=True)
class ControlSignal:
    """Scalar control as an exact exponential sum

        v(s) = sum_k weights[k] * exp(rates[k] * (s - center))

    on support = (lo, hi), zero outside.  Propagation and the moment check
    integrate it in closed form through `exp_integral`.
    """
    weights: np.ndarray
    rates: np.ndarray
    center: float
    support: tuple[float, float]

    def __post_init__(self):
        if self.support[1] <= self.support[0]:
            raise ConfigError("control support must have hi > lo")
        w = np.asarray(self.weights, dtype=complex)
        r = np.asarray(self.rates, dtype=complex)
        if w.ndim != 1 or w.shape != r.shape:
            raise ConfigError("control weights and rates must be 1-D and of equal length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def h0_norm_sq(data: ModalState) -> float:
    """Weighted data norm: sum_n (n^2 |u0_n|^2 + |u1_n|^2) / |f_hat_n|^2."""
    total = 0.0
    for n, u0, u1, fh in zip(data.indices, data.u0, data.u1, data.profile):
        total += (n * n * abs(u0) ** 2 + abs(u1) ** 2) / abs(fh) ** 2
    return total


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------

def gauss_legendre_01(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w


def log1p_c(w: np.ndarray) -> np.ndarray:
    """Complex log(1+w) that keeps tiny w, in closed form (w = x + iy):
    log(1+w) = 1/2 log1p(x(2+x) + y^2) + i atan2(y, 1+x) never adds 1 to a
    tiny w, unlike numpy's naive log(1+w).  Where |1+w| < 1/2 (the log1p
    argument has lost its leading digits near -1) or |w|^2 overflows, the
    real part is log|1+w| instead; near w = -1, 1+x is exact.
    """
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    out = np.empty_like(w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = x * (x + 2.0) + y * y
        re = np.log1p(s, out=out.real)
        re *= 0.5
        np.arctan2(y, x + 1.0, out=out.imag)
        far = (s < -0.75) | (s == np.inf)
        re[far] = np.log(np.abs(1.0 + w[far]))
    return out


def sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w with the removable singularity filled (complex-safe)."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-3
    ws = np.where(small, 0.0, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.sinh(ws) / np.where(small, 1.0, w)
    w2 = w * w
    series = 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0))
    return np.where(small, series, direct)


def exp_integral(p, a, rho, c, lo, hi) -> np.ndarray:
    """int_lo^hi e^{p(s-a)} e^{rho(s-c)} ds in closed form, 0 where hi <= lo.

    Evaluated as L e^{p(mid-a) + rho(mid-c)} sinhc((p+rho) L/2) with
    L = hi - lo and mid = (lo+hi)/2, so on (-T/2, T/2) with a = c = 0 it is
    bit for bit T sinhc((p+rho) T/2).  Every argument broadcasts and nothing
    is summed: callers contract with their own weights.  This is the one
    exponential-sum integral behind the Gram matrices, the exact
    biorthogonality and moment checks, and the exact propagation.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(hi, lo)
    length = hi - lo
    mid = 0.5 * (lo + hi)
    with np.errstate(over="ignore", invalid="ignore"):
        val = length * np.exp(p * (mid - a) + rho * (mid - c)) \
            * sinhc((p + rho) * length / 2.0)
    return np.where(length > 0.0, val, 0.0)


def sinc_c(w: np.ndarray) -> np.ndarray:
    """sin(w)/w for complex w (equals sinhc(iw))."""
    return sinhc(1j * np.asarray(w, dtype=complex))


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1)).bit_length()
