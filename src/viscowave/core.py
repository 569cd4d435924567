"""Problem configuration, modal data model, and shared numeric helpers.

`ProblemConfig` holds the problem alone: alpha, eps, T and N.  How the
biorthogonal family is built is fixed by constants in `biorthogonal`, so a
config file (see `load_config`) has one [problem] section with those four
keys and nothing else.

Fourier convention is un-normalized throughout: g_hat_n = int_0^pi g(x) sin(nx) dx,
so physical L2 norms carry a pi/2 factor (||g||^2 = (pi/2) sum |a_n|^2 when
g = sum a_n sin(nx)).  Initial data enter as coefficient lists, never as
sampled functions; all dynamics downstream are modal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class ProblemConfig:
    """The problem's parameters, and nothing of how it is solved.

    alpha, epsilon: fractional exponent and viscosity strength, both in [0,1).
    horizon_T: control horizon (0,T).
    n_modes: truncation N of the modal system.

    How the biorthogonal family is built (sinc width, extra sinc powers,
    multiplier power, smoothing half-width, FFT density) is fixed by the
    constants in `biorthogonal`.
    """
    alpha: float
    epsilon: float
    horizon_T: float = TWO_PI
    n_modes: int = 8

    @property
    def alpha_is_degenerate(self) -> bool:
        return abs(self.alpha - 0.5) < ALPHA_DEGENERACY_TOL


def validate_config(cfg: ProblemConfig, for_synthesis: bool = False) -> ProblemConfig:
    """Check a config and return it unchanged.

    for_synthesis=True additionally rejects alpha = 1/2, the exponent the
    paper excludes: the biorthogonal construction's constants diverge as
    alpha -> 1/2+ (`spectrum.node_sum_bound`), although the Gram matrix is
    conditioned there as smoothly as at nearby alpha.  Diagnostics such as
    `degeneracy` accept it.
    """
    if not 0.0 <= cfg.alpha < 1.0:
        raise ConfigError(f"alpha must be in [0,1), got {cfg.alpha}")
    if not 0.0 <= cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0,1), got {cfg.epsilon}")
    if not 0.0 < cfg.horizon_T < math.inf:
        raise ConfigError(f"horizon_T must be positive and finite, got {cfg.horizon_T}")
    if cfg.n_modes < 1:
        raise ConfigError("n_modes must be >= 1")
    if for_synthesis and cfg.alpha_is_degenerate:
        raise DegenerateAlphaError(
            "alpha = 1/2 is spectrally degenerate; control synthesis refused "
            "(degeneracy diagnostics still run)")
    return cfg


_INI_KEYS = {"alpha": float, "epsilon": float, "horizon_T": float, "n_modes": int}


def load_config(path: str) -> ProblemConfig:
    """Read a ProblemConfig from an INI file.

    The file holds one [problem] section with the keys alpha and epsilon
    (required), horizon_T and n_modes (optional, defaults as in the
    dataclass); keys are case-sensitive.  Any other section or key, a
    non-numeric value or a non-integer n_modes raises ConfigError naming it.
    """
    import configparser   # only --config reads it: off every command's import path

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a valid INI file: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section != "problem":
            raise ConfigError(f"{path}: unknown section [{section}]; "
                              "only [problem] is read")
    kw = {}
    if parser.has_section("problem"):
        for key, text in parser["problem"].items():
            if key not in _INI_KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} in [problem]; "
                                  f"known keys: {', '.join(_INI_KEYS)}")
            try:
                kw[key] = _INI_KEYS[key](text)
            except ValueError:
                kind = "an integer" if key == "n_modes" else "a number"
                raise ConfigError(f"{path}: {key} must be {kind}, "
                                  f"got {text!r}") from None
    if "alpha" not in kw or "epsilon" not in kw:
        raise ConfigError("config must set problem.alpha and problem.epsilon")
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
    """Gauss-Legendre nodes and weights mapped to (0, 1), ascending: Newton's
    method on the Legendre recurrence from x = cos(pi (i - 1/4)/(k + 1/2)).
    numpy.polynomial's leggauss is not imported: it adds 0.77 MB and 2.5 ms
    to every command.  At k = 64 the weights are within 5.7e-14 of 40-digit
    ones (leggauss: 1.3e-12)."""
    x = np.cos(np.pi * (np.arange(k, 0, -1) - 0.25) / (k + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = k * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def log1p_c(x: np.ndarray, y: np.ndarray, out=None, imag: bool = True, s=None, far=None):
    """Complex log(1+w) at w = x + iy, given as its real and imaginary parts,
    in a closed form that keeps tiny w:
    log(1+w) = 1/2 log1p(s) + i atan2(y, 1+x), s = |1+w|^2 - 1 = x(2+x) + y^2,
    never adds 1 to a tiny w, unlike numpy's naive log(1+w).  Where |1+w| <
    1/2 (s < -3/4: the log1p argument has lost its leading digits near -1)
    or |w|^2 overflows, the real part is log|1+w| instead; near w = -1, 1+x
    is exact.

    Taking the parts lets a caller that forms w in real arithmetic skip the
    complex w; x and y have one shape.  Without out the result is a new
    complex array.  A caller that keeps the parts apart passes out = (re,
    im), two contiguous float arrays of that shape that share no memory
    with x or y, and gets back the flat indices of the far entries, where
    re is log|1+w|.  imag=False then skips the imaginary part and its
    arctan2, and im is only scratch.

    A caller that forms s its own way, without cancellation, hands it in as
    s (a float array of x's shape; it may be re, which is overwritten) with
    far, the flat indices that take log|1+w|: those of s < -3/4 or s = inf,
    less any the caller fills itself.  Forming s and the scan for far are
    then skipped, and with imag=False y is read only at far.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    res = None
    if out is None:
        res = np.empty(x.shape, dtype=complex)
        out, imag = (res.real, res.imag), True
    re, im = out
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if s is None:
            # s goes to re, its first term x(2 + x) by way of im
            np.add(x, 2.0, out=im)
            im *= x
            np.multiply(y, y, out=re)
            re += im
            s = re
            far = np.flatnonzero((s < -0.75) | (s == np.inf))
        np.log1p(s, out=re)
        re *= 0.5
        if imag:
            np.add(x, 1.0, out=im)
            np.arctan2(y, im, out=im)
        # flat indices: a boolean-mask store raised perfbench series_route's
        # peak RSS from 61 to 67 MB (BENCH_16.json)
        xf, yf = x.reshape(-1)[far], y.reshape(-1)[far]
        # numpy's complex abs: np.hypot differs from it in the last bit
        re.reshape(-1)[far] = np.log(np.abs((1.0 + xf) + 1j * yf))
    return far if res is None else res


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
