"""Problem configuration, modal data model, and shared numeric helpers.

`ProblemConfig` holds the problem alone: alpha, eps, T and N.  How the
biorthogonal family is built is fixed by constants in `biorthogonal`, so a
config file (see `load_config`) has one [problem] section with those four
keys and nothing else.

The numerics other modules share live here too: `exp_integral`, the one
exponential-sum integral (a broadcast form for the Gram matrices, a
contracted resolvent form for exponential sums); `exp_sum_norm`, the
Parseval norm that the families and the series control read; the
direct-head engine (`direct_sums`) and the lattice-series engine
(`stride_tail_sums`, `power_series`) that the interpolation product and the
multiplier share; `log1p_c` and `sinhc`.

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
    smoothing half-width, FFT density) is fixed by the constants in
    `biorthogonal`; the multiplier power is not a constant but fitted from
    the product's envelope (`biorthogonal.resolve_omega`).
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
    conditioned there as smoothly as at nearby alpha.  The commands that
    synthesize nothing (`spectrum dump`, `ingham run --omega-weight`)
    accept it.
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
            "alpha = 1/2 is spectrally degenerate; control synthesis refused")
    return cfg


_INI_KEYS = {"alpha": float, "epsilon": float, "horizon_T": float, "n_modes": int}


def read_config(path: str) -> dict:
    """The [problem] keys an INI file sets, each parsed to its type.

    The file holds one [problem] section with the keys alpha, epsilon,
    horizon_T and n_modes; keys are case-sensitive.  Any other section or
    key, a non-numeric value or a non-integer n_modes raises ConfigError
    naming it.  A key the file leaves out is absent from the dict, so a
    caller can tell a default from a value the file gives.
    """
    import configparser   # only --config reads it: off every command's import path

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a valid INI file: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}: it is missing, "
                          "a directory or unreadable")
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
    return kw


def load_config(path: str) -> ProblemConfig:
    """Read a ProblemConfig from an INI file (`read_config`): alpha and
    epsilon are required, horizon_T and n_modes default as in the dataclass."""
    kw = read_config(path)
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


# the lattice-series tables of the product and the multiplier keep a column at
# every STRIDE-th node, so a point's direct cutoff is rounded up to one of them
STRIDE = 16
# most term x point entries one `direct_sums` kernel call forms
BLOCK_TERMS = 24576


def direct_sums(z: np.ndarray, cuts: np.ndarray, kernel, dests, work: int,
                first: int = 1) -> None:
    """The direct head of a canonical product: at each point z_i the terms
    n = first..cuts[i] summed, into dests, one float array of len(z) per
    part the kernel forms, which start at zero: a point with no term to sum
    may be left as it is.

    kernel(lo, hi, zc, views) forms the terms n = lo+1..hi at the points zc,
    a 1-d array, on views, `work` float arrays of shape (hi - lo, len(zc)),
    and returns one such array per dest.  Rows that no point may sum, below
    first or past a cutoff that is not a multiple of STRIDE, or a skipped
    term, it zeroes itself.

    One policy serves both products.  The real points and the others are
    walked apart, so they never share a kernel call.  A walk sorts its
    points by cutoff and runs over the rows in STRIDE-multiple ranges, from
    the stride that holds first, over the points whose cutoff lies past the
    range's start: as many rows as BLOCK_TERMS allows at that point count,
    at least STRIDE, and none past the largest cutoff.  Where one stride
    already passes BLOCK_TERMS the columns are cut into near-equal blocks.
    The work arrays are allocated once per call.  Each stride is summed row
    by row, and the strides in order onto a point's running sum, and each
    point reads its own sum after row STRIDE ceil(cuts[i]/STRIDE): so a
    point gets the same bits alone as in any batch, of any width.
    """
    z = np.asarray(z)
    cuts = -(-np.asarray(cuts) // STRIDE) * STRIDE   # the row each point reads at
    start = STRIDE * ((first - 1) // STRIDE)
    size = min(BLOCK_TERMS, len(z) * (int(np.max(cuts, initial=start)) - start))
    # separate arrays, not one (work, size) block: freeing a 4 MB block once
    # lifted glibc's mmap threshold and series_route's peak RSS, 61 -> 65 MB
    arrays = [np.empty(size) for _ in range(work)]
    real = z.imag == 0
    for group in (np.flatnonzero(real), np.flatnonzero(~real)):
        if not len(group):
            continue
        order = group[np.argsort(cuts[group], kind="stable")]
        ends = cuts[order]
        runs = np.zeros((len(dests), len(order)))
        lo = start
        active = int(np.searchsorted(ends, lo, side="right"))
        while active < len(order):
            count = len(order) - active
            hi = min(lo + STRIDE * max(1, BLOCK_TERMS // (count * STRIDE)), int(ends[-1]))
            rows = hi - lo
            done = int(np.searchsorted(ends, hi, side="right"))   # points that end here
            blocks = -(-count * rows // BLOCK_TERMS)
            edges = active + np.arange(blocks + 1) * count // blocks
            for c0, c1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
                views = [a[:rows * (c1 - c0)].reshape(rows, c1 - c0) for a in arrays]
                ended = min(c1, done)
                at = (ends[c0:ended] - lo) // STRIDE - 1, np.arange(ended - c0)
                for part, run, dest in zip(kernel(lo, hi, z[order[c0:c1]], views), runs, dests):
                    sums = _stride_sums(part)
                    sums[0] += run[c0:c1]
                    np.cumsum(sums, axis=0, out=sums)
                    run[c0:c1] = sums[-1]
                    dest[order[c0:ended]] = sums[at]
            lo, active = hi, done


def _stride_sums(part: np.ndarray) -> np.ndarray:
    """The sum of each STRIDE rows of part, row by row in every column:
    numpy sums along the rows of a block of columns in order, but a lone
    column pairwise, so that one is taken from its running sums."""
    strides = part.reshape(-1, STRIDE, part.shape[1])
    if part.shape[1] > 1:
        return strides.sum(axis=1)
    return np.cumsum(strides, axis=1)[:, -1]


def stride_tail_sums(inv: np.ndarray, powers: int, carry, part=None) -> np.ndarray:
    """Tail power sums of a lattice at every STRIDE-th node: row k-1,
    column c holds carry[k-1] + sum_{n > STRIDE c} part(inv_n^k, k), n
    running over the nodes 1..len(inv) of the inverses inv, and the last
    column is carry itself, the sums past the last node.  part maps the k-th
    powers to the table's entries, the identity if None; the table has
    carry's dtype.

    The stride sums are formed one power at a time, so no powers x nodes
    array is built, and added to carry from the far end, each entry one
    sequential sum.  These are the series coefficients of a canonical
    product over the lattice past a point's direct cutoff (Levin,
    Distribution of Zeros of Entire Functions, ch. I)."""
    carry = np.asarray(carry)
    starts = np.arange(0, len(inv), STRIDE)
    tab = np.empty((powers, len(starts) + 1), dtype=carry.dtype)
    tab[:, -1] = carry
    power = np.ones_like(inv)
    for k, row in enumerate(tab[:, :-1], 1):
        power *= inv
        row[:] = np.add.reduceat(power if part is None else part(power, k), starts)
    np.cumsum(tab[:, ::-1], axis=1, out=tab[:, ::-1])
    return tab


def power_series(tab: np.ndarray, col: np.ndarray, x) -> np.ndarray:
    """sum_{k=1}^{rows} tab[k-1, col_i] x_i^k at the points x_i, each point
    reading its own column col_i of a `stride_tail_sums`-shaped table, by
    Horner in x, gathering one table row at a time."""
    acc = tab[-1, col].astype(np.result_type(tab, x), copy=False)
    for row in tab[-2::-1]:
        acc *= x
        acc += row[col]
    acc *= x
    return acc


def log1p_c(x: np.ndarray, y: np.ndarray, out, imag: bool = True, s=None, far=None):
    """Complex log(1+w) at w = x + iy, given as its real and imaginary parts,
    in a closed form that keeps tiny w:
    log(1+w) = 1/2 log1p(s) + i atan2(y, 1+x), s = |1+w|^2 - 1 = x(2+x) + y^2,
    never adds 1 to a tiny w, unlike numpy's naive log(1+w).  Where |1+w| <
    1/2 (s < -3/4: the log1p argument has lost its leading digits near -1)
    or |w|^2 overflows, the real part is log|1+w| instead; near w = -1, 1+x
    is exact.

    Taking the parts lets a caller that forms w in real arithmetic skip the
    complex w; x and y have one shape.  The parts go to out = (re, im), two
    contiguous float arrays of that shape that share no memory with x or y,
    and the call returns the flat indices of the far entries, where re is
    log|1+w|.  imag=False skips the imaginary part and its arctan2, and im
    is only scratch.

    A caller that forms s its own way, without cancellation, hands it in as
    s (a float array of x's shape; it may be re, which is overwritten) with
    far, the flat indices that take log|1+w|: those of s < -3/4 or s = inf,
    less any the caller fills itself.  Forming s and the scan for far are
    then skipped, and with imag=False y is read only at far.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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
    return far


def sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w with the removable singularity filled (complex-safe): sinh(w)/w
    everywhere, then the Taylor series 1 + w^2/6 (1 + w^2/20 (1 + w^2/42)) at
    the flat indices where |w| < 1e-3, so no full-array select is formed."""
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)   # an array even for 0-d w
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sinh(w, out=out)
        out /= w
    small = np.flatnonzero(np.abs(w) < 1e-3)
    if small.size:
        w2 = w.reshape(-1)[small]
        w2 = w2 * w2
        out.reshape(-1)[small] = 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0))
    return out


def exp_integral(p, a, rho, c, lo, hi, weights=None) -> np.ndarray:
    """int_lo^hi e^{p(s-a)} e^{rho(s-c)} ds in closed form, 0 where hi <= lo.

    Broadcast form (weights None): every argument broadcasts and each entry
    is L e^{p(mid-a) + rho(mid-c)} sinhc((p+rho) L/2) with L = hi - lo and
    mid = (lo+hi)/2, so on (-T/2, T/2) with a = c = 0 it is bit for bit
    T sinhc((p+rho) T/2).  The Gram matrices read this form.

    Contracted form: rho is 1-D, the K rates of the exponential sum
    v(s) = sum_k W_k e^{rho_k (s-c)}, weights is W, of shape (K,) or (M, K)
    for M sums on the same rates, lo and hi are scalars and p and a
    broadcast to a shape S.  The result, of shape S or S + (M,), is
    int_lo^hi e^{p(s-a)} v(s) ds, which is the broadcast form @ weights.T.
    With q_k = p + rho_k and g_k(s) = W_k e^{rho_k(s-c)}, the resolvent
    (Cauchy-matrix) identity gives it as

        e^{p(hi-a)} sum_k g_k(hi)/q_k - e^{p(lo-a)} sum_k g_k(lo)/q_k,

    so the 2K exponentials g_k(lo) and g_k(hi) are shared by every p, and
    each p costs one Cauchy row 1/q_k, contracted by a matmul.  Each factor
    is formed on its own, so e^{p(s-a)} and g_k(s) must each be finite at
    lo and hi, where the broadcast form needs only their product.  The near
    rule: where |q_k| L < 1 the two endpoint terms cancel, leaving a
    relative rounding error of about 2^-53 / (|q_k| L), and at q_k = 0 each
    is infinite.  Those entries, gathered by flat index, keep the broadcast
    form's sinhc expression, written as
    e^{p(lo-a)} g_k(lo) L e^{q_k L/2} sinhc(q_k L/2); sinhc is called only
    if there are any.  At K = n_fft + 1 rates and a few dozen p the dense
    Cauchy product is cheap; fast Cauchy and multipole methods (Rokhlin,
    J. Comput. Phys. 1985) are not needed.

    This is the one exponential-sum integral: the Gram matrices read the
    broadcast form (and so does the Gram control's moment check, through
    G beta); the exact propagation, the series control's moment check and
    the biorthogonality matrix read the contracted form.
    """
    if weights is not None:
        return _resolvent_sum(np.asarray(p), np.asarray(a, dtype=float), np.asarray(rho),
                              c, float(lo), float(hi), np.asarray(weights))
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(hi, lo)
    length = hi - lo
    mid = 0.5 * (lo + hi)
    with np.errstate(over="ignore", invalid="ignore"):
        val = length * np.exp(p * (mid - a) + rho * (mid - c)) \
            * sinhc((p + rho) * length / 2.0)
    return np.where(length > 0.0, val, 0.0)


def _resolvent_sum(p, a, rho, c, lo, hi, weights):
    """`exp_integral`'s contracted form; see there."""
    length = hi - lo
    if not length > 0.0:
        return np.zeros(np.broadcast_shapes(p.shape, a.shape) + weights.shape[:-1],
                        dtype=complex)
    ends = np.array([hi, lo])
    q = (p[..., None] + rho).reshape(-1, len(rho))   # one Cauchy row per p
    g = weights[..., None, :] * np.exp(rho * (ends - c)[:, None])   # g_k(hi), g_k(lo)
    near = np.flatnonzero(np.abs(q) < 1.0 / length)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cauchy = 1.0 / q
        edge = np.exp(p[..., None] * (ends - a[..., None]))   # e^{p(hi-a)}, e^{p(lo-a)}
    cauchy.reshape(-1)[near] = 0.0
    cauchy_lo = cauchy
    if near.size:
        w = q.reshape(-1)[near] * (0.5 * length)
        cauchy_lo = cauchy.copy()
        # negated: the lo sum is subtracted below
        cauchy_lo.reshape(-1)[near] = -length * np.exp(w) * sinhc(w)
    sums = p.shape + weights.shape[:-1]
    s_hi = (cauchy @ g[..., 0, :].T).reshape(sums)
    s_lo = (cauchy_lo @ g[..., 1, :].T).reshape(sums)
    e_hi, e_lo = edge[..., 0], edge[..., 1]
    if weights.ndim > 1:
        e_hi, e_lo = e_hi[..., None], e_lo[..., None]
    return e_hi * s_hi - e_lo * s_lo


def exp_sum_norm(weights, period: float) -> float:
    """||sum_k w_k e^{r_k t}||_2 = sqrt(period sum_k |w_k|^2) over one common
    period of distinct orthogonal rates (Parseval).  Outside its window a
    family member is below `biorthogonal.WINDOW_FLOOR` of its peak, so this
    is its norm over the window to about 1e-26 relative."""
    return float(np.sqrt(period * np.sum(np.abs(weights) ** 2)))


def sinc_c(w: np.ndarray) -> np.ndarray:
    """sin(w)/w for complex w (equals sinhc(iw))."""
    return sinhc(1j * np.asarray(w, dtype=complex))


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1)).bit_length()
