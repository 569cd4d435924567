"""Entire interpolants, their time profiles, smoothing, and biorthogonality.

The chain per index m:

    psi: product * (multiplier ratio)^omega * sinc(delta(z - node))^{1+k}
    theta(t) = (1/2pi) int psi(x) e^{+ixt} dx
    zeta = theta convolved with a modulated triangle kernel, renormalized

with node_m = i conj(lambda_m).  The sign convention e^{+ixt} makes

    int theta_m(t) e^{conj(lambda_n) t} dt = psi_m(i conj(lambda_n))

an identity, i.e. the biorthogonality matrix is exactly the interpolation
value matrix; all quadrature error lives in the transform.  The eps = 0
family has the closed form e^{imt}/(2pi) on (-pi, pi) and doubles as the
end-to-end oracle for the transform path; its biorthogonality matrix comes
from the shared exponential-sum integral `core.exp_integral`.

Every member of every family is an exponential sum on rates the family's
members share.  The FFT samples theta_m(t) = (dx/2pi) sum_j psi_m(x_j)
e^{i x_j t}, the trigonometric interpolant of its DFT, so theta_m is that
sum exactly, with rates i x_j on the x grid; the discrete convolution that
makes zeta_m multiplies the weights by the kernel's discrete-time
transform.  Member -m is the conjugate sum on the rates -i x_j = i x_{n-j},
so the shared rates are the n + 1 points i x_j, j = 0..n, x_n = half.

The multiplier power omega must be an integer: the multiplier ratio is an
entire function, but a non-integer power of it is not (branch points at its
zeros), and the transform's support claim rests on entirety.  "fitted" mode
therefore fits the envelope exponent over the working index range and takes
the next integer above 1.25x the fit.

A family build shares its lattice work.  Every member's product is the
Lagrange basis of one generating function F (see `weierstrass`), so each
point set (envelope-fit grid, probe points, FFT grid) gets one log F pass for
the whole family; per m only a linear factor and a constant remain.  The
lattice is mirror-symmetric, lambda_{-m} = conj(lambda_m), so node_{-m} =
-conj(node_m), F(-x) = conj F(x) on the real axis and the multiplier is even
with real Taylor coefficients.  Hence F and the multiplier are evaluated
once on |x| over half the grid (the multiplier's per-m starting node handled
by subtracting the short prefix of factor logs), psi_{-m}(x) =
conj(psi_m(-x)) and theta_{-m} = conj(theta_m): members are assembled for
m > 0 only, and the m < 0 members are conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigError, ProblemConfig, exp_integral, next_pow2, sinc_c,
                   validate_config)
from .multiplier import MultiplierEvaluator
from .spectrum import lambda_conj_vals, node_start, node_sum_bound
from .weierstrass import ProductEvaluator, envelope_fit

LATTICE_TYPE = math.pi  # exponential type of the interpolation product:
# the node moduli |conj(lambda_n)| >= |n|, so the counting function stays
# below that of the integer lattice, whose canonical product has type pi


@dataclass(frozen=True)
class EntireInterpolant:
    """Assembled interpolant for one index m."""
    m: int
    eps: float
    alpha: float
    delta: float
    decay_boost: int
    omega: int
    product: ProductEvaluator
    mult: MultiplierEvaluator | None
    node: complex
    log_mult_node: complex  # omega * log M(node), 0 when no multiplier

    @property
    def declared_type(self) -> float:
        l2 = node_sum_bound(self.eps, self.alpha) if self.mult is not None else 0.0
        return LATTICE_TYPE + self.omega * l2 + (1 + self.decay_boost) * self.delta

    def log_psi(self, z, log_mult=None, log_f=None) -> np.ndarray:
        """log psi_m(z); log_mult is log M_m(z) and log_f the generating
        function's log F(z), if the caller already has them."""
        z = np.asarray(z, dtype=complex)
        out = self.product.log_eval(self.m, z, log_f)
        if self.mult is not None:
            if log_mult is None:
                log_mult = self.mult.log_eval(self.m, z)
            out = out + self.omega * log_mult - self.log_mult_node
        w = self.delta * (z - self.node)
        with np.errstate(divide="ignore"):
            out = out + (1 + self.decay_boost) * np.log(sinc_c(w))
        return out


def make_interpolant(m: int, cfg: ProblemConfig, omega: int,
                     product: ProductEvaluator | None = None,
                     mult: MultiplierEvaluator | None = None) -> EntireInterpolant:
    eps, alpha = cfg.epsilon, cfg.alpha
    if product is None:
        product = ProductEvaluator(eps, alpha)
    if not (eps > 0 and alpha > 0):
        mult = None
    elif mult is None:
        mult = MultiplierEvaluator(eps, alpha)
    node = 1j * complex(lambda_conj_vals(m, eps, alpha))
    log_node = 0.0 + 0.0j
    if mult is not None:
        log_node = omega * complex(mult.log_eval(m, node))
    return EntireInterpolant(m=m, eps=eps, alpha=alpha, delta=cfg.delta,
                             decay_boost=cfg.decay_boost, omega=omega,
                             product=product, mult=mult, node=node,
                             log_mult_node=log_node)


def resolve_omega(cfg: ProblemConfig, m_range, product: ProductEvaluator,
                  fit_half_width: float = 400.0):
    """Multiplier power: fixed integer from config, or envelope-fitted
    (one log F pass on the fit grid for every |m|).

    Returns (omega, omega_hats); omega_hats is empty in fixed mode.
    """
    if cfg.omega_mode == "fixed":
        val = cfg.omega_value
        if val != int(val):
            raise ConfigError("omega must be an integer (entirety of the "
                              "interpolant requires whole multiplier powers)")
        return int(val), ()
    xs = np.linspace(0.0, fit_half_width, 3000)
    log_f = product.log_generating(xs)
    hats = [envelope_fit(m, cfg.epsilon, cfg.alpha, xs, product, log_f).omega_hat
            for m in sorted({abs(m) for m in m_range})]
    omega = max(1, int(np.ceil(1.25 * max(hats))))
    return omega, tuple(hats)


# ---------------------------------------------------------------------------
# time side
# ---------------------------------------------------------------------------

def fourier_to_time(psi: np.ndarray, half_width: float, dx: float):
    """theta(t) = (1/2pi) int psi(x) e^{ixt} dx on the FFT's t grid."""
    n = len(psi)
    th = np.fft.ifft(psi) * n * dx / (2.0 * np.pi)
    tg = np.fft.fftfreq(n, d=dx) * 2.0 * np.pi
    th = np.fft.fftshift(th * np.exp(-1j * half_width * tg))
    return np.fft.fftshift(tg), th


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Biorthogonal family, sampled and as exponential sums.

    kind: "theta" (raw transform), "zeta" (smoothed), "sinc_limit" (eps=0
    closed form).  values maps index m to samples on the uniform t_grid;
    member m is also exactly sum_k weights[m][k] e^{rates[k] t} on window
    and zero outside, with rates shared by every member.  support_half is
    the declared half-support (T~/2, T0/2, or pi).
    """
    kind: str
    eps: float
    alpha: float
    indices: tuple
    t_grid: np.ndarray
    values: dict
    rates: np.ndarray
    weights: dict
    window: tuple
    norms: dict
    support_half: float
    beta_hat: float
    c_hat: float
    omega: int
    omega_hats: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def member(self, m: int) -> np.ndarray:
        if m not in self.values:
            raise ConfigError(f"family has no index {m}")
        return self.values[m]


def build_sinc_family(m_range, points_per_unit: float = 64.0) -> BiorthogonalFamily:
    ms = tuple(sorted(m for m in m_range if m != 0))
    n = next_pow2(int(2.0 * np.pi * points_per_unit)) + 1
    tg = np.linspace(-np.pi, np.pi, n)
    vals = {m: np.exp(1j * m * tg) / (2.0 * np.pi) for m in ms}
    weights = {m: np.where(np.asarray(ms) == m, 1.0 / (2.0 * np.pi), 0.0) + 0j
               for m in ms}
    nrm = 1.0 / np.sqrt(2.0 * np.pi)
    return BiorthogonalFamily(kind="sinc_limit", eps=0.0, alpha=0.0, indices=ms,
                              t_grid=tg, values=vals,
                              rates=1j * np.asarray(ms, dtype=float),
                              weights=weights, window=(-np.pi, np.pi),
                              norms={m: nrm for m in ms}, support_half=np.pi,
                              beta_hat=0.0, c_hat=nrm, omega=0)


def _probe_half_width(interps, lo: float = 100.0, hi: float = 2000.0,
                      step: float = 50.0, tol: float = 1e-12) -> float:
    """Smallest probe radius where every interpolant is below tol.

    Two slightly offset probes per side guard against landing on a sinc zero.
    The interpolants share one product evaluator, so one log F pass per
    radius serves them all.
    """
    x = lo
    while x <= hi:
        pts = np.array([-x - 0.37, -x, x, x + 0.37], dtype=complex)
        log_f = interps[0].product.log_generating(pts)
        worst = 0.0
        for it in interps:
            worst = max(worst, float(np.max(np.abs(np.exp(it.log_psi(pts, log_f=log_f))))))
        if worst < tol:
            return x + step  # one step of margin
        x += step
    raise ConfigError("interpolant envelope does not reach 1e-12 by |x| = 2000; "
                      "increase the quadrature budget explicitly")


def _norm_fit(norms: dict, eps: float, alpha: float) -> tuple[float, float]:
    """(beta_hat, c_hat) of the fit log ||family_m|| ~ log c_hat +
    beta_hat eps m^{2a} over m > 0; beta_hat = 0 with the largest norm when
    fewer than two distinct rates are available."""
    pos = [m for m in norms if m > 0]
    re_l = np.array([eps * m ** (2.0 * alpha) for m in pos])
    log_n = np.array([np.log(norms[m]) for m in pos])
    if len(pos) >= 2 and np.ptp(re_l) > 0:
        beta_hat, log_c = np.polyfit(re_l, log_n, 1)
    else:
        beta_hat, log_c = 0.0, float(np.max(log_n))
    return float(beta_hat), float(np.exp(log_c))


def build_theta_family(cfg: ProblemConfig, m_range) -> BiorthogonalFamily:
    """Assemble interpolants for every |m| and transform them to time.

    One shared x grid serves the whole family.  log F, the multiplier bulk
    and the per-m prefixes are evaluated on |x| = j dx, j = 0..n/2, and
    gathered onto the grid x_j = (j - n/2) dx (F conjugated at x < 0); per
    |m| only the product's linear factor and constant, the multiplier
    prefix and the sinc factor remain.  Member m > 0 keeps its weights
    (dx/2pi) psi_m(x_j) on the shared rates; member -m is the conjugate of
    member m.  On the periodic DFT grid that is exact up to one sample: the
    reflection of x_0 = -half is its periodic partner +half (half t_k = pi
    k), so the edge check also reads psi_m[1], the mirrored member's last
    sample.
    """
    cfg = validate_config(cfg, for_synthesis=True)
    eps, alpha = cfg.epsilon, cfg.alpha
    ms = tuple(sorted(m for m in m_range if m != 0))
    if not ms:
        raise ConfigError("empty index range")
    ks = sorted({abs(m) for m in ms})

    product = ProductEvaluator(eps, alpha)
    need_mult = eps > 0 and alpha > 0
    if need_mult:
        omega, omega_hats = resolve_omega(cfg, ms, product)
    else:
        omega, omega_hats = 0, ()

    half = cfg.quad.half_width
    if half is None:
        # probe with a throwaway multiplier: probing visits large |x| and
        # would otherwise inflate the evaluator's direct-factor range far
        # beyond what the final grid needs; the probe points are
        # mirror-closed, so the m > 0 members speak for the m < 0 ones
        probe_mult = MultiplierEvaluator(eps, alpha) if need_mult else None
        probe = [make_interpolant(k, cfg, omega, product=product, mult=probe_mult)
                 for k in ks]
        half = _probe_half_width(probe)
    mult = MultiplierEvaluator(eps, alpha, z_max=half) if need_mult else None
    interps = {k: make_interpolant(k, cfg, omega, product=product, mult=mult)
               for k in ks}

    n = next_pow2(int(2.0 * half * cfg.quad.points_per_unit))
    dx = 2.0 * half / n
    fold = np.abs(np.arange(n) - n // 2)  # |x_j| = dx * fold[j]
    z_abs = dx * np.arange(n // 2 + 1, dtype=complex)
    zg = np.where(np.arange(n) < n // 2, -z_abs[fold], z_abs[fold])
    log_f = product.log_generating(z_abs)[fold]
    log_f[:n // 2] = log_f[:n // 2].conj()  # F(-x) = conj F(x)

    base_mult = mult.log_eval_start(1, z_abs) if mult is not None else None

    support_half = interps[ks[0]].declared_type
    members = {}
    edge_worst = 0.0
    tg_kept = None
    for k in ks:
        log_mult = None if mult is None else \
            (base_mult - mult.log_factor_range(1, node_start(k, eps, alpha) - 1, z_abs))[fold]
        psi = np.exp(interps[k].log_psi(zg, log_mult, log_f))
        edge_worst = max(edge_worst, float(np.max(np.abs(psi[[0, 1, -1]]))))
        tg, th = fourier_to_time(psi, half, dx)
        dt = tg[1] - tg[0]
        total = float(np.sum(np.abs(th) ** 2) * dt)
        inside = np.abs(tg) <= support_half
        outside = float(np.sum(np.abs(th[~inside]) ** 2) * dt / total) \
            if total > 0 else 0.0
        keep = np.abs(tg) <= min(tg[-1], support_half + 2.0 * cfg.smoothing_a + 4.0)
        if tg_kept is None:
            tg_kept = tg[keep]
        th = th[keep]
        members[k] = (th, float(np.sqrt(np.sum(np.abs(th) ** 2) * dt)), outside,
                      np.append(psi * (dx / (2.0 * np.pi)), 0.0))
    if edge_worst > 1e-8:
        raise ConfigError(f"quadrature budget insufficient: |psi| = {edge_worst:.2e} "
                          "at the grid edge")

    values = {m: members[m][0] if m > 0 else np.conj(members[-m][0]) for m in ms}
    # weight j of member -m sits on rate i x_{n-j} = -i x_j
    weights = {m: members[m][3] if m > 0 else np.conj(members[-m][3][::-1]) for m in ms}
    norms = {m: members[abs(m)][1] for m in ms}
    outside_mass = {m: members[abs(m)][2] for m in ms}
    beta_hat, c_hat = _norm_fit(norms, eps, alpha)
    meta = {"half_width": half, "dx": dx, "n_fft": n, "psi_edge": edge_worst,
            "outside_mass": outside_mass, "points_per_unit": cfg.quad.points_per_unit}
    return BiorthogonalFamily(kind="theta", eps=eps, alpha=alpha, indices=ms,
                              t_grid=tg_kept, values=values,
                              rates=1j * dx * (np.arange(n + 1) - n // 2),
                              weights=weights,
                              window=(float(tg_kept[0]), float(tg_kept[-1])), norms=norms,
                              support_half=support_half,
                              beta_hat=beta_hat, c_hat=c_hat,
                              omega=omega, omega_hats=omega_hats, meta=meta)


def smoothing_kernel(a: float, x) -> np.ndarray:
    """Triangle kernel sqrt(2pi) (a - |x|)/a^2 on [-a, a]; integral sqrt(2pi)."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= a, np.sqrt(2.0 * np.pi) * (a - np.abs(x)) / a ** 2, 0.0)


def zeta_eval(theta_family: BiorthogonalFamily, a: float) -> BiorthogonalFamily:
    """Convolve every member with the modulated triangle kernel.

    rho_m(x) = e^{i x Im(lambda_m)} k_a(x); the normalizer is the discrete
    integral of rho_m against e^{conj(lambda_m) x} in the same Riemann-sum
    convention as the biorthogonality quadrature, so the m-th moment stays
    exactly 1 at the discrete level (closed form sqrt(2pi) sinhc^2(Re
    lambda_m a/2) serves as its oracle, not its definition).

    In frequency the convolution multiplies each weight of the theta member
    by R_m(x_j) = (dt/normalizer) sum_l rho_m(u_l) e^{-i x_j u_l}; since
    x_j u_l = 2pi (j - n/2) l / n that is one length-n DFT of (-1)^l rho_m(u_l),
    and R_m(x_n) = R_m(x_0).
    """
    if a <= 0:
        raise ConfigError("kernel half-width must be positive")
    fam = theta_family
    if fam.kind != "theta":
        raise ConfigError("smoothing applies to a theta family")
    dt = fam.dt
    k = int(np.floor(a / dt))
    if k < 1:
        raise ConfigError("kernel narrower than the time grid spacing")
    ls = np.arange(-k, k + 1)
    u = dt * ls
    tri = smoothing_kernel(a, u)
    n = fam.meta["n_fft"]
    values = {}
    weights = {}
    norms = {}
    normalizers = {}
    for m in fam.indices:
        im_l = float(m)  # Im lambda_m = m
        lam_c = complex(lambda_conj_vals(m, fam.eps, fam.alpha))
        rho = np.exp(1j * im_l * u) * tri
        normalizer = complex(np.sum(rho * np.exp(lam_c * u)) * dt)
        if abs(normalizer) < 1e-300:
            raise ConfigError(f"smoothing normalizer vanished for m = {m}")
        values[m] = np.convolve(fam.member(m), rho, mode="same") * dt / normalizer
        g = np.zeros(n, dtype=complex)
        g[ls % n] = np.where(ls % 2 == 0, rho, -rho)
        r_m = np.fft.fft(g) * (dt / normalizer)
        weights[m] = fam.weights[m] * np.append(r_m, r_m[0])
        norms[m] = float(np.sqrt(np.sum(np.abs(values[m]) ** 2) * dt))
        normalizers[m] = normalizer
    beta_hat, c_hat = _norm_fit(norms, fam.eps, fam.alpha)
    meta = dict(fam.meta)
    meta["kernel_half_width"] = a
    meta["normalizers"] = normalizers
    return BiorthogonalFamily(kind="zeta", eps=fam.eps, alpha=fam.alpha,
                              indices=fam.indices, t_grid=fam.t_grid,
                              values=values, rates=fam.rates, weights=weights,
                              window=fam.window, norms=norms,
                              support_half=fam.support_half + a,
                              beta_hat=beta_hat, c_hat=c_hat,
                              omega=fam.omega, omega_hats=fam.omega_hats, meta=meta)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _cut_integral(tg: np.ndarray, th: np.ndarray, dt: float, lam_c: complex) -> complex:
    """Riemann sum of th * e^{lam_c t} between the per-side minima of the
    integrand magnitude.

    The transform's noise floor, multiplied by a growing exponential, would
    otherwise dominate the tails; cutting each side where the integrand is
    smallest is a stationary (first-order insensitive) truncation choice.
    Magnitudes are maxima over 5 neighbours: a lone, quantized noise sample
    can be exactly 0 and would win the minimum where e^{Re lam_c t} is huge.
    """
    mag = np.abs(th) * np.exp(lam_c.real * tg)
    mag = np.lib.stride_tricks.sliding_window_view(np.pad(mag, 2, mode="edge"), 5).max(axis=1)
    c = len(tg) // 2
    ip = c + int(np.argmin(mag[c:]))
    im_ = int(np.argmin(mag[:c + 1]))
    return complex(np.sum(th[im_:ip + 1] * np.exp(lam_c * tg[im_:ip + 1])) * dt)


def biorthogonality_matrix(family: BiorthogonalFamily, m_range, n_range):
    """B_{mn} = int family_m(t) e^{conj(lambda_n) t} dt and max |B - I|.

    The eps = 0 family integrates its exponential sums in closed form through
    `core.exp_integral`.  theta and zeta members are integrated from their
    samples by Riemann sum with per-entry stationary cuts: their exact sums
    carry the transform's noise floor over the whole kept window, where
    e^{Re lambda t} amplifies it past the entries themselves.
    """
    ms = [m for m in m_range if m != 0]
    ns = [n for n in n_range if n != 0]
    lam_cs = lambda_conj_vals(np.asarray(ns), family.eps, family.alpha)
    out = np.empty((len(ms), len(ns)), dtype=complex)
    if family.kind == "sinc_limit":
        lo, hi = family.window
        basis = exp_integral(lam_cs[:, None], 0.0, family.rates, 0.0, lo, hi)
        for i, m in enumerate(ms):
            out[i] = basis @ family.weights[m]
    else:
        for i, m in enumerate(ms):
            for j, lc in enumerate(lam_cs):
                out[i, j] = _cut_integral(family.t_grid, family.member(m), family.dt, lc)
    target = np.equal.outer(ms, ns).astype(float)
    return out, float(np.max(np.abs(out - target)))
