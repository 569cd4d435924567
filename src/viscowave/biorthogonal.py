"""Entire interpolants, their time profiles, smoothing, and biorthogonality.

The chain per index m:

    psi (`log_psi`): product * (multiplier ratio)^omega * sinc(delta(z - node))^{1+k}
    theta(t) = (1/2pi) int psi(x) e^{+ixt} dx
    zeta = theta convolved with a modulated triangle kernel, renormalized

with node_m = i conj(lambda_m).  The sign convention e^{+ixt} makes

    int theta_m(t) e^{conj(lambda_n) t} dt = psi_m(i conj(lambda_n))

an identity, i.e. the biorthogonality matrix is exactly the interpolation
value matrix; all quadrature error lives in the transform.  The chain runs
unchanged at every eps >= 0 (at eps = 0 with no multiplier), so the eps = 0
family is the eps -> 0 limit of the others.  Another biorthogonal family at
eps = 0 has the closed form e^{imt}/(2pi) on (-pi, pi) (`build_sinc_family`);
it shares no code with the transform path and is kept only as that path's
reference.

Every member of every family is an exponential sum on rates the family's
members share, zero outside the family's window, and nothing else is kept.
theta_m(t) = (dx/2pi) sum_j psi_m(x_j) e^{i x_j t}, the trigonometric
interpolant of the FFT's samples, with rates i x_j on the x grid; the
discrete convolution that makes zeta_m multiplies the weights by the
kernel's discrete-time transform.  Member -m is the conjugate sum on the
mirrored rates -i x_j = i x_{n-j}, so the shared rates are the n + 1 points
i x_j, j = 0..n, x_n = half.  They are orthogonal over their common period
2pi/dx, so Parseval gives every norm from the weights
(`core.exp_sum_norm`).
The window is measured once from each member's FFT samples (the
Paley-Wiener type bounds the support but does not say where the mass sits),
and the biorthogonality check, the control and its horizon all read it.
The check integrates every member over that window in closed form by the
resolvent sum of `core.exp_integral`'s contracted form: per n one Cauchy row
1/(conj(lambda_n) + i x_j), contracted with all members' weights at once.

The multiplier power omega must be an integer: the multiplier ratio is an
entire function, but a non-integer power of it is not (branch points at its
zeros), and the transform's support claim rests on entirety.  `resolve_omega`
therefore fits the envelope exponent over the working index range and takes
the next integer above 1.25x the fit.

How the family is built is fixed by the module constants below: the sinc
width, the extra sinc powers, the smoothing half-width and the x-grid
density.  None of them is part of the problem (eps, alpha, T, N).

A family build shares its lattice work: one product evaluator and one
multiplier evaluator serve the envelope fit, the half-width probe and the FFT
grid.  Every member's product is the Lagrange basis of one generating
function F (see `weierstrass`), so each point set (envelope-fit grid, probe
points, FFT grid) gets one log F pass for the whole family; per m only a
linear factor and a constant remain.  The lattice is mirror-symmetric,
lambda_{-m} = conj(lambda_m), so node_{-m} = -conj(node_m), F(-x) = conj F(x)
on the real axis and the multiplier is even with real Taylor coefficients.
Hence F and the multiplier are evaluated once on |x| over half the grid (the
multiplier's per-m starting node handled by subtracting the short prefix of
factor logs), psi_{-m}(x) = conj(psi_m(-x)), theta_{-m} = conj(theta_m) and,
the smoothing kernel of -m being the conjugate of that of m, zeta_{-m} =
conj(zeta_m): in both families members are assembled for m > 0 only, and the
m < 0 members are conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigError, ProblemConfig, exp_integral, exp_sum_norm, next_pow2,
                   sinc_c, validate_config)
from .multiplier import MultiplierEvaluator
from .spectrum import lambda_conj_vals, node_start, node_sum_bound
from .weierstrass import ProductEvaluator, envelope_fit

LATTICE_TYPE = math.pi  # exponential type of the interpolation product:
# the node moduli |conj(lambda_n)| >= |n|, so the counting function stays
# below that of the integer lattice, whose canonical product has type pi

SINC_DELTA = 0.25  # width delta of the sinc factor sinc(delta (z - node))
# extra sinc powers: each adds delta to the declared type and one power of
# 1/|x| decay on the real axis
DECAY_BOOST = 7
SMOOTHING_A = 0.5  # half-width a of the triangle smoothing kernel
# x-grid density of the FFT, refined so that the grid length is a power of two
POINTS_PER_UNIT = 20.0
OMEGA_FIT_HALF_WIDTH = 400.0  # the envelope fit's grid: 3000 points on [0, this]
WINDOW_FLOOR = 1e-13  # a member is zero below this share of its maximum (noise ~1e-16)


def log_psi(m: int, z, omega: int, product: ProductEvaluator,
            mult: MultiplierEvaluator | None, log_f=None, log_mult=None) -> np.ndarray:
    """log psi_m(z) = log P_m(z) + omega (log M_m(z) - log M_m(node_m))
    + (1 + DECAY_BOOST) log sinc(delta (z - node_m)), node_m = i conj(lambda_m).

    eps and alpha are the evaluators'; mult is None where there is no
    multiplier (eps = 0 or alpha = 0).  log_f is the generating function's
    log F(z) and log_mult is log M_m(z), if the caller already has them.
    """
    node = 1j * complex(lambda_conj_vals(m, product.eps, product.alpha))
    z = np.asarray(z, dtype=complex)
    out = product.log_eval(m, z, log_f)
    if mult is not None:
        if log_mult is None:
            log_mult = mult.log_eval(m, z)
        out = out + omega * log_mult - omega * complex(mult.log_eval(m, node))
    w = SINC_DELTA * (z - node)
    with np.errstate(divide="ignore"):
        out = out + (1 + DECAY_BOOST) * np.log(sinc_c(w))
    return out


def resolve_omega(m_range, product: ProductEvaluator):
    """Multiplier power fitted from the envelope: the next integer above
    1.25x the largest fitted exponent over |m| in m_range; eps and alpha are
    the product's.  The fit reads only moduli, so one log|F| pass on the fit
    grid (`ProductEvaluator.log_abs_generating`, no imaginary parts) serves
    every |m|.

    Returns (omega, omega_hats), the fitted exponents in ascending |m|.
    """
    xs = np.linspace(0.0, OMEGA_FIT_HALF_WIDTH, 3000)
    log_f = product.log_abs_generating(xs)
    hats = [envelope_fit(m, xs, product, log_f)
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
    """Biorthogonal family as exponential sums.

    kind: "theta" (raw transform), "zeta" (smoothed), "sinc_limit" (the
    eps = 0 closed-form reference).  Member m is exactly sum_k weights[m][k]
    e^{rates[k] t} on window and zero outside, with rates shared by every member,
    orthogonal over period (2pi/dx, or 2pi for sinc_limit) and
    mirror-symmetric for a mirror-closed index set; norms are
    `core.exp_sum_norm` of the weights.  theta's window is measured
    (`_measured_window`), zeta widens it by the kernel half-width,
    sinc_limit's is (-pi, pi).  support_half is the declared half-support
    the theorem gives (T~/2, T0/2, or pi).
    """
    kind: str
    eps: float
    alpha: float
    indices: tuple
    rates: np.ndarray
    weights: dict
    window: tuple
    period: float
    norms: dict
    support_half: float
    beta_hat: float
    c_hat: float
    omega: int
    omega_hats: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def min_horizon(self) -> float:
        """The shortest T whose recentred interval (-T/2, T/2) holds the window."""
        return 2.0 * max(-self.window[0], self.window[1])


def build_sinc_family(m_range) -> BiorthogonalFamily:
    ms = tuple(sorted(m for m in m_range if m != 0))
    weights = {m: np.where(np.asarray(ms) == m, 1.0 / (2.0 * np.pi), 0.0) + 0j
               for m in ms}
    period = 2.0 * np.pi
    return BiorthogonalFamily(kind="sinc_limit", eps=0.0, alpha=0.0, indices=ms,
                              rates=1j * np.asarray(ms, dtype=float),
                              weights=weights, window=(-np.pi, np.pi), period=period,
                              norms={m: exp_sum_norm(weights[m], period) for m in ms},
                              support_half=np.pi, beta_hat=0.0,
                              c_hat=1.0 / np.sqrt(2.0 * np.pi), omega=0)


def _probe_half_width(ks, omega: int, product: ProductEvaluator,
                      mult: MultiplierEvaluator | None) -> float:
    """FFT half-width: the first probe radius 100, 150, ..., 2000 where
    psi_k is below 1e-12 for every k in ks, plus one step (50) of margin.

    Two slightly offset probes per side guard against landing on a sinc zero.
    One log F pass per radius serves every member.
    """
    x = 100.0
    while x <= 2000.0:
        pts = np.array([-x - 0.37, -x, x, x + 0.37], dtype=complex)
        log_f = product.log_generating(pts)
        worst = 0.0
        for k in ks:
            psi = np.exp(log_psi(k, pts, omega, product, mult, log_f=log_f))
            worst = max(worst, float(np.max(np.abs(psi))))
        if worst < 1e-12:
            return x + 50.0
        x += 50.0
    raise ConfigError("interpolant envelope does not reach 1e-12 by |x| = 2000")


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


def _measured_window(tg: np.ndarray, th: np.ndarray) -> tuple[float, float]:
    """[tg[i], tg[j]] for the first and last samples at or above WINDOW_FLOOR
    of the member's maximum: outside it every sample is below the floor."""
    mag = np.abs(th)
    big = np.flatnonzero(mag >= WINDOW_FLOOR * np.max(mag))
    return float(tg[big[0]]), float(tg[big[-1]])


def build_theta_family(cfg: ProblemConfig, m_range) -> BiorthogonalFamily:
    """Assemble psi_m (`log_psi`) for every |m| and transform it to time.

    One product and one multiplier evaluator serve the envelope fit, the
    half-width probe and the grid.  One shared x grid serves the whole
    family.  log F, the multiplier bulk and the per-m prefixes are evaluated
    on |x| = j dx, j = 0..n/2, and gathered onto the grid x_j = (j - n/2) dx
    (F conjugated at x < 0); per |m| only the product's linear factor and
    constant, the multiplier prefix and the sinc factor remain.  Member m > 0 keeps its weights
    (dx/2pi) psi_m(x_j) on the shared rates; member -m is the conjugate of
    member m.  On the periodic DFT grid that is exact up to one sample: the
    reflection of x_0 = -half is its periodic partner +half (half t_k = pi
    k), so the edge check also reads psi_m[1], the mirrored member's last
    sample.  The window is the union of the members' measured windows
    (`_measured_window`), read from each member's FFT samples, which are
    then dropped.
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
        omega, omega_hats = resolve_omega(ms, product)
    else:
        omega, omega_hats = 0, ()

    # the probe points are mirror-closed, so the m > 0 members speak for the
    # m < 0 ones; the probe grows the multiplier to 1.5x its last radius,
    # which lies 50 below the half-width, so the grid needs no further growth
    mult = MultiplierEvaluator(eps, alpha) if need_mult else None
    half = _probe_half_width(ks, omega, product, mult)

    n = next_pow2(int(2.0 * half * POINTS_PER_UNIT))
    dx = 2.0 * half / n
    fold = np.abs(np.arange(n) - n // 2)  # |x_j| = dx * fold[j]
    z_abs = dx * np.arange(n // 2 + 1, dtype=complex)
    zg = np.where(np.arange(n) < n // 2, -z_abs[fold], z_abs[fold])
    log_f = product.log_generating(z_abs)[fold]
    log_f[:n // 2] = log_f[:n // 2].conj()  # F(-x) = conj F(x)

    base_mult = mult.log_eval_start(1, z_abs) if mult is not None else None

    l2 = node_sum_bound(eps, alpha) if need_mult else 0.0
    support_half = LATTICE_TYPE + omega * l2 + (1 + DECAY_BOOST) * SINC_DELTA
    members = {}
    edge_worst = 0.0
    lo, hi = np.inf, -np.inf
    for k in ks:
        log_mult = None if mult is None else \
            (base_mult - mult.log_factor_range(1, node_start(k, eps, alpha) - 1, z_abs))[fold]
        psi = np.exp(log_psi(k, zg, omega, product, mult, log_f, log_mult))
        edge_worst = max(edge_worst, float(np.max(np.abs(psi[[0, 1, -1]]))))
        k_lo, k_hi = _measured_window(*fourier_to_time(psi, half, dx))
        lo, hi = min(lo, k_lo), max(hi, k_hi)
        members[k] = np.append(psi * (dx / (2.0 * np.pi)), 0.0)
    if edge_worst > 1e-8:
        raise ConfigError(f"quadrature budget insufficient: |psi| = {edge_worst:.2e} "
                          "at the grid edge")

    # weight j of member -m sits on rate i x_{n-j} = -i x_j
    weights = {m: members[m] if m > 0 else np.conj(members[-m][::-1]) for m in ms}
    period = 2.0 * np.pi / dx
    norms = {m: exp_sum_norm(members[abs(m)], period) for m in ms}
    beta_hat, c_hat = _norm_fit(norms, eps, alpha)
    meta = {"half_width": half, "dx": dx, "n_fft": n, "psi_edge": edge_worst,
            "points_per_unit": POINTS_PER_UNIT}
    return BiorthogonalFamily(kind="theta", eps=eps, alpha=alpha, indices=ms,
                              rates=1j * dx * (np.arange(n + 1) - n // 2),
                              weights=weights, window=(lo, hi), period=period,
                              norms=norms, support_half=support_half,
                              beta_hat=beta_hat, c_hat=c_hat,
                              omega=omega, omega_hats=omega_hats, meta=meta)


def smoothing_kernel(a: float, x) -> np.ndarray:
    """Triangle kernel sqrt(2pi) (a - |x|)/a^2 on [-a, a]; integral sqrt(2pi)."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= a, np.sqrt(2.0 * np.pi) * (a - np.abs(x)) / a ** 2, 0.0)


def zeta_eval(theta_family: BiorthogonalFamily) -> BiorthogonalFamily:
    """Convolve every member with the modulated triangle kernel.

    rho_m(x) = e^{i x Im(lambda_m)} k_a(x) with a = SMOOTHING_A, sampled at
    u_l = l dt, dt = period/n_fft = pi/half_width <= pi/150 (dozens of
    samples).  The discrete convolution multiplies each theta weight by
    R_m(x_j) = (dt/normalizer) sum_l rho_m(u_l) e^{-i x_j u_l}; since x_j u_l
    = 2pi (j - n/2) l / n that is one length-n DFT of (-1)^l rho_m(u_l), and
    R_m(x_n) = R_m(x_0).  The window is theta's widened by a on each side.
    The normalizer, sum_l rho_m(u_l) e^{conj(lambda_m) u_l} dt (> 0), keeps the
    m-th moment of the exponential sum exactly theta_m's (closed form
    sqrt(2pi) sinhc^2(Re lambda_m a/2) serves as its oracle).

    The DFT and the normalizer run once per |m|, for m > 0: rho_{-m} =
    conj(rho_m) and conj(lambda_{-m}) = lambda_m make member -m's normalizer
    the conjugate of member m's and its weights conj(weights[m][::-1]), as
    in `build_theta_family`.
    """
    fam = theta_family
    if fam.kind != "theta":
        raise ConfigError("smoothing applies to a theta family")
    a = SMOOTHING_A
    n = fam.meta["n_fft"]
    dt = fam.period / n
    l_max = int(np.floor(a / dt))
    ls = np.arange(-l_max, l_max + 1)
    u = dt * ls
    tri = smoothing_kernel(a, u)
    pos_weights, pos_normalizers = {}, {}  # of member k = |m|
    for k in sorted({abs(m) for m in fam.indices}):
        theta_k = fam.weights[k] if k in fam.weights else np.conj(fam.weights[-k][::-1])
        lam_c = complex(lambda_conj_vals(k, fam.eps, fam.alpha))
        rho = np.exp(1j * k * u) * tri  # Im lambda_k = k
        normalizer = complex(np.sum(rho * np.exp(lam_c * u)) * dt)
        g = np.zeros(n, dtype=complex)
        g[ls % n] = np.where(ls % 2 == 0, rho, -rho)
        r_k = np.fft.fft(g) * (dt / normalizer)
        pos_weights[k] = theta_k * np.append(r_k, r_k[0])
        pos_normalizers[k] = normalizer
    # as for theta, weight j of member -m sits on rate i x_{n-j} = -i x_j
    weights = {m: pos_weights[m] if m > 0 else np.conj(pos_weights[-m][::-1])
               for m in fam.indices}
    normalizers = {m: pos_normalizers[m] if m > 0 else pos_normalizers[-m].conjugate()
                   for m in fam.indices}
    norms = {m: exp_sum_norm(pos_weights[abs(m)], fam.period) for m in fam.indices}
    beta_hat, c_hat = _norm_fit(norms, fam.eps, fam.alpha)
    meta = dict(fam.meta)
    meta["kernel_half_width"] = a
    meta["normalizers"] = normalizers
    return BiorthogonalFamily(kind="zeta", eps=fam.eps, alpha=fam.alpha,
                              indices=fam.indices, rates=fam.rates, weights=weights,
                              window=(fam.window[0] - a, fam.window[1] + a),
                              period=fam.period, norms=norms,
                              support_half=fam.support_half + a,
                              beta_hat=beta_hat, c_hat=c_hat,
                              omega=fam.omega, omega_hats=fam.omega_hats, meta=meta)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def biorthogonality_matrix(family: BiorthogonalFamily, m_range, n_range):
    """B_{mn} = int family_m(t) e^{conj(lambda_n) t} dt and max |B - I|.

    Every member of every kind is an exponential sum on the family's shared
    rates and zero outside its window, so B is integrated in closed form
    over that window by `core.exp_integral`'s contracted form, all members
    at once: one resolvent row per n, contracted with the members' weights
    by a matmul.  It is the same integral, family and window the control's
    moment check reads.
    """
    ms = [m for m in m_range if m != 0]
    ns = [n for n in n_range if n != 0]
    lam_cs = lambda_conj_vals(np.asarray(ns), family.eps, family.alpha)
    lo, hi = family.window
    weights = np.array([family.weights[m] for m in ms]).reshape(len(ms), len(family.rates))
    out = exp_integral(lam_cs, 0.0, family.rates, 0.0, lo, hi, weights).T
    target = np.equal.outer(ms, ns).astype(float)
    return out, float(np.max(np.abs(out - target)))
