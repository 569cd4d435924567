"""Entire interpolation product over the damped eigenvalue lattice.

The product attaches value 1 at the node i*conj(lambda_m) and 0 at every
other node i*conj(lambda_n).  Per index the two textbook factors are
combined into a single ratio

    (conj(lambda_n) + i z) / (conj(lambda_n) - conj(lambda_m))

whose individual product over n is only conditionally convergent; combining
indices n and -n makes the paired term 1 + O(n^{2a-2} + n^{-2}), absolutely
summable for alpha < 1.  Everything is accumulated in log space, so growth
like exp(C m^{2a}) never overflows.

Evaluation scheme (per z): paired terms are summed directly up to a cutoff
N >= max(512, 2|z|+1, 2|conj(lambda_m)|+1), which keeps the paired term w
inside |w| < 1/2 beyond the cutoff (no branch crossings, smooth tail); the
remaining tail sum is replaced by its integral via a power substitution that
flattens the t^{-p} decay, evaluated with 64-point Gauss-Legendre, plus the
first Euler-Maclaurin midpoint correction f'(N+1/2)/24.  The residual after
that correction is the next EM term, measured at ~3e-13 for N=512.

Numerical care in the paired term (the accuracy here was measured against
40-digit references, errors 8e-15 .. 2e-11):
  * w is computed from the factorization num - den = (2b + iz - lm)(iz + lm)
    of ((b+iz)^2 + t^2) - ((b-lm)^2 + t^2), never by subtracting the two
    quadratics; at large t the cross terms of the naive form fall below one
    ulp of b^2 and the difference loses everything.
  * log(1+w) is core.log1p_c's closed form, which keeps tiny w; numpy's
    complex log1p is a naive log(1+w) and drops w below machine epsilon.
  * near a zero of the paired factor the identity 1 + w =
    ((b+iz)^2 + t^2)/den is used directly: when z is a node computed from
    the same eigenvalue expression, b + iz reproduces i*t exactly in floats
    and the factor is literal 0, so interpolation checks see exact deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, gauss_legendre_01, log1p_c
from .spectrum import lambda_conj_vals

_GL64 = gauss_legendre_01(64)
_GL32 = gauss_legendre_01(32)


def _pair_log(t, z, lam_c_m: complex, eps: float, alpha: float) -> np.ndarray:
    """log of the paired (n, -n) factor at |n| = t (t may be non-integer on
    the tail integral), vectorized over t and z jointly."""
    t = np.asarray(t, dtype=float)
    b = eps * t ** (2.0 * alpha)
    c = 1j * z + lam_c_m
    den = (b - lam_c_m) ** 2 + t * t
    w = c * (2.0 * b + 1j * z - lam_c_m) / den
    out = log1p_c(w)
    near = np.nonzero(out.real < np.log(0.25))  # |1+w| < 1/4
    b, z, t, den = (np.broadcast_to(a, w.shape)[near] for a in (b, z, t, den))
    with np.errstate(divide="ignore"):
        out[near] = np.log(((b + 1j * z) ** 2 + t * t) / den)
    return out


def _tail_exponent(eps: float, alpha: float) -> float:
    # decay exponent p of the paired log term: den ~ t^2 below alpha=1/2,
    # den ~ eps^2 t^{4a} above, and exactly t^{-2} in the undamped limit
    if eps == 0:
        return 2.0
    return 2.0 - 2.0 * alpha if alpha < 0.5 else 2.0 * alpha


def _tail_integral(m_cut: float, z, lam_c_m, eps, alpha, nodes) -> np.ndarray:
    """Integral of the paired log term over t in (m_cut, inf) by the
    substitution t = m_cut * s^{-q}, which maps t^{-p} decay to a smooth
    integrand on (0, 1)."""
    p = _tail_exponent(eps, alpha)
    q = 1.0 / (p - 1.0)
    s, w = nodes
    with np.errstate(over="ignore"):
        t = m_cut * s ** (-q)
        jac = m_cut * q * s ** (-q - 1.0)
        if not np.isfinite(t[0] * t[0]):
            # p -> 1 as alpha -> 1/2: the substitution sends the first node
            # past the float range, where the paired term can no longer be
            # formed (it squares t)
            raise ConfigError(f"alpha = {alpha} is too close to 1/2: the product "
                              f"tail decays like t^-{p:.4g}, too slowly for its quadrature")
    return np.sum((w * jac)[:, None] * _pair_log(t[:, None], z[None, :], lam_c_m, eps, alpha),
                  axis=0)


@dataclass(frozen=True)
class ProductEvaluator:
    """Evaluator for the interpolation product at fixed (eps, alpha).

    n_min: floor for the direct paired summation cutoff.
    """
    eps: float
    alpha: float
    n_min: int = 512

    ROUNDING_FLOOR = 1e-10

    def cutoff(self, m: int, z_max: float) -> int:
        lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
        return max(self.n_min, int(2.0 * z_max) + 1, int(2.0 * abs(lam_c_m)) + 1)

    def log_eval(self, m: int, z) -> np.ndarray:
        """log of the product at complex z (scalar or array)."""
        return self._log_eval_impl(m, z, with_bound=False)[0]

    def eval(self, m: int, z):
        res = np.exp(self.log_eval(m, z))
        return complex(res[0]) if np.isscalar(z) or np.ndim(z) == 0 else res

    def eval_with_bound(self, m: int, z):
        """Value plus a declared bound on the evaluation error.

        The analytic part bounds the tail-scheme error (quadrature refinement
        difference plus the next correction term); ROUNDING_FLOOR absorbs the
        accumulated rounding of the direct paired sum, sized from validation
        against a 40-digit reference (worst observed 2.3e-11 relative).
        """
        lg, bound = self._log_eval_impl(m, z, with_bound=True)
        val = np.exp(lg)
        err = np.abs(val) * (bound + self.ROUNDING_FLOOR)
        if np.isscalar(z) or np.ndim(z) == 0:
            return complex(val[0]), float(err[0])
        return val, err

    def _log_eval_impl(self, m: int, z, with_bound: bool):
        if m == 0:
            raise ConfigError("index 0 is not in the lattice")
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        eps, alpha = self.eps, self.alpha
        lam_c_m = complex(lambda_conj_vals(m, eps, alpha))
        N = self.cutoff(m, float(np.max(np.abs(z), initial=0.0)))
        if N < abs(m):
            raise ConfigError("truncation below |m|")

        am = abs(m)
        ns = np.arange(1, N + 1, dtype=float)
        ns = ns[ns != am]
        out = np.zeros_like(z)
        for lo in range(0, len(ns), 256):
            blk = ns[lo:lo + 256]
            out += np.sum(_pair_log(blk[:, None], z[None, :], lam_c_m, eps, alpha), axis=0)

        # the +-|m| pair lost index m itself; its partner -m remains alone
        lone = complex(lambda_conj_vals(-m, eps, alpha))
        with np.errstate(divide="ignore"):
            out += np.log(lone + 1j * z) - np.log(lone - lam_c_m)

        m_cut = N + 0.5
        tail64 = _tail_integral(m_cut, z, lam_c_m, eps, alpha, _GL64)
        out += tail64
        h = 1e-5 * m_cut
        fp = (_pair_log(m_cut + h, z, lam_c_m, eps, alpha)
              - _pair_log(m_cut - h, z, lam_c_m, eps, alpha)) / (2.0 * h)
        out += fp / 24.0

        bound = 0.0
        if with_bound:
            tail32 = _tail_integral(m_cut, z, lam_c_m, eps, alpha, _GL32)
            h3 = 0.05 * m_cut
            f3 = (_pair_log(m_cut + 2 * h3, z, lam_c_m, eps, alpha)
                  - 2 * _pair_log(m_cut + h3, z, lam_c_m, eps, alpha)
                  + 2 * _pair_log(m_cut - h3, z, lam_c_m, eps, alpha)
                  - _pair_log(m_cut - 2 * h3, z, lam_c_m, eps, alpha)) / (2.0 * h3 ** 3)
            bound = np.abs(tail64 - tail32) + 7.0 / 5760.0 * np.abs(f3)
        return out, bound


def product_eps0(m: int, z) -> complex:
    """Closed form of the product in the undamped limit:
    (-1)^m m sin(pi z) / (pi z (z - m)), removable points filled."""
    z = complex(z)
    if m == 0:
        raise ConfigError("index 0 is not in the lattice")
    if abs(z) < 1e-12:
        return complex((-1) ** (m + 1))
    if abs(z - m) < 1e-12:
        return 1.0 + 0.0j
    return (-1) ** m * m * np.sin(np.pi * z) / (np.pi * z * (z - m))


def interpolation_check(m_range, n_range, ev: ProductEvaluator):
    """Deviation matrix |product_m(node_n) - delta_mn| and its maximum."""
    ms = [m for m in m_range if m != 0]
    ns = np.array([n for n in n_range if n != 0])
    nodes = 1j * lambda_conj_vals(ns, ev.eps, ev.alpha)
    dev = np.empty((len(ms), len(ns)))
    for i, m in enumerate(ms):
        vals = ev.eval(m, nodes)
        target = (ns == m).astype(float)
        dev[i] = np.abs(vals - target)
    return dev, float(dev.max())


def growth_bound_check(m_max: int, eps: float, alpha: float, ev: ProductEvaluator,
                       fit_count: int | None = None):
    """Modulus at the origin, per m, against the bound 16 exp(C eps m^{2a}).

    Returns (rows, c_hat) where rows are (m, Q_m, bound_value) and c_hat is
    the smallest non-negative constant satisfying the bound on the fit
    range m <= fit_count (default: first half).  The bound asserts growth,
    so the fitted constant is clipped at zero; tiny-weight cases where the
    modulus stays below 16 outright would otherwise fit a negative rate
    that says nothing about the envelope.
    """
    if fit_count is None:
        fit_count = m_max // 2
    ms = np.arange(1, m_max + 1)
    logq = np.array([ev.log_eval(int(m), 0.0 + 0.0j)[0].real for m in ms])
    wgt = eps * ms ** (2.0 * alpha)
    c_hat = max(0.0, float(np.max((logq[:fit_count] - np.log(16.0)) / wgt[:fit_count])))
    bounds = 16.0 * np.exp(c_hat * wgt)
    rows = [(int(m), float(np.exp(lq)), float(b)) for m, lq, b in zip(ms, logq, bounds)]
    return rows, c_hat


@dataclass(frozen=True)
class EnvelopeFit:
    omega_hat: float
    c_hat: float
    satisfied: bool


def envelope_fit(m: int, eps: float, alpha: float, x_grid, ev: ProductEvaluator) -> EnvelopeFit:
    """Smallest (omega_hat, c_hat) with |product| <= c_hat *
    exp(omega_hat (phi(x) + |Re lambda_m|)) on the grid.

    c_hat is read off where the weight is negligible (phi <= 1), with floor 1;
    omega_hat is then the max log-excess divided by the weight, clipped >= 0.
    """
    from .spectrum import phi_eps

    x = np.asarray(x_grid, dtype=float)
    logp = ev.log_eval(m, x.astype(complex)).real
    rl = abs(complex(lambda_conj_vals(m, eps, alpha)).real)
    if eps == 0:
        wgt = np.full_like(x, 0.0)
    else:
        wgt = np.asarray(phi_eps(x, eps, alpha), dtype=float)
    base = wgt <= 1.0
    c_hat = max(1.0, float(np.exp(np.max(logp[base])))) if np.any(base) else 1.0
    denom = wgt + rl
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (logp - np.log(c_hat)) / denom
    ratios = ratios[np.isfinite(ratios)]
    omega_hat = max(0.0, float(np.max(ratios))) if len(ratios) else 0.0
    ok = bool(np.all(logp <= np.log(c_hat) + omega_hat * denom + 1e-9))
    return EnvelopeFit(omega_hat=omega_hat, c_hat=c_hat, satisfied=ok)
