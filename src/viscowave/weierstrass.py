"""Entire interpolation product over the damped eigenvalue lattice.

The product P_m attaches value 1 at the node node_m = i*conj(lambda_m) and
0 at every other node.  All members are Lagrange basis functions of one
generating function (Fattorini & Russell, ARMA 1971):

    F(z) = prod_n (1 - z/node_n),
    P_m(z) = F(z) / ((1 - z/node_m) G_m(node_m)),   G_m(z) = F(z)/(1 - z/node_m),

so in log form

    log P_m(z) = log F(z) - [log(conj(lambda_m) + iz) - log conj(lambda_m)] - C_m

with the per-m constant C_m = log G_m(node_m), a one-point sum over the
lattice without index m, summed to the same cutoff as the log F pass it is
combined with so that their tail-scheme errors cancel next to node_m.  One
pass for log F serves every member on a set of points; per m only the
linear factor and C_m remain, and P_m(node_m) is set to exactly 1.

The product over n is only conditionally convergent; combining indices n
and -n gives the paired factor of F

    ((b + iz)^2 + t^2) / (b^2 + t^2),   t = |n|, b = eps t^{2a},

which is 1 + O(t^{2a-2} + t^{-2}), absolutely summable for alpha < 1.
Everything is accumulated in log space, so growth like exp(C m^{2a}) never
overflows.

The lattice is mirror-symmetric, node_{-n} = -conj(node_n), so F(-conj z) =
conj F(z).  A pass folds every point with Re z < 0 onto -conj z, sums over the
distinct folded points only (a real grid symmetric about 0 costs half) and
conjugates back.

Evaluation scheme (per pass): paired terms are summed directly up to a cutoff
N >= max(512, 2 max|z| + 1), beyond which the paired term w = factor - 1
stays inside |w| < 3/4 (no branch crossings, smooth tail); the remaining tail
sum is replaced by its integral via a power substitution that flattens the
t^{-p} decay, evaluated with 64-point Gauss-Legendre, plus the first
Euler-Maclaurin midpoint correction f'(N+1/2)/24.  The residual after that
correction is the next EM term, measured at ~3e-13 for N=512.

Numerical care in the paired term:
  * w = iz (2b + iz) / (b^2 + t^2) comes from the factorization of the
    numerator minus the denominator, never from subtracting the two
    quadratics; at large t the cross terms of the naive form fall below one
    ulp of b^2 and the difference loses everything.
  * log(1+w) is core.log1p_c's closed form, which keeps tiny w; numpy's
    complex log1p is a naive log(1+w) and drops w below machine epsilon.
  * near a zero of the paired factor (|1+w| < 1/4) it is summed as
    log(b + i(z - t)) + log(b + i(z + t)) - log(b^2 + t^2): each linear
    factor is formed without cancellation, so F keeps full relative accuracy
    next to its zeros, and the factor at t = |m| reproduces
    conj(lambda_m) + iz bit for bit, so the division by it cancels exactly.
    At a node computed from the same eigenvalue expression the linear factor
    is literal 0, so interpolation checks see exact deltas.

Accuracy against a 40-digit mpmath reference with its own paired sum and
Euler-Maclaurin tail (tests/test_weierstrass.py::test_product_matches_mpmath,
eps 0.1, alpha 0.25 and 0.75, m 1/3/7, real x up to 390, one complex point
and points 1e-4 and 1e-11 from node_m): relative errors 2e-16 .. 3.3e-11,
the largest at x = 390 (the tail-scheme error grows with |z|), 2.5e-13 at the
complex point and 1.5e-14 next to node_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, gauss_legendre_01, log1p_c
from .spectrum import lambda_conj_vals

_GL64 = gauss_legendre_01(64)
_GL32 = gauss_legendre_01(32)
_BLOCK = 256  # paired terms summed per numpy pass


def _pair_log(t, z, eps: float, alpha: float) -> np.ndarray:
    """log of F's paired (n, -n) factor at |n| = t (t may be non-integer on
    the tail integral), vectorized over t and z jointly."""
    t = np.asarray(t, dtype=float)
    b = eps * t ** (2.0 * alpha)
    den = b * b + t * t
    w = 1j * z * (2.0 * b + 1j * z) / den
    out = log1p_c(w)
    near = np.nonzero(out.real < np.log(0.25))  # |1+w| < 1/4
    b, z, t, den = (np.broadcast_to(a, w.shape)[near] for a in (b, z, t, den))
    with np.errstate(divide="ignore"):
        out[near] = np.log(b + 1j * (z - t)) + np.log(b + 1j * (z + t)) - np.log(den)
    return out


def _tail_exponent(eps: float, alpha: float) -> float:
    # decay exponent p of the paired log term: den ~ t^2 below alpha=1/2,
    # den ~ eps^2 t^{4a} above, and exactly t^{-2} in the undamped limit
    if eps == 0:
        return 2.0
    return 2.0 - 2.0 * alpha if alpha < 0.5 else 2.0 * alpha


def _tail_integral(m_cut: float, z, eps, alpha, nodes) -> np.ndarray:
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
    return np.sum((w * jac)[:, None] * _pair_log(t[:, None], z[None, :], eps, alpha), axis=0)


def _tail(m_cut: float, z, eps, alpha) -> np.ndarray:
    """Paired terms beyond m_cut: the tail integral plus the first
    Euler-Maclaurin midpoint correction f'(m_cut)/24."""
    h = 1e-5 * m_cut
    fp = (_pair_log(m_cut + h, z, eps, alpha) - _pair_log(m_cut - h, z, eps, alpha)) / (2.0 * h)
    return _tail_integral(m_cut, z, eps, alpha, _GL64) + fp / 24.0


def _tail_bound(m_cut: float, z, eps, alpha) -> np.ndarray:
    """Error bound of `_tail`: the 64- against 32-node quadrature difference
    plus the next Euler-Maclaurin term 7/5760 f'''(m_cut)."""
    h = 0.05 * m_cut
    f3 = (_pair_log(m_cut + 2 * h, z, eps, alpha) - 2 * _pair_log(m_cut + h, z, eps, alpha)
          + 2 * _pair_log(m_cut - h, z, eps, alpha)
          - _pair_log(m_cut - 2 * h, z, eps, alpha)) / (2.0 * h ** 3)
    quad = (_tail_integral(m_cut, z, eps, alpha, _GL64)
            - _tail_integral(m_cut, z, eps, alpha, _GL32))
    return np.abs(quad) + 7.0 / 5760.0 * np.abs(f3)


@dataclass(frozen=True)
class ProductEvaluator:
    """Evaluator for the interpolation product at fixed (eps, alpha).

    n_min: floor for the direct paired summation cutoff.  The per-m
    constants log conj(lambda_m) - C_m are cached per (m, cutoff).
    """
    eps: float
    alpha: float
    n_min: int = 512
    _scales: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    ROUNDING_FLOOR = 1e-10

    def _cut(self, z_max: float) -> int:
        return max(self.n_min, int(2.0 * z_max) + 1)

    def cutoff(self, m: int, z_max: float) -> int:
        """Direct pair count behind P_m on |z| <= z_max: the constant C_m is
        summed to max(n_min, 2 max(z_max, |node_m|) + 1) pairs, the log F
        pass to at most as many."""
        lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
        return self._cut(max(z_max, abs(lam_c_m)))

    def _pair_sum(self, z: np.ndarray, n_cut: int, skip: int = 0) -> np.ndarray:
        """Paired log terms of F summed over |n| = 1..n_cut except |n| =
        skip, plus the tail beyond n_cut + 1/2, at the 1-d points z."""
        eps, alpha = self.eps, self.alpha
        ns = np.arange(1, n_cut + 1, dtype=float)
        ns = ns[ns != skip]
        out = np.zeros_like(z)
        for lo in range(0, len(ns), _BLOCK):
            out += np.sum(_pair_log(ns[lo:lo + _BLOCK, None], z[None, :], eps, alpha), axis=0)
        return out + _tail(n_cut + 0.5, z, eps, alpha)

    def log_generating(self, z) -> np.ndarray:
        """log F(z) at complex z (scalar or 1-d array): one pass serves every m.

        Points with Re z < 0 are folded onto -conj z, since F(-conj z) =
        conj F(z); the sum runs once per distinct folded point, to
        max(n_min, 2 max|z| + 1) pairs.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        flip = z.real < 0
        key, inv = np.unique(np.where(flip, -z.conj(), z), return_inverse=True)
        out = self._pair_sum(key, self._cut(float(np.max(np.abs(key), initial=0.0))))[inv]
        return np.where(flip, out.conj(), out)

    def _log_scale(self, m: int, n_cut: int) -> complex:
        """log conj(lambda_m) - C_m with C_m = log G_m(node_m): the paired
        sum at node_m without |m|, plus the factor of the lone partner -m.

        Summed to the cutoff of the log F pass it is combined with (when
        |node_m| does not set a larger one), so that the two tail-scheme
        errors cancel next to node_m and shrink with |z - node_m| elsewhere.
        """
        scale = self._scales.get((m, n_cut))
        if scale is None:
            lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
            lone = complex(lambda_conj_vals(-m, self.eps, self.alpha))
            c_m = complex(self._pair_sum(np.array([1j * lam_c_m]), n_cut, skip=abs(m))[0])
            c_m += np.log(lone - lam_c_m) - np.log(lone)
            scale = self._scales[m, n_cut] = np.log(lam_c_m) - c_m
        return scale

    def log_eval(self, m: int, z, log_f=None) -> np.ndarray:
        """log of the product at complex z (scalar or 1-d array); log_f is
        log F(z) if the caller already has it from `log_generating`."""
        if m == 0:
            raise ConfigError("index 0 is not in the lattice")
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if log_f is None:
            log_f = self.log_generating(z)
        scale = self._log_scale(m, self.cutoff(m, float(np.max(np.abs(z), initial=0.0))))
        lin = complex(lambda_conj_vals(m, self.eps, self.alpha)) + 1j * z
        with np.errstate(divide="ignore", invalid="ignore"):
            out = log_f - np.log(lin) + scale
        out[lin == 0] = 0.0  # z is node_m: P_m = 1 exactly
        return out

    def eval(self, m: int, z):
        res = np.exp(self.log_eval(m, z))
        return complex(res[0]) if np.isscalar(z) or np.ndim(z) == 0 else res

    def eval_with_bound(self, m: int, z):
        """Value plus a declared bound on the evaluation error.

        The analytic part bounds the tail-scheme error (quadrature refinement
        difference plus the next correction term) of both sums, log F at z
        and C_m at node_m; ROUNDING_FLOOR absorbs the accumulated rounding of
        the direct paired sums, sized from validation against a 40-digit
        reference (worst observed 3.3e-11 relative).
        """
        val = np.exp(self.log_eval(m, z))
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        z_max = float(np.max(np.abs(zz)))
        node = np.array([1j * complex(lambda_conj_vals(m, self.eps, self.alpha))])
        eps, alpha = self.eps, self.alpha
        bound = (_tail_bound(self._cut(z_max) + 0.5, zz, eps, alpha)
                 + _tail_bound(self.cutoff(m, z_max) + 0.5, node, eps, alpha))
        err = np.abs(val) * (bound + self.ROUNDING_FLOOR)
        if np.isscalar(z) or np.ndim(z) == 0:
            return complex(val[0]), float(err[0])
        return val, err


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
    log_f = ev.log_generating(nodes)
    dev = np.empty((len(ms), len(ns)))
    for i, m in enumerate(ms):
        vals = np.exp(ev.log_eval(m, nodes, log_f))
        target = (ns == m).astype(float)
        dev[i] = np.abs(vals - target)
    return dev, float(dev.max())


def growth_bound_check(m_max: int, eps: float, alpha: float, ev: ProductEvaluator):
    """Modulus at the origin, per m, against the bound 16 exp(C eps m^{2a}).

    Returns (rows, c_hat) where rows are (m, Q_m, bound_value) and c_hat is
    the smallest non-negative constant satisfying the bound on the first
    half, m <= m_max // 2; the second half is held out.  The bound asserts
    growth, so the fitted constant is clipped at zero; tiny-weight cases
    where the modulus stays below 16 outright would otherwise fit a
    negative rate that says nothing about the envelope.
    """
    fit_count = m_max // 2
    ms = np.arange(1, m_max + 1)
    log_f = ev.log_generating(0.0)
    logq = np.array([ev.log_eval(int(m), 0.0, log_f)[0].real for m in ms])
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


def envelope_fit(m: int, eps: float, alpha: float, x_grid, ev: ProductEvaluator,
                 log_f=None) -> EnvelopeFit:
    """Smallest (omega_hat, c_hat) with |product| <= c_hat *
    exp(omega_hat (phi(x) + |Re lambda_m|)) on the grid.

    log_f is log F on the grid if the caller already has it (one
    `ProductEvaluator.log_generating` pass serves every m).

    c_hat is read off where the weight is negligible (phi <= 1), with floor 1;
    omega_hat is then the max log-excess divided by the weight, clipped >= 0.
    """
    from .spectrum import phi_eps

    x = np.asarray(x_grid, dtype=float)
    logp = ev.log_eval(m, x.astype(complex), log_f).real
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
