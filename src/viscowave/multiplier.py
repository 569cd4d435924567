"""Sinc-product multiplier over the stretched node sequence.

M(z) = prod_{n >= n_m} sinc(z / a_n) with a_n read off the weight inverse,
a_n = phi_inv(n)/e.  On the real axis every factor has modulus <= 1, so the
product trades polynomial growth of an interpolation product for decay like
exp(-phi(x)), at the price of an exponential type set by sum 1/a_n.

Evaluation is per point.  A point z multiplies the factors with a_n <= 2|z|
directly: K = floor(phi(2e|z|)) of them, or n_m - 1 if that is more, rounded
up to the end of its 256-node block and capped at the evaluator's cutoff
k_cut (the K of the largest |z| seen).  Its remaining log-tail, where
|z/a_n| <= 1/2, is resummed through the series
log sinc w = -sum_j zeta(2j)/(j pi^{2j}) w^{2j} with the node power sums
S_{2j}(K) = sum_{n>K} a_n^{-2j}.  S_{2j}(k_cut) has a closed form: Hurwitz
zeta past the weight's branch point gamma_eps, and an Euler-Maclaurin sum of
n^-s for the finite range below it.  Both are `_power_range_sum`, the zeta
being its hi = inf case, so the series constants C_j = zeta(2j)/(j pi^{2j})
come from it too.  S_{2j} at the block ends below k_cut add the per-block
sums of a_n^{-2j}.  Eleven series terms leave a remainder below
c_12 |z|^24 S_24, measured around 1e-19.  On the real axis the direct
factors are summed in real arithmetic: log|sinc| plus i pi for each
negative factor.

The node bulk (a_n table and the tail sums at the block ends) depends only on
(eps, alpha) and the largest |z| requested, so one evaluator instance serves
a whole family of indices m; per-m evaluation just chooses the starting node
n_m.
"""

from __future__ import annotations

import numpy as np

from .core import ALPHA_DEGENERACY_TOL, ConfigError
from .spectrum import (E, gamma_eps, lambda_vals, node_start, node_sum_bound,
                       node_tail_sq_constant, phi_eps, phi_eps_inverse)

# direct factors are summed in chunks of this many nodes; tail sums are
# tabulated at the ends of the blocks n = 256 b + 1 .. 256 b + 256, so a point's
# direct range is rounded up to one of them
_BLOCK = 256


# B_2j/(2j)! for Euler-Maclaurin past 32 directly summed terms (from n = 33
# the six corrections reach ~1e-30)
_EM_HEAD = 32
_EM_C = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                  -691 / 1307674368000])


def _power_range_sum(s: float, lo: float, hi: float) -> float:
    """sum_{n=lo}^{hi} n^-s for s > 0; the Hurwitz zeta(s, lo) if hi = inf.

    The Euler-Maclaurin integral term c^{1-s} expm1((1-s) log(hi/c))/(1-s)
    has no cancellation near s = 1, and is log(hi/c) at s = 1.  At hi = inf
    it is c^{1-s}/(s-1) and every hi^{-s-m} term is 0; the sum is inf for
    s <= 1, and zeta(s, inf) = 0.
    """
    if np.isinf(lo):
        return 0.0
    if np.isinf(hi) and s <= 1.0:
        return np.inf
    top = min(hi, lo + _EM_HEAD - 1.0)
    out = float(np.sum(np.arange(lo, top + 1.0) ** -s))
    c, t = top + 1.0, 1.0 - s
    if c > hi:
        return out
    with np.errstate(over="ignore"):
        out += c ** t * np.expm1(t * np.log(hi / c)) / t if t != 0.0 else np.log(hi / c)
    out += 0.5 * (c ** -s + hi ** -s)
    rising = s  # (s)_m, m = 2j - 1: d^m/dx^m x^-s = -(s)_m x^{-s-m}
    for m, b in zip(range(1, 12, 2), _EM_C):
        out -= b * rising * (hi ** (-s - m) - c ** (-s - m))
        rising *= (s + m) * (s + m + 1)
    return float(out)


# log sinc w = -sum_j C_j w^{2j}, C_j = zeta(2j)/(j pi^{2j}); valid |w| < pi,
# used only where |w| <= 1/2 so eleven terms reach ~1e-19
_SER_J = np.arange(1, 12)
_SER_C = np.array([_power_range_sum(2.0 * j, 1, np.inf) / (j * np.pi ** (2 * j))
                   for j in _SER_J])


def node_power_sum(k_cut: int, eps: float, alpha: float, power: float) -> float:
    """sum_{n > k_cut} a_n^{-power} in closed form, a_n = phi_inv(n)/e.

    Up to ng = floor(gamma_eps) the nodes are (n/eps)^{1/2a}/e, a sum
    E^p eps^s sum n^-s, s = p/(2a); past it they are eps n^{2a}/e, a Hurwitz
    zeta of order 2ap > 1, and zeta(., inf) = 0 covers gamma_eps = inf.
    Every piece is `_power_range_sum`; the Hurwitz zeta is its hi = inf case.
    """
    if eps == 0 or alpha == 0:
        raise ConfigError("node sequence requires eps > 0 and alpha > 0")
    s = power / (2.0 * alpha)
    if alpha < 0.5:
        return E ** power * eps ** s * _power_range_sum(s, k_cut + 1, np.inf)
    ng = np.floor(gamma_eps(eps, alpha))
    out = (E / eps) ** power * _power_range_sum(2.0 * alpha * power,
                                                max(k_cut, ng) + 1, np.inf)
    if k_cut < ng:
        out += E ** power * eps ** s * _power_range_sum(s, k_cut + 1, ng)
    if not np.isfinite(out):
        raise ConfigError(f"gamma_eps = {ng:.3e} at alpha = {alpha}: the node sum "
                          f"of power {power:g} below it overflows")
    return out


class MultiplierEvaluator:
    """Shared-bulk evaluator at fixed (eps, alpha).

    Holds the node table up to the direct cutoff k_cut of the largest |z|
    seen, and the tail power sums S_2j(K) at every block end K below it;
    grows itself if asked about larger |z|.
    """

    def __init__(self, eps: float, alpha: float, z_max: float = 1.0):
        if eps <= 0 or alpha <= 0:
            raise ConfigError("multiplier needs eps > 0 and alpha > 0")
        if abs(alpha - 0.5) < ALPHA_DEGENERACY_TOL:
            raise ConfigError("alpha = 1/2 weight is spectrally degenerate")
        self.eps = eps
        self.alpha = alpha
        self.z_max = 0.0
        self._grow(max(z_max, 1.0))

    def _grow(self, z_max: float) -> None:
        self.z_max = z_max
        # direct range keeps |z / a_n| <= 1/2 for every tail index
        self.k_cut = max(1, int(np.floor(phi_eps(2.0 * E * z_max, self.eps, self.alpha))))
        ns = np.arange(1, self.k_cut + 1, dtype=float)
        self.nodes = phi_eps_inverse(ns, self.eps, self.alpha) / E
        # column c of _tail_sums is S_2j(c * _BLOCK), the last one S_2j(k_cut):
        # the closed form at k_cut plus the block sums of a_n^-2j from the far end
        at_cut = [node_power_sum(self.k_cut, self.eps, self.alpha, 2.0 * j) for j in _SER_J]
        inv_sq = self.nodes ** -2.0
        power = np.ones_like(inv_sq)
        blocks = np.empty((len(_SER_J), -(-self.k_cut // _BLOCK)))
        for row in blocks:
            power *= inv_sq
            row[:] = np.add.reduceat(power, np.arange(0, self.k_cut, _BLOCK))
        self._tail_sums = np.cumsum(np.column_stack([at_cut, blocks[:, ::-1]]),
                                    axis=1)[:, ::-1]

    def _ensure(self, z_max: float) -> None:
        if z_max > self.z_max:
            self._grow(1.5 * z_max)

    def _ensure_start(self, n_from: int) -> None:
        # a point's tail starts at K_p + 1 >= n_from, and the tail sums are
        # tabulated only up to k_cut, so a product starting past the cutoff
        # needs the direct range extended up to its n_m
        if n_from - 1 > self.k_cut:
            z_need = float(phi_eps_inverse(float(n_from - 1), self.eps, self.alpha)) \
                / (2.0 * E) * 1.01
            self._grow(max(z_need, self.z_max))

    def _cutoffs(self, n_from: int, az: np.ndarray):
        """Per-point direct cutoff K_p and its column in the tail-sum table.

        K_p = max(n_from - 1, floor(phi(2e|z_p|))), rounded up to the end of
        its _BLOCK-node block and capped at k_cut; the nodes past it keep
        |z_p / a_n| <= 1/2.
        """
        self._ensure(float(np.max(az, initial=0.0)))
        self._ensure_start(n_from)
        k = np.minimum(np.floor(phi_eps(2.0 * E * az, self.eps, self.alpha)), self.k_cut)
        col = -(-np.maximum(k.astype(np.int64), n_from - 1) // _BLOCK)
        return np.minimum(col * _BLOCK, self.k_cut), col

    def log_factor_range(self, lo: int, hi: int, z) -> np.ndarray:
        """sum of log sinc(z / a_n) for n in [lo, hi] by direct evaluation.

        Requires hi <= the current direct cutoff.  A real z (every imag == 0)
        is summed in real arithmetic, log|sinc| plus i pi times the number of
        negative factors; complex z sums the complex factor logs.  Either way
        the result is branch-consistent with any other range of the same
        nodes, so ranges can be added and subtracted freely.
        """
        z = np.asarray(z, dtype=complex)
        if hi < lo:
            return np.zeros_like(z)
        if hi > self.k_cut:
            raise ConfigError("factor range beyond the direct cutoff")
        real = not np.any(z.imag)
        if real:
            z = z.real
            negative = np.zeros(z.shape, dtype=np.int64)
        out = np.zeros_like(z)
        # chunked so grid * node-count temporaries stay modest
        for blk in range(lo, hi + 1, _BLOCK):
            w = z[..., None] / self.nodes[blk - 1:min(blk + _BLOCK - 1, hi)]
            if real:
                with np.errstate(invalid="ignore"):   # 0/0 where w is 0
                    sw = np.sin(w) / w
                sw[w == 0.0] = 1.0  # z = 0, or a subnormal z / a_n underflowing
                negative += np.count_nonzero(sw < 0.0, axis=-1)
                out += np.sum(np.log(np.abs(sw, out=sw), out=sw), axis=-1)
            else:
                small = np.abs(w) < 1e-8
                sw = np.where(small, 1.0 - w * w / 6.0,
                              np.sin(w) / np.where(small, 1.0, w))
                out += np.sum(np.log(sw), axis=-1)
        if not real:
            return out
        return out + 1j * np.pi * negative

    def log_eval_start(self, n_from: int, z) -> np.ndarray:
        """log prod_{n >= n_from} sinc(z / a_n) for complex z (array ok).

        Each point z_p gets its own direct range [n_from, K_p] (see
        _cutoffs) and its own tail from K_p + 1, resummed as
        -sum_j C_j z^2j S_2j(K_p).  The points are sorted by K_p once; each
        stretch of nodes between consecutive cutoffs is summed over only
        the points that still need it.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        k_p, col = self._cutoffs(n_from, np.abs(flat))
        out = np.zeros_like(flat)
        order = np.argsort(k_p, kind="stable")
        k_sorted = k_p[order]
        lo = n_from
        for k in np.unique(k_sorted[k_sorted >= n_from]):
            active = order[np.searchsorted(k_sorted, k):]
            out[active] += self.log_factor_range(lo, int(k), flat[active])
            lo = int(k) + 1
        # Horner in z^2, real on the real axis
        zt = flat.real if not np.any(flat.imag) else flat
        z2 = zt * zt
        sums = self._tail_sums[:, col]
        acc = _SER_C[-1] * sums[-1]
        for c, s in zip(_SER_C[-2::-1], sums[-2::-1]):
            acc = c * s + z2 * acc
        out -= z2 * acc
        return out.reshape(z.shape)

    def log_eval(self, m: int, z) -> np.ndarray:
        """log M for index m: the product starting at node n_m."""
        return self.log_eval_start(node_start(m, self.eps, self.alpha), z)


class PropertyReport(dict):
    """Per-check booleans plus the measured margins.

    `log_abs[m]` holds log|M| for index m on the checked grid; it is an
    attribute, not an entry, so the entries stay the checks alone.
    """

    def __init__(self):
        super().__init__()
        self.log_abs: dict[int, np.ndarray] = {}

    @property
    def ok(self) -> bool:
        return all(v["ok"] for v in self.values())


def multiplier_property_check(m_range, x_grid, ev: MultiplierEvaluator) -> PropertyReport:
    """Grid verification of the three decay/size properties plus the node
    inequality they rest on.

    upper: |M(x)| <= exp(-phi(x) + 2e^2 |Re lambda_m| + 1) on the grid
    lower: |M(i conj(lambda_m))| >= exp(-D (1 + |Re lambda_m|))
    node_weight: phi(e |lambda_m|) <= 2 e^2 |Re lambda_m|
    type: exponential type sum(1/a_n) from n_m, against the constant L2
    unit_modulus: |M(x)| <= 1 on the reals

    eps and alpha are the evaluator's.  The per-m values log|M| on the grid
    are kept in the report's `log_abs`.
    """
    eps, alpha = ev.eps, ev.alpha
    x = np.asarray(x_grid, dtype=float)
    xc = x.astype(complex)
    ms = [m for m in m_range if m != 0]
    rep = PropertyReport()
    phi_x = np.asarray(phi_eps(x, eps, alpha), dtype=float)
    l2 = node_sum_bound(eps, alpha)
    d_const = node_tail_sq_constant(alpha)

    # one bulk pass over the grid; per-m values come from subtracting the
    # short leading-factor prefix (branch-consistent, see log_factor_range)
    base = ev.log_eval_start(1, xc)

    up_margin = np.inf
    low_margin = np.inf
    nw_margin = np.inf
    type_margin = np.inf
    unit_worst = -np.inf
    for m in ms:
        lam = complex(lambda_vals(m, eps, alpha))
        rl = abs(lam.real)
        n_m = node_start(m, eps, alpha)
        prefix = ev.log_factor_range(1, n_m - 1, xc)
        log_m = rep.log_abs[m] = (base - prefix).real
        up_margin = min(up_margin, float(np.min(-phi_x + 2.0 * E ** 2 * rl + 1.0 - log_m)))
        unit_worst = max(unit_worst, float(np.max(log_m)))
        node = 1j * np.conj(lam)
        val = ev.log_eval(m, node)
        low_margin = min(low_margin, float(val.real - (-d_const * (1.0 + rl))))
        nw_margin = min(nw_margin, float(2.0 * E ** 2 * rl - phi_eps(E * abs(lam), eps, alpha)))
        type_sum = node_power_sum(n_m - 1, eps, alpha, 1.0)
        type_margin = min(type_margin, l2 - type_sum)

    rep["upper"] = {"ok": up_margin >= 0.0, "margin": up_margin}
    rep["lower"] = {"ok": low_margin >= 0.0, "margin": low_margin}
    rep["node_weight"] = {"ok": nw_margin >= 0.0, "margin": nw_margin}
    rep["type"] = {"ok": type_margin >= -1e-9 * abs(l2), "margin": type_margin,
                   "l2": l2}
    rep["unit_modulus"] = {"ok": unit_worst <= 1e-12, "margin": -unit_worst}
    return rep
