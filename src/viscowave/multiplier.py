"""Sinc-product multiplier over the stretched node sequence.

M(z) = prod_{n >= n_m} sinc(z / a_n) with a_n read off the weight inverse,
a_n = phi_inv(n)/e.  On the real axis every factor has modulus <= 1, so the
product trades polynomial growth of an interpolation product for decay like
exp(-phi(x)), at the price of an exponential type set by sum 1/a_n.

Evaluation is per point.  A point z multiplies the factors with
|z/a_n| > R = _RATIO = 2, that is a_n < |z|/R, directly: K =
floor(phi(e|z|/R)) of them, or n_m - 1 if that is more (the first node n_m
= floor(phi(e|lambda_m|)) + 1 already has a_n >= |lambda_m|), rounded up to
a multiple of _STRIDE = 16 and capped at the evaluator's cutoff k_cut (the
K of the largest |z| seen).  Its remaining log-tail, where |z/a_n| <= R, is
resummed through the series log sinc w = -sum_j zeta(2j)/(j pi^{2j}) w^{2j},
which converges for |w| < pi, with the node power sums S_{2j}(K) =
sum_{n>K} a_n^{-2j}.  S_{2j}(k_cut) has a closed form: Hurwitz zeta past
the weight's branch point gamma_eps, and an Euler-Maclaurin sum of n^-s for
the finite range below it, each taken relative to its first node.  Both are
`_power_range_sum`, the zeta being its hi = inf case, over an array of
orders: one call gives every S_{2j}(k_cut), and one the series constants
C_j = zeta(2j)/(j pi^{2j}).  S_{2j} at the multiples of _STRIDE below k_cut
add the per-stride sums of a_n^{-2j}.  J = 39 series terms leave at most
sum_{j>J} C_j |w|^{2j} <= 8.5e-18 (|w|/R)^80 per node, 8.5e-18 =
sum_{j>39} C_j R^{2j} (40-digit mpmath), so the remainder is at most
8.5e-18 sum_{n>K} |z/(R a_n)|^80; against a 40-digit mpmath product the
scaled error in log M is at most 4.9e-15, points on both sides of
|z/a_n| = R included.  S_{2j}(K) underflows where a_{K+1}^{2j} passes
1e308, from j = 33 at |z| = 1e5: the terms lost stay below 1.7e-17 of
max(1, |log M|) up to the largest |z| evaluated, 1.55e5, and reach 2e-15
at |z| = 1e6.  On the real axis the direct factors are summed in real
arithmetic: log|sinc| plus i pi for each negative factor.
Points are sorted by K, and the nodes between consecutive cutoffs are summed
over the points that still need them, in stretches merged until each holds
_MIN_TERMS point x node terms (a merged point's cutoff rises to its
stretch's end) and formed in tiles of at most _TILE factors.

The node bulk (a_n table and the tail sums at the stride nodes) depends only on
(eps, alpha) and the largest |z| requested, so one evaluator instance serves
a whole family of indices m; per-m evaluation just chooses the starting node
n_m.
"""

from __future__ import annotations

import numpy as np

from .core import ALPHA_DEGENERACY_TOL, ConfigError
from .spectrum import (E, gamma_eps, lambda_vals, node_start, node_sum_bound,
                       node_tail_sq_constant, phi_eps, phi_eps_inverse)

# tail sums S_2j(K) are tabulated at every _STRIDE-th node K, so a point's
# direct range is rounded up to one of them
_STRIDE = 16
# a point z multiplies the factors with |z/a_n| > _RATIO directly and resums
# the rest, |z/a_n| <= _RATIO < pi, as the sinc series
_RATIO = 2.0
# log_factor_range forms at most this many point x node factors at once
_TILE = 16384
# log_eval_start merges the stretches between consecutive point cutoffs until
# one holds at least this many point x node terms
_MIN_TERMS = 32768
# past this |Im w| a complex factor's log sinc w is formed from the dominant
# exponential of sin w (`_log_sinc_far`); sin w itself overflows past ~710
_BIG_IM = 20.0


# B_2j/(2j)! for Euler-Maclaurin past 32 directly summed terms (from n = 33
# the six corrections reach ~1e-30)
_EM_HEAD = 32
_EM_C = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                  -691 / 1307674368000])


def _power_range_sum(s, lo: float, hi: float, scale: float = 1.0):
    """sum_{n=lo}^{hi} (n/scale)^-s for s > 0, a scalar or a 1-d array of
    orders (the result takes its shape); the Hurwitz zeta(s, lo) if hi = inf
    and scale = 1.

    The Euler-Maclaurin integral term scale (c/scale)^{1-s}
    expm1((1-s) log(hi/c))/(1-s) has no cancellation near s = 1, and is
    scale log(hi/c) at s = 1.  At hi = inf it is scale (c/scale)^{1-s}/(s-1)
    and every hi^{-s-m} term is 0; the sum is inf for s <= 1, and
    zeta(s, inf) = 0.  A scale near lo keeps every term in range where
    lo^-s alone would underflow.
    """
    s = np.asarray(s, dtype=float)
    if np.isinf(lo):
        return np.zeros_like(s)[()]
    top = min(hi, lo + _EM_HEAD - 1.0)
    out = np.sum((np.arange(lo, top + 1.0) / scale) ** -s[..., None], axis=-1)
    c, t = top + 1.0, 1.0 - s
    if c <= hi:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out += np.where(t != 0.0, scale * (c / scale) ** t
                            * np.expm1(t * np.log(hi / c)) / np.where(t != 0.0, t, 1.0),
                            scale * np.log(hi / c))
        out += 0.5 * ((c / scale) ** -s + (hi / scale) ** -s)
        rising = s  # (s)_m, m = 2j - 1: d^m/dx^m x^-s = -(s)_m x^{-s-m}
        for m, b in zip(range(1, 12, 2), _EM_C):
            out -= b * rising * ((hi / scale) ** (-s - m) - (c / scale) ** (-s - m)) \
                * scale ** -m
            rising = rising * (s + m) * (s + m + 1)
        if np.isinf(hi):
            out = np.where(s <= 1.0, np.inf, out)
    return out[()]


# log sinc w = -sum_j C_j w^{2j}, C_j = zeta(2j)/(j pi^{2j}); valid |w| < pi,
# used only where |w| <= _RATIO, so past J = 39 terms each node leaves at most
# sum_{j>39} C_j |w|^2j <= 8.5e-18 (|w|/_RATIO)^80
_SER_J = np.arange(1, 40)
_SER_C = _power_range_sum(2.0 * _SER_J, 1, np.inf) / (_SER_J * np.pi ** (2.0 * _SER_J))


def _log_sinc_far(w: np.ndarray) -> np.ndarray:
    """log sinc w at |Im w| > _BIG_IM, modulo 2 pi i, without forming sin w:
    log sin w = -/+ i w + log(1 - e^{+/-2iw}) - log(-/+2i) for Im w >< 0,
    where |e^{+/-2iw}| = e^{-2|Im w|} < 5e-18."""
    sgn = np.sign(w.imag)
    return (-1j * sgn * w + np.log1p(-np.exp(2j * sgn * w)) - np.log(2.0)
            + 0.5j * np.pi * sgn - np.log(w))


def node_power_sum(k_cut: int, eps: float, alpha: float, power):
    """sum_{n > k_cut} a_n^{-power} in closed form, a_n = phi_inv(n)/e, for a
    scalar power or a 1-d array of them (the result takes its shape).

    Up to ng = floor(gamma_eps) the nodes are (n/eps)^{1/2a}/e, a sum
    a_lo^-p sum (n/lo)^-s, s = p/(2a); past it they are eps n^{2a}/e, a
    Hurwitz zeta of order 2ap > 1, and zeta(., inf) = 0 covers gamma_eps =
    inf.  Each piece is taken relative to its first node a_lo, so it
    underflows only where a_lo^-p does: (E/eps)^p zeta(2ap, lo) lost S_50 =
    8e-233 at eps 0.01, alpha 0.75, lo 56953 to a zeta of 1e-356.  Every
    piece is `_power_range_sum`; the Hurwitz zeta is its hi = inf case.
    """
    if eps == 0 or alpha == 0:
        raise ConfigError("node sequence requires eps > 0 and alpha > 0")
    power = np.asarray(power, dtype=float)
    a2 = 2.0 * alpha
    lo = k_cut + 1.0

    def inner(hi):  # the nodes k_cut + 1..hi of the inner branch, inf past 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            a_lo = np.power(lo / eps, 1.0 / a2) / E
            return a_lo ** -power * _power_range_sum(power / a2, lo, hi, scale=lo)

    if alpha < 0.5:
        return inner(np.inf)
    ng = np.floor(gamma_eps(eps, alpha))
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(ng):
            n0 = max(lo, ng + 1.0)
            out = (eps * n0 ** a2 / E) ** -power * _power_range_sum(a2 * power, n0, np.inf,
                                                                    scale=n0)
        else:
            # gamma_eps = inf saturates (E / eps)^p to inf against a zero
            # zeta: the nan is refused below with the sum that overflows
            out = np.power(E / eps, power) * 0.0
        if k_cut < ng:
            out += inner(ng)
    bad = ~np.isfinite(np.atleast_1d(out))
    if bad.any():
        raise ConfigError(f"gamma_eps = {ng:.3e} at alpha = {alpha}: the node sum "
                          f"of power {np.atleast_1d(power)[bad][0]:g} below it overflows")
    return out


class MultiplierEvaluator:
    """Shared-bulk evaluator at fixed (eps, alpha).

    Holds the node table up to the direct cutoff k_cut of the largest |z|
    seen, and the tail power sums S_2j(K) at every _STRIDE-th node K below
    it; grows itself if asked about larger |z|.
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
        # direct range keeps |z / a_n| <= _RATIO for every tail index
        self.k_cut = max(1, int(np.floor(phi_eps(E / _RATIO * z_max, self.eps, self.alpha))))
        ns = np.arange(1, self.k_cut + 1, dtype=float)
        self.nodes = phi_eps_inverse(ns, self.eps, self.alpha) / E
        # column c of _tail_sums is S_2j(c * _STRIDE), the last one S_2j(k_cut):
        # the closed form at k_cut plus the stride sums of a_n^-2j from the far end
        at_cut = node_power_sum(self.k_cut, self.eps, self.alpha, 2.0 * _SER_J)
        inv_sq = self.nodes ** -2.0
        power = np.ones_like(inv_sq)
        strides = np.empty((len(_SER_J), -(-self.k_cut // _STRIDE)))
        for row in strides:
            power *= inv_sq
            row[:] = np.add.reduceat(power, np.arange(0, self.k_cut, _STRIDE))
        self._tail_sums = np.cumsum(np.column_stack([at_cut, strides[:, ::-1]]),
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
                * (_RATIO / E * 1.01)
            self._grow(max(z_need, self.z_max))

    def _cutoffs(self, n_from: int, az: np.ndarray) -> np.ndarray:
        """Per-point direct cutoff K_p.

        K_p = max(n_from - 1, floor(phi(e|z_p|/_RATIO))), rounded up to a
        multiple of _STRIDE and capped at k_cut, so that S_2j(K_p) is
        tabulated; the nodes past it have |z_p / a_n| < _RATIO.
        """
        self._ensure(float(np.max(az, initial=0.0)))
        self._ensure_start(n_from)
        k = np.minimum(np.floor(phi_eps(E / _RATIO * az, self.eps, self.alpha)), self.k_cut)
        k = np.maximum(k.astype(np.int64), n_from - 1)
        return np.minimum(-(-k // _STRIDE) * _STRIDE, self.k_cut)

    def log_factor_range(self, lo: int, hi: int, z) -> np.ndarray:
        """sum of log sinc(z / a_n) for n in [lo, hi] by direct evaluation.

        Requires hi <= the current direct cutoff.  A real z (every imag == 0)
        is summed in real arithmetic, log|sinc| plus i pi times the number of
        negative factors; complex z sums the complex factor logs.  Either way
        the result is branch-consistent with any other range of the same
        nodes, so ranges can be added and subtracted freely.  The points x
        nodes factors are formed in tiles of at most _TILE elements.
        """
        z = np.asarray(z, dtype=complex)
        if hi < lo:
            return np.zeros_like(z)
        if hi > self.k_cut:
            raise ConfigError("factor range beyond the direct cutoff")
        real = not np.any(z.imag)
        flat = (z.real if real else z).ravel()
        out = np.zeros_like(flat)
        negative = np.zeros(flat.shape, dtype=np.int64)
        nodes = self.nodes[lo - 1:hi]
        cols = min(nodes.size, _TILE)
        rows = max(1, _TILE // cols)
        for p in range(0, flat.size, rows):
            zp = flat[p:p + rows, None]
            for c in range(0, nodes.size, cols):
                w = zp / nodes[c:c + cols]
                if real:
                    with np.errstate(invalid="ignore"):   # 0/0 where w is 0
                        sw = np.sin(w) / w
                    sw[w == 0.0] = 1.0  # z = 0, or a subnormal z / a_n underflowing
                    negative[p:p + rows] += np.count_nonzero(sw < 0.0, axis=-1)
                    out[p:p + rows] += np.sum(np.log(np.abs(sw, out=sw), out=sw), axis=-1)
                else:
                    small = np.abs(w) < 1e-8
                    big = np.abs(w.imag) > _BIG_IM
                    w_s = np.where(big, 1.0, w)
                    sw = np.where(small, 1.0 - w * w / 6.0,
                                  np.sin(w_s) / np.where(small, 1.0, w_s))
                    log_sw = np.log(sw)
                    if big.any():
                        log_sw[big] = _log_sinc_far(w[big])
                    out[p:p + rows] += np.sum(log_sw, axis=-1)
        if real:
            out = out + 1j * np.pi * negative
        return out.reshape(z.shape)

    def log_eval_start(self, n_from: int, z) -> np.ndarray:
        """log prod_{n >= n_from} sinc(z / a_n) for complex z (array ok).

        Each point z_p gets its own direct range [n_from, K_p] (see
        _cutoffs) and its own tail from K_p + 1, resummed as
        -sum_j C_j z^2j S_2j(K_p).  The points are sorted by K_p once; the
        nodes between consecutive cutoffs are summed over only the points
        that still need them, in stretches merged until each holds
        _MIN_TERMS point x node terms (or reaches the last cutoff).  A
        merged point's cutoff is raised to the end of its stretch, so it
        gets more direct factors, never fewer.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        k_sorted = self._cutoffs(n_from, np.abs(flat))
        order = np.argsort(k_sorted, kind="stable")
        k_sorted = k_sorted[order]
        out = np.zeros_like(flat)
        cuts, first = np.unique(k_sorted, return_index=True)
        ends = np.append(first[1:], flat.size)
        lo = n_from
        i0 = int(np.searchsorted(k_sorted, n_from))   # first point with direct factors
        for c, (k, end) in enumerate(zip(cuts.tolist(), ends.tolist())):
            if k < lo or (c + 1 < cuts.size
                          and (flat.size - i0) * (k - lo + 1) < _MIN_TERMS):
                continue
            active = order[i0:]
            out[active] += self.log_factor_range(lo, k, flat[active])
            k_sorted[i0:end] = k
            lo, i0 = k + 1, end
        # Horner in z^2, real on the real axis, one table row at a time
        col = np.empty_like(k_sorted)
        col[order] = -(-k_sorted // _STRIDE)
        zt = flat.real if not np.any(flat.imag) else flat
        z2 = zt * zt
        terms = _SER_C[:, None] * self._tail_sums
        acc = terms[-1, col].astype(z2.dtype)
        for row in terms[-2::-1]:
            acc *= z2
            acc += row[col]
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
