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
N = max(N_MIN, 2 max|z| + 1), N_MIN = 512, beyond which the paired term
w = factor - 1 stays inside |w| < 3/4 (no branch crossings, smooth tail); the
remaining tail sum is replaced by its integral via a power substitution that
flattens the t^{-p} decay, evaluated with 64-point Gauss-Legendre, plus the
first Euler-Maclaurin midpoint correction f'(N+1/2)/24 (`_tail`).  No error
bound is declared: accuracy is measured against the mpmath references below.
The residual after that correction is the next EM term, measured at ~3e-13
for N=512 at eps 0.1.  At small eps the tail is the weak point: above 1/2 the
paired term changes its decay at t = eps^{-1/(2a-1)}, which one power
substitution does not flatten (3.3e-9 at eps 1e-3, alpha 0.75, x = 150;
tests/test_weierstrass.py::test_tail_at_small_eps_against_mpmath).

The direct sum runs over blocks of _BLOCK terms by at most _COLS points:
the points are split into near-equal column blocks.  Every block of a
pass, and the tail integral's 64 terms per point, run on one set of float
work arrays (`_work_arrays`: four arrays of at most 256 x 512 entries,
1 MB each) allocated once for the pass, so no block allocates an array of
its size.  The real and imaginary parts of the terms are summed apart;
every column is summed row by row in the same order whatever the split,
so a pass does not depend on it.  No block has a single column unless the
pass has one point: numpy sums a one-column block pairwise instead of row
by row (which moved log F at x = 200 by 2e-13), and pairs a complex sum's
real parts differently from a float sum's, so a one-point pass sums its
terms as one complex array.  A pass that needs only |F|
(`log_abs_generating`, the envelope fit's) skips the imaginary parts of
the direct and tail-integral terms, their arctan2 and their sums; only
the tail's two derivative points stay complex.  Its result is the real
part of the full pass bit for bit.

Numerical care in the paired term:
  * w = iz (2b + iz) / (b^2 + t^2) comes from the factorization of the
    numerator minus the denominator, never from subtracting the two
    quadratics; at large t the cross terms of the naive form fall below one
    ulp of b^2 and the difference loses everything.
  * It is formed in real arithmetic, with iz = p + iq:
        Re w = ((2b + p) p - q^2) / den,   Im w = 2q (b + p) / den,
    each an outer sum of the per-term 2b or b with the per-point p, times a
    per-point factor, less q^2 in the real part, times the per-term 1/den.
    The factors 2b + p and b + p keep the relative accuracy of the product
    iz (2b + iz) at both zeros of w, z = 0 and z = 2ib.  On the real axis
    (p = 0) the terms in p drop out exactly, (2b + p) p - q^2 = -q^2 and
    b + p = b, so a real block forms w in three passes instead of seven;
    both parts equal, bit for bit, those of numpy's complex multiply and
    divide by the real den (which multiplies by 1/den), so real-axis
    passes are those of the complex formula.
  * log(1+w) is core.log1p_c's closed form from Re w and Im w, which keeps
    tiny w; numpy's complex log1p is a naive log(1+w) and drops w below
    machine epsilon.  It writes both parts into the work arrays and returns
    the flat indices of its far entries (|1+w| < 1/2).
  * near a zero of the paired factor (|1+w| < 1/4, a subset of those far
    entries, so only they are searched) it is summed as
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
complex point and 1.5e-14 next to node_m.  The paired term alone, over t up
to 1e4 at real points, other indices' nodes and points with Im z = +-0.5
and +-20, is within 9e-16 relative (test_pair_log_matches_mpmath).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, gauss_legendre_01, log1p_c
from .spectrum import lambda_conj_vals, phi_eps

_GL64 = gauss_legendre_01(64)
N_MIN = 512   # floor of the direct paired-sum cutoff
_BLOCK = 256  # paired terms summed per numpy pass
_COLS = 512   # most points per numpy pass, split evenly (see _pair_sum)


def _pair_log(t, z, eps: float, alpha: float, out=None, imag: bool = True):
    """log of F's paired (n, -n) factor at |n| = t (t may be non-integer on
    the tail integral), vectorized over t and z jointly.  w is formed in
    real arithmetic from iz = p + iq (see the module docstring); no complex
    w is built.

    Without out the result is a new complex array, at least 1-d.  A pass
    hands in out = (re, im, w_re, w_im), contiguous float arrays of the
    broadcast shape (views of `_work_arrays`), and gets back (re, im): the
    parts of the log, with w left in w_re and w_im.  imag=False skips the
    imaginary part; im is then only scratch."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    p, q = -z.imag, z.real
    b = eps * t ** (2.0 * alpha)
    den = b * b + t * t
    scale = 1.0 / den
    res = None
    if out is None:
        shape = np.broadcast_shapes(t.shape, z.shape, (1,))
        res = np.empty(shape, dtype=complex)
        out = res.real, res.imag, np.empty(shape), np.empty(shape)
        imag = True
    re, im, w_re, w_im = out
    if p.any():
        np.add(2.0 * b, p, out=w_re)
        w_re *= p
        w_re -= q * q
        w_re *= scale
        np.add(b, p, out=w_im)
        w_im *= 2.0 * q
    else:  # real axis: (2b + p) p - q^2 is -q^2 and b + p is b, exactly
        np.multiply(-(q * q), scale, out=w_re)
        np.multiply(b, 2.0 * q, out=w_im)
    w_im *= scale
    far = log1p_c(w_re, w_im, out=(re, im), imag=imag)
    # |1+w| < 1/4 lies inside log1p_c's far branch, |1+w| < 1/2
    near = far[re.reshape(-1)[far] < np.log(0.25)]
    if near.size:
        idx = np.unravel_index(near, re.shape)
        b, z, t, den = (np.broadcast_to(a, re.shape)[idx] for a in (b, z, t, den))
        # log(b + i(z - t)) + log(b + i(z + t)) - log(den) in place: at
        # alpha 1/4 up to 37% of a fit-pass block is near, and these
        # temporaries set the pass's peak memory
        val, other = z - t, z + t
        with np.errstate(divide="ignore"):
            for f in (val, other):
                f *= 1j
                f += b
                np.log(f, out=f)
            val += other
            val -= np.log(den)
        re.reshape(-1)[near] = val.real
        if imag:
            im.reshape(-1)[near] = val.imag
    return (re, im) if res is None else res


def _work_arrays(rows: int, cols: int) -> list:
    """The four float work arrays of `_pair_log`, flat, for blocks of up to
    rows x cols paired terms: a smaller block takes a contiguous prefix.
    Four arrays, not one (4, rows x cols) block: freeing a 4 MB block lifts
    glibc's mmap threshold to 4 MB, so later arrays that size stay on the
    heap, which raised perfbench series_route's peak RSS from 61.1 to
    65.2 MB."""
    return [np.empty(rows * cols) for _ in range(4)]


def _tail_exponent(eps: float, alpha: float) -> float:
    # decay exponent p of the paired log term: den ~ t^2 below alpha=1/2,
    # den ~ eps^2 t^{4a} above, and exactly t^{-2} in the undamped limit
    if eps == 0:
        return 2.0
    return 2.0 - 2.0 * alpha if alpha < 0.5 else 2.0 * alpha


def _tail(m_cut: float, z, eps, alpha, work=None, imag: bool = True) -> np.ndarray:
    """Paired terms beyond m_cut: their integral over t in (m_cut, inf) plus
    the first Euler-Maclaurin midpoint correction f'(m_cut)/24.  The integral
    is taken by the substitution t = m_cut * s^{-q}, which maps t^{-p} decay
    to a smooth integrand on (0, 1), with 64-point Gauss-Legendre.

    With work, a pass's `_work_arrays`, the integral's terms run on them;
    with imag=False as well, only the result's real part is the tail's."""
    p = _tail_exponent(eps, alpha)
    s, w = _GL64
    with np.errstate(over="ignore", divide="ignore"):
        q = np.divide(1.0, p - 1.0)  # inf at alpha = 1/2
        t = m_cut * s ** (-q)
        jac = m_cut * q * s ** (-q - 1.0)
        if not np.isfinite(t[0] * t[0]):
            # p -> 1 as alpha -> 1/2: the substitution sends the first node
            # past the float range, where the paired term can no longer be
            # formed (it squares t)
            raise ConfigError(f"alpha = {alpha} is too close to 1/2: the product "
                              f"tail decays like t^-{p:.4g}, too slowly for its quadrature")
    wj = (w * jac)[:, None]
    if work is None:
        integral = np.sum(wj * _pair_log(t[:, None], z[None, :], eps, alpha), axis=0)
    else:
        views = [a[:t.size * z.size].reshape(t.size, z.size) for a in work]
        re, im = _pair_log(t[:, None], z[None, :], eps, alpha, out=views, imag=imag)
        integral = np.zeros(z.size, dtype=complex)
        integral.real = np.sum(np.multiply(wj, re, out=re), axis=0)
        if imag:
            integral.imag = np.sum(np.multiply(wj, im, out=im), axis=0)
    h = 1e-5 * m_cut
    fp = (_pair_log(m_cut + h, z, eps, alpha) - _pair_log(m_cut - h, z, eps, alpha)) / (2.0 * h)
    return integral + fp / 24.0


@dataclass(frozen=True)
class ProductEvaluator:
    """Evaluator for the interpolation product at fixed (eps, alpha).

    The per-m constants log conj(lambda_m) - C_m are cached per (m, cutoff).
    """
    eps: float
    alpha: float
    _scales: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _cut(self, z_max: float) -> int:
        return max(N_MIN, int(2.0 * z_max) + 1)

    def cutoff(self, m: int, z_max: float) -> int:
        """Direct pair count behind P_m on |z| <= z_max: the constant C_m is
        summed to max(N_MIN, 2 max(z_max, |node_m|) + 1) pairs, the log F
        pass to at most as many."""
        lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
        return self._cut(max(z_max, abs(lam_c_m)))

    def _pair_sum(self, z: np.ndarray, n_cut: int, skip: int = 0,
                  imag: bool = True) -> np.ndarray:
        """Paired log terms of F summed over |n| = 1..n_cut except |n| =
        skip, plus the tail beyond n_cut + 1/2, at the 1-d points z; with
        imag=False only the real part.

        The points go in near-equal column blocks of at most _COLS, and
        every block runs on one set of work arrays for the whole pass; the
        real and imaginary parts are summed apart, each column row by row in
        the same order whatever the blocking.  A one-point z would make a
        one-column block, which numpy sums pairwise, and a pairwise complex
        sum pairs its real parts differently from a float sum: it is summed
        as a complex array, and imag=False takes its real part."""
        eps, alpha = self.eps, self.alpha
        ns = np.arange(1, n_cut + 1, dtype=float)
        ns = ns[ns != skip]
        rows = [ns[lo:lo + _BLOCK, None] for lo in range(0, len(ns), _BLOCK)]
        if len(z) == 1:
            acc = np.zeros_like(z)
            for t in rows:
                acc += np.sum(_pair_log(t, z[None, :], eps, alpha), axis=0)
            out = acc + _tail(n_cut + 0.5, z, eps, alpha)
            return out if imag else out.real
        blocks = np.array_split(np.arange(len(z)), -(-len(z) // _COLS))
        work = _work_arrays(len(rows[0]), len(blocks[0]))
        out = np.empty(len(z), dtype=complex if imag else float)
        for cols in blocks:
            cols = slice(cols[0], cols[-1] + 1)
            zb = z[cols]
            acc_re, acc_im = np.zeros(len(zb)), np.zeros(len(zb))
            for t in rows:
                size = len(t) * len(zb)
                views = [a[:size].reshape(len(t), len(zb)) for a in work]
                re, im = _pair_log(t, zb[None, :], eps, alpha, out=views, imag=imag)
                acc_re += np.sum(re, axis=0)
                if imag:
                    acc_im += np.sum(im, axis=0)
            tail = _tail(n_cut + 0.5, zb, eps, alpha, work, imag)
            out.real[cols] = acc_re + tail.real
            if imag:
                out.imag[cols] = acc_im + tail.imag
        return out

    def log_generating(self, z) -> np.ndarray:
        """log F(z) at complex z (scalar or 1-d array): one pass serves every m.

        Points with Re z < 0 are folded onto -conj z, since F(-conj z) =
        conj F(z); the sum runs once per distinct folded point, to
        max(N_MIN, 2 max|z| + 1) pairs.
        """
        flip, key, inv, n_cut = self._fold(z)
        out = self._pair_sum(key, n_cut)[inv]
        return np.where(flip, out.conj(), out)

    def log_abs_generating(self, z) -> np.ndarray:
        """log|F(z)|, the real part of `log_generating` bit for bit, from a
        pass whose direct terms form no imaginary part: no arctan2 and half
        the sums."""
        _, key, inv, n_cut = self._fold(z)
        return self._pair_sum(key, n_cut, imag=False)[inv]

    def _fold(self, z):
        """(flip, key, inv, n_cut): the points z with Re z < 0 (flip) folded
        onto -conj z, the distinct folded points key with z's index into
        them, and the pass's cutoff."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        flip = z.real < 0
        key, inv = np.unique(np.where(flip, -z.conj(), z), return_inverse=True)
        return flip, key, inv, self._cut(float(np.max(np.abs(key), initial=0.0)))

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
        log F(z) if the caller already has it from `log_generating`.  A real
        log_f, log|F(z)| from `log_abs_generating`, gives the same real part
        bit for bit: numpy subtracts a complex from a real part by part."""
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


def interpolation_check(m_range, ev: ProductEvaluator):
    """Deviation matrix |product_m(node_n) - delta_mn| over m, n in m_range,
    and its maximum."""
    ms = [m for m in m_range if m != 0]
    ns = np.array(ms)
    nodes = 1j * lambda_conj_vals(ns, ev.eps, ev.alpha)
    log_f = ev.log_generating(nodes)
    dev = np.empty((len(ms), len(ns)))
    for i, m in enumerate(ms):
        vals = np.exp(ev.log_eval(m, nodes, log_f))
        target = (ns == m).astype(float)
        dev[i] = np.abs(vals - target)
    return dev, float(dev.max())


def _envelope_rate(log_q, log_c: float, wgt) -> float:
    """The smallest r >= 0 with log_q <= log_c + r wgt wherever the ratio
    (log_q - log_c) / wgt is finite; 0 if it is nowhere finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (log_q - log_c) / wgt
    ratios = ratios[np.isfinite(ratios)]
    return max(0.0, float(np.max(ratios))) if len(ratios) else 0.0


def growth_bound_check(m_max: int, ev: ProductEvaluator):
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
    wgt = ev.eps * ms ** (2.0 * ev.alpha)
    c_hat = _envelope_rate(logq[:fit_count], np.log(16.0), wgt[:fit_count])
    bounds = 16.0 * np.exp(c_hat * wgt)
    rows = [(int(m), float(np.exp(lq)), float(b)) for m, lq, b in zip(ms, logq, bounds)]
    return rows, c_hat


def envelope_fit(m: int, x_grid, ev: ProductEvaluator, log_f=None) -> float:
    """omega_hat, the smallest exponent with |product| <= c_hat *
    exp(omega_hat (phi(x) + |Re lambda_m|)) on the grid.

    log_f is log|F| on the grid if the caller already has it (one
    `ProductEvaluator.log_abs_generating` pass serves every m); log F
    gives the same bits.

    c_hat is read off where the weight is negligible (phi <= 1), with floor 1;
    omega_hat is then the max log-excess divided by the weight, clipped >= 0.
    """
    x = np.asarray(x_grid, dtype=float)
    if log_f is None:
        log_f = ev.log_abs_generating(x)
    logp = ev.log_eval(m, x.astype(complex), log_f).real
    rl = abs(complex(lambda_conj_vals(m, ev.eps, ev.alpha)).real)
    wgt = np.asarray(phi_eps(x, ev.eps, ev.alpha), dtype=float)
    base = wgt <= 1.0
    c_hat = max(1.0, float(np.exp(np.max(logp[base])))) if np.any(base) else 1.0
    return _envelope_rate(logp, np.log(c_hat), wgt + rl)
