"""Entire interpolation product over the damped eigenvalue lattice.

The product P_m is 1 at node_m = i conj(lambda_m) and 0 at every other
node.  All members are Lagrange basis functions of one generating function
(Fattorini & Russell, ARMA 1971):

    F(z) = prod_n (1 - z/node_n),   node_n = n + i b_n,   b_n = eps |n|^{2a},
    log P_m(z) = log F(z) - [log(conj(lambda_m) + iz) - log conj(lambda_m)] - C_m,

C_m = log G_m(node_m), G_m(z) = F(z)/(1 - z/node_m).  One log F pass serves
every member; per m only the linear factor and C_m remain, and P_m(node_m)
is set to exactly 1.  Pairing n with -n (node_{-n} = -conj(node_n)) gives
the factor ((b + iz)^2 + t^2) / (b^2 + t^2), t = |n|, whose logs are
absolutely summable for alpha < 1; all sums are in log space, so growth like
exp(C m^{2a}) never overflows.  F(-conj z) = conj F(z): a pass folds Re z < 0
onto -conj z and sums over the distinct folded points only.

Evaluation scheme.  A point z sums its pairs n <= K directly, K the smallest
multiple of core.STRIDE = 16 at or above 2|z| + 1.  Past K |z/node_n| <
1/2, and the rest of the lattice is one power series (Levin, Distribution
of Zeros of Entire Functions, ch. I):

    -sum_{k=1}^{J} z^k P_k(K)/k,   P_k(K) = sum_{n>K} node_n^{-k} + (-1)^k conj(node_n)^{-k},

real for even k, imaginary for odd k.  J = SERIES_TERMS = 48 leaves at most
4|z| 2^{-J} / (J (J+1)) = 6.0e-18 |z|: past k = J each log(1 - w) is at most
2|w|^{J+1}/(J+1), and sum_{n>K} (|z|/n)^{J+1} <= |z|^{J+1} K^{-J}/J.  The
P_k(K)/k are tabulated once per evaluator (`_lattice_sums`): the stride sums
by `core.stride_tail_sums` on the sum past the table's end (`_lattice_tail`),
as a complex table whose odd rows are imaginary; `core.power_series` sums the
series, over the real part of the table in a real modulus pass.

Every direct sum, a pass's or a one-point constant's, is one
`core.direct_sums` call with `_pair_log` as its term kernel, the engine the
multiplier's direct factors share: the points go in order of cutoff, the
real ones apart from the others, in STRIDE-multiple row ranges of at most
core.BLOCK_TERMS terms on four float work arrays, and each point reads its
own sum at its own cutoff, in the same bits alone as in any batch.  C_m
drops the pair |n| = m by zeroing its row in the block that holds it, so it
takes its terms from the same code as log F.  A pass that needs only |F|
(`log_abs_generating`) forms no imaginary parts, on the real axis not even
in the series; it is the real part of the full pass bit for bit.

Panel layer (`_panel_sum`).  A pass of more than P = 24 folded points, all
real, cuts [x_0, x_end] into equal panels of width h <= H = 16.  Without
its band, the pairs n within W = 8 of the panel (near the origin these hold
every n < W - x_0, whose partner zero -n + i b_n lies within W), log F is
R, whose zeros lie W or more from the panel: R is analytic inside the
panel's Bernstein ellipse rho = d + sqrt(d^2 - 1), d = 1 + 2W/h >= 2, so
rho >= 2 + sqrt 3 = 3.73.  The interpolant of R on P first-kind Chebyshev
nodes is within 4 M rho^{1-P} / (rho - 1) of R, M = max |R| on the ellipse
(Trefethen, Approximation Theory and Approximation Practice, thm 8.2): each
node gains a factor 3.73.  Measured against the point-by-point pass on the
fit grid and the FFT half-grid (eps 0 to 0.5, alpha 0.1 to 0.95), relative
to max(1, |log F|): 8.2e-11 at P = 16, 3.0e-13 at 20, a factor 270 = 3.73^4
x 1.4, so about 1e-15 at P = 24, below the 2.8e-14 that rounding leaves
(the phase of log F reaches 1e4 at alpha 0.55).  A panel with more than P
points takes R at its nodes from the point-by-point pass and adds to its
barycentric interpolant (Berrut & Trefethen, SIAM Review 2004) each point's
own band (`_band_sum`), each pair from its two linear factors b + i(x -+ t)
(`_factor_logs`): one log and one atan2 per term and no branch.  The real
and imaginary parts go through the same real arithmetic, so the modulus
pass stays the real part of the full pass bit for bit, and an exact zero
(eps = 0) stays a literal -inf.  Per unit length a panel sums H + 2W - 1
band pairs per point and 2xP/H direct pairs at its nodes; at W = H/2 (fixed
rho) H = 16 forms the fewest terms over the fit grid (7.5 points per unit up
to 400) and the FFT half-grid (27 per unit up to 150) together: 555,134
at alpha 1/4, against 608,591 at H = 12, 556,178 at 20 and 1,896,496 point
by point.  Of these the fit grid's pass forms 268,416 direct terms at its
600 nodes and 110,448 band terms, the FFT half-grid's 49,632 and 126,638; a
band term costs about 11 ns and a direct one about 22 ns (alpha 1/4, 2
vCPU, numpy 2.4).  A panel pass sums its nodes and the points of its sparse
panels in one `_pair_sum` call, and each dense panel's band in one
`_band_sum` call.  Other passes (complex points, P points or fewer: the
probe, `interpolation_check`) and C_m sum every point directly.

Numerical care in the paired term (`_pair_log`):
  * w = iz (2b + iz) / den, den = b^2 + t^2, from the factorization of the
    numerator minus the denominator, in real arithmetic, iz = p + iq:
    Re w = ((2b + p) p - q^2) / den, Im w = 2q (b + p) / den.
  * log(1+w) is core.log1p_c's 1/2 log1p(s) + i atan2(Im w, 1 + Re w),
    s = |1+w|^2 - 1, with log|1+w| where |1+w| < 1/2.  On the real axis
    s = Re w (Re w - c), c = 2 (b - t)(b + t) / den, without cancellation.
  * Near a zero of the factor (|1+w| < 1/4) the term is taken from the
    linear factors a + i(Re z -+ t), a = b - Im z, read at those entries
    (`_entries`), by `_factor_logs`, which also sums the panel bands: F
    keeps full relative accuracy next to its zeros, and a node gives a
    literal 0, so interpolation checks see exact deltas.

Accuracy against a 40-digit mpmath reference (test_product_matches_mpmath,
eps 0.1, alpha 0.25 and 0.75, m 1/3/7, real x up to 390, a complex point,
points 1e-4 and 1e-11 from node_m): at most 3.4e-13 at the real points
(3.3e-11 with the tail quadrature the series replaced), 3.6e-14 at the
complex point, 8.9e-15 next to node_m; mostly the rounding of log F's phase,
which x P_1(K) makes large (933 at x = 150, eps 1e-3, alpha 0.75).  Table
entries are within 1.7e-15 relative, the series within 4.9e-16 of its
modulus (test_lattice_sums_against_mpmath).
"""

from __future__ import annotations

import numpy as np

from .core import (STRIDE, ConfigError, direct_sums, gauss_legendre_01, log1p_c,
                   power_series, stride_tail_sums)
from .spectrum import gamma_eps, lambda_conj_vals, phi_eps

_GL64 = gauss_legendre_01(64)
# a point z sums its pairs n <= K directly, K the smallest multiple of
# core.STRIDE at or above _RATIO |z| + 1, so |z/node_n| < 1/_RATIO past K
_RATIO = 2.0
# series terms past K: the remainder is at most 4|z| 2^-J / (J (J+1)),
# 6.0e-18 |z| (module docstring)
SERIES_TERMS = 48
# smallest end N_0 of the lattice-sum table, which stays at 4x the largest
# direct cutoff or more: the Euler-Maclaurin remainder past N_0 scales like
# z^2 N_0^-5
_TABLE_END = 4096
# least exponent q of the tail substitution t = t0 s^-q (`_lattice_tail`)
_Q_MIN = 4.0
# s = |1+w|^2 - 1 below _FAR: |1+w| < 1/2 (far); below _NEAR: |1+w| < 1/4
_FAR, _NEAR = -0.75, -15.0 / 16.0
# max q^2 x max 1/den below this: s = Re w (Re w - c), |c| < 2, cannot overflow
_NO_OVERFLOW = 1e150
# panel layer of real passes (module docstring): a panel at most
# _PANEL_WIDTH wide that holds more than _PANEL_NODES points sums per point
# only the pairs within _BAND of it and interpolates the rest of log F from
# its _PANEL_NODES first-kind Chebyshev nodes (_CHEB, ascending on [-1, 1],
# barycentric weights _CHEB_W)
_PANEL_WIDTH, _BAND, _PANEL_NODES = 16.0, 8.0, 24
_THETA = (2.0 * np.arange(_PANEL_NODES) + 1.0) * np.pi / (2 * _PANEL_NODES)
_CHEB = np.cos(_THETA)[::-1].copy()
_CHEB_W = ((-1.0) ** np.arange(_PANEL_NODES) * np.sin(_THETA))[::-1].copy()


def _pair_log(t, z, eps: float, alpha: float, out, imag: bool = True):
    """log of F's paired (n, -n) factor at |n| = t, vectorized over t and z
    jointly, which broadcast in at most two dimensions; the module
    docstring gives the arithmetic.

    out = (re, im, w_re, w_im) are contiguous float arrays of the broadcast
    shape (the `core.direct_sums` work arrays); the call returns (re, im),
    the parts of the log.  imag=False skips the imaginary part; im, w_re and
    w_im are scratch."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    p, q = -z.imag, z.real
    b = eps * t ** (2.0 * alpha)
    den = b * b + t * t
    scale = 1.0 / den
    re, im, w_re, w_im = out
    cols = re.shape[-1]
    if p.any():
        np.add(2.0 * b, p, out=w_re)
        w_re *= p
        w_re -= q * q
        w_re *= scale
        np.add(b, p, out=w_im)
        w_im *= 2.0 * q
        w_im *= scale
        far = log1p_c(w_re, w_im, out=(re, im), imag=imag)
        near = far[re.reshape(-1)[far] < np.log(0.25)]
    else:
        # real axis: Re w = -q^2/den, Im w = y_t q, and s = Re w (Re w - c_t)
        _times(scale, -(q * q), w_re)
        y_t = 2.0 * b * scale
        np.subtract(w_re, 2.0 * (b - t) * (b + t) * scale, out=re)
        with np.errstate(over="ignore"):
            re *= w_re
        s = re.reshape(-1)
        if np.max(q * q) * np.max(scale) < _NO_OVERFLOW:
            far = np.flatnonzero(s < _FAR)
        else:
            far = np.flatnonzero((s < _FAR) | (s == np.inf))
        split = s[far] < _NEAR
        near, far = far[split], far[~split]
        if imag:
            _times(y_t, q, w_im)
        else:  # Im w is read at far alone
            y_f, q_f = _entries(far, cols, y_t, q)
            w_im.reshape(-1)[far] = y_f * q_f
        log1p_c(w_re, w_im, out=(re, im), imag=imag, s=re, far=far)
    if near.size:
        # the linear factors a + i(Re z -+ t), a = b - Im z = b + p
        a, t_n, x_n, p_n, den_n = _entries(near, cols, b, t, q, p, den)
        a += p_n
        re_n, im_n = _factor_logs(t_n, x_n, a, den_n, imag)
        re.reshape(-1)[near] = re_n
        if imag:
            im.reshape(-1)[near] = im_n
    return re, im


def _times(a, b, out) -> None:
    """a * b into out.  A column a (rows x 1) times a row b (1 x cols) is
    einsum's outer product: the same bits as numpy's broadcast multiply, in
    half its time on a 256 x 500 block (measured)."""
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0] == 1:
        np.einsum("i,j->ij", a[:, 0], b[0], out=out)
    else:
        np.multiply(a, b, out=out)


def _entries(flat, cols: int, *arrays) -> list:
    """The values at the flat indices `flat` of a block `cols` columns wide
    of each of `arrays`, which broadcast over the block in at most two
    dimensions: a column vector is read at flat // cols and a row vector at
    flat % cols, so no broadcast view is indexed."""
    row = flat // cols
    col = flat - row * cols
    out = []
    for a in arrays:
        rows, n = (a.shape[0], a.shape[1]) if a.ndim == 2 else (1, a.size)
        idx = (flat if n > 1 else row) if rows > 1 else (col if n > 1 else 0 * flat)
        out.append(a.reshape(-1).take(idx))
    return out


def _tail_exponent(eps: float, alpha: float) -> float:
    # decay exponent p of Im node(t)^-1, the slowest lattice term: t^{2a-2}
    # below alpha = 1/2, t^{-2a} above, and 2 in the undamped limit
    if eps == 0:
        return 2.0
    return 2.0 - 2.0 * alpha if alpha < 0.5 else 2.0 * alpha


def _part(x, k: int):
    # the part of node^-k that P_k keeps: real for even k, imaginary for odd
    return x.real if k % 2 == 0 else x.imag


def _lattice_tail(end: int, eps: float, alpha: float) -> np.ndarray:
    """`_part` of sum_{n > end} node_n^{-k}, k = 1..SERIES_TERMS: the
    integral of node(t)^{-k}, node(t) = t + i eps t^{2a}, over (end + 1/2,
    inf) plus the first Euler-Maclaurin midpoint correction, the derivative
    at end + 1/2 over 24.

    The integral is taken over t = t0 s^{-q} by 64-point Gauss-Legendre, q
    = N/(p - 1) for row 1's t^{-p} decay (`_tail_exponent`) and N the
    smallest integer with q >= _Q_MIN.  Row k is t^{-k} times a power series
    in beta = eps t^{2a-1} (past the kink in 1/beta), which the substitution
    makes c s^N: row k's integrand is s^g times a power series in s^N, g =
    N - 1 at k = 1 and g >= q - 1 >= 3 past it.  With q matched to row 1
    alone (N = 1) the even rows kept g = q - 1, 1/4 at alpha 0.1, and row 2
    a 3.6e-6 error; q = 1, matched to row 2's t^{-2} alone, leaves terms
    s^{2(1-2a)j}, 6e-7 of row 2 at eps 0.5, alpha 0.45.
    t0 is end + 1/2, or above alpha = 1/2 the kink
    gamma_eps = eps^{-1/(2a-1)}, where b crosses t and the decay turns from
    t^{2a-2} to t^{-2a}, if it lies past end + 1/2; (end + 1/2, kink) then
    takes 64 more Gauss-Legendre nodes in log t."""
    p = _tail_exponent(eps, alpha)
    s, w = _GL64
    cut = end + 0.5
    kink = gamma_eps(eps, alpha) if eps > 0 and alpha > 0.5 else 0.0
    t0 = kink if cut < kink < np.inf else cut
    with np.errstate(over="ignore", divide="ignore"):
        q = np.divide(1.0, p - 1.0)  # inf at alpha = 1/2
        q *= max(1.0, np.ceil(_Q_MIN / q))
        t = t0 * s ** (-q)
        jac = t0 * q * s ** (-q - 1.0)
        if not np.isfinite(t[0] * t[0]):
            # p -> 1 as alpha -> 1/2: the substitution sends the first node
            # past the float range
            raise ConfigError(f"alpha = {alpha} is too close to 1/2: the product "
                              f"tail decays like t^-{p:.4g}, too slowly for its quadrature")
    if t0 > cut:
        span = np.log(t0 / cut)
        below = cut * np.exp(span * s)
        t, jac, w = (np.concatenate(pair) for pair in ((below, t), (span * below, jac), (w, w)))
    a2 = 2.0 * alpha
    inv = 1.0 / (t + 1j * eps * t ** a2)
    wj = w * jac
    # d/dt node^{-k} = -k node^{-k-1} node'(t), node' = 1 + i eps 2a t^{2a-1}
    inv_cut = 1.0 / (cut + 1j * eps * cut ** a2)
    slope = inv_cut * (1.0 + 1j * eps * a2 * cut ** (a2 - 1.0))
    power, at_cut = np.ones_like(inv), 1.0 + 0j
    out = np.empty(SERIES_TERMS)
    for k in range(1, SERIES_TERMS + 1):
        power *= inv
        at_cut *= inv_cut
        out[k - 1] = _part(wj @ power - k * at_cut * slope / 24.0, k)
    return out


def _lattice_sums(end: int, eps: float, alpha: float) -> np.ndarray:
    """P_k(K)/k at K = STRIDE c, c = 0..end/(4 STRIDE), in row k-1, column
    c, complex: real for even k, imaginary for odd k.  P_k(K) is 2 `_part`
    of sum_{n>K} node_n^{-k}: the sum past end (`_lattice_tail`) plus the
    stride sums of node_n^{-k} (`core.stride_tail_sums`)."""
    n = np.arange(1.0, end + 1.0)
    sums = stride_tail_sums(1.0 / (n + 1j * eps * n ** (2.0 * alpha)), SERIES_TERMS,
                            _lattice_tail(end, eps, alpha), part=_part)
    sums = sums[:, :end // (4 * STRIDE) + 1] * (2.0 / np.arange(1, SERIES_TERMS + 1))[:, None]
    tab = np.zeros(sums.shape, dtype=complex)
    tab.real[1::2] = sums[1::2]
    tab.imag[::2] = sums[::2]
    return tab


def _series(z: np.ndarray, col: np.ndarray, tab: np.ndarray, imag: bool) -> np.ndarray:
    """-sum_{k=1}^{J} z^k P_k(K)/k at the points z, K = STRIDE col.  With
    imag=False and real z only the real part is formed, from the real part
    of the table, whose odd rows are 0: the real part of the complex series
    bit for bit, since Re(x acc) = x Re(acc) - 0 Im(acc) rounds as x
    Re(acc)."""
    if not imag and not z.imag.any():
        return -power_series(tab.real, col, z.real)
    return -power_series(tab, col, z)


def _barycentric(u: np.ndarray) -> np.ndarray:
    """The matrix that takes values at the nodes _CHEB to the interpolant's
    values at the points u of [-1, 1] (barycentric formula of the second
    kind); a point on a node reads that node alone."""
    mat = np.subtract.outer(u, _CHEB)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_CHEB_W, mat, out=mat)
        den = mat.sum(axis=1)
        mat /= den[:, None]
    on_node = np.flatnonzero(~np.isfinite(den))
    mat[on_node] = u[on_node, None] == _CHEB
    return mat


def _factor_logs(t, x, a, den, imag: bool):
    """(real part, imaginary part or None) of the paired log term at |n| = t
    from its two linear factors, which broadcast with x and a:

        (a + i(x - t)) (a + i(x + t)) = u + iv,
        u = (t - x)(t + x) + a^2,   v = 2ax,

    less log den: 1/2 log((u^2 + v^2)/den^2) + i atan2(v, u), the principal
    log of 1 + w = (u + iv)/den.  u has no cancellation but where u is small
    against v, so both parts keep full relative accuracy next to a zero of
    F, and an exact zero (u = v = 0) gives a literal -inf."""
    u = t - x
    u *= t + x
    u += a * a
    v = (2.0 * a) * x
    im = np.arctan2(v, u) if imag else None
    u *= u
    v *= v
    u += v
    u *= 1.0 / (den * den)
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u *= 0.5
    return u, im


def _band_sum(t, x, eps: float, alpha: float, imag: bool) -> list:
    """F's paired log terms at |n| = t, a column, summed over t at the real
    points x >= 0, a row: [real part] with imag=False, else [real part,
    imaginary part].  Each pair is summed from its linear factors b + i(x -+
    t) (`_factor_logs`, a = b); at a zero (eps = 0, x = t) the real part is
    a literal -inf."""
    b = eps * t ** (2.0 * alpha)
    re, im = _factor_logs(t, x, b, b * b + t * t, imag)
    return [re.sum(axis=0), im.sum(axis=0)] if imag else [re.sum(axis=0)]


class ProductEvaluator:
    """Evaluator for the interpolation product at fixed (eps, alpha).

    Holds the series coefficients P_k(K)/k at every STRIDE-th K up to the
    largest direct cutoff seen or past it (`_lattice`), and caches the per-m
    constants log conj(lambda_m) - C_m.
    """

    def __init__(self, eps: float, alpha: float):
        self.eps = eps
        self.alpha = alpha
        self._table = None
        self._scales = {}

    @staticmethod
    def _cuts(r) -> np.ndarray:
        """Direct pair count K at |z| = r: the smallest multiple of STRIDE at
        or above _RATIO r + 1, so |z/node_n| < 1/_RATIO for every n > K."""
        return STRIDE * np.ceil((_RATIO * np.asarray(r) + 1.0) / STRIDE).astype(np.int64)

    def cutoff(self, m: int, z_max: float) -> int:
        """Direct pair count K of a point at |z| = max(z_max, |node_m|): the
        one-point sum of C_m runs to cutoff(m, 0), and a log F pass sums at
        most cutoff(m, max|z|) pairs directly at any of its points."""
        lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
        return int(self._cuts(max(z_max, abs(lam_c_m))))

    def _lattice(self, k_max: int) -> np.ndarray:
        """The `_lattice_sums` table, rebuilt with end max(_TABLE_END, 6 k_max)
        when k_max lies past its last column."""
        if self._table is None or k_max > (self._table.shape[1] - 1) * STRIDE:
            end = 4 * STRIDE * -(-max(_TABLE_END, 6 * k_max) // (4 * STRIDE))
            self._table = _lattice_sums(end, self.eps, self.alpha)
        return self._table

    def _pair_sum(self, z: np.ndarray, cuts: np.ndarray, skip: int = 0,
                  imag: bool = True) -> np.ndarray:
        """log F at the 1-d points z, with imag=False its real part, without
        the pair |n| = skip (none at skip = 0): pairs 1..cuts[i] directly
        (`core.direct_sums` over `_pair_log`, the skipped row zeroed in the
        block that holds it), the rest as `_series`: the one path of every
        pass, panel node set and one-point constant."""
        eps, alpha = self.eps, self.alpha

        def pairs(lo, hi, zc, views):
            t = np.arange(lo + 1.0, hi + 1.0)[:, None]
            parts = _pair_log(t, zc[None, :], eps, alpha, views, imag)[:1 + imag]
            if lo < skip <= hi:
                for part in parts:
                    part[skip - lo - 1] = 0.0
            return parts

        out = np.zeros(len(z), dtype=complex if imag else float)
        direct_sums(z, cuts, pairs, (out.real, out.imag) if imag else (out,), 4)
        # the table is built after the work arrays are freed: its
        # temporaries then stay below the pass's peak memory
        ser = _series(z, cuts // STRIDE, self._lattice(int(np.max(cuts))), imag)
        out += ser if imag else ser.real
        return out

    def _panel_sum(self, x: np.ndarray, imag: bool) -> np.ndarray:
        """log F at the sorted distinct real points x >= 0, with imag=False
        its real part, by the panel layer (module docstring).  [x_0, x_end]
        is cut into equal panels at most _PANEL_WIDTH wide.  A panel with
        more than _PANEL_NODES points and no node on an integer (a zero of F
        at eps = 0) reads R = log F minus its band at its Chebyshev nodes;
        each of its points takes R's interpolant plus its own band, one
        `_band_sum` over the panel's nodes and points, the real and
        imaginary parts in the same real arithmetic.  The nodes of every
        dense panel and the points of the others are summed point by point
        in one `_pair_sum` call."""
        panels = max(1, int(np.ceil((x[-1] - x[0]) / _PANEL_WIDTH)))
        h = (x[-1] - x[0]) / panels
        index = np.minimum(((x - x[0]) / h).astype(np.int64), panels - 1)
        ids, first, count = np.unique(index, return_index=True, return_counts=True)
        lo = x[0] + h * ids
        nodes = (lo + 0.5 * h)[:, None] + 0.5 * h * _CHEB[None, :]
        dense = (count > _PANEL_NODES) & ~np.any(nodes == np.round(nodes), axis=1)
        alone = ~np.repeat(dense, count)
        lo, first, count, nodes = lo[dense], first[dense], count[dense], nodes[dense]
        pts = np.concatenate([nodes.ravel(), x[alone]])
        vals = self._pair_sum(pts.astype(complex), self._cuts(pts), imag=imag)
        out = np.empty(len(x), dtype=vals.dtype)
        out[alone] = vals[nodes.size:]
        node_vals = vals[:nodes.size].reshape(nodes.shape)
        parts = (out.real, out.imag) if imag else (out,)
        node_parts = (node_vals.real, node_vals.imag) if imag else (node_vals,)
        p = _PANEL_NODES
        for i, (a, c) in enumerate(zip(first, count)):
            # the band: pairs n with |n - x| < _BAND somewhere on the panel
            t = np.arange(max(1.0, np.floor(lo[i] - _BAND) + 1.0),
                          np.ceil(lo[i] + h + _BAND))[:, None]
            cols = np.concatenate([nodes[i], x[a:a + c]])
            bands = _band_sum(t, cols[None, :], self.eps, self.alpha, imag)
            mat = _barycentric((x[a:a + c] - lo[i]) * (2.0 / h) - 1.0)
            for band, dest, node_part in zip(bands, parts, node_parts):
                dest[a:a + c] = mat @ (node_part[i] - band[:p]) + band[p:]
        return out

    def _pass(self, key: np.ndarray, cuts: np.ndarray, imag: bool) -> np.ndarray:
        """log F at the distinct folded points key, with imag=False its real
        part: a real pass of more than _PANEL_NODES finite points by the
        panel layer, any other point by point."""
        if len(key) > _PANEL_NODES and not key.imag.any() and np.isfinite(key[-1].real):
            return self._panel_sum(key.real, imag)
        return self._pair_sum(key, cuts, imag=imag)

    def log_generating(self, z) -> np.ndarray:
        """log F(z) at complex z (scalar or 1-d array): one pass serves every m.

        Points with Re z < 0 are folded onto -conj z, since F(-conj z) =
        conj F(z); the sum runs once per distinct folded point, each point
        summing its first 16 ceil((2|z| + 1)/16) pairs directly and the rest
        of the lattice as a power series in z.  Dense real passes sum that
        way only at Chebyshev nodes and interpolate (`_panel_sum`).
        """
        flip, key, inv, cuts = self._fold(z)
        out = self._pass(key, cuts, True)[inv]
        return np.where(flip, out.conj(), out)

    def log_abs_generating(self, z) -> np.ndarray:
        """log|F(z)|, the real part of `log_generating` bit for bit, from a
        pass whose direct terms form no imaginary part: no arctan2 and half
        the sums, and on the real axis a real series."""
        _, key, inv, cuts = self._fold(z)
        return self._pass(key, cuts, False)[inv]

    def _fold(self, z):
        """(flip, key, inv, cuts): the points z with Re z < 0 (flip) folded
        onto -conj z, the distinct folded points key with z's index into
        them, and each key point's direct cutoff."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        flip = z.real < 0
        key, inv = np.unique(np.where(flip, -z.conj(), z), return_inverse=True)
        return flip, key, inv, self._cuts(np.abs(key))

    def _log_scale(self, m: int) -> complex:
        """log conj(lambda_m) - C_m with C_m = log G_m(node_m): the one-point
        sum at node_m without |m|, its direct range cutoff(m, 0), plus the
        factor of the lone partner -m."""
        scale = self._scales.get(m)
        if scale is None:
            lam_c_m = complex(lambda_conj_vals(m, self.eps, self.alpha))
            lone = complex(lambda_conj_vals(-m, self.eps, self.alpha))
            c_m = complex(self._pair_sum(np.array([1j * lam_c_m]),
                                         np.array([self.cutoff(m, 0.0)]), skip=abs(m))[0])
            c_m += np.log(lone - lam_c_m) - np.log(lone)
            scale = self._scales[m] = np.log(lam_c_m) - c_m
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
        scale = self._log_scale(m)
        lin = complex(lambda_conj_vals(m, self.eps, self.alpha)) + 1j * z
        with np.errstate(divide="ignore", invalid="ignore"):
            out = log_f - np.log(lin) + scale
        out[lin == 0] = 0.0  # z is node_m: P_m = 1 exactly
        return out


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
