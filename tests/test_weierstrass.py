import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_pair_work, pass_terms
from viscowave import biorthogonal as bio
from viscowave import weierstrass as wei
from viscowave.core import ConfigError
from viscowave.spectrum import lambda_conj_vals, phi_eps
from viscowave.weierstrass import (ProductEvaluator, _pair_log, envelope_fit,
                                   growth_bound_check, interpolation_check,
                                   product_eps0)


# ---------------------------------------------------------------------------
# undamped closed form
# ---------------------------------------------------------------------------

def test_eps0_quarter_point():
    # P_1(1/2) = 4/pi
    assert product_eps0(1, 0.5) == pytest.approx(4.0 / math.pi, rel=1e-14)


def test_eps0_origin_alternates():
    for m in range(1, 10):
        assert product_eps0(m, 0.0) == pytest.approx((-1.0) ** (m + 1), rel=1e-14)


def test_eps0_node_values():
    assert product_eps0(3, 3.0) == pytest.approx(1.0, rel=1e-14)
    assert product_eps0(3, 5.0) == pytest.approx(0.0, abs=1e-14)


def test_engine_matches_eps0_closed_form():
    ev = ProductEvaluator(0.0, 0.25)
    x = np.linspace(-20, 20, 1601)
    for m in (1, 2, 5):
        keep = (np.abs(x) > 1e-3) & (np.abs(x - m) > 1e-3)
        got = np.exp(ev.log_eval(m, x[keep].astype(complex)))
        want = (-1.0) ** m * m * np.sin(np.pi * x[keep]) / (
            np.pi * x[keep] * (x[keep] - m))
        assert np.max(np.abs(got - want)) < 1e-10


def test_small_viscosity_continuity():
    # eps -> 0 limit approaches the closed form linearly in eps
    ev = ProductEvaluator(1e-8, 0.25)
    z = np.array([0.3, 2.7, -5.2, 10.1], dtype=complex)
    want = np.array([product_eps0(2, zz) for zz in z])
    got = np.exp(ev.log_eval(2, z))
    assert np.max(np.abs(got - want)) < 1e-5


# ---------------------------------------------------------------------------
# paired term against a 40-digit reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_pair_log_matches_mpmath(alpha):
    # log(((b+iz)^2 + t^2) / (b^2 + t^2)), the generating function's paired
    # factor, in 40 digits from the same double inputs (t, z and b = eps
    # t^{2a} as the code forms it).  Real z never hits a zero (they have
    # Im = b > 0); z = t puts the factor near its zero at b + iz = it, and
    # the points z = t + ib + d(1+i), d = 1e-4 and 1e-11, sit next to it:
    # both take the factored |1+w| < 1/4 path, which must keep full relative
    # accuracy there.  Off the real axis: the nodes i conj(lambda_n) of other
    # indices n of both signs (the one-point constants C_m are summed there)
    # and points with Im z = +-0.5, +-20 and Re z of both signs.  Compared
    # modulo 2 pi i: the factored sum of logs may leave the principal branch,
    # and only its exponential is ever used.
    eps = 0.1
    rng = np.random.default_rng(5)
    ts = np.concatenate([np.unique(np.round(np.geomspace(1.0, 1e4, 30))),
                         rng.uniform(1.0, 1e4, 10)])
    zs = np.concatenate([rng.uniform(-2000.0, 2000.0, 24), [0.0, 1.0, 7.0, 250.0, 2000.0]])
    bs = eps * ts ** (2.0 * alpha)
    cases = [(ts[:, None], zs[None, :].astype(complex))]
    for d in (1e-4, 1e-11):
        cases.append((ts, ts + 1j * bs + d * (1 + 1j)))
    ns = np.array([-700, -50, -6, -1, 1, 6, 50, 700])
    other = ts[:, None] != np.abs(ns)[None, :]  # t = |n| is the node's own zero
    nodes = np.broadcast_to(1j * lambda_conj_vals(ns, eps, alpha), other.shape)
    cases.append((np.broadcast_to(ts[:, None], other.shape)[other], nodes[other]))
    xs = np.concatenate([rng.uniform(-2000.0, 2000.0, 6), [-3.0, 3.0]])
    off_axis = (xs[:, None] + 1j * np.array([-20.0, -0.5, 0.5, 20.0])[None, :]).ravel()
    cases.append((ts[:, None], off_axis[None, :]))
    worst, near, count = 0.0, 0, 0
    two_pi = 2 * mp.pi
    with mp.workdps(40):
        for t_arg, z_arg in cases:
            t_b, z_b = np.broadcast_arrays(t_arg, z_arg)
            got = _pair_log(t_arg, z_arg, eps, alpha)
            b_b = eps * t_b ** (2.0 * alpha)
            count += got.size
            for t, z, b, g in zip(t_b.ravel(), z_b.ravel(), b_b.ravel(), got.ravel()):
                t_mp, b_mp = mp.mpf(t), mp.mpf(b)
                z_mp = mp.mpc(z.real, z.imag)
                u = ((b_mp + 1j * z_mp) ** 2 + t_mp ** 2) / (b_mp ** 2 + t_mp ** 2)
                ref = mp.log(u)
                diff = mp.mpc(g.real, g.imag) - ref
                diff -= 1j * two_pi * mp.nint(diff.imag / two_pi)
                # z = 0 gives u = 1 exactly: the error itself must be 0
                worst = max(worst, float(abs(diff) / (abs(ref) or 1)))
                near += abs(u) < 0.25
    print(f"_pair_log alpha={alpha}: max relative error {worst:.2e} vs 40-digit mpmath "
          f"({near} of {count} points on the |1+w| < 1/4 path)")
    assert near > 0
    assert worst < 1e-12


def _pair_log_complex(t, z, eps, alpha, out=None, imag=True):
    """The paired log term in complex arithmetic: w = iz (2b + iz) / den by
    numpy's complex multiply and divide, then log(1+w) in core.log1p_c's
    closed form from the complex w, and the same near-zero branch.  Takes
    and fills `_pair_log`'s work arrays like it."""
    t = np.asarray(t, dtype=float)
    b = eps * t ** (2.0 * alpha)
    den = b * b + t * t
    w = 1j * z * (2.0 * b + 1j * z) / den
    x, y = w.real, w.imag
    res = np.empty_like(w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = x * (x + 2.0) + y * y
        res.real = 0.5 * np.log1p(s)
        res.imag = np.arctan2(y, x + 1.0)
        far = (s < -0.75) | (s == np.inf)
        res.real[far] = np.log(np.abs(1.0 + w[far]))
        near = np.nonzero(res.real < np.log(0.25))
        b, z, t, den = (np.broadcast_to(a, w.shape)[near] for a in (b, z, t, den))
        res[near] = np.log(b + 1j * (z - t)) + np.log(b + 1j * (z + t)) - np.log(den)
    if out is None:
        return res
    out[0][...] = res.real
    if imag:
        out[1][...] = res.imag
    return out[0], out[1]


FIT_GRID = np.linspace(0.0, bio.OMEGA_FIT_HALF_WIDTH, 3000)  # resolve_omega's grid
FFT_HALF_GRID = 300.0 / 8192 * np.arange(4097)  # |x| = j dx, n 8192, half-width 150


def _pass_terms(grids) -> int:
    return sum(pass_terms(len(x), ProductEvaluator(0.1, 0.25)._cut(float(np.max(x))))
               for x in grids)


# |log F - log F_complex| <= this x max(|log F|, 1) on both grids: 10x the
# worst measured (4.1e-16, the FFT half-grid at alpha 0.75)
_COMPLEX_FORMULA_BOUND = 4e-15


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_real_axis_pass_is_blocking_invariant(monkeypatch, alpha):
    # the real-axis pass summed in column blocks is, bit for bit, the same
    # pass summed over every point at once: on the envelope fit's 3000-point
    # grid and on the n/2 + 1 points j dx of an FFT grid (n 8192, half-width
    # 150).  No paired-term call sees more than _BLOCK x _COLS entries, and
    # none sees a single point, which numpy would sum pairwise instead of
    # row by row.  Both passes send every paired term through `_pair_log`.
    # s = |1+w|^2 - 1 by factorization is not the complex formula's
    # rounding: the two agree to _COMPLEX_FORMULA_BOUND
    grids = (FIT_GRID, FFT_HALF_GRID)
    work = count_pair_work(monkeypatch)
    got = [ProductEvaluator(0.1, alpha).log_generating(x) for x in grids]
    assert max(work.elements) <= wei._BLOCK * wei._COLS
    assert max(work.points) <= wei._COLS and min(work.points) >= 2
    assert sum(work.elements) == _pass_terms(grids)
    monkeypatch.setattr(wei, "_COLS", 10 ** 6)
    one = count_pair_work(monkeypatch)
    for x, g in zip(grids, got):
        assert np.array_equal(g, ProductEvaluator(0.1, alpha).log_generating(x))
    assert sum(one.elements) == _pass_terms(grids)
    assert max(one.points) == len(FFT_HALF_GRID)
    monkeypatch.setattr(wei, "_pair_log", _pair_log_complex)
    for x, g in zip(grids, got):
        ref = ProductEvaluator(0.1, alpha).log_generating(x)
        err = float(np.max(np.abs(g - ref) / np.maximum(np.abs(ref), 1.0)))
        print(f"alpha={alpha}, {len(x)} points: {err:.2e} off the complex formula")
        assert err <= _COMPLEX_FORMULA_BOUND


def _mp_pair_log(t, z, b):
    """log(((b + iz)^2 + t^2) / (b^2 + t^2)) in working precision from the
    double inputs."""
    t_mp, b_mp = mp.mpf(t), mp.mpf(b)
    z_mp = mp.mpc(complex(z).real, complex(z).imag)
    return mp.log(((b_mp + 1j * z_mp) ** 2 + t_mp ** 2) / (b_mp ** 2 + t_mp ** 2))


def _worst_vs_mp(t, z, eps, alpha) -> float:
    """Largest relative error of `_pair_log(t, z)`, t and z broadcast, against
    40-digit mpmath, modulo 2 pi i."""
    got = _pair_log(t, z, eps, alpha)
    t_b, z_b = (np.broadcast_to(a, got.shape) for a in (t, z))
    worst = 0.0
    with mp.workdps(40):
        for tv, zv, g in zip(t_b.ravel(), z_b.ravel(), got.ravel()):
            ref = _mp_pair_log(tv, zv, eps * tv ** (2.0 * alpha))
            d = mp.mpc(g.real, g.imag) - ref
            d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
            worst = max(worst, float(abs(d) / (abs(ref) or 1)))
    return worst


# the near branch sums three logs, the largest log(den) <= 2 log(801)
# = 13.4, so a few of its ulps (1.8e-15) over the smallest near |log(1+w)|,
# log 4: 4e-15; measured 1.4e-15 (near, fit grid, alpha 1/4)
_REAL_AXIS_MP_BOUND = 4e-15


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_real_axis_terms_match_mpmath(alpha):
    # direct terms of the fit-grid and FFT-half-grid passes, drawn from each
    # branch of the real-axis kernel: near (|1+w| < 1/4, the factored
    # branch), far (1/4 <= |1+w| < 1/2, log1p_c's log|1+w|) and tiny w
    # (0 < |w| < 1e-3, where s = |1+w|^2 - 1 must not cancel); at alpha 3/4
    # only two terms of each grid are near
    eps, rng = 0.1, np.random.default_rng(19)
    for x in (FIT_GRID, FFT_HALF_GRID):
        ts = np.arange(1.0, ProductEvaluator(eps, alpha)._cut(float(x[-1])) + 1.0)
        picked = {"near": [], "far": [], "small w": []}
        for lo in range(0, len(ts), 64):
            t = ts[lo:lo + 64, None]
            b = eps * t ** (2.0 * alpha)
            w = 1j * x * (2.0 * b + 1j * x) / (b * b + t * t)
            mod = np.abs(1.0 + w)
            for kind, sel in (("near", mod < 0.25), ("far", (mod >= 0.25) & (mod < 0.5)),
                              ("small w", (np.abs(w) < 1e-3) & (x > 0))):
                i, j = np.nonzero(sel)
                k = rng.permutation(len(i))[:4]
                picked[kind].append(np.stack([t[i[k], 0], x[j[k]]]))
        for kind, pairs in picked.items():
            t_s, x_s = np.concatenate(pairs, axis=1)
            worst = _worst_vs_mp(t_s, x_s, eps, alpha)
            print(f"alpha={alpha}, {len(x)}-point grid, {kind}: {len(t_s)} terms, "
                  f"max relative error {worst:.2e} vs 40-digit mpmath")
            assert len(t_s) >= 2 and worst <= _REAL_AXIS_MP_BOUND


def test_pair_log_real_axis_saturating_inputs():
    # |w|^2 = (q^2/den)^2 overflows at real z = 1e100: the per-block bound
    # turns the overflow scan on, and those terms take log|1+w|, finite and
    # right, next to an ordinary term in the same block
    z = np.array([1.0, 1e100, -1e150])
    t = np.array([[1.0], [7.0], [512.0]])
    for alpha in (0.25, 0.75):
        got = _pair_log(t, z[None, :], 0.1, alpha)
        assert np.all(np.isfinite(got))
        assert _worst_vs_mp(t, z[None, :], 0.1, alpha) <= 1e-15


def test_pair_log_near_branch_on_scalar_and_1d_t():
    # the near branch reads t, b, den and z at its entries from vectors of
    # the broadcast shape: a scalar t against 1-d z or a scalar z, 1-d t
    # against 1-d z entry by entry, and a column of t against a row of z
    # give the same bits, on and off the axis, and match mpmath
    eps, alpha, t0 = 0.1, 0.25, 7.0
    b0 = eps * t0 ** (2.0 * alpha)
    z = np.array([t0, t0 + 1e-3, t0 - 0.2, t0 + 1j * b0 + 1e-9 * (1 + 1j), 2.0, 0.5j])
    scalar = _pair_log(t0, z, eps, alpha)
    block = _pair_log(np.array([[t0, 3.0]]).T, z[None, :], eps, alpha)
    assert np.array_equal(scalar, block[0])
    assert np.array_equal(_pair_log(t0, z[1], eps, alpha), scalar[1:2])
    ts = np.array([t0, 3.0, t0, 40.0])
    zs = np.array([t0 + 1e-3, 3.0, t0 + 1j * b0 + 1e-9, 39.9])
    diagonal = _pair_log(ts, zs, eps, alpha)
    outer = _pair_log(ts[:, None], zs[None, :], eps, alpha)
    assert np.array_equal(diagonal, np.diagonal(outer))
    near = np.abs(1.0 + 1j * z * (2.0 * b0 + 1j * z) / (b0 * b0 + t0 * t0)) < 0.25
    assert near.sum() >= 3
    assert _worst_vs_mp(t0, z, eps, alpha) <= 2e-15
    assert _worst_vs_mp(ts, zs, eps, alpha) <= 2e-15


@pytest.mark.parametrize("alpha", [0.25, 0.55, 0.75])
def test_modulus_pass_is_bitwise_the_real_part(alpha):
    # log|F| from the pass without imaginary parts is the real part of the
    # full log F pass bit for bit, on the fit grid and the FFT half-grid
    for x in (FIT_GRID, FFT_HALF_GRID):
        ev = ProductEvaluator(0.1, alpha)
        full = ev.log_generating(x)
        modulus = ev.log_abs_generating(x)
        assert modulus.dtype == float
        assert np.array_equal(modulus, full.real)
    # folded and one-point passes too: |F(-conj z)| = |F(z)|, and a one-point
    # pass takes the real part of its complex sum
    z = np.array([-3.0 + 0.2j, 2.0, 5.0 - 1.0j, -7.5])
    assert np.array_equal(ev.log_abs_generating(z), ev.log_generating(z).real)
    assert np.array_equal(ev.log_abs_generating(150.0), ev.log_generating(150.0).real)


def test_pass_allocates_work_arrays_once(monkeypatch):
    # a 3000-point pass at cutoff 801 sums 6 column blocks x 4 row blocks of
    # direct terms and one of tail-integral terms; every block runs on the
    # one set of work arrays allocated for the pass, in the full pass and in
    # the modulus pass alike
    allocs, on_work = [], []
    work_arrays, pair_log = wei._work_arrays, wei._pair_log

    def count_alloc(rows, cols):
        allocs.append(work_arrays(rows, cols))
        return allocs[-1]

    def check_block(t, z, *rest, **kw):
        if kw.get("out") is not None:
            on_work.append(all(np.shares_memory(o, a) for o, a in zip(kw["out"], allocs[-1])))
        return pair_log(t, z, *rest, **kw)

    monkeypatch.setattr(wei, "_work_arrays", count_alloc)
    monkeypatch.setattr(wei, "_pair_log", check_block)
    ev = ProductEvaluator(0.1, 0.25)
    ev.log_generating(FIT_GRID)
    ev.log_abs_generating(FIT_GRID)
    assert len(allocs) == 2
    assert all(len(a) == 4 and a[0].size == wei._BLOCK * 500 for a in allocs)
    assert len(on_work) == 2 * 6 * (4 + 1) and all(on_work)


# ---------------------------------------------------------------------------
# full product against a 40-digit reference
# ---------------------------------------------------------------------------

_MP_DIRECT = 801  # pairs summed directly: past 2|z| at every point below


def _mp_tail(z, e, a2):
    """sum over t > _MP_DIRECT of log(((b + iz)^2 + t^2) / (b^2 + t^2)),
    b = e t^a2, by Euler-Maclaurin summation (mpmath.sumem, the routine
    behind nsum's euler-maclaurin method, run once instead of nsum's
    repeated tries).  Its integral is taken over s = (t / t0)^(-1/2) on
    (0, 1], where the t^-1.5 decay of the term (alpha = 1/4 and 3/4)
    becomes a smooth integrand, by Gauss-Legendre: tanh-sinh samples s so
    close to 0 that the term's log of 1 + tiny loses the tiny part."""
    t0 = _MP_DIRECT + 1

    def term(t):
        b = e * t ** a2
        return mp.log(((b + 1j * z) ** 2 + t ** 2) / (b ** 2 + t ** 2))

    integral = mp.quad(lambda s: term(t0 / s ** 2) * 2 * t0 / s ** 3, [0, 1],
                       method="gauss-legendre")
    return mp.sumem(term, [t0, mp.inf], integral=integral)


def _mp_log_product(m, z, e, bs, tail):
    """log P_m(z) for m > 0, modulo 2 pi i, in working precision from the
    defining product over n != m of (conj(lambda_n) + iz) / (conj(lambda_n)
    - conj(lambda_m)), conj(lambda_n) = bs[|n|] - i n: pairs (n, -n) up to
    _MP_DIRECT and the lone partner -m multiplied out (mpmath numbers
    cannot overflow), and the pairs beyond as tail(z) - tail(node_m)."""
    lm, lone = bs[m] - 1j * m, bs[m] + 1j * m
    prod = (lone + 1j * z) / (lone - lm)
    for n in range(1, _MP_DIRECT + 1):
        if n != m:
            prod *= ((bs[n] + 1j * z) ** 2 + n ** 2) / ((bs[n] - lm) ** 2 + n ** 2)
    return mp.log(prod) + tail(z) - tail(1j * lm)


# per point kind: 10x the worst error of P_m summed directly per m, without
# F (3.2e-11, 2.6e-13), but never looser than 1e-10.  Next to node_m
# that direct sum has nothing to divide out (4.9e-16); the Lagrange form
# divides F by the linear factor, whose log ~ log(delta) costs a few ulps of
# itself (measured 1.5e-14), so its bound is 1e-13, still 1e8 below the loss
# of a near-zero branch that forms (b + iz)^2 + t^2 unfactored (~m eps/delta).
_MP_BOUNDS = {"real": 1e-10, "complex": 2.6e-12, "near node": 1e-13}


def test_product_matches_mpmath():
    # the evaluator against a reference that shares none of its code; the
    # error is |log P - log P_ref| modulo 2 pi i, the relative error of P.
    # Points: real x, one complex point, and two next to node_m, where the
    # product is smooth but log F and the divided-out linear factor are not
    eps = 0.1
    worst = {"real": 0.0, "complex": 0.0, "near node": 0.0}
    with mp.workdps(40):
        e = mp.mpf(eps)
        for alpha in (0.25, 0.75):
            a2 = 2 * mp.mpf(alpha)
            bs = [e * mp.mpf(n) ** a2 for n in range(_MP_DIRECT + 1)]
            tails = {}

            def tail(z):
                if z not in tails:
                    tails[z] = _mp_tail(z, e, a2)
                return tails[z]

            ev = ProductEvaluator(eps, alpha)
            for m in (1, 3, 7):
                node = 1j * complex(lambda_conj_vals(m, eps, alpha))
                pts = np.array([0.37, 12.5, 150.0, 390.0, -5.2 + 1.3j,
                                node + 1e-4 * (1 + 1j), node + 1e-11 * (1 + 1j)])
                kinds = ["real"] * 4 + ["complex"] + ["near node"] * 2
                got = ev.log_eval(m, pts)
                for z, g, kind in zip(pts, got, kinds):
                    ref = _mp_log_product(m, mp.mpc(z.real, z.imag), e, bs, tail)
                    d = mp.mpc(g.real, g.imag) - ref
                    d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
                    err = float(abs(d))
                    print(f"alpha={alpha} m={m} z={complex(z):.6g}: relative error {err:.2e}")
                    worst[kind] = max(worst[kind], err)
    print("worst relative error:", {k: f"{v:.2e}" for k, v in worst.items()})
    for kind, err in worst.items():
        assert err <= _MP_BOUNDS[kind], kind


# ---------------------------------------------------------------------------
# interpolation identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_node_matrix_is_identity(eps, alpha):
    ev = ProductEvaluator(eps, alpha)
    rng = [m for m in range(-6, 7) if m != 0]
    dev, max_dev = interpolation_check(rng, ev)
    # node evaluations reduce to exact 0/1 through the factored form
    assert max_dev == 0.0
    assert dev.shape == (len(rng), len(rng))


def test_index_zero_rejected():
    ev = ProductEvaluator(0.1, 0.25)
    with pytest.raises(ConfigError):
        ev.log_eval(0, 1.0 + 0j)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncation_grows_with_argument():
    ev = ProductEvaluator(0.1, 0.25)
    assert ev.cutoff(1, 10.0) == wei.N_MIN == 512    # floor
    assert ev.cutoff(1, 5000.0) == 10001              # 2 z + 1 rule


def test_cutoff_refinement_moves_little(monkeypatch):
    # quadrupling the direct cutoff floor (N_MIN 512 -> 2048) trades tail
    # quadrature for direct terms; log P_m moves by at most 4.5e-12 here
    rng = np.random.default_rng(3)
    z = rng.uniform(-30, 30, 25) + 1j * rng.uniform(-3, 3, 25)
    params, ms = [(0.1, 0.25), (0.1, 0.75)], (1, 2, 7)
    got = {p: [ProductEvaluator(*p).log_eval(m, z) for m in ms] for p in params}
    monkeypatch.setattr(wei, "N_MIN", 2048)
    worst = 0.0
    for p in params:
        ref = ProductEvaluator(*p)
        assert ref.cutoff(1, 30.0) == 2048
        for m, v in zip(ms, got[p]):
            worst = max(worst, float(np.max(np.abs(v - ref.log_eval(m, z)))))
    print(f"cutoff floor 512 -> 2048: max |delta log P| {worst:.2e}")
    assert worst <= 1e-10


def _mp_tail_split(z, e, a2, t0, kink):
    """sum over t >= t0 of the paired log term in working precision, by
    Euler-Maclaurin summation (mpmath.sumem) around an integral split at
    `kink`, where the term's decay changes: Gauss-Legendre in log t below
    it, and above it, where the term decays like t^-a2, the substitution
    t = kink s^-k, k = 1/(a2 - 1), which makes the integrand smooth on
    (0, 1] (k = 2 at alpha 3/4, as in `_mp_tail`)."""
    def term(t):
        b = e * t ** a2
        return mp.log(((b + 1j * z) ** 2 + t ** 2) / (b ** 2 + t ** 2))

    k = 1 / (a2 - 1)
    below = mp.quad(lambda u: term(mp.exp(u)) * mp.exp(u), [mp.log(t0), mp.log(kink)],
                    method="gauss-legendre")
    above = mp.quad(lambda s: term(kink / s ** k) * k * kink / s ** (k + 1), [0, 1],
                    method="gauss-legendre")
    return mp.sumem(term, [t0, mp.inf], integral=below + above)


def _tail_error(eps: float, alpha: float, x: float) -> float:
    """|error| of log F's tail from the direct cutoff N_MIN at real x against
    a 40-digit reference split at the kink eps^{-1/(2a-1)}."""
    n_cut = wei.N_MIN
    got = complex(wei._tail(n_cut + 0.5, np.array([x], dtype=complex), eps, alpha)[0])
    with mp.workdps(40):
        e, a2 = mp.mpf(eps), 2 * mp.mpf(alpha)
        kink = e ** (-1 / (a2 - 1))
        ref = _mp_tail_split(mp.mpf(x), e, a2, n_cut + 1, kink)
        err = float(abs(mp.mpc(got.real, got.imag) - ref))
    print(f"product tail from N = {n_cut} at x = {x:g}, eps {eps:g}, alpha {alpha}: "
          f"error {err:.2e} vs 40-digit mpmath")
    return err


def test_tail_at_small_eps_against_mpmath():
    # at eps 1e-3, alpha 0.75 the paired term decays like t^-1/2 up to the
    # kink t = eps^{-1/(2a-1)} = 1e6 and like t^-3/2 beyond it, and one power
    # substitution cannot flatten both: it read 3.28e-9 at x = 150 before
    # the tail integral was split at the kink, 2.3e-11 after; the bound is
    # 10x that
    assert _tail_error(1e-3, 0.75, 150.0) <= 2.3e-10


def test_tail_split_at_the_kink_against_mpmath():
    # eps 0.1, alpha 0.6: kink at 1e5, past the cutoff 512.5, so the split
    # runs at the benchmark's eps too (measured 2.1e-11; the bound is 10x)
    assert _tail_error(0.1, 0.6, 150.0) <= 2.1e-10


@given(m=st.integers(1, 12), x=st.floats(-40.0, 40.0), y=st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_mirror_conjugation_identity(m, x, y):
    # conjugating the eigenvalue lattice maps P_m(z) to P_{-m}: the exact
    # relation is P_{-m}(-z) = conj(P_m(conj z))
    ev = ProductEvaluator(0.1, 0.25)
    z = complex(x, y)
    lhs = complex(np.exp(ev.log_eval(-m, -z))[0])
    rhs = complex(np.exp(ev.log_eval(m, np.conjugate(z)))[0]).conjugate()
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# growth bound and envelope fit
# ---------------------------------------------------------------------------

def test_growth_bound_frozen_constants():
    ev = ProductEvaluator(0.1, 0.25)
    rows, c_hat = growth_bound_check(64, ev)
    q = {m: qm for m, qm, _ in rows}
    assert c_hat == 0.0                      # clamped: no growth at low alpha
    assert q[1] == pytest.approx(1.0300, abs=2e-4)
    assert q[64] == pytest.approx(1.0757, abs=2e-4)

    ev = ProductEvaluator(0.1, 0.75)
    rows, c_hat = growth_bound_check(64, ev)
    q = {m: qm for m, qm, _ in rows}
    assert c_hat == pytest.approx(2.6475, abs=2e-4)
    assert q[1] == pytest.approx(1.6196, abs=2e-4)
    assert math.log10(q[64]) == pytest.approx(48.5, abs=0.1)


def test_growth_bound_holdout():
    for eps in (0.1, 0.5):
        for alpha in (0.25, 0.75):
            ev = ProductEvaluator(eps, alpha)
            rows, c_hat = growth_bound_check(64, ev)
            assert c_hat >= 0.0
            for m, qm, bound in rows:
                if m > 32:
                    assert qm <= bound


def test_envelope_fit_orders():
    # with c_hat = max(1, max |P_4| where phi <= 1), omega_hat makes
    # c_hat exp(omega_hat (phi + |Re lambda_4|)) a bound on the grid that is
    # attained at one point
    x = np.linspace(0.05, 400.0, 1500)
    for alpha, lo, hi in ((0.25, 0.0, 0.8),        # low alpha: nearly bounded
                          (0.75, 0.5, 3.2)):       # high alpha: genuine growth
        ev = ProductEvaluator(0.1, alpha)
        omega_hat = envelope_fit(4, x, ev)
        assert lo <= omega_hat <= hi
        logp = ev.log_eval(4, x.astype(complex)).real
        wgt = phi_eps(x, 0.1, alpha)
        log_c = max(0.0, float(np.max(logp[wgt <= 1.0])))
        rl = abs(complex(lambda_conj_vals(4, 0.1, alpha)).real)
        excess = logp - log_c - omega_hat * (wgt + rl)
        assert np.all(excess <= 1e-9)
        assert np.max(excess) >= -1e-9
