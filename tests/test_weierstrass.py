import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_work, pair_log, product_eps0
from viscowave import biorthogonal as bio
from viscowave import core
from viscowave import weierstrass as wei
from viscowave.core import ConfigError
from viscowave.spectrum import lambda_conj_vals, phi_eps
from viscowave.weierstrass import (ProductEvaluator, envelope_fit, growth_bound_check,
                                   interpolation_check)


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
    # modulo 2 pi i, since only its exponential is ever used.
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
            got = pair_log(t_arg, z_arg, eps, alpha)
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


def _pair_log_complex(t, z, eps, alpha, out, imag=True):
    """The paired log term in complex arithmetic: w = iz (2b + iz) / den by
    numpy's complex multiply and divide, then log(1+w) in core.log1p_c's
    closed form from the complex w, and near a zero (|1+w| < 1/4) the sum
    of the two linear factors' complex logs less log den.  Takes and fills
    `_pair_log`'s work arrays like it."""
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
    out[0][...] = res.real
    if imag:
        out[1][...] = res.imag
    return out[0], out[1]


FIT_GRID = np.linspace(0.0, bio.OMEGA_FIT_HALF_WIDTH, 3000)  # resolve_omega's grid
FFT_HALF_GRID = 300.0 / 8192 * np.arange(4097)  # |x| = j dx, n 8192, half-width 150


# |log F - log F_complex| <= this x max(|log F|, 1) on both grids: 10x the
# worst measured (4.1e-16, the FFT half-grid at alpha 0.75)
_COMPLEX_FORMULA_BOUND = 4e-15


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_real_axis_pass_is_blocking_invariant(monkeypatch, alpha):
    # the real-axis pass summed in budgeted row ranges is, bit for bit, the
    # same pass summed over every point in one block: on the envelope fit's
    # 3000-point grid and on the n/2 + 1 points j dx of an FFT grid (n 8192,
    # half-width 150).  Both are panel passes: 25 panels of 120 points and 10
    # of 409-410, whose 600 and 240 Chebyshev nodes are summed point by point
    # in one `core.direct_sums` call each, in 13 and 3 row ranges (268,416
    # and 49,632 paired terms), and whose bands of 31 and 30 pairs (23 and 22
    # at the origin) form 110,448 and 126,638 at the nodes and points, from
    # their linear factors (`_band_sum`).  One block's rows run to the
    # largest cutoff, so it forms more terms (489,600 + 72,960), but each
    # point reads its own direct sum at its own cutoff.  No kernel call sees
    # more than core.BLOCK_TERMS entries.  Both passes send every direct term
    # at the nodes through `_pair_log`.  s = |1+w|^2 - 1 by factorization is
    # not the complex formula's rounding: the two agree to
    # _COMPLEX_FORMULA_BOUND
    grids = (FIT_GRID, FFT_HALF_GRID)
    work = count_work(monkeypatch)
    got = [ProductEvaluator(0.1, alpha).log_generating(x) for x in grids]
    calls = [c for s in work.sums for c in s.calls]
    assert max((c.hi - c.lo) * len(c.z) for c in calls) <= core.BLOCK_TERMS
    assert [p.terms for p in work.passes] == [268_416, 49_632]
    assert [p.bands for p in work.passes] == [110_448, 126_638]
    assert [(s.points, len(s.calls)) for s in work.sums] == [(600, 13), (240, 3)]
    assert len(work.bands) == 25 + 10
    monkeypatch.setattr(core, "BLOCK_TERMS", 10 ** 9)
    one = count_work(monkeypatch)
    for x, g in zip(grids, got):
        assert np.array_equal(g, ProductEvaluator(0.1, alpha).log_generating(x))
    assert [p.terms for p in one.passes] == [489_600, 72_960]
    assert [p.bands for p in one.passes] == [110_448, 126_638]
    assert [(s.points, len(s.calls)) for s in one.sums] == [(600, 1), (240, 1)]
    monkeypatch.setattr(wei, "_pair_log", _pair_log_complex)
    for x, g in zip(grids, got):
        ref = ProductEvaluator(0.1, alpha).log_generating(x)
        err = float(np.max(np.abs(g - ref) / np.maximum(np.abs(ref), 1.0)))
        print(f"alpha={alpha}, {len(x)} points: {err:.2e} off the complex formula")
        assert err <= _COMPLEX_FORMULA_BOUND


def _point_pass(x, eps, alpha, imag=True):
    """log F at the sorted distinct real points x >= 0 summed point by point
    (`_pair_sum`), as every pass was before the panel layer, by a new
    evaluator: its lattice table is the panel pass's when x holds the
    largest point."""
    return ProductEvaluator(eps, alpha)._pair_sum(x.astype(complex), ProductEvaluator._cuts(x),
                                                  imag=imag)


WIDE_GRID = np.linspace(0.0, 1000.0, 16385)
# points 1e-9 and 1e-3 either side of Re node_n = n, n = 7 and 100, added to
# the FFT half-grid: its panels are unchanged, and each of these points
# sums the pair n, next to its zero, in its panel's band
NEAR_NODES = np.array([n + d for n in (7.0, 100.0) for d in (-1e-3, -1e-9, 1e-9, 1e-3)])
NEAR_GRID = np.union1d(FFT_HALF_GRID, NEAR_NODES)
# |log F_panel - log F_point| <= this x max(1, |log F|): 10x the worst
# measured (2.8e-14, the FFT half-grid at alpha 0.55, where the phase of
# log F reaches 1e4), well inside 1e-12
_PANEL_BOUND = 3e-13


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.45, 0.55, 0.75, 0.95])
def test_panel_pass_matches_point_pass(alpha):
    # the panel pass against the pass that sums every point point by point,
    # on the fit grid, the FFT half-grid (also with NEAR_NODES, 1e-9 and
    # 1e-3 from a zero's real part) and 16,385 points on [0, 1000], eps from
    # the undamped limit to 0.5; point by point at every 5th point (every
    # 23rd on the wide grid), the near points and the last, whose cutoff
    # sets the table.  At eps = 0 F vanishes at the integers: both passes
    # give -inf there (x = 400 on the fit grid, 75 and 150 on the FFT
    # half-grid, 125 j on the wide one) and finite values elsewhere
    worst = 0.0
    for eps in (0.0, 1e-5, 1e-3, 0.1, 0.5):
        for x, step in ((FIT_GRID, 5), (FFT_HALF_GRID, 5), (NEAR_GRID, 5), (WIDE_GRID, 23)):
            got = ProductEvaluator(eps, alpha).log_generating(x)
            pick = np.union1d(np.arange(0, len(x), step), np.flatnonzero(x == np.round(x)))
            pick = np.union1d(pick, np.flatnonzero(np.isin(x, NEAR_NODES)))
            pick = np.union1d(pick, [len(x) - 1])
            ref = _point_pass(x[pick], eps, alpha)
            zero = np.isinf(ref.real)
            assert np.array_equal(np.isinf(got.real), np.isin(np.arange(len(x)), pick[zero]))
            assert np.all(got.real[pick[zero]] == -np.inf) and np.all(np.isfinite(got.imag))
            assert zero.any() == (eps == 0.0)
            g, r = got[pick[~zero]], ref[~zero]
            worst = max(worst, float(np.max(np.abs(g - r) / np.maximum(np.abs(r), 1.0))))
    print(f"alpha {alpha}: panel pass within {worst:.2e} of max(1, |log F|) point by point")
    assert worst <= _PANEL_BOUND


# about 10x the worst measured: 1.2e-15 at the grid points (1.0e-15 with
# the band through `_pair_log`), 7.0e-16 next to the zeros
_PANEL_MP_BOUND = 1e-14


def test_panel_pass_matches_mpmath():
    # points of the fit grid's and the FFT half-grid's panel passes (first,
    # middle and last, each at its own place in its panel) against a
    # 40-digit reference, the pairs up to _MP_DIRECT multiplied out and the
    # sum past them (`_mp_tail`), modulo 2 pi i, relative to max(1, |log F|)
    # on the pass's branch: at x = 400, alpha 1/4, the phase of log F is
    # about 1257 and its principal value 5.0.  Then the band next to the
    # zeros: the pass over NEAR_GRID at NEAR_NODES, eps 0 to 0.5, alpha 0.1
    # to 0.95, against the 40-digit pairs up to each point's own cutoff K
    # plus the lattice-table series past K, which the pass adds at the same
    # point (its table entries and series are pinned to mpmath by
    # test_lattice_sums_against_mpmath), and at eps = 0 against
    # log(sin(pi x) / (pi x))
    eps, worst, near_worst = 0.1, 0.0, 0.0

    def off(g, ref):
        d = mp.mpc(g.real, g.imag) - ref
        d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
        return float(abs(d)) / max(1.0, abs(g))

    with mp.workdps(40):
        e = mp.mpf(eps)
        for alpha in (0.25, 0.75):
            a2 = 2 * mp.mpf(alpha)
            for x, js in ((FIT_GRID, (1, 1234, 2999)), (FFT_HALF_GRID, (2, 2047, 4096))):
                got = ProductEvaluator(eps, alpha).log_generating(x)
                for j in js:
                    z = mp.mpf(x[j])
                    prod = mp.mpf(1)
                    for n in range(1, _MP_DIRECT + 1):
                        b = e * mp.mpf(n) ** a2
                        prod *= ((b + 1j * z) ** 2 + n ** 2) / (b ** 2 + n ** 2)
                    ref = mp.log(prod) + _mp_tail(z, e, a2)
                    worst = max(worst, off(got[j], ref))
        near = np.flatnonzero(np.isin(NEAR_GRID, NEAR_NODES))
        x = NEAR_GRID[near]
        cuts = ProductEvaluator._cuts(x)
        for eps in (0.0, 1e-3, 0.1, 0.5):
            for alpha in (0.1, 0.25, 0.45, 0.55, 0.75, 0.95) if eps else (0.25,):
                ev = ProductEvaluator(eps, alpha)
                got = ev.log_generating(NEAR_GRID)[near]
                series = wei._series(x + 0j, cuts // wei.STRIDE, ev._lattice(int(cuts[-1])), True)
                e, a2 = mp.mpf(eps), 2 * mp.mpf(alpha)
                bs = [e * mp.mpf(n) ** a2 for n in range(int(cuts[-1]) + 1)]
                for g, xv, k, ser in zip(got, x, cuts, series):
                    z = mp.mpf(xv)
                    if eps == 0.0:
                        ref = mp.log(mp.sin(mp.pi * z) / (mp.pi * z))
                    else:
                        prod = mp.mpf(1)
                        for n in range(1, int(k) + 1):
                            prod *= ((bs[n] + 1j * z) ** 2 + n * n) / (bs[n] ** 2 + n * n)
                        ref = mp.log(prod) + mp.mpc(ser.real, ser.imag)
                    near_worst = max(near_worst, off(g, ref))
    print(f"panel passes: {worst:.2e} of max(1, |log F|) off 40-digit mpmath, "
          f"{near_worst:.2e} next to the zeros")
    assert max(worst, near_worst) <= _PANEL_MP_BOUND


def test_panel_nodes_on_a_point_or_an_integer(monkeypatch):
    # a point on a Chebyshev node reads that node's value; a panel with a
    # node on an integer, where F vanishes at eps = 0, is summed point by
    # point: a centre node 8 (the 25th of 49, set to 0 on [-1, 1]) on the
    # 401 points of [0, 16] gives the point-by-point pass bit for bit
    assert np.array_equal(wei._barycentric(wei._CHEB[[3, 0]]), np.eye(wei._PANEL_NODES)[[3, 0]])
    x = np.linspace(0.0, 16.0, 401)
    cheb = np.cos((2.0 * np.arange(49) + 1.0) * np.pi / 98)[::-1]
    cheb[24] = 0.0
    weights = ((-1.0) ** np.arange(49) * np.sin((2.0 * np.arange(49) + 1.0) * np.pi / 98))[::-1]
    for name, value in (("_PANEL_NODES", 49), ("_CHEB", cheb), ("_CHEB_W", weights)):
        monkeypatch.setattr(wei, name, value)
    for eps in (0.0, 0.1):
        assert np.array_equal(ProductEvaluator(eps, 0.25).log_generating(x),
                              _point_pass(x, eps, 0.25))


def _mp_pair_log(t, z, b):
    """log(((b + iz)^2 + t^2) / (b^2 + t^2)) in working precision from the
    double inputs."""
    t_mp, b_mp = mp.mpf(t), mp.mpf(b)
    z_mp = mp.mpc(complex(z).real, complex(z).imag)
    return mp.log(((b_mp + 1j * z_mp) ** 2 + t_mp ** 2) / (b_mp ** 2 + t_mp ** 2))


def _worst_vs_mp(t, z, eps, alpha) -> float:
    """Largest relative error of `_pair_log(t, z)`, t and z broadcast, against
    40-digit mpmath, modulo 2 pi i."""
    got = pair_log(t, z, eps, alpha)
    t_b, z_b = (np.broadcast_to(a, got.shape) for a in (t, z))
    worst = 0.0
    with mp.workdps(40):
        for tv, zv, g in zip(t_b.ravel(), z_b.ravel(), got.ravel()):
            ref = _mp_pair_log(tv, zv, eps * tv ** (2.0 * alpha))
            d = mp.mpc(g.real, g.imag) - ref
            d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
            worst = max(worst, float(abs(d) / (abs(ref) or 1)))
    return worst


# set for a near branch that summed three logs, the largest log(den) <=
# 2 log(801) = 13.4, so a few of its ulps (1.8e-15) over the smallest near
# |log(1+w)|, log 4: 4e-15; the one log of `_factor_logs` measures 1.5e-16
# (near, FFT half-grid, alpha 1/4)
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
        ts = np.arange(1.0, ProductEvaluator._cuts(x[-1]) + 1.0)
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
        got = pair_log(t, z[None, :], 0.1, alpha)
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
    scalar = pair_log(t0, z, eps, alpha)
    block = pair_log(np.array([[t0, 3.0]]).T, z[None, :], eps, alpha)
    assert np.array_equal(scalar, block[0])
    assert np.array_equal(pair_log(t0, z[1], eps, alpha), scalar[1:2])
    ts = np.array([t0, 3.0, t0, 40.0])
    zs = np.array([t0 + 1e-3, 3.0, t0 + 1j * b0 + 1e-9, 39.9])
    diagonal = pair_log(ts, zs, eps, alpha)
    outer = pair_log(ts[:, None], zs[None, :], eps, alpha)
    assert np.array_equal(diagonal, np.diagonal(outer))
    near = np.abs(1.0 + 1j * z * (2.0 * b0 + 1j * z) / (b0 * b0 + t0 * t0)) < 0.25
    assert near.sum() >= 3
    assert _worst_vs_mp(t0, z, eps, alpha) <= 2e-15
    assert _worst_vs_mp(ts, zs, eps, alpha) <= 2e-15


@pytest.mark.parametrize("alpha", [0.25, 0.55, 0.75])
def test_modulus_pass_is_bitwise_the_real_part(alpha):
    # log|F| from the pass without imaginary parts is the real part of the
    # full log F pass bit for bit, on the fit grid and the FFT half-grid
    # (panel passes, at eps = 0 with -inf at the zeros 75 and 150), on a
    # grid whose dense panels sit next to points summed point by point, and
    # on each of that grid's two parts alone
    mixed = np.concatenate([np.linspace(0.0, 40.0, 500), [57.5, 100.0, 200.25, 300.0]])
    for eps, x in ((0.1, FIT_GRID), (0.1, FFT_HALF_GRID), (0.0, FFT_HALF_GRID),
                   (0.1, mixed), (0.1, mixed[:500]), (0.1, mixed[500:])):
        ev = ProductEvaluator(eps, alpha)
        full = ev.log_generating(x)
        modulus = ev.log_abs_generating(x)
        assert modulus.dtype == float
        assert np.array_equal(modulus, full.real)
        assert np.isinf(modulus).sum() == (2 if eps == 0.0 else 0)
    got, ref = ProductEvaluator(0.1, alpha).log_generating(mixed), _point_pass(mixed, 0.1, alpha)
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= _PANEL_BOUND
    # folded and one-point passes too: |F(-conj z)| = |F(z)|, and a one-point
    # pass sums its one column as every pass does
    z = np.array([-3.0 + 0.2j, 2.0, 5.0 - 1.0j, -7.5])
    assert np.array_equal(ev.log_abs_generating(z), ev.log_generating(z).real)
    for x in (150.0, 3000.0):  # a table end of 4096, and of 36,096
        assert np.array_equal(ev.log_abs_generating(x), ev.log_generating(x).real)
    assert np.all(np.isfinite(ev.log_generating(np.array([3000.0, -2999.5 + 1j]))))


def test_pass_allocates_work_arrays_once(monkeypatch):
    # a 3000-point panel pass on [0, 400] sums its 600 Chebyshev nodes point
    # by point in one `core.direct_sums` call, in 13 row ranges that end at
    # 112, 128, ..., 816 as the points with smaller cutoffs drop out, all on
    # the four work arrays of core.BLOCK_TERMS the call allocates; the bands
    # of its 25 panels take none (`_band_sum`); so in the full pass and in
    # the modulus pass alike, and the series forms no paired term
    work = count_work(monkeypatch)
    ev = ProductEvaluator(0.1, 0.25)
    ev.log_generating(FIT_GRID)
    ev.log_abs_generating(FIT_GRID)
    assert [s.points for s in work.sums] == [600, 600]
    for s in work.sums:
        assert [c.lo for c in s.calls] == [0] + [c.hi for c in s.calls[:-1]]
        assert s.calls[-1].hi == 816 and len(s.calls) == 13
        arrays = s.calls[0].work
        assert len(arrays) == 4 and all(size == core.BLOCK_TERMS for _, size in arrays)
        assert all(c.work == arrays for c in s.calls)


# ---------------------------------------------------------------------------
# full product against a 40-digit reference
# ---------------------------------------------------------------------------

_MP_DIRECT = 801  # pairs summed directly: past 2|z| at every point below


def _mp_tail(z, e, a2):
    """sum over t > _MP_DIRECT of log(((b + iz)^2 + t^2) / (b^2 + t^2)) =
    log1p(iz (2b + iz) / (b^2 + t^2)), b = e t^a2, by `_mp_lattice_sum`."""
    def term(t):
        b = e * t ** a2
        return mp.log1p(1j * z * (2 * b + 1j * z) / (b ** 2 + t ** 2))

    return _mp_lattice_sum(term, _MP_DIRECT + 1, e, a2)


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


def test_log_scale_on_block_edge():
    # C_m is node_m's direct sum without the pair |n| = m, whose row is
    # zeroed in the block that holds it: a one-point sum is one block up to
    # its cutoff (512-528 at alpha 1/4, 976 at 3/4), and m = 255, 256 and
    # 257 are the second to last and last row of the 16th stride and the
    # first of the 17th.  The constant log
    # conj(lambda_m) - C_m against the reference of
    # test_product_matches_mpmath, modulo 2 pi i, within its complex-point
    # bound (worst measured 2.7e-13): G_m(node_m) over pairs up to
    # _MP_DIRECT and the lone partner -m multiplied out, the pairs beyond
    # by `_mp_tail`
    eps, worst = 0.1, 0.0
    with mp.workdps(40):
        e = mp.mpf(eps)
        for alpha in (0.25, 0.75):
            a2 = 2 * mp.mpf(alpha)
            bs = [e * mp.mpf(n) ** a2 for n in range(_MP_DIRECT + 1)]
            ev = ProductEvaluator(eps, alpha)
            for m in (255, 256, 257):
                lm, lone = bs[m] - 1j * m, bs[m] + 1j * m
                g = (lone - lm) / lone
                for n in range(1, _MP_DIRECT + 1):
                    if n != m:
                        g *= ((bs[n] - lm) ** 2 + n ** 2) / (bs[n] ** 2 + n ** 2)
                ref = mp.log(lm) - mp.log(g) - _mp_tail(1j * lm, e, a2)
                got = ev._log_scale(m)
                d = mp.mpc(got.real, got.imag) - ref
                d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
                err = float(abs(d))
                print(f"alpha={alpha} m={m} cutoff {ev.cutoff(m, 0.0)}: error {err:.2e}")
                worst = max(worst, err)
    assert worst <= _MP_BOUNDS["complex"]


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
    # each point sums its pairs directly up to the smallest multiple of 16 at
    # or above 2|z| + 1; C_m's one-point sum at node_m up to that of |node_m|
    ev = ProductEvaluator(0.1, 0.25)
    assert ev.cutoff(1, 0.0) == 16                     # |node_1| = 1.005
    assert ev.cutoff(1, 10.0) == 32                    # 21 rounded up
    assert ev.cutoff(1, 7.5) == 16                     # 16 itself
    assert ev.cutoff(1, 5000.0) == 10016               # 10001 rounded up
    assert ev.cutoff(40, 0.0) == 96                    # |node_40| = 40.5
    assert list(ProductEvaluator._cuts(np.array([0.0, 7.5, 7.6, 150.0]))) == [16, 16, 32, 304]


def test_cutoff_refinement_moves_little(monkeypatch):
    # more direct pairs (ratio 2 -> 3 in K >= ratio |z| + 1) and a later
    # table end (4096 -> 16384, so the quadrature past it starts 4x further
    # out) trade series and tail terms for direct sums.  log P_m moves by at
    # most 1e-12 on |z| <= 30 (3.4e-13 and 5.7e-13 measured); at x = 390 its
    # phase reaches 1.1e4 at alpha 0.55 (P_1(K) ~ -28i there: Im 1/node_n
    # decays like n^-0.9 up to the kink at 1e10), so there the move is
    # bounded relative to max(1, |log P_m|) (1.8e-15 and 3.6e-15 measured)
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.uniform(-30, 30, 25) + 1j * rng.uniform(-3, 3, 25),
                        [150.0, 390.0, -255.0 + 0.5j]])
    params, ms = [(0.1, 0.25), (0.1, 0.55), (0.1, 0.75)], (1, 2, 7)
    got = {p: [ProductEvaluator(*p).log_eval(m, z) for m in ms] for p in params}
    for name, value in (("_RATIO", 3.0), ("_TABLE_END", 16384)):
        with monkeypatch.context() as patch:
            patch.setattr(wei, name, value)
            near, scaled = 0.0, 0.0
            for p in params:
                ref = ProductEvaluator(*p)
                for m, v in zip(ms, got[p]):
                    d = np.abs(ref.log_eval(m, z) - v)
                    near = max(near, float(np.max(d[:25])))
                    scaled = max(scaled, float(np.max(d / np.maximum(np.abs(v), 1.0))))
            print(f"{name} -> {value}: max |delta log P| {near:.2e} on |z| <= 30, "
                  f"{scaled:.2e} relative to max(1, |log P|)")
            assert near <= 1e-12 and scaled <= 1e-14


def _mp_lattice_sum(f, t0, e, a2):
    """sum over n >= t0 of f(n) in working precision, by Euler-Maclaurin
    summation (mpmath.sumem, the routine behind nsum's euler-maclaurin
    method, run once instead of nsum's repeated tries) around an integral
    split at the kink eps^{-1/(2a-1)} above alpha = 1/2 when it lies past
    t0: Gauss-Legendre in log t below it, and past it over the substitution
    t = t1 s^-k on (0, 1].  k = N/(p-1) for the t^-p decay of the lattice's
    slowest terms (p = 2 - 2a below alpha 1/2, 2a above), N the smallest
    integer with k >= 4: every term of f, whose decays are t^-p times powers
    of t^-(p-1) and t^-1, becomes s^g times a power series in s^N with g >=
    N - 1 or g >= 3, smooth enough for Gauss-Legendre (k = 1/(p-1) leaves
    s^(1/4) at alpha 0.1).  The log t integral is split in 4 equal pieces
    and the s-integral at 1/4 and 1/2, so that Gauss-Legendre converges at
    low degree on each piece (tanh-sinh would sample s so close to 0 that a
    difference of conjugate powers in f loses its digits); a log term of f
    is log1p(w), which keeps a tiny w far out."""
    p = 2 - a2 if a2 < 1 else a2
    t1, below = mp.mpf(t0), 0
    if a2 > 1 and e ** (-1 / (a2 - 1)) > t0:
        t1 = e ** (-1 / (a2 - 1))
        below = mp.quad(lambda u: f(mp.exp(u)) * mp.exp(u),
                        mp.linspace(mp.log(t0), mp.log(t1), 5), method="gauss-legendre")
    k = 1 / (p - 1)
    k *= max(1, mp.ceil(4 / k))
    above = mp.quad(lambda s: f(t1 / s ** k) * k * t1 / s ** (k + 1),
                    [0, mp.mpf(1) / 4, mp.mpf(1) / 2, 1],
                    method="gauss-legendre")
    return mp.sumem(f, [t0, mp.inf], integral=below + above)


# 10x the worst measured.  Table entries, relative: 2.0e-15 (eps 0.1,
# alpha 0.75; 1.6e-14 with numpy's leggauss weights).  The series at
# x = 150, relative to its modulus: 6.3e-16 at eps 1e-3, alpha 0.75, where
# it is -76.7 + 933.0i and 3 ulps of P_1 make 5.9e-13 absolute (the tail
# quadrature it replaces read 2.3e-11 there, and 2.1e-11 at eps 0.1,
# alpha 0.6).  The complex table reads 1.7e-15 and 4.9e-16, both at eps
# 0.1, alpha 0.75.
_TABLE_BOUNDS = {"entry": 2.0e-14, "series": 6.3e-15}


@pytest.mark.parametrize("eps, alpha", [(0.1, 0.1), (0.1, 0.25), (0.1, 0.3), (0.1, 0.55),
                                        (0.1, 0.75), (1e-3, 0.75)])
def test_lattice_sums_against_mpmath(eps, alpha):
    # the table P_k(K)/k, P_k(K) = sum_{n>K} node_n^-k + (-1)^k conj(node_n)^-k,
    # real for even k and imaginary for odd k, as the table stores it, at the
    # cutoff K = 304 of x = 150, and the quadrature past the table's end 4096
    # that it starts from, k = 1..3, and the series -sum_k x^k P_k(K)/k,
    # against the pairs past K summed in 40 digits.  The kink
    # eps^{-1/(2a-1)} lies at 1e10 (alpha 0.55) and 1e6 (eps 1e-3, alpha
    # 0.75), past the table's end, so the sum past the end is split there; at
    # alpha 0.75, eps 0.1 it is 100
    x = 150.0
    ev = ProductEvaluator(eps, alpha)
    k_cut = int(ev._cuts(x))
    tab = ev._lattice(k_cut)
    end = 4 * (tab.shape[1] - 1) * wei.STRIDE  # the table keeps K <= end/4
    assert (k_cut, end) == (304, 4096)
    ks = np.arange(1, wei.SERIES_TERMS + 1)
    past_end = 2.0 * wei._lattice_tail(end, eps, alpha) / ks * np.where(ks % 2, 1j, 1.0)
    assert tab.dtype == complex and not tab.real[::2].any() and not tab.imag[1::2].any()
    got = complex(wei._series(np.array([x + 0j]), np.array([k_cut // wei.STRIDE]), tab,
                              True)[0])
    worst = 0.0
    with mp.workdps(40):
        e, a2 = mp.mpf(eps), 2 * mp.mpf(alpha)
        for c, entries in ((k_cut, tab[:, k_cut // wei.STRIDE]), (end, past_end)):
            for k in (1, 2, 3):
                def g(t, k=k):
                    node = t + 1j * e * t ** a2
                    return node ** -k + (-1) ** k * mp.conj(node) ** -k
                ref = _mp_lattice_sum(g, c + 1, e, a2) / k
                got_k = mp.mpc(entries[k - 1].real, entries[k - 1].imag)
                worst = max(worst, float(abs(got_k - ref) / abs(ref)))

        def term(t):
            b = e * t ** a2
            return mp.log1p(1j * x * (2 * b + 1j * x) / (b ** 2 + t ** 2))

        ref = _mp_lattice_sum(term, k_cut + 1, e, a2)
        err = float(abs(mp.mpc(got.real, got.imag) - ref) / abs(ref))
    print(f"eps {eps:g}, alpha {alpha}: table entries {worst:.2e}, series at x = {x:g} "
          f"{err:.2e}, relative to 40-digit mpmath")
    assert worst <= _TABLE_BOUNDS["entry"]
    assert err <= _TABLE_BOUNDS["series"]


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
