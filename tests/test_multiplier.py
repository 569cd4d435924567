import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_work
from viscowave.core import STRIDE, ConfigError
from viscowave.multiplier import (_RATIO, _SER_C, _SER_J,
                                  MultiplierEvaluator, _power_range_sum,
                                  multiplier_property_check, node_power_sum)
from viscowave.spectrum import (E, gamma_eps, lambda_vals, node_start, phi_eps,
                                phi_eps_inverse)


def test_power_sum_matches_direct():
    # direct partial sum plus an integral bracket for its own tail; the
    # bracket is tight enough (width ~1/N) to pin the closed form
    for eps, alpha in [(0.1, 0.25), (0.1, 0.75), (0.5, 0.75)]:
        for power in (1.0, 2.0, 4.0):
            k = 20
            big = 3_000_000
            ns = np.arange(k + 1, big + 1, dtype=float)
            direct = float(np.sum((phi_eps_inverse(ns, eps, alpha) / E) ** (-power)))
            if alpha < 0.5:
                s = power / (2.0 * alpha)
                c = E ** power * eps ** s
            else:
                s = 2.0 * alpha * power
                c = (E / eps) ** power
            lo = c * (big + 1.0) ** (1.0 - s) / (s - 1.0)
            hi = c * float(big) ** (1.0 - s) / (s - 1.0)
            closed = node_power_sum(k, eps, alpha, power)
            assert direct + lo <= closed * (1 + 1e-12)
            assert closed <= (direct + hi) * (1 + 1e-9)


def test_power_sum_just_above_half_alpha():
    # gamma_eps = inf at alpha = 0.5000001, eps = 0.1, so every node is on the
    # inner branch; the same direct sum and integral bracket pin the closed form
    eps, alpha, k, big = 0.1, 0.5000001, 20, 3_000_000
    ns = np.arange(k + 1, big + 1, dtype=float)
    for power in (2.0, 4.0):
        direct = float(np.sum((phi_eps_inverse(ns, eps, alpha) / E) ** (-power)))
        s = power / (2.0 * alpha)
        c = E ** power * eps ** s
        closed = node_power_sum(k, eps, alpha, power)
        assert direct + c * (big + 1.0) ** (1.0 - s) / (s - 1.0) <= closed * (1 + 1e-12)
        assert closed <= (direct + c * float(big) ** (1.0 - s) / (s - 1.0)) * (1 + 1e-9)
    # p = 1 has s < 1, so the sum over all n diverges when gamma_eps is inf
    with pytest.raises(ConfigError, match="gamma_eps"):
        node_power_sum(k, eps, alpha, 1.0)


def test_power_sum_below_branch_point_matches_mpmath():
    # below gamma_eps the sum is E^p eps^s (zeta(s, k+1) - zeta(s, ng+1)) with
    # s = p/2a, which mpmath continues to s < 1; past it, a zeta of order 2ap.
    # Covers ranges of 1e3 to 1e10 terms, the p = 1 type sum included
    mp.mp.dps = 40
    worst = 0.0
    for eps, alpha in [(0.1, 0.51), (0.1, 0.55), (0.1, 0.75), (5e-4, 0.75),
                       (0.01, 0.9), (0.5, 0.75)]:
        ng = mp.mpf(np.floor(gamma_eps(eps, alpha)))
        for power in (1.0, 2.0, 4.0):
            for k in (0, 20, 500):
                s = power / (2 * mp.mpf(alpha))
                outer = (mp.e / eps) ** power * mp.zeta(2 * mp.mpf(alpha) * power,
                                                        max(ng, k) + 1)
                inner = (mp.e ** power * mp.mpf(eps) ** s
                         * (mp.zeta(s, k + 1) - mp.zeta(s, ng + 1)) if k < ng else 0)
                ref = inner + outer
                rel = abs(node_power_sum(k, eps, alpha, power) - ref) / ref
                worst = max(worst, float(rel))
    print(f"node_power_sum vs mpmath: max rel err {worst:.2e}")
    assert worst <= 1e-13


def test_hurwitz_zeta_matches_mpmath():
    # the Hurwitz zeta is _power_range_sum at hi = inf.  Its orders are every
    # s the node sums form, 2 a p past the branch point and p/2a below it,
    # for p = 1 (the type sum) and p = 2j, j <= 18 (the series tail), here
    # at alpha 0.25, 0.55 and 0.75, with lo from 1 to 1e100.  mpmath's own
    # zeta is off by up to 6e-10 at 40 digits, 1.2e-13 at 160 (s 44,
    # lo 12345) and 5e-13 at 180 (s 72, lo 12345), so the reference is taken
    # at 180 digits up to s = 44 and 300 past it, and checked 20 digits up.
    # Only normal floats are compared: zeta(36, 1e9) ~ 3e-317 is subnormal
    # and carries about 7 digits
    powers = [1.0] + [2.0 * j for j in range(1, 19)]
    orders = sorted({2 * a * p if a > 0.5 else p / (2 * a)
                     for a in (0.25, 0.55, 0.75) for p in powers})
    assert orders[0] > 1.0 and orders[-1] == 72.0
    tiny = mp.mpf(np.finfo(float).tiny)
    worst = ref_dev = 0.0
    compared = 0
    for s in orders:
        dps = 180 if s <= 44 else 300
        for lo in (1, 2, 33, 1e3, 12345, 1e9, 1e100):
            with mp.workdps(dps):
                ref = mp.zeta(s, lo)
            if ref < tiny:
                continue
            with mp.workdps(dps + 20):
                ref_dev = max(ref_dev, float(abs(mp.zeta(s, lo) / ref - 1)))
                own = _power_range_sum(s, lo, np.inf)
                worst = max(worst, float(abs(own / ref - 1)))
            compared += 1
    print(f"Hurwitz zeta vs mpmath over {compared} points: max rel err {worst:.1e}, "
          f"reference vs 20 more digits {ref_dev:.1e}")
    assert ref_dev <= 1e-18
    assert worst <= 1e-14
    # zeta(s, inf) = 0 (gamma_eps overflowed); past s <= 1 the sum diverges
    assert _power_range_sum(3.0, np.inf, np.inf) == 0.0
    for s in (0.5, 1.0):
        assert _power_range_sum(s, 5, np.inf) == np.inf


def test_sinc_series_constants_match_mpmath():
    # log sinc w = -sum_j zeta(2j)/(j pi^2j) w^2j, the constants from the
    # module's own zeta against mpmath's Riemann zeta
    with mp.workdps(40):
        ref = np.array([float(mp.zeta(2 * j) / (j * mp.pi ** (2 * j))) for j in _SER_J])
    assert np.max(np.abs(_SER_C / ref - 1.0)) <= 1e-14


def test_power_sums_take_an_array_of_orders():
    # one call over the series orders 2j gives each scalar call's value to
    # an ulp or two (numpy's vector pow), zeros included; the constants
    # C_j come from one such call
    orders = 2.0 * _SER_J
    for eps, alpha, k in ((0.1, 0.25, 0), (0.1, 0.75, 5), (0.01, 0.75, 56952),
                          (0.5, 0.95, 3), (1e-10, 0.75, 5)):
        got = node_power_sum(k, eps, alpha, orders)
        one = np.array([node_power_sum(k, eps, alpha, p) for p in orders])
        assert got.shape == orders.shape and np.array_equal(got == 0.0, one == 0.0)
        assert np.allclose(got, one, rtol=5e-16, atol=0.0)
    got = _power_range_sum(orders, 1, np.inf)
    assert np.array_equal(got, [_power_range_sum(p, 1, np.inf) for p in orders])
    assert np.array_equal(_power_range_sum([0.5, 1.0, 3.0], 5, np.inf) == np.inf,
                          [True, True, False])


def test_power_sum_relative_to_its_first_node():
    # at eps 0.01, alpha 0.75 the nodes past k = 56952 start at a = 5.0e4:
    # S_50 = 8.0e-233 is a double, though (e/eps)^50 = 1e122 and its zeta
    # of order 75 at 56953, 1e-356, are not both; each piece of the closed
    # form is taken relative to its first node, so the sum is kept
    mp.mp.dps = 40
    eps, alpha, k = 0.01, 0.75, 56952
    for power in (2.0, 50.0, 66.0):
        ref = (mp.e / mp.mpf(eps)) ** power * mp.zeta(2 * mp.mpf(alpha) * power, k + 1)
        assert abs(node_power_sum(k, eps, alpha, power) / ref - 1) <= 1e-13


def test_power_sum_requires_nodes():
    with pytest.raises(ConfigError):
        node_power_sum(10, 0.0, 0.25, 2.0)


def test_value_at_origin_and_symmetry():
    ev = MultiplierEvaluator(0.1, 0.25, z_max=50.0)
    assert np.exp(ev.log_eval(1, 0.0 + 0j)) == pytest.approx(1.0, rel=1e-14)
    x = np.array([0.5, 3.7, 24.0], dtype=complex)
    left = np.exp(ev.log_eval(2, -x))
    right = np.exp(ev.log_eval(2, x))
    assert np.allclose(left, right, rtol=1e-13)
    # the FFT-style grid -half + j dx of a family build, against its fold
    # onto |x| = dx |j - n/2|, at alpha = 0.75 where the bulk is heaviest
    half, n = 150.0, 4096
    dx = 2.0 * half / n
    ev = MultiplierEvaluator(0.1, 0.75, z_max=half)
    grid = ev.log_eval(1, -half + dx * np.arange(n) + 0j)
    folded = ev.log_eval(1, dx * np.arange(n // 2 + 1) + 0j)[np.abs(np.arange(n) - n // 2)]
    assert np.max(np.abs(grid.real - folded.real)) <= 1e-12   # |M| down to e^-436
    assert np.max(np.abs(np.exp(grid) - np.exp(folded))) <= 1e-13


@given(x=st.floats(-200.0, 200.0), m=st.integers(1, 8))
@example(x=5e-324, m=2)  # z / a_n underflows to 0: sinc must read 1, not 0/0
@settings(max_examples=60, deadline=None)
def test_unit_modulus_on_real_axis(x, m):
    ev = MultiplierEvaluator(0.1, 0.75, z_max=256.0)
    val = abs(np.exp(ev.log_eval(m, complex(x))))
    assert val <= 1.0 + 1e-12


def test_start_index_agreement():
    ev = MultiplierEvaluator(0.1, 0.75, z_max=30.0)
    start = node_start(4, 0.1, 0.75)
    assert start == 4
    an = ev.nodes[start - 1]
    assert an == float(phi_eps_inverse(float(start), 0.1, 0.75)) / E
    lam = abs(complex(lambda_vals(4, 0.1, 0.75)))
    assert an >= lam * (1 - 1e-12)


def test_series_direct_consistency():
    # a small evaluator leans on the series tail where a large one resolves
    # the same nodes directly; both must agree, off the real axis too
    # (measured at most 3.6e-15)
    z = np.array([0.3, 2.0, 9.5, 4.0 + 1.0j], dtype=complex)
    for eps, alpha in [(0.1, 0.25), (0.1, 0.75)]:
        small = MultiplierEvaluator(eps, alpha, z_max=10.0)
        big = MultiplierEvaluator(eps, alpha, z_max=500.0)
        for m in (1, 2, 3, 5):
            a = small.log_eval(m, z)
            b = big.log_eval(m, z)
            assert np.max(np.abs(a - b)) < 1e-11


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_point_alone_matches_grid(alpha):
    # each point's direct range and tail depend on that point alone, not on
    # the grid around it or on the evaluator's size: the grid value against
    # the point evaluated by itself on a fresh evaluator
    xg = np.logspace(-2, 5, 200)
    ev = MultiplierEvaluator(0.1, alpha, z_max=float(xg[-1]))
    worst = 0.0
    for m in (1, 3):
        grid = ev.log_eval(m, xg.astype(complex))
        for x, g in zip(xg, grid):
            alone = complex(MultiplierEvaluator(0.1, alpha).log_eval(m, complex(x)))
            worst = max(worst, abs(alone - g) / max(1.0, abs(g)))
    print(f"alpha {alpha}: point alone vs in grid, max rel dev {worst:.2e}")
    assert worst <= 1e-14          # observed 4.7e-16 (0.25), 5.3e-15 (0.75)


def test_direct_terms_follow_point_cutoffs(monkeypatch):
    # each point sums the direct factors n = 1, 2, ... contiguously up to at
    # least its own cutoff floor(phi(e|x|/R)), R = _RATIO, past which
    # |x / a_n| < R, not up to the evaluator's k_cut for every point; the
    # row ranges of `core.direct_sums` run past a point's cutoff only within
    # the range that holds it, and keep the call count bounded
    eps, alpha = 0.1, 0.75
    xg = np.logspace(-2, 5, 200)
    ev = MultiplierEvaluator(eps, alpha, z_max=float(xg[-1]))
    work = count_work(monkeypatch)
    ev.log_eval_start(1, xg.astype(complex))
    (bulk,) = work.sums
    reach = dict.fromkeys(xg.tolist(), 0)
    for call in bulk.calls:
        for x in call.z.real.tolist():
            assert reach[x] == call.lo
            reach[x] = call.hi
    own = np.minimum(np.floor(phi_eps(E / _RATIO * xg, eps, alpha)), ev.k_cut)
    assert np.all(np.array([reach[x] for x in xg.tolist()]) >= own)
    print(f"{len(bulk.calls)} calls, {bulk.terms} direct terms (own cutoffs {int(own.sum())})")
    assert len(bulk.calls) <= 16     # 12 measured; 54 with 256-node blocks
    assert bulk.terms <= 1.25 * own.sum()  # 274,640 against 232,321


def test_fft_half_grid_pass_memory():
    # the 4097-point FFT half-grid of an alpha 0.75 family build: factors are
    # formed in blocks of at most core.BLOCK_TERMS, not as one points x
    # 256-node block (18.4 MB of traced memory before; 0.9 MB measured)
    half, n = 225.0, 8192
    z = 2.0 * half / n * np.arange(n // 2 + 1) + 0j
    ev = MultiplierEvaluator(0.1, 0.75, z_max=half)
    tracemalloc.start()
    try:
        ev.log_eval_start(1, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def _phi_mp(x, eps, alpha):
    # the weight from its definition: eps x^{2a}, and past the branch point
    # gamma = (1/eps)^{1/(2a-1)} (alpha > 1/2) the branch (x/eps)^{1/2a}
    if alpha < 0.5 or x <= (1 / eps) ** (1 / (2 * alpha - 1)):
        return eps * x ** (2 * alpha)
    return (x / eps) ** (1 / (2 * alpha))


def _node_mp(n, eps, alpha):
    # a_n = phi^{-1}(n)/e: invert the inner branch, and the outer one where
    # the inner root lies past gamma; phi of the root must give n back
    x = (n / eps) ** (1 / (2 * alpha))
    if alpha > 0.5 and x > (1 / eps) ** (1 / (2 * alpha - 1)):
        x = eps * mp.mpf(n) ** (2 * alpha)
    assert abs(_phi_mp(x, eps, alpha) - n) <= mp.mpf(10) ** -35 * n
    return x / mp.e


def _log_multiplier_mp(m, z, eps, alpha):
    """log M_m(z) at the working precision: direct factors until
    |z/a_n| <= 1/8 and past the branch point, then the tail
    -sum_j zeta(2j)/(j pi^2j) z^2j sum_{n>k} a_n^-2j, each node sum a
    Hurwitz zeta of the outer branch a_n = c n^p."""
    eps, alpha, z = mp.mpf(eps), mp.mpf(alpha), mp.mpc(z)
    lam = mp.mpc(eps * abs(m) ** (2 * alpha), m)
    k = int(mp.floor(_phi_mp(mp.e * abs(lam), eps, alpha)))
    g = (1 / eps) ** (1 / (2 * alpha - 1)) if alpha > 0.5 else 0
    out = mp.mpc(0)
    while True:
        k += 1
        w = z / _node_mp(k, eps, alpha)
        out += mp.log(mp.sin(w) / w)
        if abs(w) <= mp.mpf(1) / 8 and k >= g:
            break
    if alpha < 0.5:
        c, p = eps ** (-1 / (2 * alpha)) / mp.e, 1 / (2 * alpha)
    else:
        c, p = eps / mp.e, 2 * alpha
    j = 0
    while True:
        j += 1
        term = (mp.zeta(2 * j) / (j * mp.pi ** (2 * j)) * (z / c) ** (2 * j)
                * mp.zeta(2 * j * p, k + 1))
        out -= term
        if abs(term) < mp.mpf(10) ** -45:
            return out


def test_multiplier_matches_mpmath():
    # 40-digit reference sharing no code with the evaluator; the error in
    # log M is taken modulo 2 pi i and scaled by max(1, |log M|).  Besides
    # fixed points, z straddles |z / a_33| = R = _RATIO, real and complex:
    # just inside, the tail series starts at node 33 with |w| = R (1 - 1e-9)
    # (32 is a tail table node); just outside, node 33 is a direct factor
    # with |w| > R.
    # (At node 17, alpha 0.25, the real z / a_1 sits 0.007 from 92 pi, where
    # log|sinc| turns the nodes' rounding into an 8e-14 error, old and new.)
    mp.mp.dps = 40
    worst = 0.0
    for alpha in (0.25, 0.75):
        ev = MultiplierEvaluator(0.1, alpha)
        a33 = float(_node_mp(33, mp.mpf(0.1), mp.mpf(alpha)))
        straddle = [_RATIO * a33 * (1.0 + d) * rot for d in (-1e-9, 1e-9)
                    for rot in (1.0, np.exp(0.3j))]
        for m in (1, 3):
            node = 1j * np.conj(complex(lambda_vals(m, 0.1, alpha)))
            cut = ev._cutoffs(node_start(m, 0.1, alpha), np.abs(straddle))
            assert cut[:2].tolist() == [32, 32] and min(cut[2:]) >= 33
            for z in [0.37, 12.5, 950.0, node] + straddle:
                ref = complex(_log_multiplier_mp(m, z, 0.1, alpha))
                d = complex(ev.log_eval(m, complex(z))) - ref
                d -= 2j * np.pi * round(d.imag / (2 * np.pi))
                err = abs(d) / max(1.0, abs(ref))
                print(f"alpha {alpha} m {m} z {z:.4g}: log M {ref.real:.6g}, "
                      f"scaled error {err:.2e}")
                worst = max(worst, err)
    assert worst <= 5e-14          # about 10x the 5.2e-15 measured before per-point cutoffs


@pytest.mark.filterwarnings("error")
def test_far_off_axis_matches_mpmath():
    # at eps 0.1, alpha 0.25, z = |z| e^{0.3i} with |z| = a_65 = 1.55e5 puts
    # Im(z/a_1) at 1250, where sin w overflows a double: the direct factors
    # past |Im w| = 20 take log sinc from the dominant exponential of sin w,
    # finite and without RuntimeWarnings (inf + nan i before).  Points with
    # Im(z/a_1) just either side of 20 check that the two forms join
    mp.mp.dps = 40
    eps, alpha = 0.1, 0.25
    ev = MultiplierEvaluator(eps, alpha)
    a1 = float(_node_mp(1, mp.mpf(eps), mp.mpf(alpha)))
    rot = np.exp(0.3j)
    pts = [1.55e5 * rot, -1.55e5 * np.conj(rot), 2e4 * rot]
    pts += [a1 * (20.0 + d) / rot.imag * rot for d in (-1e-9, 1e-9)]
    worst = 0.0
    for z in pts:
        got = complex(ev.log_eval(1, z))
        ref = complex(_log_multiplier_mp(1, z, eps, alpha))
        d = got - ref
        d -= 2j * np.pi * round(d.imag / (2 * np.pi))
        err = abs(d) / max(1.0, abs(ref))
        print(f"z {z:.6g}: log M {ref.real:.6g}, scaled error {err:.2e}")
        worst = max(worst, err)
    assert worst <= 5e-14


def test_tail_sums_that_matter_do_not_underflow():
    # S_2j(K) = sum_{n>K} a_n^-2j underflows where a_{K+1}^2j passes 1e308,
    # from j = 33 at |z| = 1e5.  Past the last normal entry j0 of a point's
    # column, a_n >= a_{K+1} bounds S_2j(K) <= a_{K+1}^{-2(j - j0)} S_2j0(K),
    # so the series terms C_j |z|^2j S_2j(K) lost to underflow are at most
    # the sum of those bounds, taken in logs.  At the largest |z| evaluated,
    # `multiplier check`'s grid up to 1e5 and the points of
    # test_far_off_axis_matches_mpmath up to 1.55e5, they stay below the
    # rounding of log M: measured 1.7e-17 and 1.8e-18 of max(1, |log M|)
    # (2e-15 at |z| = 1e6, where columns scaled by their first node would
    # be needed)
    rot = np.exp(0.3j)
    for eps, alpha, z in ((0.1, 0.75, np.logspace(-2, 5, 200) + 0j),
                          (0.1, 0.25, np.array([1.55e5 * rot, 2e4 * rot]))):
        ev = MultiplierEvaluator(eps, alpha, z_max=float(np.max(np.abs(z))))
        for n_from in (1, node_start(1, eps, alpha)):
            log_m = np.abs(ev.log_eval_start(n_from, z))
            cuts = ev._cutoffs(n_from, np.abs(z))
            for az, k, scale in zip(np.abs(z), cuts, np.maximum(1.0, log_m)):
                col = ev._tail_sums[:, -(-k // STRIDE)]
                j0 = np.flatnonzero(col >= np.finfo(float).tiny)[-1]
                j = np.arange(j0 + 1, len(col))
                a_next = float(phi_eps_inverse(k + 1.0, eps, alpha)) / E
                log_lost = (np.log(_SER_C[j]) + 2.0 * (j + 1) * np.log(az)
                            - 2.0 * (j - j0) * np.log(a_next) + np.log(col[j0]))
                assert np.sum(np.exp(log_lost)) <= 1e-16 * scale


def test_tail_bound_dominates_refinement():
    # the certified integral-comparison bound on the truncated log tail,
    # |z|^2/6 * S_2(K_p) at the point's own cutoff K_p, covers the change
    # seen when the direct range is refined
    z = np.array([4.0 + 1.0j], dtype=complex)
    ev = MultiplierEvaluator(0.1, 0.75, z_max=8.0)
    ref = MultiplierEvaluator(0.1, 0.75, z_max=800.0)
    for m in (1, 2, 5):
        drift = float(np.abs(ev.log_eval(m, z) - ref.log_eval(m, z))[0])
        az = np.abs(z)
        k = int(ev._cutoffs(node_start(m, ev.eps, ev.alpha), az)[0])
        bound = float(np.max(az * az / 6.0 * node_power_sum(k, ev.eps, ev.alpha, 2.0)))
        assert drift <= bound


def test_prefix_identity():
    # the full product equals the product started at its own first node
    ev = MultiplierEvaluator(0.1, 0.75, z_max=40.0)
    z = np.array([1.3, -6.0, 17.2], dtype=complex)
    for m in (1, 4):
        full = ev.log_eval(m, z)
        started = ev.log_eval_start(node_start(m, 0.1, 0.75), z)
        assert np.allclose(full, started, rtol=0, atol=1e-13)


def test_factor_ranges_telescope():
    # a family build and the property check sum each member's prefix as the
    # previous member's plus the factors from the previous start on: the
    # split sum agrees with the whole one on the FFT half-grid of an alpha
    # 0.75, N 8 build (half-width 150, n_fft 8192), at every split where a
    # member of N 32 starts
    ev = MultiplierEvaluator(0.1, 0.75, z_max=150.0)
    z = 300.0 / 8192 * np.arange(4097) + 0j
    starts = [node_start(m, 0.1, 0.75) for m in range(1, 33)]
    b = starts[-1] - 1
    whole = ev.log_factor_range(1, b, z)
    worst = 0.0
    for a in sorted(set(starts[1:])):
        split = ev.log_factor_range(1, a - 1, z) + ev.log_factor_range(a, b, z)
        dev = np.abs(split - whole) / np.maximum(1.0, np.abs(whole))
        worst = max(worst, float(np.max(dev)))
    print(f"split against whole prefix 1..{b}: max rel dev {worst:.2e}")
    assert worst <= 1e-13


def test_grows_on_demand():
    ev = MultiplierEvaluator(0.1, 0.25, z_max=1.0)
    k0 = ev.k_cut
    ev.log_eval(1, np.array([300.0], dtype=complex))
    assert ev.k_cut > k0                      # direct range extended


def test_rejects_degenerate_parameters():
    with pytest.raises(ConfigError):
        MultiplierEvaluator(0.0, 0.25)
    with pytest.raises(ConfigError):
        MultiplierEvaluator(0.1, 0.5)


@pytest.mark.parametrize("eps,alpha", [(0.1, 0.25), (0.1, 0.75)])
def test_property_report(eps, alpha):
    xg = np.logspace(-2, 4, 120)
    ev = MultiplierEvaluator(eps, alpha, z_max=float(xg[-1]))
    rep = multiplier_property_check(range(1, 9), xg, ev)
    assert rep.ok
    assert set(rep) == {"upper", "lower", "node_weight", "type", "unit_modulus"}
    for entry in rep.values():
        assert entry["ok"]
        assert entry["margin"] >= 0.0


def test_power_sum_high_power_at_tiny_eps():
    # at alpha 0.75, eps 1e-10 the factor (e/eps)^36 = 1e374 of the outer sum
    # overflows a double against a zeta that underflows (the outer sum is
    # 8e-687): it is formed relative to its first node instead, so S_36 is
    # the inner sum, 9e-244, and the evaluator that needs it builds
    mp.mp.dps = 40
    eps, alpha = 1e-10, 0.75
    ng = mp.floor((1 / mp.mpf(eps)) ** (1 / (2 * mp.mpf(alpha) - 1)))
    for power in (22.0, 36.0):
        s = power / (2 * mp.mpf(alpha))
        outer = (mp.e / eps) ** power * mp.zeta(2 * mp.mpf(alpha) * power, ng + 1)
        inner = mp.e ** power * mp.mpf(eps) ** s * (mp.zeta(s, 6) - mp.zeta(s, ng + 1))
        assert abs(node_power_sum(5, eps, alpha, power) / (inner + outer) - 1) <= 1e-13
    assert node_power_sum(10 ** 21, eps, alpha, 36.0) == 0.0     # 8e-740 underflows
    ev = MultiplierEvaluator(eps, alpha, z_max=10.0)
    assert np.isfinite(ev.log_eval(1, np.array([3.0, 2.0 + 1.0j])).real).all()
