import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_pair_work, gauss_legendre, pass_terms
from viscowave import biorthogonal as bio
from viscowave import weierstrass as wei
from viscowave.core import ProblemConfig, sinhc, validate_config
from viscowave.multiplier import MultiplierEvaluator
from viscowave.spectrum import lambda_conj_vals, node_sum_bound
from viscowave.weierstrass import ProductEvaluator, envelope_fit

CFG = validate_config(ProblemConfig(alpha=0.25, epsilon=0.1, n_modes=2),
                      for_synthesis=True)
MS = (-2, -1, 1, 2)


@pytest.fixture(scope="module")
def theta_family():
    return bio.build_theta_family(CFG, MS)


@pytest.fixture(scope="module")
def zeta_family(theta_family):
    return bio.zeta_eval(theta_family)


# ---------------------------------------------------------------------------
# undamped family
# ---------------------------------------------------------------------------

def test_sinc_theta_values():
    # the eps = 0 member m is e^{imt}/(2pi) on (-pi, pi), as its one-term
    # exponential sum evaluated on a grid
    fam = bio.build_sinc_family([-1, 1, 3])
    t = np.linspace(-math.pi, math.pi, 513)
    assert np.allclose(np.exp(np.outer(t, fam.rates)) @ fam.weights[3],
                       np.exp(3j * t) / (2 * math.pi), rtol=1e-14)
    assert fam.window == (-math.pi, math.pi) and fam.period == 2 * math.pi
    assert 2 not in fam.weights and 2 not in fam.norms


def test_sinc_family_exact_biorthogonality():
    fam = bio.build_sinc_family([m for m in range(-8, 9) if m != 0])
    _, dev = bio.biorthogonality_matrix(fam, fam.indices, fam.indices)
    assert dev < 1e-12
    for m in (1, -4):
        assert fam.norms[m] == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                             rel=1e-12)
    # member 2 is the single term e^{2it}/(2pi) on the shared rates i m
    k = fam.indices.index(2)
    assert complex(fam.rates[k]) == 2j
    assert np.flatnonzero(fam.weights[2]).tolist() == [k]
    assert complex(fam.weights[2][k]) == pytest.approx(1 / (2 * math.pi))
    assert fam.window == (-math.pi, math.pi)


# ---------------------------------------------------------------------------
# interpolant
# ---------------------------------------------------------------------------

def test_interpolant_node_values():
    product = ProductEvaluator(CFG.epsilon, CFG.alpha)
    omega, _ = bio.resolve_omega((1, 2), product)
    mult = MultiplierEvaluator(CFG.epsilon, CFG.alpha)
    lam_c = complex(0.1 * 2 ** 0.5, -2.0)
    node = 1j * lam_c
    psi = np.exp(bio.log_psi(2, [node], omega, product, mult))
    assert complex(psi[0]) == pytest.approx(1.0, abs=1e-12)
    other = 1j * complex(0.1, -1.0)
    psi = np.exp(bio.log_psi(2, [other], omega, product, mult))
    assert complex(psi[0]) == pytest.approx(0.0, abs=1e-12)


def test_resolve_omega_modes():
    product = ProductEvaluator(CFG.epsilon, CFG.alpha)
    omega, hats = bio.resolve_omega((1, 2), product)
    assert isinstance(omega, int) and omega == 1
    assert len(hats) == 2 and all(h >= 0 for h in hats)


# ---------------------------------------------------------------------------
# damped family
# ---------------------------------------------------------------------------

def test_theta_norms_frozen(theta_family):
    assert theta_family.norms[1] == pytest.approx(0.5622, abs=2e-4)
    assert theta_family.norms[2] == pytest.approx(0.5243, abs=2e-4)
    assert theta_family.norms[-1] == theta_family.norms[1]


def test_theta_support_half_is_the_exponential_type(theta_family):
    l2 = node_sum_bound(CFG.epsilon, CFG.alpha)
    want = math.pi + theta_family.omega * l2 + (1 + bio.DECAY_BOOST) * bio.SINC_DELTA
    assert theta_family.support_half == pytest.approx(want, rel=1e-12)


def test_theta_biorthogonality(theta_family):
    _, dev = bio.biorthogonality_matrix(theta_family, MS, MS)
    assert dev < 1e-4          # contract tolerance; observed near 1e-14


def test_window_ignores_exact_zero_in_noise_floor(theta_family):
    # a synthetic member e^{-t^2}, transformed from sqrt(pi) e^{-x^2/4} on
    # the FFT grid; its measured window ends where e^{-t^2} crosses
    # WINDOW_FLOOR.  A transform's noise floor is quantized near one ulp of
    # the peak, so a tail sample can be a noise quantum or exactly 0: neither
    # may move the window
    half, n = 40.0, 4096
    dx = 2.0 * half / n
    psi = math.sqrt(math.pi) * np.exp(-(-half + dx * np.arange(n)) ** 2 / 4.0)
    tg, th = bio.fourier_to_time(psi, half, dx)
    lo, hi = bio._measured_window(tg, th)
    edge = math.sqrt(-math.log(bio.WINDOW_FLOOR))
    dt = tg[1] - tg[0]
    assert -edge <= lo < -edge + dt and edge - dt < hi <= edge
    rng = np.random.default_rng(2)
    quantum = 1.6e-16
    noisy = th + quantum * (rng.integers(-10, 11, tg.size)
                            + 1j * rng.integers(-10, 11, tg.size))
    noisy[np.argmin(np.abs(tg - 30.0))] = 0.0
    assert bio._measured_window(tg, noisy) == (lo, hi)
    # its exact B over that window against the closed form
    # int e^{-t^2} e^{c t} dt = sqrt(pi) e^{c^2/4}, c = conj(lambda_n)
    member = replace(theta_family, rates=1j * dx * (np.arange(n + 1) - n // 2),
                     weights={1: np.append(psi * dx / (2.0 * math.pi), 0.0)},
                     window=(lo, hi))
    got, _ = bio.biorthogonality_matrix(member, [1], [-2, 1, 2])
    lam_c = lambda_conj_vals(np.array([-2, 1, 2]), CFG.epsilon, CFG.alpha)
    exact = math.sqrt(math.pi) * np.exp(lam_c ** 2 / 4.0)
    dev = float(np.max(np.abs(got[0] - exact) / np.abs(exact)))
    print(f"synthetic member: window [{lo:.3f}, {hi:.3f}], exact B rel dev {dev:.1e}")
    assert dev < 1e-12


def test_theta_window_is_measured_support(theta_family_075):
    # outside the window every member's exact sum stays below WINDOW_FLOOR
    # of its maximum; the window sits well inside the declared support
    _, fam = theta_family_075
    lo, hi = fam.window
    dt = fam.period / fam.meta["n_fft"]
    t_in = np.linspace(lo, hi, int(round((hi - lo) / dt)) + 1)
    t_out = np.concatenate([lo - dt * np.arange(1, 200), hi + dt * np.arange(1, 200)])
    for m in MS:
        peak = np.max(np.abs(np.exp(np.outer(t_in, fam.rates)) @ fam.weights[m]))
        outside = np.abs(np.exp(np.outer(t_out, fam.rates)) @ fam.weights[m])
        assert np.max(outside) < bio.WINDOW_FLOOR * peak
    # declared length 2 support_half = 119, measured horizon 32.5
    assert fam.min_horizon == 2.0 * max(-lo, hi) < fam.support_half


def test_theta_conjugate_symmetry(theta_family, zeta_family, theta_family_075):
    # real data synthesis relies on theta_{-m}(t) = conj(theta_m(t)) and the
    # same for zeta: on the mirror-symmetric rates that is weights[-m] =
    # conj(weights[m][::-1]), exactly, with equal norms; zeta's normalizer of
    # member -m is the conjugate of member m's
    assert np.array_equal(theta_family.rates, -theta_family.rates[::-1])
    for theta in (theta_family, theta_family_075[1]):
        zeta = zeta_family if theta is theta_family else bio.zeta_eval(theta)
        normalizers = zeta.meta["normalizers"]
        for m in (1, 2):
            for fam in (theta, zeta):
                assert np.array_equal(fam.weights[-m], np.conj(fam.weights[m][::-1]))
                assert fam.norms[-m] == fam.norms[m]
            assert normalizers[-m] == np.conj(normalizers[m])


@pytest.fixture(scope="module")
def theta_family_075():
    cfg = validate_config(ProblemConfig(alpha=0.75, epsilon=0.1, n_modes=2),
                          for_synthesis=True)
    return cfg, bio.build_theta_family(cfg, MS)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_theta_mirror_members_match_direct_evaluation(alpha, theta_family,
                                                      theta_family_075):
    # the family builds member -m as conj(theta_m); evaluate psi_{-m} directly
    # on every shared rate i x_j, j = 0..n, with fresh evaluators, and compare
    # its weights (dx/2pi) psi_{-m}(x_j).  The family's weight at x_0 = -half
    # is 0 (the mirror of the unused x_n = half), the direct one is
    # |psi_{-m}(-half)| < 1e-12
    cfg, fam = (CFG, theta_family) if alpha == 0.25 else theta_family_075
    half, dx, n = fam.meta["half_width"], fam.meta["dx"], fam.meta["n_fft"]
    assert np.array_equal(fam.rates.imag, -half + dx * np.arange(n + 1))
    zg = fam.rates.imag.astype(complex)
    worst = 0.0
    for m in (1, 2):
        product = ProductEvaluator(cfg.epsilon, cfg.alpha)
        mult = MultiplierEvaluator(cfg.epsilon, cfg.alpha)
        want = np.exp(bio.log_psi(-m, zg, fam.omega, product, mult)) * (dx / (2.0 * math.pi))
        dev = np.max(np.abs(fam.weights[-m] - want)) / np.max(np.abs(want))
        worst = max(worst, float(dev))
    print(f"alpha {alpha}: direct psi_-m vs mirrored weights, max rel dev {worst:.2e}")
    assert worst < 1e-11


def test_family_build_work_counts(monkeypatch):
    # one log F pass on the n/2 + 1 points |x| = j dx serves every member and
    # forms its paired terms in column blocks of at most _COLS points, never
    # on the full n-point grid; it is a panel pass (`weierstrass` module
    # docstring), 49,920 paired terms at its Chebyshev nodes and 126,638
    # band terms from their linear factors where point by point it would
    # form 664,896; one multiplier evaluator serves the probe and the grid, and
    # its bulk and per-m prefixes run on the same n/2 + 1 points.  Smoothing
    # runs one kernel DFT per |m|
    work = count_pair_work(monkeypatch)
    bulk_sizes, prefix_sizes, evaluators, dfts = [], [], [], []
    init = MultiplierEvaluator.__init__
    log_eval_start = MultiplierEvaluator.log_eval_start
    log_factor_range = MultiplierEvaluator.log_factor_range
    fft = np.fft.fft

    def count_init(self, *args, **kw):
        evaluators.append(self)
        init(self, *args, **kw)

    def count_fft(a, *args, **kw):
        dfts.append(np.size(a))
        return fft(a, *args, **kw)

    def count_bulk(self, n_from, z):
        bulk_sizes.append(np.size(z))
        return log_eval_start(self, n_from, z)

    def count_prefix(self, lo, hi, z):
        prefix_sizes.append(np.size(z))
        return log_factor_range(self, lo, hi, z)

    monkeypatch.setattr(MultiplierEvaluator, "__init__", count_init)
    monkeypatch.setattr(MultiplierEvaluator, "log_eval_start", count_bulk)
    monkeypatch.setattr(MultiplierEvaluator, "log_factor_range", count_prefix)
    monkeypatch.setattr(np.fft, "fft", count_fft)
    fam = bio.build_theta_family(CFG, MS)
    n = fam.meta["n_fft"]
    assert max(work.passes) == n // 2 + 1 and work.passes.count(n // 2 + 1) == 1
    assert max(work.points) <= wei._COLS < n // 2 + 1
    # one pair sum per pass or constant: the fit grid's 600 Chebyshev nodes,
    # C_1 and C_2, the probe's 2 folded points and the half-grid's 240 nodes
    assert work.sums == [600, 1, 1, 2, 240]
    cuts = ProductEvaluator._cuts(fam.meta["dx"] * np.arange(n // 2 + 1))
    grid = work.passes.index(n // 2 + 1)
    assert (n, work.pass_elements[grid], work.pass_bands[grid]) == (8192, 49_920, 126_638)
    assert pass_terms(cuts) == 664_896
    assert max(bulk_sizes) == n // 2 + 1
    assert bulk_sizes.count(n // 2 + 1) == 1
    assert max(prefix_sizes) <= n // 2 + 1
    assert len(evaluators) == 1
    assert dfts == []
    bio.zeta_eval(fam)
    assert dfts == [n, n]


def test_resolve_omega_work_counts(monkeypatch):
    # the envelope fit over modes 1..4 makes one log F pass on its 3000
    # points, in column blocks; per mode only the one-point constant C_m is
    # summed.  The pass is a panel pass: 25 panels of 120 points, whose 600
    # Chebyshev nodes are summed point by point in one call, in 7 column
    # blocks of 85-86 points (280,576 paired terms), and whose bands form
    # 110,448 more from their linear factors, against 1,263,600 paired terms
    # point by point
    work = count_pair_work(monkeypatch)
    omega, hats = bio.resolve_omega((1, 2, 3, 4), ProductEvaluator(0.1, 0.75))
    assert len(hats) == 4 and omega >= 1
    assert work.passes == [3000]
    assert sorted(work.sums) == [1, 1, 1, 1, 600]
    assert max(work.points) <= wei._COLS
    cuts = ProductEvaluator._cuts(np.linspace(0.0, bio.OMEGA_FIT_HALF_WIDTH, 3000))
    assert sum(e for n, e in zip(work.sums, work.sum_elements) if n > 1) == 280_576
    assert work.pass_elements == [280_576] and work.pass_bands == [110_448]
    assert pass_terms(cuts) == 1_263_600


@pytest.mark.parametrize("alpha, omega, hats", [
    (0.25, 1, (0.0, 1.4972252307419838e-16, 0.0, 0.0)),
    (0.55, 4, (3.004214256474916, 3.010782427560404, 3.010117477319418, 3.00681004625968)),
    (0.75, 4, (2.525407406214818, 2.5311338392584832, 2.5214236256990143,
               2.5165754606730597))])
def test_resolve_omega_reads_the_modulus_pass(alpha, omega, hats):
    # the fit's log|F| pass gives the envelope fits of the full log F pass
    # bit for bit; the frozen values are those of the full-pass fit (eps
    # 0.1, modes 1..4), which rounds differently on other hardware, hence
    # the tolerance on them alone
    product = ProductEvaluator(0.1, alpha)
    got_omega, got_hats = bio.resolve_omega((1, 2, 3, 4), product)
    xs = np.linspace(0.0, bio.OMEGA_FIT_HALF_WIDTH, 3000)
    log_f = product.log_generating(xs)
    assert got_hats == tuple(envelope_fit(m, xs, product, log_f) for m in (1, 2, 3, 4))
    assert got_omega == omega
    assert got_hats == pytest.approx(hats, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_kernel_mass():
    a = 0.5
    x = np.linspace(-a, a, 40001)
    mass = float(np.trapezoid(bio.smoothing_kernel(a, x), x))
    assert mass == pytest.approx(math.sqrt(2 * math.pi), rel=1e-8)
    assert float(bio.smoothing_kernel(a, np.array([a + 0.1]))[0]) == 0.0


def test_zeta_normalizer_oracle(zeta_family):
    # numeric normalizer vs closed form sqrt(2 pi) sinhc^2(Re lambda a / 2);
    # the gap is the rectangle-rule error on the kernel kink
    normalizers = zeta_family.meta["normalizers"]
    for m in (1, 2):
        re_l = 0.1 * abs(m) ** 0.5
        oracle = math.sqrt(2 * math.pi) * complex(sinhc(re_l * 0.25)).real ** 2
        assert abs(normalizers[m]) == pytest.approx(oracle, rel=5e-3)


def test_zeta_preserves_biorthogonality(zeta_family):
    _, dev = bio.biorthogonality_matrix(zeta_family, MS, MS)
    assert dev < 1e-4


def test_zeta_weights_are_the_kernel_transform(zeta_family, theta_family):
    # the weights (one DFT per |m|, member -m mirrored) against the direct
    # sum R_m(x) = (dt/normalizer) sum_l rho_m(u_l) e^{-i x u_l} on every
    # rate, with normalizer = dt sum_l rho_m(u_l) e^{conj(lambda_m) u_l}
    # summed here for every m
    dt = theta_family.period / theta_family.meta["n_fft"]
    k = int(np.floor(bio.SMOOTHING_A / dt))
    u = dt * np.arange(-k, k + 1)
    basis = np.exp(-1j * np.outer(theta_family.rates.imag, u))
    worst = 0.0
    for m in MS:
        rho = np.exp(1j * m * u) * bio.smoothing_kernel(bio.SMOOTHING_A, u)
        lam_c = complex(lambda_conj_vals(m, CFG.epsilon, CFG.alpha))
        normalizer = np.sum(rho * np.exp(lam_c * u)) * dt
        want = theta_family.weights[m] * (basis @ rho * (dt / normalizer))
        worst = max(worst, float(np.max(np.abs(zeta_family.weights[m] - want))
                                 / np.max(np.abs(want))))
    print(f"zeta weights vs direct kernel sum, max rel dev {worst:.1e}")
    assert worst < 1e-13        # measured 4.3e-16


def test_zeta_support_and_norms(zeta_family, theta_family):
    assert zeta_family.support_half == pytest.approx(
        theta_family.support_half + bio.SMOOTHING_A)
    a = bio.SMOOTHING_A
    assert zeta_family.window == (theta_family.window[0] - a,
                                  theta_family.window[1] + a)
    for m in MS:
        assert zeta_family.norms[m] < theta_family.norms[m] * 1.05


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_norms_match_quadrature_of_exponential_sums(alpha):
    # every theta and zeta norm comes from its weights by Parseval over the
    # rates' common period; composite Gauss-Legendre quadrature of the
    # member's own exponential sum, evaluated term by term over its window,
    # is an independent value
    cfg = validate_config(ProblemConfig(alpha=alpha, epsilon=0.1, n_modes=3),
                          for_synthesis=True)
    ms = (-3, -1, 1, 3)
    theta = bio.build_theta_family(cfg, ms)
    zeta = bio.zeta_eval(theta)
    n = theta.meta["n_fft"]
    assert len(theta.rates) == n + 1 and zeta.rates is theta.rates
    assert np.array_equal(theta.rates, -theta.rates[::-1])
    assert zeta.period == theta.period == 2.0 * math.pi / theta.meta["dx"]
    worst = 0.0
    for fam in (theta, zeta):
        t, wt = gauss_legendre(*fam.window)
        w_mat = np.array([fam.weights[m] for m in ms]).T
        sq = sum(wt[rows] @ np.abs(np.exp(np.outer(t[rows], fam.rates)) @ w_mat) ** 2
                 for rows in np.array_split(np.arange(t.size), 32))
        for m, q in zip(ms, np.sqrt(sq)):
            worst = max(worst, abs(fam.norms[m] - q) / q)
    print(f"alpha {alpha}: Parseval norms vs Gauss-Legendre, max rel dev {worst:.2e}")
    assert worst < 1e-12
