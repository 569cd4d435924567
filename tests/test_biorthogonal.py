import math

import numpy as np
import pytest

from viscowave import biorthogonal as bio
from viscowave import weierstrass as wei
from viscowave.core import (ConfigError, ProblemConfig, sinhc,
                            validate_config)
from viscowave.multiplier import MultiplierEvaluator
from viscowave.spectrum import node_sum_bound
from viscowave.weierstrass import ProductEvaluator

CFG = validate_config(ProblemConfig(alpha=0.25, epsilon=0.1, n_modes=2),
                      for_synthesis=True)
MS = (-2, -1, 1, 2)


@pytest.fixture(scope="module")
def theta_family():
    return bio.build_theta_family(CFG, MS)


@pytest.fixture(scope="module")
def zeta_family(theta_family):
    return bio.zeta_eval(theta_family, CFG.smoothing_a)


# ---------------------------------------------------------------------------
# undamped family
# ---------------------------------------------------------------------------

def test_sinc_theta_values():
    # the eps = 0 member m is e^{imt}/(2pi) on (-pi, pi): as samples and as
    # its one-term exponential sum
    fam = bio.build_sinc_family([-1, 1, 3])
    t = fam.t_grid
    assert np.allclose(fam.member(3), np.exp(3j * t) / (2 * math.pi), rtol=1e-14)
    assert fam.window == (-math.pi, math.pi) and t[0] == -math.pi and t[-1] == math.pi
    assert np.allclose(np.exp(np.outer(t, fam.rates)) @ fam.weights[3],
                       fam.member(3), rtol=1e-14)
    with pytest.raises(ConfigError):
        fam.member(2)


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
    omega, _ = bio.resolve_omega(CFG, (1, 2), product)
    interp = bio.make_interpolant(2, CFG, omega, product=product)
    lam_c = complex(0.1 * 2 ** 0.5, -2.0)
    node = 1j * lam_c
    assert complex(np.exp(interp.log_psi([node]))[0]) == pytest.approx(1.0, abs=1e-12)
    other = 1j * complex(0.1, -1.0)
    assert complex(np.exp(interp.log_psi([other]))[0]) == pytest.approx(0.0, abs=1e-12)


def test_resolve_omega_modes():
    product = ProductEvaluator(CFG.epsilon, CFG.alpha)
    omega, hats = bio.resolve_omega(CFG, (1, 2), product)
    assert isinstance(omega, int) and omega == 1
    assert all(h >= 0 for h in hats)
    fixed = validate_config(
        ProblemConfig(alpha=0.25, epsilon=0.1, omega_mode="fixed",
                      omega_value=3.0), for_synthesis=True)
    assert bio.resolve_omega(fixed, (1,), product)[0] == 3
    bad = validate_config(
        ProblemConfig(alpha=0.25, epsilon=0.1, omega_mode="fixed",
                      omega_value=2.5), for_synthesis=True)
    with pytest.raises(ConfigError):
        bio.resolve_omega(bad, (1,), product)


# ---------------------------------------------------------------------------
# damped family
# ---------------------------------------------------------------------------

def test_theta_norms_frozen(theta_family):
    assert theta_family.norms[1] == pytest.approx(0.5622, abs=2e-4)
    assert theta_family.norms[2] == pytest.approx(0.5243, abs=2e-4)
    assert theta_family.norms[-1] == theta_family.norms[1]


def test_theta_support_is_declared_type(theta_family):
    l2 = node_sum_bound(CFG.epsilon, CFG.alpha)
    want = math.pi + theta_family.omega * l2 + (1 + CFG.decay_boost) * CFG.delta
    assert theta_family.support_half == pytest.approx(want, rel=1e-12)


def test_theta_biorthogonality(theta_family):
    _, dev = bio.biorthogonality_matrix(theta_family, MS, MS)
    assert dev < 1e-4          # contract tolerance; observed near 1e-14


def test_cut_integral_ignores_exact_zero_in_noise_floor():
    # a transform's noise floor is quantized near one ulp of its peak, so a
    # lone tail sample can be exactly 0; the cut must not move out there,
    # where e^{Re lam t} multiplies the noise by e^75
    tg = np.linspace(-60.0, 60.0, 6001)
    rng = np.random.default_rng(2)
    quantum = 1.6e-16
    th = np.exp(-tg ** 2) + quantum * (rng.integers(-10, 11, tg.size)
                                       + 1j * rng.integers(-10, 11, tg.size))
    th[np.argmin(np.abs(tg - 50.0))] = 0.0
    lam_c = 1.5 - 3.0j
    exact = math.sqrt(math.pi) * np.exp(lam_c ** 2 / 4.0)
    got = bio._cut_integral(tg, th, tg[1] - tg[0], lam_c)
    assert abs(got - exact) < 1e-8 * abs(exact)


def test_theta_conjugate_symmetry(theta_family):
    # real data synthesis relies on theta_{-m}(t) = conj(theta_m(t))
    a = theta_family.member(1)
    b = theta_family.member(-1)
    assert np.max(np.abs(b - np.conjugate(a))) < 1e-12


@pytest.fixture(scope="module")
def theta_family_075():
    cfg = validate_config(ProblemConfig(alpha=0.75, epsilon=0.1, n_modes=2),
                          for_synthesis=True)
    return cfg, bio.build_theta_family(cfg, MS)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_theta_mirror_members_match_direct_evaluation(alpha, theta_family,
                                                      theta_family_075):
    # the family builds member -m as conj(theta_m); transform the directly
    # evaluated psi_{-m} on the family's own x grid instead, with fresh
    # evaluators, and compare
    cfg, fam = (CFG, theta_family) if alpha == 0.25 else theta_family_075
    half, dx, n = fam.meta["half_width"], fam.meta["dx"], fam.meta["n_fft"]
    zg = (-half + dx * np.arange(n)).astype(complex)
    worst = 0.0
    for m in (1, 2):
        interp = bio.make_interpolant(-m, cfg, fam.omega)
        tg, th = bio.fourier_to_time(np.exp(interp.log_psi(zg)), half, dx)
        th = th[(tg >= fam.t_grid[0]) & (tg <= fam.t_grid[-1])]
        scale = np.max(np.abs(fam.member(m)))
        worst = max(worst, float(np.max(np.abs(th - fam.member(-m))) / scale))
    print(f"alpha {alpha}: direct theta_-m vs conj(theta_m), max rel dev {worst:.2e}")
    assert worst < 1e-11       # observed 1e-13 .. 5e-13


def _count_pair_work(monkeypatch):
    """Record the point count of every paired-term evaluation and of every
    pair sum (log F pass or one-point constant) of the product."""
    term_sizes, sum_sizes = [], []
    pair_log = wei._pair_log
    pair_sum = ProductEvaluator._pair_sum

    def count_terms(t, z, *rest):
        term_sizes.append(np.size(z))
        return pair_log(t, z, *rest)

    def count_sums(self, z, *rest, **kw):
        sum_sizes.append(np.size(z))
        return pair_sum(self, z, *rest, **kw)

    monkeypatch.setattr(wei, "_pair_log", count_terms)
    monkeypatch.setattr(ProductEvaluator, "_pair_sum", count_sums)
    return term_sizes, sum_sizes


def test_family_build_work_counts(monkeypatch):
    # one log F pass on the n/2 + 1 points |x| = j dx serves every member and
    # no paired term is ever formed on the full n-point grid; the even
    # multiplier (bulk and per-m prefixes) runs on the same n/2 + 1 points
    term_sizes, sum_sizes = _count_pair_work(monkeypatch)
    bulk_sizes, prefix_sizes = [], []
    log_eval_start = MultiplierEvaluator.log_eval_start
    log_factor_range = MultiplierEvaluator.log_factor_range

    def count_bulk(self, n_from, z):
        bulk_sizes.append(np.size(z))
        return log_eval_start(self, n_from, z)

    def count_prefix(self, lo, hi, z):
        prefix_sizes.append(np.size(z))
        return log_factor_range(self, lo, hi, z)

    monkeypatch.setattr(MultiplierEvaluator, "log_eval_start", count_bulk)
    monkeypatch.setattr(MultiplierEvaluator, "log_factor_range", count_prefix)
    fam = bio.build_theta_family(CFG, MS)
    n = fam.meta["n_fft"]
    assert sum_sizes.count(n // 2 + 1) == 1
    assert max(term_sizes) == n // 2 + 1
    assert max(bulk_sizes) == n // 2 + 1
    assert bulk_sizes.count(n // 2 + 1) == 1
    assert max(prefix_sizes) <= n // 2 + 1


def test_resolve_omega_work_counts(monkeypatch):
    # the envelope fit over modes 1..4 makes one log F pass on its 3000
    # points; per mode only the one-point constant C_m is summed
    term_sizes, sum_sizes = _count_pair_work(monkeypatch)
    cfg = validate_config(ProblemConfig(alpha=0.75, epsilon=0.1, n_modes=4),
                          for_synthesis=True)
    omega, hats = bio.resolve_omega(cfg, (1, 2, 3, 4), ProductEvaluator(0.1, 0.75))
    assert len(hats) == 4 and omega >= 1
    assert sorted(sum_sizes) == [1, 1, 1, 1, 3000]
    assert max(term_sizes) == 3000


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
    # the one-DFT-per-member weights against the direct sum
    # R_m(x) = (dt/normalizer) sum_l rho_m(u_l) e^{-i x u_l} on every rate
    dt = theta_family.dt
    k = int(np.floor(CFG.smoothing_a / dt))
    u = dt * np.arange(-k, k + 1)
    basis = np.exp(-1j * np.outer(theta_family.rates.imag, u))
    worst = 0.0
    for m in MS:
        rho = np.exp(1j * m * u) * bio.smoothing_kernel(CFG.smoothing_a, u)
        r_m = basis @ rho * (dt / zeta_family.meta["normalizers"][m])
        want = theta_family.weights[m] * r_m
        worst = max(worst, float(np.max(np.abs(zeta_family.weights[m] - want))
                                 / np.max(np.abs(want))))
    assert worst < 1e-13        # measured 8.4e-16


def test_zeta_support_and_norms(zeta_family, theta_family):
    assert zeta_family.support_half == pytest.approx(
        theta_family.support_half + CFG.smoothing_a)
    for m in MS:
        assert zeta_family.norms[m] < theta_family.norms[m] * 1.05


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_exponential_sums_reproduce_samples(alpha):
    # theta_m and zeta_m as exponential sums on the shared rates, evaluated
    # term by term on the family's own t grid, against the stored samples.
    # Measured worst, relative to the member's maximum: theta 5.9e-14 and
    # 2.3e-13, zeta 8.5e-15 and 3.3e-14 (alpha 0.25, 0.75); exact phases
    # 2 pi (j - n/2) k / n give the same figures, so they are the FFT's
    # rounding in the samples
    cfg = validate_config(ProblemConfig(alpha=alpha, epsilon=0.1, n_modes=3),
                          for_synthesis=True)
    ms = (-3, -1, 1, 3)
    theta = bio.build_theta_family(cfg, ms)
    zeta = bio.zeta_eval(theta, cfg.smoothing_a)
    n = theta.meta["n_fft"]
    assert len(theta.rates) == n + 1 and zeta.rates is theta.rates
    assert np.array_equal(theta.rates, -theta.rates[::-1])
    worst = 0.0
    for rows in np.array_split(np.arange(len(theta.t_grid)), 32):
        basis = np.exp(np.outer(theta.t_grid[rows], theta.rates))
        for fam in (theta, zeta):
            for m in ms:
                vals = fam.member(m)
                dev = np.max(np.abs(basis @ fam.weights[m] - vals[rows]))
                worst = max(worst, float(dev / np.max(np.abs(vals))))
    print(f"alpha {alpha}: exponential sums vs samples, max rel dev {worst:.2e}")
    assert worst < 1e-12
