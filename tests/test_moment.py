import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (build_sinc_family, control_values, gauss_legendre, ingham_ratio_quad,
                      seeded_data)
from viscowave import biorthogonal as bio
from viscowave import pde
from viscowave.core import (ConfigError, ModalState, ProblemConfig, exp_sum_norm,
                            validate_config)
from viscowave.moment import (MomentSystem, SingularGramError, gram_matrix,
                              ingham_ratio, ingham_trials, minnorm_control,
                              moment_rhs, moment_verification,
                              synthesize_control_series)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

def test_gram_entry_oracle():
    g = gram_matrix([1], 0.1, 0.25, 2.0)
    # diagonal: T sinhc(Re lambda T) evaluated at 2 Re lambda T / 2
    assert g[0, 0] == pytest.approx(2 * math.sinh(0.2) / 0.2, rel=1e-13)


def test_gram_undamped_is_identity_times_T():
    idx = [n for n in range(-4, 5) if n != 0]
    g = gram_matrix(idx, 0.0, 0.0, TWO_PI)
    assert np.max(np.abs(g - TWO_PI * np.eye(8))) < 1e-13


@given(T=st.floats(1.0, 12.0), eps=st.sampled_from([0.0, 0.1, 0.5]),
       alpha=st.sampled_from([0.25, 0.75]))
@settings(max_examples=40, deadline=None)
def test_gram_hermitian_psd(T, eps, alpha):
    idx = [n for n in range(-5, 6) if n != 0]
    g = gram_matrix(idx, eps, alpha, T)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12
    w = np.linalg.eigvalsh(g)
    assert w[0] > -1e-10 * max(1.0, w[-1])


# ---------------------------------------------------------------------------
# moment data
# ---------------------------------------------------------------------------

def test_rhs_conjugate_symmetry_real_data():
    data = seeded_data()
    sys_ = MomentSystem.build(data, TWO_PI, 0.1, 0.75)
    assert sys_.conjugate_symmetry_residual() < 1e-14


def test_rhs_resonant_values():
    data = ModalState.from_arrays([1], [math.pi / 2], [0.0], [math.pi / 2])
    assert moment_rhs(1, data, TWO_PI, 0.0, 0.0) == pytest.approx(1j, rel=1e-12)
    assert moment_rhs(-1, data, TWO_PI, 0.0, 0.0) == pytest.approx(-1j, rel=1e-12)


def test_rhs_requires_known_mode():
    data = ModalState.from_arrays([1], [1.0], [0.0], [1.0])
    with pytest.raises(ConfigError):
        moment_rhs(2, data, TWO_PI, 0.0, 0.0)


def test_rhs_array_of_indices():
    # one call on an array of n gives the closed form at each n, in the
    # array's shape, and names the first bad index as a scalar call would
    data = ModalState.from_arrays([1, 3, 4], [0.5, -1.0j, 2.0], [1.0, 0.25, -0.5j],
                                  [1.0, 0.5, 2.0])
    n = np.array([[-4, -3, -1], [1, 3, 4]])
    got = moment_rhs(n, data, 9.0, 0.1, 0.75)
    assert got.shape == (2, 3)
    pos = {1: 0, 3: 1, 4: 2}
    for k, m in np.ndenumerate(n):
        i = pos[abs(m)]
        lam = complex(0.1 * abs(m) ** 1.5, m)
        want = -np.exp(-lam.conjugate() * 4.5) * (data.u1[i] + lam * data.u0[i]) \
            / data.profile[i]
        assert got[k] == pytest.approx(want, rel=1e-14)
    with pytest.raises(ConfigError, match="index 0 is not in the lattice"):
        moment_rhs(np.array([1, 0, 2]), data, 9.0, 0.1, 0.75)
    with pytest.raises(ConfigError, match="data has no mode 2"):
        moment_rhs(np.array([1, -2, 5]), data, 9.0, 0.1, 0.75)
    with pytest.raises(ConfigError, match="data has no mode 5"):
        moment_rhs(5, data, 9.0, 0.1, 0.75)


# ---------------------------------------------------------------------------
# minimal-norm solve
# ---------------------------------------------------------------------------

def test_resonant_minnorm_control(resonant_data):
    sys_ = MomentSystem.build(resonant_data, TWO_PI, 0.0, 0.0)
    res = minnorm_control(sys_)
    t = np.linspace(0.0, TWO_PI, 4097)
    assert np.max(np.abs(control_values(res.control, t) - np.sin(t) / math.pi)) < 1e-9
    assert res.norm == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    assert res.cond == pytest.approx(1.0, rel=1e-12)
    assert res.moment_residual < 1e-13


def test_zero_data_zero_control():
    data = ModalState.from_arrays([1, 2], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    res = minnorm_control(MomentSystem.build(data, TWO_PI, 0.1, 0.25))
    assert res.norm == 0.0
    assert np.all(res.control.weights == 0)


def test_norm_equals_sampled_norm(eight_modes):
    res = minnorm_control(MomentSystem.build(eight_modes, TWO_PI, 0.1, 0.25))
    # closed-form Gram norm vs trapezoid norm of the control on 4097 points
    t = np.linspace(0.0, TWO_PI, 4097)
    sampled = math.sqrt(np.trapezoid(np.abs(control_values(res.control, t)) ** 2, t))
    assert res.norm == pytest.approx(sampled, rel=1e-6)


def test_real_data_real_control(eight_modes):
    sys_ = MomentSystem.build(eight_modes, TWO_PI, 0.1, 0.75)
    res = minnorm_control(sys_)
    assert sys_.conjugate_symmetry_residual() < 1e-10
    t = np.linspace(0.0, TWO_PI, 4097)
    assert np.max(np.abs(control_values(res.control, t).imag)) < 1e-10


def test_singular_gram_raises():
    # 18 mode pairs at the degenerate exponent push the smallest eigenvalue
    # below zero in double precision; the solver must refuse, not return noise
    idx = [n for n in range(-18, 19) if n != 0]
    g = gram_matrix(idx, 0.5, 0.5, TWO_PI)
    w = np.linalg.eigvalsh(g)
    assert w[0] <= 0
    data = ModalState.from_arrays(range(1, 19), np.ones(18), np.zeros(18),
                                  np.ones(18))
    sys_ = MomentSystem.build(data, TWO_PI, 0.5, 0.5)
    with pytest.raises(SingularGramError) as exc_info:
        minnorm_control(sys_)
    assert exc_info.value.cond > 1e15


def test_moment_verification_exact_path(eight_modes):
    sys_ = MomentSystem.build(eight_modes, TWO_PI, 0.1, 0.25)
    res = minnorm_control(sys_)
    assert moment_verification(res.control, sys_) < 1e-12


# ---------------------------------------------------------------------------
# series synthesis plumbing
# ---------------------------------------------------------------------------

def test_series_requires_family_coverage(resonant_data):
    class TinyFamily:
        eps = alpha = 0.0
        indices = (1,)   # missing -1
        rates = np.array([1j])
        weights = {1: np.array([1.0 + 0j])}
        window = (-math.pi, math.pi)

    with pytest.raises(ConfigError):
        synthesize_control_series(resonant_data, TinyFamily(), TWO_PI)


def test_series_control_is_exact_off_the_family_window(resonant_data):
    # at eps = 0 the family lives on (-pi, pi); on a longer horizon the
    # control is that window shifted by T/2, and still solves the moments
    fam = build_sinc_family([-1, 1])
    T = 3 * math.pi
    res = synthesize_control_series(resonant_data, fam, T)
    assert res.control.support == pytest.approx((0.5 * math.pi, 2.5 * math.pi))
    assert np.array_equal(res.control.rates, fam.rates)
    assert res.norm == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    sys_ = MomentSystem.build(resonant_data, T, 0.0, 0.0)
    assert moment_verification(res.control, sys_) < 1e-14


def test_series_refuses_unmirrored_rates(resonant_data):
    # the imaginary-part bound pairs rate j with rate n - j; a family whose
    # index set is not mirror-closed has no such pairing
    fam = build_sinc_family([-1, 1, 3])
    with pytest.raises(ConfigError, match="mirror"):
        synthesize_control_series(resonant_data, fam, TWO_PI)


@functools.cache
def _damped_series(alpha, eps, n):
    """zeta family, horizon (as `control solve --series` picks it), data and
    series result for one configuration, built once."""
    cfg = validate_config(ProblemConfig(alpha=alpha, epsilon=eps, n_modes=n),
                          for_synthesis=True)
    ms = [m for m in range(-n, n + 1) if m != 0]
    fam = bio.zeta_eval(bio.build_theta_family(cfg, ms))
    T = float(2.0 * np.ceil(fam.min_horizon / 2.0 + 0.5))
    data = seeded_data(n=n)
    return fam, T, data, synthesize_control_series(data, fam, T)


# final residual and relative moment error measured per configuration
# (eps, alpha, N, T): (0.1, 0.25, 3, 14) 9.7e-32 and 5.4e-15; (0.1, 0.75, 3,
# 122) 6.3e-38 and 6.1e-3; (1e-3, 0.25, 4, 14) 3.9e-30 and 2.9e-15; (1e-3,
# 0.75, 4, 94) 2.3e-29 and 1.1e-14
@pytest.mark.parametrize("alpha,eps,n", [(0.25, 0.1, 3), (0.75, 0.1, 3),
                                         (0.25, 1e-3, 4), (0.75, 1e-3, 4)],
                         ids=["0.25", "0.75", "0.25-eps1e-3-N4", "0.75-eps1e-3-N4"])
def test_series_route_end_to_end_damped(alpha, eps, n):
    # damped family -> series control -> exact propagation of the corrected
    # system, at the horizon `control solve --series` picks by default
    fam, T, data, res = _damped_series(alpha, eps, n)
    cfg = validate_config(ProblemConfig(alpha=alpha, epsilon=eps, n_modes=n,
                                        horizon_T=T), for_synthesis=True)
    # one exponential sum on the family's n_fft + 1 shared rates, any N
    assert len(res.control.rates) == fam.meta["n_fft"] + 1
    traj = pde.simulate(cfg, data, res.control, record_points=1)
    resid = pde.final_residual(traj.final, data, eps, alpha)
    sys_ = MomentSystem.build(data, T, eps, alpha)
    moment_err = moment_verification(res.control, sys_) / np.max(np.abs(sys_.rhs))
    moment_tol = 1e-12 if alpha == 0.25 else 1e-10
    print(f"series route eps={eps} alpha={alpha} N={n} T={T:g}: final residual "
          f"{resid:.3e} (tol 1e-26), relative moment error {moment_err:.2e} "
          f"(tol {moment_tol:g})")
    assert resid <= 1e-26
    assert moment_err <= moment_tol
    assert res.moment_residual == moment_verification(res.control, sys_)
    # the data are real, so v is real: its weights' mirror bound on sup |Im v|
    # reads 6e-17 .. 1.05e-16 of v_norm over these configurations
    assert 0.0 < res.imag_residual <= 1e-15 * res.norm


def test_series_controls_converge_to_the_eps0_control():
    # the paper's question: as eps -> 0 the series controls at a fixed T tend
    # to the control the same construction builds at eps = 0.  Every eps
    # builds on one grid (half-width 150, n_fft 8192), so the controls are
    # exponential sums on the same rates and their distance is Parseval's
    # sum on the weight difference.  Measured at alpha 0.25, N 8, T 14:
    # 6.41e-2, 6.83e-3, 6.88e-4 and 6.88e-5 at eps 1e-2 .. 1e-5, O(eps)
    T, data = 14.0, seeded_data()
    fams, ctrls = {}, {}
    for eps in (0.0, 1e-2, 1e-3, 1e-4, 1e-5):
        cfg = validate_config(ProblemConfig(alpha=0.25, epsilon=eps, n_modes=8),
                              for_synthesis=True)
        fams[eps] = bio.zeta_eval(bio.build_theta_family(cfg, range(-8, 9)))
        ctrls[eps] = synthesize_control_series(data, fams[eps], T)
    v0 = ctrls.pop(0.0)
    assert v0.norm == pytest.approx(0.607763, abs=1e-6)
    dists = []
    for eps, res in ctrls.items():
        assert np.array_equal(res.control.rates, v0.control.rates)
        assert fams[eps].period == fams[0.0].period
        assert res.control.center == v0.control.center == T / 2.0
        dists.append(exp_sum_norm(res.control.weights - v0.control.weights,
                                  fams[0.0].period))
    print("||v_eps - v_0|| at eps 1e-2 .. 1e-5:", " ".join(f"{d:.3e}" for d in dists))
    assert all(a >= 5.0 * b for a, b in zip(dists, dists[1:]))
    assert 5e-2 <= dists[0] <= 8e-2


def test_series_refuses_horizon_below_family_window():
    # the control is the family's window shifted by T/2; below min_horizon
    # that leaves (0, T), so the synthesis refuses instead of clipping
    fam, _, data, _ = _damped_series(0.75, 0.1, 3)
    T = fam.min_horizon - 1.0
    with pytest.raises(ConfigError, match=f"{T:.3f}.*{fam.min_horizon:.3f}"):
        synthesize_control_series(data, fam, T)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_series_norm_matches_quadrature_of_terms(alpha):
    # v_norm comes from the control's weights by Parseval over the rates'
    # common period; composite Gauss-Legendre quadrature of the control's
    # own exponential sum over its support is an independent value
    fam, T, data, res = _damped_series(alpha, 0.1, 3)
    t, wt = gauss_legendre(*res.control.support)
    quad = math.sqrt(float(np.sum(wt * np.abs(control_values(res.control, t)) ** 2)))
    print(f"alpha {alpha}: v_norm {res.norm:.15e}, Gauss-Legendre {quad:.15e}")
    assert res.norm == pytest.approx(quad, rel=1e-13)


# ---------------------------------------------------------------------------
# Ingham ratios
# ---------------------------------------------------------------------------

def test_ingham_scale_invariance():
    idx = [n for n in range(-6, 7) if n != 0]
    rng = np.random.default_rng(0)
    b = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    r1 = ingham_ratio(idx, b, 0.1, 0.25, 3 * math.pi, 2.0)
    r2 = ingham_ratio(idx, 10.0 * b, 0.1, 0.25, 3 * math.pi, 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_ingham_quad_matches_gram():
    idx = [n for n in range(-12, 13) if n != 0]
    rng = np.random.default_rng(5)
    b = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    rg = ingham_ratio(idx, b, 0.1, 0.25, 3 * math.pi, 1.0)
    rq = ingham_ratio_quad(idx, b, 0.1, 0.25, 3 * math.pi, 1.0)
    assert rq == pytest.approx(rg, rel=1e-10)


def test_ingham_rejects_zero_coefficients():
    idx = [1, -1]
    with pytest.raises(ConfigError):
        ingham_ratio(idx, [0.0, 0.0], 0.1, 0.25, TWO_PI, 1.0)


def test_ingham_trials_deterministic():
    a = ingham_trials(6, 0.1, 0.25, 3 * math.pi, 1.0, n_trials=10, seed=123)
    b = ingham_trials(6, 0.1, 0.25, 3 * math.pi, 1.0, n_trials=10, seed=123)
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def test_ingham_trials_build_the_gram_matrix_once(monkeypatch):
    # one 2T Gram matrix serves every draw, and each ratio is the one
    # `ingham_ratio` gives that draw alone (real parts drawn first)
    from viscowave import moment as mom
    built, gram = [], mom.gram_matrix

    def count(*args):
        built.append(args)
        return gram(*args)

    idx = np.array([n for n in range(-6, 7) if n != 0])
    rng = np.random.default_rng(123)
    draws = [rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx)) for _ in range(10)]
    want = [ingham_ratio(idx, b, 0.1, 0.25, 3 * math.pi, 1.0) for b in draws]
    monkeypatch.setattr(mom, "gram_matrix", count)
    got = ingham_trials(6, 0.1, 0.25, 3 * math.pi, 1.0, n_trials=10, seed=123)
    # the largest entry alone (the overflow probe), then the whole matrix once
    assert [len(args[0]) for args in built] == [1, len(idx)]
    assert got.tolist() == want


def test_ingham_trials_refuse_an_overflowing_gram_before_building_it():
    # the 2T Gram matrix of 4000 modes would take 256 MB; its largest entry,
    # the diagonal one at |n| = N, overflows, so the refusal comes first
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="not finite: modes up to .n. = 2000"):
            ingham_trials(2000, 0.5, 0.95, 30 * math.pi, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
