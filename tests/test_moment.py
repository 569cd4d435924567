import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import control_values, ingham_ratio_quad, seeded_data
from viscowave import biorthogonal as bio
from viscowave import pde
from viscowave.core import ConfigError, ModalState, ProblemConfig, validate_config
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
        indices = (1,)   # missing -1
        rates = np.array([1j])
        weights = {1: np.array([1.0 + 0j])}
        window = (-math.pi, math.pi)

    with pytest.raises(ConfigError):
        synthesize_control_series(resonant_data, TinyFamily(), TWO_PI, 0.0, 0.0)


def test_series_control_is_exact_off_the_family_window(resonant_data):
    # at eps = 0 the family lives on (-pi, pi); on a longer horizon the
    # control is that window shifted by T/2, and still solves the moments
    fam = bio.build_sinc_family([-1, 1])
    T = 3 * math.pi
    res = synthesize_control_series(resonant_data, fam, T, 0.0, 0.0)
    assert res.control.support == pytest.approx((0.5 * math.pi, 2.5 * math.pi))
    assert np.array_equal(res.control.rates, fam.rates)
    assert res.norm == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    sys_ = MomentSystem.build(resonant_data, T, 0.0, 0.0)
    assert moment_verification(res.control, sys_) < 1e-14


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
    return fam, T, data, synthesize_control_series(data, fam, T, eps, alpha)


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


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_series_norm_matches_quadrature_of_terms(alpha):
    # v_norm comes from the family's samples by the trapezoid rule; composite
    # Gauss-Legendre quadrature of the control's own exponential sum is an
    # independent value (measured agreement 4e-16 and 6e-15 relative)
    fam, T, data, res = _damped_series(alpha, 0.1, 3)
    lo, hi = res.control.support
    x, w = np.polynomial.legendre.leggauss(48)
    edges = np.linspace(lo, hi, 65)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
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
