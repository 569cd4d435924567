import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscowave.core import (ConfigError, ControlSignal, DegenerateAlphaError,
                            ModalState, ProblemConfig, exp_integral,
                            gauss_legendre_01, h0_norm_sq, load_config, log1p_c,
                            next_pow2, sinc_c, sinhc, validate_config)
from viscowave.spectrum import gamma_eps


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_validate_fills_branch_point():
    assert gamma_eps(0.1, 0.75) == pytest.approx(10.0 ** 2.0)
    # below 1/2 there is no branch point
    with pytest.raises(ConfigError):
        gamma_eps(0.1, 0.25)


def test_validate_idempotent():
    cfg = validate_config(ProblemConfig(alpha=0.75, epsilon=0.3))
    assert validate_config(cfg) == cfg


@given(alpha=st.floats(0.0, 0.999), epsilon=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_validate_idempotent_property(alpha, epsilon):
    try:
        cfg = validate_config(ProblemConfig(alpha=alpha, epsilon=epsilon))
    except ConfigError:
        return
    assert validate_config(cfg) == cfg


@pytest.mark.parametrize("kw", [
    dict(alpha=-0.1, epsilon=0.1),
    dict(alpha=1.0, epsilon=0.1),
    dict(alpha=0.25, epsilon=-0.5),
    dict(alpha=0.25, epsilon=0.1, horizon_T=0.0),
    dict(alpha=0.25, epsilon=0.1, n_modes=0),
    dict(alpha=0.25, epsilon=0.1, horizon_T=math.nan),
    dict(alpha=0.25, epsilon=0.1, horizon_T=math.inf),
])
def test_validate_rejects(kw):
    with pytest.raises(ConfigError):
        validate_config(ProblemConfig(**kw))


def test_degenerate_alpha_only_blocks_synthesis():
    cfg = ProblemConfig(alpha=0.5, epsilon=0.1)
    validate_config(cfg)  # diagnostics are fine
    with pytest.raises(DegenerateAlphaError):
        validate_config(cfg, for_synthesis=True)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[problem]\nalpha = 0.75\nepsilon = 0.05\nn_modes = 12\n"
                 "horizon_T = 9.0\n")
    cfg = load_config(str(p))
    assert cfg == ProblemConfig(alpha=0.75, epsilon=0.05, horizon_T=9.0, n_modes=12)
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "alpha", "epsilon", "horizon_T", "n_modes"]
    assert gamma_eps(cfg.epsilon, cfg.alpha) == pytest.approx(20.0 ** 2)


def test_load_config_requires_alpha_epsilon(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nalpha = 0.25\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


OK_KEYS = "[problem]\nalpha = 0.25\nepsilon = 0.1\n"


@pytest.mark.parametrize("text,named", [
    # a typo in a key no longer falls back to the default
    (OK_KEYS + "n_mode = 3\n", "'n_mode'"),
    # construction constants are not problem parameters
    (OK_KEYS + "delta = 0.3\n", "'delta'"),
    (OK_KEYS + "smoothing_a = 0.5\n", "'smoothing_a'"),
    (OK_KEYS + "Horizon_T = 9.0\n", "'Horizon_T'"),
    (OK_KEYS + "[quad]\npoints_per_unit = 24\n", "[quad]"),
    ("[problem]\nalpha = abc\nepsilon = 0.1\n", "alpha must be a number"),
    (OK_KEYS + "n_modes = 3.5\n", "n_modes must be an integer"),
    (OK_KEYS + "horizon_T =\n", "horizon_T must be a number"),
    ("alpha = 0.25\nepsilon = 0.1\n", "not a valid INI file"),
    (OK_KEYS + "alpha = 0.3\n", "not a valid INI file"),
], ids=["typo", "delta", "smoothing", "key-case", "quad-section", "non-numeric",
        "non-integer", "empty-value", "no-section-header", "repeated-key"])
def test_load_config_strict(tmp_path, text, named):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(str(p))


# ---------------------------------------------------------------------------
# modal data and controls
# ---------------------------------------------------------------------------

def test_modal_state_validation():
    with pytest.raises(ConfigError):
        ModalState.from_arrays([1, 1], [0, 0], [0, 0], [1, 1])
    with pytest.raises(ConfigError):
        ModalState.from_arrays([2, 1], [0, 0], [0, 0], [1, 1])
    with pytest.raises(ConfigError):
        ModalState.from_arrays([1], [0], [0], [0])   # uncontrollable mode


def test_h0_norm_example():
    data = ModalState.from_arrays([1], [1.0], [2.0], [1.0])
    assert h0_norm_sq(data) == pytest.approx(5.0)


def test_h0_norm_profile_homogeneity(eight_modes):
    # scaling the profile by c divides the norm by |c|^2
    scaled = ModalState.from_arrays(eight_modes.indices, eight_modes.u0,
                                    eight_modes.u1,
                                    [3.0 * f for f in eight_modes.profile])
    assert h0_norm_sq(scaled) == pytest.approx(h0_norm_sq(eight_modes) / 9.0)


def test_control_signal_basics():
    v = ControlSignal(weights=[0.5, 0.5], rates=[1j, -1j], center=1.0,
                      support=(0.0, 2.0))
    assert v.weights.dtype == complex and v.rates.dtype == complex
    assert v.weights.shape == v.rates.shape == (2,)
    with pytest.raises(ConfigError):
        ControlSignal(weights=[1.0], rates=[1j], center=0.0, support=(1.0, 1.0))
    with pytest.raises(ConfigError):
        ControlSignal(weights=[1.0, 2.0], rates=[1j], center=0.0, support=(0.0, 1.0))


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def test_log1p_keeps_tiny_arguments():
    w = np.array([1e-20 + 1e-22j, 1e-3, 0.2j, 0.5 + 1j])
    got = log1p_c(w.real, w.imag)
    assert got[0] == pytest.approx(1e-20 + 1e-22j, rel=1e-14)
    # cross-check the series region against mpmath-free reference: the real
    # part of log(1+w) equals 0.5 log|1+w|^2
    for wi, gi in zip(w, got):
        assert gi.real == pytest.approx(0.5 * math.log(abs(1 + wi) ** 2), rel=1e-13, abs=1e-15)
        assert gi.imag == pytest.approx(np.angle(1 + wi), rel=1e-13, abs=1e-15)


@given(st.floats(-0.24, 0.24), st.floats(-0.1, 0.1))
@settings(max_examples=80, deadline=None)
def test_log1p_matches_real_log1p(re, im):
    w = complex(re, im)
    got = complex(log1p_c(re, im))
    want = complex(np.log1p(re) if im == 0 else np.log(1 + w))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _log1p_rel_err_mp(w) -> float:
    """Largest |log1p_c(Re w, Im w) - log(1+w)| / |log(1+w)| against 40-digit
    mpmath."""
    got = log1p_c(w.real, w.imag)
    worst = 0.0
    with mp.workdps(40):
        for wi, gi in zip(w, got):
            ref = mp.log(1 + mp.mpc(wi.real, wi.imag))
            worst = max(worst, float(abs(mp.mpc(gi.real, gi.imag) - ref) / abs(ref)))
    return worst


def _log1p_points(region: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 600))
    if region == "random":
        # |w| log-uniform over 1e-20 .. 1e2, uniform phase
        return 10.0 ** rng.uniform(-20.0, 2.0, 600) * phase
    if region == "cancellation_band":
        # |1 + w| = 1 with |w| = 2 |sin(theta/2)| not small: the log1p
        # argument x(2+x) + y^2 cancels to ~0 while the phase stays O(|w|)
        theta = rng.uniform(0.05, np.pi, 600) * rng.choice([-1.0, 1.0], 600)
        return -1.0 + np.exp(1j * theta)
    # |1 + w| < 1/4, down to 1e-12: the log|1+w| branch
    return -1.0 + 10.0 ** rng.uniform(-12.0, np.log10(0.25), 600) * phase


@pytest.mark.parametrize("region", ["random", "cancellation_band", "near_minus_one"])
def test_log1p_closed_form_matches_mpmath(region):
    worst = _log1p_rel_err_mp(_log1p_points(region))
    print(f"log1p_c {region}: max relative error {worst:.2e} vs 40-digit mpmath")
    assert worst < 1e-15


def test_log1p_saturating_inputs():
    got = log1p_c(np.array([-1.0, 1e200, -2.0]), np.array([0.0, 1e200, 0.0]))
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(complex(math.log(math.hypot(1e200, 1e200)), math.pi / 4),
                                   rel=1e-15)
    assert got[2] == pytest.approx(1j * math.pi, rel=1e-15)


def test_sinhc_and_sinc():
    assert complex(sinhc(0.0)) == 1.0
    assert complex(sinhc(1.0)) == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert complex(sinhc(1e-8)) == pytest.approx(1.0 + 1e-16 / 6.0, rel=1e-15)
    assert complex(sinc_c(np.pi)) == pytest.approx(0.0, abs=1e-15)
    assert complex(sinc_c(0.5)) == pytest.approx(math.sin(0.5) / 0.5, rel=1e-14)
    # series/direct switch is continuous
    lo, hi = complex(sinhc(0.999e-3)), complex(sinhc(1.001e-3))
    assert abs(lo - hi) < 1e-9


def _exp_integral_points(region: str):
    """Inputs (p, a, rho, c, lo, hi) with q = p + rho set through y = qL/2.

    Endpoints and centres sit on a 1/64 grid, so L, mid and the offsets are
    exact; c stays within 1/8 of mid and a within 3 of it, which keeps the
    exponents (and so the rounding of the float inputs themselves) moderate.
    """
    rng = np.random.default_rng({"sinhc_switch": 1, "large_re": 2, "complex": 3}[region])
    n = 300
    lo = rng.integers(-192, 64, n) / 64.0
    length = rng.integers(16, 128, n) / 64.0
    hi = lo + length
    mid = 0.5 * (lo + hi)
    a = mid + rng.integers(-192, 193, n) / 64.0
    c = mid + rng.integers(-8, 9, n) / 64.0
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    if region == "sinhc_switch":
        # |qL/2| log-uniform over 1e-6 .. 1, across sinhc's series switch at 1e-3
        y = 10.0 ** rng.uniform(-6.0, 0.0, n) * phase
    elif region == "large_re":
        # Re(qL/2) = +-(5 .. 20): |Re q| up to 160, growing and decaying
        y = rng.choice([-1.0, 1.0], n) * rng.uniform(5.0, 20.0, n) + 1j * rng.normal(size=n)
    else:
        y = 10.0 ** rng.uniform(-1.0, np.log10(20.0), n) * phase
    rho = 2.0 * y / length - p
    return p, a, rho, c, lo, hi


@pytest.mark.parametrize("region", ["sinhc_switch", "large_re", "complex"])
def test_exp_integral_matches_mpmath(region):
    # reference: the antiderivative difference (e^{q hi} - e^{q lo})/q
    # e^{-pa - rho c} at 40 digits, a form the kernel does not use
    args = _exp_integral_points(region)
    got = exp_integral(*args)
    worst = 0.0
    with mp.workdps(40):
        for g, (p, a, rho, c, lo, hi) in zip(got, zip(*args)):
            pm, rm = mp.mpc(p.real, p.imag), mp.mpc(rho.real, rho.imag)
            q = pm + rm
            ref = (mp.exp(q * hi) - mp.exp(q * lo)) / q * mp.exp(-pm * a - rm * c)
            worst = max(worst, float(abs(mp.mpc(g.real, g.imag) - ref) / abs(ref)))
    print(f"exp_integral {region}: max relative error {worst:.2e} vs 40-digit mpmath")
    assert worst < 1e-14


def test_exp_integral_empty_interval_is_zero():
    p = np.array([1.0 + 2.0j, 800.0, -800.0 + 1j])
    got = exp_integral(p, -5.0, 0.5j, 3.0, np.array([1.0, 2.0, 2.0]), np.array([1.0, 1.0, -4.0]))
    assert np.all(got == 0.0)
    # broadcasting keeps every term: (2, 1) x (3,) -> (2, 3), nothing summed
    assert exp_integral(np.ones((2, 1)), 0.0, np.zeros(3), 0.0, 0.0, 1.0).shape == (2, 3)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1025) == 2048


def test_gauss_legendre_nodes_and_weights():
    # Newton on the Legendre recurrence: 64 nodes on (0, 1) as numpy's
    # leggauss gives them, weights within 5.7e-14 of 40-digit ones (leggauss
    # 1.3e-12), and x^j integrated for every degree the rule is exact for
    s, w = gauss_legendre_01(64)
    x_np, w_np = np.polynomial.legendre.leggauss(64)
    assert np.max(np.abs(s - 0.5 * (x_np + 1.0))) <= 2.3e-16
    with mp.workdps(40):
        worst = 0.0
        for si, wi in zip(s, w):
            x = 2 * mp.mpf(si) - 1
            for _ in range(4):
                dp = 64 * (x * mp.legendre(64, x) - mp.legendre(63, x)) / (x * x - 1)
                x -= mp.legendre(64, x) / dp
            dp = 64 * (x * mp.legendre(64, x) - mp.legendre(63, x)) / (x * x - 1)
            ref = 1 / ((1 - x * x) * dp * dp)
            worst = max(worst, float(abs(wi - ref) / ref))
    assert worst <= 1e-13
    for j in range(128):
        assert math.fsum(w * s ** j) == pytest.approx(1.0 / (j + 1), rel=1e-14)
