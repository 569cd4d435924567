import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscowave.core import ControlSignal, ModalState, ProblemConfig, validate_config
from viscowave.moment import MomentSystem, minnorm_control
from viscowave.pde import (final_residual, modal_energy, mode_roots, simulate,
                           stiffness_for)


def _cfg(alpha=0.25, eps=0.1, **kw):
    return validate_config(ProblemConfig(alpha=alpha, epsilon=eps, **kw))


# ---------------------------------------------------------------------------
# roots and stiffness
# ---------------------------------------------------------------------------

def test_corrected_roots_literal():
    r_plus, r_minus = mode_roots(3, 0.1, 0.25)
    b = 0.1 * 3 ** 0.5
    assert r_plus == complex(-b, 3.0)
    assert r_minus == complex(-b, -3.0)


def test_wave_roots():
    r_plus, r_minus = mode_roots(2, 0.0, 0.0)
    assert r_plus == 2j and r_minus == -2j


def test_stiffness_values():
    assert float(stiffness_for(3, 0.1, 0.25)) == pytest.approx(
        9.0 + 0.01 * 3.0)                     # n^2 + eps^2 n^{4a}
    assert float(stiffness_for(3, 0.0, 0.25)) == 9.0


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _final(state, T, eps=0.1, alpha=0.25, control=None):
    """(u, u') of every mode of `state` at T, propagated from t = 0."""
    final = simulate(_cfg(alpha=alpha, eps=eps, horizon_T=T), state, control).final
    return np.asarray(final.u0), np.asarray(final.u1)


def _one_mode(n, u0, u1):
    return ModalState.from_arrays([n], [u0], [u1], [1.0])


def test_free_decay_oracle():
    # n = 1: u(t) = e^{-b t} cos t from u0 = 1, u1 = -b; at t = pi this is
    # -e^{-0.1 pi} for eps = 0.1 (any alpha, since 1^{2a} = 1)
    u, ud = _final(_one_mode(1, 1.0, -0.1), math.pi)
    assert u[0] == pytest.approx(-math.exp(-0.1 * math.pi), rel=1e-14)
    assert ud[0] == pytest.approx(0.1 * math.exp(-0.1 * math.pi), rel=1e-12)


@given(t_mid=st.floats(0.1, 6.0), u0re=st.floats(-2, 2), u1im=st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_propagator_group_property(t_mid, u0re, u1im):
    # free motion over (0, 2 pi) equals free motion over (0, t_mid) followed
    # by free motion over (0, 2 pi - t_mid) from the state reached at t_mid;
    # several modes at once, so each leg is one many-mode propagation
    state = ModalState.from_arrays([1, 3], [complex(u0re, 0.3), 0.5],
                                   [complex(0.1, u1im), -0.2j], [1.0, 1.0])
    kw = dict(eps=0.1, alpha=0.75)
    direct = _final(state, 2 * math.pi, **kw)
    mid = ModalState.from_arrays(state.indices, *_final(state, t_mid, **kw),
                                 state.profile)
    two_leg = _final(mid, 2 * math.pi - t_mid, **kw)
    assert np.max(np.abs(direct[0] - two_leg[0])) < 1e-13
    assert np.max(np.abs(direct[1] - two_leg[1])) < 1e-13


def test_decay_envelope_exact():
    # the root-adapted variable y = u' - r_- u satisfies |y(t)| =
    # |y(0)| e^{-eps n^{2a} t} exactly for the corrected system
    for eps, alpha, n in [(0.1, 0.25, 4), (0.3, 0.75, 2)]:
        _, r_minus = mode_roots(n, eps, alpha)
        u0, u1 = 0.7 - 0.2j, 0.1 + 0.9j
        y0 = u1 - r_minus * u0
        t = 3.7
        u, ud = _final(_one_mode(n, u0, u1), t, eps=eps, alpha=alpha)
        y = ud[0] - r_minus * u[0]
        assert abs(y) == pytest.approx(
            abs(y0) * math.exp(-eps * n ** (2 * alpha) * t), rel=1e-13)


def test_forced_resonant_wave_mode():
    # wave mode n = 1 driven by v(s) = sin(s)/pi = (e^{is} - e^{-is})/(2 pi i)
    # with f_hat = 1 from rest: u(t) = (sin t - t cos t) / (2 pi), at any t
    w = 1.0 / (2j * math.pi)
    v = ControlSignal(weights=[w, -w], rates=[1j, -1j], center=0.0,
                      support=(0.0, 2 * math.pi))
    for t_end in (1.0162, math.pi, 2 * math.pi, 7.5):
        u, _ = _final(_one_mode(1, 0.0, 0.0), t_end, eps=0.0, alpha=0.0, control=v)
        s = min(t_end, 2 * math.pi)   # free motion after the support ends
        u_s = (math.sin(s) - s * math.cos(s)) / (2 * math.pi)
        ud_s = s * math.sin(s) / (2 * math.pi)
        want = u_s * math.cos(t_end - s) + ud_s * math.sin(t_end - s)
        assert u[0] == pytest.approx(want, rel=1e-13)   # measured 1.4e-16


def test_record_times_inside_and_past_the_support():
    # record times inside the control's support each integrate over their
    # own window, those past it share the support's window in one call;
    # either way the energy at t is that of a run with horizon t
    v = ControlSignal(weights=[0.3 - 0.1j, 0.2j, -0.4], rates=[1j, -0.05 + 2j, -0.1],
                      center=1.0, support=(0.5, 4.0))
    state = ModalState.from_arrays([1, 2], [0.4, -0.2j], [0.1j, 0.3], [1.0, 0.7])
    kw = dict(alpha=0.75, eps=0.1)
    traj = simulate(_cfg(horizon_T=6.0, **kw), state, v, record_points=12)
    for t, energy in zip(traj.times[1:], traj.energy[1:]):
        alone = simulate(_cfg(horizon_T=float(t), **kw), state, v)
        assert energy == pytest.approx(alone.energy[-1], rel=1e-13)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_final_state_independent_of_record_points(alpha, eight_modes):
    # the closed form runs from t = 0 at each record time, so the final
    # state does not depend on how many record times precede it
    T = 2 * math.pi
    res = minnorm_control(MomentSystem.build(eight_modes, T, 0.1, alpha))
    cfg = _cfg(alpha=alpha, eps=0.1, n_modes=8, horizon_T=T)
    full = simulate(cfg, eight_modes, res.control, record_points=256)
    last = simulate(cfg, eight_modes, res.control)
    assert len(full.times) == 257
    assert last.times.tolist() == [0.0, T]      # the default: start and end only
    assert last.final == full.final


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def test_modal_energy_formula():
    data = ModalState.from_arrays([1, 2], [1.0, 0.5], [0.0, 1.0], [1, 1])
    want = math.pi / 2 * ((1 + 0.01) * 1.0 + (4 + 0.01 * 2 ** 1.0) * 0.25 + 1.0)
    assert modal_energy(data, 0.1, 0.5 / 2) == pytest.approx(want)


def test_free_energy_monotone_and_dissipation():
    rng = np.random.default_rng(2)
    n = 10
    data = ModalState.from_arrays(range(1, n + 1), rng.normal(size=n),
                                  rng.normal(size=n), np.ones(n))
    cfg = _cfg(alpha=0.75, eps=0.2, n_modes=n)
    traj = simulate(cfg, data, None, record_points=256)
    assert np.all(np.diff(traj.energy) <= 1e-12 * traj.energy[0])
    # energy balance: E(0) - E(T) equals the integrated dissipation
    drop = traj.energy[0] - traj.energy[-1]
    diss = float(np.trapezoid(traj.dissipation, traj.times))
    assert diss == pytest.approx(drop, rel=5e-3)


def test_wave_energy_constant():
    data = ModalState.from_arrays([1, 4], [1.0, 0.3], [0.5, -0.2], [1, 1])
    cfg = _cfg(alpha=0.25, eps=0.0)
    traj = simulate(cfg, data, None, record_points=256)
    assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-12 * traj.energy[0]
    assert np.all(traj.dissipation == 0.0)    # no dissipation at eps = 0


def test_final_residual_zero_for_null_state():
    data = ModalState.from_arrays([1], [1.0], [0.0], [1.0])
    zero = ModalState.from_arrays([1], [0.0], [0.0], [1.0])
    assert final_residual(zero, data, 0.1, 0.25) == 0.0
    assert final_residual(data, data, 0.1, 0.25) == pytest.approx(1.0)
