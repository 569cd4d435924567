import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscowave.core import ConfigError
from viscowave.spectrum import lambda_conj_vals
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
        got = ev.eval(m, x[keep].astype(complex))
        want = (-1.0) ** m * m * np.sin(np.pi * x[keep]) / (
            np.pi * x[keep] * (x[keep] - m))
        assert np.max(np.abs(got - want)) < 1e-10


def test_small_viscosity_continuity():
    # eps -> 0 limit approaches the closed form linearly in eps
    ev = ProductEvaluator(1e-8, 0.25)
    z = np.array([0.3, 2.7, -5.2, 10.1], dtype=complex)
    want = np.array([product_eps0(2, zz) for zz in z])
    got = ev.eval(2, z)
    assert np.max(np.abs(got - want)) < 1e-5


# ---------------------------------------------------------------------------
# paired term against a 40-digit reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_pair_log_matches_mpmath(alpha):
    # log(((b+iz)^2 + t^2) / ((b - conj(lambda_m))^2 + t^2)), b = eps t^{2a},
    # in 40 digits from the same double inputs.  Real z never hits a node
    # (nodes have Im = eps n^{2a} > 0); z = t puts the factor near its zero
    # at b + iz = it, which takes the |1+w| < 1/4 path.  t = |m| is the
    # excluded pair (den = 0) and never reaches _pair_log.
    eps = 0.1
    rng = np.random.default_rng(5)
    ts = np.concatenate([np.unique(np.round(np.geomspace(1.0, 1e4, 30))),
                         rng.uniform(1.0, 1e4, 10)])
    zs = np.concatenate([rng.uniform(-2000.0, 2000.0, 24), [0.0, 1.0, 7.0, 250.0, 2000.0]])
    worst, near, count = 0.0, 0, 0
    with mp.workdps(40):
        for m in (1, -4):
            ts_m = ts[ts != abs(m)]
            lam = complex(lambda_conj_vals(m, eps, alpha))
            lam_mp = mp.mpc(lam.real, lam.imag)
            got = _pair_log(ts_m[:, None], zs[None, :].astype(complex), lam, eps, alpha)
            count += got.size
            for i, t in enumerate(ts_m):
                t_mp = mp.mpf(t)
                b = mp.mpf(eps) * t_mp ** (2 * mp.mpf(alpha))
                den = (b - lam_mp) ** 2 + t_mp ** 2
                for j, z in enumerate(zs):
                    u = ((b + 1j * mp.mpf(z)) ** 2 + t_mp ** 2) / den
                    ref = mp.log(u)
                    g = got[i, j]
                    worst = max(worst, float(abs(mp.mpc(g.real, g.imag) - ref) / abs(ref)))
                    near += abs(u) < 0.25
    print(f"_pair_log alpha={alpha}: max relative error {worst:.2e} vs 40-digit mpmath "
          f"({near} of {count} points on the |1+w| < 1/4 path)")
    assert near > 0
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# interpolation identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_node_matrix_is_identity(eps, alpha):
    ev = ProductEvaluator(eps, alpha)
    rng = [m for m in range(-6, 7) if m != 0]
    dev, max_dev = interpolation_check(rng, rng, ev)
    # node evaluations reduce to exact 0/1 through the factored form
    assert max_dev == 0.0
    assert dev.shape == (len(rng), len(rng))


def test_index_zero_rejected():
    ev = ProductEvaluator(0.1, 0.25)
    with pytest.raises(ConfigError):
        ev.log_eval(0, 1.0 + 0j)


# ---------------------------------------------------------------------------
# declared error bound and truncation
# ---------------------------------------------------------------------------

def test_truncation_grows_with_argument():
    ev = ProductEvaluator(0.1, 0.25)
    assert ev.cutoff(1, 10.0) == 512          # floor
    assert ev.cutoff(1, 5000.0) == 10001      # 2 z + 1 rule


def test_bound_covers_refinement():
    # doubling the direct cutoff moves the value by less than the bound
    rng = np.random.default_rng(3)
    z = rng.uniform(-30, 30, 25) + 1j * rng.uniform(-3, 3, 25)
    for eps, alpha in [(0.1, 0.25), (0.1, 0.75)]:
        ev = ProductEvaluator(eps, alpha)
        ref = ProductEvaluator(eps, alpha, n_min=2048)
        for m in (1, 2, 7):
            v, b = ev.eval_with_bound(m, z)
            v_ref = ref.eval(m, z)
            assert np.all(np.abs(v - v_ref) <= b)


def test_bound_scalar_form():
    ev = ProductEvaluator(0.1, 0.25)
    v, b = ev.eval_with_bound(1, 0.5 + 0.1j)
    assert isinstance(v, complex) and isinstance(b, float)
    assert b < 1e-6
    assert abs(v - ev.eval(1, 0.5 + 0.1j)) == 0.0


@given(m=st.integers(1, 12), x=st.floats(-40.0, 40.0), y=st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_mirror_conjugation_identity(m, x, y):
    # conjugating the eigenvalue lattice maps P_m(z) to P_{-m}: the exact
    # relation is P_{-m}(-z) = conj(P_m(conj z))
    ev = ProductEvaluator(0.1, 0.25)
    z = complex(x, y)
    lhs = complex(ev.eval(-m, -z))
    rhs = complex(ev.eval(m, np.conjugate(z))).conjugate()
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# growth bound and envelope fit
# ---------------------------------------------------------------------------

def test_growth_bound_frozen_constants():
    ev = ProductEvaluator(0.1, 0.25)
    rows, c_hat = growth_bound_check(64, 0.1, 0.25, ev)
    q = {m: qm for m, qm, _ in rows}
    assert c_hat == 0.0                      # clamped: no growth at low alpha
    assert q[1] == pytest.approx(1.0300, abs=2e-4)
    assert q[64] == pytest.approx(1.0757, abs=2e-4)

    ev = ProductEvaluator(0.1, 0.75)
    rows, c_hat = growth_bound_check(64, 0.1, 0.75, ev)
    q = {m: qm for m, qm, _ in rows}
    assert c_hat == pytest.approx(2.6475, abs=2e-4)
    assert q[1] == pytest.approx(1.6196, abs=2e-4)
    assert math.log10(q[64]) == pytest.approx(48.5, abs=0.1)


def test_growth_bound_holdout():
    for eps in (0.1, 0.5):
        for alpha in (0.25, 0.75):
            ev = ProductEvaluator(eps, alpha)
            rows, c_hat = growth_bound_check(64, eps, alpha, ev)
            assert c_hat >= 0.0
            for m, qm, bound in rows:
                if m > 32:
                    assert qm <= bound


def test_envelope_fit_orders():
    x = np.linspace(0.05, 400.0, 1500)
    ev = ProductEvaluator(0.1, 0.25)
    fit = envelope_fit(4, 0.1, 0.25, x, ev)
    assert fit.satisfied
    assert fit.omega_hat <= 0.8              # low alpha: nearly bounded
    ev = ProductEvaluator(0.1, 0.75)
    fit = envelope_fit(4, 0.1, 0.75, x, ev)
    assert fit.satisfied
    assert 0.5 <= fit.omega_hat <= 3.2       # high alpha: genuine growth
    assert fit.c_hat >= 1.0
