import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscowave.core import ConfigError, DegenerateAlphaError
from viscowave.spectrum import (E, gamma_eps, lambda_conj_vals,
                                lambda_vals, node_start,
                                node_sum_bound, node_tail_sq_constant, phi_eps,
                                phi_eps_inverse)

ALPHAS = (0.25, 0.75)


# ---------------------------------------------------------------------------
# eigenvalue families
# ---------------------------------------------------------------------------

def test_lambda_literal():
    assert complex(lambda_vals(3, 0.1, 0.25)) == pytest.approx(
        complex(0.1 * 3 ** 0.5, 3.0))
    assert complex(lambda_vals(-3, 0.1, 0.25)) == pytest.approx(
        complex(0.1 * 3 ** 0.5, -3.0))
    # conjugate family flips the imaginary part
    assert complex(lambda_conj_vals(3, 0.1, 0.25)) == pytest.approx(
        complex(0.1 * 3 ** 0.5, -3.0))


def test_lambda_allows_degenerate_alpha():
    # `spectrum dump` and `ingham run --omega-weight` read the eigenvalues
    # at alpha = 1/2
    v = complex(lambda_vals(2, 0.5, 0.5))
    assert v == pytest.approx(complex(1.0, 2.0))


def test_eigenvalue_families():
    lam = complex(lambda_vals(4, 0.1, 0.25))
    assert lam == pytest.approx(complex(0.1 * 2.0, 4.0))
    # eps = 0 is the conservative limit i n
    assert complex(lambda_vals(4, 0.0, 0.25)) == 4j


@given(n=st.integers(1, 400), eps=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
       alpha=st.sampled_from(ALPHAS))
@settings(max_examples=100, deadline=None)
def test_lambda_conjugate_symmetry(n, eps, alpha):
    plus = complex(lambda_vals(n, eps, alpha))
    minus = complex(lambda_vals(-n, eps, alpha))
    assert minus == plus.conjugate()
    assert plus.imag == n
    assert plus.real == pytest.approx(eps * n ** (2 * alpha))


def test_real_part_monotone():
    for alpha in ALPHAS:
        re = lambda_vals(np.arange(1, 200), 0.1, alpha).real
        assert np.all(np.diff(re) > 0)


# ---------------------------------------------------------------------------
# weight, inverse, root map
# ---------------------------------------------------------------------------

def test_branch_point():
    assert gamma_eps(0.1, 0.75) == pytest.approx(100.0)
    assert gamma_eps(0.5, 0.75) == pytest.approx(4.0)


def test_phi_branches():
    # below 1/2 the weight is a single power law
    assert float(phi_eps(16.0, 0.1, 0.25)) == pytest.approx(0.4)
    # above 1/2 it crosses over at gamma
    g = gamma_eps(0.1, 0.75)
    assert float(phi_eps(g, 0.1, 0.75)) == pytest.approx(0.1 * g ** 1.5)
    assert float(phi_eps(g, 0.1, 0.75)) == pytest.approx((g / 0.1) ** (1 / 1.5))
    big = float(phi_eps(1e6, 0.1, 0.75))
    assert big == pytest.approx((1e6 / 0.1) ** (1 / 1.5))
    with pytest.raises(DegenerateAlphaError):
        phi_eps(1.0, 0.1, 0.5)


@given(y=st.floats(1e-3, 1e6), eps=st.sampled_from([0.01, 0.1, 0.5]),
       alpha=st.sampled_from(ALPHAS))
@settings(max_examples=120, deadline=None)
def test_phi_roundtrip(y, eps, alpha):
    x = float(phi_eps_inverse(y, eps, alpha))
    back = float(phi_eps(x, eps, alpha))
    assert back == pytest.approx(y, rel=1e-12)


def test_phi_inverse_rejects_flat_weight():
    with pytest.raises(ConfigError):
        phi_eps_inverse(1.0, 0.0, 0.25)


# ---------------------------------------------------------------------------
# node sequence and proof constants
# ---------------------------------------------------------------------------

def _nodes(m, eps, alpha, count):
    # multiplier nodes a_n = phi^{-1}(n)/e for n = n_m .. n_m + count - 1
    start = node_start(m, eps, alpha)
    ns = np.arange(start, start + count, dtype=float)
    return start, np.asarray(phi_eps_inverse(ns, eps, alpha)) / E


def test_first_node_small_viscosity():
    # phi^{-1}(1)/e with eps = 0.01, alpha = 1/4: (1/0.01)^2 / e
    start, an = _nodes(1, 0.01, 0.25, 1)
    assert start == 1
    assert an[0] == pytest.approx(10000.0 / E, rel=1e-13)


def test_node_start_clears_eigenvalue():
    assert node_start(4, 0.1, 0.75) == 4
    lam = abs(complex(lambda_vals(4, 0.1, 0.75)))
    _, an = _nodes(4, 0.1, 0.75, 3)
    assert an[0] >= lam * (1 - 1e-12)


def test_node_fifty():
    _, an = _nodes(1, 0.1, 0.75, 50)
    assert an[-1] == pytest.approx(23.17495, rel=1e-5)
    assert np.all(np.diff(an) > 0)


def test_node_sum_bound_dominates():
    # L2 bounds the full reciprocal node sum (checked against a long direct sum)
    for eps, alpha in [(0.1, 0.25), (0.1, 0.75), (0.01, 0.75)]:
        ns = np.arange(1, 400000, dtype=float)
        s = float(np.sum(1.0 / (phi_eps_inverse(ns, eps, alpha) / E)))
        assert s <= node_sum_bound(eps, alpha)


def test_node_sum_bound_formulas():
    assert node_sum_bound(0.1, 0.25) == pytest.approx(
        (2.0 / 0.5) * 0.1 ** 2 * E)          # ((4a+1)/2a) eps^{1/2a} e
    assert node_sum_bound(0.1, 0.75) == pytest.approx((2.5 / 0.5) * E)


def test_node_tail_sq_constant():
    assert node_tail_sq_constant(0.25) == pytest.approx(2.0 ** 0.25 * E ** 2)
    assert node_tail_sq_constant(0.75) == pytest.approx(12.0 * E ** 2)
    # it dominates sum over the tail of (a_1/a_n)^2 * n... checked where used


def test_alpha_degeneracy_raises():
    for fn in (lambda: phi_eps(2.0, 0.1, 0.5),
               lambda: phi_eps_inverse(1.0, 0.1, 0.5)):
        with pytest.raises(DegenerateAlphaError):
            fn()
