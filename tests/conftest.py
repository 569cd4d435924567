import numpy as np
import pytest
from scipy.integrate import simpson

from viscowave.core import ModalState
from viscowave.spectrum import lambda_vals


def seeded_data(seed: int = 7, n: int = 8) -> ModalState:
    """Fixed 8-mode real data used across the solver tests: interleaved
    normal draws scaled by 1/n^2 and 1/n, profile 1 + 0.5 sin(1.7 n)."""
    rng = np.random.default_rng(seed)
    idx = list(range(1, n + 1))
    u0, u1, fh = [], [], []
    for k in idx:
        u0.append(rng.normal() / k ** 2)
        u1.append(rng.normal() / k)
        fh.append(1.0 + 0.5 * np.sin(1.7 * k))
    return ModalState.from_arrays(idx, u0, u1, fh)


def control_values(ctrl, t) -> np.ndarray:
    """The exponential-sum control sum_k w_k e^{r_k (t - center)} at times t,
    zero outside its support, summed term by term."""
    t = np.asarray(t, dtype=float)
    lo, hi = ctrl.support
    v = np.concatenate([np.exp(np.outer(tb - ctrl.center, ctrl.rates)) @ ctrl.weights
                        for tb in np.array_split(t, max(1, t.size // 256))])
    return np.where((t >= lo) & (t <= hi), v, 0.0)


def ingham_ratio_quad(indices, coeffs, eps: float, alpha: float, T: float,
                      omega_weight: float) -> float:
    """`moment.ingham_ratio` with the numerator by composite Simpson
    quadrature on 40001 points of (-T, T), an independent reference for its
    closed-form Gram numerator."""
    idx = np.asarray(indices)
    b = np.asarray(coeffs, dtype=complex)
    lams = lambda_vals(idx, eps, alpha)
    tg = np.linspace(-T, T, 40001)
    f = np.sum(b[:, None] * np.exp(lams[:, None] * tg[None, :]), axis=0)
    num = float(simpson(np.abs(f) ** 2, x=tg))
    den = float(np.sum(np.abs(b) ** 2 * np.exp(-omega_weight * eps
                                               * np.abs(idx) ** (2.0 * alpha))))
    return num / den


@pytest.fixture
def eight_modes() -> ModalState:
    return seeded_data()


@pytest.fixture
def resonant_data() -> ModalState:
    return ModalState.from_arrays([1], [np.pi / 2.0], [0.0], [np.pi / 2.0])
