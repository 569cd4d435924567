from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson

from viscowave import weierstrass as wei
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


def count_pair_work(monkeypatch) -> SimpleNamespace:
    """Record the work of the product's paired terms: per `_pair_log` call
    its point count (`points`) and its broadcast size in terms times points
    (`elements`); per point-by-point pair sum (`_pair_sum`: a one-point
    constant, a pass, or a panel pass's nodes and lone points, one call per
    pass) its point count (`sums`) and the elements of the `_pair_log` calls
    it made (`sum_elements`), which `pass_terms` predicts; per panel band
    sum (`_band_sum`, from the linear factors, one call per dense panel) its
    terms times points (`bands`); and per log F pass (`_pass`, after the
    fold) its point count (`passes`), its `_pair_log` elements
    (`pass_elements`) and its band elements (`pass_bands`)."""
    work = SimpleNamespace(points=[], elements=[], sums=[], sum_elements=[], bands=[],
                           passes=[], pass_elements=[], pass_bands=[])
    pair_log, band_sum = wei._pair_log, wei._band_sum

    def count_terms(t, z, *rest, **kw):
        work.points.append(np.size(z))
        work.elements.append(np.broadcast(t, z).size)
        return pair_log(t, z, *rest, **kw)

    def count_band(t, x, *rest, **kw):
        work.bands.append(np.broadcast(t, x).size)
        return band_sum(t, x, *rest, **kw)

    def counted(method, sizes, totals, band_totals=None):
        def run(self, z, *rest, **kw):
            sizes.append(np.size(z))
            start, band_start = len(work.elements), len(work.bands)
            out = method(self, z, *rest, **kw)
            totals.append(sum(work.elements[start:]))
            if band_totals is not None:
                band_totals.append(sum(work.bands[band_start:]))
            return out
        return run

    monkeypatch.setattr(wei, "_pair_log", count_terms)
    monkeypatch.setattr(wei, "_band_sum", count_band)
    for name, sizes, totals, band_totals in (
            ("_pair_sum", work.sums, work.sum_elements, None),
            ("_pass", work.passes, work.pass_elements, work.pass_bands)):
        method = getattr(wei.ProductEvaluator, name)
        monkeypatch.setattr(wei.ProductEvaluator, name,
                            counted(method, sizes, totals, band_totals))
    return work


def pass_terms(cuts) -> int:
    """Paired terms `_pair_log` forms in one log F pass over several points
    whose direct cutoffs are `cuts`: the points go, sorted by cutoff, in
    near-equal column blocks of at most `_COLS`, and each block's rows run
    to its largest cutoff.  The series past the cutoffs forms none."""
    k = np.sort(np.asarray(cuts))
    return sum(len(b) * int(b[-1]) for b in np.array_split(k, -(-len(k) // wei._COLS)))


def gauss_legendre(lo: float, hi: float, panels: int = 64, order: int = 48):
    """Nodes and weights of composite Gauss-Legendre quadrature on (lo, hi):
    `order` points on each of `panels` equal panels."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    return t, (half[:, None] * w[None, :]).ravel()


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
