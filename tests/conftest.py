from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson

from viscowave import core
from viscowave import multiplier as mul
from viscowave import weierstrass as wei
from viscowave.core import ConfigError, ModalState
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


def count_work(monkeypatch) -> SimpleNamespace:
    """Record the direct-head work of both canonical products at their one
    engine, `core.direct_sums`, as `weierstrass` and `multiplier` call it.
    Per engine call (`sums`): the calling module (`owner`), its point count
    (`points`), the terms its kernel calls formed (`terms`) and those calls
    (`calls`: the rows lo+1..hi, the points `z`, and `work`, the address and
    size of each work array the call's views lie in).  Per panel band sum
    of the product (`_band_sum`, from the linear factors, one call per dense
    panel) its terms times points (`bands`); per log F pass (`_pass`, after
    the fold) its point count, direct terms and band terms (`passes`)."""
    work = SimpleNamespace(sums=[], bands=[], passes=[])
    band_sum, one_pass = wei._band_sum, wei.ProductEvaluator._pass

    def engine(owner):
        def run(z, cuts, kernel, *rest, **kw):
            rec = SimpleNamespace(owner=owner, points=len(z), terms=0, calls=[])
            work.sums.append(rec)

            def counted(lo, hi, zc, views):
                rec.terms += (hi - lo) * len(zc)
                rec.calls.append(SimpleNamespace(
                    lo=lo, hi=hi, z=zc.copy(),
                    work=[(v.__array_interface__["data"][0], v.base.size) for v in views]))
                return kernel(lo, hi, zc, views)
            return core.direct_sums(z, cuts, counted, *rest, **kw)
        return run

    def count_band(t, x, *rest, **kw):
        work.bands.append(np.broadcast(t, x).size)
        return band_sum(t, x, *rest, **kw)

    def count_pass(self, key, *rest, **kw):
        sums, bands = len(work.sums), len(work.bands)
        out = one_pass(self, key, *rest, **kw)
        work.passes.append(SimpleNamespace(
            points=len(key), terms=sum(s.terms for s in work.sums[sums:]),
            bands=sum(work.bands[bands:])))
        return out

    monkeypatch.setattr(wei, "direct_sums", engine("weierstrass"))
    monkeypatch.setattr(mul, "direct_sums", engine("multiplier"))
    monkeypatch.setattr(wei, "_band_sum", count_band)
    monkeypatch.setattr(wei.ProductEvaluator, "_pass", count_pass)
    return work


def pass_terms(cuts) -> int:
    """Terms `core.direct_sums` forms over points of one kind whose direct
    cutoffs are `cuts`: sorted by cutoff, walked in ranges of STRIDE
    multiples over the points whose cutoff lies past the range's start, as
    many rows as BLOCK_TERMS allows at that point count, at least STRIDE,
    up to the largest cutoff."""
    k = np.sort(-(-np.asarray(cuts) // core.STRIDE) * core.STRIDE)
    lo, terms = 0, 0
    while count := len(k) - int(np.searchsorted(k, lo, side="right")):
        hi = min(lo + core.STRIDE * max(1, core.BLOCK_TERMS // (count * core.STRIDE)),
                 int(k[-1]))
        terms += count * (hi - lo)
        lo = hi
    return terms


def pair_log(t, z, eps: float, alpha: float) -> np.ndarray:
    """`weierstrass._pair_log` as a new complex array, at least 1-d, formed
    on four work arrays of the broadcast shape allocated here."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(z), (1,))
    re, im = wei._pair_log(t, z, eps, alpha, [np.empty(shape) for _ in range(4)])
    return _complex(re, im)


def log1p(x, y) -> np.ndarray:
    """`core.log1p_c` as a new complex array of x's shape, formed on two
    work arrays allocated here."""
    x = np.asarray(x, dtype=float)
    re, im = np.empty(x.shape), np.empty(x.shape)
    core.log1p_c(x, y, (re, im))
    return _complex(re, im)


def _complex(re, im) -> np.ndarray:
    # part by part: re + 1j * im would turn an infinite part into nan
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def product_eps0(m: int, z) -> complex:
    """Closed form of the product in the undamped limit, an oracle the
    product shares no code with: (-1)^m m sin(pi z) / (pi z (z - m)),
    removable points filled."""
    z = complex(z)
    if m == 0:
        raise ConfigError("index 0 is not in the lattice")
    if abs(z) < 1e-12:
        return complex((-1) ** (m + 1))
    if abs(z - m) < 1e-12:
        return 1.0 + 0.0j
    return (-1) ** m * m * np.sin(np.pi * z) / (np.pi * z * (z - m))


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
