"""Workload definitions and the output checks for every op.

An op is one `viscowave` CLI command, from argv to a CSV and its JSON
sidecar on disk.  Each workload alternates two ops; `check` verifies one
op's files and returns its accuracy margin in decades (or None when the op
has no error-versus-tolerance figure), raising `CheckFailed` otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    argv: tuple[str, ...]


def _series(alpha: str) -> Op:
    return Op("series", f"series_a{alpha}",
              ("control", "solve", "--series", "--epsilon", "0.1", "--modes", "1",
               "--alpha", alpha))


def _sweep(alpha: str) -> Op:
    return Op("sweep", f"sweep_a{alpha}",
              ("sweep", "epsilon", "--modes", "4", "--alpha", alpha))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # constructive route end to end: damped family (product, multiplier,
    # FFT, smoothing), series synthesis, sampled-control propagation
    "series_route": (_series("0.25"), _series("0.75")),
    # Gram oracle over eps = 1e-1..1e-4 plus the undamped limit; exact
    # propagation of exponential-sum controls; no product or multiplier
    "gram_sweep": (_sweep("0.25"), _sweep("0.75")),
    # multiplier at |z| up to 1e5, and the product on the 3000-point
    # envelope-fit grid (no FFT, no propagation)
    "property_checks": (
        Op("multiplier", "multiplier_check",
           ("multiplier", "check", "--epsilon", "0.1", "--alpha", "0.75",
            "--modes", "1")),
        Op("ingham", "ingham_run",
           ("ingham", "run", "--epsilon", "0.1", "--alpha", "0.25", "--modes", "2",
            "--trials", "20")),
    ),
}

# least share of an op's wall time, by op kind, that a traced run must
# find inside named module spans; below it the trace misses a hot path
MIN_ATTRIBUTED = {"series": 0.95}

SERIES_RESIDUAL_TOL = 1e-9    # final energy ratio, as test_cli uses for control solve
SERIES_IMAG_TOL = 1e-10
SWEEP_RESIDUAL_TOL = 1e-9     # acceptance check 8
SWEEP_WEAK_TOL = 1e-2
SWEEP_NORM_RATIO_TOL = 10.0
INGHAM_QUAD_TOL = 1e-10       # acceptance check 11, closed form against quadrature


def margin(err: float, tol: float) -> float:
    """Decades between an error and its tolerance.  Errors below 1e-6 tol
    count as 1e-6 tol, so rounding-level residuals do not register as
    changes."""
    return math.log10(tol / max(err, 1e-6 * tol))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read(csv_path: str) -> tuple[list[str], list[list[str]], dict]:
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(csv_path[:-4] + ".json") as fh:
        meta = json.load(fh)
    return rows[0], rows[1:], meta


def check(op: Op, seed: int, csv_path: str) -> float | None:
    header, rows, meta = _read(csv_path)
    return CHECKS[op.kind](op, seed, header, rows, meta)


def _check_series(op, seed, header, rows, meta):
    _require(header == ["epsilon", "alpha", "n_modes", "horizon", "v_norm", "gram_cond",
                        "final_residual"], f"series header {header}")
    _require(len(rows) == 1, "series csv must hold one row")
    _, _, _, horizon, v_norm, _, resid = (float(v) for v in rows[0])
    _require(math.isfinite(v_norm) and v_norm > 0, f"control norm {v_norm}")
    _require(math.isfinite(resid) and resid <= SERIES_RESIDUAL_TOL,
             f"final residual {resid:.3e} > {SERIES_RESIDUAL_TOL}")
    imag = float(meta["imag_residual"])
    _require(math.isfinite(imag) and imag <= SERIES_IMAG_TOL,
             f"imag residual {imag:.3e} > {SERIES_IMAG_TOL}")
    _require(meta["path"] == "series" and meta["seed"] == seed, "series sidecar echo")
    _require(meta.get("horizon_auto") == horizon, "auto horizon echo")
    return min(margin(resid, SERIES_RESIDUAL_TOL), margin(imag, SERIES_IMAG_TOL))


def _check_sweep(op, seed, header, rows, meta):
    _require(header == ["epsilon", "alpha", "v_norm", "gram_cond", "final_residual"],
             f"sweep header {header}")
    eps = [float(r[0]) for r in rows]
    _require(eps == [1e-1, 1e-2, 1e-3, 1e-4, 0.0], f"sweep epsilons {eps}")
    viscous = [float(r[4]) for r in rows[:-1]]
    weak = float(rows[-1][4])
    worst = max(viscous)
    _require(all(math.isfinite(v) for v in viscous) and worst <= SWEEP_RESIDUAL_TOL,
             f"viscous residual {worst:.3e} > {SWEEP_RESIDUAL_TOL}")
    _require(math.isfinite(weak) and weak <= SWEEP_WEAK_TOL,
             f"weak-limit residual {weak:.3e} > {SWEEP_WEAK_TOL}")
    _require(all(math.isfinite(float(r[3])) and float(r[3]) >= 1.0 for r in rows[:-1]),
             "gram condition numbers")
    norms = [float(r[2]) for r in rows[:-1]]
    ratio = max(norms) / min(norms)
    _require(abs(ratio - meta["norm_ratio"]) <= 1e-12 * ratio, "norm ratio echo")
    _require(ratio <= SWEEP_NORM_RATIO_TOL, f"norm ratio {ratio:.3f} > 10")
    _require(meta["weak_limit_residual"] == weak and meta["seed"] == seed,
             "sweep sidecar echo")
    # the norm ratio is a property of the random data (it ranges 1.3..2.6
    # over seeds) rather than of numerical accuracy, so it is checked but
    # left out of the margin
    return min(margin(worst, SWEEP_RESIDUAL_TOL), margin(weak, SWEEP_WEAK_TOL))


def _check_multiplier(op, seed, header, rows, meta):
    _require(header == ["m", "x", "abs_m", "bound", "status"], f"multiplier header {header}")
    modes = meta["config"]["n_modes"]
    _require(len(rows) == modes * meta["grid"]["points"], "multiplier row count")
    for r in rows:
        abs_m, bound = float(r[2]), float(r[3])
        _require(r[4] == "ok" and abs_m <= bound and abs_m <= 1.0 + 1e-12,
                 f"multiplier bound at m={r[0]} x={r[1]}")
    for name, entry in meta["report"].items():
        _require(entry["ok"] and entry["margin"] >= 0.0,
                 f"multiplier property {name} margin {entry['margin']}")
    return None


def _check_ingham(op, seed, header, rows, meta):
    _require(header == ["trial", "ratio"], f"ingham header {header}")
    ratios = np.array([float(r[1]) for r in rows])
    _require(len(ratios) == meta["trials"] and meta["seed"] == seed, "ingham sidecar echo")
    _require(bool(np.all(np.isfinite(ratios))) and meta["min_ratio"] > 0,
             f"min ratio {meta['min_ratio']}")
    _require(float(np.min(ratios)) == meta["min_ratio"], "min ratio echo")
    cfg = meta["config"]
    ref = ingham_reference(cfg["n_modes"], cfg["epsilon"], cfg["alpha"], cfg["horizon_T"],
                           meta["omega_weight"], len(ratios), seed)
    err = float(np.max(np.abs(ratios - ref) / np.abs(ref)))
    _require(err <= INGHAM_QUAD_TOL, f"ingham ratio off quadrature by {err:.2e}")
    return margin(err, INGHAM_QUAD_TOL)


def ingham_reference(n_max: int, eps: float, alpha: float, T: float,
                     omega_weight: float, trials: int, seed: int) -> np.ndarray:
    """The Ingham-type ratios by composite Gauss-Legendre quadrature.

    Numerator int_{-T}^{T} |sum b_n e^{lambda_n t}|^2 dt with
    lambda_n = i n + eps |n|^{2 alpha}; denominator
    sum |b_n|^2 e^{-omega eps |n|^{2 alpha}}.  The coefficients b repeat
    the complex Gaussian draws of `ingham run` for the same seed (real
    parts first).
    """
    idx = np.array([n for n in range(-n_max, n_max + 1) if n != 0])
    lam = eps * np.abs(idx) ** (2.0 * alpha) + 1j * idx
    x, w = np.polynomial.legendre.leggauss(48)
    edges = np.linspace(-T, T, 33)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    basis = np.exp(lam[:, None] * t[None, :])
    weight = np.exp(-omega_weight * eps * np.abs(idx) ** (2.0 * alpha))
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for k in range(trials):
        b = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        f = b @ basis
        out[k] = float(np.sum(wt * np.abs(f) ** 2)) / float(np.sum(np.abs(b) ** 2 * weight))
    return out


CHECKS = {"series": _check_series, "sweep": _check_sweep,
          "multiplier": _check_multiplier, "ingham": _check_ingham}
