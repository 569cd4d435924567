"""Command-line experiment drivers.

Every command writes a CSV with a header row plus a JSON sidecar carrying
the config echo, tolerances, truncation values, and fitted constants, so a
CSV is never an orphan number table.  No timestamps or machine identifiers
go into either file: the same configuration and seed must produce identical bytes.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input.

Every command is a fresh process that pays for what it imports.  At module
level this file imports only the problem (`core`, `spectrum`), the Gram
oracle (`moment`) and the propagation (`pde`); the construction layers
`biorthogonal`, `weierstrass` and `multiplier` are imported inside the
commands that build a family or check the product or the multiplier:
`weierstrass check`, `multiplier check`, `biorth build`, `biorth verify`,
`verify`, `control solve --series` and `ingham run` with a fitted omega.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

import click
import numpy as np

from . import moment as mom
from . import pde
from . import spectrum as sp
from .core import ConfigError, ModalState, ProblemConfig, load_config, validate_config

if TYPE_CHECKING:
    from .biorthogonal import BiorthogonalFamily

PASS, FAIL, INVALID = 0, 1, 2


def _fmt(x) -> str:
    if x is None:  # no value: an empty cell
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def write_outputs(csv_path: str, header, rows, meta: dict,
                  cfg: ProblemConfig | None = None) -> None:
    """Write a command's CSV table, the header row then one line per row,
    and its JSON sidecar: meta, with the config echoed under "config" when
    cfg is given, at csv_path with .json for .csv."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if cfg is not None:
        meta = dict(meta)
        meta["config"] = dataclasses.asdict(cfg)
    path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    with open(path, "w") as fh:
        fh.write(json.dumps(_json_safe(meta), indent=2, sort_keys=True) + "\n")


def _build_cfg(config, alpha, epsilon, modes=None, horizon=None,
               for_synthesis=False) -> ProblemConfig:
    """The --config file, or --alpha and --epsilon, with the given flags on top."""
    if config is None and (alpha is None or epsilon is None):
        raise ConfigError("provide --config or both --alpha and --epsilon")
    cfg = load_config(config) if config is not None else ProblemConfig(alpha, epsilon)
    given = {"alpha": alpha, "epsilon": epsilon, "n_modes": modes, "horizon_T": horizon}
    cfg = replace(cfg, **{k: v for k, v in given.items() if v is not None})
    return validate_config(cfg, for_synthesis=for_synthesis)


def _number_list(text: str, conv, flag: str) -> list:
    """The comma-separated values of a list flag; empty entries are skipped."""
    try:
        vals = [conv(s) for s in text.split(",") if s.strip()]
    except ValueError:
        kind = "integers" if conv is int else "numbers"
        raise ConfigError(f"{flag} must be comma-separated {kind}, got {text!r}") from None
    if not vals:
        raise ConfigError(f"{flag} is empty")
    return vals


def seeded_data(cfg: ProblemConfig, seed: int, kind: str = "random") -> ModalState:
    """The modal data of `control solve` and `sweep epsilon`: random (normal
    draws for the seed, scaled by 1/n^2 and 1/n, profile 1 + 0.5 sin(1.7 n)),
    resonant (mode 1 alone) or zero."""
    n = cfg.n_modes
    idx = list(range(1, n + 1))
    if kind == "zero":
        return ModalState.from_arrays(idx, [0.0] * n, [0.0] * n,
                                      [1.0 + 0.5 * np.sin(1.7 * k) for k in idx])
    if kind == "resonant":
        return ModalState.from_arrays([1], [np.pi / 2.0], [0.0], [np.pi / 2.0])
    rng = np.random.default_rng(seed)
    u0, u1, fh = [], [], []
    for k in idx:
        u0.append(rng.normal() / k ** 2)
        u1.append(rng.normal() / k)
        fh.append(1.0 + 0.5 * np.sin(1.7 * k))
    return ModalState.from_arrays(idx, u0, u1, fh)


_SHARED = {  # flags several commands take; each command names the ones it reads
    "config": dict(type=click.Path(exists=True), help="INI config file"),
    "out": dict(help="output CSV path"),
    "seed": dict(type=click.IntRange(min=0), default=7, show_default=True),
    "alpha": dict(type=float), "epsilon": dict(type=float),
    "modes": dict(type=int), "horizon": dict(type=float),
}


def _shared(*names):
    """Decorator adding the shared flags `names`, in the order given."""
    def deco(f):
        for name in names:
            f = click.option(f"--{name}", **_SHARED[name])(f)
        return f
    return deco


@click.group()
def main() -> None:
    """Spectral null-control experiments for the damped string."""


def _run(fn, *args, **kw) -> None:
    try:
        code = fn(*args, **kw)
    except ConfigError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(INVALID)
    sys.exit(code)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@main.group()
def spectrum() -> None:
    """Eigenvalue and node tables."""


@spectrum.command("dump")
@_shared("config", "out", "alpha", "epsilon", "modes")
def spectrum_dump(config, out, alpha, epsilon, modes) -> None:
    def go():
        cfg = _build_cfg(config, alpha, epsilon, modes)
        out_path = out or "spectrum_dump.csv"
        rows = []
        have_nodes = cfg.epsilon > 0 and cfg.alpha not in (0.0,) \
            and not cfg.alpha_is_degenerate
        for n in range(1, cfg.n_modes + 1):
            lam = complex(sp.lambda_vals(n, cfg.epsilon, cfg.alpha))
            phi = float(sp.phi_eps(abs(lam), cfg.epsilon, cfg.alpha)) \
                if not cfg.alpha_is_degenerate else None
            a_n = float(sp.phi_eps_inverse(float(n), cfg.epsilon, cfg.alpha)) / sp.E \
                if have_nodes else None
            rows.append((n, lam.real, lam.imag, phi, a_n))
        write_outputs(out_path, ("n", "re_lambda", "im_lambda", "phi_abs_lambda", "a_n"), rows,
                      {"have_nodes": have_nodes}, cfg)
        click.echo(f"wrote {out_path}")
        return PASS
    _run(go)


# ---------------------------------------------------------------------------
# weierstrass
# ---------------------------------------------------------------------------

@main.group()
def weierstrass() -> None:
    """Interpolation product checks."""


@weierstrass.command("check")
@_shared("config", "out", "alpha", "epsilon", "modes")
def weierstrass_check(config, out, alpha, epsilon, modes) -> None:
    def go():
        from . import weierstrass as wei
        cfg = _build_cfg(config, alpha, epsilon, modes)
        out_path = out or "weierstrass_check.csv"
        ev = wei.ProductEvaluator(cfg.epsilon, cfg.alpha)
        dev, max_dev = wei.interpolation_check(range(-cfg.n_modes, cfg.n_modes + 1), ev)
        rows_q, c_hat = wei.growth_bound_check(max(2 * cfg.n_modes, 16), ev)
        ok_q = all(q <= b * (1 + 1e-12) for _, q, b in rows_q)
        ok_dev = max_dev <= 1e-6
        rows = [(m, q, b, "ok" if q <= b * (1 + 1e-12) else "violated")
                for m, q, b in rows_q]
        write_outputs(out_path, ("m", "q_m", "bound", "status"), rows,
                      {"c_hat": c_hat, "max_interp_deviation": max_dev,
                       "interp_tolerance": 1e-6, "direct_stride": wei.STRIDE,
                       "series_terms": wei.SERIES_TERMS}, cfg)
        click.echo(f"interpolation max deviation {max_dev:.3e} "
                   f"({'pass' if ok_dev else 'FAIL'})")
        click.echo(f"growth bound with c_hat={c_hat:.4f} "
                   f"({'pass' if ok_q else 'FAIL'})")
        return PASS if (ok_dev and ok_q) else FAIL
    _run(go)


# ---------------------------------------------------------------------------
# multiplier
# ---------------------------------------------------------------------------

@main.group()
def multiplier() -> None:
    """Sinc-product multiplier checks."""


# --seed is read by no check; perfbench/run.py appends it to every op's argv
@multiplier.command("check")
@_shared("config", "out", "seed", "alpha", "epsilon", "modes")
def multiplier_check(config, out, seed, alpha, epsilon, modes) -> None:
    def go():
        from . import multiplier as mul
        cfg = _build_cfg(config, alpha, epsilon, modes)
        if cfg.epsilon == 0 or cfg.alpha == 0:
            raise ConfigError("multiplier is absent for eps = 0 or alpha = 0")
        out_path = out or "multiplier_check.csv"
        xg = np.logspace(-2, 5, 200)
        ms = range(1, cfg.n_modes + 1)
        phi_x = np.asarray(sp.phi_eps(xg, cfg.epsilon, cfg.alpha))
        bounds = {m: -phi_x + 2.0 * sp.E ** 2 * abs(complex(
            sp.lambda_vals(m, cfg.epsilon, cfg.alpha)).real) + 1.0 for m in ms}
        # the bound column is exp of these; a double holds exp(709.78) at most
        for m in ms:
            if np.max(bounds[m]) > np.log(np.finfo(float).max):
                raise ConfigError(f"the bound exp(-phi(x) + 2e^2 |Re lambda_m| + 1) "
                                  f"overflows a double from m = {m} on; use --modes "
                                  f"{m - 1} or fewer")
        ev = mul.MultiplierEvaluator(cfg.epsilon, cfg.alpha, z_max=float(xg[-1]))
        rep = mul.multiplier_property_check(ms, xg, ev)
        rows = []
        for m in ms:
            log_m, log_b = rep.log_abs[m], bounds[m]
            rows += zip([m] * len(xg), xg.tolist(), np.exp(log_m).tolist(),
                        np.exp(log_b).tolist(),
                        np.where(log_m <= log_b, "ok", "violated").tolist())
        write_outputs(out_path, ("m", "x", "abs_m", "bound", "status"), rows,
                      {"report": {k: v for k, v in rep.items()},
                       "grid": {"lo": 1e-2, "hi": 1e5, "points": len(xg)}}, cfg)
        for name, entry in rep.items():
            click.echo(f"{name}: margin {entry['margin']:+.4f} "
                       f"({'pass' if entry['ok'] else 'FAIL'})")
        return PASS if rep.ok else FAIL
    _run(go)


# ---------------------------------------------------------------------------
# biorthogonal family
# ---------------------------------------------------------------------------

@main.group()
def biorth() -> None:
    """Biorthogonal family construction and verification."""


def _theta_for(cfg: ProblemConfig) -> BiorthogonalFamily:
    """The unsmoothed family: the closed form at eps = 0, else the FFT build.
    Only an FFT-built (kind "theta") family has a smoothed zeta family."""
    from . import biorthogonal as bio
    ms = [m for m in range(-cfg.n_modes, cfg.n_modes + 1) if m != 0]
    if cfg.epsilon == 0:
        return bio.build_sinc_family(ms)
    return bio.build_theta_family(cfg, ms)


@biorth.command("build")
@_shared("config", "out", "alpha", "epsilon", "modes")
def biorth_build(config, out, alpha, epsilon, modes) -> None:
    def go():
        from . import biorthogonal as bio
        cfg = _build_cfg(config, alpha, epsilon, modes, for_synthesis=True)
        out_path = out or "biorth_build.csv"
        theta = _theta_for(cfg)
        zeta = bio.zeta_eval(theta) if theta.kind == "theta" else None
        rows = []
        for m in theta.indices:
            re_l = cfg.epsilon * abs(m) ** (2.0 * cfg.alpha)
            zn = zeta.norms[m] if zeta is not None else None
            rows.append((m, re_l, theta.norms[m], zn))
        meta = {"kind": theta.kind, "omega": theta.omega,
                "omega_hats": list(theta.omega_hats),
                "beta_hat": theta.beta_hat, "c_hat": theta.c_hat,
                "support_half": theta.support_half, "window": theta.window}
        meta.update(theta.meta)
        write_outputs(out_path, ("m", "re_lambda", "theta_norm", "zeta_norm"), rows, meta, cfg)
        click.echo(f"built {theta.kind} family, {len(theta.indices)} members, "
                   f"omega={theta.omega}, beta_hat={theta.beta_hat:+.3f}")
        return PASS
    _run(go)


@biorth.command("verify")
@_shared("config", "out", "alpha", "epsilon", "modes")
@click.option("--tolerance", type=float, default=1e-4, show_default=True)
def biorth_verify(config, out, alpha, epsilon, modes, tolerance) -> None:
    def go():
        from . import biorthogonal as bio
        # click.FloatRange lets nan through, and nan or inf would also reach
        # the sidecar as NaN or Infinity, which is not JSON
        if not (np.isfinite(tolerance) and tolerance > 0):
            raise ConfigError(f"--tolerance must be finite and positive, got {tolerance}")
        cfg = _build_cfg(config, alpha, epsilon, modes, for_synthesis=True)
        out_path = out or "biorth_verify.csv"
        theta = _theta_for(cfg)
        ms = list(theta.indices)
        mat, max_dev = bio.biorthogonality_matrix(theta, ms, ms)
        rows = []
        for i, m in enumerate(ms):
            for j, n in enumerate(ms):
                tgt = 1.0 if m == n else 0.0
                rows.append((m, n, abs(mat[i, j] - tgt)))
        devs = {"max_deviation": max_dev}
        if theta.kind == "theta":  # the smoothed family `control solve --series` uses
            _, devs["zeta_max_deviation"] = bio.biorthogonality_matrix(bio.zeta_eval(theta),
                                                                       ms, ms)
        write_outputs(out_path, ("m", "n", "deviation"), rows,
                      {**devs, "tolerance": tolerance, "omega": theta.omega,
                       "beta_hat": theta.beta_hat, "c_hat": theta.c_hat}, cfg)
        ok = max(devs.values()) <= tolerance
        shown = ", zeta ".join(f"{d:.3e}" for d in devs.values())
        click.echo(f"max |B - I| = {shown} ({'pass' if ok else 'FAIL'})")
        return PASS if ok else FAIL
    _run(go)


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

@main.group()
def control() -> None:
    """Control synthesis and verification."""


@control.command("solve")
@_shared("config", "out", "seed", "alpha", "epsilon", "modes", "horizon")
@click.option("--oracle/--series", "use_oracle", default=True,
              help="Gram minimal-norm oracle vs biorthogonal series path")
@click.option("--data", "data_kind", type=click.Choice(["random", "resonant", "zero"]),
              default="random", show_default=True)
def control_solve(config, out, seed, alpha, epsilon, modes, horizon,
                  use_oracle, data_kind) -> None:
    def go():
        if not use_oracle:
            # before seeded_data loads numpy.random: in this order a fresh
            # series run at N 8 peaks about 0.5 MB lower
            from . import biorthogonal as bio
        cfg = _build_cfg(config, alpha, epsilon, modes, horizon, for_synthesis=True)
        out_path = out or "control_solve.csv"
        data = seeded_data(cfg, seed, data_kind)
        meta: dict = {"path": "oracle" if use_oracle else "series",
                      "data": data_kind, "seed": seed, "moment_tolerance": mom.MOMENT_TOL}
        T = cfg.horizon_T
        if use_oracle:
            system = mom.MomentSystem.build(data, T, cfg.epsilon, cfg.alpha)
            res = mom.minnorm_control(system)
            ctrl, cond, vnorm = res.control, res.cond, res.norm
            meta["moment_residual"] = res.moment_residual
        else:
            fam = _theta_for(cfg)
            if fam.kind == "theta":
                fam = bio.zeta_eval(fam)
            need = fam.min_horizon
            if T < need:
                if horizon is None and config is None:
                    # default horizon: stretch to fit the family's window
                    T = float(2.0 * np.ceil(need / 2.0 + 0.5))
                    meta["horizon_auto"] = T
                else:
                    raise ConfigError(
                        f"horizon {T:.3f} below family support {need:.3f}; "
                        "pass --horizon at least that large")
            meta.update({"omega": fam.omega, "beta_hat": fam.beta_hat,
                         "c_hat": fam.c_hat})
            sres = mom.synthesize_control_series(data, fam, T)
            ctrl, vnorm = sres.control, sres.norm
            cond = float("nan")
            meta.update(imag_residual=sres.imag_residual, h0_norm_sq=sres.h0_norm_sq,
                        moment_residual=sres.moment_residual)
        if T != cfg.horizon_T:
            cfg = validate_config(replace(cfg, horizon_T=T), for_synthesis=True)
        traj = pde.simulate(cfg, data, ctrl)
        resid = pde.final_residual(traj.final, data, cfg.epsilon, cfg.alpha)
        write_outputs(out_path,
                      ("epsilon", "alpha", "n_modes", "horizon", "v_norm", "gram_cond",
                       "final_residual"),
                      [(cfg.epsilon, cfg.alpha, cfg.n_modes, T, vnorm, cond, resid)], meta, cfg)
        click.echo(f"|v| = {vnorm:.6f}, final residual = {resid:.3e}")
        return PASS
    _run(go)


# ---------------------------------------------------------------------------
# sweeps and studies
# ---------------------------------------------------------------------------

@main.group()
def sweep() -> None:
    """Parameter sweeps."""


@sweep.command("epsilon")
@_shared("config", "out", "seed", "alpha", "modes", "horizon")
@click.option("--epsilons", default="1e-1,1e-2,1e-3,1e-4", show_default=True,
              help="comma-separated descending viscosity list")
def sweep_epsilon(config, out, seed, alpha, modes, horizon, epsilons) -> None:
    def go():
        eps_list = _number_list(epsilons, float, "--epsilons")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("epsilon list must be strictly descending")
        cfg0 = _build_cfg(config, alpha, eps_list[0], modes, horizon, for_synthesis=True)
        out_path = out or "sweep_epsilon.csv"
        data = seeded_data(cfg0, seed, "random")
        T = cfg0.horizon_T
        rows = []
        for e in eps_list:
            cfg = validate_config(replace(cfg0, epsilon=e), for_synthesis=True)
            system = mom.MomentSystem.build(data, T, e, cfg.alpha)
            res = mom.minnorm_control(system)
            traj = pde.simulate(cfg, data, res.control)
            resid = pde.final_residual(traj.final, data, e, cfg.alpha)
            rows.append((e, cfg.alpha, res.norm, res.cond, resid))
            last = res
        # weak-limit surrogate: smallest-eps control driving the eps=0 system
        cfg_w = validate_config(replace(cfg0, epsilon=0.0), for_synthesis=True)
        traj_w = pde.simulate(cfg_w, data, last.control)
        resid_w = pde.final_residual(traj_w.final, data, 0.0, cfg0.alpha)
        rows.append((0.0, cfg0.alpha, last.norm, None, resid_w))
        norms = [r[2] for r in rows[:-1]]
        ratio = max(norms) / min(norms)
        write_outputs(out_path,
                      ("epsilon", "alpha", "v_norm", "gram_cond", "final_residual"), rows,
                      {"norm_ratio": ratio, "seed": seed, "weak_limit_residual": resid_w,
                       "note": "last row: smallest-eps control on the undamped system"},
                      cfg0)
        click.echo(f"norm ratio {ratio:.4f}, weak-limit residual {resid_w:.3e}")
        return PASS
    _run(go)


@main.command("degeneracy")
@click.option("--epsilon", type=float, default=0.5, show_default=True)
@click.option("--horizon", type=float, default=2.0 * np.pi, show_default="2 pi")
@click.option("--sizes", default="4,8,12,16", show_default=True,
              help="comma-separated strictly ascending mode counts")
@click.option("--out", default=None, help="output CSV path")
def degeneracy(epsilon, horizon, sizes, out) -> None:
    """Gram condition numbers at alpha 0.25, 0.5 and 0.75 as N grows; a cell is
    empty where the smallest eigenvalue is rounding: at most n u w_max, n = 2N."""
    def go():
        n_list = _number_list(sizes, int, "--sizes")
        if n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError(f"--sizes must be strictly ascending positive "
                              f"integers, got {sizes!r}")
        # epsilon and horizon take the ranges every other command accepts
        validate_config(ProblemConfig(alpha=0.0, epsilon=epsilon, horizon_T=horizon))
        out_path = out or "degeneracy.csv"
        floor = {n_max: 2 * n_max * np.finfo(float).eps for n_max in n_list}
        conds: dict = {}
        for a in (0.25, 0.5, 0.75):
            for n_max in n_list:
                idx = [n for n in range(-n_max, n_max + 1) if n != 0]
                w = np.linalg.eigvalsh(mom.gram_matrix(idx, epsilon, a, horizon))
                conds[(a, n_max)] = float(w[-1] / w[0]) \
                    if w[0] > floor[n_max] * w[-1] else None
        # the verdict and the gap read resolved cells only
        half = [n for n in n_list if conds[(0.5, n)] is not None]
        mono = all(conds[(0.5, a)] < conds[(0.5, b)] for a, b in zip(half, half[1:]))
        n_gap = half[-1] if half else None
        gap = conds[(0.5, n_gap)] / conds[(0.25, n_gap)] \
            if half and conds[(0.25, n_gap)] is not None else None
        write_outputs(out_path, ("alpha", "n_modes", "gram_cond"),
                      [(a, n, c) for (a, n), c in conds.items()],
                      {"epsilon": epsilon, "horizon": horizon, "eig_floor_over_max": floor,
                       "alpha_half_monotone": mono, "degeneracy_gap_at_largest": gap,
                       "degeneracy_gap_n_modes": n_gap})
        shown = f"gap at N={n_gap}: {gap:.3e}" if gap is not None else "gap unresolved"
        click.echo(f"alpha=1/2 cond monotone: {mono}; {shown}")
        return PASS if mono else FAIL
    _run(go)


@main.group()
def ingham() -> None:
    """Ingham-type ratio experiments."""


@ingham.command("run")
@_shared("config", "out", "seed", "alpha", "epsilon", "modes", "horizon")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--omega-weight", type=float, default=None,
              help="weight exponent; default: envelope-fitted omega")
def ingham_run(config, out, seed, alpha, epsilon, modes, horizon,
               trials, omega_weight) -> None:
    """Ingham ratios of random coefficient draws, one CSV row per draw.

    min_ratio, the smallest ratio over the draws, only bounds the Ingham lower
    constant from above (2.0e30 times it at eps 0.1, alpha 0.75, N 12, T 3 pi)."""
    def go():
        cfg = _build_cfg(config, alpha, epsilon, modes, horizon)
        out_path = out or "ingham_run.csv"
        T = cfg.horizon_T
        w_mode = "given"
        if omega_weight is None:
            w_mode = "envelope-fitted"
            if cfg.epsilon == 0 or cfg.alpha == 0:
                ww = 1.0
            else:
                from . import biorthogonal as bio
                from . import weierstrass as wei
                ev = wei.ProductEvaluator(cfg.epsilon, cfg.alpha)
                ww, _ = bio.resolve_omega(range(1, cfg.n_modes + 1), ev)
                ww = float(ww)
        else:
            ww = omega_weight
        ratios = mom.ingham_trials(cfg.n_modes, cfg.epsilon, cfg.alpha, T, ww,
                                   n_trials=trials, seed=seed)
        rows = [(k, r) for k, r in enumerate(ratios)]
        write_outputs(out_path, ("trial", "ratio"), rows,
                      {"min_ratio": float(np.min(ratios)), "max_ratio": float(np.max(ratios)),
                       "omega_weight": ww, "omega_weight_mode": w_mode,
                       "seed": seed, "trials": trials}, cfg)
        ok = bool(np.min(ratios) > 0)
        click.echo(f"min ratio {np.min(ratios):.6e} over {trials} trials "
                   f"({'pass' if ok else 'FAIL'})")
        return PASS if ok else FAIL
    _run(go)


# ---------------------------------------------------------------------------
# aggregate verify
# ---------------------------------------------------------------------------

@main.command("verify")
@_shared("config", "out", "seed", "alpha", "epsilon", "horizon")
def verify(config, out, seed, alpha, epsilon, horizon) -> None:
    """Quick property suite across modules at one config."""
    def go():
        from . import biorthogonal as bio
        from . import multiplier as mul
        from . import weierstrass as wei
        cfg = _build_cfg(config, alpha if alpha is not None else 0.25,
                         epsilon if epsilon is not None else 0.1,
                         horizon=horizon, for_synthesis=True)
        checks = []

        def check(name, fn):
            try:
                ok, detail = fn()
            except ConfigError:
                raise                         # refused input, not a failed check
            except Exception as exc:          # noqa: BLE001 - report, not crash
                ok, detail = False, f"error: {exc}"
            checks.append((name, ok, detail))
            click.echo(f"{'pass' if ok else 'FAIL'}  {name}  {detail}")

        def weight_roundtrip():
            if cfg.epsilon == 0 or cfg.alpha == 0:
                return True, "skipped (phi has no inverse)"
            ys = np.linspace(0.1, 50.0, 97)
            xs = sp.phi_eps_inverse(ys, cfg.epsilon, cfg.alpha)
            back = sp.phi_eps(xs, cfg.epsilon, cfg.alpha)
            dev = float(np.max(np.abs(back - ys) / ys))
            return dev <= 1e-12, f"max rel dev {dev:.2e}"

        def interp_nodes():
            ev = wei.ProductEvaluator(cfg.epsilon, cfg.alpha)
            _, max_dev = wei.interpolation_check(range(-4, 5), ev)
            return max_dev <= 1e-6, f"max dev {max_dev:.2e}"

        def mult_props():
            if cfg.epsilon == 0 or cfg.alpha == 0:
                return True, "skipped (no multiplier)"
            xg = np.logspace(-2, 4, 120)
            ev = mul.MultiplierEvaluator(cfg.epsilon, cfg.alpha, z_max=float(xg[-1]))
            rep = mul.multiplier_property_check(range(1, 9), xg, ev)
            return rep.ok, "all margins positive" if rep.ok else "margin violated"

        def sinc_bio():
            fam = bio.build_sinc_family([m for m in range(-8, 9) if m != 0])
            _, dev = bio.biorthogonality_matrix(fam, fam.indices, fam.indices)
            return dev <= 1e-10, f"max dev {dev:.2e}"

        def resonant():
            data = ModalState.from_arrays([1], [np.pi / 2], [0.0], [np.pi / 2])
            system = mom.MomentSystem.build(data, 2 * np.pi, 0.0, 0.0)
            res = mom.minnorm_control(system)
            cfg0 = validate_config(ProblemConfig(alpha=0.0, epsilon=0.0))
            traj = pde.simulate(cfg0, data, res.control)
            r = pde.final_residual(traj.final, data, 0.0, 0.0)
            return r <= 1e-15, f"residual {r:.2e}"

        def energy_law():
            rng_ = np.random.default_rng(seed)
            n = 8
            data = ModalState.from_arrays(range(1, n + 1), rng_.normal(size=n),
                                          rng_.normal(size=n), np.ones(n))
            traj = pde.simulate(cfg, data, None, record_points=256)
            drops = np.diff(traj.energy)
            return bool(np.all(drops <= 1e-12 * traj.energy[0])), \
                f"max energy rise {float(np.max(drops, initial=0.0)):.2e}"

        check("weight round-trip", weight_roundtrip)
        check("interpolation at nodes", interp_nodes)
        check("multiplier properties", mult_props)
        check("sinc-limit biorthogonality", sinc_bio)
        check("resonant null control", resonant)
        check("free energy decay", energy_law)

        out_path = out or "verify.csv"
        write_outputs(out_path, ("check", "status", "detail"),
                      [(n, "pass" if ok else "fail", d) for n, ok, d in checks],
                      {"seed": seed}, cfg)
        return PASS if all(ok for _, ok, _ in checks) else FAIL
    _run(go)


if __name__ == "__main__":
    main()
