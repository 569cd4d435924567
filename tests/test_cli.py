import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import viscowave
from viscowave.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, cwd):
    return runner.invoke(main, args + ["--out", str(cwd / "out.csv")],
                         catch_exceptions=False)


CONSTRUCTION = ("viscowave.biorthogonal", "viscowave.multiplier", "viscowave.weierstrass")


def _fresh_modules(code: str, *args: str) -> list:
    """The last line `code` prints in a fresh interpreter, read as a list."""
    src = str(Path(viscowave.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_out():
    # every command is a fresh process that pays for what importing the CLI
    # loads; scipy would cost more than numpy, click and the package together,
    # a module-level mpmath import 30-45 ms, configparser, which only
    # --config reads, 2 ms, and numpy.polynomial, once read for Gauss-Legendre
    # nodes, 2.5 ms and 0.77 MB of peak memory.  The construction layers cost
    # about 20 ms to compile and run without a bytecode cache; only the
    # commands that build a family or check the product import them
    code = ("import json, sys, viscowave.cli; print(json.dumps(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('scipy', 'mpmath', 'configparser') "
            f"or m.startswith('numpy.polynomial') or m in {CONSTRUCTION!r})))")
    assert _fresh_modules(code) == []


# runs one command in a fresh interpreter, then prints the construction
# layers it imported
_COMMAND_MODULES = ("import json, sys, viscowave.cli\n"
                    "try:\n    viscowave.cli.main(sys.argv[1:])\n"
                    "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
                    f"print(json.dumps(sorted(m for m in sys.modules if m in {CONSTRUCTION!r})))")


def _commands(group, path=()):
    """(argv path, command) of every command under the click group."""
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _commands(cmd, path + (name,))
        else:
            yield list(path + (name,)), cmd


# Which commands load the construction: one case per leaf command, two where
# a flag decides.  Per case the name README and the `cli` docstring give it,
# its argv, and the construction layers it loads
_E1A25 = ["--epsilon", "0.1", "--alpha", "0.25"]
LOADS_CONSTRUCTION = {
    "spectrum_dump": ("spectrum dump", ["spectrum", "dump", *_E1A25], []),
    "weierstrass_check": ("weierstrass check",
                          ["weierstrass", "check", *_E1A25, "--modes", "1"],
                          ["viscowave.weierstrass"]),
    "multiplier_check": ("multiplier check",
                         ["multiplier", "check", *_E1A25, "--modes", "1"],
                         ["viscowave.multiplier"]),
    "biorth_build": ("biorth build", ["biorth", "build", *_E1A25, "--modes", "1"],
                     list(CONSTRUCTION)),
    "biorth_verify": ("biorth verify", ["biorth", "verify", *_E1A25, "--modes", "1"],
                      list(CONSTRUCTION)),
    "control_solve_oracle": ("control solve",
                             ["control", "solve", *_E1A25, "--modes", "2"], []),
    "control_solve_series": ("control solve --series",
                             ["control", "solve", "--series", *_E1A25, "--modes", "1"],
                             list(CONSTRUCTION)),
    "sweep_epsilon": ("sweep epsilon", ["sweep", "epsilon", "--alpha", "0.25", "--modes", "2",
                                        "--epsilons", "1e-1,1e-2"], []),
    "ingham_run": ("ingham run", ["ingham", "run", *_E1A25, "--modes", "1", "--trials", "2"],
                   list(CONSTRUCTION)),
    "ingham_run_omega_weight": ("ingham run --omega-weight",
                                ["ingham", "run", *_E1A25, "--modes", "1", "--trials", "2",
                                 "--omega-weight", "1"], []),
}


@pytest.mark.parametrize("case", LOADS_CONSTRUCTION)
def test_commands_import_the_construction_only_to_build_a_family(tmp_path, case):
    # the Gram oracle, propagation, the spectrum tables and a given Ingham
    # weight never call the construction, so a fresh process running them
    # does not import it; the product and multiplier checks load their own
    # layer alone
    _, args, loaded = LOADS_CONSTRUCTION[case]
    out = str(tmp_path / "out.csv")
    assert _fresh_modules(_COMMAND_MODULES, *args, "--out", out) == loaded


def test_construction_table_covers_every_command():
    # a new command must declare whether it loads the construction; a
    # command's argv path is its words before the first flag
    covered = {tuple(itertools.takewhile(lambda a: not a.startswith("-"), args))
               for _, args, _ in LOADS_CONSTRUCTION.values()}
    assert covered == {tuple(path) for path, _ in _commands(main)}


def _named(text: str) -> set:
    """The backquoted names in text, flags left out."""
    return {n for n in re.findall(r"`([^`]+)`", " ".join(text.split()))
            if not n.startswith("-")}


def test_docs_name_the_commands_that_load_the_construction():
    import viscowave.cli as cli
    loads = {name for name, _, loaded in LOADS_CONSTRUCTION.values() if loaded}
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert _named(re.search(r"so only (.*?) load the construction", readme)[1]) == loads
    assert _named(cli.__doc__.split("or the multiplier:", 1)[1]) == loads


def test_spectrum_dump_csv(runner, tmp_path):
    res = _run(runner, ["spectrum", "dump", "--alpha", "0.25",
                        "--epsilon", "0.1", "--modes", "4"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "n,re_lambda,im_lambda,phi_abs_lambda,a_n"
    assert len(lines) == 5
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["config"]["alpha"] == 0.25
    assert meta["config"]["epsilon"] == 0.1


@pytest.mark.parametrize("delta", [-1e-3, -1e-4, -1e-7, 1e-7, 1e-4, 1e-3])
def test_spectrum_dump_near_half_alpha(runner, tmp_path, delta):
    # just above 1/2 the weight's branch point (1/eps)^{1/(2a-1)} overflows;
    # it must saturate, not raise
    res = runner.invoke(main, ["spectrum", "dump", "--alpha", repr(0.5 + delta),
                               "--epsilon", "0.1", "--out", str(tmp_path / "out.csv")])
    assert "Traceback" not in res.output
    assert res.exit_code in (0, 2), repr(res.exception)
    if res.exit_code == 2:
        assert "invalid input" in res.output
        return
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert len(rows) == 8 and np.all(np.isfinite(vals))


# (argv, CSV columns that must be finite): multiplier check and weierstrass
# check end in a status word, and the series row's gram_cond is nan (no Gram
# matrix on that route; it stays nan, not empty, because the benchmark's
# series check parses every cell of that row).  Each argv passes eps 0.1
# and one mode where the command reads them
_EPS_N1 = ["--epsilon", "0.1", "--modes", "1"]
NEAR_HALF_COMMANDS = {
    "multiplier_check": (["multiplier", "check", *_EPS_N1], slice(0, -1)),
    "biorth_build": (["biorth", "build", *_EPS_N1], slice(None)),
    "biorth_verify": (["biorth", "verify", *_EPS_N1], slice(None)),
    "control_solve_series": (["control", "solve", "--series", *_EPS_N1],
                             [0, 1, 2, 3, 4, 6]),
    "ingham_run": (["ingham", "run", *_EPS_N1], slice(None)),
    # gram_cond is empty on the weak-limit row: no Gram solve at eps = 0
    "sweep_epsilon": (["sweep", "epsilon", "--modes", "1"], [0, 1, 2, 4]),
    "weierstrass_check": (["weierstrass", "check", *_EPS_N1], slice(0, -1)),
}
# weierstrass check at 0.55 runs to a FAIL verdict (exit 1) on the open
# growth-bound defect of its held-out indices, not to a traceback.  At 1/2
# itself the commands that do not refuse it build the product, whose tail
# quadrature must refuse the exponent-1 decay with a message
NEAR_HALF_CASES = [(name, alpha) for name in NEAR_HALF_COMMANDS
                   for alpha in (0.5, 0.5000001, 0.51, 0.55)
                   if (name, alpha) != ("weierstrass_check", 0.55)]


@pytest.mark.parametrize("name,alpha", NEAR_HALF_CASES,
                         ids=[f"{name}-{alpha}" for name, alpha in NEAR_HALF_CASES])
def test_near_half_alpha_finite_or_invalid(runner, tmp_path, name, alpha):
    # at and just above 1/2 the branch point gamma_eps is huge or inf: the
    # node sums below it and the product tail must give finite values or
    # exit 2
    command, cols = NEAR_HALF_COMMANDS[name]
    res = runner.invoke(main, command + ["--alpha", repr(alpha),
                                         "--out", str(tmp_path / "out.csv")])
    assert "Traceback" not in res.output
    assert res.exit_code in (0, 2), repr(res.exception)
    if res.exit_code == 2:
        assert "invalid input" in res.output
        return
    rows = [np.array(r.split(","))
            for r in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    vals = [float(v) for r in rows for v in r[cols]]
    assert rows and np.all(np.isfinite(vals))


def test_multiplier_check_small_eps(runner, tmp_path):
    # at alpha = 3/4, eps = 5e-4 the branch point gamma_eps = eps^-2 puts 4e6
    # nodes below it; the type sum over them has a closed form, so the
    # eps -> 0 regime stays computable
    res = runner.invoke(main, ["multiplier", "check", "--alpha", "0.75", "--epsilon",
                               "5e-4", "--modes", "1", "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    assert rows and np.all(np.isfinite([float(v) for r in rows for v in r[:-1]]))
    assert all(r[-1] == "ok" for r in rows)


@pytest.mark.filterwarnings("error")
def test_multiplier_check_bound_overflow_refused(runner, tmp_path):
    # at eps 0.5, alpha 0.75 the bound column exp(-phi(x) + 2e^2 |Re lambda_m|
    # + 1) passes the double range from m = 21 (the exponent reaches 709.78):
    # exit 2 naming that m, before any file is written; m = 20 still fits
    out = tmp_path / "out.csv"
    argv = ["multiplier", "check", "--epsilon", "0.5", "--alpha", "0.75", "--out", str(out)]
    res = runner.invoke(main, argv + ["--modes", "40"])
    assert res.exit_code == 2, res.output
    assert "overflows a double from m = 21 on; use --modes 20 or fewer" in res.output
    assert not out.exists() and not out.with_suffix(".json").exists()
    res = runner.invoke(main, argv + ["--modes", "20"])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 20 * 200
    assert np.all(np.isfinite([float(r[3]) for r in rows]))


@pytest.mark.filterwarnings("error")
def test_tiny_eps_saturates_without_warnings(runner, tmp_path):
    # at eps 1e-300 the multiplier's nodes (n/eps)^{1/2a}/e pass the float
    # range and saturate to inf, the intended limit (the sinc factor of a
    # node at infinity is 1): the build exits 0 with a finite CSV, and no
    # RuntimeWarning is raised on the way
    res = runner.invoke(main, ["biorth", "build", "--epsilon", "1e-300", "--alpha", "0.25",
                               "--modes", "1", "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 0, repr(res.exception)
    rows = [r.split(",") for r in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2 and np.all(np.isfinite([float(v) for r in rows for v in r]))


@pytest.mark.filterwarnings("error")
def test_tiny_eps_overflowing_node_sum_exits_2_without_warnings(runner, tmp_path):
    # above 1/2 at eps 1e-300 the branch point gamma_eps is inf and the node
    # sum below it overflows: the series route refuses it with its message,
    # and the overflow on the way raises no RuntimeWarning
    res = runner.invoke(main, ["control", "solve", "--series", "--epsilon", "1e-300",
                               "--alpha", "0.75", "--modes", "1",
                               "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, repr(res.exception)
    assert ("invalid input: gamma_eps = inf at alpha = 0.75: the node sum of power 2 "
            "below it overflows") in res.output


def test_missing_parameters_is_invalid_input(runner, tmp_path):
    res = _run(runner, ["spectrum", "dump", "--alpha", "0.25"], tmp_path)
    assert res.exit_code == 2


def test_degenerate_alpha_refused_for_synthesis(runner, tmp_path):
    res = _run(runner, ["control", "solve", "--alpha", "0.5",
                        "--epsilon", "0.1"], tmp_path)
    assert res.exit_code == 2
    assert "degenerate" in res.output


def test_weierstrass_check_passes(runner, tmp_path):
    res = _run(runner, ["weierstrass", "check", "--alpha", "0.25",
                        "--epsilon", "0.1", "--modes", "4"], tmp_path)
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["max_interp_deviation"] <= 1e-6
    assert "c_hat" in meta
    assert (meta["direct_stride"], meta["series_terms"]) == (16, 48)


def test_control_solve_oracle_row(runner, tmp_path):
    res = _run(runner, ["control", "solve", "--alpha", "0.25",
                        "--epsilon", "0.1", "--modes", "4"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].startswith("epsilon,alpha,n_modes,horizon,v_norm")
    vals = lines[1].split(",")
    assert float(vals[6]) <= 1e-9              # final residual


def test_control_solve_zero_data(runner, tmp_path):
    res = _run(runner, ["control", "solve", "--alpha", "0.25",
                        "--epsilon", "0.1", "--modes", "3",
                        "--data", "zero"], tmp_path)
    assert res.exit_code == 0
    row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) == 0.0                # zero data, zero control


def test_control_solve_series_eps0_checks_horizon(runner, tmp_path):
    # eps = 0 builds its family by the same FFT chain as eps > 0: the
    # smoothed window is (-5.55, 5.55) at N 2, so a shorter explicit horizon
    # is refused and the default one (2 pi) stretches to 14
    args = ["control", "solve", "--series", "--epsilon", "0", "--alpha", "0.25",
            "--modes", "2"]
    res = _run(runner, args + ["--horizon", "5"], tmp_path)
    assert res.exit_code == 2
    assert "below family support" in res.output
    assert _run(runner, args, tmp_path).exit_code == 0
    row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["0", "0.25", "2", "14"]
    assert float(row[4]) == pytest.approx(0.333509, abs=1e-6)     # v_norm
    assert float(row[6]) <= 1e-29                                # final residual
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["horizon_auto"] == 14.0
    assert meta["omega"] == 0 and meta["beta_hat"] == 0.0


@pytest.mark.parametrize("alpha, horizon, v_norm", [("0.25", "14", 0.607763),
                                                    ("0.75", "36", 0.616703)])
def test_control_solve_series_eps0_is_the_chain_control(runner, tmp_path, alpha, horizon,
                                                        v_norm):
    # the eps -> 0 limit of the eps > 0 series controls (tests/test_moment.py),
    # not the closed-form sinc family's control (v_norm 0.545281)
    res = _run(runner, ["control", "solve", "--series", "--epsilon", "0", "--alpha", alpha,
                        "--modes", "8", "--horizon", horizon], tmp_path)
    assert res.exit_code == 0, res.output
    row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(v_norm, abs=1e-6)
    assert float(row[6]) <= 1e-29


def test_biorth_build_eps0_runs_the_chain(runner, tmp_path):
    res = _run(runner, ["biorth", "build", "--epsilon", "0", "--alpha", "0.25",
                        "--modes", "8"], tmp_path)
    assert res.exit_code == 0, res.output
    assert "built theta family, 16 members, omega=0" in res.output
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["kind"] == "theta" and meta["omega"] == 0
    assert (meta["half_width"], meta["n_fft"]) == (150.0, 8192)
    assert meta["window"][1] == pytest.approx(5.07, abs=0.01)
    assert meta["window"][0] == -meta["window"][1]
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    assert len(rows) == 16
    # smoothing shrinks every member a little: zeta norms sit just below theta's
    assert all(0.9 * float(th) < float(ze) < float(th) for _, _, th, ze in rows)


def test_biorth_verify_eps0_checks_both_families(runner, tmp_path):
    # measured 1.4e-15 (theta) and 1.7e-15 (zeta)
    res = _run(runner, ["biorth", "verify", "--epsilon", "0", "--alpha", "0.25",
                        "--modes", "8"], tmp_path)
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["max_deviation"] <= 1e-12
    assert meta["zeta_max_deviation"] <= 1e-12


@pytest.mark.parametrize("modes", [4, 8, 16, 32])
def test_control_solve_oracle_refuses_unresolved_gram(runner, tmp_path, modes):
    # at T 122 the Gram matrix is singular in double precision (N 4, 8) or
    # its entries overflow (N 16, 32); the N 4 solve misses its moments by
    # 8.6e3, far above the moment tolerance, so every N must exit 2
    res = runner.invoke(main, ["control", "solve", "--oracle", "--epsilon", "0.1",
                               "--alpha", "0.75", "--horizon", "122",
                               "--modes", str(modes), "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    assert "invalid input" in res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not (tmp_path / "out.csv").exists()


def test_control_solve_series_horizon_from_window(runner, tmp_path):
    # the auto horizon covers the family's measured window (T 36), not its
    # declared support (T 122), and the moments hold exactly there
    res = _run(runner, ["control", "solve", "--series", "--epsilon", "0.1",
                        "--alpha", "0.75", "--modes", "4"], tmp_path)
    assert res.exit_code == 0, res.output
    row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    meta = json.loads((tmp_path / "out.json").read_text())
    assert float(row[3]) == meta["horizon_auto"] <= 40.0
    assert float(row[6]) <= 1e-26                          # final residual
    assert meta["moment_residual"] <= 3e-12    # 1e-10 of max |c_n| = 0.033
    assert meta["moment_tolerance"] == 1e-6


def test_biorth_verify_small_eps_exact(runner, tmp_path):
    # at eps 1e-4 the members sit off-centre ([-11.3, -1.2]); the exact
    # integral over the measured window reads 4.4e-15 for theta and 3.9e-15
    # for the smoothed zeta family that `control solve --series` uses
    res = _run(runner, ["biorth", "verify", "--epsilon", "1e-4", "--alpha", "0.75",
                        "--modes", "4"], tmp_path)
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["max_deviation"] <= 1e-12
    assert meta["zeta_max_deviation"] <= 1e-12


_A25 = ["--alpha", "0.25", "--epsilon", "0.1"]
DETERMINISTIC_ARGV = {
    "spectrum_dump": ["spectrum", "dump", *_A25, "--modes", "4"],
    "weierstrass_check": ["weierstrass", "check", *_A25, "--modes", "2"],
    "multiplier_check": ["multiplier", "check", "--alpha", "0.75", "--epsilon", "0.1",
                         "--modes", "1"],
    "biorth_build": ["biorth", "build", *_A25, "--modes", "2"],
    "biorth_verify": ["biorth", "verify", *_A25, "--modes", "2"],
    "control_solve_oracle": ["control", "solve", *_A25, "--modes", "4", "--seed", "11"],
    "control_solve_series": ["control", "solve", "--series", "--alpha", "0.75",
                             "--epsilon", "0.1", "--modes", "1", "--seed", "11"],
    "sweep_epsilon": ["sweep", "epsilon", "--alpha", "0.25", "--modes", "3",
                      "--epsilons", "1e-1,1e-2", "--seed", "11"],
    "ingham_run": ["ingham", "run", *_A25, "--modes", "2", "--trials", "5",
                   "--seed", "11"],
}


@pytest.mark.parametrize("name", DETERMINISTIC_ARGV)
def test_deterministic_bytes(runner, tmp_path, name):
    # the same argv twice gives the same CSV and sidecar bytes
    outs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        assert _run(runner, DETERMINISTIC_ARGV[name], tmp_path / run).exit_code == 0
        outs.append([(tmp_path / run / f).read_bytes() for f in ("out.csv", "out.json")])
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(runner, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_modes = 2\n")
    res = _run(runner, ["spectrum", "dump", "--config", str(ini),
                        "--modes", "3"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 4                     # flag overrides file


def test_series_config_without_horizon_stretches_like_flags(runner, tmp_path):
    # a config file that sets no horizon_T gives no horizon: the series
    # route stretches the default to fit the family's window (T 14), as for
    # the same problem given by flags, and writes the same bytes
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_modes = 2\n")
    outs = []
    for run, args in (("flags", ["--alpha", "0.25", "--epsilon", "0.1", "--modes", "2"]),
                      ("file", ["--config", str(ini)])):
        (tmp_path / run).mkdir()
        res = _run(runner, ["control", "solve", "--series", *args], tmp_path / run)
        assert res.exit_code == 0, res.output
        assert res.output == "|v| = 0.167438, final residual = 2.884e-32\n"
        outs.append([(tmp_path / run / f).read_bytes() for f in ("out.csv", "out.json")])
    assert outs[0] == outs[1]
    assert json.loads(outs[1][1])["horizon_auto"] == 14.0


def test_series_config_horizon_too_short_exits_2(runner, tmp_path):
    # a horizon the file gives is the user's, even at the default's value:
    # too short for the family's window, it is refused and nothing is written
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_modes = 2\n"
                   "horizon_T = 6.283185307179586\n")
    res = _run(runner, ["control", "solve", "--series", "--config", str(ini)], tmp_path)
    assert res.exit_code == 2, res.output
    assert ("invalid input: horizon 6.283 below family support 11.221; pass --horizon "
            "at least that large") in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_verify_aggregate_is_gone(runner):
    # each property it checked has its own command or acceptance check
    res = runner.invoke(main, ["verify"])
    assert res.exit_code == 2
    assert "No such command 'verify'" in res.output


def test_config_file_unknown_key_is_invalid_input(runner, tmp_path):
    # a misspelt key used to run silently with the default 8 modes
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_mode = 3\n")
    res = _run(runner, ["spectrum", "dump", "--config", str(ini)], tmp_path)
    assert res.exit_code == 2
    assert "invalid input" in res.output and "'n_mode'" in res.output
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_config_path_that_cannot_be_read_exits_2(runner, tmp_path, kind):
    # load_config is the one check of --config: a missing path or a
    # directory exits 2 naming the path, and nothing is written
    ini = tmp_path / "run.ini"
    if kind == "directory":
        ini.mkdir()
    res = _run(runner, ["spectrum", "dump", "--config", str(ini)], tmp_path)
    assert res.exit_code == 2, res.output
    assert f"invalid input: cannot read config file {ini}" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if kind == "missing"
                                                          else ["run.ini"])


@pytest.mark.parametrize("args,message", [
    (["sweep", "epsilon", "--alpha", "0.25", "--epsilons", "0.1,x"],
     "--epsilons must be comma-separated numbers"),
    (["ingham", "run", "--alpha", "0.25", "--epsilon", "0.1", "--trials", "0"],
     "--trials"),
] + [(["ingham", "run", "--alpha", "0.25", "--epsilon", "0.1", "--modes", "2",
       "--omega-weight", w], "not finite and positive")
     for w in ("nan", "inf", "-inf", "1e6", "-1e6")],
    ids=["eps-list-word", "trials-zero", "weight-nan", "weight-inf", "weight-minus-inf",
         "weight-1e6", "weight-minus-1e6"])
def test_bad_list_and_count_flags_exit_2(runner, tmp_path, args, message):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not (tmp_path / "out.csv").exists()


# each flag a command used to accept without reading it
UNREAD_FLAGS = [(command, flag)
                for command in (["spectrum", "dump"], ["weierstrass", "check"],
                                ["biorth", "build"], ["biorth", "verify"])
                for flag in (["--seed", "3"], ["--horizon", "9"])] + [
    (["multiplier", "check"], ["--horizon", "9"]),
    (["sweep", "epsilon"], ["--epsilon", "0.1"]),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[f"{'_'.join(c)}{f[0]}" for c, f in UNREAD_FLAGS])
def test_commands_refuse_flags_they_do_not_read(runner, command, flag):
    res = runner.invoke(main, command + flag, catch_exceptions=False)
    assert res.exit_code == 2
    assert "No such option" in res.output


SEEDED = [argv for argv, cmd in _commands(main) if any(p.name == "seed" for p in cmd.params)]


@pytest.mark.parametrize("command", SEEDED, ids=["_".join(c) for c in SEEDED])
def test_negative_seed_is_invalid_input(runner, tmp_path, command):
    # numpy's generator takes no negative seed, so the flag refuses one
    # before numpy's ValueError can end the command (exit 1)
    res = runner.invoke(main, command + ["--seed", "-1", "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--seed'" in res.output
    assert not (tmp_path / "out.csv").exists()


def test_every_seeded_command_is_checked():
    assert sorted(map(tuple, SEEDED)) == [("control", "solve"), ("ingham", "run"),
                                          ("multiplier", "check"), ("sweep", "epsilon")]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_biorth_verify_refuses_bad_tolerance(runner, tmp_path, tolerance):
    # nan or a tolerance <= 0 fails every check, inf passes every one, and
    # nan and inf would reach the sidecar as NaN and Infinity, which is not
    # JSON
    res = runner.invoke(main, ["biorth", "verify", *_A25, "--modes", "1", "--tolerance",
                               tolerance, "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    assert "--tolerance must be finite and positive" in res.output
    assert not (tmp_path / "out.csv").exists()


def test_ingham_run(runner, tmp_path):
    res = _run(runner, ["ingham", "run", "--alpha", "0.25", "--epsilon", "0.1",
                        "--modes", "6", "--trials", "5",
                        "--omega-weight", "2.0"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "trial,ratio"
    assert len(lines) == 6
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["min_ratio"] > 0
    assert meta["omega_weight_mode"] == "given"


def test_ingham_run_overflowing_numerator_exits_2(runner, tmp_path):
    # at N 16, alpha 0.75, T 300 the Gram numerator's entries pass
    # e^{2 eps |n|^{2a} T} = e^{3840}; it used to write a NaN ratio per draw
    # and exit 1
    res = _run(runner, ["ingham", "run", "--alpha", "0.75", "--epsilon", "0.1",
                        "--modes", "16", "--horizon", "300", "--trials", "3"], tmp_path)
    assert res.exit_code == 2, res.output
    assert "invalid input" in res.output and "not finite" in res.output
    assert not (tmp_path / "out.csv").exists()


def test_sweep_requires_descending(runner, tmp_path):
    res = _run(runner, ["sweep", "epsilon", "--alpha", "0.25",
                        "--epsilons", "1e-3,1e-2"], tmp_path)
    assert res.exit_code == 2


def test_sweep_epsilon_weak_limit_row(runner, tmp_path):
    res = _run(runner, ["sweep", "epsilon", "--alpha", "0.25", "--modes", "3",
                        "--epsilons", "1e-1,1e-2"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 4                     # two eps rows plus weak limit
    assert lines[-1].startswith("0,")
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["weak_limit_residual"] <= 1e-2


# one command per family, each with its own flags; the --out check runs first
_OUT_COMMANDS = {
    "spectrum": ["spectrum", "dump", "--alpha", "0.25", "--epsilon", "0.1"],
    "weierstrass": ["weierstrass", "check", "--alpha", "0.25", "--epsilon", "0.1",
                    "--modes", "2"],
    "multiplier": ["multiplier", "check", "--alpha", "0.25", "--epsilon", "0.1",
                   "--modes", "1"],
    "biorth": ["biorth", "build", "--alpha", "0.25", "--epsilon", "0.1", "--modes", "1"],
    "control": ["control", "solve", "--alpha", "0.25", "--epsilon", "0.1", "--modes", "1"],
    "sweep": ["sweep", "epsilon", "--alpha", "0.25", "--modes", "1"],
    "ingham": ["ingham", "run", "--alpha", "0.25", "--epsilon", "0.1", "--modes", "1"],
}


@pytest.mark.parametrize("family", sorted(_OUT_COMMANDS))
def test_unwritable_out_exits_2_before_any_work(runner, tmp_path, monkeypatch, family):
    # a missing or unwritable directory, or a CSV or sidecar path that is a
    # directory, is refused with the path named, before the configuration is
    # even read, and nothing is written
    import viscowave.cli as cli

    def no_work(*args, **kw):
        raise AssertionError("work started before the --out check")

    monkeypatch.setattr(cli, "_build_cfg", no_work)
    monkeypatch.setattr(cli, "_number_list", no_work)
    (tmp_path / "taken.json").mkdir()
    (tmp_path / "locked").mkdir()
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        False if str(path) == str(tmp_path / "locked") else real_access(path, mode)))
    cases = {tmp_path / "missing" / "x.csv": f"directory {tmp_path / 'missing'} is missing",
             tmp_path / "locked" / "x.csv": "not writable",
             tmp_path: f"{tmp_path} is a directory",
             tmp_path / "taken.csv": f"{tmp_path / 'taken.json'} is a directory"}
    for out, message in cases.items():
        res = runner.invoke(main, _OUT_COMMANDS[family] + ["--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"invalid input: cannot write {out}" in res.output
        assert message in res.output
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["locked", "taken.json"]


def test_readme_command_table_matches_the_cli():
    # the first column of README's "Command line" table names every command
    # the click tree has, and no other, so a deleted or renamed command
    # cannot leave a stale row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Command line", 1)[1].split("| command | flags |", 1)[1]
    rows = table.split("\n\n", 1)[0].strip().splitlines()[1:]   # past the rule
    named = {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert named == {" ".join(path) for path, _ in _commands(main)}
