import json

import numpy as np
import pytest
from click.testing import CliRunner

from viscowave.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, cwd):
    return runner.invoke(main, args + ["--out", str(cwd / "out.csv")],
                         catch_exceptions=False)


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
# check end in a status word, verify writes only words, and the series row's
# gram_cond is nan by design (no Gram matrix on that route)
NEAR_HALF_COMMANDS = {
    "multiplier_check": (["multiplier", "check"], slice(0, -1)),
    "biorth_build": (["biorth", "build"], slice(None)),
    "biorth_verify": (["biorth", "verify"], slice(None)),
    "verify": (["verify"], slice(0, 0)),
    "control_solve_series": (["control", "solve", "--series"], [0, 1, 2, 3, 4, 6]),
    "ingham_run": (["ingham", "run"], slice(None)),
    "weierstrass_check": (["weierstrass", "check"], slice(0, -1)),
}
# weierstrass check at 0.55 runs to a FAIL verdict (exit 1) on the open
# growth-bound defect of its held-out indices, not to a traceback
NEAR_HALF_CASES = [(name, alpha) for name in NEAR_HALF_COMMANDS
                   for alpha in (0.5000001, 0.51, 0.55)
                   if (name, alpha) != ("weierstrass_check", 0.55)]


@pytest.mark.parametrize("name,alpha", NEAR_HALF_CASES,
                         ids=[f"{name}-{alpha}" for name, alpha in NEAR_HALF_CASES])
def test_near_half_alpha_finite_or_invalid(runner, tmp_path, name, alpha):
    # just above 1/2 the branch point gamma_eps is huge or inf: the node sums
    # below it and the product tail must give finite values or exit 2
    command, cols = NEAR_HALF_COMMANDS[name]
    res = runner.invoke(main, command + ["--alpha", repr(alpha), "--epsilon", "0.1",
                                         "--modes", "1", "--out", str(tmp_path / "out.csv")])
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
    assert "c_hat" in meta and "truncation_floor" in meta


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
    # eps = 0 takes the same family path as eps > 0: the sinc family's
    # support is 2 pi, so a shorter explicit horizon is refused
    args = ["control", "solve", "--series", "--epsilon", "0", "--alpha", "0.25",
            "--modes", "2"]
    res = _run(runner, args + ["--horizon", "5"], tmp_path)
    assert res.exit_code == 2
    assert "below family support" in res.output
    # the default horizon (2 pi) meets the support; its row is pinned
    assert _run(runner, args, tmp_path).exit_code == 0
    assert (tmp_path / "out.csv").read_text() == (
        "epsilon,alpha,n_modes,horizon,v_norm,gram_cond,final_residual\n"
        "0,0.25,2,6.2831853071795862,0.32174666020248921,nan,1.2574350136561766e-32\n")
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["omega"] == 0 and meta["beta_hat"] == 0.0


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
    # integral over the measured window reads 4.4e-15
    res = _run(runner, ["biorth", "verify", "--epsilon", "1e-4", "--alpha", "0.75",
                        "--modes", "4"], tmp_path)
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["max_deviation"] <= 1e-12


def test_deterministic_bytes(runner, tmp_path):
    args = ["control", "solve", "--alpha", "0.25", "--epsilon", "0.1",
            "--modes", "4", "--seed", "11"]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    assert _run(runner, args, a_dir).exit_code == 0
    assert _run(runner, args, b_dir).exit_code == 0
    assert (a_dir / "out.csv").read_bytes() == (b_dir / "out.csv").read_bytes()
    assert (a_dir / "out.json").read_bytes() == (b_dir / "out.json").read_bytes()


def test_config_file_with_flag_override(runner, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_modes = 2\n")
    res = _run(runner, ["spectrum", "dump", "--config", str(ini),
                        "--modes", "3"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 4                     # flag overrides file


def test_config_file_unknown_key_is_invalid_input(runner, tmp_path):
    # a misspelt key used to run silently with the default 8 modes
    ini = tmp_path / "run.ini"
    ini.write_text("[problem]\nalpha = 0.25\nepsilon = 0.1\nn_mode = 3\n")
    res = _run(runner, ["spectrum", "dump", "--config", str(ini)], tmp_path)
    assert res.exit_code == 2
    assert "invalid input" in res.output and "'n_mode'" in res.output
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["sweep", "epsilon", "--alpha", "0.25", "--epsilons", "0.1,x"],
     "--epsilons must be comma-separated numbers"),
    (["degeneracy", "--sizes", ""], "--sizes is empty"),
    (["degeneracy", "--sizes", "4,x"], "--sizes must be comma-separated integers"),
    (["degeneracy", "--sizes", "0"], "strictly ascending positive"),
    (["degeneracy", "--sizes", "8,4"], "strictly ascending positive"),
    (["degeneracy", "--sizes", "4,4"], "strictly ascending positive"),
    (["degeneracy", "--sizes", "4", "--horizon", "nan"], "horizon_T"),
    (["ingham", "run", "--alpha", "0.25", "--epsilon", "0.1", "--trials", "0"],
     "--trials"),
], ids=["eps-list-word", "sizes-empty", "sizes-word", "sizes-zero",
        "sizes-descending", "sizes-repeated", "degeneracy-horizon-nan",
        "trials-zero"])
def test_bad_list_and_count_flags_exit_2(runner, tmp_path, args, message):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flag", [["--alpha", "0.3"], ["--modes", "4"],
                                  ["--seed", "3"], ["--config", "run.ini"]])
def test_degeneracy_refuses_flags_it_does_not_read(runner, flag):
    # degeneracy always runs alpha 0.25, 0.5 and 0.75 at the --sizes counts;
    # it used to accept these flags and ignore them
    res = runner.invoke(main, ["degeneracy", "--sizes", "4"] + flag,
                        catch_exceptions=False)
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_degeneracy_study(runner, tmp_path):
    res = _run(runner, ["degeneracy", "--sizes", "4,8"], tmp_path)
    assert res.exit_code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "alpha,n_modes,gram_cond"
    assert len(lines) == 7                     # three alphas, two sizes
    meta = json.loads((tmp_path / "out.json").read_text())
    assert meta["alpha_half_monotone"] is True


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


def test_verify_command(runner, tmp_path):
    res = _run(runner, ["verify", "--alpha", "0.25", "--epsilon", "0.1"],
               tmp_path)
    assert res.exit_code == 0
    assert res.output.count("pass") >= 6
