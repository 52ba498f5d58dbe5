import dataclasses
import filecmp
import inspect
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from huberreg import (
    ContaminationSpec,
    NoiseSpec,
    SolverConfig,
    TheoremInputs,
    TuningParams,
    gen_low_rank,
    gen_sparse_beta,
    read_problem_bundle,
    solve_adversarial_lasso,
    solve_matrix_completion,
    solve_matrix_cs,
    tuning_completion,
    tuning_lasso,
    tuning_matrix_cs,
)
from huberreg.bundles import _BUNDLE_DIMS, _META_TYPES
from huberreg.cli import build_parser, main
from huberreg.datagen import _NOISE_KINDS, _STRATEGIES
from huberreg.diagnostics import _VARIANTS
from huberreg.experiments import (
    _SLOPE_AXES,
    _SLOPE_COLUMNS,
    RESULT_COLUMNS,
    SweepSpec,
    _kinds,
    _trial_master_seed,
    fit_rate_slope,
    run_trial,
)
from huberreg.problems import ProblemValidationError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "huberreg", *args],
        capture_output=True, text=True,
    )


def parse_kv(text):
    # status lines print key=val, report files print key = val
    out = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("generate", "solve", "tune", "diagnose", "sweep", "slope"):
        assert name in proc.stdout


def test_generate_solve_round_trip(tmp_path):
    bundle = tmp_path / "prob"
    gen = run_cli(
        "generate", "--kind", "lasso", "--n", "300", "--d", "20", "--s", "3",
        "--sigma", "0.1", "--o", "15", "--adversary", "random_large",
        "--magnitude", "10", "--seed", "4", "--out", str(bundle),
    )
    assert gen.returncode == 0, gen.stderr
    for name in ("y.csv", "X.csv", "meta.txt", "beta_true.csv", "theta_true.csv"):
        assert (bundle / name).exists()

    fit = tmp_path / "fit"
    sol = run_cli("solve", "--bundle", str(bundle), "--out", str(fit),
                  "--tuning", "fixed", "--lambda-o", "0.36", "--lambda-star", "0.08")
    assert sol.returncode == 0, sol.stderr
    est = np.loadtxt(fit / "estimate.csv")
    truth = np.loadtxt(bundle / "beta_true.csv")
    assert est.shape == (20,)
    assert np.linalg.norm(est - truth) < 0.5
    meta = parse_kv((fit / "solve_meta.txt").read_text())
    assert meta["converged"] == "1"
    assert meta["estimator"] == "lasso"
    assert float(meta["objective"]) > 0.0


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--kind", "completion", "--n", "200", "--d1", "8",
            "--d2", "8", "--rank", "1", "--sigma", "0.05", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    common = [p.name for p in a.iterdir()]
    match, mismatch, errors = filecmp.cmpfiles(a, b, common, shallow=False)
    assert sorted(match) == sorted(common)
    assert not mismatch and not errors


def test_tune_matches_library_and_out_file(tmp_path):
    out = tmp_path / "tune.txt"
    proc = run_cli("tune", "--model", "lasso", "--n", "1000", "--d", "100",
                   "--s", "5", "--o", "50", "--delta", "0.1", "--sigma", "1.0",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    kv = parse_kv(proc.stdout)
    rep = tuning_lasso(TheoremInputs(n=1000, o=50, d=100, s=5, delta=0.1, sigma=1.0))
    assert float(kv["lambda_star"]) == pytest.approx(rep.lambda_star, rel=1e-15)
    assert float(kv["lambda_o"]) == pytest.approx(rep.lambda_o, rel=1e-15)
    assert out.read_text() == proc.stdout


def test_tune_completion_needs_alpha_star():
    proc = run_cli("tune", "--model", "completion", "--n", "500", "--d1", "16",
                   "--d2", "16", "--rank", "2", "--alpha", "2.0")
    assert proc.returncode == 2
    assert "alpha" in proc.stderr.lower()


@pytest.mark.parametrize("options, message", [
    (["--alpha-star", "inf"], "alpha_star must be positive, got inf"),
    (["--alpha-star", "2", "--variant", "heavy_tailed", "--alpha", "inf"],
     "alpha must be positive, got inf"),
    (["--alpha-star", "2", "--alpha", "nan"], "alpha must be positive, got nan"),
    (["--alpha-star", "2", "--alpha", "0"], "alpha must be positive, got 0.0"),
])
def test_tune_completion_rejects_bad_alpha_by_name(capsys, options, message):
    assert main(["tune", "--model", "completion", "--n", "400", "--d1", "8", "--d2", "6",
                 "--rank", "2", *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_diagnose_re_identity():
    proc = run_cli("diagnose", "re", "--d", "6", "--s", "2")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert float(kv["value"]) == pytest.approx(1.0, abs=0.02)


def test_diagnose_mre_identity():
    proc = run_cli("diagnose", "mre", "--d1", "3", "--d2", "3", "--rank", "1",
                   "--probes", "2000", "--seed", "0")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert 0.99 <= float(kv["value"]) <= 1.0 + 1e-9


def test_diagnose_spikiness_from_csv(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.ones((5, 4)), delimiter=",")
    proc = run_cli("diagnose", "spikiness", "--matrix-csv", str(mat))
    assert proc.returncode == 0
    assert float(parse_kv(proc.stdout)["value"]) == 1.0


def test_sweep_and_slope_commands(tmp_path):
    cfg = {
        "problem_kind": "lasso",
        "n_grid": [50, 100, 200],
        "d_grid": [10],
        "s_grid": [2],
        "noise_grid": [{"kind": "gaussian", "sigma": 0.1}],
        "trials_per_cell": 2,
        "base_seed": 7,
        "max_iters": 400,
        "rel_tol": 1e-7,
        "oracle_multipliers": [0.3, 1.0, 3.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res1, res2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(res1)).returncode == 0
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(res2),
                   "--jobs", "2").returncode == 0
    assert res1.read_bytes() == res2.read_bytes()

    proc = run_cli("slope", "--results", str(res1), "--x", "n", "--y", "error")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert -1.5 < float(kv["slope"]) < 0.0
    assert int(kv["points"]) == 3


def test_bad_sweep_config_exits_two(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"problem_kind": "lasso", "n_grid": [50],
                                    "d_grid": [10], "s_grid": [2], "bogus": 1}))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"))
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


_COMPLETION = {"problem_kind": "completion", "n_grid": [400], "d_grid": [[8, 8]], "s_grid": [2]}


@pytest.mark.parametrize("cfg, message", [
    ({}, "missing sweep config keys: ['problem_kind', 'n_grid', 'd_grid', 's_grid']"),
    ({"n_grid": 5}, "n_grid: 'int' object is not iterable"),
    ({"noise_grid": [{"kind": "gaussian", "sigam": 0.01}]},
     "noise_grid: unknown keys ['sigam']"),
    ({"o_grid": [5], "adversary_grid": [{"strategy": "random_large", "magnitud": 3}]},
     "adversary_grid: unknown keys ['magnitud']"),
    # theorem inputs are not sweep keys: they come from TheoremInputs and the problem
    ({"delta": 0.05}, "unknown sweep config keys: ['delta']"),
    # a number of the wrong type is named, not truncated, compared or counted
    ({"n_grid": [50.7]}, "n_grid: expected an integer, got 50.7"),
    ({"trials_per_cell": "2"}, "trials_per_cell: expected an integer, got '2'"),
    ({"max_iters": 2.5}, "max_iters: expected an integer, got 2.5"),
    ({"trials_per_cell": True}, "trials_per_cell: expected an integer, got True"),
    ({"spikiness_cap": True}, "spikiness_cap: expected a number, got True"),
    # grid entry values too, and an o > 0 cell must say how large its spikes are
    ({"noise_grid": [{"kind": "gaussian", "sigma": True}]},
     "noise_grid: 'sigma': expected a number, got True"),
    ({"noise_grid": [{"kind": "student_t", "alpha": "3"}]},
     "noise_grid: 'alpha': expected a number, got '3'"),
    ({"o_grid": [5], "adversary_grid": [{"strategy": "random_large", "magnitude": "x"}]},
     "adversary_grid: 'magnitude': expected a number, got 'x'"),
    ({"o_grid": [0, 5], "adversary_grid": [{"strategy": "random_large"}]},
     "adversary_grid: an entry needs 'magnitude' when o > 0"),
    # a cell its trial would reject: named with the rule that rejects it
    ({"o_grid": [0, 5], "adversary_grid": [{"strategy": "none", "magnitude": 0.0}]},
     "cell 1 (o=5, n=50, s=2, d=10): strategy 'none' requires o == 0"),
    ({"noise_grid": [{"kind": "gaussian", "sigma": 0.1}, {"kind": "student_t", "sigma": 0.1}]},
     "cell 1 (o=0, n=50, s=2, d=10): student_t needs alpha (dof) > 2"),
    ({"noise_grid": [{"kind": "weibull_symmetric", "sigma": 0.1, "alpha": 3}]},
     "cell 0 (o=0, n=50, s=2, d=10): weibull_symmetric needs alpha in (0, 2]"),
    ({"noise_grid": [{"kind": "gaussian", "sigma": -1}]},
     "cell 0 (o=0, n=50, s=2, d=10): sigma must be positive, got -1.0"),
    ({"o_grid": [5], "adversary_grid": [{"strategy": "random_large", "magnitude": float("inf")}]},
     "cell 0 (o=5, n=50, s=2, d=10): magnitude must be finite"),
    ({"o_grid": [0, 10], "adversary_grid": [{"strategy": "random_large", "magnitude": 0}]},
     "cell 1 (o=10, n=50, s=2, d=10): magnitude must be nonzero for strategy 'random_large'"),
    ({"o_grid": [10], "adversary_grid": [{"strategy": "adaptive_residual", "magnitude": 0.0}]},
     "cell 0 (o=10, n=50, s=2, d=10): magnitude must be nonzero for strategy "
     "'adaptive_residual'"),
    ({"s_grid": [2, 0]}, "cell 1 (o=0, n=50, s=0, d=10): need 1 <= s <= d, got s=0, d=10"),
    ({**_COMPLETION, "d_grid": [[8, 8], [1, 1]], "s_grid": [1]},
     "cell 1 (o=0, n=400, rank=1, dims=(1, 1)): completion needs d1 * d2 > 1"),
    ({**_COMPLETION, "n_grid": [400, 10], "d_grid": [[20, 20]]},
     "cell 1 (o=0, n=10, rank=2, dims=(20, 20)): sub-Weibull lambda_o undefined"),
    ({**_COMPLETION, "spikiness_cap": 0.5},
     "cell 0 (o=0, n=400, rank=2, dims=(8, 8)): a spikiness bound must be >= 1, got 0.5"),
    ({**_COMPLETION, "spikiness_cap": float("nan")},
     "cell 0 (o=0, n=400, rank=2, dims=(8, 8)): a spikiness bound must be >= 1, got nan"),
    # a penalty level its trial's TuningParams would reject: the theorem lambda_o
    # and the quadratic regime's QUADRATIC_SCALE sigma / sqrt(n) overflow
    ({"noise_grid": [{"kind": "gaussian", "sigma": 1e307}]},
     "cell 0 (o=0, n=50, s=2, d=10): lambda_o must be positive, got inf"),
    ({"noise_grid": [{"kind": "gaussian", "sigma": 1e300}], "loss_regime": "quadratic"},
     "cell 0 (o=0, n=50, s=2, d=10): lambda_o must be positive, got inf"),
    # the solver config, the fixed penalties and the oracle grid are the same for
    # every cell: named by key
    ({"oracle_multipliers": [1.0, 0]},
     "oracle_multipliers: expected a positive finite number, got 0"),
    ({"tuning_mode": "fixed", "fixed_lambda_o": -1, "fixed_lambda_star": 0.1},
     "fixed_lambda_o must be positive, got -1.0"),
    ({"rel_tol": 1}, "rel_tol must be in (0, 1), got 1.0"),
    ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
    # a config that is not a JSON object is named by its type
    (5, "sweep config must be a JSON object, got int"),
    (None, "sweep config must be a JSON object, got NoneType"),
    ([["a", 1]], "sweep config must be a JSON object, got list"),
], ids=["no_keys", "scalar_grid", "noise_entry_key", "adversary_entry_key", "theorem_key",
        "fractional_grid_entry", "string_int", "fractional_int", "bool_int", "bool_float",
        "bool_entry_value", "string_alpha", "string_entry_value", "missing_magnitude",
        "o_without_adversary", "student_t_without_alpha", "weibull_alpha_3", "negative_sigma",
        "infinite_magnitude", "zero_magnitude", "zero_magnitude_adaptive",
        "lasso_s0_theorem", "completion_1x1", "completion_subweibull_n10",
        "completion_cap_below_1", "completion_cap_nan", "theorem_lambda_overflow",
        "quadratic_lambda_overflow", "zero_multiplier", "negative_fixed_lambda", "rel_tol_1",
        "max_iters_0", "number_config", "null_config", "array_config"])
def test_malformed_sweep_config_exits_two_naming_key(tmp_path, capsys, cfg, message):
    base = {"problem_kind": "lasso", "n_grid": [50], "d_grid": [10], "s_grid": [2]}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**base, **cfg} if isinstance(cfg, dict) and cfg else cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bad_last_cell_exits_two_before_any_trial_or_worker(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    import huberreg.experiments as experiments

    calls = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(experiments, "run_trial", lambda *a, **k: calls.append(a))
    # only the last cell has more outliers than samples
    cfg = {"problem_kind": "lasso", "n_grid": [100, 50], "d_grid": [10], "s_grid": [2],
           "o_grid": [0, 60], "adversary_grid": [{"strategy": "random_large", "magnitude": 5}]}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), "--jobs", "2"]
    assert main(argv) == 2
    assert "cell 3 (o=60, n=50, s=2, d=10): need 0 <= o <= n, got o=60" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


def test_importing_the_cli_loads_no_process_pool():
    """A command that does not fork pays for no process pool: a fresh
    interpreter that imports the package and its CLI has loaded neither
    concurrent.futures.process nor multiprocessing. run_sweep imports the
    pool only when jobs > 1."""
    code = ("import sys, huberreg, huberreg.cli; "
            "print(*(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_slope_loads_no_numpy_ma(tmp_path):
    """``slope`` takes its group medians without np.median, whose NaN check
    imports numpy.ma: a fresh interpreter that runs it has not loaded
    numpy.ma, so neither a sweep that follows nor its forked workers hold it."""
    path = _results_csv(tmp_path / "r.csv")
    code = ("import sys, huberreg.cli; "
            "rc = huberreg.cli.main(['slope', '--results', sys.argv[1], '--x', 'n']); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "slope=" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    import huberreg.experiments as experiments

    calls = []
    monkeypatch.setattr(experiments, "run_trial", lambda *a, **k: calls.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem_kind": "lasso", "n_grid": [50], "d_grid": [10],
                                    "s_grid": [2], "trials_per_cell": 1}))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), "--jobs", jobs]
    assert main(argv) == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--kind", "lasso", "--n", "50", "--d", "10", "--s", "2", "--seed", "-3"],
     "seed must be nonnegative, got -3"),
    (["diagnose", "mre", "--d1", "3", "--d2", "3", "--rank", "1", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["sweep", "--jobs", "2"], "base_seed must be nonnegative, got -1"),
])
def test_negative_seed_exits_two_naming_the_field(tmp_path, capsys, monkeypatch, argv, message):
    """A negative seed is rejected by name at each entry, before any draw,
    trial or worker, not deep in numpy's SeedSequence."""
    import concurrent.futures

    import huberreg.experiments as experiments

    calls = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(experiments, "run_trial", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    if argv[0] == "sweep":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem_kind": "lasso", "n_grid": [50], "d_grid": [10],
                                        "s_grid": [2], "base_seed": -1}))
        argv = argv + ["--config", str(cfg_path)]
    if argv[0] != "diagnose":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_missing_bundle_exits_three(tmp_path):
    proc = run_cli("solve", "--bundle", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "fit"))
    assert proc.returncode == 3


def test_generate_lasso_needs_d_and_s(tmp_path):
    proc = run_cli("generate", "--kind", "lasso", "--n", "100",
                   "--out", str(tmp_path / "p"))
    assert proc.returncode == 2


def test_malformed_csv_exits_two_naming_line(tmp_path, capsys):
    assert main(["generate", "--kind", "lasso", "--n", "8", "--d", "3", "--s", "1",
                 "--seed", "17", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    with open(tmp_path / "b" / "X.csv", "a", encoding="utf-8") as fh:
        fh.write("1,2\n")
    rc = main(["solve", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "fit"),
               "--tuning", "fixed", "--lambda-o", "0.3", "--lambda-star", "0.1"])
    assert rc == 2
    assert "X.csv, line 9: 2 values, but the first row has 3" in capsys.readouterr().err

    # diagnose reads its CSVs with the same reader, so it reports the same way
    (tmp_path / "M.csv").write_text("1,0\n0,x\n", encoding="utf-8")
    rc = main(["diagnose", "spikiness", "--matrix-csv", str(tmp_path / "M.csv")])
    assert rc == 2
    assert "M.csv, line 2: could not convert string to float: 'x'" in capsys.readouterr().err


# ------------------------------------------- generate -> solve, theorem tuning

_KINDS = {
    "lasso": (["--d", "30", "--s", "3"], "beta_true.csv"),
    "matrix_cs": (["--d1", "5", "--d2", "4", "--rank", "2"], "B_true.csv"),
    "completion": (["--d1", "8", "--d2", "6", "--rank", "2"], "B_true.csv"),
}


def _theorem_report(kind, n, o, sigma, alpha_star=None, size=None, L=1.0, rho=1.0):
    """The library's tuning on the inputs the CLI's defaults give, where ``size``
    (the sparsity or rank), ``L`` and ``rho`` are not given otherwise."""
    common = dict(n=n, o=o, delta=0.1, sigma=sigma, kappa=1.0, c0=3.0)
    if kind == "lasso":
        return tuning_lasso(TheoremInputs(d=30, s=size or 3, L=L, rho=rho, **common))
    if kind == "matrix_cs":
        return tuning_matrix_cs(TheoremInputs(dims=(5, 4), r=size or 2, L=L, rho=rho, **common))
    return tuning_completion(TheoremInputs(dims=(8, 6), r=size or 2, alpha=2.0,
                                           alpha_star=alpha_star, **common), variant="subweibull")


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_generate_solve_theorem_tuning_matches_library(tmp_path, capsys, kind):
    size, truth_name = _KINDS[kind]
    bundle, fit = tmp_path / "b", tmp_path / "f"
    seed, n, o = 5, 400, 8
    assert main(["generate", "--kind", kind, "--n", str(n), *size, "--o", str(o),
                 "--adversary", "random_large", "--magnitude", "10", "--sigma", "0.1",
                 "--seed", str(seed), "--out", str(bundle)]) == 0
    assert main(["solve", "--bundle", str(bundle), "--out", str(fit)]) == 0
    capsys.readouterr()

    truth_seed = np.random.SeedSequence([seed, 3])
    if kind == "lasso":
        truth = gen_sparse_beta(30, 3, 1.0, truth_seed)
    else:
        d1, d2 = (5, 4) if kind == "matrix_cs" else (8, 6)
        truth = gen_low_rank(d1, d2, 2, 3.0 if kind == "completion" else np.inf, truth_seed)
    written = np.loadtxt(bundle / truth_name, delimiter=",", ndmin=1 if kind == "lasso" else 2)
    assert written.tobytes() == truth.tobytes()

    problem = read_problem_bundle(str(bundle))
    alpha_star = float(problem.meta["alpha_star"]) if kind != "lasso" else None
    rep = _theorem_report(kind, n, o, 0.1, alpha_star)
    meta = parse_kv((fit / "solve_meta.txt").read_text())
    assert float(meta["lambda_o"]) == pytest.approx(rep.lambda_o, rel=1e-15)
    assert float(meta["lambda_star"]) == pytest.approx(rep.lambda_star, rel=1e-15)

    cfg = SolverConfig(max_iters=5000, rel_tol=1e-9)
    if kind == "lasso":
        res = solve_adversarial_lasso(problem, TuningParams(rep.lambda_o, rep.lambda_star), cfg)
    elif kind == "matrix_cs":
        res = solve_matrix_cs(problem, TuningParams(rep.lambda_o, rep.lambda_star), cfg)
    else:
        radius = alpha_star / np.sqrt(8 * 6)
        assert float(meta["inf_ball_radius"]) == radius
        res = solve_matrix_completion(
            problem, TuningParams(rep.lambda_o, rep.lambda_star, inf_ball_radius=radius), cfg)
    est = np.loadtxt(fit / "estimate.csv", delimiter=",", ndmin=2)
    assert est.reshape(res.estimate.shape).tobytes() == res.estimate.tobytes()
    assert int(meta["iterations"]) == res.iterations


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_options_override_bundle_meta_in_solve_and_tune(tmp_path, capsys, kind):
    """An option given to solve wins over the bundle's meta.txt entry, and tune
    on the same options prints the same penalty levels."""
    size = _KINDS[kind][0]
    bundle = tmp_path / "b"
    assert main(["generate", "--kind", kind, "--n", "400", *size, "--o", "8",
                 "--adversary", "random_large", "--magnitude", "10", "--sigma", "0.1",
                 "--seed", "5", "--out", str(bundle)]) == 0
    options = ["--sigma", "0.3", "--o", "4", "--L", "2", "--rho", "0.5",
               *(["--s", "2"] if kind == "lasso" else ["--rank", "1"]),
               *(["--alpha-star", "2.5"] if kind == "completion" else [])]
    assert main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f"), *options]) == 0
    solved = parse_kv((tmp_path / "f" / "solve_meta.txt").read_text())
    capsys.readouterr()
    assert main(["tune", "--model", kind, "--n", "400", *size[:-2], *options]) == 0
    tuned = parse_kv(capsys.readouterr().out)

    rep = _theorem_report(kind, 400, 4, 0.3, alpha_star=2.5, size=2 if kind == "lasso" else 1,
                          L=2.0, rho=0.5)
    for kv in (solved, tuned):
        assert float(kv["lambda_o"]) == rep.lambda_o
        assert float(kv["lambda_star"]) == rep.lambda_star
    if kind == "completion":
        assert float(solved["inf_ball_radius"]) == 2.5 / np.sqrt(8 * 6)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_tune_matches_library_for_every_model(capsys, kind):
    size = _KINDS[kind][0]
    extra = ["--alpha-star", "2.5"] if kind == "completion" else []
    assert main(["tune", "--model", kind, "--n", "400", "--o", "8", "--sigma", "0.1",
                 *size, *extra]) == 0
    kv = parse_kv(capsys.readouterr().out)
    rep = _theorem_report(kind, 400, 8, 0.1, 2.5)
    assert kv["model"] == rep.model
    assert float(kv["lambda_o"]) == pytest.approx(rep.lambda_o, rel=1e-15)
    assert float(kv["lambda_star"]) == pytest.approx(rep.lambda_star, rel=1e-15)
    assert float(kv["predicted_radius"]) == pytest.approx(rep.predicted_radius, rel=1e-15)


@pytest.mark.parametrize("flag", ["--L", "--rho"])
@pytest.mark.parametrize("model", ["lasso", "matrix_cs"])
def test_tune_rejects_zero_L_and_rho(capsys, flag, model):
    # 0 is a value, not a missing option: it must not turn into the default 1.0
    rc = main(["tune", "--model", model, "--n", "400", *_KINDS[model][0], flag, "0"])
    assert rc == 2
    assert f"{flag[2:]} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_theorem_trial_and_solve_tune_alike(tmp_path, capsys, kind):
    """A theorem-mode sweep trial and solve, on the bundle generate writes from
    the trial's seed and cell, fit the same penalty levels and the same
    estimate, bit for bit."""
    size = _KINDS[kind][0]
    dims = 30 if kind == "lasso" else (int(size[1]), int(size[3]))
    spec = SweepSpec(problem_kind=kind, n_grid=(400,), d_grid=(dims,), s_grid=(int(size[-1]),),
                     o_grid=(8,), noise_grid=({"kind": "gaussian", "sigma": 0.1},),
                     adversary_grid=({"strategy": "random_large", "magnitude": 10.0},),
                     trials_per_cell=2, base_seed=4, tuning_mode="theorem", max_iters=20)
    rec = run_trial(spec, 0, 1)
    bundle, fit = tmp_path / "b", tmp_path / "f"
    assert main(["generate", "--kind", kind, "--n", "400", *size, "--o", "8",
                 "--adversary", "random_large", "--magnitude", "10", "--sigma", "0.1",
                 "--seed", str(_trial_master_seed(4, 0, 1)), "--out", str(bundle)]) == 0
    assert main(["solve", "--bundle", str(bundle), "--out", str(fit),
                 "--max-iters", str(spec.max_iters)]) == 0
    capsys.readouterr()
    meta = parse_kv((fit / "solve_meta.txt").read_text())
    assert float(meta["lambda_o"]) == rec.lambda_o
    assert float(meta["lambda_star"]) == rec.lambda_star
    # and the same problem and fit: the estimate's error against the bundle's truth
    problem = read_problem_bundle(str(bundle))
    truth = problem.beta_true if kind == "lasso" else problem.B_true
    estimate = np.loadtxt(fit / "estimate.csv", delimiter=",").reshape(truth.shape)
    assert float(np.linalg.norm(estimate - truth)) == rec.error


def test_tune_completion_reads_L_and_rho_but_checks_them(capsys):
    """Completion's calculator reads neither L nor rho, so they do not move its
    penalty levels; they are still theorem inputs and must be positive."""
    base = ["tune", "--model", "completion", "--n", "400", *_KINDS["completion"][0],
            "--alpha-star", "2.5"]
    assert main(base) == 0
    plain = parse_kv(capsys.readouterr().out)
    assert main([*base, "--L", "2", "--rho", "0.5"]) == 0
    assert parse_kv(capsys.readouterr().out) == plain
    assert main([*base, "--L", "0"]) == 2
    assert "L must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["re", "--d", "3", "--s", "1", "--c0", "nan"], "c0 must be positive, got nan"),
    (["mre", "--d1", "3", "--d2", "3", "--rank", "1", "--c0", "nan"],
     "c0 must be positive, got nan"),
    (["re", "--d", "-1", "--s", "1"], "--d must be >= 1, got -1"),
    (["mre", "--d1", "-1", "--d2", "3", "--rank", "1"], "--d1 must be >= 1, got -1"),
    (["mre", "--d1", "3", "--d2", "0", "--rank", "1"], "--d2 must be >= 1, got 0"),
], ids=["re-c0-nan", "mre-c0-nan", "re-negative-d", "mre-negative-d1", "mre-zero-d2"])
def test_diagnose_rejects_bad_c0_and_d(capsys, argv, message):
    assert main(["diagnose", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["tune", "--model", "matrix_cs", "--n", "100", "--d1", "0", "--d2", "3", "--rank", "1"],
     "d1 and d2 must be >= 1, got d1=0, d2=3"),
    (["generate", "--kind", "completion", "--n", "100", "--d1", "3", "--d2", "-1", "--rank", "1"],
     "d1 and d2 must be >= 1, got d1=3, d2=-1"),
], ids=["tune-zero-d1", "generate-negative-d2"])
def test_nonpositive_matrix_dims_exit_two_naming_the_dims(tmp_path, capsys, argv, message):
    """A d1 or d2 below 1 is named, not reported as a bad rank."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["random_large", "adaptive_residual"])
def test_generate_zero_magnitude_with_outliers_exits_two(tmp_path, capsys, strategy):
    """A zero magnitude corrupts none of the o rows, so generate would report o
    rows and write o = 0: it exits 2 naming the magnitude, writing nothing."""
    out = tmp_path / "out"
    assert main(["generate", "--kind", "lasso", "--n", "50", "--d", "10", "--s", "2",
                 "--o", "5", "--adversary", strategy, "--magnitude", "0",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"magnitude must be nonzero for strategy '{strategy}' when o > 0" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("text", ["", "1,2\n3,nan\n"])
def test_diagnose_spikiness_rejects_empty_and_nonfinite(tmp_path, capsys, text):
    path = tmp_path / "M.csv"
    path.write_text(text, encoding="utf-8")
    rc = main(["diagnose", "spikiness", "--matrix-csv", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("nonempty" if not text else "finite") in err


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_solve_on_trace_bundle_with_empty_design_exits_two(tmp_path, capsys, text):
    """A dense trace bundle whose X.csv holds no row exits 2 naming the file,
    not with an IndexError on the missing column count."""
    bundle = tmp_path / "b"
    assert main(["generate", "--kind", "matrix_cs", "--n", "30", "--d1", "3", "--d2", "3",
                 "--rank", "1", "--out", str(bundle)]) == 0
    (bundle / "X.csv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f")]) == 2
    assert f"{bundle / 'X.csv'}: expected rows of d1*d2 = 9 values" in capsys.readouterr().err


@pytest.mark.parametrize("bundle_kind, estimator, code", [
    ("matrix_cs", "lasso", 2),
    ("completion", "lasso", 2),
    ("lasso", "matrix_cs", 2),
    ("lasso", "completion", 2),
    ("completion", "matrix_cs", 0),
    ("matrix_cs", "completion", 0),
])
def test_solve_rejects_vector_matrix_mismatch(tmp_path, capsys, bundle_kind, estimator, code):
    bundle = tmp_path / "b"
    assert main(["generate", "--kind", bundle_kind, "--n", "200", *_KINDS[bundle_kind][0],
                 "--sigma", "0.1", "--seed", "3", "--out", str(bundle)]) == 0
    capsys.readouterr()
    rc = main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f"),
               "--estimator", estimator, "--alpha-star", "2"])
    assert rc == code
    if code == 2:
        meta_kind = read_problem_bundle(str(bundle)).meta["kind"]
        err = capsys.readouterr().err
        assert f"estimator {estimator} cannot fit a {meta_kind} bundle" in err


def test_kind_names_are_one_set_taken_from_the_kind_records(tmp_path, capsys):
    """The kinds SweepSpec accepts, the choices of generate --kind, tune
    --model and solve --estimator (besides auto), and the bundle kinds solve
    maps are all the names of experiments' kind records, so a kind added or
    renamed there cannot be left out of one of them."""
    names = list(_kinds())
    assert names == [kind.name for kind in _kinds().values()] and set(names) == set(_KINDS)
    for name in (*names, "ridge", "trace_dense"):
        with pytest.raises(ProblemValidationError) as exc:  # an empty d_grid fails after the kind
            SweepSpec(problem_kind=name, n_grid=(100,), d_grid=(), s_grid=(1,))
        assert ("unknown problem_kind" in str(exc.value)) == (name not in names)
    commands = build_parser()._subparsers._group_actions[0].choices
    choices = {(cmd, dest): next(a.choices for a in commands[cmd]._actions if a.dest == dest)
               for cmd, dest in (("generate", "kind"), ("tune", "model"), ("solve", "estimator"))}
    assert choices.pop(("solve", "estimator")) == ["auto", *names]
    assert list(choices.values()) == [names, names]
    for kind in _kinds().values():
        bundle = tmp_path / kind.name
        assert main(["generate", "--kind", kind.name, "--n", "200", *_KINDS[kind.name][0],
                     "--sigma", "0.1", "--out", str(bundle)]) == 0
        assert read_problem_bundle(str(bundle)).meta["kind"] == kind.bundle
        assert main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f")]) == 0
        assert f"estimator={kind.name}\n" in capsys.readouterr().out
    assert len({kind.bundle for kind in _kinds().values()}) == len(names)


def _results_csv(path):
    """A three-point results file that ``slope --x n`` accepts."""
    header = ",".join(RESULT_COLUMNS)
    rows = [f"lasso,{i},0,{n},10,0,2,0,gaussian,0.1,nan,none,0,0.3,0.05,12,1,{e},0.5,0.5,1"
            for i, (n, e) in enumerate([(50, 0.4), (100, 0.3), (200, 0.2)])]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 3)[0]] + lines[3:],
     "line 3: 18 values, but the header has 21"),
    (lambda lines: ["foo,bar"] + lines[1:], "line 1: unknown column 'foo', unknown column 'bar'"),
    (lambda lines: lines[:3] + [lines[3].replace(",12,", ",zero,")],
     "line 4: invalid literal for int() with base 10: 'zero'"),
], ids=["truncated_row", "unknown_header", "bad_token"])
def test_slope_on_malformed_results_exits_two_naming_line(tmp_path, capsys, edit, message):
    path = _results_csv(tmp_path / "r.csv")
    assert main(["slope", "--results", str(path), "--x", "n"]) == 0
    capsys.readouterr()
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    assert main(["slope", "--results", str(path), "--x", "n"]) == 2
    assert f"{path}, {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value, message", [
    ("matrix_cs", "d1", None, "needs a d1 line"),
    ("completion", "d2", None, "needs a d2 line"),
    ("matrix_cs", "d1", "5.5", "d1 must be an integer, got '5.5'"),
    ("completion", "d2", "x", "d2 must be an integer, got 'x'"),
    ("lasso", "s", "2.7", "s must be an integer, got '2.7'"),
    ("completion", "rank", "1.5", "rank must be an integer, got '1.5'"),
    ("lasso", "o", "4.9", "o must be an integer, got '4.9'"),
    ("matrix_cs", "sigma", "abc", "sigma must be a number, got 'abc'"),
], ids=["matrix_cs-d1", "completion-d2", "matrix_cs-d1-fractional", "completion-d2-text",
        "lasso-s-fractional", "completion-rank-fractional", "lasso-o-fractional",
        "matrix_cs-sigma-text"])
def test_solve_on_bundle_without_dims_exits_two_naming_key(tmp_path, capsys, kind, key, value,
                                                            message):
    """A missing d1/d2 line, or a meta.txt value not of its key's type, exits 2
    naming meta.txt and the key; 5.5 is not read as 5, nor 2.7 as 2."""
    bundle = tmp_path / "b"
    size = ["--d", "10", "--s", "2"] if kind == "lasso" else ["--d1", "3", "--d2", "3",
                                                               "--rank", "1"]
    assert main(["generate", "--kind", kind, "--n", "30", *size, "--out", str(bundle)]) == 0
    meta = bundle / "meta.txt"
    lines = meta.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(ln for ln in lines if not ln.startswith(f"{key} ="))
    meta.write_text(kept if value is None else kept + f"{key} = {value}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert str(meta) in err and message in err


# ------------------------------------------------ solve's tuning, pinned

_PIN_BUNDLES = {
    "lasso": ["--kind", "lasso", "--d", "30", "--s", "3"],
    "completion": ["--kind", "completion", "--d1", "8", "--d2", "6", "--rank", "2"],
    "trace_dense": ["--kind", "matrix_cs", "--d1", "5", "--d2", "4", "--rank", "2"],
}


@pytest.fixture(scope="module")
def pin_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    for name, kind in _PIN_BUNDLES.items():
        assert main(["generate", "--n", "200", *kind, "--o", "8", "--adversary", "random_large",
                     "--magnitude", "10", "--sigma", "0.1", "--seed", "5",
                     "--out", str(root / name)]) == 0
    return root


def _meta(*lines):
    return "".join(f"{ln}\n" for ln in lines)


_LASSO_FIXED = ["--tuning", "fixed", "--lambda-o", "0.36", "--lambda-star", "0.08"]


@pytest.mark.parametrize("bundle, options, expected", [
    ("lasso", [], _meta(
        "estimator = lasso", "lambda_o = 0.50911688245431419",
        "lambda_star = 1.0321204024553694", "objective = 41.159722651753583",
        "iterations = 6", "converged = 1")),
    ("lasso", _LASSO_FIXED, _meta(
        "estimator = lasso", "lambda_o = 0.35999999999999999",
        "lambda_star = 0.080000000000000002", "objective = 28.500364562580788",
        "iterations = 15", "converged = 1")),
    ("completion", ["--alpha-star", "1"], _meta(
        "estimator = completion", "lambda_o = 0.020045708086578618",
        "lambda_star = 0.15523488195151597", "inf_ball_radius = 0.14433756729740646",
        "objective = 1.7564137027048323", "iterations = 16", "converged = 1")),
    ("completion", ["--inf-radius", "0.1"], _meta(
        "estimator = completion", "lambda_o = 0.020045708086578618",
        "lambda_star = 0.15523488195151597", "inf_ball_radius = 0.10000000000000001",
        "objective = 1.7587792920022622", "iterations = 50", "converged = 0")),
    ("trace_dense", ["--estimator", "completion", "--inf-radius", "0.1", "--sigma", "0.01"],
     _meta("estimator = completion", "lambda_o = 0.050911688245431415",
           "lambda_star = 0.1845260898372531", "inf_ball_radius = 0.10000000000000001",
           "objective = 4.382762121411738", "iterations = 50", "converged = 0")),
    ("completion", ["--estimator", "matrix_cs"], _meta(
        "estimator = matrix_cs", "lambda_o = 0.020045708086578618",
        "lambda_star = 0.15523488195151597", "objective = 1.755856793522836",
        "iterations = 38", "converged = 1")),
], ids=["lasso-theorem", "lasso-fixed", "completion-alpha-star", "completion-inf-radius",
        "trace_dense-inf-radius", "completion-by-matrix_cs"])
def test_solve_meta_pinned_for_each_tuning_path(pin_bundles, tmp_path, capsys, bundle, options,
                                                expected):
    """solve_meta.txt, byte for byte, for theorem and fixed levels and each way
    completion gets its box: from --alpha-star, or --inf-radius on either
    matrix bundle; the matrix_cs estimator on a completion bundle has none."""
    fit = tmp_path / "f"
    assert main(["solve", "--bundle", str(pin_bundles / bundle), "--out", str(fit),
                 "--max-iters", "50", *options]) == 0
    capsys.readouterr()
    assert (fit / "solve_meta.txt").read_bytes() == expected.encode()


@pytest.mark.parametrize("bundle, options, estimator", [
    ("lasso", [], "lasso"),
    ("trace_dense", [], "matrix_cs"),
    ("completion", ["--estimator", "matrix_cs"], "matrix_cs"),
], ids=["lasso", "trace_dense-by-matrix_cs", "completion-by-matrix_cs"])
def test_solve_inf_radius_without_completion_exits_two(pin_bundles, tmp_path, capsys, bundle,
                                                       options, estimator):
    """Only the completion estimator has a box: --inf-radius on any other fit
    exits 2 by name before any solve, as an --estimator mismatch does."""
    fit = tmp_path / "f"
    assert main(["solve", "--bundle", str(pin_bundles / bundle), "--out", str(fit),
                 "--inf-radius", "0.5", *options]) == 2
    assert capsys.readouterr().err == (
        f"error: --inf-radius needs the completion estimator, not {estimator}\n")
    assert not fit.exists()


def test_solve_tuning_errors_exit_two(pin_bundles, tmp_path, capsys):
    """--tuning fixed without both levels, and a completion fit with neither
    --inf-radius nor an alpha_star (here a trace bundle whose meta.txt lacks
    its line), exit 2 by name."""
    assert main(["solve", "--bundle", str(pin_bundles / "lasso"), "--out", str(tmp_path / "f"),
                 *_LASSO_FIXED[:-2]]) == 2
    assert "error: --tuning fixed needs --lambda-o and --lambda-star" in capsys.readouterr().err
    bundle = tmp_path / "b"
    shutil.copytree(pin_bundles / "trace_dense", bundle)
    meta = bundle / "meta.txt"
    lines = meta.read_text(encoding="utf-8").splitlines(keepends=True)
    meta.write_text("".join(ln for ln in lines if not ln.startswith("alpha_star =")),
                    encoding="utf-8")
    assert main(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "g"),
                 "--estimator", "completion"]) == 2
    assert "error: completion needs --inf-radius or --alpha-star" in capsys.readouterr().err


@pytest.mark.parametrize("command, kind", [
    (["tune", "--model", "lasso", "--n", "400", *_KINDS["lasso"][0]], "lasso"),
    (["tune", "--model", "matrix_cs", "--n", "400", *_KINDS["matrix_cs"][0]], "matrix_cs"),
    (["solve", "lasso"], "lasso"),
    (["solve", "lasso", *_LASSO_FIXED], "lasso"),
    (["solve", "trace_dense"], "matrix_cs"),
    (["solve", "trace_dense", "--estimator", "completion", "--inf-radius", "0.1"], "matrix_cs"),
], ids=["tune-lasso", "tune-matrix_cs", "solve-lasso", "solve-lasso-fixed",
        "solve-trace_dense", "solve-trace_dense-by-completion"])
def test_variant_off_completion_exits_two_naming_the_kind(pin_bundles, tmp_path, capsys, command,
                                                          kind):
    """Only completion's tuning takes a variant: --variant on any other kind
    exits 2 by name before any solve or write. solve goes by the bundle's
    kind, so a trace_dense bundle fitted by the completion estimator, tuned
    as matrix_cs, is refused too."""
    if command[0] == "solve":
        command = ["solve", "--bundle", str(pin_bundles / command[1]), *command[2:]]
    out = tmp_path / "out"
    assert main([*command, "--out", str(out), "--variant", "heavy_tailed"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --variant applies to completion tuning only, not {kind}\n")
    assert not out.exists()


@pytest.mark.parametrize("d_line, x_text, message", [
    ("d = 9\n", None, "error: X.csv has 7 columns, expected d = 9"),
    ("", None, "meta.txt: a lasso bundle needs a d line"),
    ("d = 7\n", "", "X.csv: expected rows of d = 7 values"),
], ids=["d-disagrees-with-X", "no-d-line", "empty-X"])
def test_lasso_bundle_dims_are_checked_like_trace_ones(tmp_path, capsys, d_line, x_text, message):
    """A lasso X.csv is read as a trace_dense one is: a meta.txt without its
    d line, an empty X.csv and an X.csv whose width is not d exit 2, naming
    meta.txt or X.csv, before any fit."""
    bundle, fit = tmp_path / "b", tmp_path / "f"
    assert main(["generate", "--kind", "lasso", "--n", "30", "--d", "7", "--s", "2",
                 "--out", str(bundle)]) == 0
    meta = bundle / "meta.txt"
    meta.write_text(meta.read_text(encoding="utf-8").replace("\nd = 7\n", "\n" + d_line),
                    encoding="utf-8")
    if x_text is not None:
        (bundle / "X.csv").write_text(x_text, encoding="utf-8")
    capsys.readouterr()
    assert main(["solve", "--bundle", str(bundle), "--out", str(fit)]) == 2
    assert message in capsys.readouterr().err
    assert not fit.exists()


def _option(command, dest):
    commands = build_parser()._subparsers._group_actions[0].choices
    return next(a for a in commands[command]._actions if a.dest == dest)


@pytest.mark.parametrize("command, dest, choices", [
    ("generate", "noise", _NOISE_KINDS),
    ("generate", "adversary", _STRATEGIES),
    ("solve", "variant", _VARIANTS),
    ("tune", "variant", _VARIANTS),
    ("slope", "x", _SLOPE_AXES),
    ("slope", "y", _SLOPE_COLUMNS),
])
def test_option_choices_are_the_library_lists(command, dest, choices):
    """Each choice list of the CLI is the tuple its library validator checks,
    so a name added to or dropped from one cannot miss the other."""
    assert tuple(_option(command, dest).choices) == choices


def test_dims_options_are_the_bundle_dims_keys(tmp_path, capsys):
    """The dims options of generate, tune and diagnose are the bundle kinds'
    dims keys, each of its meta.txt type, and a generated bundle's meta.txt
    has exactly its kind's keys."""
    keys = {key: _META_TYPES[key] for keys in _BUNDLE_DIMS.values() for key in keys}
    for command in ("generate", "tune", "diagnose"):
        assert {key: _option(command, key).type for key in keys} == keys
    for kind in _kinds().values():
        bundle = tmp_path / kind.name
        assert main(["generate", "--kind", kind.name, "--n", "200", *_KINDS[kind.name][0],
                     "--out", str(bundle)]) == 0
        meta = read_problem_bundle(str(bundle)).meta
        assert tuple(key for key in meta if key in keys) == _BUNDLE_DIMS[meta["kind"]]
    capsys.readouterr()


@pytest.mark.parametrize("command, dest, cls, name", [
    ("generate", "noise", NoiseSpec, "kind"),
    ("generate", "sigma", NoiseSpec, "sigma"),
    ("generate", "o", ContaminationSpec, "o"),
    ("generate", "adversary", ContaminationSpec, "strategy"),
    ("generate", "magnitude", ContaminationSpec, "magnitude"),
    ("generate", "seed", ContaminationSpec, "seed"),
    ("solve", "max_iters", SolverConfig, "max_iters"),
    ("solve", "rel_tol", SolverConfig, "rel_tol"),
    ("solve", "c0", TheoremInputs, "c0"),
    ("tune", "c0", TheoremInputs, "c0"),
    ("diagnose", "c0", TheoremInputs, "c0"),
    ("generate", "spikiness_cap", SweepSpec, "spikiness_cap"),
])
def test_option_defaults_are_the_dataclass_defaults(command, dest, cls, name):
    """A CLI default that a library dataclass also has is that field's default."""
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    option = _option(command, dest).default
    assert (option, type(option)) == (default, type(default))


def test_slope_y_default_is_the_library_default():
    y = inspect.signature(fit_rate_slope).parameters["y"].default
    assert _option("slope", "y").default == y
