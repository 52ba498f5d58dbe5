import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import huberreg.penalties as penalties_mod
import huberreg.problems as problems_mod
import huberreg.solvers as solvers_mod
from huberreg import (
    ContaminationSpec,
    CovariateSpec,
    MaskCovariates,
    NoiseSpec,
    ProblemValidationError,
    RegressionProblem,
    SolverConfig,
    TraceProblem,
    TuningParams,
    design_adjoint,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    grad_smooth_lasso,
    huber_value,
    objective_lasso,
    soft_threshold,
    solve_adversarial_lasso,
    solve_joint_oracle,
    solve_matrix_completion,
    solve_matrix_cs,
)
from huberreg.experiments import SweepSpec, run_trial

TIGHT = SolverConfig(max_iters=8000, rel_tol=1e-12)


def lasso_instance(n=60, d=12, seed=0, outlier=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[: max(1, d // 5)] = rng.choice([-1.0, 1.0], max(1, d // 5))
    y = X @ beta + 0.1 * rng.standard_normal(n)
    if outlier is not None:
        idx, size = outlier
        y[idx] += size
    return RegressionProblem(y=y, X=X, beta_true=beta)


# ------------------------------------------------------- shrink-to-zero


def test_lasso_all_zero_above_dual_threshold():
    p = lasso_instance(seed=1)
    tp_probe = TuningParams(0.5, 1.0)
    g0 = grad_smooth_lasso(p, np.zeros(p.d), tp_probe)
    lam = 1.01 * float(np.abs(g0).max())
    res = solve_adversarial_lasso(p, TuningParams(0.5, lam), TIGHT)
    assert np.all(res.estimate == 0.0)
    assert res.converged


def test_matrix_cs_zero_above_operator_threshold():
    rng = np.random.default_rng(2)
    problem = TraceProblem(
        y=rng.standard_normal(40),
        covariates=rng.standard_normal((40, 5, 5)),
        dims=(5, 5),
    )
    tp_probe = TuningParams(0.5, 1.0)
    # dual norm of the nuclear norm is the operator norm
    g0 = -(0.5 / np.sqrt(40)) * design_adjoint(
        problem, np.clip(problem.y / (0.5 * np.sqrt(40)), -1, 1)
    )
    lam = 1.01 * float(np.linalg.svd(g0, compute_uv=False)[0])
    res = solve_matrix_cs(problem, TuningParams(0.5, lam), TIGHT)
    assert np.all(res.estimate == 0.0)


# ------------------------------------------------------- frozen baselines


def test_lasso_contaminated_frozen_baseline():
    beta = gen_sparse_beta(50, 5, 1.0, seed=7)
    cont = ContaminationSpec(o=10, strategy="random_large", magnitude=10.0, seed=7)
    p = gen_problem(CovariateSpec(), NoiseSpec(sigma=0.1), beta, 400, cont)
    tp = TuningParams(7.2 / np.sqrt(400), 0.1)
    res = solve_adversarial_lasso(p, tp, TIGHT)
    err = float(np.linalg.norm(res.estimate - beta))
    assert res.converged
    assert err < 0.5  # recovers despite 10 gross outliers
    assert err == pytest.approx(0.28595363633814419, rel=1e-8)
    assert float(res.objective_trace[-1]) == pytest.approx(35.809316093036131, rel=1e-8)


def test_lasso_clean_frozen_baseline():
    beta = gen_sparse_beta(50, 5, 1.0, seed=7)
    p = gen_problem(CovariateSpec(), NoiseSpec(sigma=0.1), beta, 400, ContaminationSpec(seed=7))
    res = solve_adversarial_lasso(p, TuningParams(7.2 / np.sqrt(400), 0.1), TIGHT)
    err = float(np.linalg.norm(res.estimate - beta))
    assert err < 0.3
    assert err == pytest.approx(0.22339561840796254, rel=1e-8)
    assert float(res.objective_trace[-1]) == pytest.approx(0.480028956527009, rel=1e-8)


def test_matrix_cs_frozen_baseline():
    B = gen_low_rank(8, 8, 2, seed=11)
    cont = ContaminationSpec(o=8, strategy="random_large", magnitude=5.0, seed=11)
    p = gen_problem(CovariateSpec(), NoiseSpec(sigma=0.05), B, 400, cont)
    res = solve_matrix_cs(p, TuningParams(3.6 / np.sqrt(400), 0.03), TIGHT)
    err = float(np.linalg.norm(res.estimate - B))
    assert res.converged
    assert err < 0.3
    assert err == pytest.approx(0.15405342474589759, rel=1e-8)


def test_completion_frozen_baseline():
    B = gen_low_rank(10, 10, 1, spikiness_cap=3.0, seed=5)
    p = gen_problem(
        CovariateSpec(kind="mask_uniform"), NoiseSpec(sigma=0.05), B, 600,
        ContaminationSpec(seed=5),
    )
    tp = TuningParams(0.4 / np.sqrt(600), 0.02, inf_ball_radius=float(np.abs(B).max()))
    res = solve_matrix_completion(p, tp, TIGHT)
    err = float(np.linalg.norm(res.estimate - B))
    assert res.converged
    assert err < 0.1
    assert err == pytest.approx(0.025207266783741394, rel=1e-8)
    assert float(res.objective_trace[-1]) == pytest.approx(0.020996273944382235, rel=1e-8)
    assert float(np.abs(res.estimate).max()) <= tp.inf_ball_radius + 1e-12


def test_matrix_cs_error_improves_with_n():
    B = gen_low_rank(8, 8, 2, seed=21)
    errs = {}
    for n in [200, 800]:
        p = gen_problem(
            CovariateSpec(), NoiseSpec(sigma=0.05), B, n,
            ContaminationSpec(seed=21),
        )
        res = solve_matrix_cs(p, TuningParams(3.6 / np.sqrt(n), 0.02), TIGHT)
        errs[n] = float(np.linalg.norm(res.estimate - B))
    assert errs[800] < errs[200]


# ------------------------------------------------- diagonal embedding


def test_diagonal_embedding_reproduces_lasso():
    """vector regression rides inside trace regression: with X_i = diag(x_i)
    the nuclear norm of diagonal-supported iterates is the l1 norm and the
    two solvers must land on the same estimate."""
    rng = np.random.default_rng(30)
    tight = SolverConfig(max_iters=30000, rel_tol=1e-14)
    for trial in range(3):
        n, d = 40, 6
        X = rng.standard_normal((n, d))
        beta = np.zeros(d)
        beta[:2] = [1.0, -0.7]
        y = X @ beta + 0.1 * rng.standard_normal(n)
        y[3] += 25.0
        vec_p = RegressionProblem(y=y, X=X)
        diag_cov = np.zeros((n, d, d))
        diag_cov[:, np.arange(d), np.arange(d)] = X
        mat_p = TraceProblem(y=y, covariates=diag_cov, dims=(d, d))
        tp = TuningParams(0.6, 0.08)
        bv = solve_adversarial_lasso(vec_p, tp, tight).estimate
        BM = solve_matrix_cs(mat_p, tp, tight).estimate
        off_diag = BM - np.diag(np.diag(BM))
        assert float(np.abs(off_diag).max()) < 1e-10
        np.testing.assert_allclose(np.diag(BM), bv, atol=1e-6)


# ---------------------------------------------- completion structure


def test_completion_unobserved_row_stays_zero():
    # masks never touch the last row; every iterate keeps it exactly zero
    rng = np.random.default_rng(31)
    n, d = 60, 5
    cov = MaskCovariates(
        rows=rng.integers(0, d - 1, n),
        cols=rng.integers(0, d, n),
        signs=rng.choice([-1, 1], n),
    )
    problem = TraceProblem(y=rng.standard_normal(n), covariates=cov, dims=(d, d))
    tp = TuningParams(0.5, 0.01, inf_ball_radius=1.0)
    res = solve_matrix_completion(problem, tp, TIGHT)
    assert np.all(res.estimate[d - 1, :] == 0.0)


def test_completion_requires_radius():
    problem = TraceProblem(
        y=np.zeros(4),
        covariates=MaskCovariates(rows=[0, 1, 0, 1], cols=[0, 0, 1, 1], signs=[1, 1, 1, 1]),
        dims=(2, 2),
    )
    with pytest.raises(ProblemValidationError):
        solve_matrix_completion(problem, TuningParams(1.0, 1.0))


def _dense_trace(n=12, d1=3, d2=2, seed=7):
    rng = np.random.default_rng(seed)
    return TraceProblem(y=rng.standard_normal(n), covariates=rng.standard_normal((n, d1, d2)),
                        dims=(d1, d2))


@pytest.mark.parametrize("solver, problem", [
    (solve_adversarial_lasso, _dense_trace()),
    (solve_joint_oracle, _dense_trace()),
    (solve_adversarial_lasso, _dense_trace(d2=1)),
    (solve_matrix_cs, lasso_instance()),
    (solve_matrix_completion, lasso_instance()),
], ids=["lasso_on_trace", "joint_on_trace", "lasso_on_d2_1_trace", "matrix_cs_on_vector",
        "completion_on_vector"])
def test_solvers_reject_the_other_container_by_name(solver, problem):
    """A vector estimator on a trace problem, or a matrix estimator on a
    vector problem, fails with one message naming both, not deep in numpy."""
    tp = TuningParams(0.5, 0.1, inf_ball_radius=1.0)
    with pytest.raises(ProblemValidationError,
                       match=f"^{solver.__name__} .* {type(problem).__name__}$"):
        solver(problem, tp)


def test_completion_projects_infeasible_start():
    rng = np.random.default_rng(32)
    problem = TraceProblem(
        y=rng.standard_normal(30),
        covariates=MaskCovariates(
            rows=rng.integers(0, 3, 30),
            cols=rng.integers(0, 3, 30),
            signs=rng.choice([-1, 1], 30),
        ),
        dims=(3, 3),
    )
    tp = TuningParams(0.5, 0.05, inf_ball_radius=0.2)
    res = solve_matrix_completion(problem, tp, TIGHT, B0=np.full((3, 3), 5.0))
    assert float(np.abs(res.estimate).max()) <= 0.2 + 1e-12


# ------------------------------------------------- joint formulation


def test_profiled_joint_objective_identity():
    """Minimizing the joint quadratic over theta in closed form must equal
    the Huber objective exactly, at arbitrary beta. This is the calibration
    the whole solver family rests on, so the tolerance is machine level."""
    rng = np.random.default_rng(33)
    for trial in range(25):
        n, d = int(rng.integers(5, 50)), int(rng.integers(2, 10))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n) * rng.uniform(0.5, 20)
        p = RegressionProblem(y=y, X=X)
        tp = TuningParams(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.01, 1.0)))
        beta = rng.standard_normal(d) * rng.uniform(0.1, 3)
        r = y - X @ beta
        sqn = np.sqrt(n)
        theta = soft_threshold(r, tp.lambda_o * sqn) / sqn
        resid = r - sqn * theta
        joint = (
            float(resid @ resid) / (2 * n)
            + tp.lambda_star * float(np.abs(beta).sum())
            + tp.lambda_o * float(np.abs(theta).sum())
        )
        assert joint == pytest.approx(objective_lasso(p, beta, tp), rel=1e-13, abs=1e-13)


def test_joint_oracle_agrees_with_huber_solver():
    rng = np.random.default_rng(34)
    for trial in range(5):
        p = lasso_instance(n=50, d=8, seed=100 + trial, outlier=(5, 40.0))
        tp = TuningParams(0.5, 0.08)
        jr = solve_joint_oracle(p, tp)
        hr = solve_adversarial_lasso(p, tp, SolverConfig(max_iters=30000, rel_tol=1e-14))
        h_obj = objective_lasso(p, hr.estimate, tp)
        assert jr.objective == pytest.approx(h_obj, abs=1e-9)
        assert float(np.linalg.norm(jr.beta - hr.estimate)) < 1e-4


def test_joint_oracle_finds_planted_outlier():
    p = lasso_instance(n=50, d=8, seed=200, outlier=(17, 60.0))
    jr = solve_joint_oracle(p, TuningParams(0.5, 0.08))
    assert set(np.nonzero(jr.theta)[0]) == {17}


def test_joint_oracle_clean_quadratic_limit():
    # lambda_o so large that no residual is ever thresholded: theta = 0 and
    # both formulations reduce to the quadratic-loss l1 program
    p = lasso_instance(n=60, d=10, seed=201)
    tp = TuningParams(1e6, 0.05)
    tight = SolverConfig(max_iters=30000, rel_tol=1e-14)
    jr = solve_joint_oracle(p, tp, tight)
    hr = solve_adversarial_lasso(p, tp, tight)
    assert np.all(jr.theta == 0.0)
    np.testing.assert_allclose(jr.beta, hr.estimate, atol=1e-6)


# ------------------------------------------------- solver mechanics


def test_objective_traces_monotone():
    problems = []
    p = lasso_instance(n=80, d=20, seed=40, outlier=(3, 50.0))
    problems.append(("lasso", p, TuningParams(0.4, 0.05)))
    rng = np.random.default_rng(41)
    pm = TraceProblem(
        y=rng.standard_normal(50),
        covariates=rng.standard_normal((50, 4, 4)),
        dims=(4, 4),
    )
    problems.append(("cs", pm, TuningParams(0.4, 0.05)))
    cfg = SolverConfig(max_iters=3000, rel_tol=1e-11)
    for name, problem, tp in problems:
        if name == "lasso":
            res = solve_adversarial_lasso(problem, tp, cfg)
        else:
            res = solve_matrix_cs(problem, tp, cfg)
        diffs = np.diff(res.objective_trace)
        slack = 1e-12 * max(1.0, abs(float(res.objective_trace[0])))
        assert np.all(diffs <= slack), name


_SOLVERS = {"lasso": solve_adversarial_lasso, "matrix_cs": solve_matrix_cs,
            "completion": solve_matrix_completion}
# (kind, case): the all-zero design is a dense case, the one-cell mask a completion case
_DEGENERATE = [
    (kind, case) for kind in _SOLVERS
    for case in ("n_below_d", "half_outliers", "zero_column", "constant_y",
                 "one_cell_mask" if kind == "completion" else "zero_design")
]


def _degenerate_problem(kind, case, seed):
    """A small problem of ``kind`` (param size 12, n = 6 or 24) with the degeneracy ``case``."""
    rng = np.random.default_rng(seed)
    n, (d1, d2) = (6 if case == "n_below_d" else 24), (4, 3)
    y = np.full(n, 1.5) if case == "constant_y" else rng.standard_normal(n)
    if case == "half_outliers":
        y[: n // 2] += 100.0 * rng.choice([-1.0, 1.0], n // 2)
    if kind == "completion":
        rows, cols = rng.integers(0, d1, n), rng.integers(0, d2, n)
        if case == "zero_column":  # column 0 is never observed
            cols = rng.integers(1, d2, n)
        if case == "one_cell_mask":
            rows, cols = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        cov = MaskCovariates(rows, cols, rng.choice([-1, 1], n))
        return TraceProblem(y=y, covariates=cov, dims=(d1, d2))
    X = np.zeros((n, d1 * d2)) if case == "zero_design" else rng.standard_normal((n, d1 * d2))
    if case == "zero_column":
        X[:, 0] = 0.0
    if kind == "lasso":
        return RegressionProblem(y=y, X=X)
    return TraceProblem(y=y, covariates=X.reshape(n, d1, d2), dims=(d1, d2))


@pytest.mark.parametrize("kind, case", _DEGENERATE)
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), lambda_o=st.floats(1e-8, 1e2),
       lambda_star=st.floats(1e-8, 1e2))
def test_degenerate_problems_keep_trace_monotone_and_estimate_finite(
        kind, case, seed, lambda_o, lambda_star):
    """The per-step promise of SolverResult.objective_trace holds on degenerate
    problems too. ``converged`` is not asserted: below an objective of 1 the
    stopping rule's max(1, |F|) floor makes it an absolute test."""
    problem = _degenerate_problem(kind, case, seed)
    radius = 2.0 if kind == "completion" else None
    res = _SOLVERS[kind](problem, TuningParams(lambda_o, lambda_star, radius),
                         SolverConfig(max_iters=500))
    trace = res.objective_trace
    assert np.isfinite(trace).all() and np.isfinite(res.estimate).all()
    # 1e-12 per step, plus the rounding of adding it to the previous value
    assert np.all(np.diff(trace) <= 1e-12 + np.spacing(np.abs(trace[:-1])))


def test_accelerated_solve_matches_joint_oracle():
    """the accelerated Huber solve and the alternating joint solve reach the
    same estimate"""
    p = lasso_instance(n=70, d=15, seed=42)
    tp = TuningParams(0.5, 0.06)
    cfg = SolverConfig(max_iters=40000, rel_tol=1e-14)
    a = solve_adversarial_lasso(p, tp, cfg)
    b = solve_joint_oracle(p, tp, cfg)
    np.testing.assert_allclose(a.estimate, b.beta, atol=1e-6)


def _counting_engine(monkeypatch):
    """Wrap the engine so each run records its design applies, adjoints and
    prox calls (one prox call per step size tried)."""
    runs = []
    engine = solvers_mod._minimize

    def counted(counts, key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def wrapped(x0, apply_fn, adjoint_fn, loss, pen, prox, cfg, t0):
        counts = dict.fromkeys(("apply", "adjoint", "prox"), 0)
        run = engine(
            x0, counted(counts, "apply", apply_fn), counted(counts, "adjoint", adjoint_fn),
            loss, pen, counted(counts, "prox", prox), cfg, t0,
        )
        runs.append((counts, run))
        return run

    monkeypatch.setattr(solvers_mod, "_minimize", wrapped)
    return runs


@pytest.mark.parametrize("kind", ["lasso", "matrix_cs"])
def test_matvec_budget_per_iteration(monkeypatch, kind):
    runs = _counting_engine(monkeypatch)
    cfg = SolverConfig(max_iters=3000, rel_tol=1e-11)
    tp = TuningParams(0.4, 0.05)
    if kind == "lasso":
        solve_adversarial_lasso(lasso_instance(n=80, d=20, seed=40, outlier=(3, 50.0)), tp, cfg)
    else:
        rng = np.random.default_rng(41)
        problem = TraceProblem(
            y=rng.standard_normal(50), covariates=rng.standard_normal((50, 4, 4)), dims=(4, 4)
        )
        solve_matrix_cs(problem, tp, cfg)
    [(counts, run)] = runs
    rejected = counts["prox"] - run.iterations
    assert run.iterations >= 10
    assert run.restarts > 0  # the momentum-overshoot restart path ran
    assert counts["apply"] <= 1 + run.iterations + rejected
    assert counts["adjoint"] <= 1 + run.iterations + run.restarts


@pytest.mark.parametrize("kind, dims, s", [("lasso", 30, 3), ("matrix_cs", (4, 4), 1)])
def test_grid_oracle_estimates_operator_norm_once(monkeypatch, kind, dims, s):
    calls = []
    power = problems_mod._power_opnorm_sq

    def counted(*args, **kwargs):
        calls.append(1)
        return power(*args, **kwargs)

    monkeypatch.setattr(problems_mod, "_power_opnorm_sq", counted)
    runs = _counting_engine(monkeypatch)
    spec = SweepSpec(problem_kind=kind, n_grid=(120,), d_grid=(dims,), s_grid=(s,),
                     tuning_mode="grid_oracle")
    run_trial(spec, 0, 0)
    assert len(runs) == len(spec.oracle_multipliers) > 1
    assert len(calls) == 1


def test_joint_oracle_reuses_cached_operator_norm(monkeypatch):
    p = lasso_instance(n=50, d=8, seed=202, outlier=(5, 40.0))
    tp = TuningParams(0.5, 0.08)
    solve_adversarial_lasso(p, tp)
    calls = []
    monkeypatch.setattr(problems_mod, "_power_opnorm_sq", lambda *a, **k: calls.append(1))
    solve_joint_oracle(p, tp)
    assert calls == []


@pytest.mark.parametrize("n, lambda_o", [(16, 0.25), (37, 0.7), (200, 0.37)])
def test_huber_loss_matches_data_term_bit_for_bit(n, lambda_o):
    """The one Huber loss on fitted values equals lambda_o^2 sum_i H(u_i), with
    H the reference ``huber_value``, exactly, and h is
    -(lambda_o/sqrt n) clip(u, -1, 1) byte for byte, at |u| == 1, at +-0 and
    far out on the linear branch (n=16, lambda_o=1/4 make the scale 1, so
    u = y - z exactly)."""
    rng = np.random.default_rng(n)
    edges = np.array([1.0, -1.0, 0.0, -0.0, 1e12, -1e12, 1 + 2**-52, -(1 - 2**-53), 0.5, -3.0])
    y = np.concatenate([edges, rng.standard_normal(n - edges.size) * 4])
    z = np.concatenate([np.zeros(edges.size), rng.standard_normal(n - edges.size)])
    scale = lambda_o * np.sqrt(n)
    value, h = penalties_mod._huber_loss(y, n, TuningParams(lambda_o, 0.1))(z)
    u = (y - z) / scale
    assert value == float(lambda_o**2 * huber_value(u).sum())
    assert h.tobytes() == (-(lambda_o / np.sqrt(n)) * np.clip(u, -1.0, 1.0)).tobytes()
    if n == 16:
        assert np.signbit(h[2:4]).tolist() == [True, False]


def test_kkt_stationarity_at_solution():
    p = lasso_instance(n=100, d=25, seed=44, outlier=(9, 30.0))
    tp = TuningParams(0.4, 0.07)
    res = solve_adversarial_lasso(p, tp, SolverConfig(max_iters=60000, rel_tol=3e-16))
    g = grad_smooth_lasso(p, res.estimate, tp)
    on = res.estimate != 0.0
    assert float(np.abs(g[on] + tp.lambda_star * np.sign(res.estimate[on])).max()) < 1e-6
    assert float(np.abs(g[~on]).max()) <= tp.lambda_star + 1e-6


def test_solver_config_validation():
    with pytest.raises(ProblemValidationError):
        SolverConfig(max_iters=0)
    with pytest.raises(ProblemValidationError):
        SolverConfig(rel_tol=-1.0)


def test_iterations_capped_and_reported():
    p = lasso_instance(n=60, d=12, seed=45)
    res = solve_adversarial_lasso(
        p, TuningParams(0.5, 0.01), SolverConfig(max_iters=3, rel_tol=1e-16)
    )
    assert res.iterations == 3
    assert not res.converged
