"""Command line front end.

Subcommands: generate, solve, tune, diagnose, sweep, slope. Output is
machine-parseable ``key=value`` lines on stdout. Exit codes: 0 success,
2 bad arguments or configuration, 3 file system trouble, 4 an internal
postcondition failed (a bug worth reporting, not a usage problem).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bundles import _read_matrix, read_problem_bundle, write_problem_bundle
from .datagen import (
    ContaminationSpec,
    CovariateSpec,
    NoiseSpec,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    spikiness,
)
from .diagnostics import (
    TheoremInputs,
    empirical_mre,
    empirical_re,
    tuning_completion,
    tuning_lasso,
    tuning_matrix_cs,
)
from .experiments import SweepSpec, fit_rate_slope, read_results, run_sweep, write_results
from .problems import (
    InfeasibleError,
    InternalInvariantError,
    ProblemValidationError,
    RegressionProblem,
    TuningParams,
)
from .solvers import (
    SolverConfig,
    solve_adversarial_lasso,
    solve_matrix_completion,
    solve_matrix_cs,
)

_F = ".17g"


def _emit(**kv) -> None:
    for key, val in kv.items():
        if isinstance(val, (bool, np.bool_)):
            val = int(val)
        if isinstance(val, (float, np.floating)):
            val = format(float(val), _F)
        print(f"{key}={val}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ProblemValidationError(msg)


def cmd_generate(args) -> int:
    noise = NoiseSpec(kind=args.noise, sigma=args.sigma, alpha=args.noise_alpha)
    contamination = ContaminationSpec(
        o=args.o, strategy=args.adversary, magnitude=args.magnitude, seed=args.seed
    )
    truth_seed = np.random.SeedSequence([args.seed, 3])
    if args.kind == "lasso":
        _require(args.d is not None and args.s is not None,
                 "--kind lasso needs --d and --s")
        truth = gen_sparse_beta(args.d, args.s, args.beta_magnitude, truth_seed)
        cov = CovariateSpec(kind="gaussian")
        extra = {"s": args.s, "beta_magnitude": args.beta_magnitude}
    else:
        _require(args.d1 is not None and args.d2 is not None and args.rank is not None,
                 f"--kind {args.kind} needs --d1, --d2 and --rank")
        cap = args.spikiness_cap if args.kind == "completion" else np.inf
        truth = gen_low_rank(args.d1, args.d2, args.rank, cap, truth_seed)
        cov = CovariateSpec(
            kind="mask_uniform" if args.kind == "completion" else "gaussian"
        )
        extra = {"rank": args.rank, "alpha_star": spikiness(truth)}
    problem = gen_problem(cov, noise, truth, args.n, contamination)
    problem.meta.update(extra)
    write_problem_bundle(problem, args.out)
    dims = {"d": args.d} if args.kind == "lasso" else {"d1": args.d1, "d2": args.d2}
    _emit(kind=args.kind, n=args.n, **dims, o=args.o, seed=args.seed, out=args.out)
    return 0


def _theorem_tuning_from(args, problem, meta):
    n = problem.n
    o = int(args.o if args.o is not None else meta.get("o", 0))
    sigma = float(args.sigma if args.sigma is not None else meta.get("sigma", 1.0))
    L = float(args.L if args.L is not None else meta.get("L", 1.0))
    rho = float(args.rho if args.rho is not None else meta.get("rho", 1.0))
    common = dict(n=n, o=o, delta=args.delta, sigma=sigma, L=L, rho=rho,
                  kappa=args.kappa, c0=args.c0)
    if isinstance(problem, RegressionProblem):
        s = args.s if args.s is not None else meta.get("s")
        _require(s is not None, "theorem tuning needs --s (not recorded in bundle)")
        return tuning_lasso(TheoremInputs(d=problem.d, s=int(s), **common))
    r = args.rank if args.rank is not None else meta.get("rank")
    _require(r is not None, "theorem tuning needs --rank (not recorded in bundle)")
    if problem.is_mask:
        a_star = args.alpha_star if args.alpha_star is not None else meta.get("alpha_star")
        _require(a_star is not None,
                 "completion tuning needs --alpha-star (not recorded in bundle)")
        return tuning_completion(
            TheoremInputs(
                n=n, o=o, dims=problem.dims, r=int(r), delta=args.delta,
                sigma=sigma, sigma_xi=args.sigma_xi, alpha=args.alpha,
                alpha_star=float(a_star), kappa=args.kappa, c0=args.c0,
            ),
            variant=args.variant,
        )
    return tuning_matrix_cs(TheoremInputs(dims=problem.dims, r=int(r), **common))


def cmd_solve(args) -> int:
    problem = read_problem_bundle(args.bundle)
    meta = problem.meta
    kind = meta.get("kind", "lasso")
    estimator = args.estimator
    if estimator == "auto":
        estimator = {"lasso": "lasso", "trace_dense": "matrix_cs",
                     "completion": "completion"}[kind]

    if args.tuning == "fixed":
        _require(args.lambda_o is not None and args.lambda_star is not None,
                 "--tuning fixed needs --lambda-o and --lambda-star")
        lam_o, lam_star = args.lambda_o, args.lambda_star
    else:
        report = _theorem_tuning_from(args, problem, meta)
        lam_o, lam_star = report.lambda_o, report.lambda_star

    radius = None
    if estimator == "completion":
        if args.inf_radius is not None:
            radius = args.inf_radius
        else:
            a_star = args.alpha_star if args.alpha_star is not None else meta.get("alpha_star")
            _require(a_star is not None,
                     "completion needs --inf-radius or --alpha-star")
            d1, d2 = problem.dims
            radius = float(a_star) / np.sqrt(d1 * d2)

    tp = TuningParams(lam_o, lam_star, inf_ball_radius=radius)
    cfg = SolverConfig(max_iters=args.max_iters, rel_tol=args.rel_tol)
    if estimator == "lasso":
        result = solve_adversarial_lasso(problem, tp, cfg)
    elif estimator == "matrix_cs":
        result = solve_matrix_cs(problem, tp, cfg)
    else:
        result = solve_matrix_completion(problem, tp, cfg)

    trace = result.objective_trace
    slack = 1e-9 * max(1.0, abs(float(trace[0])))
    if np.any(np.diff(trace) > slack):
        raise InternalInvariantError("objective trace increased beyond tolerance")
    if radius is not None and np.abs(result.estimate).max() > radius + 1e-9:
        raise InternalInvariantError("estimate left the entrywise constraint ball")

    os.makedirs(args.out, exist_ok=True)
    est = result.estimate
    with open(os.path.join(args.out, "estimate.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        rows = est.reshape(-1, 1) if est.ndim == 1 else est
        for row in rows:
            fh.write(",".join(format(float(x), _F) for x in row) + "\n")
    with open(os.path.join(args.out, "solve_meta.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(f"estimator = {estimator}\n")
        fh.write(f"lambda_o = {format(float(lam_o), _F)}\n")
        fh.write(f"lambda_star = {format(float(lam_star), _F)}\n")
        if radius is not None:
            fh.write(f"inf_ball_radius = {format(float(radius), _F)}\n")
        fh.write(f"objective = {format(float(trace[-1]), _F)}\n")
        fh.write(f"iterations = {result.iterations}\n")
        fh.write(f"converged = {int(result.converged)}\n")
    _emit(estimator=estimator, lambda_o=lam_o, lambda_star=lam_star,
          objective=float(trace[-1]), iterations=result.iterations,
          converged=int(result.converged), out=args.out)
    return 0


def cmd_tune(args) -> int:
    common = dict(n=args.n, o=args.o, delta=args.delta, sigma=args.sigma,
                  kappa=args.kappa, c0=args.c0)
    if args.model == "lasso":
        _require(args.d is not None and args.s is not None,
                 "--model lasso needs --d and --s")
        report = tuning_lasso(TheoremInputs(
            d=args.d, s=args.s, L=args.L or 1.0, rho=args.rho or 1.0, **common))
    elif args.model == "matrix_cs":
        _require(args.d1 is not None and args.d2 is not None and args.rank is not None,
                 "--model matrix_cs needs --d1, --d2 and --rank")
        report = tuning_matrix_cs(TheoremInputs(
            dims=(args.d1, args.d2), r=args.rank,
            L=args.L or 1.0, rho=args.rho or 1.0, **common))
    else:
        _require(args.d1 is not None and args.d2 is not None and args.rank is not None,
                 "--model completion needs --d1, --d2 and --rank")
        _require(args.alpha_star is not None, "--model completion needs --alpha-star")
        report = tuning_completion(TheoremInputs(
            dims=(args.d1, args.d2), r=args.rank, sigma_xi=args.sigma_xi,
            alpha=args.alpha, alpha_star=args.alpha_star, **common),
            variant=args.variant)
    text = report.to_kv_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_diagnose(args) -> int:
    if args.what == "re":
        if args.sigma_csv:
            Sigma = _read_matrix(args.sigma_csv)
        else:
            _require(args.d is not None, "diagnose re needs --d or --sigma-csv")
            Sigma = np.eye(args.d)
        _require(args.s is not None, "diagnose re needs --s")
        value = empirical_re(Sigma, args.s, args.c0, grid=args.grid)
        _emit(what="re", d=Sigma.shape[0], s=args.s, c0=args.c0, value=value)
    elif args.what == "mre":
        Sigma = _read_matrix(args.sigma_csv) if args.sigma_csv else None
        _require(args.d1 is not None and args.d2 is not None and args.rank is not None,
                 "diagnose mre needs --d1, --d2 and --rank")
        value = empirical_mre(
            Sigma, (args.d1, args.d2), args.rank, args.c0,
            n_probes=args.probes, seed=args.seed,
        )
        _emit(what="mre", d1=args.d1, d2=args.d2, rank=args.rank,
              c0=args.c0, value=value)
    else:
        _require(args.matrix_csv is not None, "diagnose spikiness needs --matrix-csv")
        M = _read_matrix(args.matrix_csv)
        _emit(what="spikiness", d1=M.shape[0], d2=M.shape[1], value=spikiness(M))
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    spec = SweepSpec.from_dict(cfg)
    records = run_sweep(spec, jobs=args.jobs)
    write_results(records, args.out, include_timing=args.include_timing)
    _emit(cells=len(spec.cells()), trials_per_cell=spec.trials_per_cell,
          records=len(records), out=args.out)
    return 0


def cmd_slope(args) -> int:
    records = read_results(args.results)
    fit = fit_rate_slope(records, x_axis=args.x, y=args.y)
    _emit(x=args.x, y=args.y, slope=fit.slope, stderr=fit.stderr,
          intercept=fit.intercept, points=fit.n_points)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huberreg",
        description="Robust penalized regression under adversarial contamination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a problem and write a bundle")
    p.add_argument("--kind", required=True, choices=["lasso", "matrix_cs", "completion"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--s", type=int, help="sparsity of the true vector")
    p.add_argument("--rank", type=int, help="rank of the true matrix")
    p.add_argument("--beta-magnitude", type=float, default=1.0)
    p.add_argument("--spikiness-cap", type=float, default=3.0)
    p.add_argument("--noise", default="gaussian",
                   choices=["gaussian", "student_t", "weibull_symmetric"])
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--noise-alpha", type=float, default=None)
    p.add_argument("--o", type=int, default=0, help="number of contaminated rows")
    p.add_argument("--adversary", default="none",
                   choices=["none", "random_large", "sign_flip", "adaptive_residual"])
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="fit an estimator on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--estimator", default="auto",
                   choices=["auto", "lasso", "matrix_cs", "completion"])
    p.add_argument("--tuning", default="theorem", choices=["theorem", "fixed"])
    p.add_argument("--lambda-o", type=float, default=None)
    p.add_argument("--lambda-star", type=float, default=None)
    p.add_argument("--inf-radius", type=float, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--o", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--sigma-xi", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--alpha-star", type=float, default=None)
    p.add_argument("--variant", default="subweibull",
                   choices=["heavy_tailed", "subweibull"])
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tune", help="print theorem-driven penalty levels")
    p.add_argument("--model", required=True,
                   choices=["lasso", "matrix_cs", "completion"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--o", type=int, default=0)
    p.add_argument("--d", type=int)
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--sigma-xi", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--alpha-star", type=float, default=None)
    p.add_argument("--variant", default="subweibull",
                   choices=["heavy_tailed", "subweibull"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("diagnose", help="restricted-eigenvalue and spikiness checks")
    p.add_argument("what", choices=["re", "mre", "spikiness"])
    p.add_argument("--d", type=int)
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--probes", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-csv", default=None)
    p.add_argument("--matrix-csv", default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sweep", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--include-timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("slope", help="fit a log-log rate slope on sweep results")
    p.add_argument("--results", required=True)
    p.add_argument("--x", required=True, choices=["n", "o_frac"])
    p.add_argument("--y", default="error",
                   choices=["error", "rel_error", "weighted_error"])
    p.set_defaults(func=cmd_slope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ProblemValidationError, InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
