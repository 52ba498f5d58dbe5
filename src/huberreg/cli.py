"""Command line front end.

Subcommands: generate, solve, tune, diagnose, sweep, slope. Output is
machine-parseable lines on stdout: ``key=value``, except ``tune``, which
prints its tuning report's ``key = value`` lines. Exit codes: 0 success,
2 bad arguments or configuration, 3 file system trouble, 4 an internal
postcondition failed (a bug worth reporting, not a usage problem).
Each choice list, the dims options (``bundles._BUNDLE_DIMS``) and each
default shared with a library dataclass are read from the module that
validates them, never restated here. ``generate``, ``tune`` and ``solve``
refuse by name an option they are given and will not read (``_refuse_unread``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bundles import (
    _BUNDLE_DIMS,
    _META_TYPES,
    _kv_lines,
    _read_matrix,
    _write_lines,
    _write_matrix,
    read_problem_bundle,
    write_problem_bundle,
)
from .datagen import _NOISE_KINDS, _STRATEGIES, ContaminationSpec, NoiseSpec, spikiness
from .diagnostics import _VARIANTS, TheoremInputs, empirical_mre, empirical_re
from .experiments import (
    _SLOPE_AXES,
    _SLOPE_COLUMNS,
    _THEOREM,
    SweepSpec,
    _draw,
    _kinds,
    _solve,
    _theorem_tuning,
    _tuning_params,
    fit_rate_slope,
    read_results,
    run_sweep,
    write_results,
)
from .problems import InternalInvariantError, ProblemValidationError, _at_least, _require
from .solvers import SolverConfig

_DIMS = tuple(dict.fromkeys(key for keys in _BUNDLE_DIMS.values() for key in keys))  # --d, ...
# the options whose default, None, tells a given value from none
_OPTIONAL = ("s", "rank", *_DIMS, "variant", *_THEOREM, "lambda_o", "lambda_star")


def _emit(**kv) -> None:
    for line in _kv_lines(kv, "="):
        print(line)


def _size(args, k, option: str):
    """(dims, size) of the kind ``k``: --d and --s for lasso, else --d1, --d2 and --rank."""
    *dims, size = values = [getattr(args, key) for key in (*k.keys, k.size)]
    *flags, last = [f"--{key}" for key in (*k.keys, k.size)]
    _require(None not in values, f"{option} {k.name} needs {', '.join(flags)} and {last}")
    return k.coerce(dims if len(dims) > 1 else dims[0]), size


def _refuse_unread(args, k, reads, who: str) -> None:
    """Refuse by name the first option of ``_OPTIONAL`` given in ``args`` that
    is not in ``reads``, the options the command ``who`` reads for the kind
    ``k``; --variant on a kind whose tuning takes none names the kind."""
    for name in _OPTIONAL:
        if getattr(args, name, None) is not None and name not in reads:
            _require(name != "variant" or "variant" in k.reads,
                     f"--variant applies to completion tuning only, not {k.name}")
            raise ProblemValidationError(f"{who} does not read --{name.replace('_', '-')}")


def _options(args, meta):
    """The theorem options given, over ``meta`` (a bundle's meta.txt, or {});
    --c0 and --variant are never read from meta.txt."""
    given = {name: val for name in ("s", "rank", *_THEOREM)
             if (val := getattr(args, name)) is not None}
    return {**meta, **given, "c0": args.c0, "variant": args.variant}


def cmd_generate(args) -> int:
    noise = NoiseSpec(kind=args.noise, sigma=args.sigma, alpha=args.noise_alpha)
    contamination = ContaminationSpec(
        o=args.o, strategy=args.adversary, magnitude=args.magnitude, seed=args.seed
    )
    k = _kinds()[args.kind]
    # --o and --sigma are generate's own: the draw reads them
    _refuse_unread(args, k, (k.size, *k.keys, "o", "sigma"), f"--kind {k.name}")
    dims, s = _size(args, k, "--kind")
    problem = _draw(k, args.n, dims, s, noise, contamination, args.spikiness_cap,
                    args.beta_magnitude)
    write_problem_bundle(problem, args.out)
    _emit(kind=args.kind, n=args.n, **dict(zip(k.keys, problem.param_shape)),
          o=args.o, seed=args.seed, out=args.out)
    return 0


def cmd_solve(args) -> int:
    problem = read_problem_bundle(args.bundle)
    kinds = _kinds()
    kind = next(k for k in kinds.values() if k.bundle == problem.meta["kind"])
    est = kind if args.estimator == "auto" else kinds[args.estimator]
    # the matrix estimators fit either matrix bundle, but vectors and
    # matrices do not mix; checked here, by the bundle's kind, because the
    # completion radius below reads a matrix bundle's dims before any solver
    _require(est.dims == kind.dims,
             f"estimator {est.name} cannot fit a {problem.meta['kind']} bundle")
    _require(args.inf_radius is None or est.boxed,
             f"--inf-radius needs the completion estimator, not {est.name}")

    fixed = (args.lambda_o, args.lambda_star) if args.tuning == "fixed" else None
    _require(not fixed or None not in fixed, "--tuning fixed needs --lambda-o and --lambda-star")
    # theorem tuning reads what the bundle kind's calculator does, and a completion
    # fit without --inf-radius reads --alpha-star as its box under either mode
    box = ("alpha_star",) if est.boxed and args.inf_radius is None else ()
    reads = ("lambda_o", "lambda_star") if fixed else (kind.size, *kind.reads)
    _refuse_unread(args, kind, (*reads, *box), f"--tuning {args.tuning}")
    tp = _tuning_params(kind, problem.n, getattr(problem, kind.dims), _options(args, problem.meta),
                        fixed, est.boxed, args.inf_radius)
    cfg = SolverConfig(max_iters=args.max_iters, rel_tol=args.rel_tol)
    result = _solve(est, problem, tp, cfg)

    trace = result.objective_trace
    slack = 1e-9 * max(1.0, abs(float(trace[0])))
    if np.any(np.diff(trace) > slack):
        raise InternalInvariantError("objective trace increased beyond tolerance")
    if np.abs(result.estimate).max() > (tp.inf_ball_radius or np.inf) + 1e-9:
        raise InternalInvariantError("estimate left the entrywise constraint ball")

    os.makedirs(args.out, exist_ok=True)
    # a 1-d estimate is written as a column, one entry per line
    _write_matrix(os.path.join(args.out, "estimate.csv"), result.estimate)
    info = {"estimator": est.name, "lambda_o": tp.lambda_o, "lambda_star": tp.lambda_star}
    if tp.inf_ball_radius is not None:
        info["inf_ball_radius"] = tp.inf_ball_radius
    info.update(objective=float(trace[-1]), iterations=result.iterations,
                converged=int(result.converged))
    _write_lines(os.path.join(args.out, "solve_meta.txt"), _kv_lines(info))
    _emit(**{k: v for k, v in info.items() if k != "inf_ball_radius"}, out=args.out)
    return 0


def cmd_tune(args) -> int:
    k = _kinds()[args.model]
    _refuse_unread(args, k, (k.size, *k.keys, *k.reads), f"--model {k.name}")
    dims, _ = _size(args, k, "--model")
    report = _theorem_tuning(k, args.n, dims, _options(args, {}))
    text = report.to_kv_text()
    if args.out:
        _write_lines(args.out, text.splitlines())
    sys.stdout.write(text)
    return 0


def cmd_diagnose(args) -> int:
    if args.what == "re":
        if args.sigma_csv:
            Sigma = _read_matrix(args.sigma_csv)
        else:
            _require(args.d is not None, "diagnose re needs --d or --sigma-csv")
            Sigma = np.eye(_at_least("--d", args.d))
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
        value = spikiness(M)  # checks M is a finite nonempty matrix before its shape is read
        _emit(what="spikiness", d1=M.shape[0], d2=M.shape[1], value=value)
    return 0


def cmd_sweep(args) -> int:
    _at_least("--jobs", args.jobs)
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
    kinds = _kinds()

    # options several subcommands share, each declared once: one per bundle
    # dims key, and the theorem options, which default to None (see _THEOREM),
    # but --c0, which diagnose re and mre read directly, to the cone constant
    dims = argparse.ArgumentParser(add_help=False)
    for key in _DIMS:
        dims.add_argument("--" + key, type=_META_TYPES[key])
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--s", type=int, help="sparsity of the true vector")
    sizes.add_argument("--rank", type=int, help="rank of the true matrix")
    cone = argparse.ArgumentParser(add_help=False)
    cone.add_argument("--c0", type=float, default=TheoremInputs.c0)
    theorem = argparse.ArgumentParser(add_help=False, parents=[cone])
    for name in _THEOREM:
        theorem.add_argument("--" + name.replace("_", "-"), type=_META_TYPES[name])
    theorem.add_argument("--variant", choices=_VARIANTS, help="completion noise model "
                         f"(default: {kinds['completion'].variant}, at --alpha 2)")

    p = sub.add_parser("generate", parents=[dims, sizes],
                       help="simulate a problem and write a bundle")
    p.add_argument("--kind", required=True, choices=list(kinds))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-magnitude", type=float, default=1.0)
    p.add_argument("--spikiness-cap", type=float, default=SweepSpec.spikiness_cap)
    p.add_argument("--noise", default=NoiseSpec.kind, choices=_NOISE_KINDS)
    p.add_argument("--sigma", type=float, default=NoiseSpec.sigma)
    p.add_argument("--noise-alpha", type=float, default=None)
    p.add_argument("--o", type=int, default=ContaminationSpec.o, help="number of contaminated rows")
    p.add_argument("--adversary", default=ContaminationSpec.strategy, choices=_STRATEGIES)
    p.add_argument("--magnitude", type=float, default=ContaminationSpec.magnitude)
    p.add_argument("--seed", type=int, default=ContaminationSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", parents=[sizes, theorem], help="fit an estimator on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--estimator", default="auto", choices=["auto", *kinds])
    p.add_argument("--tuning", default="theorem", choices=["theorem", "fixed"])
    p.add_argument("--lambda-o", type=float, default=None)
    p.add_argument("--lambda-star", type=float, default=None)
    p.add_argument("--inf-radius", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--rel-tol", type=float, default=SolverConfig.rel_tol)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tune", parents=[dims, sizes, theorem],
                       help="print theorem-driven penalty levels")
    p.add_argument("--model", required=True, choices=list(kinds))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("diagnose", parents=[dims, sizes, cone],
                       help="restricted-eigenvalue and spikiness checks")
    p.add_argument("what", choices=["re", "mre", "spikiness"])
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
    p.add_argument("--x", required=True, choices=_SLOPE_AXES)
    p.add_argument("--y", default=_SLOPE_COLUMNS[0], choices=_SLOPE_COLUMNS)
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
    except (ProblemValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
