"""Sweep harness: run estimator grids, collect records, fit rate slopes.

Cells are the cartesian product of the SweepSpec grids in the documented order
(n, dims, sparsity, o, noise, adversary), enumerated by ``cell_index``.
Trial randomness is addressed as ``SeedSequence([base_seed, cell_index,
trial_index])``, collapsed to one 64-bit master seed per trial, so runs
are reproducible record for record regardless of parallelism. Failures
are recorded (``converged`` flag), never dropped.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .datagen import (
    ContaminationSpec,
    CovariateSpec,
    NoiseSpec,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    spikiness,
)
from .diagnostics import TheoremInputs, error_metrics, tuning_completion, tuning_lasso, tuning_matrix_cs
from .problems import ProblemValidationError, TuningParams
from .solvers import SolverConfig, solve_adversarial_lasso, solve_matrix_completion, solve_matrix_cs

# lambda_o sqrt(n) for the pure quadratic regime: far beyond any residual,
# so the loss never leaves its quadratic branch.
QUADRATIC_SCALE = 1e9

DEFAULT_ORACLE_MULTIPLIERS = (
    1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1, 1.0, 3.16,
)

RESULT_COLUMNS = [
    "problem_kind", "cell_index", "trial_index", "n", "dim1", "dim2",
    "sparsity", "o", "noise_kind", "noise_sigma", "noise_alpha",
    "adversary", "adversary_magnitude", "lambda_o", "lambda_star",
    "iterations", "converged", "error", "rel_error", "weighted_error",
    "support_exact",
]

_INT_COLS = {"cell_index", "trial_index", "n", "dim1", "dim2", "sparsity",
             "o", "iterations", "converged", "support_exact"}
_STR_COLS = {"problem_kind", "noise_kind", "adversary"}


@dataclass(frozen=True)
class ExperimentRecord:
    """One solved trial. ``support_exact`` doubles as rank_exact for
    matrix problems; ``wall_time`` is volatile and excluded from the
    deterministic CSV by default."""

    problem_kind: str
    cell_index: int
    trial_index: int
    n: int
    dim1: int
    dim2: int
    sparsity: int
    o: int
    noise_kind: str
    noise_sigma: float
    noise_alpha: float
    adversary: str
    adversary_magnitude: float
    lambda_o: float
    lambda_star: float
    iterations: int
    converged: int
    error: float
    rel_error: float
    weighted_error: float
    support_exact: int
    wall_time: float = 0.0


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for run_sweep; JSON-friendly (see from_dict).

    ``d_grid`` holds ints for vector problems and (d1, d2) pairs for the
    matrix problems. ``tuning_mode``: "theorem" transcribes the tuning
    calculators, "fixed" uses fixed_lambda_o / fixed_lambda_star, and
    "grid_oracle" keeps the theorem lambda_o but picks lambda_star on a
    multiplicative grid by minimizing the true error (ground truth is
    known here; this separates statistical rates from tuning
    sensitivity). ``loss_regime`` "quadratic" pushes lambda_o so high the
    loss never leaves its quadratic branch, giving the plain penalized
    least-squares baseline.
    """

    problem_kind: str
    n_grid: tuple
    d_grid: tuple
    s_grid: tuple
    o_grid: tuple = (0,)
    noise_grid: tuple = ({"kind": "gaussian", "sigma": 0.1},)
    adversary_grid: tuple = ({"strategy": "none", "magnitude": 0.0},)
    trials_per_cell: int = 10
    base_seed: int = 0
    tuning_mode: str = "grid_oracle"
    fixed_lambda_o: Optional[float] = None
    fixed_lambda_star: Optional[float] = None
    oracle_multipliers: tuple = DEFAULT_ORACLE_MULTIPLIERS
    loss_regime: str = "huber"
    beta_magnitude: float = 1.0
    spikiness_cap: float = 3.0
    completion_variant: str = "subweibull"
    completion_alpha: float = 2.0
    delta: float = 0.1
    kappa: float = 1.0
    c0: float = 3.0
    L: float = 1.0
    rho: float = 1.0
    max_iters: int = 2000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.problem_kind not in ("lasso", "matrix_cs", "completion"):
            raise ProblemValidationError(f"unknown problem_kind {self.problem_kind!r}")
        if self.tuning_mode not in ("theorem", "fixed", "grid_oracle"):
            raise ProblemValidationError(f"unknown tuning_mode {self.tuning_mode!r}")
        if self.loss_regime not in ("huber", "quadratic"):
            raise ProblemValidationError(f"unknown loss_regime {self.loss_regime!r}")
        if self.trials_per_cell < 1:
            raise ProblemValidationError("trials_per_cell must be >= 1")
        if self.tuning_mode == "fixed" and (
            self.fixed_lambda_o is None or self.fixed_lambda_star is None
        ):
            raise ProblemValidationError(
                "tuning_mode 'fixed' needs fixed_lambda_o and fixed_lambda_star"
            )
        for g, name in (
            (self.n_grid, "n_grid"), (self.d_grid, "d_grid"),
            (self.s_grid, "s_grid"), (self.o_grid, "o_grid"),
            (self.noise_grid, "noise_grid"), (self.adversary_grid, "adversary_grid"),
        ):
            if len(tuple(g)) == 0:
                raise ProblemValidationError(f"{name} must be nonempty")
        # normalize to hashable tuples so specs pickle cleanly
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        object.__setattr__(self, "s_grid", tuple(int(v) for v in self.s_grid))
        object.__setattr__(self, "o_grid", tuple(int(v) for v in self.o_grid))
        if self.problem_kind == "lasso":
            object.__setattr__(self, "d_grid", tuple(int(v) for v in self.d_grid))
        else:
            object.__setattr__(
                self, "d_grid", tuple((int(a), int(b)) for a, b in self.d_grid)
            )
        object.__setattr__(self, "noise_grid", tuple(dict(v) for v in self.noise_grid))
        object.__setattr__(
            self, "adversary_grid", tuple(dict(v) for v in self.adversary_grid)
        )
        object.__setattr__(
            self, "oracle_multipliers", tuple(float(v) for v in self.oracle_multipliers)
        )
        self._check_cell_sizes()

    def _check_cell_sizes(self):
        """Reject a grid with a cell the generators cannot draw.

        Without this, such a cell fails only when its trials run, possibly
        inside a sweep worker process.
        """
        n_min = min(self.n_grid)
        if n_min < 1:
            raise ProblemValidationError(f"n must be >= 1, got n={n_min}")
        for o in self.o_grid:
            if not 0 <= o <= n_min:
                raise ProblemValidationError(f"need 0 <= o <= n, got o={o}, n={n_min}")
        lasso = self.problem_kind == "lasso"
        for dims in self.d_grid:
            d_min = dims if lasso else min(dims)
            if d_min < 1:
                raise ProblemValidationError(f"dimensions must be >= 1, got {dims}")
            for s in self.s_grid:
                if lasso and not 0 <= s <= d_min:
                    raise ProblemValidationError(f"need 0 <= s <= d, got s={s}, d={dims}")
                if not lasso and not 1 <= s <= d_min:
                    raise ProblemValidationError(
                        f"need 1 <= rank <= min(d1, d2), got rank={s}, dims={dims}"
                    )

    @staticmethod
    def from_dict(cfg: dict) -> "SweepSpec":
        known = {f.name for f in SweepSpec.__dataclass_fields__.values()}
        unknown = set(cfg) - known
        if unknown:
            raise ProblemValidationError(f"unknown sweep config keys: {sorted(unknown)}")
        return SweepSpec(**cfg)

    def cells(self):
        return list(
            itertools.product(
                self.n_grid, self.d_grid, self.s_grid, self.o_grid,
                self.noise_grid, self.adversary_grid,
            )
        )


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float
    n_points: int


def _trial_master_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    state = np.random.SeedSequence(
        [int(base_seed), int(cell_index), int(trial_index)]
    ).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def _noise_from_dict(d: dict) -> NoiseSpec:
    return NoiseSpec(
        kind=d.get("kind", "gaussian"),
        sigma=float(d.get("sigma", 1.0)),
        alpha=d.get("alpha"),
    )


def _theorem_tuning(spec: SweepSpec, n, dims, s, o, sigma, alpha_star=None):
    if spec.problem_kind == "lasso":
        rep = tuning_lasso(TheoremInputs(
            n=n, o=o, d=dims, s=s, delta=spec.delta, sigma=sigma,
            L=spec.L, rho=spec.rho, kappa=spec.kappa, c0=spec.c0,
        ))
    elif spec.problem_kind == "matrix_cs":
        rep = tuning_matrix_cs(TheoremInputs(
            n=n, o=o, dims=dims, r=s, delta=spec.delta, sigma=sigma,
            L=spec.L, rho=spec.rho, kappa=spec.kappa, c0=spec.c0,
        ))
    else:
        rep = tuning_completion(TheoremInputs(
            n=n, o=o, dims=dims, r=s, delta=spec.delta, sigma=sigma,
            alpha=spec.completion_alpha, alpha_star=alpha_star,
            kappa=spec.kappa, c0=spec.c0,
        ), variant=spec.completion_variant)
    return rep.lambda_o, rep.lambda_star


def run_trial(spec: SweepSpec, cell_index: int, trial_index: int) -> ExperimentRecord:
    """Generate, tune, solve, and score one trial. Deterministic."""
    cell = spec.cells()[cell_index]
    n, dims, s, o, noise_d, adv_d = cell
    noise = _noise_from_dict(noise_d)
    strategy = adv_d.get("strategy", "none")
    magnitude = float(adv_d.get("magnitude", 0.0))
    if o > 0 and strategy == "none":
        raise ProblemValidationError(
            f"cell {cell_index} has o={o} but adversary strategy 'none'"
        )
    master = _trial_master_seed(spec.base_seed, cell_index, trial_index)
    contamination = ContaminationSpec(
        o=o, strategy=strategy if o > 0 else "none",
        magnitude=magnitude, seed=master,
    )

    t_start = time.perf_counter()
    if spec.problem_kind == "lasso":
        truth = gen_sparse_beta(
            dims, s, spec.beta_magnitude, np.random.SeedSequence([master, 3])
        )
        cov = CovariateSpec(kind="gaussian")
        dim1, dim2 = dims, 0
        alpha_star = None
    else:
        d1, d2 = dims
        cap = spec.spikiness_cap if spec.problem_kind == "completion" else np.inf
        truth = gen_low_rank(d1, d2, s, cap, np.random.SeedSequence([master, 3]))
        cov = CovariateSpec(
            kind="mask_uniform" if spec.problem_kind == "completion" else "gaussian"
        )
        dim1, dim2 = d1, d2
        alpha_star = spikiness(truth)
    problem = gen_problem(cov, noise, truth, n, contamination)

    if spec.loss_regime == "quadratic":
        lam_o = QUADRATIC_SCALE * noise.sigma / np.sqrt(n)
        _, lam_star = _base_tuning(spec, n, dims, s, o, noise.sigma, alpha_star)
    else:
        lam_o, lam_star = _base_tuning(spec, n, dims, s, o, noise.sigma, alpha_star)

    radius = alpha_star / np.sqrt(dim1 * dim2) if spec.problem_kind == "completion" else None
    cfg = SolverConfig(max_iters=spec.max_iters, rel_tol=spec.rel_tol)

    if spec.tuning_mode == "grid_oracle":
        lam_grid = sorted(
            (m * lam_star for m in spec.oracle_multipliers), reverse=True
        )
        best = None
        x0 = None
        for lam in lam_grid:
            tp = TuningParams(lam_o, lam, inf_ball_radius=radius)
            res = _solve(spec.problem_kind, problem, tp, cfg, x0)
            x0 = res.estimate
            err = float(np.linalg.norm(res.estimate - truth))
            if best is None or err < best[0]:
                best = (err, lam, res)
        _, lam_star, result = best
    else:
        tp = TuningParams(lam_o, lam_star, inf_ball_radius=radius)
        result = _solve(spec.problem_kind, problem, tp, cfg, None)

    wall = time.perf_counter() - t_start
    metrics = error_metrics(result.estimate, truth)
    exact = metrics.get("support_exact", metrics.get("rank_exact", False))
    return ExperimentRecord(
        problem_kind=spec.problem_kind,
        cell_index=cell_index,
        trial_index=trial_index,
        n=n, dim1=dim1, dim2=dim2, sparsity=s, o=o,
        noise_kind=noise.kind, noise_sigma=noise.sigma,
        noise_alpha=float(noise.alpha) if noise.alpha is not None else float("nan"),
        adversary=strategy, adversary_magnitude=magnitude,
        lambda_o=float(lam_o), lambda_star=float(lam_star),
        iterations=result.iterations, converged=int(result.converged),
        error=metrics["error"], rel_error=metrics["rel_error"],
        weighted_error=metrics["weighted_error"], support_exact=int(exact),
        wall_time=wall,
    )


def _base_tuning(spec, n, dims, s, o, sigma, alpha_star):
    if spec.tuning_mode == "fixed":
        return float(spec.fixed_lambda_o), float(spec.fixed_lambda_star)
    return _theorem_tuning(spec, n, dims, s, o, sigma, alpha_star)


def _solve(kind, problem, tp, cfg, x0):
    if kind == "lasso":
        return solve_adversarial_lasso(problem, tp, cfg, x0=x0)
    if kind == "matrix_cs":
        return solve_matrix_cs(problem, tp, cfg, x0=x0)
    return solve_matrix_completion(problem, tp, cfg, B0=x0)


def _trial_args(spec, idx):
    return run_trial(spec, idx[0], idx[1])


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """All trials of all cells, ordered by (cell_index, trial_index).

    ``jobs`` > 1 fans trials out to processes; seeding is per-trial, so
    the result list is identical for any jobs value.
    """
    indices = [
        (ci, ti)
        for ci in range(len(spec.cells()))
        for ti in range(spec.trials_per_cell)
    ]
    if jobs <= 1:
        return [run_trial(spec, ci, ti) for ci, ti in indices]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        records = list(pool.map(_trial_args, itertools.repeat(spec), indices))
    return records


def aggregate_medians(records, key: str = "error", by: str = "cell_index") -> dict:
    """Median of ``key`` grouped by a record field."""
    groups = {}
    for rec in records:
        groups.setdefault(getattr(rec, by), []).append(getattr(rec, key))
    return {k: float(np.median(v)) for k, v in sorted(groups.items())}


def fit_rate_slope(records, x_axis: str = "n", y: str = "error") -> SlopeFit:
    """OLS slope of log median error against log x over grouped records.

    ``x_axis`` is "n" or "o_frac" (= o/n). Groups records by the x value,
    takes the median of ``y`` per group, and regresses log median on
    log x. Needs at least three distinct x values and positive medians.
    """
    if x_axis not in ("n", "o_frac"):
        raise ProblemValidationError(f"x_axis must be 'n' or 'o_frac', got {x_axis!r}")
    groups = {}
    for rec in records:
        xv = rec.n if x_axis == "n" else rec.o / rec.n
        groups.setdefault(xv, []).append(getattr(rec, y))
    if len(groups) < 3:
        raise ProblemValidationError(
            f"need >= 3 distinct {x_axis} values, got {len(groups)}"
        )
    xs = np.array(sorted(groups))
    med = np.array([np.median(groups[x]) for x in xs])
    if (xs <= 0).any() or (med <= 0).any():
        raise ProblemValidationError("log-log fit needs positive x and positive medians")
    lx, ly = np.log(xs), np.log(med)
    lxc = lx - lx.mean()
    sxx = float(np.dot(lxc, lxc))
    slope = float(np.dot(lxc, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = len(xs) - 2
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / sxx)) if dof > 0 else float("nan")
    return SlopeFit(slope, intercept, stderr, len(xs))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def write_results(records, path, include_timing: bool = False) -> None:
    """Write records as CSV with a stable column order and 17-digit floats.

    Byte-identical across reruns with the same records; the volatile
    wall_time column is only written when include_timing is True.
    """
    cols = RESULT_COLUMNS + (["wall_time"] if include_timing else [])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(getattr(rec, c)) for c in cols) + "\n")


def read_results(path) -> list:
    """Inverse of write_results (wall_time restored when present)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ProblemValidationError(f"results file {path} is empty")
    header = lines[0].split(",")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        kv = {}
        for col, raw in zip(header, parts):
            if col in _STR_COLS:
                kv[col] = raw
            elif col in _INT_COLS:
                kv[col] = int(raw)
            else:
                kv[col] = float(raw)
        records.append(ExperimentRecord(**kv))
    return records
