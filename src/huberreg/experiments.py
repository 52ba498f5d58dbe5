"""Sweep harness: run estimator grids, collect records, fit rate slopes.

Cells are the cartesian product of the SweepSpec grids in the documented order
(n, dims, sparsity, o, noise, adversary), enumerated by ``cell_index``.
Trial randomness is addressed as ``SeedSequence([base_seed, cell_index,
trial_index])``, collapsed to one 64-bit master seed per trial, so runs
are reproducible record for record regardless of parallelism. Failures
are recorded (``converged`` flag), never dropped.

What a problem kind (lasso, matrix_cs, completion) means is decided here,
once, in ``_kind`` and the helpers beside it: how its truth is drawn and on
which covariates, which tuning calculator it takes, its completion box
radius, and its solver. ``run_trial`` and the command line both use them;
a theorem input neither is given takes its ``TheoremInputs`` default. The
kind table is built on every call rather than once at import, so the
calculators, solvers and generators in it are whatever this module's
attributes are at call time, and a wrapper installed on one of them (a
profiler, a test double) sees every call.
"""

from __future__ import annotations

import itertools
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bundles import _fmt
from .datagen import (
    ContaminationSpec,
    CovariateSpec,
    NoiseSpec,
    _check_low_rank,
    _check_sparse,
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


# the results CSV columns and their parsers, from ExperimentRecord's fields;
# a field type is its name while annotations are strings, else the class
_PARSE = {f.name: {"int": int, "float": float, "str": str}[getattr(f.type, "__name__", f.type)]
          for f in fields(ExperimentRecord)}
RESULT_COLUMNS = [name for name in _PARSE if name != "wall_time"]


# the keys run_trial reads from a noise_grid or adversary_grid entry
_ENTRY_KEYS = {"noise_grid": ("kind", "sigma", "alpha"),
               "adversary_grid": ("strategy", "magnitude")}


def _real(v) -> float:
    """``v`` as a float: a number, never a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _integer(v) -> int:
    """``v`` as an int: an integer, never a bool, a float or a string."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def _entry(d) -> dict:
    """A noise or adversary grid entry as a dict, its numbers (an alpha of None
    aside) as floats."""
    d = dict(d)
    for k in ("sigma", "alpha", "magnitude"):
        if k in d and not (k == "alpha" and d[k] is None):
            try:
                d[k] = _real(d[k])
            except TypeError as exc:
                raise TypeError(f"{k!r}: {exc}") from None
    return d


def _pair(dims) -> tuple:
    d1, d2 = dims
    return _integer(d1), _integer(d2)


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
    least-squares baseline. No theorem input is set here: o comes from the
    cell, sigma, L and rho from the problem's meta, the rest are defaults.
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
    spikiness_cap: float = 3.0
    max_iters: int = 2000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.problem_kind not in ("lasso", "matrix_cs", "completion"):
            raise ProblemValidationError(f"unknown problem_kind {self.problem_kind!r}")
        if self.tuning_mode not in ("theorem", "fixed", "grid_oracle"):
            raise ProblemValidationError(f"unknown tuning_mode {self.tuning_mode!r}")
        if self.loss_regime not in ("huber", "quadratic"):
            raise ProblemValidationError(f"unknown loss_regime {self.loss_regime!r}")
        # numbers to int or float and grids to hashable tuples, so specs pickle
        # cleanly; a value of the wrong type is rejected by name
        for name, entry in (
            ("n_grid", _integer), ("d_grid", _integer if self.problem_kind == "lasso" else _pair),
            ("s_grid", _integer), ("o_grid", _integer), ("noise_grid", _entry),
            ("adversary_grid", _entry), ("oracle_multipliers", _real),
            ("trials_per_cell", _integer), ("base_seed", _integer), ("max_iters", _integer),
            ("spikiness_cap", _real), ("rel_tol", _real),
            ("fixed_lambda_o", _real), ("fixed_lambda_star", _real),
        ):
            value, grid = getattr(self, name), name.endswith(("_grid", "_multipliers"))
            try:
                if grid or value is not None:
                    value = tuple(map(entry, value)) if grid else entry(value)
            except (TypeError, ValueError) as exc:
                raise ProblemValidationError(f"{name}: {exc}") from None
            if grid and not value:
                raise ProblemValidationError(f"{name} must be nonempty")
            keys = _ENTRY_KEYS.get(name)
            unknown = sorted(set().union(*value) - set(keys)) if keys else []
            if unknown:
                raise ProblemValidationError(
                    f"{name}: unknown keys {unknown}; an entry takes {', '.join(keys)}"
                )
            object.__setattr__(self, name, value)
        if self.trials_per_cell < 1:
            raise ProblemValidationError("trials_per_cell must be >= 1")
        # every cell meets its trials' own checks before any trial runs, drawing
        # nothing; only a completion truth no draw brings under the cap fails later
        SolverConfig(max_iters=self.max_iters, rel_tol=self.rel_tol)
        fixed = self.tuning_mode == "fixed"
        if fixed:
            if self.fixed_lambda_o is None or self.fixed_lambda_star is None:
                raise ProblemValidationError(
                    "tuning_mode 'fixed' needs fixed_lambda_o and fixed_lambda_star")
            try:
                TuningParams(self.fixed_lambda_o, self.fixed_lambda_star)
            except ProblemValidationError as exc:  # it names lambda_o or lambda_star
                raise ProblemValidationError(f"fixed_{exc}") from None
        kind, cap = self.problem_kind, self.spikiness_cap
        size, dim = ("s", "d") if kind == "lasso" else ("rank", "dims")
        for i, (n, dims, s, o, noise_d, adv_d) in enumerate(self.cells()):
            try:
                TheoremInputs(n=n, o=o)
                sigma = NoiseSpec(**noise_d).sigma
                _contamination(o, adv_d)
                if kind == "lasso":  # the truth generator's size rule
                    _check_sparse(dims, s)
                else:
                    _check_low_rank(*dims, s, cap if kind == "completion" else np.inf)
                if not fixed:  # a completion truth's alpha_star is at most the cap
                    _theorem_tuning(kind, n, dims, s, o=o, sigma=sigma, alpha_star=cap)
            except ProblemValidationError as exc:
                raise ProblemValidationError(
                    f"cell {i} (o={o}, n={n}, {size}={s}, {dim}={dims}): {exc}") from None

    @staticmethod
    def from_dict(cfg: dict) -> "SweepSpec":
        known = SweepSpec.__dataclass_fields__
        unknown = set(cfg) - set(known)
        if unknown:
            raise ProblemValidationError(f"unknown sweep config keys: {sorted(unknown)}")
        missing = [k for k, f in known.items() if f.default is MISSING and k not in cfg]
        if missing:
            raise ProblemValidationError(f"missing sweep config keys: {missing}")
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


class _Kind(NamedTuple):
    covariates: str  # CovariateSpec kind of the design
    tuning: Callable  # theorem tuning calculator
    solver: Callable  # called as solver(problem, tp, cfg, start)


def _kind(name: str) -> _Kind:
    """What the problem kind ``name`` means; built per call (see the module docstring)."""
    return {
        "lasso": _Kind("gaussian", tuning_lasso, solve_adversarial_lasso),
        "matrix_cs": _Kind("gaussian", tuning_matrix_cs, solve_matrix_cs),
        "completion": _Kind("mask_uniform", tuning_completion, solve_matrix_completion),
    }[name]


def _draw_truth(kind, dims, s, seed, beta_magnitude=1.0, spikiness_cap=3.0):
    """(truth, CovariateSpec) of a problem kind, the truth from ``SeedSequence([seed, 3])``.

    ``dims`` is d for lasso and (d1, d2) otherwise; ``s`` the sparsity or
    rank. Only completion truths are held to the spikiness cap.
    """
    truth_seed = np.random.SeedSequence([seed, 3])
    if kind == "lasso":
        truth = gen_sparse_beta(dims, s, beta_magnitude, truth_seed)
    else:
        cap = spikiness_cap if kind == "completion" else np.inf
        truth = gen_low_rank(dims[0], dims[1], s, cap, truth_seed)
    return truth, CovariateSpec(kind=_kind(kind).covariates)


def _theorem_tuning(kind, n, dims, s, variant="subweibull", alpha=2.0, **inputs):
    """The kind's theorem tuning report (a DiagnosticsReport).

    ``inputs`` are the TheoremInputs fields the caller was given; any other
    takes its TheoremInputs default, and the kind's calculator ignores the
    fields it does not read. Completion defaults to the sub-Weibull variant
    at alpha = 2, the one order both variants accept; ``variant`` goes to
    completion only.
    """
    size = {"d": dims, "s": s} if kind == "lasso" else {"dims": dims, "r": s}
    extra = {"variant": variant} if kind == "completion" else {}
    return _kind(kind).tuning(TheoremInputs(n=n, **size, alpha=alpha, **inputs), **extra)


def _box_radius(kind, alpha_star, dims):
    """Entrywise constraint radius alpha* / sqrt(d1 d2) for completion, else None."""
    if kind != "completion":
        return None
    return alpha_star / np.sqrt(dims[0] * dims[1])


def _contamination(o, adversary, seed=0):
    """A cell's ContaminationSpec; an o = 0 cell takes strategy 'none'. A missing
    magnitude would read as 0 and corrupt no row, so an o > 0 entry must give one."""
    if o > 0 and "magnitude" not in adversary:
        raise ProblemValidationError("adversary_grid: an entry needs 'magnitude' when o > 0")
    strategy = adversary.get("strategy", "none") if o > 0 else "none"
    return ContaminationSpec(o=o, strategy=strategy,
                             magnitude=adversary.get("magnitude", 0.0), seed=seed)


def _solve(kind, problem, tp, cfg, x0=None):
    return _kind(kind).solver(problem, tp, cfg, x0)


def run_trial(spec: SweepSpec, cell_index: int, trial_index: int) -> ExperimentRecord:
    """Generate, tune, solve, and score one trial. Deterministic."""
    n, dims, s, o, noise_d, adv_d = spec.cells()[cell_index]
    noise = NoiseSpec(**noise_d)  # an entry holds NoiseSpec fields only (_ENTRY_KEYS)
    master = _trial_master_seed(spec.base_seed, cell_index, trial_index)
    contamination = _contamination(o, adv_d, master)

    t_start = time.perf_counter()
    kind = spec.problem_kind
    truth, cov = _draw_truth(kind, dims, s, master, spikiness_cap=spec.spikiness_cap)
    dim1, dim2 = (dims, 0) if kind == "lasso" else dims
    alpha_star = None if kind == "lasso" else spikiness(truth)
    problem = gen_problem(cov, noise, truth, n, contamination)

    if spec.tuning_mode == "fixed":
        lam_o, lam_star = spec.fixed_lambda_o, spec.fixed_lambda_star
    else:  # sigma, L and rho as gen_problem recorded them, as solve reads a bundle's
        rep = _theorem_tuning(kind, n, dims, s, o=o, alpha_star=alpha_star,
                              **{k: problem.meta[k] for k in ("sigma", "L", "rho")})
        lam_o, lam_star = rep.lambda_o, rep.lambda_star
    if spec.loss_regime == "quadratic":
        lam_o = QUADRATIC_SCALE * noise.sigma / np.sqrt(n)

    radius = _box_radius(kind, alpha_star, dims)
    cfg = SolverConfig(max_iters=spec.max_iters, rel_tol=spec.rel_tol)

    if spec.tuning_mode == "grid_oracle":
        lam_grid = sorted(
            (m * lam_star for m in spec.oracle_multipliers), reverse=True
        )
        best = None
        x0 = None
        for lam in lam_grid:
            tp = TuningParams(lam_o, lam, inf_ball_radius=radius)
            res = _solve(kind, problem, tp, cfg, x0)
            x0 = res.estimate
            err = float(np.linalg.norm(res.estimate - truth))
            if best is None or err < best[0]:
                best = (err, lam, res)
        _, lam_star, result = best
    else:
        tp = TuningParams(lam_o, lam_star, inf_ball_radius=radius)
        result = _solve(kind, problem, tp, cfg)

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
        adversary=adv_d.get("strategy", "none"), adversary_magnitude=contamination.magnitude,
        lambda_o=float(lam_o), lambda_star=float(lam_star),
        iterations=result.iterations, converged=int(result.converged),
        error=metrics["error"], rel_error=metrics["rel_error"],
        weighted_error=metrics["weighted_error"], support_exact=int(exact),
        wall_time=wall,
    )


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
    """Inverse of write_results (wall_time restored when present).

    Raises ProblemValidationError naming the file and the 1-based line for
    an unknown or missing header column, a row whose length differs from
    the header's, and a token that does not parse as its column's type.
    """
    header, records = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            if not ln.strip():
                continue
            parts = ln.rstrip("\r\n").split(",")
            if header is None:
                header = parts
                bad = [f"unknown column {c!r}" for c in header if c not in _PARSE] + [
                    f"missing column {c!r}" for c in RESULT_COLUMNS if c not in header]
                if bad:
                    raise ProblemValidationError(f"{path}, line {lineno}: {', '.join(bad)}")
                continue
            if len(parts) != len(header):
                raise ProblemValidationError(
                    f"{path}, line {lineno}: {len(parts)} values, but the header has {len(header)}"
                )
            try:
                kv = {col: _PARSE[col](raw) for col, raw in zip(header, parts)}
            except ValueError as exc:  # the message quotes the bad token
                raise ProblemValidationError(f"{path}, line {lineno}: {exc}") from None
            records.append(ExperimentRecord(**kv))
    if header is None:
        raise ProblemValidationError(f"results file {path} is empty")
    return records
