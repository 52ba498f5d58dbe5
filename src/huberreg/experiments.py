"""Sweep harness: run estimator grids, collect records, fit rate slopes.

Cells are the cartesian product of the SweepSpec grids in the documented order
(n, dims, sparsity, o, noise, adversary), enumerated by ``cell_index``.
Trial randomness is addressed as ``SeedSequence([base_seed, cell_index,
trial_index])``, collapsed to one 64-bit master seed per trial, so runs
are reproducible record for record regardless of parallelism. Failures
are recorded (``converged`` flag), never dropped. A grid-oracle trial
abandons a solve whose error is hopeless at a coarse checkpoint, and stops
its lambda_star path once a coarse screening pass from there shows no
smaller lambda_star can beat the best error; ``run_trial`` states the rule
and when its pick equals the full grid's minimum.

What a problem kind (lasso, matrix_cs, completion) means is decided here,
once: ``_kinds`` holds one ``_Kind`` record per kind (its design, size and
dims names, truth generator, tuning calculator, box and solver). Each sweep
check, trial and CLI command looks its record up once, as it starts, and
hands the record, never the name, to ``_draw``, the tuning resolver and
``_solve``. A trial draws like ``generate`` (``_draw``) and tunes like
``solve`` (``_tuning_params``). The records are built once per trial, sweep
check and command rather than once at import, so the calculators, solvers
and generators in them are this module's attributes as that work starts,
and a wrapper installed on one before then (a profiler, a test double)
sees every call.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bundles import _BUNDLE_DIMS, _TRUTH, _fmt, _scan_csv, _write_lines
from .datagen import (
    ContaminationSpec,
    NoiseSpec,
    _check_low_rank,
    _check_sparse,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    spikiness,
)
from .diagnostics import TheoremInputs, error_metrics, tuning_completion, tuning_lasso, tuning_matrix_cs
from .problems import ProblemValidationError, TuningParams, _at_least, _nonnegative, _require
from .solvers import SolverConfig, solve_adversarial_lasso, solve_matrix_completion, solve_matrix_cs

# lambda_o sqrt(n) for the pure quadratic regime: far beyond any residual,
# so the loss never leaves its quadratic branch.
QUADRATIC_SCALE = 1e9

DEFAULT_ORACLE_MULTIPLIERS = (
    1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1, 1.0, 3.16,
)

# The grid oracle's early stop (see run_trial): a solve whose error at the
# SCREEN_REL_TOL checkpoint is at least (1 + SCREEN_MARGIN) times the best is
# abandoned. On the three benchmark oracle specs (base seeds 0 and 7, 48
# trials each) and the README sweep (seeds 0 and 1), every lambda whose full
# solve became a new best passed its checkpoint with the bar at least 1.20
# times its checkpoint error (README sweep; matrix_cs 1.29, lasso 1.34,
# completion 1.53), so none was abandoned and every record equals the full
# path's.
SCREEN_REL_TOL = 1e-4
SCREEN_MARGIN = 0.2

_SLOPE_AXES = ("n", "o_frac")  # fit_rate_slope's x axes and y columns, the first its default
_SLOPE_COLUMNS = ("error", "rel_error", "weighted_error")


@dataclass(frozen=True)
class ExperimentRecord:
    """One solved trial. ``support_exact`` doubles as rank_exact for
    matrix problems; ``wall_time`` is volatile and excluded from the
    deterministic CSV by default. Every design gen_problem draws has
    identity covariance, so ``weighted_error`` equals ``error`` in every
    record."""

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


def _multiplier(v) -> float:
    """``v`` as a float: a positive, finite number."""
    m = _real(v)
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"expected a positive finite number, got {v!r}")
    return m


def _pair(dims) -> tuple:
    d1, d2 = dims
    return _integer(d1), _integer(d2)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for run_sweep; JSON-friendly (see from_dict).

    ``problem_kind`` names a ``_Kind`` record, which says what ``d_grid``
    (ints for lasso, else (d1, d2) pairs) and ``s_grid`` (sparsity or rank)
    hold. ``tuning_mode``: "theorem" transcribes the tuning
    calculators, "fixed" uses fixed_lambda_o / fixed_lambda_star, and
    "grid_oracle" keeps the theorem lambda_o but picks lambda_star on a
    multiplicative grid by minimizing the true error (ground truth is
    known here; this separates statistical rates from tuning
    sensitivity). The grid is walked from the largest lambda_star down,
    each solve warm-started at the last; once a coarse pass over the rest
    shows no smaller lambda_star can win, the walk stops early (run_trial
    says when its pick equals the full walk's). ``loss_regime``
    "quadratic" pushes lambda_o so high the loss never leaves its quadratic
    branch, giving the plain penalized least-squares baseline. No theorem
    input is set here: a trial tunes from its problem's meta through
    ``solve``'s resolver, o from the cell. A cell is checked with its
    trial's rules, its lambda path (box radius included) built by the
    trial's builder.
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
        _require(self.problem_kind in list(kinds := _kinds()),
                 f"unknown problem_kind {self.problem_kind!r}")
        k = kinds[self.problem_kind]
        _require(self.tuning_mode in ("theorem", "fixed", "grid_oracle"),
                 f"unknown tuning_mode {self.tuning_mode!r}")
        _require(self.loss_regime in ("huber", "quadratic"),
                 f"unknown loss_regime {self.loss_regime!r}")
        # numbers to int or float and grids to hashable tuples, so specs pickle
        # cleanly; a value of the wrong type is rejected by name
        for name, entry in (
            ("n_grid", _integer), ("d_grid", k.coerce),
            ("s_grid", _integer), ("o_grid", _integer), ("noise_grid", _entry),
            ("adversary_grid", _entry), ("oracle_multipliers", _multiplier),
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
            _require(not grid or value, f"{name} must be nonempty")
            keys = _ENTRY_KEYS.get(name)
            unknown = sorted(set().union(*value) - set(keys)) if keys else []
            _require(not unknown,
                     f"{name}: unknown keys {unknown}; an entry takes {', '.join(keys or ())}")
            object.__setattr__(self, name, value)
        _at_least("trials_per_cell", self.trials_per_cell)
        _nonnegative("base_seed", self.base_seed)
        # every cell meets its trials' own checks before any trial runs, drawing
        # nothing; only a completion truth no draw brings under the cap fails later
        SolverConfig(max_iters=self.max_iters, rel_tol=self.rel_tol)
        if self.tuning_mode == "fixed":
            _require(self.fixed_lambda_o is not None and self.fixed_lambda_star is not None,
                     "tuning_mode 'fixed' needs fixed_lambda_o and fixed_lambda_star")
            try:
                TuningParams(self.fixed_lambda_o, self.fixed_lambda_star)
            except ProblemValidationError as exc:  # it names lambda_o or lambda_star
                raise ProblemValidationError(f"fixed_{exc}") from None
        cap = self.spikiness_cap if k.boxed else np.inf  # no other truth is capped
        for i, (n, dims, s, o, noise_d, adv_d) in enumerate(self.cells()):
            try:
                TheoremInputs(n=n, o=o)
                sigma = NoiseSpec(**noise_d).sigma
                _contamination(o, adv_d)
                k.check(dims, s, cap)
                # undrawn meta: a boxed truth's alpha_star is at most the cap and sqrt(d1 d2)
                bound = min(cap, np.sqrt(dims[0] * dims[1])) if k.boxed else None
                given = {k.size: s, "o": o, "sigma": sigma, "alpha_star": bound}
                _lambda_path(self, k, n, dims, given)
            except ProblemValidationError as exc:
                raise ProblemValidationError(
                    f"cell {i} (o={o}, n={n}, {k.size}={s}, {k.dims}={dims}): {exc}") from None

    @staticmethod
    def from_dict(cfg: dict) -> "SweepSpec":
        _require(isinstance(cfg, dict),
                 f"sweep config must be a JSON object, got {type(cfg).__name__}")
        known = SweepSpec.__dataclass_fields__
        unknown = set(cfg) - set(known)
        _require(not unknown, f"unknown sweep config keys: {sorted(unknown)}")
        missing = [k for k, f in known.items() if f.default is MISSING and k not in cfg]
        _require(not missing, f"missing sweep config keys: {missing}")
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


# Every fact that differs between the problem kinds; _kinds holds one record per kind.
class _Kind(NamedTuple):
    name: str
    design: str  # gen_problem's design name
    bundle: str  # the kind meta.txt gives its bundle
    size: str  # the sparsity or rank: its key in a cell, a meta and the CLI
    dims: str  # the dims: their TheoremInputs field and problem attribute
    coerce: Callable  # a d_grid entry to dims
    check: Callable  # check(dims, size, cap): the truth generator's size rule
    truth: Callable  # truth(dims, size, cap, beta_magnitude, seed): the truth generator
    meta: Callable  # meta(truth, beta_magnitude): its problem's meta beside the size
    tuning: Callable  # tuning(TheoremInputs, variant): theorem tuning
    variant: Optional[str]  # the tuning's variant when none is given; None: it takes none
    reads: tuple  # the theorem inputs (_THEOREM's, c0, variant) that its tuning reads
    theorem_size: str  # the size's TheoremInputs field
    boxed: bool  # truth held to the spikiness cap, fit to the entrywise box
    solver: Callable  # called as solver(problem, tp, cfg, start, give_up=...)
    keys = property(lambda self: _BUNDLE_DIMS[self.bundle])  # dims keys in a meta and the CLI


def _kinds() -> dict:
    """Each kind's record by name. Built anew per call, once per sweep check, trial and
    command, so a wrapper put on a generator, calculator or solver before then is called."""
    lasso = _Kind(
        name="lasso", design="gaussian", bundle="lasso", size="s", dims="d",
        coerce=_integer, check=lambda d, s, cap: _check_sparse(d, s),
        truth=lambda d, s, cap, mag, seed: gen_sparse_beta(d, s, mag, seed),
        meta=lambda beta, mag: {"beta_magnitude": mag},
        tuning=lambda ti, variant: tuning_lasso(ti), variant=None, theorem_size="s",
        reads=("o", "sigma", "delta", "kappa", "L", "rho", "c0"),
        boxed=False, solver=solve_adversarial_lasso)
    matrix_cs = lasso._replace(
        name="matrix_cs", bundle="trace_dense", size="rank", dims="dims",
        coerce=_pair, check=lambda dims, r, cap: _check_low_rank(*dims, r, cap),
        truth=lambda dims, r, cap, mag, seed: gen_low_rank(*dims, r, cap, seed),
        meta=lambda B, mag: {"alpha_star": spikiness(B)},
        tuning=lambda ti, variant: tuning_matrix_cs(ti), theorem_size="r", solver=solve_matrix_cs)
    completion = matrix_cs._replace(
        name="completion", design="mask_uniform", bundle="completion", boxed=True,
        tuning=tuning_completion, variant="subweibull", solver=solve_matrix_completion,
        reads=("o", "sigma", "sigma_xi", "delta", "alpha", "alpha_star", "variant"))
    return {kind.name: kind for kind in (lasso, matrix_cs, completion)}


def _draw(k, n, dims, s, noise, contamination, spikiness_cap, beta_magnitude=1.0):
    """A problem of the kind ``k`` (a ``_Kind``), its truth from
    ``SeedSequence([seed, 3])`` for the contamination's master seed; ``dims``
    and ``s`` are the kind's dims and size, and only a boxed kind's truth is
    held to the cap. Its meta adds the size under the kind's key and
    ``beta_magnitude`` for lasso, else ``alpha_star`` (the truth's spikiness)."""
    truth = k.truth(dims, s, spikiness_cap if k.boxed else np.inf, beta_magnitude,
                    np.random.SeedSequence([contamination.seed, 3]))
    problem = gen_problem(k.design, noise, truth, n, contamination)
    problem.meta.update({k.size: s, **k.meta(truth, beta_magnitude)})
    return problem


# The theorem inputs besides c0 that a caller may give, each of the type of its
# meta.txt key (bundles._META_TYPES); the CLI declares one option for each.
_THEOREM = ("o", "sigma", "sigma_xi", "delta", "kappa", "L", "rho", "alpha", "alpha_star")


def _theorem_tuning(k, n, dims, given):
    """The theorem tuning report (a DiagnosticsReport) of the kind ``k``.

    ``given`` is a problem's meta (a bundle's meta.txt, or a drawn
    problem's) with what the caller was given over it. It holds the size
    (``s`` or ``rank``); its ``c0`` and ``_THEOREM`` entries go to
    TheoremInputs, each missing or None one taking its default, and each
    calculator reads the fields it needs. Completion takes ``variant``, by
    default its record's (sub-Weibull) at alpha = 2, which both accept.
    """
    _require(given.get(k.size) is not None, f"theorem tuning needs --{k.size}")
    _require(not k.boxed or given.get("alpha_star") is not None,
             f"{k.name} tuning needs --alpha-star")
    inputs = {key: given[key] for key in ("c0", *_THEOREM) if given.get(key) is not None}
    shape = {k.dims: dims, k.theorem_size: given[k.size], "alpha": 2.0}
    return k.tuning(TheoremInputs(n=n, **{**shape, **inputs}), given.get("variant") or k.variant)


def _contamination(o, adversary, seed=0):
    """A cell's ContaminationSpec; an o = 0 cell takes strategy 'none'. A missing
    magnitude would read as 0 and corrupt no row, so an o > 0 entry must give one."""
    _require(o == 0 or "magnitude" in adversary,
             "adversary_grid: an entry needs 'magnitude' when o > 0")
    strategy = adversary.get("strategy", "none") if o > 0 else "none"
    return ContaminationSpec(o=o, strategy=strategy,
                             magnitude=adversary.get("magnitude", 0.0), seed=seed)


def _solve(k, problem, tp, cfg, x0=None, give_up=None):
    return k.solver(problem, tp, cfg, x0, give_up=give_up)


def _tuning_params(k, n, dims, given, fixed=None, boxed=False, radius=None):
    """A fit's TuningParams: lambda_o and lambda_star from the ``fixed`` pair
    if one is given, else from the theorem report of the kind ``k`` on
    ``given`` (see _theorem_tuning); a ``boxed`` fit takes ``radius`` if
    given, else alpha* / sqrt(d1 d2)."""
    if fixed is None:
        rep = _theorem_tuning(k, n, dims, given)
        fixed = rep.lambda_o, rep.lambda_star
    if boxed and radius is None:
        _require(given.get("alpha_star") is not None,
                 "completion needs --inf-radius or --alpha-star")
        radius = given["alpha_star"] / np.sqrt(dims[0] * dims[1])
    return TuningParams(*fixed, inf_ball_radius=radius if boxed else None)


def _lambda_path(spec, k, n, dims, given):
    """The TuningParams of the kind ``k``'s lambda_star path, largest first.

    ``given`` is what the trial tunes from (see _theorem_tuning): its
    problem's meta with the cell's o. The one level is _tuning_params's,
    fixed or theorem; the quadratic regime replaces its lambda_o, and
    grid_oracle scales its lambda_star by the oracle multipliers.
    """
    fixed = (spec.fixed_lambda_o, spec.fixed_lambda_star) if spec.tuning_mode == "fixed" else None
    tp = _tuning_params(k, n, dims, given, fixed, k.boxed)
    if spec.loss_regime == "quadratic":
        tp = replace(tp, lambda_o=QUADRATIC_SCALE * given["sigma"] / np.sqrt(n))
    grid = spec.oracle_multipliers if spec.tuning_mode == "grid_oracle" else (1.0,)
    return [replace(tp, lambda_star=lam)
            for lam in sorted((m * tp.lambda_star for m in grid), reverse=True)]


def _hopeless(truth, bar):
    """The grid oracle's ``give_up`` predicate: an estimate whose error is at
    least ``bar`` is hopeless."""
    return lambda x: float(np.linalg.norm(x - truth)) >= bar


def _screen_rejects(k, problem, levels, cfg, x0, hopeless) -> bool:
    """Whether coarse solves down ``levels`` (TuningParams), each warm-started
    at the last from ``x0``, all end ``hopeless``; stops at the first that
    does not."""
    for tp in levels:
        x0 = _solve(k, problem, tp, cfg, x0).estimate
        if not hopeless(x0):
            return False
    return True


def run_trial(spec: SweepSpec, cell_index: int, trial_index: int) -> ExperimentRecord:
    """Generate, tune, solve, and score one trial. Deterministic.

    The lambda_star path (one lambda outside grid_oracle) is solved from the
    largest lambda down, each solve warm-started at the last, and the first
    strict error minimum is kept. From the second lambda on, each solve
    carries a checkpoint at the first step that passes the stop test at
    ``max(rel_tol, SCREEN_REL_TOL)``: if its error there is at least the bar,
    (1 + SCREEN_MARGIN) times the best so far, the solve is abandoned
    (``stop == "abandoned"``). Its estimate starts one screening chain
    that solves the rest of the path to the checkpoint tolerance. If every
    screened error is at or above the bar, the path stops; otherwise the
    abandoned lambda is solved again in full from the same warm start and
    the path goes on without checkpoints. A solve its checkpoint lets
    through is bit for bit the full path's, so the record equals the full
    path's whenever each coarse error, at a checkpoint or on the chain, is
    below (1 + SCREEN_MARGIN) times the full-tolerance error at its lambda.
    """
    n, dims, s, o, noise_d, adv_d = spec.cells()[cell_index]
    noise = NoiseSpec(**noise_d)  # an entry holds NoiseSpec fields only (_ENTRY_KEYS)
    master = _trial_master_seed(spec.base_seed, cell_index, trial_index)
    contamination = _contamination(o, adv_d, master)

    t_start = time.perf_counter()
    k = _kinds()[spec.problem_kind]
    problem = _draw(k, n, dims, s, noise, contamination, spec.spikiness_cap)
    truth = getattr(problem, _TRUTH[len(problem.param_shape)])
    dim1, dim2 = (*problem.param_shape, 0)[:2]
    # tuned from the problem's meta as solve tunes a bundle, o from the cell
    levels = _lambda_path(spec, k, n, dims, {**problem.meta, "o": o})
    cfg = SolverConfig(max_iters=spec.max_iters, rel_tol=spec.rel_tol)
    coarse = SolverConfig(spec.max_iters, max(spec.rel_tol, SCREEN_REL_TOL))

    best, x0, screen = None, None, True
    for i, tp in enumerate(levels):
        give_up = None
        if best is not None and screen:
            hopeless = _hopeless(truth, (1.0 + SCREEN_MARGIN) * best[0])
            give_up = (coarse.rel_tol, hopeless)
        res = _solve(k, problem, tp, cfg, x0, give_up)
        if res.stop == "abandoned":
            if _screen_rejects(k, problem, levels[i + 1:], coarse, res.estimate, hopeless):
                break
            screen = False
            res = _solve(k, problem, tp, cfg, x0)
        x0 = res.estimate
        err = float(np.linalg.norm(res.estimate - truth))
        if best is None or err < best[0]:
            best = (err, tp.lambda_star, res)
    _, lam_star, result = best

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
        lambda_o=float(levels[0].lambda_o), lambda_star=float(lam_star),
        iterations=result.iterations, converged=int(result.converged),
        error=metrics["error"], rel_error=metrics["rel_error"],
        weighted_error=metrics["error"], support_exact=int(exact),
        wall_time=wall,
    )


def _trial_args(spec, idx):
    return run_trial(spec, idx[0], idx[1])


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """All trials of all cells, ordered by (cell_index, trial_index).

    ``jobs`` > 1 fans trials out to at most one process per trial; seeding
    is per-trial, so the result list is identical for any jobs value. The
    process pool (``concurrent.futures.process``, ``multiprocessing``) is
    imported only then, when the sweep forks: importing the package or
    running any other command never loads it.
    """
    indices = [
        (ci, ti)
        for ci in range(len(spec.cells()))
        for ti in range(spec.trials_per_cell)
    ]
    if jobs <= 1:
        return [run_trial(spec, ci, ti) for ci, ti in indices]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
        records = list(pool.map(_trial_args, itertools.repeat(spec), indices))
    return records


def _median(values) -> float:
    """``np.median`` of a nonempty list, to the bit: the middle of the sorted
    floats, ``(a + b) / 2`` of the middle two for an even count, NaN if any
    value is NaN. ``np.median`` itself imports ``numpy.ma`` on first use,
    which the process and every sweep worker it forks would then hold."""
    v = sorted(map(float, values))
    if any(map(math.isnan, v)):
        return math.nan
    h = len(v) // 2
    return v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2


def fit_rate_slope(records, x_axis: str = "n", y: str = _SLOPE_COLUMNS[0]) -> SlopeFit:
    """OLS slope of log median error against log x over grouped records.

    ``x_axis`` is in ``_SLOPE_AXES`` ("o_frac" = o/n), ``y`` in ``_SLOPE_COLUMNS``.
    Groups records by the x value, takes the median of ``y`` per group
    (``_median``, equal to ``np.median`` without loading ``numpy.ma``), and
    regresses log median on log x. Needs at least three distinct x values
    and positive medians.
    """
    for name, value, choices in (("x_axis", x_axis, _SLOPE_AXES), ("y", y, _SLOPE_COLUMNS)):
        *most, last = map(repr, choices)
        _require(value in choices, f"{name} must be {', '.join(most)} or {last}, got {value!r}")
    groups = {}
    for rec in records:
        xv = rec.n if x_axis == "n" else rec.o / rec.n
        groups.setdefault(xv, []).append(getattr(rec, y))
    _require(len(groups) >= 3, f"need >= 3 distinct {x_axis} values, got {len(groups)}")
    xs = np.array(sorted(groups))
    med = np.array([_median(groups[x]) for x in xs])
    _require(not ((xs <= 0).any() or (med <= 0).any()),
             "log-log fit needs positive x and positive medians")
    lx, ly = np.log(xs), np.log(med)
    lxc = lx - lx.mean()
    sxx = float(np.dot(lxc, lxc))
    slope = float(np.dot(lxc, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = float(np.sqrt(np.dot(resid, resid) / (len(xs) - 2) / sxx))
    return SlopeFit(slope, intercept, stderr, len(xs))


def write_results(records, path, include_timing: bool = False) -> None:
    """Write records as CSV with a stable column order and 17-digit floats.

    Byte-identical across reruns with the same records; the volatile
    wall_time column is only written when include_timing is True.
    """
    cols = RESULT_COLUMNS + (["wall_time"] if include_timing else [])
    rows = (",".join(_fmt(getattr(rec, c)) for c in cols) for rec in records)
    _write_lines(path, itertools.chain([",".join(cols)], rows))


def read_results(path) -> list:
    """Inverse of write_results (wall_time restored when present).

    Raises ProblemValidationError naming the file and the 1-based line for
    an unknown or missing header column, a row whose length differs from
    the header's, and a token that does not parse as its column's type, and
    naming the file when it has no header line.
    """
    def columns(header):
        bad = [f"unknown column {c!r}" for c in header if c not in _PARSE] + [
            f"missing column {c!r}" for c in RESULT_COLUMNS if c not in header]
        if bad:
            raise ValueError(", ".join(bad))
        return lambda row: ExperimentRecord(**{c: _PARSE[c](raw) for c, raw in zip(header, row)})

    return _scan_csv(path, None, columns)[1]
