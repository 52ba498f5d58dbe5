"""In-memory spans around calls into huberreg's public functions.

The benchmark measures each layer from outside the program. It replaces the
module attribute that a caller looks up at call time (for example
``huberreg.solvers.singular_value_threshold``, which the completion prox looks
up on every call) with a wrapper that records a span, and puts the original
back afterwards. Nothing in the package changes.

A span is (name, start, end, parent span, trial id). Self time is a span's
duration minus the time its direct child spans cover. Spans inside forked
worker processes stay in those processes and are not seen here.
"""

from __future__ import annotations

import importlib
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("problems", "penalties", "solvers", "datagen", "diagnostics",
          "experiments", "bundles", "cli")

_SOLVERS = ("solve_adversarial_lasso", "solve_matrix_cs", "solve_matrix_completion")
_TUNING = ("tuning_lasso", "tuning_matrix_cs", "tuning_completion")
_GENERATORS = (("gen_problem", "datagen.gen_problem"),
               ("gen_low_rank", "datagen.gen_low_rank"),
               ("gen_sparse_beta", "datagen.gen_sparse_beta"))

# (caller's module, attribute it looks up, span name). Solver calls are always
# hooked: the benchmark checks every SolverResult and times every solve.
SOLVE_HOOKS = tuple(
    (mod, fn, "solvers.solve")
    for mod in ("huberreg.experiments", "huberreg.cli") for fn in _SOLVERS
)

LAYER_HOOKS = (
    ("huberreg.solvers", "design_apply", "problems.design_apply"),
    ("huberreg.solvers", "design_adjoint", "problems.design_adjoint"),
    ("huberreg.solvers", "soft_threshold", "penalties.soft_threshold"),
    ("huberreg.solvers", "singular_value_threshold", "penalties.singular_value_threshold"),
    ("huberreg.solvers", "nuclear_norm", "penalties.nuclear_norm"),
    ("huberreg.solvers", "project_inf_ball", "penalties.project_inf_ball"),
    *((mod, fn, span) for mod in ("huberreg.experiments", "huberreg.cli")
      for fn, span in _GENERATORS),
    *((mod, fn, "diagnostics.tuning") for mod in ("huberreg.experiments", "huberreg.cli")
      for fn in _TUNING),
    ("huberreg.experiments", "error_metrics", "diagnostics.error_metrics"),
    ("huberreg.experiments", "run_trial", "experiments.trial"),
    ("huberreg.cli", "run_sweep", "experiments.sweep"),
    ("huberreg.cli", "write_results", "experiments.results_io"),
    ("huberreg.cli", "read_results", "experiments.results_io"),
    ("huberreg.cli", "fit_rate_slope", "experiments.fit_rate_slope"),
    ("huberreg.cli", "write_problem_bundle", "bundles.write"),
    ("huberreg.cli", "read_problem_bundle", "bundles.read"),
    ("huberreg.cli", "cmd_generate", "cli.generate"),
    ("huberreg.cli", "cmd_solve", "cli.solve"),
    ("huberreg.cli", "cmd_sweep", "cli.sweep"),
    ("huberreg.cli", "cmd_slope", "cli.slope"),
)

# Counted, not timed: a span here would take the rejection loop's own time
# out of gen_low_rank's self time.
COUNT_HOOKS = (("huberreg.datagen", "spikiness", "datagen.spikiness"),)


def _solve_info(args, kwargs, out):
    return args[1], out  # TuningParams, SolverResult


def _design_bytes(args, kwargs, out):
    problem = args[0]
    if problem.is_mask:
        return 0
    d1, d2 = problem.dims
    return problem.n * d1 * d2 * 8


def _bundle_bytes(args, kwargs, out):
    out_dir = args[1]
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


def _sweep_info(args, kwargs, out):
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return max(1, int(jobs)), sum(rec.wall_time for rec in out)


_INFO = {
    "solvers.solve": _solve_info,
    "problems.design_apply": _design_bytes,
    "problems.design_adjoint": _design_bytes,
    "bundles.write": _bundle_bytes,
    "experiments.sweep": _sweep_info,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: str | None
    info: object = None


class Recorder:
    """Keeps spans and call counts in memory; ``trial`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.trial: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def _timed(self, name, fn):
        info = _INFO.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def hooked(self, timed=SOLVE_HOOKS, counted=()):
        """Install wrappers for the given hooks and restore them on exit.

        A hook whose attribute no longer exists is listed in ``absent`` and
        its metrics are reported as absent rather than as zero.
        """
        saved = []
        self.absent = []
        try:
            for hooks, make in ((timed, self._timed), (counted, self._counted)):
                for mod_name, attr, name in hooks:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.absent.append(f"{mod_name}.{attr}")
                        continue
                    setattr(mod, attr, make(name, fn))
                    saved.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def absent_names(self, hooks) -> set:
        """Span names none of whose hooks could be installed."""
        by_name = {}
        for mod_name, attr, name in hooks:
            by_name.setdefault(name, []).append(f"{mod_name}.{attr}" in self.absent)
        return {name for name, missing in by_name.items() if all(missing)}


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


class Ratio:
    """A ratio kept together with its numerator and base."""

    __slots__ = ("num", "base", "num_label", "base_label")

    def __init__(self, num, base, num_label, base_label):
        self.num, self.base = num, base
        self.num_label, self.base_label = num_label, base_label

    @property
    def value(self) -> float | None:
        """None, reported as absent, when the base is 0: the ratio does not apply."""
        return self.num / self.base if self.base else None

    def __str__(self) -> str:
        return f"{self.num:.6g} {self.num_label} / {self.base:.6g} {self.base_label}"


def layer_metrics(spans: list[Span], counts: dict, share_trials: str, share_base_s: float):
    """Per-layer metrics of one traced pass.

    Returns ``{name: value or Ratio}``. Times are totals over the pass in
    ms. ``share_trials`` is the trial-id prefix whose spans the layer shares
    are taken over, and ``share_base_s`` the wall time of those trials.
    """
    selfs = self_times(spans)
    by = {}
    for s, st in zip(spans, selfs):
        by.setdefault(s.name, []).append((s, st))

    def calls(name):
        return len(by.get(name, ()))

    def self_ms(name):
        return 1e3 * sum(st for _, st in by.get(name, ()))

    def total_ms(name):
        return 1e3 * sum(s.end - s.start for s, _ in by.get(name, ()))

    solves = [s.info[1] for s, _ in by.get("solvers.solve", ()) if s.info is not None]
    iters = sum(r.iterations for r in solves)
    prox = calls("penalties.soft_threshold") + calls("penalties.singular_value_threshold")
    svd = calls("penalties.singular_value_threshold") + calls("penalties.nuclear_norm")
    dense_bytes = sum(s.info for name in ("problems.design_apply", "problems.design_adjoint")
                      for s, _ in by.get(name, ()))
    sweeps = [s for s, _ in by.get("experiments.sweep", ())]

    m = {
        "solvers.solve.calls": calls("solvers.solve"),
        "solvers.solve.ms_p50": 1e3 * statistics.median(
            [s.end - s.start for s, _ in by["solvers.solve"]]) if "solvers.solve" in by else None,
        "solvers.solve.self_ms": self_ms("solvers.solve"),
        "solvers.iters_per_solve": Ratio(iters, len(solves), "iterations", "solves"),
        "solvers.converged_frac": Ratio(sum(r.converged for r in solves), len(solves),
                                        "converged", "solves"),
        "solvers.prox_per_iter": Ratio(prox, iters, "prox calls", "iterations"),
        "problems.design.gb_computed": dense_bytes / 1e9,
        "penalties.svd_per_iter": Ratio(svd, iters, "SVDs", "iterations"),
        "datagen.gen_problem.self_ms": self_ms("datagen.gen_problem"),
        "datagen.gen_low_rank.self_ms": self_ms("datagen.gen_low_rank"),
        "datagen.gen_low_rank.draws_per_call": Ratio(
            counts.get("datagen.spikiness", 0), calls("datagen.gen_low_rank"),
            "spikiness calls", "gen_low_rank calls"),
        "diagnostics.tuning.self_ms": self_ms("diagnostics.tuning"),
        "diagnostics.error_metrics.self_ms": self_ms("diagnostics.error_metrics"),
        "experiments.trial.self_ms": self_ms("experiments.trial"),
        "experiments.pool.busy_frac": Ratio(
            sum(s.info[1] for s in sweeps), sum(s.info[0] * (s.end - s.start) for s in sweeps),
            "s in trials", "jobs x s of sweep wall"),
        "experiments.results_io.ms": total_ms("experiments.results_io"),
        "experiments.fit_rate_slope.ms": total_ms("experiments.fit_rate_slope"),
        "bundles.write.self_ms": self_ms("bundles.write"),
        "bundles.read.self_ms": self_ms("bundles.read"),
        "bundles.bytes_written": sum(s.info for s, _ in by.get("bundles.write", ())),
    }
    for op in ("design_apply", "design_adjoint"):
        name = f"problems.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
        m[f"{name}.per_iter"] = Ratio(calls(name), iters, "calls", "iterations")
    for op in ("soft_threshold", "singular_value_threshold", "nuclear_norm", "project_inf_ball"):
        m[f"penalties.{op}.calls"] = calls(f"penalties.{op}")
        m[f"penalties.{op}.self_ms"] = self_ms(f"penalties.{op}")
    for cmd in ("generate", "solve", "sweep", "slope"):
        m[f"cli.{cmd}.self_ms"] = self_ms(f"cli.{cmd}")

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        if s.trial is not None and s.trial.startswith(share_trials):
            layer_s[s.name.split(".", 1)[0]] += st
    for layer, sec in layer_s.items():
        m[f"layer.{layer}.share"] = Ratio(1e3 * sec, 1e3 * share_base_s,
                                          f"ms {layer} self", "ms traced wall")
    m["layer.untraced.share"] = Ratio(1e3 * (share_base_s - sum(layer_s.values())),
                                      1e3 * share_base_s, "ms outside spans", "ms traced wall")
    return m


# Metrics built from more spans than the one their name starts with.
_DEPS = {
    "solvers.iters_per_solve": ("solvers.solve",),
    "solvers.converged_frac": ("solvers.solve",),
    "solvers.prox_per_iter": ("solvers.solve", "penalties.soft_threshold",
                              "penalties.singular_value_threshold"),
    "penalties.svd_per_iter": ("penalties.singular_value_threshold", "penalties.nuclear_norm"),
    "problems.design.gb_computed": ("problems.design_apply", "problems.design_adjoint"),
    "datagen.gen_low_rank.draws_per_call": ("datagen.gen_low_rank", "datagen.spikiness"),
    "experiments.pool.busy_frac": ("experiments.sweep",),
    "bundles.bytes_written": ("bundles.write",),
}


def absent_metrics(metrics, missing: set) -> list:
    """Metrics built from a span name that could not be hooked."""
    return [name for name in metrics
            if any(d in missing for d in _DEPS.get(name, ()))
            or any(name.startswith(d + ".") for d in missing)]

