#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the huberreg package.

Run from the root of a checkout:

    python3 bench/run.py --workload lasso_oracle --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout and nothing is
installed. ``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the workload's fixed trace set in
alternating untraced and traced passes and prints the per-layer metrics and
the tracing overhead. Both modes check every output they see (see
``README.md``); any failed check makes the command exit with status 1. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402  (lives next to this file)

# matrix_cs_oracle and completion_oracle run by hand only; BENCHMARK.json does
# not gate them (see README.md).
WORKLOADS = ("lasso_oracle", "matrix_cs_oracle", "completion_oracle", "cli_session")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
TAIL_BEYOND = 10
MONOTONE_TOL = 1e-12  # per-step slack promised by SolverResult.objective_trace
BOX_TOL = 1e-12

# Oracle workloads: the first FIXED_TRIALS trials of a seed give error_median
# and are compared with the frozen reference; the first TRACE_TRIALS of them
# form one trace pass. The fixed set is large so that error_median moves little
# from seed to seed and its bound can be tight.
FIXED_TRIALS = {"lasso_oracle": 96, "matrix_cs_oracle": 96, "completion_oracle": 192}
TRACE_TRIALS = {"lasso_oracle": 24, "matrix_cs_oracle": 24, "completion_oracle": 48}
_ORACLE = {  # problem_kind, n, dims, rank or sparsity
    "lasso_oracle": ("lasso", 2000, 500, 10),
    "matrix_cs_oracle": ("matrix_cs", 2000, (20, 20), 2),
    "completion_oracle": ("completion", 4000, (20, 20), 2),
}

# cli_session: fit step j generates both bundles with seed seed*FIT_SEEDS + j%FIT_SEEDS.
# The first FIT_SEEDS fit steps are the fixed set, the first TRACE_FITS of them
# and one sweep form one trace pass.
FIT_SEEDS = 64
TRACE_FITS = 16
MIN_SWEEPS = 3

# Units of the metrics printed in the report but not declared in BENCHMARK.json
# (see README.md); the declared ones take their unit from that file.
REPORT_ONLY_UNITS = {
    "trial_ms_tail": "ms", "fits_per_s": "fits/s", "fit_ms_p50": "ms", "fit_ms_tail": "ms",
    "failed_frac": "ratio",
    "experiments.pool.busy_frac": "ratio", "datagen.gen_low_rank.draws_per_call": "draws/call",
}


def oracle_spec(workload: str, seed: int):
    from huberreg.experiments import SweepSpec

    kind, n, dims, s = _ORACLE[workload]
    return SweepSpec(
        problem_kind=kind, n_grid=(n,), d_grid=(dims,), s_grid=(s,), o_grid=(100,),
        noise_grid=({"kind": "gaussian", "sigma": 0.1},),
        adversary_grid=({"strategy": "random_large", "magnitude": 10.0},),
        base_seed=seed, tuning_mode="grid_oracle", spikiness_cap=3.0,
    )


def sweep_config(seed: int) -> dict:
    """The README's sweep config, seeded by the workload seed."""
    return {
        "problem_kind": "lasso", "n_grid": [200, 400, 800, 1600], "d_grid": [100],
        "s_grid": [5], "o_grid": [0],
        "noise_grid": [{"kind": "gaussian", "sigma": 0.1}],
        "adversary_grid": [{"strategy": "none", "magnitude": 0.0}],
        "trials_per_cell": 20, "base_seed": seed, "tuning_mode": "grid_oracle",
    }


def generate_argv(kind: str, seed: int, out: str) -> list:
    common = ["--sigma", "0.1", "--adversary", "random_large", "--magnitude", "10",
              "--seed", str(seed), "--out", out]
    if kind == "lasso":  # the README's bundle
        return ["generate", "--kind", "lasso", "--n", "500", "--d", "100", "--s", "5",
                "--o", "25", *common]
    return ["generate", "--kind", "completion", "--n", "4000", "--d1", "20", "--d2", "20",
            "--rank", "2", "--o", "100", *common]


def nproc() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n, beyond)."""
    xs = sorted(samples)
    k = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs), len(xs) - 1 - k


class Session:
    """One benchmark process: checks outputs and counts operations."""

    def __init__(self, workload, seed, workdir, reference):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.recorder = tracing.Recorder()
        self.attempted = 0
        self.failed = 0
        self.observed = {}  # op id -> deterministic columns of the fixed set
        self.ref = reference["workloads"].get(workload, {})
        self.ref_seed = reference["seed"]
        self.tolerance = reference["tolerance"]
        # span and count names the reference's traced run saw called
        self.called = reference.get("called", {}).get(workload, [])
        import huberreg.cli
        import huberreg.experiments
        self.cli, self.E = huberreg.cli, huberreg.experiments
        self.spec = oracle_spec(workload, seed) if workload in _ORACLE else None
        self.sweep_cfg = os.path.join(workdir, "sweep.json")
        if self.spec is None:
            with open(self.sweep_cfg, "w", encoding="utf-8") as fh:
                json.dump(sweep_config(seed), fh)

    # -- checks -------------------------------------------------------------
    def _solve_problems(self, spans) -> list:
        import numpy as np

        msgs = []
        for s in spans:
            if s.name != "solvers.solve":
                continue
            tp, res = s.info
            if not np.all(np.isfinite(res.estimate)):
                msgs.append("estimate is not finite")
            rise = np.diff(res.objective_trace)
            if rise.size and rise.max() > MONOTONE_TOL:
                msgs.append(f"objective trace rose by {rise.max():.3g}")
            if tp.inf_ball_radius is not None:
                excess = np.abs(res.estimate).max() - tp.inf_ball_radius
                if excess > BOX_TOL * max(1.0, tp.inf_ball_radius):
                    msgs.append(f"completion estimate left the box by {excess:.3g}")
        return msgs

    def _drift(self, ref_key, cols) -> list:
        if ref_key not in self.ref:
            return []
        msgs = []
        for col, want in self.ref[ref_key].items():
            got = cols.get(col)
            tol = self.tolerance[col.rsplit(".", 1)[-1]]
            allowed = tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(want)
            if got is None or not abs(got - want) <= allowed:
                msgs.append(f"{col}={got!r} drifted from reference {want!r} (allowed {allowed:.3g})")
        return msgs

    def attempt(self, op_id, fn, fixed=False, ref_key=None):
        """Run one operation; returns its result, or None if it failed.

        A ``fixed`` operation belongs to the seed's fixed set: its columns are
        kept, and at the reference seed compared with the reference entry of
        the same id. ``ref_key`` names a reference entry to compare with at
        any seed.
        """
        self.attempted += 1
        mark = len(self.recorder.spans)
        self.recorder.trial = op_id
        try:
            out, cols, msgs = fn()
            msgs = msgs + self._solve_problems(self.recorder.spans[mark:])
            if fixed:
                self.observed[op_id] = cols
                if self.seed == self.ref_seed:
                    ref_key = op_id
            if ref_key is not None:
                msgs += self._drift(ref_key, cols)
        except Exception:
            out, msgs = None, ["raised:\n" + traceback.format_exc()]
        finally:
            self.recorder.trial = None
        if msgs:
            self.failed += 1
            print(f"FAILED {self.workload} seed={self.seed} {op_id}: " + "; ".join(msgs),
                  file=sys.stderr)
            return None
        return out

    # -- operations ---------------------------------------------------------
    def trial(self, i, spec=None):
        spec = spec or self.spec

        def op():
            t0 = perf_counter()
            rec = self.E.run_trial(spec, 0, i)
            wall = perf_counter() - t0
            cols = {c: getattr(rec, c) for c in ("lambda_o", "error", "rel_error", "weighted_error")}
            msgs = [] if all(map(_finite, cols.values())) else ["record has a non-finite column"]
            return (wall, rec.error), cols, msgs
        return op

    def _cli(self, argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def fit_step(self, j):
        bundle_seed = self.seed * FIT_SEEDS + j % FIT_SEEDS
        return self._fit_step(bundle_seed)

    def _fit_step(self, bundle_seed):
        def op():
            codes = []
            t0 = perf_counter()
            for kind in ("lasso", "completion"):
                bundle = os.path.join(self.workdir, f"{kind}_bundle")
                fit = os.path.join(self.workdir, f"{kind}_fit")
                codes.append(self._cli(generate_argv(kind, bundle_seed, bundle))[0])
                codes.append(self._cli(["solve", "--bundle", bundle, "--out", fit])[0])
            wall = perf_counter() - t0
            cols = {}
            solves = [s for s in self.recorder.spans if s.trial == self.recorder.trial
                      and s.name == "solvers.solve"]
            for kind, s in zip(("lasso", "completion"), solves):
                tp, res = s.info
                cols[f"{kind}.lambda_o"] = tp.lambda_o
                cols[f"{kind}.lambda_star"] = tp.lambda_star
                cols[f"{kind}.objective"] = float(res.objective_trace[-1])
                cols[f"{kind}.error"] = _read_fit_error(self.workdir, kind)
            msgs = [f"CLI exit codes {codes}"] if any(codes) else []
            if not all(map(_finite, cols.values())):
                msgs.append("fit output is not finite")
            return (wall, cols.get("lasso.error")), cols, msgs
        return op

    def sweep(self):
        def op():
            results = os.path.join(self.workdir, "results.csv")
            t0 = perf_counter()
            code = self._cli(["sweep", "--config", self.sweep_cfg, "--out", results,
                              "--jobs", str(nproc()), "--include-timing"])[0]
            wall = perf_counter() - t0
            slope_code, text = self._cli(["slope", "--results", results, "--x", "n"])
            msgs = [f"CLI exit codes {[code, slope_code]}"] if code or slope_code else []
            with open(results, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            cols = {f"c{r['cell_index']}t{r['trial_index']}.{c}": float(r[c])
                    for r in rows for c in ("lambda_o", "error", "rel_error", "weighted_error")}
            kv = dict(ln.split("=", 1) for ln in text.split())
            cols["slope"] = float(kv.get("slope", "nan"))
            if not all(map(_finite, cols.values())):
                msgs.append("sweep record or slope is not finite")
            return (wall, [float(r["wall_time"]) for r in rows]), cols, msgs
        return op

    def warm_up(self):
        """One untimed trial or fit step, as every process pays it once.

        It is the reference seed's first trial or fit step, whatever the
        workload seed, so every run compares one operation with the frozen
        reference. Its checks count like those of any other operation.
        """
        if self.spec is not None:
            op, key = self.trial(0, oracle_spec(self.workload, self.ref_seed)), "trial.0"
        else:
            op, key = self._fit_step(self.ref_seed * FIT_SEEDS), "fit.0"
        with self.recorder.hooked():
            self.attempt("warmup", op, ref_key=key)
        if not self.recorder.spans:
            raise RuntimeError("no solver call was seen, so no output can be checked")
        self.recorder.reset()


def _finite(v) -> bool:
    return v == v and v not in (float("inf"), float("-inf"))


def _read_fit_error(workdir, kind) -> float:
    """|estimate - truth| from the files generate and solve wrote."""
    import numpy as np

    truth = "beta_true.csv" if kind == "lasso" else "B_true.csv"
    est = np.loadtxt(os.path.join(workdir, f"{kind}_fit", "estimate.csv"), delimiter=",", ndmin=2)
    ref = np.loadtxt(os.path.join(workdir, f"{kind}_bundle", truth), delimiter=",", ndmin=2)
    return float(np.linalg.norm(est.reshape(ref.shape) - ref))


# -- end-to-end run ---------------------------------------------------------

def measure_setup(workload, seed, reference_path) -> list:
    """Wall time from process start to the end of the warm-up, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--reference", reference_path, "--setup-probe"]
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


def run_untraced(sess: Session, seconds: float) -> dict:
    rec = sess.recorder
    trial_walls, fit_walls, errors, sweeps_per_s = [], [], [], []
    t0 = perf_counter()
    with rec.hooked():
        if sess.spec is not None:
            fixed, i = FIXED_TRIALS[sess.workload], 0
            while i < fixed or perf_counter() - t0 < seconds:
                out = sess.attempt(f"trial.{i}", sess.trial(i), fixed=i < fixed)
                if out is not None:
                    trial_walls.append(out[0])
                    if i < fixed:
                        errors.append(out[1])
                    fit_walls.append(sum(s.end - s.start for s in rec.spans))
                rec.reset()
                i += 1
        else:
            # Fit steps and sweeps alternate so that each gets half of the
            # time and both are spread over the whole run: the machine's
            # speed drifts over tens of seconds, and a metric measured in one
            # half of the run would see only part of that drift.
            j = r = 0
            fit_s = sweep_s = 0.0
            while j < FIT_SEEDS or r < MIN_SWEEPS or perf_counter() - t0 < seconds:
                if perf_counter() - t0 < seconds:
                    do_fit = fit_s <= sweep_s
                else:
                    do_fit = j < FIT_SEEDS
                if do_fit:
                    out = sess.attempt(f"fit.{j}", sess.fit_step(j), fixed=j < FIT_SEEDS)
                    if out is not None:
                        fit_walls.append(out[0])
                        fit_s += out[0]
                        if j < FIT_SEEDS:
                            errors.append(out[1])
                    j += 1
                else:
                    out = sess.attempt(f"sweep.{r}", sess.sweep(), fixed=r == 0)
                    if out is not None:
                        wall, walls = out
                        sweeps_per_s.append(len(walls) / wall)
                        sweep_s += wall
                        trial_walls += walls
                    r += 1
                rec.reset()
    elapsed = perf_counter() - t0
    if not (trial_walls and fit_walls and errors):
        raise SystemExit(f"error: no result to report, {sess.failed} of {sess.attempted} "
                         "operations failed")
    m = {}
    if sess.spec is not None:
        m["trials_per_s"] = (len(trial_walls) / elapsed, f"{len(trial_walls)} trials / {elapsed:.3f} s")
    else:
        m["trials_per_s"] = (statistics.median(sweeps_per_s),
                             f"median of {len(sweeps_per_s)} sweeps at --jobs {nproc()}")
    m["fits_per_s"] = (len(fit_walls) / sum(fit_walls),
                       f"{len(fit_walls)} fits / {sum(fit_walls):.3f} s spent fitting")
    for key, walls in (("trial", trial_walls), ("fit", fit_walls)):
        ms = [1e3 * w for w in walls]
        m[f"{key}_ms_p50"] = (statistics.median(ms), f"{len(ms)} samples")
        value, pct, n, beyond = tail(ms)
        m[f"{key}_ms_tail"] = (value, f"p{pct:.1f}, {n} samples, {beyond} beyond")
    m["error_median"] = (statistics.median(errors), f"median of {len(errors)} fixed-set errors")
    return m


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# -- traced run -------------------------------------------------------------

def trace_pass(sess: Session, first: bool) -> tuple:
    """One pass over the workload's trace set; returns (pass wall s, share base s)."""
    t0 = perf_counter()
    base = 0.0
    if sess.spec is not None:
        for i in range(TRACE_TRIALS[sess.workload]):
            out = sess.attempt(f"trial.{i}", sess.trial(i), fixed=first)
            base += out[0] if out else 0.0
    else:
        for j in range(TRACE_FITS):
            out = sess.attempt(f"fit.{j}", sess.fit_step(j), fixed=first)
            base += out[0] if out else 0.0
        sess.attempt("sweep.0", sess.sweep(), fixed=first)
    return perf_counter() - t0, base


def run_traced(sess: Session, seconds: float) -> tuple:
    rec = sess.recorder
    hooks = tracing.SOLVE_HOOKS + tracing.LAYER_HOOKS
    plain, traced, per_pass = [], [], []
    seen = set()  # span and count names called in the traced passes
    t0 = perf_counter()
    k = 0
    # stop before a pass that would end after --seconds, once both kinds ran
    while not traced or perf_counter() - t0 + statistics.median(plain + traced) <= seconds:
        if k % 4 in (0, 3):  # untraced and traced passes in ABBA order
            with rec.hooked():
                plain.append(trace_pass(sess, first=not plain)[0])
        else:
            with rec.hooked(hooks, tracing.COUNT_HOOKS):
                wall, base = trace_pass(sess, first=False)
            traced.append(wall)
            share = "trial." if sess.spec is not None else "fit."
            per_pass.append(tracing.layer_metrics(rec.spans, rec.counts, share, base))
            seen |= {s.name for s in rec.spans} | set(rec.counts)
            spans, absent = rec.spans, rec.absent
            missing = rec.absent_names(hooks + tracing.COUNT_HOOKS)
        rec.reset()
        k += 1
    # A hook that still exists but is no longer called, where the reference
    # run called it, is absent too: its zero would read as a gain.
    uncalled = sorted(set(sess.called) - seen)
    absent = absent + [f"{name} (hooked, but no longer called)" for name in uncalled]
    m = {}
    for name in per_pass[0]:
        vals = [p[name] for p in per_pass]
        first = vals[0]
        if isinstance(first, tracing.Ratio):
            vals = [v.value for v in vals]
            note = str(first)
        else:
            note = ""
        m[name] = (None if None in vals else statistics.median(vals), note)
    for name in tracing.absent_metrics(m, missing | set(uncalled)):
        m[name] = (None, "")
    p_plain, p_traced = statistics.median(plain), statistics.median(traced)
    m["trace.pass_ms"] = (1e3 * p_plain, f"median of {len(plain)} untraced passes")
    m["trace.overhead_ms"] = (1e3 * (p_traced - p_plain),
                             f"traced {1e3 * p_traced:.1f} ms - untraced {1e3 * p_plain:.1f} ms")
    m["trace.overhead_frac"] = ((p_traced - p_plain) / p_plain,
                                "overhead ms / untraced pass ms")
    return m, spans, absent, sorted(seen)


# -- output -----------------------------------------------------------------

def report(workload, seed, trace, env, metrics, absent, units):
    print(f"# huberreg benchmark workload={workload} seed={seed} trace={trace}")
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items()) or "none set"
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} thread variables: {threads}")
    for name in absent:
        print(f"# absent: {name} (its metrics are reported as absent, not as zero)")
    for name, (value, note) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=os.path.join(BENCH, "reference.json"),
                   help="frozen deterministic outputs: the fixed set is checked at their "
                        "seed, the warm-up operation at every seed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "huberreg", "__init__.py")):
        print(f"error: no huberreg sources under {SRC}", file=sys.stderr)
        return 2
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    units.update(REPORT_ONLY_UNITS)

    sys.path.insert(0, SRC)
    import huberreg

    if not os.path.abspath(huberreg.__file__).startswith(SRC + os.sep):
        print(f"error: imported huberreg from {huberreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        sess = Session(args.workload, args.seed, workdir, reference)
        sess.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, spans, absent, called = run_traced(sess, args.seconds)
        else:
            metrics, spans, absent, called = run_untraced(sess, args.seconds), [], [], []
            # read before the setup probes start, so that the only children
            # counted are the program's own pool workers
            metrics["peak_rss_mb"] = (peak_rss_mb(), "getrusage self + largest child")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup = measure_setup(args.workload, args.seed, args.reference)
        metrics = {"setup_s": (statistics.median(setup), "median of process starts: "
                               + ", ".join(f"{t:.3f}" for t in setup)), **metrics}

    env = environment()
    metrics["failed_frac"] = (sess.failed / sess.attempted,
                              f"{sess.failed} failed / {sess.attempted} attempted")
    report(args.workload, args.seed, args.trace, env, metrics, absent, units)
    correct = sess.failed == 0

    out_dir = os.path.join(BENCH, ".out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": env, "correct": correct, "attempted": sess.attempted, "failed": sess.failed,
            "metrics": {k: {"value": v, "unit": units[k], "note": n} for k, (v, n) in metrics.items()},
            "absent": absent, "called": called, "observed": sess.observed,
            "spans": [[s.name, s.start, s.end, s.parent, s.trial] for s in spans],
        }, fh)

    result = {}
    for d in declared:
        value = metrics[d["name"]][0]
        result[d["name"]] = {"value": value, "unit": d["unit"]}
        if value is None:
            result[d["name"]]["absent"] = True
    print(json.dumps({"correct": correct, "attempted": sess.attempted,
                      "failed": sess.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
