"""Self-test of the benchmark, at minimal run length.

    python3 -m pytest bench/test_bench.py -q

Each workload, untraced and traced, must print every metric the benchmark
was specified to report, with its unit, put every metric BENCHMARK.json
declares in its JSON line, and pass its own checks. A perturbed frozen
reference must be reported as a failure at the reference seed and at any
other, a hooked function that stopped being called must be reported as
absent, and a checkout without the package sources must be refused.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
WORKLOADS = ("lasso_oracle", "matrix_cs_oracle", "completion_oracle", "cli_session")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

# The metrics the benchmark was specified to report. The report prints all of
# them; those whose run-to-run spread does not fit a bound are not declared in
# BENCHMARK.json (see README.md).
END_TO_END = {"setup_s", "trials_per_s", "trial_ms_p50", "trial_ms_tail", "fits_per_s",
              "fit_ms_p50", "fit_ms_tail", "error_median", "failed_frac", "peak_rss_mb"}
PER_LAYER = {
    "solvers.solve.calls", "solvers.solve.ms_p50", "solvers.solve.self_ms",
    "solvers.iters_per_solve", "solvers.converged_frac", "solvers.prox_per_iter",
    "problems.design_apply.calls", "problems.design_apply.self_ms",
    "problems.design_adjoint.calls", "problems.design_adjoint.self_ms",
    "problems.design_apply.per_iter", "problems.design_adjoint.per_iter",
    "problems.design.gb_computed",
    *(f"penalties.{op}.{m}" for op in ("soft_threshold", "singular_value_threshold",
                                        "nuclear_norm", "project_inf_ball")
      for m in ("calls", "self_ms")),
    "penalties.svd_per_iter",
    "datagen.gen_problem.self_ms", "datagen.gen_low_rank.self_ms",
    "datagen.gen_low_rank.draws_per_call",
    "diagnostics.tuning.self_ms", "diagnostics.error_metrics.self_ms",
    "experiments.trial.self_ms", "experiments.pool.busy_frac",
    "experiments.results_io.ms", "experiments.fit_rate_slope.ms",
    "bundles.write.self_ms", "bundles.read.self_ms", "bundles.bytes_written",
    "cli.generate.self_ms", "cli.solve.self_ms", "cli.sweep.self_ms", "cli.slope.self_ms",
    "trace.overhead_ms",
}


def run_bench(workload, trace, *extra, seed=0, cwd=ROOT):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_reference(name, change):
    """A copy of reference.json with ``change`` applied; returns its path."""
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    change(reference)
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    return path


def test_declared_metrics_are_specified_ones():
    assert {m["name"] for m in DECLARED["end_to_end"]} <= END_TO_END
    assert {m["name"] for m in DECLARED["per_layer"]} <= PER_LAYER | {
        "trace.pass_ms", "trace.overhead_frac",
        *(f"layer.{name}.share" for name in ("problems", "penalties", "solvers", "datagen",
                                             "diagnostics", "experiments", "bundles", "cli",
                                             "untraced"))}
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value, m["name"]
        if not trace:
            assert value > 0, m["name"]
    for name in PER_LAYER if trace else END_TO_END:
        assert re.search(rf"^{re.escape(name)} = \S+ \S+", proc.stdout, re.M), name
    for m in declared:
        line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}(\s|$)"
        assert re.search(line, proc.stdout, re.M), m["name"]
    if trace and workload != "cli_session":
        # no sweep runs here, so the pool's busy share has no base
        assert re.search(r"^experiments\.pool\.busy_frac = absent ratio", proc.stdout, re.M)
    assert re.search(r"^failed_frac = 0 ratio", proc.stdout, re.M)
    assert re.search(r"^# env nproc=\d+ python=\S+ numpy=\S+ blas=", proc.stdout, re.M)


@pytest.mark.parametrize("seed, failed", [(0, 2), (1, 1)])
def test_perturbed_reference_is_a_failure(seed, failed):
    def perturb(reference):
        reference["workloads"]["completion_oracle"]["trial.0"]["error"] *= 1.5

    path = write_reference("perturbed-reference.json", perturb)
    try:
        proc = run_bench("completion_oracle", 0, "--reference", path, seed=seed)
    finally:
        os.remove(path)
    assert proc.returncode != 0
    result = last_json(proc)
    # the warm-up is the reference seed's trial 0 at every seed; the fixed
    # set's trial.0 is compared only at the reference seed
    assert result["correct"] is False and result["failed"] == failed
    assert "warmup" in proc.stderr and "drifted from reference" in proc.stderr


def test_hook_no_longer_called_is_absent():
    def expect_design_calls(reference):
        reference["called"]["lasso_oracle"].append("problems.design_apply")

    path = write_reference("called-reference.json", expect_design_calls)
    try:
        proc = run_bench("lasso_oracle", 1, "--reference", path)
    finally:
        os.remove(path)
    assert proc.returncode == 0, proc.stderr
    assert "# absent: problems.design_apply (hooked, but no longer called)" in proc.stdout
    metrics = last_json(proc)["metrics"]
    for name in ("calls", "self_ms", "per_iter"):
        assert metrics[f"problems.design_apply.{name}"] == {
            "value": None, "unit": metrics[f"problems.design_apply.{name}"]["unit"],
            "absent": True}


def test_refuses_a_checkout_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in ("run.py", "tracing.py", "reference.json"):
        shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    try:
        proc = run_bench("lasso_oracle", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
