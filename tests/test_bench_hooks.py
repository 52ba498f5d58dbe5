"""The benchmark's tracer still finds the calls it measures, and its
workload configs still build.

``bench/tracing.py`` wraps module attributes that the package looks up at
call time. It is imported here read-only: if a rename moves a call away from
the name the tracer hooks, its per-layer counts drop to zero or go absent,
and these tests fail first. ``bench/run.py`` is imported the same way, so a
``SweepSpec`` change that would break a workload's spec fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from huberreg.experiments import SweepSpec

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_RUN = _TRACING.with_name("run.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_bench_hook_is_installable(tracing):
    hooks = tracing.SOLVE_HOOKS + tracing.LAYER_HOOKS
    rec = tracing.Recorder()
    with rec.hooked(hooks, tracing.COUNT_HOOKS):
        pass
    assert rec.absent_names(hooks + tracing.COUNT_HOOKS) == set()


def _trial_spans(tracing, spec):
    """Span name -> count, and the design spans' byte counts, of one traced trial."""
    import huberreg.experiments as experiments

    rec = tracing.Recorder()
    with rec.hooked(tracing.SOLVE_HOOKS + tracing.LAYER_HOOKS):
        experiments.run_trial(spec, 0, 0)
    calls = {}
    for span in rec.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    return calls, {s.info for s in rec.spans if s.name.startswith("problems.design_")}


_ORACLE = dict(n_grid=(60,), s_grid=(2,), o_grid=(4,), oracle_multipliers=(0.3, 1.0),
               adversary_grid=({"strategy": "random_large", "magnitude": 5.0},))


def test_dense_trace_trial_records_design_spans(tracing):
    """The dense trace matvecs go through the hooked design names."""
    spec = SweepSpec(problem_kind="matrix_cs", d_grid=((5, 3),), **_ORACLE)
    calls, dense_bytes = _trial_spans(tracing, spec)
    assert calls["experiments.trial"] == 1 and calls["solvers.solve"] == 2
    assert calls.get("problems.design_apply", 0) > 0
    assert calls.get("problems.design_adjoint", 0) > 0
    assert dense_bytes == {60 * 5 * 3 * 8}


def test_lasso_trial_records_no_design_spans(tracing):
    """The lasso's matvecs stay off the hooked design names: the benchmark's
    self-test takes lasso_oracle as the workload that never calls them and
    checks that the tracer reports such a name as absent."""
    spec = SweepSpec(problem_kind="lasso", d_grid=(15,), **_ORACLE)
    calls, _ = _trial_spans(tracing, spec)
    assert calls["experiments.trial"] == 1 and calls["solvers.solve"] == 2
    assert "problems.design_apply" not in calls
    assert "problems.design_adjoint" not in calls


def test_cli_fit_records_command_and_bundle_spans(tracing, tmp_path, capsys):
    """``cli.main`` builds its parser on every call, so the subcommand functions
    it dispatches to are the hooked ``huberreg.cli.cmd_*`` attributes."""
    from huberreg import cli

    bundle, fit = str(tmp_path / "b"), str(tmp_path / "f")
    generate = ["generate", "--kind", "lasso", "--n", "40", "--d", "8", "--s", "2",
                "--sigma", "0.1", "--out", bundle]
    # a first call before hooking: a parser kept from it would dispatch to the
    # unhooked functions
    assert cli.main(generate) == 0
    rec = tracing.Recorder()
    with rec.hooked(tracing.SOLVE_HOOKS + tracing.LAYER_HOOKS):
        assert cli.main(generate) == 0
        assert cli.main(["solve", "--bundle", bundle, "--out", fit]) == 0
    capsys.readouterr()
    names = {span.name for span in rec.spans}
    for name in ("cli.generate", "cli.solve", "bundles.write", "bundles.read", "solvers.solve"):
        assert name in names


def test_every_bench_workload_spec_builds(tracing, monkeypatch):
    # run.py imports tracing.py, the file beside it, as ``tracing``: it gets
    # the copy loaded above
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec = importlib.util.spec_from_file_location("bench_run", _RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    oracles = [w for w in run.WORKLOADS if w != "cli_session"]
    assert len(oracles) == 3
    for workload in oracles:
        assert run.oracle_spec(workload, 0).problem_kind == workload.split("_oracle")[0]
    assert SweepSpec.from_dict(run.sweep_config(0)).trials_per_cell == 20
