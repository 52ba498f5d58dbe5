"""The benchmark's tracer still finds the calls it measures, and its
workload configs still build.

``bench/tracing.py`` wraps module attributes that the package looks up at
call time. It is imported here read-only: if a rename moves a call away from
the name the tracer hooks, its per-layer counts drop to zero or go absent,
and these tests fail first. ``bench/run.py`` is imported the same way, so a
``SweepSpec`` change that would break a workload's spec fails here too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from huberreg.experiments import SweepSpec

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_RUN = _TRACING.with_name("run.py")
_REFERENCE = _TRACING.with_name("reference.json")


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


def _oracle_miniature(kind):
    from huberreg import experiments

    dims = {"lasso": 15, "matrix_cs": (5, 3), "completion": (6, 6)}[kind]
    n = 200 if kind == "completion" else 60
    spec = SweepSpec(problem_kind=kind, d_grid=(dims,), spikiness_cap=3.0,
                     **{**_ORACLE, "n_grid": (n,)})
    experiments.run_trial(spec, 0, 0)


def _cli_miniature(tmp_path):
    from huberreg import cli

    for kind, size in (("lasso", ["--d", "10", "--s", "2"]),
                       ("completion", ["--d1", "6", "--d2", "6", "--rank", "1"])):
        bundle, fit = str(tmp_path / kind), str(tmp_path / f"{kind}_fit")
        assert cli.main(["generate", "--kind", kind, "--n", "200", *size, "--sigma", "0.1",
                         "--o", "4", "--adversary", "random_large", "--magnitude", "10",
                         "--out", bundle]) == 0
        assert cli.main(["solve", "--bundle", bundle, "--out", fit]) == 0
    config, results = tmp_path / "sweep.json", str(tmp_path / "results.csv")
    config.write_text(json.dumps({
        "problem_kind": "lasso", "n_grid": [40, 60, 80], "d_grid": [10], "s_grid": [2],
        "o_grid": [0], "noise_grid": [{"kind": "gaussian", "sigma": 0.1}],
        "adversary_grid": [{"strategy": "none", "magnitude": 0.0}],
        "trials_per_cell": 1, "tuning_mode": "grid_oracle"}), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--out", results]) == 0
    assert cli.main(["slope", "--results", results, "--x", "n"]) == 0


@pytest.mark.parametrize("workload", ["lasso_oracle", "matrix_cs_oracle", "completion_oracle",
                                      "cli_session"])
def test_every_called_name_is_seen_in_a_workload_miniature(tracing, tmp_path, capsys,
                                                           workload):
    """A miniature of each benchmark workload calls every span and count name
    that ``bench/reference.json`` lists as called for it. A name still hooked
    but no longer called makes ``bench/run.py --trace 1`` report its metrics
    as absent, so the traced run's last line is no longer a full result."""
    called = json.loads(_REFERENCE.read_text(encoding="utf-8"))["called"][workload]
    rec = tracing.Recorder()
    with rec.hooked(tracing.SOLVE_HOOKS + tracing.LAYER_HOOKS, tracing.COUNT_HOOKS):
        if workload == "cli_session":
            _cli_miniature(tmp_path)
        else:
            _oracle_miniature(workload.split("_oracle")[0])
    capsys.readouterr()
    seen = {span.name for span in rec.spans} | set(rec.counts)
    assert sorted(set(called) - seen) == []


def _run_module(tracing, monkeypatch):
    # run.py imports tracing.py, the file beside it, as ``tracing``: it gets
    # the copy loaded above
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec = importlib.util.spec_from_file_location("bench_run", _RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_bench_workload_spec_builds(tracing, monkeypatch):
    run = _run_module(tracing, monkeypatch)
    oracles = [w for w in run.WORKLOADS if w != "cli_session"]
    assert len(oracles) == 3
    for workload in oracles:
        assert run.oracle_spec(workload, 0).problem_kind == workload.split("_oracle")[0]
    assert SweepSpec.from_dict(run.sweep_config(0)).trials_per_cell == 20


def test_bench_fit_step_command_lines_exit_zero(tracing, monkeypatch, tmp_path, capsys):
    """cli_session's fit step runs ``generate_argv`` for both kinds and then
    ``solve --bundle`` through ``cli.main``; each exits 0, so no refusal of an
    option turns a fit step into a failed run."""
    from huberreg import cli

    run = _run_module(tracing, monkeypatch)
    for kind in ("lasso", "completion"):
        bundle, fit = str(tmp_path / kind), str(tmp_path / f"{kind}_fit")
        assert cli.main(run.generate_argv(kind, 0, bundle)) == 0
        assert cli.main(["solve", "--bundle", bundle, "--out", fit]) == 0
    capsys.readouterr()
